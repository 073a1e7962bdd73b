//! Execution traces: the timestamped simulator event stream of one run.
//!
//! The event vocabulary is `grass-sim`'s [`SimTraceEvent`] — job arrivals, policy
//! decisions (launch vs speculate), copy launches with their slot allocation, copy
//! finishes and kills, and job completions — encoded one record per event in
//! emission order, in either [`TraceFormat`]. Capture either in memory
//! (`grass_sim::VecSink` plus [`ExecutionTrace::new`]) or streamed straight to a
//! writer ([`crate::ExecutionTraceSink`]). Reads sniff the format; writes default
//! to text (v1) and take an explicit format via the `*_as` methods.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use grass_sim::SimTraceEvent;

use crate::codec::TraceError;
use crate::format::{codec_for, TraceFormat};
use crate::stream::ExecutionEvents;

/// Metadata of an execution trace: the simulation configuration that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionMeta {
    /// Simulator seed of the run.
    pub sim_seed: u64,
    /// Policy family that scheduled the run.
    pub policy: String,
    /// Number of cluster machines.
    pub machines: usize,
    /// Slots per machine.
    pub slots_per_machine: usize,
}

/// A recorded execution: metadata plus the full event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionTrace {
    /// The simulation configuration that produced the stream.
    pub meta: ExecutionMeta,
    /// Events in emission (simulation) order.
    pub events: Vec<SimTraceEvent>,
}

impl ExecutionTrace {
    /// Bundle metadata and a captured event stream.
    pub fn new(meta: ExecutionMeta, events: Vec<SimTraceEvent>) -> Self {
        ExecutionTrace { meta, events }
    }

    /// Encode the trace onto any writer in the chosen format.
    pub fn write_as<W: Write>(&self, mut w: W, format: TraceFormat) -> Result<(), TraceError> {
        let mut codec = codec_for(format);
        let w: &mut dyn Write = &mut w;
        codec.begin_execution(w, &self.meta)?;
        for event in &self.events {
            codec.encode_event(w, event)?;
        }
        codec.finish(w)?;
        w.flush()?;
        Ok(())
    }

    /// Encode the trace into a byte buffer in the text (v1) format.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_bytes_as(TraceFormat::Text)
    }

    /// Encode the trace into a byte buffer in the chosen format.
    ///
    /// Panics on the one non-I/O encode failure (a single record over the binary
    /// frame cap — unreachable for real event streams); use
    /// [`write_as`](Self::write_as) to handle it as an error instead.
    pub fn to_bytes_as(&self, format: TraceFormat) -> Vec<u8> {
        let mut buf = Vec::new();
        self.write_as(&mut buf, format)
            // grass: allow(panicky-lib, "documented panic: unreachable for real event streams; write_as is the fallible variant")
            .unwrap_or_else(|e| panic!("in-memory {format} encode failed: {e}"));
        buf
    }

    /// Decode a trace from any buffered reader; the format is sniffed from the
    /// header, so text and binary traces read through the same call.
    ///
    /// This *is* the streaming decoder, collected (see
    /// [`ExecutionEvents::open`] for the one-event-at-a-time path).
    pub fn read_from<R: BufRead>(r: R) -> Result<Self, TraceError> {
        ExecutionEvents::open(r)?.into_trace()
    }

    /// Decode a trace from a byte slice (either format).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TraceError> {
        Self::read_from(bytes)
    }

    /// Write the trace to a file in the text (v1) format.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), TraceError> {
        self.save_as(path, TraceFormat::Text)
    }

    /// Write the trace to a file in the chosen format.
    pub fn save_as(&self, path: impl AsRef<Path>, format: TraceFormat) -> Result<(), TraceError> {
        self.write_as(BufWriter::new(File::create(path)?), format)
    }

    /// Read a trace from a file (either format).
    pub fn load(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        Self::read_from(BufReader::new(File::open(path)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grass_core::{ActionKind, JobId, TaskId};
    use grass_sim::SlotId;

    pub(crate) fn sample_events() -> Vec<SimTraceEvent> {
        vec![
            SimTraceEvent::JobArrival {
                time: 0.0,
                job: JobId(1),
            },
            SimTraceEvent::Decision {
                time: 0.0,
                job: JobId(1),
                task: TaskId(4),
                kind: ActionKind::Launch,
            },
            SimTraceEvent::CopyLaunch {
                time: 0.0,
                job: JobId(1),
                task: TaskId(4),
                copy: 0,
                slot: SlotId {
                    machine: 3,
                    slot: 1,
                },
                duration: 2.5,
                speculative: false,
            },
            SimTraceEvent::Decision {
                time: 1.5,
                job: JobId(1),
                task: TaskId(4),
                kind: ActionKind::Speculate,
            },
            SimTraceEvent::CopyLaunch {
                time: 1.5,
                job: JobId(1),
                task: TaskId(4),
                copy: 1,
                slot: SlotId {
                    machine: 0,
                    slot: 0,
                },
                duration: 0.5,
                speculative: true,
            },
            SimTraceEvent::CopyFinish {
                time: 2.0,
                job: JobId(1),
                task: TaskId(4),
                copy: 1,
                task_completed: true,
            },
            SimTraceEvent::CopyKill {
                time: 2.0,
                job: JobId(1),
                task: TaskId(4),
                copy: 0,
                slot: SlotId {
                    machine: 3,
                    slot: 1,
                },
            },
            SimTraceEvent::JobFinish {
                time: 2.0,
                job: JobId(1),
                completed_input: 1,
                completed_total: 1,
            },
        ]
    }

    fn sample_trace() -> ExecutionTrace {
        ExecutionTrace::new(
            ExecutionMeta {
                sim_seed: 9,
                policy: "GRASS".into(),
                machines: 4,
                slots_per_machine: 2,
            },
            sample_events(),
        )
    }

    #[test]
    fn every_event_variant_round_trips_in_both_formats() {
        let trace = sample_trace();
        for format in TraceFormat::ALL {
            let bytes = trace.to_bytes_as(format);
            let decoded = ExecutionTrace::from_bytes(&bytes).unwrap();
            assert_eq!(decoded, trace, "{format}");
            assert_eq!(decoded.to_bytes_as(format), bytes, "{format}");
        }
    }

    #[test]
    fn unknown_tags_and_bad_slots_are_rejected() {
        let bytes = b"grass-trace 1 execution\n\
            meta sim_seed=0 policy=GS machines=1 slots_per_machine=1\n\
            teleport t=0 job=1\n";
        assert!(ExecutionTrace::from_bytes(bytes).is_err());

        let bytes = b"grass-trace 1 execution\n\
            meta sim_seed=0 policy=GS machines=1 slots_per_machine=1\n\
            kill t=0 job=1 task=0 copy=0 slot=nonsense\n";
        let err = ExecutionTrace::from_bytes(bytes).unwrap_err();
        assert!(err.to_string().contains("machine.slot"), "{err}");
    }

    #[test]
    fn workload_header_is_rejected_for_execution_reads() {
        let text = b"grass-trace 1 workload\nmeta num_jobs=0\n";
        assert!(matches!(
            ExecutionTrace::from_bytes(text),
            Err(TraceError::WrongStream { .. })
        ));
        let binary = b"grass-trace\0\x02\x00";
        assert!(matches!(
            ExecutionTrace::from_bytes(binary),
            Err(TraceError::WrongStream { .. })
        ));
    }
}
