//! Workload traces: the full `JobSpec`/`TaskSpec` set of a run plus the generation
//! metadata needed to replay it.
//!
//! A workload trace is self-contained for replay: it carries the generator seed and
//! profile label it was sampled from (provenance), the simulator seed and policy it
//! was first run with (replay defaults), the cluster size, and every job with every
//! task. Decoding reconstructs `JobSpec`s bit-identical to the originals — the text
//! format uses shortest-round-trip float formatting, the binary format raw IEEE-754
//! bits — so feeding the decoded jobs through `run_simulation` with the same
//! `SimConfig` reproduces the original `JobOutcome`s exactly, whichever
//! [`TraceFormat`] the trace was persisted in. Reads sniff the format
//! automatically; writes default to text (v1) and take an explicit format via the
//! `*_as` methods.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use grass_core::JobSpec;
use grass_workload::{generate, RecordedWorkload, StreamedWorkload, WorkloadConfig};

use crate::codec::TraceError;
use crate::format::{codec_for, TraceFormat};
use crate::stream::WorkloadItems;

/// Provenance and replay metadata of a workload trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadMeta {
    /// Seed the generator drew the jobs from.
    pub generator_seed: u64,
    /// Simulator seed the workload was (or should be) run with.
    pub sim_seed: u64,
    /// Policy family the workload was (or should be) run with ("GRASS", "LATE", …).
    pub policy: String,
    /// Trace-profile label the jobs were sampled from ("Facebook-Hadoop", …), or a
    /// free-form description for hand-built workloads.
    pub profile: String,
    /// Number of cluster machines the original run used.
    pub machines: usize,
    /// Slots per machine the original run used.
    pub slots_per_machine: usize,
}

/// A recorded workload: metadata plus the complete job list.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadTrace {
    /// Provenance and replay metadata.
    pub meta: WorkloadMeta,
    /// Every job of the workload, in the order it was generated.
    pub jobs: Vec<JobSpec>,
}

impl WorkloadTrace {
    /// Bundle metadata and jobs into a trace.
    pub fn new(meta: WorkloadMeta, jobs: Vec<JobSpec>) -> Self {
        WorkloadTrace { meta, jobs }
    }

    /// Encode the trace onto any writer in the chosen format.
    pub fn write_as<W: Write>(&self, mut w: W, format: TraceFormat) -> Result<(), TraceError> {
        let mut codec = codec_for(format);
        let w: &mut dyn Write = &mut w;
        codec.begin_workload(w, &self.meta, self.jobs.len())?;
        for job in &self.jobs {
            codec.encode_job(w, job)?;
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
    /// frame cap — unreachable for any simulatable workload); use
    /// [`write_as`](Self::write_as) to handle it as an error instead.
    pub fn to_bytes_as(&self, format: TraceFormat) -> Vec<u8> {
        let mut buf = Vec::new();
        self.write_as(&mut buf, format)
            // grass: allow(panicky-lib, "documented panic: unreachable for any simulatable workload; write_as is the fallible variant")
            .unwrap_or_else(|e| panic!("in-memory {format} encode failed: {e}"));
        buf
    }

    /// Decode a trace from any buffered reader; the format is sniffed from the
    /// header, so text and binary traces read through the same call.
    ///
    /// This *is* the streaming decoder, collected: it opens a
    /// [`WorkloadItems`] iterator and drains it, so eager and streaming decode
    /// are equivalent by construction — use [`WorkloadItems::open`] directly to
    /// process jobs one at a time in O(one record) memory instead.
    pub fn read_from<R: BufRead>(r: R) -> Result<Self, TraceError> {
        WorkloadItems::open(r)?.into_trace()
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

    /// Convert into a [`RecordedWorkload`] job source (the `grass-workload`
    /// abstraction simulator harnesses consume).
    pub fn to_source(&self) -> RecordedWorkload {
        RecordedWorkload::new(self.meta.profile.clone(), self.jobs.clone())
    }
}

/// Open a workload trace file as a **streaming** [`StreamedWorkload`] job
/// source, without ever materialising the full job list up front.
///
/// Opening makes one O(1)-memory validation pass over the file: the meta record
/// is decoded, every job is streamed through `JobSpec::validate` (so corrupt
/// traces fail here, with the codec's byte-offset/line error, not mid-sweep),
/// and the majority bound kind is tallied for metric selection. The returned
/// source then re-opens the file on demand: `warmup_jobs(fraction, _)` decodes
/// only the first ⌈fraction·n⌉ jobs from disk, and `jobs()` decodes the full
/// stream per call — memory stays bounded by what the caller keeps.
pub fn open_workload_source(
    path: impl AsRef<Path>,
) -> Result<(WorkloadMeta, StreamedWorkload), TraceError> {
    open_source_with(path.as_ref(), |path| WorkloadItems::open_path(path))
}

/// The validation pass and on-demand loader behind [`open_workload_source`] and
/// [`crate::open_workload_source_mmap`]; `open` (re)opens the decoder over the
/// file, so the two differ only in how the bytes are read.
pub(crate) fn open_source_with(
    path: &Path,
    open: fn(&Path) -> Result<WorkloadItems<'static>, TraceError>,
) -> Result<(WorkloadMeta, StreamedWorkload), TraceError> {
    let path = path.to_path_buf();
    let mut items = open(&path)?;
    let meta = items.meta().clone();
    let (mut total, mut deadline_jobs) = (0usize, 0usize);
    for job in &mut items {
        let job = job?;
        total += 1;
        if job.bound.is_deadline() {
            deadline_jobs += 1;
        }
    }
    let source = StreamedWorkload::new(
        meta.profile.clone(),
        total,
        deadline_jobs * 2 > total,
        move |count| {
            let items = open(&path).map_err(|e| e.to_string())?;
            items
                .take(count)
                .map(|job| job.map_err(|e| e.to_string()))
                .collect()
        },
    );
    Ok((meta, source))
}

/// Generate a fresh synthetic workload and wrap it as a trace ready to persist.
///
/// `sim_seed` and `policy` are recorded as the replay defaults; `machines` and
/// `slots_per_machine` pin the cluster size of the recorded run.
pub fn record_workload(
    config: &WorkloadConfig,
    generator_seed: u64,
    sim_seed: u64,
    policy: &str,
    machines: usize,
    slots_per_machine: usize,
) -> WorkloadTrace {
    WorkloadTrace::new(
        WorkloadMeta {
            generator_seed,
            sim_seed,
            policy: policy.to_string(),
            profile: config.profile.label(),
            machines,
            slots_per_machine,
        },
        generate(config, generator_seed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use grass_core::{Bound, JobSpec};
    use grass_workload::{BoundSpec, Framework, TraceProfile};

    fn sample_trace() -> WorkloadTrace {
        let config = WorkloadConfig::new(TraceProfile::facebook(Framework::Spark))
            .with_jobs(12)
            .with_bound(BoundSpec::paper_errors());
        record_workload(&config, 7, 11, "GRASS", 20, 4)
    }

    #[test]
    fn round_trip_preserves_jobs_bit_exactly_in_both_formats() {
        let trace = sample_trace();
        for format in TraceFormat::ALL {
            let bytes = trace.to_bytes_as(format);
            let decoded = WorkloadTrace::from_bytes(&bytes).unwrap();
            assert_eq!(decoded.meta, trace.meta, "{format}");
            assert_eq!(decoded.jobs.len(), trace.jobs.len(), "{format}");
            for (a, b) in trace.jobs.iter().zip(decoded.jobs.iter()) {
                assert_eq!(a, b);
                assert_eq!(a.arrival.to_bits(), b.arrival.to_bits());
            }
            // Encoding is canonical per format: re-encoding the decoded trace is
            // byte-identical.
            assert_eq!(decoded.to_bytes_as(format), bytes, "{format}");
        }
        // And the binary encoding is materially smaller.
        assert!(trace.to_bytes_as(TraceFormat::Binary).len() < trace.to_bytes().len() / 2);
    }

    #[test]
    fn multi_stage_and_deadline_jobs_round_trip() {
        let mut awkward = JobSpec::multi_stage(
            1,
            3.25,
            Bound::Deadline(100.5),
            vec![vec![1.0, 2.5], vec![0.125]],
        );
        // Hand-built stage names may contain the text codec's own separators and
        // non-ASCII; escaping must keep them decodable, and the binary format must
        // carry them verbatim.
        awkward.stages[0].name = "map:shuffle|α".to_string();
        let jobs = vec![
            awkward,
            JobSpec::single_stage(2, 4.0, Bound::EXACT, vec![1e-9, 1e9]),
        ];
        let trace = WorkloadTrace::new(
            WorkloadMeta {
                generator_seed: 0,
                sim_seed: 0,
                policy: "GS".into(),
                profile: "hand built, café:style".into(),
                machines: 2,
                slots_per_machine: 2,
            },
            jobs.clone(),
        );
        for format in TraceFormat::ALL {
            let decoded = WorkloadTrace::from_bytes(&trace.to_bytes_as(format)).unwrap();
            assert_eq!(decoded.jobs, jobs, "{format}");
            assert_eq!(decoded.jobs[0].stages[0].name, "map:shuffle|α");
            assert_eq!(decoded.meta.profile, "hand built, café:style");
        }
    }

    #[test]
    fn job_count_mismatch_is_rejected() {
        let trace = sample_trace();
        let mut bytes = trace.to_bytes();
        // Drop the last job line.
        let cut = bytes
            .iter()
            .rposition(|&b| b == b'\n')
            .map(|last| bytes[..last].iter().rposition(|&b| b == b'\n').unwrap() + 1)
            .unwrap();
        bytes.truncate(cut);
        let err = WorkloadTrace::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("declares"), "{err}");
    }

    #[test]
    fn invalid_decoded_jobs_are_rejected() {
        // Stage counts that do not match the task list must fail validation.
        let bytes = b"grass-trace 1 workload\n\
            meta generator_seed=0 sim_seed=0 policy=GS profile=x machines=1 slots_per_machine=1 num_jobs=1\n\
            job id=0 arrival=0 bound=error:0 stages=input:2 tasks=0:1\n";
        let err = WorkloadTrace::from_bytes(bytes).unwrap_err();
        assert!(err.to_string().contains("invalid"), "{err}");
    }

    #[test]
    fn degenerate_task_work_is_rejected_at_decode() {
        // `f64::from_str` happily parses NaN/inf; a corrupted trace must fail
        // decode/validation rather than feed NaN into downstream comparisons.
        for bad in ["NaN", "inf", "-3"] {
            let bytes = format!(
                "grass-trace 1 workload\n\
                 meta generator_seed=0 sim_seed=0 policy=GS profile=x machines=1 \
                 slots_per_machine=1 num_jobs=1\n\
                 job id=0 arrival=0 bound=error:0 stages=input:2 tasks=0:1,0:{bad}\n"
            );
            let err = WorkloadTrace::from_bytes(bytes.as_bytes()).unwrap_err();
            assert!(err.to_string().contains("degenerate"), "work {bad}: {err}");
        }
    }

    #[test]
    fn to_source_exposes_the_recorded_jobs() {
        use grass_workload::JobSource;
        let trace = sample_trace();
        let source = trace.to_source();
        assert_eq!(source.jobs(999), trace.jobs);
        assert_eq!(source.label(), trace.meta.profile);
    }
}
