//! Summary statistics over a trace file of either stream kind, computed in one
//! streaming pass: records fold into the accumulator as they are decoded, so
//! memory stays O(one record) no matter how large the trace is (the path GB-scale
//! `trace stats` takes; see [`TraceStats::read_from`]).

use std::collections::BTreeMap;
use std::fmt;
use std::io::{BufRead, BufReader};
use std::path::Path;

use grass_core::JobSpec;
use grass_sim::SimTraceEvent;

use crate::codec::{StreamKind, TraceError};
use crate::format::TraceFormat;
use crate::stream::TraceItems;

/// Aggregate description of one trace file.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Which wire format the file was encoded in (when computed from bytes or a
    /// file; in-memory stats default to text).
    pub format: TraceFormat,
    /// Which stream the file carries.
    pub kind: StreamKind,
    /// Jobs described (workload) or observed finishing (execution).
    pub jobs: usize,
    /// Tasks described (workload) or task completions observed (execution).
    pub tasks: usize,
    /// Record count per record tag.
    pub records_by_tag: BTreeMap<String, usize>,
    /// Total task work in seconds (workload), or the summed *planned* duration of
    /// every launched copy (execution) — copies killed mid-flight count in full, so
    /// this is an upper bound on actual slot occupancy, not `slot_seconds`.
    pub total_work: f64,
    /// Largest arrival time (workload) or event time (execution).
    pub horizon: f64,
}

impl TraceStats {
    /// Compute statistics for a trace held in memory (either format, either
    /// stream kind).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TraceError> {
        Self::read_from(bytes)
    }

    /// Compute statistics for a trace file, streaming it through a
    /// [`std::io::BufReader`] — the file is never slurped into memory.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        Self::read_from(BufReader::new(std::fs::File::open(path)?))
    }

    /// Compute statistics for a trace file read through a memory map instead
    /// of a buffered reader (see [`crate::mmap`]); the result is identical to
    /// [`TraceStats::load`] for every format and stream kind.
    pub fn load_mmap(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        Self::read_from(crate::mmap::map_trace(path.as_ref())?)
    }

    /// Compute statistics over any buffered reader in a single O(one record)
    /// pass: format and stream kind are sniffed, then each decoded record folds
    /// into the accumulator and is dropped.
    pub fn read_from<R: BufRead>(r: R) -> Result<Self, TraceError> {
        match TraceItems::open(r)? {
            TraceItems::Workload(mut items) => {
                let format = items.format();
                let mut acc = WorkloadAccumulator::default();
                for job in &mut items {
                    acc.add(&job?);
                }
                Ok(acc.finish(format))
            }
            TraceItems::Execution(mut events) => {
                let format = events.format();
                let mut acc = ExecutionAccumulator::default();
                for event in &mut events {
                    acc.add(&event?);
                }
                Ok(acc.finish(format))
            }
        }
    }
}

/// O(1) fold of workload jobs into [`TraceStats`].
#[derive(Default)]
struct WorkloadAccumulator {
    jobs: usize,
    tasks: usize,
    total_work: f64,
    horizon: f64,
}

impl WorkloadAccumulator {
    fn add(&mut self, job: &JobSpec) {
        self.jobs += 1;
        self.tasks += job.total_tasks();
        self.total_work += job.total_work();
        self.horizon = self.horizon.max(job.arrival);
    }

    fn finish(self, format: TraceFormat) -> TraceStats {
        let mut records_by_tag = BTreeMap::new();
        records_by_tag.insert("meta".to_string(), 1);
        records_by_tag.insert("job".to_string(), self.jobs);
        TraceStats {
            format,
            kind: StreamKind::Workload,
            jobs: self.jobs,
            tasks: self.tasks,
            records_by_tag,
            total_work: self.total_work,
            horizon: self.horizon,
        }
    }
}

/// O(1) fold of execution events into [`TraceStats`] (per-tag counts are bounded
/// by the fixed event vocabulary).
#[derive(Default)]
struct ExecutionAccumulator {
    records_by_tag: BTreeMap<String, usize>,
    jobs: usize,
    tasks: usize,
    total_work: f64,
    horizon: f64,
}

impl ExecutionAccumulator {
    fn add(&mut self, event: &SimTraceEvent) {
        *self
            .records_by_tag
            .entry(event.kind_label().to_string())
            .or_insert(0) += 1;
        self.horizon = self.horizon.max(event.time());
        match *event {
            SimTraceEvent::JobFinish { .. } => self.jobs += 1,
            SimTraceEvent::CopyFinish {
                task_completed: true,
                ..
            } => self.tasks += 1,
            SimTraceEvent::CopyLaunch { duration, .. } => self.total_work += duration,
            _ => {}
        }
    }

    fn finish(mut self, format: TraceFormat) -> TraceStats {
        self.records_by_tag.insert("meta".to_string(), 1);
        TraceStats {
            format,
            kind: StreamKind::Execution,
            jobs: self.jobs,
            tasks: self.tasks,
            records_by_tag: self.records_by_tag,
            total_work: self.total_work,
            horizon: self.horizon,
        }
    }
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "format:      {} (v{})",
            self.format,
            self.format.version()
        )?;
        writeln!(f, "stream:      {}", self.kind)?;
        match self.kind {
            StreamKind::Workload => {
                writeln!(f, "jobs:        {}", self.jobs)?;
                writeln!(f, "tasks:       {}", self.tasks)?;
                writeln!(f, "total work:  {:.1}s", self.total_work)?;
                writeln!(f, "last arrival: {:.1}s", self.horizon)?;
            }
            StreamKind::Execution => {
                writeln!(f, "jobs finished:     {}", self.jobs)?;
                writeln!(f, "tasks completed:   {}", self.tasks)?;
                writeln!(
                    f,
                    "launched copy-sec: {:.1}s (planned; killed copies in full)",
                    self.total_work
                )?;
                writeln!(f, "makespan:          {:.1}s", self.horizon)?;
            }
        }
        write!(f, "records:")?;
        for (tag, count) in &self.records_by_tag {
            write!(f, " {tag}={count}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::record_workload;
    use grass_core::GsFactory;
    use grass_sim::{run_simulation_traced, ClusterConfig, SimConfig, VecSink};
    use grass_workload::{BoundSpec, Framework, TraceProfile, WorkloadConfig};

    #[test]
    fn workload_stats_count_jobs_and_tasks() {
        let config = WorkloadConfig::new(TraceProfile::facebook(Framework::Spark))
            .with_jobs(5)
            .with_bound(BoundSpec::paper_errors());
        let trace = record_workload(&config, 1, 2, "GS", 2, 2);
        let stats = TraceStats::from_bytes(&trace.to_bytes()).unwrap();
        assert_eq!(stats.format, TraceFormat::Text);
        assert_eq!(stats.kind, StreamKind::Workload);
        assert_eq!(stats.jobs, 5);

        // The binary encoding of the same trace yields identical statistics,
        // apart from the reported format.
        let binary = TraceStats::from_bytes(&trace.to_bytes_as(TraceFormat::Binary)).unwrap();
        assert_eq!(binary.format, TraceFormat::Binary);
        assert!(binary.to_string().contains("binary (v2)"));
        assert_eq!(
            TraceStats {
                format: TraceFormat::Text,
                ..binary
            },
            stats
        );
        assert_eq!(
            stats.tasks,
            trace.jobs.iter().map(|j| j.total_tasks()).sum::<usize>()
        );
        assert!(stats.total_work > 0.0);
        assert_eq!(stats.records_by_tag["job"], 5);
        let rendered = stats.to_string();
        assert!(
            rendered.contains("workload") && rendered.contains("job=5"),
            "{rendered}"
        );
    }

    #[test]
    fn mmap_stats_match_streamed_stats_in_every_format() {
        let config = WorkloadConfig::new(TraceProfile::facebook(Framework::Spark))
            .with_jobs(4)
            .with_bound(BoundSpec::paper_errors());
        let trace = record_workload(&config, 3, 4, "GS", 2, 2);
        let sim = crate::replay_config(&trace);
        let mut sink = VecSink::new();
        run_simulation_traced(&sim, trace.jobs.clone(), &GsFactory, &mut sink);
        let execution = crate::ExecutionTrace::new(
            crate::ExecutionMeta {
                sim_seed: 4,
                policy: "GS".into(),
                machines: 2,
                slots_per_machine: 2,
            },
            sink.into_events(),
        );
        let dir = std::env::temp_dir().join(format!("grass-stats-mmap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for format in TraceFormat::ALL {
            // Both stream kinds decode from the map in every format; the stats
            // must agree exactly with the buffered read.
            for (kind, bytes) in [
                ("workload", trace.to_bytes_as(format)),
                ("execution", execution.to_bytes_as(format)),
            ] {
                let path = dir.join(format!("{kind}-{format}.trace"));
                std::fs::write(&path, bytes).unwrap();
                let mapped = TraceStats::load_mmap(&path).unwrap();
                let streamed = TraceStats::load(&path).unwrap();
                assert_eq!(mapped, streamed, "{kind} {format}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn execution_stats_count_lifecycle_events() {
        let config = SimConfig {
            cluster: ClusterConfig::small(2, 2),
            seed: 5,
            ..SimConfig::default()
        };
        let jobs = vec![grass_core::JobSpec::single_stage(
            1,
            0.0,
            grass_core::Bound::EXACT,
            vec![1.5; 6],
        )];
        let mut sink = VecSink::new();
        let result = run_simulation_traced(&config, jobs, &GsFactory, &mut sink);
        let trace = crate::ExecutionTrace::new(
            crate::ExecutionMeta {
                sim_seed: 5,
                policy: "GS".into(),
                machines: 2,
                slots_per_machine: 2,
            },
            sink.into_events(),
        );
        let stats = TraceStats::from_bytes(&trace.to_bytes()).unwrap();
        assert_eq!(stats.kind, StreamKind::Execution);
        assert_eq!(stats.jobs, 1);
        assert_eq!(stats.tasks, 6);
        assert_eq!(stats.records_by_tag["launch"], result.total_copies);
        // Stale completion events can advance the simulator clock past the last
        // *observable* event, so the trace horizon is a lower bound on the makespan.
        assert!(stats.horizon > 0.0 && stats.horizon <= result.makespan + 1e-12);
        let rendered = stats.to_string();
        assert!(
            rendered.contains("execution") && rendered.contains("arrive=1"),
            "{rendered}"
        );
    }
}
