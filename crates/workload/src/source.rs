//! Workload sources: where a simulation's jobs come from.
//!
//! Historically every experiment sampled a fresh synthetic workload
//! ([`generate`]); with the `grass-trace` subsystem a recorded
//! workload can be replayed instead. [`JobSource`] abstracts over the three so
//! harnesses can take any: a [`GeneratedWorkload`] re-rolls its jobs from a seed,
//! a [`RecordedWorkload`] returns a fixed in-memory job list (typically decoded
//! from a workload trace) and ignores the seed entirely — the replay path — and
//! a [`StreamedWorkload`] loads job prefixes on demand from an external store
//! (typically a trace file on disk, wired up by `grass-trace`), so a GB-scale
//! recording never has to be held in memory beyond what a call actually needs.

use std::sync::Arc;

use grass_core::JobSpec;

use crate::generator::{generate, WorkloadConfig};

/// A provider of simulation jobs.
pub trait JobSource {
    /// Human-readable label of the source ("Facebook-Hadoop", a trace file name, …).
    fn label(&self) -> String;

    /// Produce the jobs to simulate. Generated sources sample from `seed`; recorded
    /// sources return their fixed job list and ignore it.
    fn jobs(&self, seed: u64) -> Vec<JobSpec>;

    /// A `fraction` slice of the workload used to warm a learning policy's sample
    /// store with "executions of previous jobs" (GRASS §4.1). The default takes a
    /// prefix of [`JobSource::jobs`]; generated sources instead re-sample a smaller
    /// workload from the same configuration, which yields the identical prefix while
    /// also honouring the minimum of four warm-up jobs on tiny workloads.
    ///
    /// Caveat for fixed-job sources: a recording has no "other jobs of the same
    /// workload" to warm from, so the prefix of the evaluation jobs themselves
    /// stands in — a deliberate, mild train-on-test leak (the store holds only
    /// per-size-bucket duration samples, which the prefix shares with any draw from
    /// the same distribution). Generated sources warm on a *different* sample
    /// (`seed` is already offset by the caller) and have no such leak.
    fn warmup_jobs(&self, fraction: f64, seed: u64) -> Vec<JobSpec> {
        let mut jobs = self.jobs(seed);
        let count = ((jobs.len() as f64 * fraction).ceil() as usize)
            .max(4)
            .min(jobs.len());
        jobs.truncate(count);
        jobs
    }

    /// Whether this source's jobs are (predominantly) deadline-bound — the accuracy
    /// metric — rather than error-bound — the duration metric. Harnesses use this to
    /// pick the comparison metric without materialising the job list.
    fn deadline_bound(&self) -> bool;
}

/// Job source that samples a fresh synthetic workload per seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratedWorkload {
    /// The generator configuration sampled from.
    pub config: WorkloadConfig,
}

impl GeneratedWorkload {
    /// Wrap a generator configuration.
    pub fn new(config: WorkloadConfig) -> Self {
        GeneratedWorkload { config }
    }
}

impl JobSource for GeneratedWorkload {
    fn label(&self) -> String {
        self.config.profile.label()
    }

    fn jobs(&self, seed: u64) -> Vec<JobSpec> {
        generate(&self.config, seed)
    }

    fn warmup_jobs(&self, fraction: f64, seed: u64) -> Vec<JobSpec> {
        // Regenerate rather than truncate: byte-identical to the historical
        // behaviour of the experiment harness (generation is prefix-stable, so a
        // smaller `num_jobs` yields a prefix of the full workload), and `.max(4)`
        // can exceed the source's own job count on tiny workloads.
        let num_jobs = ((self.config.num_jobs as f64 * fraction).ceil() as usize).max(4);
        let warm_cfg = WorkloadConfig {
            num_jobs,
            ..self.config
        };
        generate(&warm_cfg, seed)
    }

    fn deadline_bound(&self) -> bool {
        self.config.bound.is_deadline()
    }
}

/// Job source that replays a fixed, previously recorded job list.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedWorkload {
    label: String,
    jobs: Vec<JobSpec>,
    deadline_bound: bool,
}

impl RecordedWorkload {
    /// Wrap a fixed job list under a label. The metric kind is inferred from the
    /// majority bound kind of the recorded jobs.
    pub fn new(label: impl Into<String>, jobs: Vec<JobSpec>) -> Self {
        let deadline_jobs = jobs.iter().filter(|j| j.bound.is_deadline()).count();
        RecordedWorkload {
            label: label.into(),
            deadline_bound: deadline_jobs * 2 > jobs.len(),
            jobs,
        }
    }
}

impl JobSource for RecordedWorkload {
    fn label(&self) -> String {
        self.label.clone()
    }

    fn jobs(&self, _seed: u64) -> Vec<JobSpec> {
        self.jobs.clone()
    }

    fn deadline_bound(&self) -> bool {
        self.deadline_bound
    }
}

/// Loader behind a [`StreamedWorkload`]: produce the first `count` jobs of the
/// backing store. Called once per [`JobSource::jobs`] / warm-up request, so the
/// implementation should stream (decode records up to `count` and stop) rather
/// than materialise everything and truncate.
pub type PrefixLoader = dyn Fn(usize) -> Result<Vec<JobSpec>, String> + Send + Sync;

/// Job source that loads job prefixes on demand from an external store —
/// typically a workload trace file opened by `grass-trace`'s
/// `open_workload_source`, which validates the store once at construction.
///
/// `warmup_jobs(fraction, _)` asks the loader for only the first
/// ⌈fraction·n⌉ jobs (same prefix semantics as [`RecordedWorkload`]), so
/// warming a policy's sample store from a GB-scale recording decodes a prefix
/// of the file instead of all of it.
///
/// Like every [`JobSource`], each [`JobSource::jobs`] call produces a fresh
/// job list — here a fresh decode pass, where [`GeneratedWorkload`] resamples
/// and [`RecordedWorkload`] deep-clones. That per-call decode is the
/// deliberate price of never holding the full recording in memory (caching the
/// decoded list would reintroduce exactly the O(trace) footprint this source
/// exists to avoid); it is amortised against the simulation each call feeds,
/// which dominates decode by an order of magnitude even at small scale.
///
/// The constructor's invariants (the store really holds `total_jobs` loadable
/// jobs) are the wiring layer's responsibility; if the store fails *after*
/// construction (file deleted or corrupted mid-run), the infallible
/// [`JobSource::jobs`] surface panics with the loader's error message.
#[derive(Clone)]
pub struct StreamedWorkload {
    label: String,
    total_jobs: usize,
    deadline_bound: bool,
    loader: Arc<PrefixLoader>,
}

impl StreamedWorkload {
    /// Wrap a prefix loader. `total_jobs` is the store's full job count (used to
    /// size warm-up prefixes and full loads); `deadline_bound` selects the
    /// comparison metric, as in [`RecordedWorkload::new`].
    pub fn new(
        label: impl Into<String>,
        total_jobs: usize,
        deadline_bound: bool,
        loader: impl Fn(usize) -> Result<Vec<JobSpec>, String> + Send + Sync + 'static,
    ) -> Self {
        StreamedWorkload {
            label: label.into(),
            total_jobs,
            deadline_bound,
            loader: Arc::new(loader),
        }
    }

    /// Number of jobs the backing store holds.
    pub fn total_jobs(&self) -> usize {
        self.total_jobs
    }

    /// Load the first `count` jobs, with the documented panic on loader failure.
    fn load_prefix(&self, count: usize) -> Vec<JobSpec> {
        (self.loader)(count).unwrap_or_else(|e| {
            // grass: allow(panicky-lib, "documented panic: the streamed-workload loader contract (see method doc)")
            panic!(
                "streamed workload '{}' failed to load its first {count} jobs: {e}",
                self.label
            )
        })
    }
}

impl std::fmt::Debug for StreamedWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamedWorkload")
            .field("label", &self.label)
            .field("total_jobs", &self.total_jobs)
            .field("deadline_bound", &self.deadline_bound)
            .finish_non_exhaustive()
    }
}

impl JobSource for StreamedWorkload {
    fn label(&self) -> String {
        self.label.clone()
    }

    fn jobs(&self, _seed: u64) -> Vec<JobSpec> {
        self.load_prefix(self.total_jobs)
    }

    fn warmup_jobs(&self, fraction: f64, _seed: u64) -> Vec<JobSpec> {
        let count = ((self.total_jobs as f64 * fraction).ceil() as usize)
            .max(4)
            .min(self.total_jobs);
        self.load_prefix(count)
    }

    fn deadline_bound(&self) -> bool {
        self.deadline_bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::BoundSpec;
    use crate::profiles::{Framework, TraceProfile};

    fn config() -> WorkloadConfig {
        WorkloadConfig::new(TraceProfile::facebook(Framework::Spark))
            .with_jobs(6)
            .with_bound(BoundSpec::paper_errors())
    }

    #[test]
    fn generated_source_matches_direct_generation() {
        let source = GeneratedWorkload::new(config());
        assert_eq!(source.jobs(3), generate(&config(), 3));
        assert_ne!(source.jobs(3), source.jobs(4));
        assert_eq!(source.label(), "Facebook-Spark");
    }

    #[test]
    fn recorded_source_ignores_the_seed() {
        let jobs = generate(&config(), 5);
        let source = RecordedWorkload::new("fixture", jobs.clone());
        assert_eq!(source.jobs(0), jobs);
        assert_eq!(source.jobs(123), jobs);
        assert_eq!(source.label(), "fixture");
    }

    #[test]
    fn generated_warmup_matches_a_smaller_regeneration() {
        let source = GeneratedWorkload::new(config().with_jobs(10));
        // ceil(10 * 0.5) = 5 warm jobs, a prefix of the full workload.
        let warm = source.warmup_jobs(0.5, 9);
        assert_eq!(warm.len(), 5);
        assert_eq!(warm, source.jobs(9)[..5].to_vec());
        // Tiny workloads still warm with at least four jobs.
        let tiny = GeneratedWorkload::new(config().with_jobs(2));
        assert_eq!(tiny.warmup_jobs(0.5, 9).len(), 4);
    }

    #[test]
    fn recorded_warmup_is_a_prefix_of_the_recording() {
        let jobs = generate(&config(), 5);
        let source = RecordedWorkload::new("fixture", jobs.clone());
        let warm = source.warmup_jobs(0.5, 0);
        assert_eq!(warm.len(), 4); // ceil(6 * 0.5) = 3, raised to the minimum of 4
        assert_eq!(warm, jobs[..4].to_vec());
        // The prefix can never exceed the recording itself.
        assert_eq!(source.warmup_jobs(5.0, 0), jobs);
    }

    #[test]
    fn streamed_source_loads_only_the_prefix_it_needs() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let jobs = generate(&config().with_jobs(10), 5);
        let largest_request = Arc::new(AtomicUsize::new(0));
        let watcher = Arc::clone(&largest_request);
        let backing = jobs.clone();
        let source = StreamedWorkload::new("streamed", jobs.len(), false, move |count| {
            watcher.fetch_max(count, Ordering::SeqCst);
            Ok(backing[..count.min(backing.len())].to_vec())
        });

        assert_eq!(source.total_jobs(), 10);
        assert_eq!(source.label(), "streamed");
        assert!(!source.deadline_bound());
        // ceil(10 * 0.5) = 5 warm jobs: the loader is asked for exactly 5.
        let warm = source.warmup_jobs(0.5, 0);
        assert_eq!(warm, jobs[..5].to_vec());
        assert_eq!(largest_request.load(Ordering::SeqCst), 5);
        // Prefix semantics match RecordedWorkload: min 4, capped at the total.
        assert_eq!(source.warmup_jobs(0.01, 0).len(), 4);
        assert_eq!(source.warmup_jobs(9.0, 0).len(), 10);
        // A full load asks for everything, and the seed is ignored.
        assert_eq!(source.jobs(123), jobs);
        assert_eq!(largest_request.load(Ordering::SeqCst), 10);
        let debug = format!("{source:?}");
        assert!(
            debug.contains("streamed") && debug.contains("10"),
            "{debug}"
        );
    }

    #[test]
    #[should_panic(expected = "failed to load")]
    fn streamed_source_panics_with_the_loader_error() {
        let source = StreamedWorkload::new("broken", 3, false, |_| Err("disk vanished".into()));
        source.jobs(0);
    }

    #[test]
    fn metric_kind_follows_the_bounds() {
        use crate::generator::BoundSpec;
        assert!(!GeneratedWorkload::new(config()).deadline_bound());
        let deadline_cfg = config().with_bound(BoundSpec::paper_deadlines());
        assert!(GeneratedWorkload::new(deadline_cfg).deadline_bound());
        assert!(!RecordedWorkload::new("e", generate(&config(), 5)).deadline_bound());
        assert!(RecordedWorkload::new("d", generate(&deadline_cfg, 5)).deadline_bound());
    }
}
