//! GRASS's shared sample store (§4.1–4.2 of the paper).
//!
//! GRASS learns *when to switch* from RAS to GS by comparing the performance of past
//! jobs that ran **pure GS** or **pure RAS** throughout (those samples are produced by
//! the ξ-perturbation in [`crate::grass::GrassFactory`]). Samples are bucketed by job
//! size and annotated with the three factors the paper identifies (§4.1):
//!
//! 1. the approximation bound (remaining deadline / tasks still needed),
//! 2. cluster utilisation,
//! 3. estimation accuracy of `trem` / `tnew`.
//!
//! A query asks: "for a job of roughly this size, under these cluster conditions, how
//! fast does GS (or RAS) complete tasks?" The answer is a *task completion rate*
//! (tasks per second), estimated as a similarity-weighted average over stored samples.
//! Which factors participate in the similarity weighting is controlled by a
//! [`FactorSet`], which is how the Best-1 / Best-2 ablations of §6.3.2 are expressed.
//!
//! # Layout
//!
//! The store is **partitioned by `(BoundKind, SpeculationMode)`** — the exact pair
//! every prediction filters on — so `predict_rate` touches only the relevant
//! partition instead of scanning the whole history. Within a partition, samples keep
//! their global insertion order (each carries a global sequence number), so the float
//! summation order of the similarity-weighted mean is *identical* to the historical
//! whole-vector scan and predictions are bit-for-bit unchanged. Eviction at the
//! retention cap pops the globally oldest sample (smallest sequence number across
//! partition fronts), reproducing the historical FIFO exactly — but as an O(1)
//! `VecDeque::pop_front` instead of an O(cap) front drain.
//!
//! The retained samples are the store's whole state; see `docs/sample-store.md`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

use crate::bins::SizeBucket;
use crate::job::Bound;
use crate::outcome::JobOutcome;
use crate::speculation::SpeculationMode;

/// Which of the three learning factors participate in sample matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FactorSet {
    /// Match on the approximation bound (remaining deadline / tasks needed).
    pub bound: bool,
    /// Match on cluster utilisation.
    pub utilization: bool,
    /// Match on estimation accuracy.
    pub accuracy: bool,
}

impl FactorSet {
    /// All three factors — full GRASS.
    pub fn all() -> Self {
        FactorSet {
            bound: true,
            utilization: true,
            accuracy: true,
        }
    }

    /// Only the approximation bound (the paper's "Best-1" configuration: when a single
    /// factor is used, the bound gives the best results).
    pub fn best_one() -> Self {
        FactorSet {
            bound: true,
            utilization: false,
            accuracy: false,
        }
    }

    /// Bound + cluster utilisation (the paper's "Best-2" for the Hadoop prototype).
    pub fn best_two_utilization() -> Self {
        FactorSet {
            bound: true,
            utilization: true,
            accuracy: false,
        }
    }

    /// Bound + estimation accuracy (the paper's "Best-2" for the Spark prototype).
    pub fn best_two_accuracy() -> Self {
        FactorSet {
            bound: true,
            utilization: false,
            accuracy: true,
        }
    }

    /// Number of active factors.
    pub fn count(&self) -> usize {
        usize::from(self.bound) + usize::from(self.utilization) + usize::from(self.accuracy)
    }
}

impl Default for FactorSet {
    fn default() -> Self {
        FactorSet::all()
    }
}

/// Whether a sample (or query) concerns a deadline-bound or error-bound job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BoundKind {
    /// Deadline-bound: performance is "input tasks completed within the deadline".
    Deadline,
    /// Error-bound: performance is "seconds to complete the needed tasks".
    Error,
}

impl BoundKind {
    /// Classify a [`Bound`].
    pub fn of(bound: &Bound) -> Self {
        match bound {
            Bound::Deadline(_) => BoundKind::Deadline,
            Bound::Error(_) => BoundKind::Error,
        }
    }
}

/// One recorded sample: a job that ran pure GS or pure RAS throughout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Which algorithm the job ran.
    pub mode: SpeculationMode,
    /// Deadline- or error-bound.
    pub kind: BoundKind,
    /// Geometric size bucket of the job.
    pub size_bucket: SizeBucket,
    /// The bound value: deadline seconds (deadline jobs) or number of tasks that had
    /// to complete (error jobs).
    pub bound_value: f64,
    /// The measured performance: input tasks completed (deadline jobs) or job duration
    /// in seconds (error jobs).
    pub performance: f64,
    /// Average cluster utilisation observed while the job ran, in `[0, 1]`.
    pub utilization: f64,
    /// Average measured estimation accuracy while the job ran, in `[0, 1]`.
    pub accuracy: f64,
}

impl Sample {
    /// Task completion rate implied by this sample, in tasks per second.
    ///
    /// * Deadline jobs: `completed tasks / deadline`.
    /// * Error jobs: `tasks needed / duration`.
    pub fn rate(&self) -> f64 {
        match self.kind {
            BoundKind::Deadline => {
                if self.bound_value <= 0.0 {
                    0.0
                } else {
                    self.performance / self.bound_value
                }
            }
            BoundKind::Error => {
                if self.performance <= 0.0 {
                    0.0
                } else {
                    self.bound_value / self.performance
                }
            }
        }
    }

    /// Build a sample from a completed job outcome. Returns `None` for outcomes that
    /// carry no usable signal (zero tasks, zero duration).
    pub fn from_outcome(mode: SpeculationMode, outcome: &JobOutcome) -> Option<Sample> {
        let kind = BoundKind::of(&outcome.bound);
        let (bound_value, performance) = match outcome.bound {
            Bound::Deadline(d) => {
                if d <= 0.0 {
                    return None;
                }
                (d, outcome.completed_input_tasks as f64)
            }
            Bound::Error(e) => {
                let needed = Bound::Error(e).tasks_needed(outcome.input_tasks);
                let duration = outcome.duration();
                if needed == 0 || duration <= 0.0 {
                    return None;
                }
                (needed as f64, duration)
            }
        };
        Some(Sample {
            mode,
            kind,
            size_bucket: SizeBucket::of(outcome.input_tasks),
            bound_value,
            performance,
            utilization: outcome.avg_cluster_utilization,
            accuracy: outcome.avg_estimation_accuracy,
        })
    }
}

/// Query context for a rate prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryContext {
    /// Deadline- or error-bound job.
    pub kind: BoundKind,
    /// Size bucket of the querying job.
    pub size_bucket: SizeBucket,
    /// The bound value being considered (remaining deadline seconds / tasks still
    /// needed for the segment in question).
    pub bound_value: f64,
    /// Current cluster utilisation.
    pub utilization: f64,
    /// Current measured estimation accuracy.
    pub accuracy: f64,
}

/// O(1) snapshot of the store's per-(kind, mode) sample counts, tagged with the
/// store generation it was taken at. Taken under a single lock acquisition, so the
/// counts are mutually consistent and the generation identifies exactly which store
/// state they describe. The fleet sweep runner's `sync` line carries one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreCounts {
    /// [`SampleStore::generation`] at snapshot time.
    pub generation: u64,
    /// `(GS, RAS)` sample counts for deadline-bound samples.
    pub deadline: (usize, usize),
    /// `(GS, RAS)` sample counts for error-bound samples.
    pub error: (usize, usize),
}

impl StoreCounts {
    /// `(GS, RAS)` counts for one bound kind.
    pub fn for_kind(&self, kind: BoundKind) -> (usize, usize) {
        match kind {
            BoundKind::Deadline => self.deadline,
            BoundKind::Error => self.error,
        }
    }
}

/// Number of `(BoundKind, SpeculationMode)` partitions.
const NUM_PARTITIONS: usize = 4;

fn kind_idx(kind: BoundKind) -> usize {
    match kind {
        BoundKind::Deadline => 0,
        BoundKind::Error => 1,
    }
}

fn mode_idx(mode: SpeculationMode) -> usize {
    match mode {
        SpeculationMode::Gs => 0,
        SpeculationMode::Ras => 1,
    }
}

/// Partition index for a `(mode, kind)` pair.
fn par_idx(mode: SpeculationMode, kind: BoundKind) -> usize {
    kind_idx(kind) * 2 + mode_idx(mode)
}

/// One `(BoundKind, SpeculationMode)` partition: its retained samples in insertion
/// order, each tagged with its global sequence number.
type Partition = VecDeque<(u64, Sample)>;

/// All four partitions plus the global sequence counter that preserves cross-partition
/// FIFO order for eviction.
#[derive(Debug, Default)]
struct Inner {
    parts: [Partition; NUM_PARTITIONS],
    retained: usize,
    next_seq: u64,
}

impl Inner {
    /// Evict the globally oldest retained sample: the smallest sequence number among
    /// the partition fronts. O(partitions) compare + O(1) pop, versus the historical
    /// O(cap) front drain of a flat `Vec`.
    fn evict_oldest(&mut self) {
        let mut oldest: Option<usize> = None;
        let mut oldest_seq = u64::MAX;
        for (i, part) in self.parts.iter().enumerate() {
            if let Some(&(seq, _)) = part.front() {
                if seq < oldest_seq {
                    oldest_seq = seq;
                    oldest = Some(i);
                }
            }
        }
        if let Some(i) = oldest {
            // grass: allow(panicky-lib, "i was enumerated from parts itself")
            self.parts[i].pop_front();
            self.retained -= 1;
        }
    }
}

/// Thread-safe store of GS / RAS performance samples shared by every GRASS job in a
/// simulation run.
///
/// Each partition's length is its sample count, and a monotonically increasing
/// *generation* is bumped on every mutation; [`SampleStore::counts_snapshot`] reads
/// both in O(1) under one lock.
#[derive(Debug)]
pub struct SampleStore {
    inner: RwLock<Inner>,
    max_samples: usize,
    generation: AtomicU64,
}

impl Default for SampleStore {
    fn default() -> Self {
        SampleStore::new()
    }
}

/// Default cap on retained samples; old samples are evicted FIFO beyond this, which
/// mirrors the paper's choice to keep adapting to changing cluster conditions rather
/// than damping learning over time (§4.2).
const DEFAULT_MAX_SAMPLES: usize = 50_000;

impl SampleStore {
    /// Empty store with the default retention cap.
    pub fn new() -> Self {
        SampleStore::with_capacity(DEFAULT_MAX_SAMPLES)
    }

    /// Empty store with an explicit retention cap (primarily for tests).
    pub fn with_capacity(max_samples: usize) -> Self {
        SampleStore {
            inner: RwLock::new(Inner::default()),
            max_samples: max_samples.max(1),
            generation: AtomicU64::new(0),
        }
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.inner.read().retained
    }

    /// Whether the store holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Mutation counter: bumped once per [`record`](Self::record) /
    /// [`clear`](Self::clear). Two equal generations mean
    /// the store content (and hence any `StoreCounts` snapshot) is unchanged between
    /// the two reads.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Record a raw sample.
    pub fn record(&self, sample: Sample) {
        let mut guard = self.inner.write();
        let idx = par_idx(sample.mode, sample.kind);
        while guard.retained >= self.max_samples {
            guard.evict_oldest();
        }
        let seq = guard.next_seq;
        guard.next_seq += 1;
        // grass: allow(panicky-lib, "par_idx is at most 3, and parts has NUM_PARTITIONS = 4 entries")
        guard.parts[idx].push_back((seq, sample));
        guard.retained += 1;
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Record a completed job that ran pure `mode` throughout.
    pub fn record_outcome(&self, mode: SpeculationMode, outcome: &JobOutcome) {
        if let Some(sample) = Sample::from_outcome(mode, outcome) {
            self.record(sample);
        }
    }

    fn partition_count(inner: &Inner, mode: SpeculationMode, kind: BoundKind) -> usize {
        // grass: allow(panicky-lib, "par_idx is at most 3, and parts has NUM_PARTITIONS = 4 entries")
        inner.parts[par_idx(mode, kind)].len()
    }

    /// Generation-tagged snapshot of every per-(kind, mode) count, one lock
    /// acquisition. The generation is read while the lock is held, so it matches
    /// the counts exactly.
    pub fn counts_snapshot(&self) -> StoreCounts {
        let guard = self.inner.read();
        StoreCounts {
            generation: self.generation.load(Ordering::Acquire),
            deadline: (
                Self::partition_count(&guard, SpeculationMode::Gs, BoundKind::Deadline),
                Self::partition_count(&guard, SpeculationMode::Ras, BoundKind::Deadline),
            ),
            error: (
                Self::partition_count(&guard, SpeculationMode::Gs, BoundKind::Error),
                Self::partition_count(&guard, SpeculationMode::Ras, BoundKind::Error),
            ),
        }
    }

    /// Predict the task-completion rate (tasks/second) of running pure `mode` under
    /// the query context, as a similarity-weighted mean over stored samples. Returns
    /// `None` when fewer than `min_samples` relevant samples exist.
    ///
    /// Scans the one relevant partition in insertion order — the same samples,
    /// kernel and float summation order as the historical whole-store scan, so
    /// results are bit-identical.
    pub fn predict_rate(
        &self,
        mode: SpeculationMode,
        ctx: &QueryContext,
        factors: FactorSet,
        min_samples: usize,
    ) -> Option<f64> {
        let guard = self.inner.read();
        // grass: allow(panicky-lib, "par_idx is at most 3, and parts has NUM_PARTITIONS = 4 entries")
        let part = &guard.parts[par_idx(mode, ctx.kind)];
        let mut weight_sum = 0.0;
        let mut weighted_rate = 0.0;
        let mut count = 0usize;
        for (_, s) in part.iter() {
            let mut w = 1.0 / (1.0 + f64::from(s.size_bucket.distance(&ctx.size_bucket)));
            if factors.bound {
                let ratio = log_ratio(s.bound_value, ctx.bound_value);
                w *= 1.0 / (1.0 + ratio);
            }
            if factors.utilization {
                w *= 1.0 / (1.0 + 5.0 * (s.utilization - ctx.utilization).abs());
            }
            if factors.accuracy {
                w *= 1.0 / (1.0 + 5.0 * (s.accuracy - ctx.accuracy).abs());
            }
            weight_sum += w;
            weighted_rate += w * s.rate();
            count += 1;
        }
        if count < min_samples || weight_sum <= 0.0 {
            return None;
        }
        Some(weighted_rate / weight_sum)
    }

    /// Predict how many input tasks a job of this context would complete if it ran
    /// pure `mode` for `seconds` seconds.
    pub fn predict_deadline_completion(
        &self,
        mode: SpeculationMode,
        seconds: f64,
        ctx: &QueryContext,
        factors: FactorSet,
        min_samples: usize,
    ) -> Option<f64> {
        if seconds <= 0.0 {
            return Some(0.0);
        }
        let ctx = QueryContext {
            bound_value: seconds,
            ..*ctx
        };
        self.predict_rate(mode, &ctx, factors, min_samples)
            .map(|rate| rate * seconds)
    }

    /// Predict how long pure `mode` would take to complete `tasks` more tasks.
    pub fn predict_error_duration(
        &self,
        mode: SpeculationMode,
        tasks: f64,
        ctx: &QueryContext,
        factors: FactorSet,
        min_samples: usize,
    ) -> Option<f64> {
        if tasks <= 0.0 {
            return Some(0.0);
        }
        let ctx = QueryContext {
            bound_value: tasks,
            ..*ctx
        };
        let rate = self.predict_rate(mode, &ctx, factors, min_samples)?;
        if rate <= 0.0 {
            return None;
        }
        Some(tasks / rate)
    }

    /// Drop every stored sample.
    pub fn clear(&self) {
        let mut guard = self.inner.write();
        *guard = Inner::default();
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Retained samples matching `(mode, kind)` in insertion order — a test /
    /// diagnostics accessor.
    pub fn samples_for(&self, mode: SpeculationMode, kind: BoundKind) -> Vec<Sample> {
        // grass: allow(panicky-lib, "par_idx is at most 3, and parts has NUM_PARTITIONS = 4 entries")
        self.inner.read().parts[par_idx(mode, kind)]
            .iter()
            .map(|(_, s)| s.clone())
            .collect()
    }
}

/// `|log2(a / b)|`, guarded against non-positive inputs.
fn log_ratio(a: f64, b: f64) -> f64 {
    if a <= 0.0 || b <= 0.0 {
        return f64::INFINITY;
    }
    (a / b).log2().abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::JobId;

    fn sample(mode: SpeculationMode, kind: BoundKind, bound: f64, perf: f64) -> Sample {
        Sample {
            mode,
            kind,
            size_bucket: SizeBucket(5),
            bound_value: bound,
            performance: perf,
            utilization: 0.5,
            accuracy: 0.75,
        }
    }

    fn ctx(kind: BoundKind, bound: f64) -> QueryContext {
        QueryContext {
            kind,
            size_bucket: SizeBucket(5),
            bound_value: bound,
            utilization: 0.5,
            accuracy: 0.75,
        }
    }

    #[test]
    fn factor_sets() {
        assert_eq!(FactorSet::all().count(), 3);
        assert_eq!(FactorSet::best_one().count(), 1);
        assert_eq!(FactorSet::best_two_utilization().count(), 2);
        assert_eq!(FactorSet::best_two_accuracy().count(), 2);
        assert_eq!(FactorSet::default(), FactorSet::all());
    }

    #[test]
    fn sample_rates() {
        // Deadline: 20 tasks in a 10s deadline => 2 tasks/s.
        assert_eq!(
            sample(SpeculationMode::Gs, BoundKind::Deadline, 10.0, 20.0).rate(),
            2.0
        );
        // Error: 30 tasks needed, 15s duration => 2 tasks/s.
        assert_eq!(
            sample(SpeculationMode::Gs, BoundKind::Error, 30.0, 15.0).rate(),
            2.0
        );
        assert_eq!(
            sample(SpeculationMode::Gs, BoundKind::Deadline, 0.0, 20.0).rate(),
            0.0
        );
        assert_eq!(
            sample(SpeculationMode::Gs, BoundKind::Error, 30.0, 0.0).rate(),
            0.0
        );
    }

    #[test]
    fn store_records_and_counts() {
        let store = SampleStore::new();
        assert!(store.is_empty());
        store.record(sample(SpeculationMode::Gs, BoundKind::Deadline, 10.0, 20.0));
        store.record(sample(
            SpeculationMode::Ras,
            BoundKind::Deadline,
            10.0,
            25.0,
        ));
        store.record(sample(SpeculationMode::Gs, BoundKind::Error, 30.0, 15.0));
        assert_eq!(store.len(), 3);
        let counts = store.counts_snapshot();
        assert_eq!(counts.for_kind(BoundKind::Deadline), (1, 1));
        assert_eq!(counts.for_kind(BoundKind::Error), (1, 0));
        store.clear();
        assert!(store.is_empty());
    }

    #[test]
    fn incremental_counts_stay_exact_across_eviction_and_clear() {
        let store = SampleStore::with_capacity(4);
        let mix = [
            (SpeculationMode::Gs, BoundKind::Deadline),
            (SpeculationMode::Ras, BoundKind::Deadline),
            (SpeculationMode::Gs, BoundKind::Error),
            (SpeculationMode::Ras, BoundKind::Error),
        ];
        // 10 records into a 4-slot store: every record past the 4th evicts the
        // oldest, exercising the decrement path with mixed kinds and modes.
        for i in 0..10 {
            let (mode, kind) = mix[i % mix.len()];
            store.record(sample(mode, kind, 10.0, 20.0));
            // Ground truth by definition: the counts must always equal a full scan —
            // here recomputed from the deterministic record/evict pattern.
            let counts = store.counts_snapshot();
            for (m, k) in mix {
                let expected = (0..=i)
                    .skip(i.saturating_sub(3))
                    .filter(|j| mix[j % mix.len()] == (m, k))
                    .count();
                let (gs, ras) = counts.for_kind(k);
                let got = if m == SpeculationMode::Gs { gs } else { ras };
                assert_eq!(got, expected, "after record {i}");
            }
        }
        let snapshot = store.counts_snapshot();
        assert_eq!(snapshot.for_kind(BoundKind::Deadline), (1, 1));
        assert_eq!(snapshot.for_kind(BoundKind::Error), (1, 1));
        store.clear();
        let cleared = store.counts_snapshot();
        assert_eq!(cleared.for_kind(BoundKind::Deadline), (0, 0));
        assert_eq!(cleared.for_kind(BoundKind::Error), (0, 0));
    }

    #[test]
    fn generation_moves_on_every_mutation_and_tags_snapshots() {
        let store = SampleStore::new();
        let g0 = store.generation();
        store.record(sample(SpeculationMode::Gs, BoundKind::Deadline, 10.0, 20.0));
        let g1 = store.generation();
        assert!(g1 > g0);
        let snap = store.counts_snapshot();
        assert_eq!(snap.generation, g1);
        assert_eq!(snap.deadline, (1, 0));
        // No mutation => generation (and any memo keyed on it) stays valid.
        assert_eq!(store.generation(), g1);
        store.clear();
        assert!(store.generation() > g1);
    }

    #[test]
    fn store_evicts_oldest_beyond_capacity() {
        let store = SampleStore::with_capacity(3);
        for i in 0..5 {
            store.record(sample(
                SpeculationMode::Gs,
                BoundKind::Deadline,
                10.0,
                i as f64,
            ));
        }
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn prediction_requires_min_samples() {
        let store = SampleStore::new();
        store.record(sample(SpeculationMode::Gs, BoundKind::Deadline, 10.0, 20.0));
        let c = ctx(BoundKind::Deadline, 10.0);
        assert!(store
            .predict_rate(SpeculationMode::Gs, &c, FactorSet::all(), 2)
            .is_none());
        assert!(store
            .predict_rate(SpeculationMode::Gs, &c, FactorSet::all(), 1)
            .is_some());
        assert!(store
            .predict_rate(SpeculationMode::Ras, &c, FactorSet::all(), 1)
            .is_none());
    }

    #[test]
    fn prediction_is_weighted_mean_of_rates() {
        let store = SampleStore::new();
        for _ in 0..5 {
            store.record(sample(SpeculationMode::Gs, BoundKind::Deadline, 10.0, 20.0));
        }
        let c = ctx(BoundKind::Deadline, 10.0);
        let rate = store
            .predict_rate(SpeculationMode::Gs, &c, FactorSet::all(), 1)
            .unwrap();
        assert!((rate - 2.0).abs() < 1e-9);
        let completed = store
            .predict_deadline_completion(SpeculationMode::Gs, 5.0, &c, FactorSet::all(), 1)
            .unwrap();
        assert!((completed - 10.0).abs() < 1e-9);
    }

    #[test]
    fn bound_factor_prefers_similar_bounds() {
        let store = SampleStore::new();
        // Short-deadline samples show GS completing fast, long-deadline samples slow.
        store.record(sample(SpeculationMode::Gs, BoundKind::Deadline, 2.0, 10.0)); // 5 tasks/s
        store.record(sample(
            SpeculationMode::Gs,
            BoundKind::Deadline,
            100.0,
            100.0,
        )); // 1 task/s
        let short = ctx(BoundKind::Deadline, 2.0);
        let long = ctx(BoundKind::Deadline, 100.0);
        let with_bound = FactorSet::best_one();
        let r_short = store
            .predict_rate(SpeculationMode::Gs, &short, with_bound, 1)
            .unwrap();
        let r_long = store
            .predict_rate(SpeculationMode::Gs, &long, with_bound, 1)
            .unwrap();
        assert!(r_short > r_long, "{r_short} should exceed {r_long}");
        // Without the bound factor both queries see the same mixture.
        let without = FactorSet {
            bound: false,
            utilization: false,
            accuracy: false,
        };
        let r1 = store
            .predict_rate(SpeculationMode::Gs, &short, without, 1)
            .unwrap();
        let r2 = store
            .predict_rate(SpeculationMode::Gs, &long, without, 1)
            .unwrap();
        assert!((r1 - r2).abs() < 1e-9);
    }

    #[test]
    fn error_duration_prediction_scales_with_tasks() {
        let store = SampleStore::new();
        store.record(sample(SpeculationMode::Ras, BoundKind::Error, 30.0, 15.0)); // 2 tasks/s
        let c = ctx(BoundKind::Error, 10.0);
        let d = store
            .predict_error_duration(SpeculationMode::Ras, 10.0, &c, FactorSet::all(), 1)
            .unwrap();
        assert!((d - 5.0).abs() < 1e-9);
        assert_eq!(
            store.predict_error_duration(SpeculationMode::Ras, 0.0, &c, FactorSet::all(), 1),
            Some(0.0)
        );
    }

    #[test]
    fn sample_from_outcome_round_trips() {
        let outcome = JobOutcome {
            job: JobId(9),
            policy: "GS".to_string(),
            bound: Bound::Deadline(40.0),
            input_tasks: 100,
            total_tasks: 100,
            dag_length: 1,
            arrival: 0.0,
            finish: 40.0,
            completed_input_tasks: 60,
            completed_tasks: 60,
            speculative_copies: 5,
            killed_copies: 2,
            slot_seconds: 500.0,
            avg_wave_width: 10.0,
            avg_cluster_utilization: 0.8,
            avg_estimation_accuracy: 0.7,
        };
        let s = Sample::from_outcome(SpeculationMode::Gs, &outcome).unwrap();
        assert_eq!(s.kind, BoundKind::Deadline);
        assert_eq!(s.bound_value, 40.0);
        assert_eq!(s.performance, 60.0);
        assert_eq!(s.size_bucket, SizeBucket::of(100));

        let error_outcome = JobOutcome {
            bound: Bound::Error(0.2),
            finish: 25.0,
            ..outcome.clone()
        };
        let s = Sample::from_outcome(SpeculationMode::Ras, &error_outcome).unwrap();
        assert_eq!(s.kind, BoundKind::Error);
        assert_eq!(s.bound_value, 80.0);
        assert_eq!(s.performance, 25.0);

        // Degenerate outcomes produce no sample.
        let zero_duration = JobOutcome {
            bound: Bound::Error(0.2),
            finish: 0.0,
            ..outcome
        };
        assert!(Sample::from_outcome(SpeculationMode::Ras, &zero_duration).is_none());
    }
}
