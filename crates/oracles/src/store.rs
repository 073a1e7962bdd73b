//! Frozen pre-partitioning `grass_core::SampleStore`: differential oracle only.
//!
//! This is a verbatim copy of the sample store as it stood before the partitioned
//! rebuild: one flat `Vec<Sample>` behind a lock, `predict_rate` scanning the
//! whole vector with a `(mode, kind)` filter, and `record` draining evicted samples
//! from the front. It exists so the equivalence proptests
//! (`tests/store_equivalence.rs`) can compare the optimised store **bit-for-bit**
//! against the exact behaviour the repository's pinned digests were produced with.
//!
//! **Do not optimise, fix or otherwise improve this module.** Any divergence from the
//! historical behaviour silently weakens the differential tests.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use grass_core::grass::{BoundKind, FactorSet, QueryContext, Sample, StoreCounts};
use grass_core::{JobOutcome, SpeculationMode};

/// Samples plus the incrementally maintained `counts[kind][mode]` table, kept under
/// one lock so they can never disagree.
#[derive(Debug, Default)]
struct Inner {
    samples: Vec<Sample>,
    counts: [[usize; 2]; 2],
}

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

impl Inner {
    fn bump(&mut self, sample: &Sample, delta: isize) {
        let slot = &mut self.counts[kind_idx(sample.kind)][mode_idx(sample.mode)];
        *slot = slot.checked_add_signed(delta).expect("count underflow");
    }

    #[cfg(debug_assertions)]
    fn check_counts(&self) {
        let mut scanned = [[0usize; 2]; 2];
        for s in &self.samples {
            scanned[kind_idx(s.kind)][mode_idx(s.mode)] += 1;
        }
        debug_assert_eq!(scanned, self.counts, "incremental counts drifted");
    }

    #[cfg(not(debug_assertions))]
    fn check_counts(&self) {}
}

/// The pre-rebuild flat-`Vec` sample store, frozen for differential testing.
#[derive(Debug, Default)]
pub struct ReferenceSampleStore {
    inner: RwLock<Inner>,
    max_samples: usize,
    generation: AtomicU64,
}

/// Default cap on retained samples (identical to the live store's).
const DEFAULT_MAX_SAMPLES: usize = 50_000;

impl ReferenceSampleStore {
    /// Empty store with the default retention cap.
    pub fn new() -> Self {
        ReferenceSampleStore {
            inner: RwLock::new(Inner::default()),
            max_samples: DEFAULT_MAX_SAMPLES,
            generation: AtomicU64::new(0),
        }
    }

    /// Empty store with an explicit retention cap (primarily for tests).
    pub fn with_capacity(max_samples: usize) -> Self {
        ReferenceSampleStore {
            inner: RwLock::new(Inner::default()),
            max_samples: max_samples.max(1),
            generation: AtomicU64::new(0),
        }
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        self.inner.read().samples.len()
    }

    /// Whether the store holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Mutation counter: bumped once per `record` / `clear`.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Record a raw sample (historical front-drain eviction, O(len) at capacity).
    pub fn record(&self, sample: Sample) {
        let mut guard = self.inner.write();
        if guard.samples.len() >= self.max_samples {
            let excess = guard.samples.len() + 1 - self.max_samples;
            for i in 0..excess {
                let (k, m) = (
                    kind_idx(guard.samples[i].kind),
                    mode_idx(guard.samples[i].mode),
                );
                guard.counts[k][m] -= 1;
            }
            guard.samples.drain(0..excess);
        }
        guard.bump(&sample, 1);
        guard.samples.push(sample);
        guard.check_counts();
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Record a completed job that ran pure `mode` throughout.
    pub fn record_outcome(&self, mode: SpeculationMode, outcome: &JobOutcome) {
        if let Some(sample) = Sample::from_outcome(mode, outcome) {
            self.record(sample);
        }
    }

    /// Count samples available for a given mode and bound kind, O(1).
    pub fn count_for(&self, mode: SpeculationMode, kind: BoundKind) -> usize {
        self.inner.read().counts[kind_idx(kind)][mode_idx(mode)]
    }

    /// `(GS count, RAS count)` for one bound kind under a single lock acquisition.
    pub fn counts_for_kind(&self, kind: BoundKind) -> (usize, usize) {
        let guard = self.inner.read();
        (
            guard.counts[kind_idx(kind)][mode_idx(SpeculationMode::Gs)],
            guard.counts[kind_idx(kind)][mode_idx(SpeculationMode::Ras)],
        )
    }

    /// Generation-tagged snapshot of every per-(kind, mode) count.
    pub fn counts_snapshot(&self) -> StoreCounts {
        let guard = self.inner.read();
        StoreCounts {
            generation: self.generation.load(Ordering::Acquire),
            deadline: (
                guard.counts[kind_idx(BoundKind::Deadline)][mode_idx(SpeculationMode::Gs)],
                guard.counts[kind_idx(BoundKind::Deadline)][mode_idx(SpeculationMode::Ras)],
            ),
            error: (
                guard.counts[kind_idx(BoundKind::Error)][mode_idx(SpeculationMode::Gs)],
                guard.counts[kind_idx(BoundKind::Error)][mode_idx(SpeculationMode::Ras)],
            ),
        }
    }

    /// Historical whole-vector filtered scan: the float summation order here is the
    /// ground truth the partitioned store must reproduce bit-for-bit.
    pub fn predict_rate(
        &self,
        mode: SpeculationMode,
        ctx: &QueryContext,
        factors: FactorSet,
        min_samples: usize,
    ) -> Option<f64> {
        let guard = self.inner.read();
        let mut weight_sum = 0.0;
        let mut weighted_rate = 0.0;
        let mut count = 0usize;
        for s in guard
            .samples
            .iter()
            .filter(|s| s.mode == mode && s.kind == ctx.kind)
        {
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
        guard.samples.clear();
        guard.counts = [[0; 2]; 2];
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Retained samples matching `(mode, kind)` in insertion order — the comparison
    /// hook the eviction-order pin tests use.
    pub fn samples_for(&self, mode: SpeculationMode, kind: BoundKind) -> Vec<Sample> {
        self.inner
            .read()
            .samples
            .iter()
            .filter(|s| s.mode == mode && s.kind == kind)
            .cloned()
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
    use grass_core::SizeBucket;

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

    #[test]
    fn reference_store_behaves_like_the_historical_one() {
        let store = ReferenceSampleStore::with_capacity(3);
        for i in 0..5 {
            store.record(sample(
                SpeculationMode::Gs,
                BoundKind::Deadline,
                10.0,
                i as f64,
            ));
        }
        assert_eq!(store.len(), 3);
        assert_eq!(store.count_for(SpeculationMode::Gs, BoundKind::Deadline), 3);
        let kept = store.samples_for(SpeculationMode::Gs, BoundKind::Deadline);
        let perfs: Vec<f64> = kept.iter().map(|s| s.performance).collect();
        assert_eq!(perfs, vec![2.0, 3.0, 4.0]);
        store.clear();
        assert!(store.is_empty());
    }
}
