//! Switching-point evaluation: when should a GRASS job stop running RAS and switch to
//! GS?
//!
//! Two strategies are implemented:
//!
//! * [`SwitchStrategy::Learned`] — the full GRASS approach of §4.1: step through every
//!   candidate switch point in the job's remaining work, predict the composite
//!   performance of a RAS prefix followed by a GS suffix using the shared
//!   [`SampleStore`], and switch when "now" is the best point.
//! * [`SwitchStrategy::Strawman`] — the static rule derived directly from Guideline 3
//!   and used as a comparison point in §6.3.2: switch when roughly two waves of work
//!   remain.

use serde::{Deserialize, Serialize};

use crate::grass::samples::{BoundKind, FactorSet, QueryContext, SampleStore, StoreCounts};
use crate::job::{Bound, JobView};
use crate::speculation::SpeculationMode;

/// Configuration of the strawman (static two-wave) switcher.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StrawmanConfig {
    /// How many waves of remaining work trigger the switch. The paper's strawman uses
    /// two (Guideline 3).
    pub waves: f64,
}

impl Default for StrawmanConfig {
    fn default() -> Self {
        StrawmanConfig { waves: 2.0 }
    }
}

/// Which switching rule a GRASS instance uses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum SwitchStrategy {
    /// Learned switching over the sample store (the real GRASS).
    #[default]
    Learned,
    /// Static two-wave strawman (§6.3.2).
    Strawman(StrawmanConfig),
}

/// Minimum number of relevant samples (per mode) before the learned predictor is
/// trusted.
const MIN_SAMPLES: usize = 3;

/// Number of candidate switch points the learned evaluation steps through across the
/// remaining work.
const CANDIDATE_POINTS: usize = 10;

/// Decision returned by the evaluators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchDecision {
    /// Switch to GS now.
    SwitchNow,
    /// Stay on RAS for the moment.
    Stay,
}

/// Per-job scratch and memo state for the switching scan.
///
/// The deadline-bound rules need the median `tnew` of the job's eligible tasks,
/// which naively means collecting and ordering the whole task list on every
/// `choose()` call (the ~3× decision-latency overhead GRASS showed over GS/RAS in
/// `microbench/policy_choose_500_tasks`). Task `tnew` estimates and stage
/// eligibility only change when a task completes, so the median is memoised keyed on
/// the job's identity and completion progress, and the collection buffer is reused
/// across calls. The job id in the key makes a cache accidentally shared across
/// jobs correct (it just stops memoising effectively); the intended use is still
/// one cache per job, which is what `GrassPolicy` does.
///
/// The cache also memoises the learned evaluation's sparse-store pre-flight: a
/// `StoreCounts` snapshot keyed on the [`SampleStore`] generation. GRASS stores
/// mutate only when a pure-GS/pure-RAS job *finishes*, but `choose()` consults the
/// pre-flight on every scheduling decision, so the generation check turns the
/// per-decision count query (a lock acquisition, and before the counts became
/// incremental a full store scan) into a single atomic load on the hot path. The
/// memo is shared safely across jobs because the generation identifies the store
/// state, not the querying job.
#[derive(Debug, Clone, Default)]
pub struct SwitchScanCache {
    scratch: Vec<f64>,
    /// `(job, completed_tasks, unfinished view length) -> median tnew` memo.
    memo: Option<((crate::task::JobId, usize, usize), f64)>,
    /// Generation-tagged per-(kind, mode) count snapshot of the sample store.
    preflight: Option<StoreCounts>,
}

impl SwitchScanCache {
    /// Empty cache.
    pub fn new() -> Self {
        SwitchScanCache::default()
    }

    /// Drop the memoised scan and pre-flight snapshot (the next call recomputes
    /// from the view and store).
    pub fn invalidate(&mut self) {
        self.memo = None;
        self.preflight = None;
    }

    /// `(GS, RAS)` sample counts for `kind`, re-snapshotting only when the store
    /// generation moved since the last evaluation.
    fn preflight_counts(&mut self, store: &SampleStore, kind: BoundKind) -> (usize, usize) {
        if let Some(cached) = self.preflight {
            if cached.generation == store.generation() {
                return cached.for_kind(kind);
            }
        }
        let snapshot = store.counts_snapshot();
        self.preflight = Some(snapshot);
        snapshot.for_kind(kind)
    }

    /// Median `tnew` across the view's eligible tasks, memoised on the job's
    /// completion progress. Returns 0.0 when no task has a usable estimate.
    fn median_tnew(&mut self, view: &JobView) -> f64 {
        let key = (view.job, view.completed_tasks, view.tasks.len());
        if let Some((cached_key, median)) = self.memo {
            if cached_key == key {
                return median;
            }
        }
        self.scratch.clear();
        self.scratch.extend(
            view.tasks
                .iter()
                .filter(|t| t.eligible)
                .map(|t| view.tnew(t))
                .filter(|v| v.is_finite() && *v > 0.0),
        );
        let median = if self.scratch.is_empty() {
            0.0
        } else {
            // O(n) selection instead of a full sort: only the median is needed.
            let mid = self.scratch.len() / 2;
            *self
                .scratch
                .select_nth_unstable_by(mid, |a, b| a.total_cmp(b))
                .1
        };
        self.memo = Some((key, median));
        median
    }
}

/// Evaluate the strawman rule, switch once at most `cfg.waves` waves of work
/// remain, using a per-job [`SwitchScanCache`].
pub fn strawman_decision_cached(
    view: &JobView,
    cfg: &StrawmanConfig,
    cache: &mut SwitchScanCache,
) -> SwitchDecision {
    match view.bound {
        Bound::Deadline(_) => {
            // "The point when the time to the deadline is sufficient for at most two
            // waves of tasks": compare remaining deadline against `waves` × the median
            // duration of a task (approximated by the median tnew of unfinished tasks).
            let remaining = view.remaining_deadline().unwrap_or(f64::INFINITY);
            let median = cache.median_tnew(view);
            if median <= 0.0 {
                return SwitchDecision::Stay;
            }
            if remaining <= cfg.waves * median {
                SwitchDecision::SwitchNow
            } else {
                SwitchDecision::Stay
            }
        }
        Bound::Error(_) => {
            // "When the number of (unique) scheduled tasks needed to satisfy the
            // error-bound make up two waves."
            let needed = view.input_tasks_still_needed().unwrap_or(0);
            let wave = view.wave_width.max(1);
            if needed <= (cfg.waves * wave as f64).ceil() as usize {
                SwitchDecision::SwitchNow
            } else {
                SwitchDecision::Stay
            }
        }
    }
}

/// Evaluate the learned rule against the sample store, using a per-job
/// [`SwitchScanCache`] for the strawman fallback's task-list scan. Falls back to
/// the strawman rule when the store does not yet hold enough samples for a
/// prediction (a freshly started cluster has nothing to learn from).
pub fn learned_decision_cached(
    view: &JobView,
    store: &SampleStore,
    factors: FactorSet,
    cache: &mut SwitchScanCache,
) -> SwitchDecision {
    match view.bound {
        Bound::Deadline(_) => learned_deadline(view, store, factors, cache),
        Bound::Error(_) => learned_error(view, store, factors, cache),
    }
    .unwrap_or_else(|| strawman_decision_cached(view, &StrawmanConfig::default(), cache))
}

/// Deadline-bound learned evaluation (§4.1's worked example: with 6s to the deadline,
/// compare switching now against switching after 1s, 2s, … using samples of jobs with
/// matching deadlines run pure-RAS / pure-GS).
fn learned_deadline(
    view: &JobView,
    store: &SampleStore,
    factors: FactorSet,
    cache: &mut SwitchScanCache,
) -> Option<SwitchDecision> {
    let remaining = view.remaining_deadline()?;
    if remaining <= 0.0 {
        return Some(SwitchDecision::SwitchNow);
    }
    if let Some(shortcut) = sparse_store_shortcut(store, BoundKind::Deadline, cache) {
        return shortcut;
    }
    let ctx = query_context(view, BoundKind::Deadline, remaining);
    let points = CANDIDATE_POINTS;
    let step = remaining / points as f64;

    let mut best_value = f64::NEG_INFINITY;
    let mut best_switch_delay = 0.0;
    let mut any_prediction = false;
    for i in 0..=points {
        let delay = step * i as f64; // run RAS for `delay`, then GS for the rest
        let ras_part = store.predict_deadline_completion(
            SpeculationMode::Ras,
            delay,
            &ctx,
            factors,
            MIN_SAMPLES,
        );
        let gs_part = store.predict_deadline_completion(
            SpeculationMode::Gs,
            remaining - delay,
            &ctx,
            factors,
            MIN_SAMPLES,
        );
        let (Some(r), Some(g)) = (ras_part, gs_part) else {
            continue;
        };
        any_prediction = true;
        let value = r + g;
        if value > best_value + 1e-9 {
            best_value = value;
            best_switch_delay = delay;
        }
    }
    if !any_prediction {
        return None;
    }
    Some(if best_switch_delay <= step * 0.5 {
        SwitchDecision::SwitchNow
    } else {
        SwitchDecision::Stay
    })
}

/// Error-bound learned evaluation: split the remaining needed tasks into a RAS-handled
/// prefix and a GS-handled suffix and pick the split with the smallest predicted total
/// duration.
fn learned_error(
    view: &JobView,
    store: &SampleStore,
    factors: FactorSet,
    cache: &mut SwitchScanCache,
) -> Option<SwitchDecision> {
    let needed = view.input_tasks_still_needed()? as f64;
    if needed <= 0.0 {
        return Some(SwitchDecision::SwitchNow);
    }
    if let Some(shortcut) = sparse_store_shortcut(store, BoundKind::Error, cache) {
        return shortcut;
    }
    let ctx = query_context(view, BoundKind::Error, needed);
    let points = CANDIDATE_POINTS;
    let step = needed / points as f64;

    let mut best_value = f64::INFINITY;
    let mut best_ras_tasks = 0.0;
    let mut any_prediction = false;
    for i in 0..=points {
        let ras_tasks = step * i as f64;
        let ras_part = store.predict_error_duration(
            SpeculationMode::Ras,
            ras_tasks,
            &ctx,
            factors,
            MIN_SAMPLES,
        );
        let gs_part = store.predict_error_duration(
            SpeculationMode::Gs,
            needed - ras_tasks,
            &ctx,
            factors,
            MIN_SAMPLES,
        );
        let (Some(r), Some(g)) = (ras_part, gs_part) else {
            continue;
        };
        any_prediction = true;
        let value = r + g;
        if value < best_value - 1e-9 {
            best_value = value;
            best_ras_tasks = ras_tasks;
        }
    }
    if !any_prediction {
        return None;
    }
    Some(if best_ras_tasks <= step * 0.5 {
        SwitchDecision::SwitchNow
    } else {
        SwitchDecision::Stay
    })
}

/// Cheap pre-flight over the sample store: when *neither* mode holds
/// [`MIN_SAMPLES`] relevant samples — the cold-start case every GRASS job hits
/// before the ξ-perturbation has produced learning data — the candidate-point
/// sweep cannot yield a prediction at any split point (a positive-length segment
/// of either mode returns `None`, and every split has at least one such segment),
/// so a memoised count lookup replaces up to `2 × (CANDIDATE_POINTS + 1)` store
/// scans that would each come back empty. The counts come from the cache's
/// generation-keyed `StoreCounts` snapshot: one atomic load per decision while
/// the store is unmutated, one O(1) locked snapshot when it has changed.
///
/// Deliberately conservative: with samples for only one mode, zero-length
/// segments (`Some(0.0)`) can still combine with the sampled mode into a
/// prediction whose outcome depends on the predicted *values*, so the full sweep
/// runs for those cases rather than approximating it here.
///
/// Returns `Some(None)` for "no prediction possible, fall back to the strawman
/// rule" and `None` when the sweep must run.
#[allow(clippy::option_option)]
fn sparse_store_shortcut(
    store: &SampleStore,
    kind: BoundKind,
    cache: &mut SwitchScanCache,
) -> Option<Option<SwitchDecision>> {
    let (gs, ras) = cache.preflight_counts(store, kind);
    if gs < MIN_SAMPLES && ras < MIN_SAMPLES {
        Some(None)
    } else {
        None
    }
}

fn query_context(view: &JobView, kind: BoundKind, bound_value: f64) -> QueryContext {
    QueryContext {
        kind,
        size_bucket: crate::bins::SizeBucket::of(view.total_input_tasks),
        bound_value,
        utilization: view.cluster_utilization,
        accuracy: view.estimation_accuracy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The strawman rule with default settings and a fresh cache.
    fn strawman(v: &JobView) -> SwitchDecision {
        strawman_decision_cached(v, &StrawmanConfig::default(), &mut SwitchScanCache::new())
    }

    /// The learned rule over all three factors with a fresh cache.
    fn learned(v: &JobView, store: &SampleStore) -> SwitchDecision {
        learned_decision_cached(v, store, FactorSet::all(), &mut SwitchScanCache::new())
    }
    use crate::bins::SizeBucket;
    use crate::grass::samples::Sample;
    use crate::job::TnewEstimate;
    use crate::task::{JobId, StageId, TaskId, TaskRows, TaskView};

    fn unscheduled(id: u32, tnew: f64) -> TaskView {
        TaskView {
            id: TaskId(id),
            stage: StageId::INPUT,
            eligible: true,
            running_copies: 0,
            copy_start: 0.0,
            copy_duration: 0.0,
            rem_bias: 1.0,
            oldest_start: 0.0,
            tnew_bias: 1.0,
            true_new_hint: tnew,
            work: tnew,
        }
    }

    fn view<'a>(
        tasks: &'a TaskRows,
        bound: Bound,
        now: f64,
        wave_width: usize,
        completed: usize,
        total: usize,
    ) -> JobView<'a> {
        JobView {
            job: JobId(1),
            now,
            arrival: 0.0,
            bound,
            input_deadline: None,
            total_input_tasks: total,
            completed_input_tasks: completed,
            total_tasks: total,
            completed_tasks: completed,
            tasks,
            tnew_estimate: TnewEstimate::PerWork(1.0),
            deadline_index: None,
            wave_width,
            cluster_utilization: 0.5,
            estimation_accuracy: 0.75,
            decline_hold: std::cell::Cell::new(false),
        }
    }

    fn store_with_rates(gs_rate: f64, ras_rate: f64, kind: BoundKind) -> SampleStore {
        let store = SampleStore::new();
        for _ in 0..5 {
            let (bound, perf_gs, perf_ras) = match kind {
                BoundKind::Deadline => (10.0, gs_rate * 10.0, ras_rate * 10.0),
                BoundKind::Error => (10.0, 10.0 / gs_rate, 10.0 / ras_rate),
            };
            store.record(Sample {
                mode: SpeculationMode::Gs,
                kind,
                size_bucket: SizeBucket::of(20),
                bound_value: bound,
                performance: perf_gs,
                utilization: 0.5,
                accuracy: 0.75,
            });
            store.record(Sample {
                mode: SpeculationMode::Ras,
                kind,
                size_bucket: SizeBucket::of(20),
                bound_value: bound,
                performance: perf_ras,
                utilization: 0.5,
                accuracy: 0.75,
            });
        }
        store
    }

    #[test]
    fn strawman_deadline_switches_inside_two_waves() {
        let tasks: TaskRows = (0..6).map(|i| unscheduled(i, 4.0)).collect();
        // Remaining deadline 20s, median task 4s, two waves = 8s => stay.
        let v = view(&tasks, Bound::Deadline(20.0), 0.0, 2, 0, 20);
        assert_eq!(strawman(&v), SwitchDecision::Stay);
        // Remaining 6s <= 8s => switch.
        let v = view(&tasks, Bound::Deadline(20.0), 14.0, 2, 0, 20);
        assert_eq!(strawman(&v), SwitchDecision::SwitchNow);
    }

    #[test]
    fn strawman_error_switches_when_needed_tasks_fit_in_two_waves() {
        let tasks: TaskRows = (0..30).map(|i| unscheduled(i, 4.0)).collect();
        // 100 input tasks, ε = 0.2 => 80 needed; 50 done => 30 still needed.
        let v = view(&tasks, Bound::Error(0.2), 10.0, 5, 50, 100);
        // Two waves of 5 slots = 10 < 30 => stay.
        assert_eq!(strawman(&v), SwitchDecision::Stay);
        // 72 done => 8 still needed <= 10 => switch.
        let v = view(&tasks, Bound::Error(0.2), 10.0, 5, 72, 100);
        assert_eq!(strawman(&v), SwitchDecision::SwitchNow);
    }

    #[test]
    fn strawman_stays_when_no_duration_information() {
        let tasks = TaskRows::default();
        let v = view(&tasks, Bound::Deadline(20.0), 0.0, 2, 0, 20);
        assert_eq!(strawman(&v), SwitchDecision::Stay);
    }

    #[test]
    fn learned_deadline_switches_when_gs_rate_dominates() {
        let tasks: TaskRows = (0..20).map(|i| unscheduled(i, 4.0)).collect();
        let v = view(&tasks, Bound::Deadline(40.0), 0.0, 2, 0, 20);
        // GS completes 3 tasks/s, RAS 1 task/s everywhere => best to switch now.
        let store = store_with_rates(3.0, 1.0, BoundKind::Deadline);
        let d = learned(&v, &store);
        assert_eq!(d, SwitchDecision::SwitchNow);
        // RAS dominates => stay.
        let store = store_with_rates(1.0, 3.0, BoundKind::Deadline);
        let d = learned(&v, &store);
        assert_eq!(d, SwitchDecision::Stay);
    }

    #[test]
    fn learned_error_switches_when_gs_is_faster() {
        let tasks: TaskRows = (0..40).map(|i| unscheduled(i, 4.0)).collect();
        let v = view(&tasks, Bound::Error(0.1), 0.0, 4, 10, 100);
        let store = store_with_rates(3.0, 1.0, BoundKind::Error);
        assert_eq!(learned(&v, &store), SwitchDecision::SwitchNow);
        let store = store_with_rates(1.0, 3.0, BoundKind::Error);
        assert_eq!(learned(&v, &store), SwitchDecision::Stay);
    }

    #[test]
    fn cached_scan_matches_uncached_and_memoises() {
        let tasks: TaskRows = (0..101)
            .map(|i| unscheduled(i, (i % 9) as f64 + 1.0))
            .collect();
        let v = view(&tasks, Bound::Deadline(30.0), 0.0, 2, 0, 120);
        let mut cache = SwitchScanCache::new();
        let cached = strawman_decision_cached(&v, &StrawmanConfig::default(), &mut cache);
        let uncached = strawman(&v);
        assert_eq!(cached, uncached);
        // Second evaluation with unchanged progress hits the memo.
        assert!(cache.memo.is_some());
        let memo_before = cache.memo;
        let again = strawman_decision_cached(&v, &StrawmanConfig::default(), &mut cache);
        assert_eq!(again, cached);
        assert_eq!(cache.memo, memo_before);
        // Progress changes (a task completed) invalidate the key.
        let shorter: TaskRows = tasks[..90].iter().cloned().collect();
        let v2 = view(&shorter, Bound::Deadline(30.0), 0.0, 2, 11, 120);
        strawman_decision_cached(&v2, &StrawmanConfig::default(), &mut cache);
        assert_ne!(cache.memo, memo_before);
        // Manual invalidation drops the memo.
        cache.invalidate();
        assert!(cache.memo.is_none());
    }

    #[test]
    fn memo_is_keyed_by_job_identity() {
        let tasks: TaskRows = (0..10).map(|i| unscheduled(i, 4.0)).collect();
        let mut v = view(&tasks, Bound::Deadline(30.0), 0.0, 2, 0, 20);
        let mut cache = SwitchScanCache::new();
        strawman_decision_cached(&v, &StrawmanConfig::default(), &mut cache);
        let memo = cache.memo;
        // Same progress numbers but a different job: the memo must not be reused.
        v.job = JobId(2);
        strawman_decision_cached(&v, &StrawmanConfig::default(), &mut cache);
        assert_ne!(cache.memo, memo);
    }

    #[test]
    fn cached_median_is_the_sorted_median() {
        // Even- and odd-length eligible sets: the O(n) selection must agree with the
        // upper median of a full sort.
        for n in [7u32, 8, 101, 500] {
            let tasks: TaskRows = (0..n)
                .map(|i| unscheduled(i, ((i * 37) % 23) as f64 + 0.5))
                .collect();
            let v = view(&tasks, Bound::Deadline(1000.0), 0.0, 2, 0, n as usize);
            let mut cache = SwitchScanCache::new();
            let selected = cache.median_tnew(&v);
            let mut sorted: Vec<f64> = tasks.iter().map(|t| v.tnew(t)).collect();
            sorted.sort_by(f64::total_cmp);
            assert_eq!(selected, sorted[sorted.len() / 2], "n = {n}");
        }
    }

    #[test]
    fn preflight_memo_preserves_decisions_across_store_mutations() {
        // Decision-equivalence regression for the generation-keyed pre-flight memo:
        // walk the store through every state the shortcut distinguishes (empty,
        // one mode below `MIN_SAMPLES`, one mode at the threshold, both at it,
        // cleared) and require a long-lived cache to agree with a fresh evaluation
        // at every step — i.e. the memo must never serve counts from a previous
        // store state that could change the sweep-vs-shortcut choice.
        let factors = FactorSet::all();
        let tasks: TaskRows = (0..20).map(|i| unscheduled(i, 4.0)).collect();
        let dl_view = view(&tasks, Bound::Deadline(40.0), 0.0, 2, 0, 20);
        let err_view = view(&tasks, Bound::Error(0.1), 0.0, 4, 10, 100);
        let store = SampleStore::new();
        let mut cache = SwitchScanCache::new();

        let check = |store: &SampleStore, cache: &mut SwitchScanCache| {
            for v in [&dl_view, &err_view] {
                let with_memo = learned_decision_cached(v, store, factors, cache);
                let fresh = learned_decision_cached(v, store, factors, &mut SwitchScanCache::new());
                assert_eq!(with_memo, fresh, "memoised decision diverged");
            }
            assert_eq!(
                cache.preflight.expect("pre-flight snapshot taken"),
                store.counts_snapshot(),
                "memoised snapshot is stale"
            );
        };

        check(&store, &mut cache);
        for kind in [BoundKind::Deadline, BoundKind::Error] {
            for i in 0..MIN_SAMPLES {
                store.record(Sample {
                    mode: SpeculationMode::Ras,
                    kind,
                    size_bucket: SizeBucket::of(20),
                    bound_value: 10.0,
                    performance: 10.0 + i as f64,
                    utilization: 0.5,
                    accuracy: 0.75,
                });
                check(&store, &mut cache);
            }
        }
        // RAS now satisfies MIN_SAMPLES alone: the sweep must run (and find no
        // full prediction), not the shortcut.
        for kind in [BoundKind::Deadline, BoundKind::Error] {
            for _ in 0..MIN_SAMPLES {
                store.record(Sample {
                    mode: SpeculationMode::Gs,
                    kind,
                    size_bucket: SizeBucket::of(20),
                    bound_value: 10.0,
                    performance: 30.0,
                    utilization: 0.5,
                    accuracy: 0.75,
                });
                check(&store, &mut cache);
            }
        }
        store.clear();
        check(&store, &mut cache);
    }

    #[test]
    fn preflight_memo_is_reused_while_the_store_is_unmutated() {
        let store = store_with_rates(3.0, 1.0, BoundKind::Deadline);
        let tasks: TaskRows = (0..20).map(|i| unscheduled(i, 4.0)).collect();
        let v = view(&tasks, Bound::Deadline(40.0), 0.0, 2, 0, 20);
        let mut cache = SwitchScanCache::new();
        learned_decision_cached(&v, &store, FactorSet::all(), &mut cache);
        let snapshot = cache.preflight.expect("snapshot taken");
        assert_eq!(snapshot.generation, store.generation());
        learned_decision_cached(&v, &store, FactorSet::all(), &mut cache);
        assert_eq!(
            cache.preflight,
            Some(snapshot),
            "unchanged store re-snapshotted"
        );
        // A mutation moves the generation; the next evaluation refreshes.
        store.record(Sample {
            mode: SpeculationMode::Gs,
            kind: BoundKind::Error,
            size_bucket: SizeBucket::of(20),
            bound_value: 10.0,
            performance: 10.0,
            utilization: 0.5,
            accuracy: 0.75,
        });
        assert_ne!(snapshot.generation, store.generation());
        learned_decision_cached(&v, &store, FactorSet::all(), &mut cache);
        assert_eq!(cache.preflight, Some(store.counts_snapshot()));
        // Manual invalidation drops the snapshot alongside the median memo.
        cache.invalidate();
        assert!(cache.preflight.is_none());
    }

    #[test]
    fn learned_falls_back_to_strawman_without_samples() {
        let store = SampleStore::new();
        let tasks: TaskRows = (0..6).map(|i| unscheduled(i, 4.0)).collect();
        // Far from the deadline: strawman says stay.
        let v = view(&tasks, Bound::Deadline(100.0), 0.0, 2, 0, 20);
        assert_eq!(learned(&v, &store), SwitchDecision::Stay);
        // Close to the deadline: strawman says switch.
        let v = view(&tasks, Bound::Deadline(100.0), 95.0, 2, 0, 20);
        assert_eq!(learned(&v, &store), SwitchDecision::SwitchNow);
    }
}
