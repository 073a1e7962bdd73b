//! Switching-point evaluation: when should a GRASS job stop running RAS and switch to
//! GS?
//!
//! Two rules are implemented, one plain function each:
//!
//! * [`learned_decision`] ([`SwitchStrategy::Learned`]) — the full GRASS approach of
//!   §4.1: split what remains of the job's bound (seconds to its deadline, or input
//!   tasks it still needs) at eleven candidate points, predict a RAS prefix followed
//!   by a GS suffix at each from the shared [`SampleStore`], and switch when "now"
//!   is the best point. One scan serves both bound kinds.
//! * [`strawman_decision`] ([`SwitchStrategy::Strawman`]) — the static rule derived
//!   directly from Guideline 3 and used as a comparison point in §6.3.2: switch when
//!   roughly two waves of work remain. The learned rule falls back to it until the
//!   store can predict a split.
//!
//! Neither keeps state between calls: `GrassPolicy` evaluates its rule at most once
//! per simulated second per job.

use serde::{Deserialize, Serialize};

use crate::bins::SizeBucket;
use crate::grass::samples::{BoundKind, FactorSet, QueryContext, SampleStore};
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

/// Number of steps the learned evaluation splits the remaining bound into; it
/// evaluates the `CANDIDATE_POINTS + 1` split points, both ends included.
const CANDIDATE_POINTS: usize = 10;

/// Decision returned by the evaluators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchDecision {
    /// Switch to GS now.
    SwitchNow,
    /// Stay on RAS for the moment.
    Stay,
}

/// Evaluate the strawman rule: switch once at most `cfg.waves` waves of work remain.
pub fn strawman_decision(view: &JobView, cfg: &StrawmanConfig) -> SwitchDecision {
    let switch = match view.bound {
        Bound::Deadline(_) => {
            // "The point when the time to the deadline is sufficient for at most two
            // waves of tasks": compare remaining deadline against `waves` × the median
            // duration of a task (approximated by the median tnew of unfinished tasks).
            let remaining = view.remaining_deadline().unwrap_or(f64::INFINITY);
            let median = median_tnew(view);
            median > 0.0 && remaining <= cfg.waves * median
        }
        Bound::Error(_) => {
            // "When the number of (unique) scheduled tasks needed to satisfy the
            // error-bound make up two waves."
            let needed = view.input_tasks_still_needed().unwrap_or(0);
            let wave = view.wave_width.max(1);
            needed <= (cfg.waves * wave as f64).ceil() as usize
        }
    };
    if switch {
        SwitchDecision::SwitchNow
    } else {
        SwitchDecision::Stay
    }
}

/// Median `tnew` across the view's eligible tasks (the upper median of an even
/// count), or 0.0 when no task has a usable estimate.
fn median_tnew(view: &JobView) -> f64 {
    let mut tnews: Vec<f64> = view
        .tasks
        .iter()
        .filter(|t| t.eligible)
        .map(|t| view.tnew(t))
        .filter(|v| v.is_finite() && *v > 0.0)
        .collect();
    if tnews.is_empty() {
        return 0.0;
    }
    // O(n) selection instead of a full sort: only the median is needed.
    let mid = tnews.len() / 2;
    *tnews.select_nth_unstable_by(mid, f64::total_cmp).1
}

/// Evaluate the learned rule against the sample store. Falls back to the strawman
/// rule when the store cannot yet predict any split (a freshly started cluster has
/// nothing to learn from).
pub fn learned_decision(view: &JobView, store: &SampleStore, factors: FactorSet) -> SwitchDecision {
    learned_scan(view, store, factors)
        .unwrap_or_else(|| strawman_decision(view, &StrawmanConfig::default()))
}

/// §4.1's learned rule: with 6 s to the deadline, say, compare switching now with
/// switching after 1 s, 2 s, …, using samples of jobs with matching bounds that ran
/// pure RAS or pure GS. `None` when no split can be predicted.
///
/// The split at `x` runs RAS for `x` of the remaining bound and GS for the rest. A
/// deadline-bound split is worth the input tasks it is predicted to complete; an
/// error-bound split the negated seconds it is predicted to take. So the best split
/// is the greatest value for both kinds, and one `value > best + 1e-9` comparison
/// picks it. Negation and round-to-nearest commute (`fl(−a − b) = −fl(a + b)` and
/// `fl(−b + 1e-9) = −fl(b − 1e-9)`), so on the error side this picks exactly the
/// least-duration split of a `d < best − 1e-9` comparison that starts from +∞.
fn learned_scan(view: &JobView, store: &SampleStore, factors: FactorSet) -> Option<SwitchDecision> {
    let (kind, bound) = match view.bound {
        Bound::Deadline(_) => (BoundKind::Deadline, view.remaining_deadline()?),
        Bound::Error(_) => (BoundKind::Error, view.input_tasks_still_needed()? as f64),
    };
    if bound <= 0.0 {
        return Some(SwitchDecision::SwitchNow);
    }
    let ctx = QueryContext {
        kind,
        size_bucket: SizeBucket::of(view.total_input_tasks),
        bound_value: bound,
        utilization: view.cluster_utilization,
        accuracy: view.estimation_accuracy,
    };
    let predict = |mode, amount| match kind {
        BoundKind::Deadline => {
            store.predict_deadline_completion(mode, amount, &ctx, factors, MIN_SAMPLES)
        }
        BoundKind::Error => store
            .predict_error_duration(mode, amount, &ctx, factors, MIN_SAMPLES)
            .map(|seconds| -seconds),
    };
    let step = bound / CANDIDATE_POINTS as f64;
    let mut best = f64::NEG_INFINITY;
    let mut best_ras = 0.0;
    // Predicted splits answer even when no value beats −∞ (infinite durations, NaN):
    // the answer is then the first split's.
    let mut predicted = false;
    for i in 0..=CANDIDATE_POINTS {
        let ras = step * i as f64;
        let (Some(r), Some(g)) = (
            predict(SpeculationMode::Ras, ras),
            predict(SpeculationMode::Gs, bound - ras),
        ) else {
            continue;
        };
        predicted = true;
        let value = r + g;
        if value > best + 1e-9 {
            best = value;
            best_ras = ras;
        }
    }
    predicted.then_some(if best_ras <= step * 0.5 {
        SwitchDecision::SwitchNow
    } else {
        SwitchDecision::Stay
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The strawman rule with default settings.
    fn strawman(v: &JobView) -> SwitchDecision {
        strawman_decision(v, &StrawmanConfig::default())
    }

    /// The learned rule over all three factors.
    fn learned(v: &JobView, store: &SampleStore) -> SwitchDecision {
        learned_decision(v, store, FactorSet::all())
    }

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
    fn median_tnew_is_the_sorted_median() {
        // Even- and odd-length eligible sets: the O(n) selection must agree with the
        // upper median of a full sort.
        for n in [7u32, 8, 101, 500] {
            let tasks: TaskRows = (0..n)
                .map(|i| unscheduled(i, ((i * 37) % 23) as f64 + 0.5))
                .collect();
            let v = view(&tasks, Bound::Deadline(1000.0), 0.0, 2, 0, n as usize);
            let mut sorted: Vec<f64> = tasks.iter().map(|t| v.tnew(t)).collect();
            sorted.sort_by(f64::total_cmp);
            assert_eq!(median_tnew(&v), sorted[sorted.len() / 2], "n = {n}");
        }
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

    #[test]
    fn learned_falls_back_to_strawman_while_no_split_is_predicted() {
        // Walk the store through sparse states (empty, one mode below
        // `MIN_SAMPLES`, one mode at it) on views where the strawman and a
        // prediction would disagree. Below `MIN_SAMPLES` in both modes every split
        // asks a sparse mode about a positive segment, so the scan predicts nothing
        // and the strawman answers. With one mode at `MIN_SAMPLES` the split that
        // gives it the whole bound is predicted, and the scan answers.
        let tasks: TaskRows = (0..20).map(|i| unscheduled(i, 4.0)).collect();
        // Strawman: 40 s left against two 4 s waves (stay); 30 still needed against
        // two waves of 4 (stay).
        let dl_view = view(&tasks, Bound::Deadline(40.0), 0.0, 2, 0, 20);
        let err_view = view(&tasks, Bound::Error(0.1), 0.0, 4, 60, 100);
        let store = SampleStore::new();
        let record = |mode, kind| {
            store.record(Sample {
                mode,
                kind,
                size_bucket: SizeBucket::of(20),
                bound_value: 10.0,
                performance: 30.0,
                utilization: 0.5,
                accuracy: 0.75,
            })
        };
        for (v, kind) in [
            (&dl_view, BoundKind::Deadline),
            (&err_view, BoundKind::Error),
        ] {
            store.clear();
            assert_eq!(learned_scan(v, &store, FactorSet::all()), None);
            // Samples of the other bound kind never count.
            for _ in 0..MIN_SAMPLES {
                record(SpeculationMode::Gs, other(kind));
                record(SpeculationMode::Ras, other(kind));
            }
            for _ in 0..MIN_SAMPLES - 1 {
                assert_eq!(learned_scan(v, &store, FactorSet::all()), None);
                assert_eq!(learned(v, &store), strawman(v));
                record(SpeculationMode::Gs, kind);
                record(SpeculationMode::Ras, kind);
            }
            assert_eq!(learned_scan(v, &store, FactorSet::all()), None);
            // GS alone at `MIN_SAMPLES`: only the split at 0 (all GS) predicts, and
            // it is the best, so the job switches where the strawman stays.
            record(SpeculationMode::Gs, kind);
            assert_eq!(
                learned_scan(v, &store, FactorSet::all()),
                Some(SwitchDecision::SwitchNow)
            );
            assert_eq!(strawman(v), SwitchDecision::Stay);
        }
    }

    fn other(kind: BoundKind) -> BoundKind {
        match kind {
            BoundKind::Deadline => BoundKind::Error,
            BoundKind::Error => BoundKind::Deadline,
        }
    }
}
