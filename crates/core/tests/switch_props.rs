//! Property tests for GRASS's switch rules (`grass_core::grass::switching`).
//!
//! `learned_decision` is one scan over both bound kinds: it splits what remains
//! of the bound at eleven points, values a deadline-bound split by its predicted
//! completions and an error-bound split by its negated predicted seconds, and
//! keeps the greatest. The oracle below is the rule as it was written before,
//! kept here as test-only code: a deadline scan that maximises completions, an
//! error scan that minimises seconds with its own `value < best − 1e-9`
//! comparison, a pre-flight that falls back to the strawman whenever neither
//! mode holds enough samples of the job's bound kind, and a strawman whose
//! median `tnew` comes from a full sort.
//!
//! Every case builds a random store (0–8 samples in each (kind, mode)
//! partition) whose bounds and performances include 0, subnormal, tiny and
//! huge values, so some splits predict an infinite duration, a NaN or no rate
//! at all. Random views cover both bound kinds, a remaining deadline of 0, tiny
//! or large, error-bound jobs that need nothing more, varied wave widths,
//! utilisation, accuracy, job sizes and rows, under per-work and oracle
//! estimates. Each is decided under all four `FactorSet` presets and several
//! strawman wave counts, and the rules must answer as the oracle does.
//!
//! `PROPTEST_CASES` sets the case count (CI runs 500 in release).

use std::cell::Cell;

use grass_core::bins::SizeBucket;
use grass_core::grass::{
    learned_decision, strawman_decision, BoundKind, FactorSet, QueryContext, Sample, SampleStore,
    StrawmanConfig, SwitchDecision,
};
use grass_core::{
    Bound, JobId, JobView, SpeculationMode, StageId, TaskId, TaskRows, TaskView, TnewEstimate,
};
use proptest::prelude::*;

/// The oracle's copy of the rule's sample threshold.
const MIN_SAMPLES: usize = 3;

/// The oracle's copy of the rule's step count.
const CANDIDATE_POINTS: usize = 10;

const FACTORS: [fn() -> FactorSet; 4] = [
    FactorSet::all,
    FactorSet::best_one,
    FactorSet::best_two_utilization,
    FactorSet::best_two_accuracy,
];

const WAVES: [f64; 4] = [0.5, 1.0, 2.0, 8.0];

/// A value drawn as `(class, u)`: 0, a subnormal, a tiny or a huge value, or
/// (half the draws) one between 1e-3 and 1e8, log-uniformly.
fn value((class, u): (usize, f64)) -> f64 {
    match class {
        0 => 0.0,
        1 => 5e-324 * (1.0 + (8.0 * u).floor()),
        2 => 1e-300 * (1.0 + u),
        3 => 1e300 * (1.0 + u),
        _ => 10f64.powf(-3.0 + 11.0 * u),
    }
}

/// The strawman as it was: the median `tnew` from a full sort.
fn oracle_strawman(view: &JobView, cfg: &StrawmanConfig) -> SwitchDecision {
    match view.bound {
        Bound::Deadline(_) => {
            let remaining = view.remaining_deadline().unwrap_or(f64::INFINITY);
            let mut tnews: Vec<f64> = view
                .tasks
                .iter()
                .filter(|t| t.eligible)
                .map(|t| view.tnew(t))
                .filter(|v| v.is_finite() && *v > 0.0)
                .collect();
            tnews.sort_by(f64::total_cmp);
            let median = tnews.get(tnews.len() / 2).copied().unwrap_or(0.0);
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

/// The learned rule as it was: two scans behind a sparse-store pre-flight.
fn oracle_learned(view: &JobView, store: &SampleStore, factors: FactorSet) -> SwitchDecision {
    match view.bound {
        Bound::Deadline(_) => oracle_deadline(view, store, factors),
        Bound::Error(_) => oracle_error(view, store, factors),
    }
    .unwrap_or_else(|| oracle_strawman(view, &StrawmanConfig::default()))
}

/// `Some(None)` (fall back to the strawman) when neither mode holds
/// `MIN_SAMPLES` samples of `kind`, `None` when the scan must run.
#[allow(clippy::option_option)]
fn sparse_store_shortcut(store: &SampleStore, kind: BoundKind) -> Option<Option<SwitchDecision>> {
    let (gs, ras) = store.counts_snapshot().for_kind(kind);
    (gs < MIN_SAMPLES && ras < MIN_SAMPLES).then_some(None)
}

fn query_context(view: &JobView, kind: BoundKind, bound_value: f64) -> QueryContext {
    QueryContext {
        kind,
        size_bucket: SizeBucket::of(view.total_input_tasks),
        bound_value,
        utilization: view.cluster_utilization,
        accuracy: view.estimation_accuracy,
    }
}

fn oracle_deadline(
    view: &JobView,
    store: &SampleStore,
    factors: FactorSet,
) -> Option<SwitchDecision> {
    let remaining = view.remaining_deadline()?;
    if remaining <= 0.0 {
        return Some(SwitchDecision::SwitchNow);
    }
    if let Some(shortcut) = sparse_store_shortcut(store, BoundKind::Deadline) {
        return shortcut;
    }
    let ctx = query_context(view, BoundKind::Deadline, remaining);
    let step = remaining / CANDIDATE_POINTS as f64;
    let mut best_value = f64::NEG_INFINITY;
    let mut best_switch_delay = 0.0;
    let mut any_prediction = false;
    for i in 0..=CANDIDATE_POINTS {
        let delay = step * i as f64;
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

fn oracle_error(view: &JobView, store: &SampleStore, factors: FactorSet) -> Option<SwitchDecision> {
    let needed = view.input_tasks_still_needed()? as f64;
    if needed <= 0.0 {
        return Some(SwitchDecision::SwitchNow);
    }
    if let Some(shortcut) = sparse_store_shortcut(store, BoundKind::Error) {
        return shortcut;
    }
    let ctx = query_context(view, BoundKind::Error, needed);
    let step = needed / CANDIDATE_POINTS as f64;
    let mut best_value = f64::INFINITY;
    let mut best_ras_tasks = 0.0;
    let mut any_prediction = false;
    for i in 0..=CANDIDATE_POINTS {
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

/// A sample drawn as (partition, bound, performance, size bucket, (utilisation,
/// accuracy)). A bound or performance class of 8 or more takes the partition's
/// class from the palette, so that some partitions hold only tiny or only huge
/// rates, and predict durations that overflow to infinity.
type RawSample = (usize, (usize, f64), (usize, f64), u8, (f64, f64));

/// A store of the drawn samples, at most 8 in each (kind, mode) partition.
fn store_of(raw: &[RawSample], palette: [(usize, usize); 4]) -> SampleStore {
    let store = SampleStore::new();
    let mut counts = [0usize; 4];
    for &(part, (bound, u_bound), (performance, u_performance), bucket, (utilization, accuracy)) in
        raw
    {
        if counts[part] == 8 {
            continue;
        }
        counts[part] += 1;
        let (palette_bound, palette_performance) = palette[part];
        let class = |drawn: usize, of_palette: usize| if drawn < 8 { drawn } else { of_palette };
        store.record(Sample {
            mode: [SpeculationMode::Gs, SpeculationMode::Ras][part % 2],
            kind: [BoundKind::Deadline, BoundKind::Error][part / 2],
            size_bucket: SizeBucket(bucket),
            bound_value: value((class(bound, palette_bound), u_bound)),
            performance: value((class(performance, palette_performance), u_performance)),
            utilization,
            accuracy,
        });
    }
    store
}

/// A row drawn as (eligible, work, hint).
type RawRow = (bool, (usize, f64), (usize, f64));

/// Rows of the drawn values; every row is fresh with a unit bias.
fn rows_of(raw: &[RawRow]) -> TaskRows {
    raw.iter()
        .enumerate()
        .map(|(i, &(eligible, work, hint))| TaskView {
            id: TaskId(i as u32),
            stage: StageId::INPUT,
            eligible,
            running_copies: 0,
            copy_start: 0.0,
            copy_duration: 0.0,
            rem_bias: 1.0,
            oldest_start: 0.0,
            tnew_bias: 1.0,
            true_new_hint: value(hint),
            work: value(work),
        })
        .collect()
}

proptest! {
    #[test]
    fn the_one_scan_decides_as_the_two_scans_did(
        samples in prop::collection::vec(
            (0usize..4, (0usize..16, 0.0f64..1.0), (0usize..16, 0.0f64..1.0), 0u8..12, (0.0f64..1.0, 0.0f64..1.0)),
            0..40,
        ),
        palette in ((0usize..8, 0usize..8), (0usize..8, 0usize..8), (0usize..8, 0usize..8), (0usize..8, 0usize..8)),
        views in prop::collection::vec(
            (
                (any::<bool>(), (0usize..8, 0.0f64..1.0), 0usize..3, any::<bool>()),
                (0.0f64..0.95, 0usize..400, 0.0f64..0.7),
                (0usize..40, 0.0f64..1.0, 0.0f64..1.0),
                (any::<bool>(), (0usize..8, 0.0f64..1.0)),
                prop::collection::vec((any::<bool>(), (0usize..8, 0.0f64..1.0), (0usize..8, 0.0f64..1.0)), 0..30),
            ),
            1..8,
        ),
    ) {
        let store = store_of(&samples, [palette.0, palette.1, palette.2, palette.3]);
        for (
            (deadline_bound, remaining, now_at, dag),
            (epsilon, total_input, done_fraction),
            (wave_width, utilization, accuracy),
            (oracle_estimate, per_work),
            raw_rows,
        ) in views
        {
            let rows = rows_of(&raw_rows);
            let now = [0.0, 3.7, 250.0][now_at];
            let remaining = value(remaining);
            // `remaining_deadline` is `arrival + deadline − now`, clamped at 0;
            // a DAG job reads its input-stage deadline instead.
            let bound = if deadline_bound {
                Bound::Deadline(now + remaining)
            } else {
                Bound::Error(epsilon)
            };
            // A job done past `1 − ε` needs no more input tasks.
            let completed = (total_input as f64 * done_fraction) as usize;
            let view = JobView {
                job: JobId(1),
                now,
                arrival: 0.0,
                bound,
                input_deadline: (deadline_bound && dag).then_some(now + remaining / 2.0),
                total_input_tasks: total_input,
                completed_input_tasks: completed,
                total_tasks: total_input,
                completed_tasks: completed,
                tasks: &rows,
                tnew_estimate: if oracle_estimate {
                    TnewEstimate::Oracle
                } else {
                    TnewEstimate::PerWork(value(per_work))
                },
                deadline_index: None,
                wave_width,
                cluster_utilization: utilization,
                estimation_accuracy: accuracy,
                decline_hold: Cell::new(false),
            };
            for factors in FACTORS.map(|preset| preset()) {
                prop_assert_eq!(
                    learned_decision(&view, &store, factors),
                    oracle_learned(&view, &store, factors),
                    "{:?} {:?}", view.bound, factors
                );
            }
            for waves in WAVES {
                let cfg = StrawmanConfig { waves };
                prop_assert_eq!(strawman_decision(&view, &cfg), oracle_strawman(&view, &cfg));
            }
        }
    }
}
