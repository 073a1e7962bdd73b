//! Property tests for the GS / RAS decision rules.
//!
//! * The error-bound selection (`select_nth_unstable_by` plus one pass) picks
//!   exactly what the sort-based walk of Pseudocode 2 picks, ties included. The
//!   sorted walk is kept below as a test-only oracle.
//! * The deadline pick picks exactly what Pseudocode 1's prune into two `Vec`s
//!   followed by `min_by` / `max_by` picks, ties included. That two-`Vec` version
//!   is kept below as a test-only oracle too. It holds for views that carry no
//!   `DeadlineIndex`, and for views whose index was built from their rows and
//!   then kept through launches (which leave stale entries in its fresh order),
//!   completions and stage unlocks, over unquantised works and biases, zero
//!   works, per-work and oracle estimates, and an index of the other estimate
//!   kind, which the pick must not read.
//!
//!   Estimates are drawn from a few quantised values so that equal `tnew`,
//!   `trem`, effective durations and savings are common — the simulator's
//!   continuous estimates almost never tie.
//! * One `GsPolicy` and one `RasPolicy`, each kept across a random sequence of
//!   quantised views of one job, decide exactly what the sorted walk decides at
//!   every step. Between steps copies launch, tasks complete (their row goes,
//!   and the per-work estimate moves), stages unlock and `trem` shrinks, so the
//!   policies' needed-set memo is sometimes still right and sometimes stale.
//!   Rows hold no `trem`: a running row keeps its best copy's start, duration and
//!   estimate bias, and the view derives `trem` at its `now` (`JobView::trem`), so
//!   time passes by moving the view's `now`.
//! * One `GsPolicy` and one `RasPolicy`, each applying its own answers to its
//!   rows at one `now`, decide exactly what the sorted walk decides at every
//!   step, so runs of repeat decisions within one instant outgrow the runner-up
//!   lists the policies keep and force their refill passes.
//! * The held-decline contract (`JobView::hold_decline`): when GS or RAS
//!   declines, the decline stands at every later time while the job's own
//!   tasks, copies and completed counts are unchanged.
//! * Row order carries no meaning: GS and RAS pick the same action on a view and
//!   on the same rows shuffled, with the shuffled rows' id map, under both
//!   bounds, with a fresh and a kept memo, and with an index the view carries and
//!   one the decision builds, while the shuffled rows take every change as the
//!   simulator applies it (a completion swap-removes its row).
//!
//! The test-only oracles walk the eligible rows in task-id order, so every tie
//! they break by walk order goes by task id. The rows the properties keep come in
//! no particular order once a completion has swap-removed a row.

use std::cell::{Cell, OnceCell};

use grass_core::speculation::{choose, MAX_COPIES_PER_TASK};
use grass_core::{
    Action, Bound, DeadlineIndex, GsPolicy, JobId, JobView, RasPolicy, SpeculationMode,
    SpeculationPolicy, StageId, TaskId, TaskRows, TaskView, Time, TnewEstimate,
};
use proptest::prelude::*;

const MODES: [SpeculationMode; 2] = [SpeculationMode::Gs, SpeculationMode::Ras];
const TNEW: [f64; 4] = [1.0, 2.0, 3.0, 4.0];
const TREM: [f64; 6] = [0.5, 1.0, 2.0, 3.0, 4.0, 6.0];
const EPSILON: [f64; 4] = [0.0, 0.1, 0.3, 0.5];

/// The view's eligible rows in task-id order.
fn eligible_by_id<'v>(view: &JobView<'v>) -> Vec<&'v TaskView> {
    let mut rows: Vec<&TaskView> = view.tasks.iter().filter(|t| t.eligible).collect();
    rows.sort_by_key(|t| t.id);
    rows
}

/// The pre-selection `choose_error`: stable-sort the eligible input tasks, in
/// task-id order, by effective duration, keep the needed prefix, append the
/// eligible non-input tasks by task id, then prune and pick with `max_by` (which
/// keeps the last maximum).
fn sorted_choose_error(view: &JobView, mode: SpeculationMode) -> Option<Action> {
    let tnew = |t: &TaskView| view.tnew(t);
    let trem = |t: &TaskView| view.trem(t);
    let effective = |t: &TaskView| t.effective_duration(trem(t), tnew(t));
    let eligible = eligible_by_id(view);
    let mut input_tasks: Vec<&TaskView> = eligible
        .iter()
        .copied()
        .filter(|t| t.stage.is_input())
        .collect();
    input_tasks.sort_by(|a, b| effective(a).total_cmp(&effective(b)));
    let still_needed = view
        .input_tasks_still_needed()
        .unwrap_or(input_tasks.len())
        .min(input_tasks.len());
    let candidates = input_tasks
        .into_iter()
        .take(still_needed)
        .chain(eligible.iter().copied().filter(|t| !t.stage.is_input()));

    let mut fresh: Vec<&TaskView> = Vec::new();
    let mut speculative: Vec<&TaskView> = Vec::new();
    for t in candidates {
        if t.is_running() {
            if t.running_copies >= MAX_COPIES_PER_TASK {
                continue;
            }
            let admissible = match mode {
                SpeculationMode::Gs => t.new_copy_beats_running(trem(t), tnew(t)),
                SpeculationMode::Ras => t
                    .speculation_saving(trem(t), tnew(t))
                    .is_some_and(|s| s > 0.0),
            };
            if admissible {
                speculative.push(t);
            }
        } else {
            fresh.push(t);
        }
    }

    let saving = |t: &TaskView| {
        t.speculation_saving(trem(t), tnew(t))
            .unwrap_or(f64::NEG_INFINITY)
    };
    match mode {
        SpeculationMode::Gs => {
            let best_fresh = fresh.into_iter().max_by(|a, b| tnew(a).total_cmp(&tnew(b)));
            let best_spec = speculative
                .into_iter()
                .max_by(|a, b| trem(a).total_cmp(&trem(b)));
            match (best_fresh, best_spec) {
                (Some(f), Some(s)) => {
                    if trem(s) > tnew(f) {
                        Some(Action::speculate(s.id))
                    } else {
                        Some(Action::launch(f.id))
                    }
                }
                (Some(f), None) => Some(Action::launch(f.id)),
                (None, Some(s)) => Some(Action::speculate(s.id)),
                (None, None) => None,
            }
        }
        SpeculationMode::Ras => {
            if let Some(s) = speculative
                .into_iter()
                .max_by(|a, b| saving(a).total_cmp(&saving(b)))
            {
                return Some(Action::speculate(s.id));
            }
            fresh
                .into_iter()
                .max_by(|a, b| tnew(a).total_cmp(&tnew(b)))
                .map(|f| Action::launch(f.id))
        }
    }
}

/// The pre-one-pass `choose_deadline` (Pseudocode 1): prune the eligible rows, in
/// task-id order, into a `Vec` of fresh tasks and one of admissible speculative
/// copies, then pick with `min_by` (which keeps the first minimum) and `max_by`
/// (which keeps the last maximum).
fn two_vec_choose_deadline(view: &JobView, mode: SpeculationMode) -> Option<Action> {
    let remaining = view.remaining_deadline().unwrap_or(f64::INFINITY);
    if remaining <= 0.0 {
        return None;
    }
    let tnew = |t: &TaskView| view.tnew(t);
    let trem = |t: &TaskView| view.trem(t);
    let mut fresh: Vec<&TaskView> = Vec::new();
    let mut speculative: Vec<&TaskView> = Vec::new();
    for t in eligible_by_id(view) {
        if tnew(t) > remaining {
            continue;
        }
        if t.is_running() {
            if t.running_copies >= MAX_COPIES_PER_TASK {
                continue;
            }
            let admissible = match mode {
                SpeculationMode::Gs => t.new_copy_beats_running(trem(t), tnew(t)),
                SpeculationMode::Ras => t
                    .speculation_saving(trem(t), tnew(t))
                    .is_some_and(|s| s > 0.0),
            };
            if admissible {
                speculative.push(t);
            }
        } else {
            fresh.push(t);
        }
    }

    let best_fresh = fresh.into_iter().min_by(|a, b| tnew(a).total_cmp(&tnew(b)));
    match mode {
        SpeculationMode::Gs => {
            let best_spec = speculative
                .into_iter()
                .min_by(|a, b| tnew(a).total_cmp(&tnew(b)));
            match (best_fresh, best_spec) {
                (Some(f), Some(s)) => {
                    if tnew(s) < tnew(f) {
                        Some(Action::speculate(s.id))
                    } else {
                        Some(Action::launch(f.id))
                    }
                }
                (Some(f), None) => Some(Action::launch(f.id)),
                (None, Some(s)) => Some(Action::speculate(s.id)),
                (None, None) => None,
            }
        }
        SpeculationMode::Ras => {
            let saving = |t: &TaskView| {
                t.speculation_saving(trem(t), tnew(t))
                    .unwrap_or(f64::NEG_INFINITY)
            };
            if let Some(s) = speculative
                .into_iter()
                .max_by(|a, b| saving(a).total_cmp(&saving(b)))
            {
                return Some(Action::speculate(s.id));
            }
            best_fresh.map(|f| Action::launch(f.id))
        }
    }
}

fn pick<T: Copy>(values: &[T], i: usize) -> T {
    values[i % values.len()]
}

/// The ids of the rows that pass `keep`, in row order.
fn ids(rows: &TaskRows, keep: impl Fn(&TaskView) -> bool) -> Vec<TaskId> {
    rows.iter().filter(|t| keep(t)).map(|t| t.id).collect()
}

/// The instant the quantised views start at.
const T0: Time = 5.0;

/// Make `row` a running row whose best copy, launched at `now` with a unit estimate
/// bias, has `trem` left at `now`: it starts at `now` and runs `trem` seconds. That is
/// exact whenever `now + trem` is, as it is for every quantised draw.
fn launch_at(row: &mut TaskView, now: Time, trem: f64) {
    (row.copy_start, row.copy_duration, row.rem_bias) = (now, trem, 1.0);
    if row.running_copies == 0 {
        row.oldest_start = now;
    }
    row.running_copies += 1;
    let rows = TaskRows::default();
    let view = error_view(&rows, 0.0, 1, 0, now);
    assert_eq!(view.trem(row).to_bits(), trem.to_bits(), "{row:?} at {now}");
}

/// One task view at [`T0`] from quantised draws: `(tnew, trem, copies, eligible,
/// stage)`. `tnew` is the row's work, read through a unit per-work estimate.
fn quantised_task(
    id: usize,
    (tnew, trem, copies, eligible, stage): (usize, usize, u32, u8, u8),
) -> TaskView {
    let tnew = pick(&TNEW, tnew);
    let mut row = TaskView {
        id: TaskId(id as u32),
        // Mostly input tasks; a quarter belong to stages 1 and 2.
        stage: StageId(stage.saturating_sub(5)),
        // One task in eight waits for its stage to unlock.
        eligible: eligible != 0,
        running_copies: 0,
        copy_start: 0.0,
        copy_duration: 0.0,
        rem_bias: 1.0,
        oldest_start: 0.0,
        tnew_bias: 1.0,
        true_new_hint: tnew,
        work: tnew,
    };
    if copies > 0 {
        launch_at(&mut row, T0, pick(&TREM, trem));
        row.running_copies = copies;
    }
    row
}

fn error_view(
    tasks: &TaskRows,
    epsilon: f64,
    total_input: usize,
    completed: usize,
    now: Time,
) -> JobView<'_> {
    JobView {
        job: JobId(1),
        now,
        arrival: 0.0,
        bound: Bound::Error(epsilon),
        input_deadline: None,
        total_input_tasks: total_input,
        completed_input_tasks: completed,
        total_tasks: total_input + tasks.len(),
        completed_tasks: completed,
        tasks,
        tnew_estimate: TnewEstimate::PerWork(1.0),
        deadline_index: None,
        wave_width: 4,
        cluster_utilization: 0.5,
        estimation_accuracy: 0.75,
        decline_hold: Cell::new(false),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn error_selection_matches_the_sorted_walk_with_ties(
        raw in prop::collection::vec((0usize..4, 0usize..6, 0u32..=MAX_COPIES_PER_TASK, 0u8..8, 0u8..8), 0..24),
        eps in 0usize..4,
        completed in 0usize..6,
        extra_input in 0usize..8,
    ) {
        let tasks: TaskRows = raw.iter().enumerate().map(|(i, &r)| quantised_task(i, r)).collect();
        let input_in_view = tasks.iter().filter(|t| t.stage.is_input()).count();
        // `still_needed` spans 0 through more than the eligible input tasks.
        let view = error_view(&tasks, pick(&EPSILON, eps), input_in_view + completed + extra_input, completed, T0);
        for mode in MODES {
            prop_assert_eq!(choose(&view, mode), sorted_choose_error(&view, mode));
        }
    }

    #[test]
    fn deadline_pick_matches_the_two_vec_walk_with_ties(
        raw in prop::collection::vec((0usize..4, 0usize..6, 0u32..=MAX_COPIES_PER_TASK, 0u8..8, 0u8..8), 0..24),
        remaining in 0usize..7,
        dag in any::<bool>(),
    ) {
        let tasks: TaskRows = raw.iter().enumerate().map(|(i, &r)| quantised_task(i, r)).collect();
        // Remaining deadline at `now` = 5 from past due through wider than every
        // `tnew`, with values equal to a `tnew` so admission ties occur; DAG jobs
        // get a shorter input-stage deadline.
        let deadline = 5.0 + pick(&[-1.0, 0.0, 1.0, 2.0, 2.5, 3.0, 10.0], remaining);
        let view = JobView {
            bound: Bound::Deadline(deadline),
            input_deadline: dag.then_some(deadline - 0.5),
            ..error_view(&tasks, 0.0, tasks.len() + 2, 2, T0)
        };
        for mode in MODES {
            prop_assert_eq!(choose(&view, mode), two_vec_choose_deadline(&view, mode));
        }
    }
}

/// Works for the kept-index property: zero, quantised ones that tie, and two
/// that are not; draws past the end take an unquantised work.
const WORK: [f64; 6] = [
    0.0,
    1.0,
    2.0,
    3.0,
    0.731_058_578_630_004_9,
    2.645_751_311_064_591,
];
/// Estimate biases, likewise.
const BIAS: [f64; 4] = [1.0, 0.5, 1.25, 0.880_797_077_977_882_3];
/// The per-work estimates of the kept-index property; `None` is oracle estimates,
/// and the last draw takes an unquantised estimate.
const ESTIMATES: [Option<f64>; 4] = [None, Some(1.0), Some(1.5), Some(0.6)];

/// One row of the kept-index property: `((work, bias), copies, eligible, stage,
/// (trem, jitter))`, where `jitter` makes the unquantised work or bias.
type IndexDraw = ((usize, usize), u32, u8, u8, (usize, f64));

fn index_row(
    id: usize,
    ((work, bias), copies, eligible, stage, (trem, jitter)): IndexDraw,
) -> TaskView {
    let work = if work < WORK.len() {
        WORK[work]
    } else {
        jitter * 3.0
    };
    let tnew_bias = if bias < BIAS.len() {
        BIAS[bias]
    } else {
        0.5 + jitter / 2.0
    };
    let mut row = TaskView {
        work,
        tnew_bias,
        true_new_hint: work * 1.3,
        ..quantised_task(id, (0, 0, 0, eligible, stage))
    };
    if copies > 0 {
        launch_at(&mut row, T0, pick(&TREM, trem));
        row.running_copies = copies;
    }
    row
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// Steps: 0–1 launch a first copy of a row without one (eligible or not), 2
    /// races another copy, 3 completes a running task, 4 unlocks every row, and 5
    /// lets time pass. The index hears of each change as its owner would tell it.
    #[test]
    fn kept_index_deadline_pick_matches_the_two_vec_walk(
        raw in prop::collection::vec(((0usize..8, 0usize..5), 0u32..=MAX_COPIES_PER_TASK, 0u8..8, 0u8..8, (0usize..6, 0.0f64..1.0)), 0..24),
        (estimate, per_work) in (0usize..5, 0.2f64..3.0),
        other_kind in any::<bool>(),
        remaining in 0usize..7,
        steps in prop::collection::vec((0u8..6, any::<usize>(), 0usize..6), 1..24),
    ) {
        let mut rows: TaskRows = raw.iter().enumerate().map(|(i, &r)| index_row(i, r)).collect();
        let estimate = match ESTIMATES.get(estimate) {
            Some(None) => TnewEstimate::Oracle,
            Some(&Some(p)) => TnewEstimate::PerWork(p),
            None => TnewEstimate::PerWork(per_work),
        };
        // The index is built for the view's estimate kind or, to check that the
        // pick does not read it, for the other one.
        let kind = match (estimate, other_kind) {
            (TnewEstimate::Oracle, true) => TnewEstimate::PerWork(1.0),
            (TnewEstimate::PerWork(_), true) => TnewEstimate::Oracle,
            (_, false) => estimate,
        };
        let mut index = OnceCell::from(DeadlineIndex::build(&rows, kind));
        let deadline = T0 + pick(&[-1.0, 0.0, 1.0, 2.0, 3.9, 6.0, 1e9], remaining);
        let mut now = T0;
        for (step, &(kind, pick_at, value)) in steps.iter().enumerate() {
            let view = JobView {
                bound: Bound::Deadline(deadline),
                tnew_estimate: estimate,
                deadline_index: Some(&index),
                ..error_view(&rows, 0.0, rows.len() + 2, 2, now)
            };
            for mode in MODES {
                prop_assert_eq!(
                    choose(&view, mode),
                    two_vec_choose_deadline(&view, mode),
                    "{:?} at step {} on {:?} under {:?}", mode, step, rows, estimate
                );
            }
            let running = ids(&rows, TaskView::is_running);
            let trem = pick(&TREM, value);
            match kind {
                0 | 1 => {
                    let idle = ids(&rows, |t| !t.is_running());
                    if let Some(&id) = idle.get(pick_at % idle.len().max(1)) {
                        launch_at(rows.get_mut(id).unwrap(), now, trem);
                        index.get_mut().unwrap().launched(&rows, id);
                    }
                }
                2 => {
                    if let Some(&id) = running.get(pick_at % running.len().max(1)) {
                        let row = rows.get_mut(id).unwrap();
                        if row.running_copies < MAX_COPIES_PER_TASK {
                            launch_at(row, now, trem);
                            index.get_mut().unwrap().launched(&rows, id);
                        }
                    }
                }
                3 => {
                    if let Some(&id) = running.get(pick_at % running.len().max(1)) {
                        rows.remove(id);
                        index.get_mut().unwrap().removed(id);
                    }
                }
                4 => {
                    rows.iter_mut().for_each(|t| t.eligible = true);
                    index.get_mut().unwrap().unlocked(&rows);
                }
                _ => now += pick(&[0.5, 1.0, 2.0], value),
            }
        }
    }
}

/// Per-work estimates a completion moves the job's to. With the quantised works
/// and `trem`s they give exact products, so ties stay common.
const PER_WORK: [f64; 4] = [0.5, 1.0, 1.5, 2.0];

/// One step of a job's life between two decisions: `(kind, pick, value)`.
type Step = (u8, usize, usize);

/// How far `now` moves at every step of a job's life, so that no two decisions share
/// an instant. A power of two, so that every start, end and `trem` stays exact.
const TICK: Time = 1.0 / 64.0;

/// Apply one step at `now` to the job's rows: launch a first copy, race another
/// copy (the best copy becomes whichever ends first), complete a task (its row goes,
/// and the per-work estimate moves), unlock the waiting rows, or let time pass so
/// every running `trem` shrinks. Returns whether an input task completed.
fn apply_step(
    rows: &mut TaskRows,
    per_work: &mut f64,
    now: &mut Time,
    (kind, pick_at, value): Step,
) -> bool {
    let running = ids(rows, TaskView::is_running);
    match kind {
        0 => {
            let idle = ids(rows, |t| t.eligible && !t.is_running());
            if let Some(&id) = idle.get(pick_at % idle.len().max(1)) {
                launch_at(rows.get_mut(id).unwrap(), *now, pick(&TREM, value));
            }
        }
        1 => {
            if let Some(&id) = running.get(pick_at % running.len().max(1)) {
                let row = rows.get_mut(id).unwrap();
                let trem = pick(&TREM, value);
                if row.running_copies < MAX_COPIES_PER_TASK {
                    if *now + trem < row.copy_start + row.copy_duration {
                        launch_at(row, *now, trem);
                    } else {
                        row.running_copies += 1;
                    }
                }
            }
        }
        2 => {
            if let Some(&id) = running.get(pick_at % running.len().max(1)) {
                *per_work = pick(&PER_WORK, value);
                return rows.remove(id).unwrap().stage.is_input();
            }
        }
        3 => rows.iter_mut().for_each(|t| t.eligible = true),
        _ => *now += pick(&[0.5, 1.0, 2.0], value),
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn memoised_decisions_match_the_sorted_walk_at_every_step(
        raw in prop::collection::vec((0usize..4, 0usize..6, 0u32..=MAX_COPIES_PER_TASK, 0u8..8, 0u8..8), 1..24),
        eps in 0usize..4,
        extra_input in 0usize..8,
        steps in prop::collection::vec((0u8..6, any::<usize>(), 0usize..6), 1..40),
    ) {
        let mut rows: TaskRows = raw.iter().enumerate().map(|(i, &r)| quantised_task(i, r)).collect();
        let total_input = rows.iter().filter(|t| t.stage.is_input()).count() + extra_input;
        let epsilon = pick(&EPSILON, eps);
        let (mut per_work, mut completed, mut now) = (1.0, 0, T0);
        let mut gs = GsPolicy::default();
        let mut ras = RasPolicy::default();
        for (step, &op) in steps.iter().enumerate() {
            let view = JobView {
                tnew_estimate: TnewEstimate::PerWork(per_work),
                ..error_view(&rows, epsilon, total_input, completed, now)
            };
            for (mode, policy) in [
                (SpeculationMode::Gs, &mut gs as &mut dyn SpeculationPolicy),
                (SpeculationMode::Ras, &mut ras),
            ] {
                prop_assert_eq!(
                    policy.choose(&view),
                    sorted_choose_error(&view, mode),
                    "{:?} at step {} on {:?} (per work {})", mode, step, rows, per_work
                );
            }
            if apply_step(&mut rows, &mut per_work, &mut now, op) {
                completed += 1;
            }
            now += TICK;
        }
    }
}

/// Apply `answer` to the rows at `now` as a caller applies it: one more copy of the
/// task it names, whose best copy's `trem` becomes `trem`. For a speculative copy
/// that may rise, since a new best copy may carry a larger estimate bias.
fn apply_answer(rows: &mut TaskRows, answer: Action, now: Time, trem: f64) {
    if let Some(row) = rows.get_mut(answer.task) {
        assert_eq!(
            row.is_running(),
            answer.is_speculative(),
            "{answer:?} on {row:?}"
        );
        launch_at(row, now, trem);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// About nine steps in ten apply the policy's own answer at the same `now`; the
    /// rest apply nothing or a copy of another task instead, complete a running
    /// task at the same `now` (which may unlock the later stages), or let time
    /// pass, once with every running copy about to finish, so that declines follow.
    #[test]
    fn same_instant_decisions_match_the_sorted_walk(
        raw in prop::collection::vec((0usize..4, 0usize..6, 0u32..=MAX_COPIES_PER_TASK, 0u8..8, 0u8..8), 1..60),
        eps in 0usize..4,
        extra_input in 0usize..8,
        steps in prop::collection::vec((0u8..40, any::<usize>(), 0usize..6), 1..120),
    ) {
        let initial: TaskRows = raw.iter().enumerate().map(|(i, &r)| quantised_task(i, r)).collect();
        let total_input = initial.iter().filter(|t| t.stage.is_input()).count() + extra_input;
        let epsilon = pick(&EPSILON, eps);
        for mode in MODES {
            let mut policy: Box<dyn SpeculationPolicy> = match mode {
                SpeculationMode::Gs => Box::<GsPolicy>::default(),
                SpeculationMode::Ras => Box::<RasPolicy>::default(),
            };
            let mut rows = initial.clone();
            let (mut per_work, mut completed, mut now) = (1.0, 0, T0);
            for (step, &(kind, pick_at, value)) in steps.iter().enumerate() {
                let view = JobView {
                    tnew_estimate: TnewEstimate::PerWork(per_work),
                    ..error_view(&rows, epsilon, total_input, completed, now)
                };
                let answer = policy.choose(&view);
                prop_assert_eq!(
                    answer,
                    sorted_choose_error(&view, mode),
                    "{:?} at step {} on {:?} (per work {})", mode, step, rows, per_work
                );
                match (kind, answer) {
                    (0..=35, Some(action)) => apply_answer(&mut rows, action, now, pick(&TREM, value)),
                    // The answer is not applied: nothing changes, or one copy of
                    // another eligible task launches instead, as a caller that
                    // makes one arbitrary change per step would.
                    (36, _) => {
                        let others: Vec<Action> = rows
                            .iter()
                            .filter(|t| t.eligible && t.running_copies < MAX_COPIES_PER_TASK)
                            .map(|t| if t.is_running() { Action::speculate(t.id) } else { Action::launch(t.id) })
                            .filter(|other| Some(other.task) != answer.map(|a| a.task))
                            .collect();
                        if let Some(&other) = others.get(pick_at % (2 * others.len()).max(1)) {
                            apply_answer(&mut rows, other, now, pick(&TREM, value));
                        }
                    }
                    (37, _) => {
                        let running = ids(&rows, TaskView::is_running);
                        if let Some(&id) = running.get(pick_at % running.len().max(1)) {
                            per_work = pick(&PER_WORK, value);
                            if rows.remove(id).unwrap().stage.is_input() {
                                completed += 1;
                            }
                            if pick_at % 2 == 0 {
                                rows.iter_mut().for_each(|t| t.eligible = true);
                            }
                        }
                    }
                    // Past every running copy's end: each `trem` reads zero.
                    (38, _) => {
                        now = rows
                            .iter()
                            .filter(|t| t.is_running())
                            .map(|t| t.copy_start + t.copy_duration)
                            .fold(now + 1.0, f64::max);
                    }
                    _ => now += pick(&[0.5, 1.0, 2.0], value),
                }
            }
        }
    }
}

/// `rows` in the order of `keys`: row `i` goes where `keys[i]` sorts, ties by id.
fn shuffled(rows: &[TaskView], keys: &[u32]) -> TaskRows {
    let mut order: Vec<(u32, &TaskView)> = rows
        .iter()
        .enumerate()
        .map(|(i, t)| (pick(keys, i), t))
        .collect();
    order.sort_by_key(|&(key, t)| (key, t.id));
    order.into_iter().map(|(_, t)| t.clone()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// One job's rows in ascending task id, and the same rows shuffled, take the
    /// same steps: 0 launches a first copy of an eligible row, 1 races another
    /// copy, 2 applies the last answer of the kept GS or RAS policy at the same
    /// `now`, 3 completes a running task (the shuffled rows swap-remove its row,
    /// the per-work estimate moves, and the later stages may unlock), 4 unlocks
    /// every row, and 5–7 let time pass. Before every step `choose` on the sorted
    /// rows decides; `choose` on the shuffled rows with an index it builds, and a
    /// policy kept across the steps on the shuffled rows with an index the view
    /// carries, must decide alike.
    #[test]
    fn decisions_do_not_depend_on_the_order_of_the_rows(
        raw in prop::collection::vec((0usize..4, 0usize..6, 0u32..=MAX_COPIES_PER_TASK, 0u8..8, 0u8..8), 1..24),
        keys in prop::collection::vec(any::<u32>(), 1..24),
        error_bound in any::<bool>(),
        (oracle, eps, extra_input, remaining) in (any::<bool>(), 0usize..4, 0usize..8, 0usize..7),
        steps in prop::collection::vec((0u8..8, any::<usize>(), 0usize..6), 1..32),
    ) {
        let mut sorted: Vec<TaskView> = raw.iter().enumerate().map(|(i, &r)| quantised_task(i, r)).collect();
        let mut rows = shuffled(&sorted, &keys);
        let total_input = sorted.iter().filter(|t| t.stage.is_input()).count() + extra_input;
        let bound = if error_bound {
            Bound::Error(pick(&EPSILON, eps))
        } else {
            Bound::Deadline(T0 + pick(&[-1.0, 0.0, 1.0, 2.0, 3.0, 6.0, 1e9], remaining))
        };
        let (mut per_work, mut completed, mut now) = (1.0, 0, T0);
        let estimate = |per_work| if oracle { TnewEstimate::Oracle } else { TnewEstimate::PerWork(per_work) };
        let mut index = OnceCell::from(DeadlineIndex::build(&rows, estimate(per_work)));
        let mut kept: [(SpeculationMode, Box<dyn SpeculationPolicy>); 2] = [
            (SpeculationMode::Gs, Box::<GsPolicy>::default()),
            (SpeculationMode::Ras, Box::<RasPolicy>::default()),
        ];
        let mut answers = [None, None];
        for (step, &(kind, pick_at, value)) in steps.iter().enumerate() {
            let reference = TaskRows::from(sorted.clone());
            let view = |tasks| JobView {
                bound,
                tnew_estimate: estimate(per_work),
                ..error_view(tasks, 0.0, total_input, completed, now)
            };
            let carried = JobView {
                deadline_index: Some(&index),
                ..view(&rows)
            };
            for ((mode, policy), answer) in kept.iter_mut().zip(&mut answers) {
                let want = choose(&view(&reference), *mode);
                prop_assert_eq!(
                    choose(&view(&rows), *mode),
                    want,
                    "{:?} at step {} on {:?}", mode, step, rows
                );
                *answer = policy.choose(&carried);
                prop_assert_eq!(*answer, want, "kept {:?} at step {} on {:?}", mode, step, rows);
            }

            // The same change to both arrangements, and to the index.
            let trem = pick(&TREM, value);
            let one_of = |ids: Vec<TaskId>| ids.get(pick_at % ids.len().max(1)).copied();
            let launch = match kind {
                0 => one_of(ids(&rows, |t| t.eligible && !t.is_running())),
                1 => one_of(ids(&rows, |t| t.is_running() && t.running_copies < MAX_COPIES_PER_TASK)),
                2 => answers[pick_at % 2].map(|a| a.task),
                _ => None,
            };
            if let Some(id) = launch {
                launch_at(rows.get_mut(id).unwrap(), now, trem);
                launch_at(sorted.iter_mut().find(|t| t.id == id).unwrap(), now, trem);
                index.get_mut().unwrap().launched(&rows, id);
            }
            match kind {
                3 => {
                    let running = ids(&rows, TaskView::is_running);
                    if let Some(&id) = running.get(pick_at % running.len().max(1)) {
                        per_work = pick(&PER_WORK, value);
                        if rows.remove(id).unwrap().stage.is_input() {
                            completed += 1;
                        }
                        sorted.retain(|t| t.id != id);
                        index.get_mut().unwrap().removed(id);
                    }
                    if pick_at % 2 == 0 {
                        rows.iter_mut().for_each(|t| t.eligible = true);
                        sorted.iter_mut().for_each(|t| t.eligible = true);
                        index.get_mut().unwrap().unlocked(&rows);
                    }
                }
                4 => {
                    rows.iter_mut().for_each(|t| t.eligible = true);
                    sorted.iter_mut().for_each(|t| t.eligible = true);
                    index.get_mut().unwrap().unlocked(&rows);
                }
                5..=7 => now += pick(&[0.5, 1.0, 2.0], value),
                _ => {}
            }
        }
    }
}

/// A running copy in the job model: ground truth plus the estimate bias the
/// simulator draws once per copy.
#[derive(Debug, Clone)]
struct RunningCopy {
    start: Time,
    duration: Time,
    rem_bias: f64,
}

#[derive(Debug, Clone)]
struct ModelTask {
    stage: u8,
    eligible: bool,
    tnew: f64,
    copies: Vec<RunningCopy>,
}

/// The job's bound and completed counts, which stay fixed while the job is unchanged.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Error {
        epsilon: f64,
        total_input: usize,
        completed: usize,
    },
    Deadline {
        deadline: Time,
        input_deadline: Option<Time>,
    },
}

const T1: Time = 10.0;

/// One model task's draws: `(tnew, copies, eligible, stage, (elapsed, left, bias))`.
type TaskDraw = (usize, u32, u8, u8, (usize, usize, usize));

/// Between 1 and 15 model tasks.
fn task_draws() -> impl Strategy<Value = Vec<TaskDraw>> {
    prop::collection::vec(
        (
            0usize..4,
            0u32..=MAX_COPIES_PER_TASK,
            0u8..8,
            0u8..8,
            (0usize..4, 0usize..4, 0usize..3),
        ),
        1..16,
    )
}

fn model_tasks(raw: &[TaskDraw]) -> Vec<ModelTask> {
    raw.iter()
        .map(
            |&(tnew, copies, eligible, stage, (elapsed, left, bias))| ModelTask {
                stage: stage.saturating_sub(5),
                eligible: eligible != 0,
                tnew: pick(&TNEW, tnew),
                // Copies of one task started at different times, all still running at T1.
                copies: (0..copies as usize)
                    .map(|k| {
                        let elapsed = pick(&[0.0, 0.5, 2.0, 5.0], elapsed + k);
                        RunningCopy {
                            start: T1 - elapsed,
                            duration: elapsed + pick(&[0.25, 1.0, 3.0, 7.5], left + 3 * k),
                            rem_bias: pick(&[0.5, 1.0, 1.6], bias + k),
                        }
                    })
                    .collect(),
            },
        )
        .collect()
}

/// The job's task views, built the way the simulator builds them: a running row
/// keeps its best copy's start, duration and bias, the best copy being the one that
/// ends first (the first launched among equal ends). No row depends on `now`; a view
/// derives `trem` at its own `now`.
fn model_rows(tasks: &[ModelTask]) -> TaskRows {
    tasks
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let best = t
                .copies
                .iter()
                .min_by(|a, b| (a.start + a.duration).total_cmp(&(b.start + b.duration)));
            let oldest_start = t
                .copies
                .iter()
                .map(|c| c.start)
                .fold(f64::INFINITY, f64::min);
            let (copy_start, copy_duration, rem_bias, oldest_start) = best
                .map_or((0.0, 0.0, 1.0, 0.0), |c| {
                    (c.start, c.duration, c.rem_bias, oldest_start)
                });
            TaskView {
                id: TaskId(i as u32),
                stage: StageId(t.stage),
                eligible: t.eligible,
                running_copies: t.copies.len() as u32,
                copy_start,
                copy_duration,
                rem_bias,
                oldest_start,
                tnew_bias: 1.0,
                true_new_hint: t.tnew,
                work: t.tnew,
            }
        })
        .collect()
}

fn job_view(shape: Shape, tasks: &TaskRows, now: Time) -> JobView<'_> {
    match shape {
        Shape::Error {
            epsilon,
            total_input,
            completed,
        } => error_view(tasks, epsilon, total_input, completed, now),
        Shape::Deadline {
            deadline,
            input_deadline,
        } => JobView {
            bound: Bound::Deadline(deadline),
            input_deadline,
            ..error_view(tasks, 0.0, tasks.len() + 2, 2, now)
        },
    }
}

/// Later times up to the first copy finish (when the job would change), or 30 s
/// on when nothing is running.
fn later_times(tasks: &[ModelTask], steps: &[usize]) -> Vec<Time> {
    let first_finish = tasks
        .iter()
        .flat_map(|t| &t.copies)
        .map(|c| c.start + c.duration)
        .fold(T1 + 30.0, f64::min);
    let mut times: Vec<Time> = steps
        .iter()
        .map(|&k| T1 + (first_finish - T1) * (k as f64 + 1.0) / 16.0)
        .collect();
    times.sort_by(f64::total_cmp);
    times
}

/// When GS or RAS declines at `T1`, the decline must be held, and it must stand at
/// every later time with the job unchanged.
fn check_declines_hold(tasks: &[ModelTask], shape: Shape, later: &[Time]) -> Result<(), String> {
    let policies: [(&str, Box<dyn SpeculationPolicy>); 2] = [
        ("GS", Box::<GsPolicy>::default()),
        ("RAS", Box::<RasPolicy>::default()),
    ];
    let rows = model_rows(tasks);
    for (name, mut policy) in policies {
        let first = job_view(shape, &rows, T1);
        if policy.choose(&first).is_some() {
            continue;
        }
        if !first.is_decline_held() {
            return Err(format!("{name} declined at {T1} without holding"));
        }
        for &now in later {
            if let Some(action) = policy.choose(&job_view(shape, &rows, now)) {
                return Err(format!(
                    "{name} declined at {T1} but chose {action:?} at {now} with the job unchanged"
                ));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn error_bound_declines_hold_while_the_job_is_unchanged(
        raw in task_draws(),
        eps in 0usize..4,
        completed in 0usize..6,
        extra_input in 0usize..8,
        steps in prop::collection::vec(0usize..16, 1..6),
    ) {
        let tasks = model_tasks(&raw);
        let input = tasks.iter().filter(|t| t.stage == 0).count();
        let shape = Shape::Error {
            epsilon: pick(&EPSILON, eps),
            total_input: input + completed + extra_input,
            completed,
        };
        let checked = check_declines_hold(&tasks, shape, &later_times(&tasks, &steps));
        prop_assert!(checked.is_ok(), "{checked:?} for {tasks:?} {shape:?}");
    }

    #[test]
    fn deadline_bound_declines_hold_while_the_job_is_unchanged(
        raw in task_draws(),
        deadline in 0usize..5,
        dag in any::<bool>(),
        steps in prop::collection::vec(0usize..16, 1..6),
    ) {
        let tasks = model_tasks(&raw);
        // Remaining deadline at T1 from negative to 30 s; DAG jobs get a shorter
        // input-stage deadline.
        let deadline = pick(&[8.0, 11.0, 12.5, 15.0, 40.0], deadline);
        let shape = Shape::Deadline {
            deadline,
            input_deadline: dag.then_some(deadline - 0.5),
        };
        let checked = check_declines_hold(&tasks, shape, &later_times(&tasks, &steps));
        prop_assert!(checked.is_ok(), "{checked:?} for {tasks:?} {shape:?}");
    }
}

/// One row of the certificate property: `(work, bias, trem, copies, kind)` draws,
/// where `kind` picks a near-floor work, a duplicate of the previous row (so
/// effective durations and keys tie and task ids decide), a row whose key is the
/// previous one's to within an ulp or two, or a non-input or ineligible row.
type CertDraw = (f64, f64, f64, u32, u8);

/// Relative nudges of a per-work estimate around a threshold: just below and just
/// above it, by less than, about and more than the certificates' `1e-9` margin.
const NUDGE: [f64; 10] = [
    -3e-9, -1e-9, -1e-12, -1e-16, 0.0, 1e-16, 1e-12, 1e-9, 2e-9, 3e-9,
];

/// The rows of the certificate property at [`T0`]: unquantised works, biases and
/// `trem`s. Works near zero put `tnew` near its `1e-6` floor.
fn cert_rows(raw: &[CertDraw]) -> TaskRows {
    let mut rows: Vec<TaskView> = Vec::new();
    for (i, &(work, bias, trem, copies, kind)) in raw.iter().enumerate() {
        let mut row = match (kind, rows.last()) {
            (0, Some(previous)) => TaskView {
                id: TaskId(i as u32),
                ..previous.clone()
            },
            // The previous row's key to within an ulp or two, so that `tnew`s may
            // round either way around the keys' order.
            (4, Some(previous)) => TaskView {
                id: TaskId(i as u32),
                stage: StageId::INPUT,
                eligible: true,
                running_copies: 0,
                work: previous.work * (1.0 + (work - 0.5) * 1e-3),
                tnew_bias: previous.tnew_bias / (1.0 + (work - 0.5) * 1e-3),
                ..previous.clone()
            },
            _ => TaskView {
                id: TaskId(i as u32),
                stage: StageId(u8::from(kind == 1)),
                eligible: kind != 2,
                running_copies: 0,
                copy_start: 0.0,
                copy_duration: 0.0,
                rem_bias: 1.0,
                oldest_start: 0.0,
                tnew_bias: 0.5 + bias,
                true_new_hint: work * (0.5 + bias),
                work: if kind == 3 { work * 1e-6 } else { work * 4.0 },
            },
        };
        if kind != 0 && copies > 0 {
            let trem = if kind == 3 { trem * 2e-6 } else { trem * 8.0 };
            (row.copy_start, row.copy_duration, row.rem_bias) =
                (T0 - 1.0, 1.0 + trem, 0.75 + bias / 2.0);
            (row.oldest_start, row.running_copies) = (T0 - 1.0, copies);
        }
        rows.push(row);
    }
    rows.into()
}

/// Per-work estimates near where a certificate's bound may sit on `view`: each
/// running row's test threshold (`trem / key`, and RAS's `c·trem / ((c+1)·key)`)
/// and rank thresholds against the least fresh key (`trem / k_f`, `1e-6 / k_f`).
fn thresholds(view: &JobView) -> Vec<f64> {
    let key = |t: &TaskView| t.work * t.tnew_bias;
    let least_fresh = view
        .tasks
        .iter()
        .filter(|t| t.eligible && !t.is_running())
        .map(key)
        .fold(f64::INFINITY, f64::min);
    let mut at = Vec::new();
    for t in view.tasks.iter().filter(|t| t.is_running()) {
        let (trem, c) = (view.trem(t), f64::from(t.running_copies));
        at.extend([
            trem / key(t),
            c * trem / ((c + 1.0) * key(t)),
            trem / least_fresh,
            1e-6 / least_fresh,
        ]);
    }
    at.retain(|p| p.is_finite() && *p > 0.0);
    at
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// A `GsPolicy` and a `RasPolicy` kept across one job's decisions equal the
    /// stateless `choose` at every step, so that every decline they certify is a
    /// decline. Steps: 0–3 complete a running task (its row goes), 4–5 let time
    /// pass, 6–7 move the per-work estimate to just below or above one of the
    /// thresholds a certificate's bound is made of, 8 moves it by a factor either
    /// way, and 9 launches a copy of an eligible row, which a certificate must not
    /// survive. Under oracle estimates the estimate steps change nothing.
    #[test]
    fn kept_policies_certify_only_true_declines(
        raw in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0u32..=MAX_COPIES_PER_TASK, 0u8..12), 1..30),
        (oracle, eps, extra_input) in (any::<bool>(), 0usize..4, 0usize..4),
        steps in prop::collection::vec((0u8..10, any::<usize>(), 0.0f64..1.0), 1..40),
    ) {
        let mut rows = cert_rows(&raw);
        let total_input = rows.iter().filter(|t| t.stage.is_input()).count() + extra_input;
        let epsilon = pick(&EPSILON, eps);
        let (mut per_work, mut completed, mut now) = (1.0, 0, T0);
        let mut kept: [(SpeculationMode, Box<dyn SpeculationPolicy>); 2] = [
            (SpeculationMode::Gs, Box::<GsPolicy>::default()),
            (SpeculationMode::Ras, Box::<RasPolicy>::default()),
        ];
        for (step, &(kind, pick_at, value)) in steps.iter().enumerate() {
            let view = JobView {
                tnew_estimate: if oracle { TnewEstimate::Oracle } else { TnewEstimate::PerWork(per_work) },
                ..error_view(&rows, epsilon, total_input, completed, now)
            };
            for (mode, policy) in &mut kept {
                prop_assert_eq!(
                    policy.choose(&view),
                    choose(&view, *mode),
                    "kept {:?} at step {} on {:?} (per work {}, now {})", mode, step, rows, per_work, now
                );
            }
            let near = thresholds(&view);
            match kind {
                0..=3 => {
                    let running = ids(&rows, TaskView::is_running);
                    if let Some(&id) = running.get(pick_at % running.len().max(1)) {
                        if rows.remove(id).unwrap().stage.is_input() {
                            completed += 1;
                        }
                    }
                }
                4 | 5 => now += pick(&[0.0, 1e-9, 0.25, 1.0], pick_at) * value,
                6 | 7 => {
                    if let Some(&p) = near.get(pick_at % near.len().max(1)) {
                        per_work = p * (1.0 + pick(&NUDGE, pick_at / 7));
                    }
                }
                8 => per_work *= 0.25 + 1.5 * value,
                _ => {
                    let eligible = ids(&rows, |t| t.eligible && t.running_copies < MAX_COPIES_PER_TASK);
                    if let Some(&id) = eligible.get(pick_at % eligible.len().max(1)) {
                        let row = rows.get_mut(id).unwrap();
                        if row.running_copies == 0 {
                            row.oldest_start = now;
                        }
                        row.running_copies += 1;
                        (row.copy_start, row.copy_duration) = (now, 8.0 * value);
                    }
                }
            }
        }
    }
}
