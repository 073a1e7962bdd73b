//! The simulator keeps each job's `TaskView` rows resident: it builds them
//! once, at the job's arrival (`JobRuntime::init_task_views`), and from then on
//! only the job's own launches and completions touch them, since no row depends
//! on `now`. A completion swap-removes its row, so the resident rows come in an
//! order that is not sorted, with a map from task id to row. This property pins
//! that table against a full build: one `JobRuntime` is driven through random
//! launches, speculative races, stale finishes, time advances and the stage
//! unlocks its completions cause, and after every step the resident rows, taken
//! by task id, must equal `build_task_views`, which lists them in ascending task
//! id, every `f64` compared by its bits. The map must send each resident row's
//! id to that row's position, and each finished task's id to no row.
//!
//! Rows hold neither `tnew` nor anything that moves with time: views derive
//! them on read. So every step also checks, by bits, each resident row's
//!
//! * `JobView::tnew` against `(work × per_work) × tnew_bias` floored at `1e-6`
//!   (or `work × mean slowdown` under oracle estimates), evaluated from the
//!   runtime's own state;
//! * `JobView::{elapsed, progress, progress_rate, trem, true_remaining}` against
//!   the values rows stored before they were derived on read
//!   (`stored_copy_fields`, a copy of that code, which took as the best copy the
//!   first one with the least remaining time at `now`). All five must match
//!   while every copy of the task ends at or after `now`, which covers every
//!   state the simulator presents, since a copy's finish event fires at its
//!   end. Once a step moves time past the ends of several copies, those
//!   copies all clamp to zero remaining time and the two rules may name
//!   different best copies; `trem`, `true_remaining` and `elapsed` must still
//!   match.
//!
//! A deadline-bound job also keeps a `DeadlineIndex` of its rows beside them
//! (`JobRuntime::deadline_index`), built by its first GS or RAS decision;
//! error-bound jobs keep none. Once built, after every step it must equal one
//! built from the resident rows: the same running rows in the same order, and
//! the same live fresh rows in the same order. A deadline-bound job whose
//! policy is LATE never builds one.
//!
//! Every case also keeps one `GsPolicy`, `RasPolicy`, `LatePolicy`,
//! `MantriPolicy` and `OraclePolicy` across all the steps, as the simulator
//! keeps one policy per job. After every step each one's decision on the
//! resident view, which carries the kept index, must equal the reference
//! decision on the id-sorted rows of `build_task_views` with no index:
//! `speculation::choose`, which keeps no memo, for GS and RAS, and a policy
//! made afresh for the others. So no decision may depend on the order of the
//! rows. One step kind applies a kept policy's own last answer through
//! `JobRuntime::launch_copy` at the same `now`, as the simulator does when one
//! instant frees several slots, so GS and RAS answer repeat decisions from the
//! runner-up candidates they kept; the other launches change some other row,
//! which those answers must notice.
//!
//! `PROPTEST_CASES` sets the case count (CI runs 500 in release).

use std::cell::Cell;

use grass::core::speculation::choose;
use grass::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const MEAN_SLOWDOWN: f64 = 1.3;

/// Policy stub: the runtime only needs a policy to hold.
struct Idle;

impl SpeculationPolicy for Idle {
    fn name(&self) -> &str {
        "idle"
    }

    fn choose(&mut self, _view: &JobView) -> Option<Action> {
        None
    }
}

/// Every field of a row, with each `f64` as its bit pattern.
fn row_bits(row: &TaskView) -> (u32, u8, bool, u32, [u64; 7]) {
    (
        row.id.0,
        row.stage.0,
        row.eligible,
        row.running_copies,
        [
            row.copy_start.to_bits(),
            row.copy_duration.to_bits(),
            row.rem_bias.to_bits(),
            row.oldest_start.to_bits(),
            row.tnew_bias.to_bits(),
            row.true_new_hint.to_bits(),
            row.work.to_bits(),
        ],
    )
}

/// `elapsed`, `progress`, `progress_rate`, `trem` and `true_remaining` of `task` at
/// `now` as rows stored them before views derived them on read: the best copy is
/// the first with the least remaining time at `now`.
fn stored_copy_fields(task: &TaskRuntime, now: Time, estimator: &EstimatorConfig) -> [f64; 5] {
    let remaining = |c: &CopyRuntime| (c.start + c.duration - now).max(0.0);
    let Some(best) = task
        .copies
        .iter()
        .min_by(|a, b| remaining(a).total_cmp(&remaining(b)))
    else {
        return [0.0, 0.0, 0.0, f64::INFINITY, f64::INFINITY];
    };
    let oldest_start = task
        .copies
        .iter()
        .map(|c| c.start)
        .fold(f64::INFINITY, f64::min);
    let elapsed = (now - oldest_start).max(0.0);
    let true_remaining = remaining(best);
    let trem = if estimator.oracle {
        true_remaining
    } else {
        (true_remaining * best.rem_bias).max(0.0)
    };
    let progress = if best.duration <= 0.0 {
        1.0
    } else {
        ((now - best.start).max(0.0) / best.duration).min(1.0)
    };
    let progress_rate = if elapsed > 0.0 {
        progress / elapsed
    } else {
        0.0
    };
    [elapsed, progress, progress_rate, trem, true_remaining]
}

/// The view the simulator hands a policy: the job's resident rows at `now`.
fn resident_view<'a>(rt: &'a JobRuntime, now: Time, estimator: &EstimatorConfig) -> JobView<'a> {
    JobView {
        job: rt.spec.id,
        now,
        arrival: rt.spec.arrival,
        bound: rt.spec.bound,
        input_deadline: rt.input_deadline,
        total_input_tasks: rt.spec.input_tasks(),
        completed_input_tasks: rt.completed_input(),
        total_tasks: rt.spec.total_tasks(),
        completed_tasks: rt.completed_total(),
        tasks: rt.task_views(),
        tnew_estimate: rt.tnew_estimate(estimator, MEAN_SLOWDOWN),
        deadline_index: Some(rt.deadline_index()),
        wave_width: 1,
        cluster_utilization: 0.0,
        estimation_accuracy: rt.accuracy.accuracy(),
        decline_hold: Cell::new(false),
    }
}

/// A policy the property keeps across every step, and how it takes its reference
/// decision on the built rows.
enum Reference {
    /// `speculation::choose` in this mode, which keeps no memo.
    Choose(SpeculationMode),
    /// A policy made afresh by this factory.
    Fresh(Box<dyn PolicyFactory>),
}

/// The kept policies: GS and RAS, and LATE, Mantri and the oracle.
fn kept_policies(spec: &JobSpec) -> Vec<(Reference, Box<dyn SpeculationPolicy>)> {
    let mut kept: Vec<(Reference, Box<dyn SpeculationPolicy>)> = vec![
        (
            Reference::Choose(SpeculationMode::Gs),
            Box::<GsPolicy>::default(),
        ),
        (
            Reference::Choose(SpeculationMode::Ras),
            Box::<RasPolicy>::default(),
        ),
    ];
    let factories: [Box<dyn PolicyFactory>; 3] = [
        Box::new(LateFactory),
        Box::new(MantriFactory),
        Box::new(OracleFactory),
    ];
    for factory in factories {
        let policy = factory.create(spec);
        kept.push((Reference::Fresh(factory), policy));
    }
    kept
}

/// Each kept policy's decision on the resident view equals the reference decision
/// on the id-sorted rows of a full build with no index. Returns the decisions, in
/// policy order.
fn assert_kept_policies_match_the_built_rows(
    policies: &mut [(Reference, Box<dyn SpeculationPolicy>)],
    rt: &JobRuntime,
    now: Time,
    estimator: &EstimatorConfig,
    step: usize,
) -> Vec<Option<Action>> {
    let view = resident_view(rt, now, estimator);
    let built = rt.build_task_views(MEAN_SLOWDOWN);
    let sorted = JobView {
        tasks: &built,
        deadline_index: None,
        ..view.clone()
    };
    let mut decisions = Vec::new();
    for (reference, policy) in policies.iter_mut() {
        let decision = policy.choose(&view);
        let want = match reference {
            Reference::Choose(mode) => choose(&sorted, *mode),
            Reference::Fresh(factory) => factory.create(&rt.spec).choose(&sorted),
        };
        assert_eq!(
            decision,
            want,
            "step {step} at t={now}: {} on {:?}",
            policy.name(),
            view.tasks
        );
        decisions.push(decision);
    }
    decisions
}

fn assert_resident_rows_match_a_full_build(
    rt: &JobRuntime,
    now: Time,
    estimator: &EstimatorConfig,
    step: usize,
) {
    let built = rt.build_task_views(MEAN_SLOWDOWN);
    let resident = rt.task_views();
    assert_eq!(
        resident.len(),
        built.len(),
        "step {step} at t={now}: {} resident rows, {} built",
        resident.len(),
        built.len()
    );
    let mut by_id: Vec<&TaskView> = resident.iter().collect();
    by_id.sort_by_key(|t| t.id);
    for (have, want) in by_id.into_iter().zip(built.iter()) {
        assert_eq!(
            row_bits(have),
            row_bits(want),
            "step {step} at t={now}: resident {have:?} != built {want:?}"
        );
    }
    // The map sends each row's id to its position, and a finished task's to none.
    for (at, row) in resident.iter().enumerate() {
        let mapped = resident.get(row.id);
        assert!(
            mapped.is_some_and(|t| std::ptr::eq(t, &resident[at])),
            "step {step}: {:?} maps to {mapped:?}, not to position {at}",
            row.id
        );
    }
    for (id, task) in rt.tasks.iter().enumerate() {
        let id = TaskId(id as u32);
        if task.finished {
            assert_eq!(
                resident.get(id),
                None,
                "step {step}: finished {id:?} has a row"
            );
        }
    }

    let estimate = rt.tnew_estimate(estimator, MEAN_SLOWDOWN);
    match rt.deadline_index().get() {
        // The first decision, right after step 0's check, builds it.
        None => assert!(
            rt.spec.bound.is_error() || step == 0,
            "step {step}: no index kept"
        ),
        Some(kept) => {
            assert!(
                rt.spec.bound.is_deadline(),
                "step {step}: index kept for an error-bound job"
            );
            assert!(
                kept.is_for(estimate),
                "step {step}: index of the wrong kind"
            );
            let fresh = DeadlineIndex::build(resident, estimate);
            let ids =
                |rows: &mut dyn Iterator<Item = &TaskView>| rows.map(|t| t.id).collect::<Vec<_>>();
            assert_eq!(
                ids(&mut kept.running_rows(resident)),
                ids(&mut fresh.running_rows(resident)),
                "step {step} at t={now}: running rows"
            );
            assert_eq!(
                ids(&mut kept.fresh_rows(resident)),
                ids(&mut fresh.fresh_rows(resident)),
                "step {step} at t={now}: fresh order"
            );
        }
    }

    let view = resident_view(rt, now, estimator);
    let per_work = rt.duration_per_work_estimate(MEAN_SLOWDOWN);
    for row in resident.iter() {
        let task = &rt.tasks[row.id.index()];
        let want = if estimator.oracle {
            task.spec.work * MEAN_SLOWDOWN
        } else {
            (task.spec.work * per_work * task.tnew_bias).max(1e-6)
        };
        assert_eq!(
            view.tnew(row).to_bits(),
            want.to_bits(),
            "step {step} at t={now}: tnew of {row:?}"
        );

        let derived = [
            view.elapsed(row),
            view.progress(row),
            view.progress_rate(row),
            view.trem(row),
            view.true_remaining(row),
        ];
        let stored = stored_copy_fields(task, now, estimator);
        let live = task.copies.iter().all(|c| c.start + c.duration >= now);
        // Past the ends of several copies only elapsed, trem and true_remaining
        // are pinned (see the module docs).
        let pinned: &[usize] = if live { &[0, 1, 2, 3, 4] } else { &[0, 3, 4] };
        for &i in pinned {
            assert_eq!(
                derived[i].to_bits(),
                stored[i].to_bits(),
                "step {step} at t={now}: field {i} of {row:?}: derived {derived:?}, stored {stored:?}"
            );
        }
    }
}

/// `(task, copy id)` of every running copy, in task then launch order.
fn running_copies(rt: &JobRuntime) -> Vec<(TaskId, CopyId)> {
    rt.tasks
        .iter()
        .enumerate()
        .flat_map(|(i, t)| t.copies.iter().map(move |c| (TaskId(i as u32), c.id)))
        .collect()
}

proptest! {
    #[test]
    fn resident_task_views_equal_a_fresh_build_after_every_step(
        stage_sizes in prop::collection::vec(1usize..9, 1..4),
        (error_bound, epsilon) in (any::<bool>(), 0.0f64..0.6),
        noisy in any::<bool>(),
        seed in any::<u64>(),
        ops in prop::collection::vec((0u8..8, any::<u32>(), 0.0f64..1.0), 1..160),
    ) {
        // Work 0.0 appears too: it skips the per-work estimate's update.
        let stage_work: Vec<Vec<f64>> = stage_sizes
            .iter()
            .enumerate()
            .map(|(s, &n)| (0..n).map(|i| ((s * 7 + i * 3) % 11) as f64 * 0.5).collect())
            .collect();
        let bound = if error_bound { Bound::Error(epsilon) } else { Bound::Deadline(50.0) };
        let spec = JobSpec::multi_stage(1, 0.0, bound, stage_work);
        let mut policies = kept_policies(&spec);
        let estimator = if noisy {
            EstimatorConfig::with_accuracy(0.6)
        } else {
            EstimatorConfig::oracle()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rt = JobRuntime::new(spec, Box::new(Idle), &estimator, 0.0, &mut rng);
        let mut now = 0.0;
        rt.init_task_views(MEAN_SLOWDOWN);
        assert_resident_rows_match_a_full_build(&rt, now, &estimator, 0);
        let mut decisions = assert_kept_policies_match_the_built_rows(&mut policies, &rt, now, &estimator, 0);

        let slot = SlotId { machine: 0, slot: 0 };
        let mut next_copy: CopyId = 0;
        // Every copy ever launched, so finishes can name killed or won copies.
        let mut launched: Vec<(TaskId, CopyId)> = Vec::new();
        for (step, &(kind, pick, amount)) in ops.iter().enumerate() {
            let running = running_copies(&rt);
            match kind {
                // First copy of an idle unfinished task.
                0 => {
                    let idle: Vec<usize> = (0..rt.tasks.len())
                        .filter(|&i| !rt.tasks[i].finished && rt.tasks[i].copies.is_empty())
                        .collect();
                    if !idle.is_empty() {
                        let task = TaskId(idle[pick as usize % idle.len()] as u32);
                        let duration = 0.1 + 10.0 * amount;
                        rt.launch_copy(task, next_copy, slot, now, duration, &estimator, &mut rng);
                        launched.push((task, next_copy));
                        next_copy += 1;
                    }
                }
                // A speculative copy of a running task.
                1 => {
                    if !running.is_empty() {
                        let (task, _) = running[pick as usize % running.len()];
                        let duration = 0.1 + 10.0 * amount;
                        rt.launch_copy(task, next_copy, slot, now, duration, &estimator, &mut rng);
                        launched.push((task, next_copy));
                        next_copy += 1;
                    }
                }
                // A running copy finishes at its end time (or now, if that has
                // passed), winning its race and killing its siblings.
                2 => {
                    if !running.is_empty() {
                        let (task, copy) = running[pick as usize % running.len()];
                        let c = rt.tasks[task.index()].copies.iter().find(|c| c.id == copy).unwrap();
                        now = f64::max(now, c.start + c.duration);
                        let effect = rt.complete_copy(task, copy, now);
                        assert!(effect.task_completed && !effect.stale);
                    }
                }
                // A finish event for a copy that already won or was killed.
                3 => {
                    let gone: Vec<(TaskId, CopyId)> = launched
                        .iter()
                        .copied()
                        .filter(|l| !running.contains(l))
                        .collect();
                    if !gone.is_empty() {
                        let (task, copy) = gone[pick as usize % gone.len()];
                        assert!(rt.complete_copy(task, copy, now).stale);
                    }
                }
                // Time moves, possibly past running copies' end times, so that
                // several copies of one task clamp to zero remaining time.
                4 | 5 => now += 8.0 * amount,
                // A copy of the task a kept policy last named, at the same `now`.
                _ => {
                    if let Some(Some(action)) = decisions.get(pick as usize % decisions.len().max(1)) {
                        let duration = 0.1 + 10.0 * amount;
                        rt.launch_copy(action.task, next_copy, slot, now, duration, &estimator, &mut rng);
                        launched.push((action.task, next_copy));
                        next_copy += 1;
                    }
                }
            }
            assert_resident_rows_match_a_full_build(&rt, now, &estimator, step + 1);
            decisions = assert_kept_policies_match_the_built_rows(&mut policies, &rt, now, &estimator, step + 1);
        }
    }
}

/// LATE never reads a deadline index, so a deadline-bound job it schedules
/// never builds one, through launches, races and completions; the first GS
/// decision on the same rows builds one equal to a fresh build.
#[test]
fn a_late_deadline_job_keeps_no_index() {
    let spec = JobSpec::single_stage(1, 0.0, Bound::Deadline(50.0), vec![1.0, 2.0, 3.0, 4.0]);
    let estimator = EstimatorConfig::with_accuracy(0.6);
    let mut rng = StdRng::seed_from_u64(3);
    let mut late = LateFactory.create(&spec);
    let mut rt = JobRuntime::new(spec, Box::new(Idle), &estimator, 0.0, &mut rng);
    rt.init_task_views(MEAN_SLOWDOWN);
    let slot = SlotId {
        machine: 0,
        slot: 0,
    };
    let mut now = 0.0;
    for copy in 0..6 {
        let action = late.choose(&resident_view(&rt, now, &estimator));
        assert!(rt.deadline_index().get().is_none(), "LATE built an index");
        let Some(action) = action else { break };
        rt.launch_copy(action.task, copy, slot, now, 2.0, &estimator, &mut rng);
        if copy % 2 == 1 {
            now += 2.0;
            rt.complete_copy(action.task, copy, now);
        }
        assert!(
            rt.deadline_index().get().is_none(),
            "launches built an index"
        );
    }
    assert!(!rt.task_views().is_empty());

    let view = resident_view(&rt, now, &estimator);
    GsPolicy::default().choose(&view);
    let kept = rt.deadline_index().get().expect("GS builds the index");
    let fresh = DeadlineIndex::build(rt.task_views(), view.tnew_estimate);
    let ids = |rows: &mut dyn Iterator<Item = &TaskView>| rows.map(|t| t.id).collect::<Vec<_>>();
    assert_eq!(
        ids(&mut kept.fresh_rows(rt.task_views())),
        ids(&mut fresh.fresh_rows(rt.task_views()))
    );
    assert_eq!(
        ids(&mut kept.running_rows(rt.task_views())),
        ids(&mut fresh.running_rows(rt.task_views()))
    );
}
