//! LATE — "Longest Approximate Time to End" (Zaharia et al., OSDI 2008), the
//! speculation policy deployed in the Facebook cluster and the paper's primary
//! baseline.
//!
//! LATE's decision rules, as reimplemented here:
//!
//! * unscheduled tasks are launched first, in plain FIFO order — LATE has no notion of
//!   approximation bounds, which is exactly the deficiency GRASS targets;
//! * speculation is considered only when the job has no unscheduled work left;
//! * only tasks whose progress rate falls below the 25th percentile of currently
//!   running tasks are candidates (`SLOW_TASK_THRESHOLD`);
//! * among candidates, the task with the *longest estimated time to end* is speculated;
//! * at most one speculative copy per task, and the number of concurrently running
//!   speculative copies is capped at 10% of the job's wave width (`SPECULATIVE_CAP`).

use grass_core::{
    Action, BoxedPolicy, JobSpec, JobView, PolicyFactory, SpeculationPolicy, TaskView,
};

/// Fraction of a job's wave width that may be used for concurrently running
/// speculative copies (Hadoop's `SpeculativeCap` is 10% of the cluster; per job we
/// apply it to the job's slot share).
const SPECULATIVE_CAP: f64 = 0.10;

/// Percentile (0–1) of progress rates below which a task counts as slow (Hadoop's
/// `SlowTaskThreshold`, the 25th percentile).
const SLOW_TASK_THRESHOLD: f64 = 0.25;

/// Minimum progress a copy must have made before it can be judged (avoids
/// speculating tasks that only just started).
const MIN_PROGRESS: f64 = 0.05;

/// Per-job LATE policy instance. Its tunables are this module's constants, the
/// defaults of the original paper / Hadoop implementation.
#[derive(Debug, Clone, Default)]
pub struct LatePolicy;

impl LatePolicy {
    fn speculative_budget(view: &JobView) -> usize {
        ((view.wave_width as f64 * SPECULATIVE_CAP).floor() as usize).max(1)
    }

    fn running_speculative_copies(view: &JobView) -> usize {
        view.tasks
            .iter()
            .map(|t| t.running_copies.saturating_sub(1) as usize)
            .sum()
    }

    fn slow_rate_cutoff(view: &JobView) -> Option<f64> {
        let mut rates: Vec<f64> = view
            .tasks
            .iter()
            .filter(|t| t.is_running() && view.progress(t) >= MIN_PROGRESS)
            .map(|t| view.progress_rate(t))
            .collect();
        if rates.is_empty() {
            return None;
        }
        rates.sort_by(f64::total_cmp);
        let idx = ((rates.len() as f64) * SLOW_TASK_THRESHOLD).floor() as usize;
        rates.get(idx.min(rates.len() - 1)).copied()
    }

    /// The slow running task with the longest estimated time to end, the higher task
    /// id among equal times, whatever the order of the rows.
    fn speculation_candidate<'v>(view: &'v JobView) -> Option<&'v TaskView> {
        let cutoff = Self::slow_rate_cutoff(view)?;
        view.tasks
            .iter()
            .filter(|t| {
                t.eligible
                    && t.running_copies == 1
                    && view.progress(t) >= MIN_PROGRESS
                    && view.progress_rate(t) <= cutoff
            })
            .map(|t| (view.trem(t), t))
            .max_by(|(a, s), (b, t)| a.total_cmp(b).then(s.id.cmp(&t.id)))
            .map(|(_, t)| t)
    }
}

impl SpeculationPolicy for LatePolicy {
    fn name(&self) -> &str {
        "LATE"
    }

    fn choose(&mut self, view: &JobView) -> Option<Action> {
        // 1. Pending (unscheduled) work always comes first, in FIFO order.
        if let Some(t) = view
            .eligible_tasks()
            .filter(|t| !t.is_running())
            .min_by_key(|t| t.id)
        {
            return Some(Action::launch(t.id));
        }
        // 2. No pending work: consider speculation, subject to the cap.
        if Self::running_speculative_copies(view) >= Self::speculative_budget(view) {
            return None;
        }
        Self::speculation_candidate(view).map(|t| Action::speculate(t.id))
    }
}

/// Factory for [`LatePolicy`].
#[derive(Debug, Clone, Default)]
pub struct LateFactory;

impl PolicyFactory for LateFactory {
    fn name(&self) -> &str {
        "LATE"
    }

    fn create(&self, _job: &JobSpec) -> BoxedPolicy {
        Box::new(LatePolicy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{deadline_view, error_view, running_task, unscheduled_task};
    use grass_core::{ActionKind, TaskId, TaskRows};

    #[test]
    fn pending_tasks_take_priority_over_speculation() {
        let tasks = TaskRows::from(vec![
            running_task(0, 50.0, 2.0, 1), // an obvious straggler
            unscheduled_task(3, 2.0),
            unscheduled_task(2, 9.0),
        ]);
        let view = deadline_view(&tasks, 0.0, 100.0);
        let a = LatePolicy.choose(&view).unwrap();
        // FIFO: lowest task id among unscheduled, regardless of duration or bound.
        assert_eq!(a, Action::launch(TaskId(2)));
    }

    #[test]
    fn speculates_slowest_task_when_no_pending_work() {
        // Three running tasks; task 2 has by far the slowest progress rate and the
        // longest time to end.
        let tasks = TaskRows::from(vec![
            running_task(0, 3.0, 3.0, 1),
            running_task(1, 4.0, 3.0, 1),
            running_task(2, 60.0, 3.0, 1),
        ]);
        let view = deadline_view(&tasks, 0.0, 100.0);
        let a = LatePolicy.choose(&view).unwrap();
        assert_eq!(a.task, TaskId(2));
        assert_eq!(a.kind, ActionKind::Speculate);
    }

    #[test]
    fn equal_times_to_end_go_to_the_higher_task_id_in_either_row_order() {
        // Tasks 3 and 5 are equally slow with equal times to end; task 1 is fast.
        let rows = [
            running_task(3, 60.0, 3.0, 1),
            running_task(1, 4.0, 3.0, 1),
            running_task(5, 60.0, 3.0, 1),
        ];
        for order in [[0, 1, 2], [2, 1, 0], [1, 2, 0]] {
            let tasks = TaskRows::from(order.map(|i| rows[i].clone()).to_vec());
            let view = deadline_view(&tasks, 0.0, 100.0);
            let a = LatePolicy.choose(&view);
            assert_eq!(a, Some(Action::speculate(TaskId(5))), "order {order:?}");
        }
    }

    #[test]
    fn respects_one_speculative_copy_per_task() {
        let tasks = TaskRows::from(vec![
            running_task(0, 60.0, 3.0, 2),
            running_task(1, 4.0, 3.0, 1),
        ]);
        let view = deadline_view(&tasks, 0.0, 100.0);
        // Task 0 already has 2 copies; with the cap of max(1, 10% of 4) = 1 speculative
        // copy already running, LATE declines.
        assert!(LatePolicy.choose(&view).is_none());
    }

    #[test]
    fn speculative_cap_limits_concurrent_duplicates() {
        let tasks = TaskRows::from(vec![
            running_task(0, 60.0, 3.0, 2),
            running_task(1, 50.0, 3.0, 2),
            running_task(2, 80.0, 3.0, 1),
        ]);
        let view = |wave_width| JobView {
            wave_width,
            ..deadline_view(&tasks, 0.0, 100.0)
        };
        // Wave width 20: budget = 2, and two speculative copies already run.
        assert!(LatePolicy.choose(&view(20)).is_none());
        // Wave width 30: budget = 3, so it speculates task 2, the slowest task with a
        // single copy.
        let a = LatePolicy.choose(&view(30)).unwrap();
        assert_eq!(a.task, TaskId(2));
    }

    #[test]
    fn ignores_tasks_without_enough_progress() {
        // Launched at the view's `now`: no progress yet.
        let barely_started = TaskView {
            copy_start: 0.0,
            copy_duration: 100.0,
            oldest_start: 0.0,
            ..running_task(0, 100.0, 3.0, 1)
        };
        let tasks = TaskRows::from(vec![barely_started]);
        let view = error_view(&tasks, 0.1, 10, 9);
        assert!(LatePolicy.choose(&view).is_none());
    }

    #[test]
    fn factory_name_and_creation() {
        let job =
            grass_core::JobSpec::single_stage(1, 0.0, grass_core::Bound::Deadline(10.0), vec![1.0]);
        assert_eq!(LateFactory.name(), "LATE");
        assert_eq!(LateFactory.create(&job).name(), "LATE");
    }
}
