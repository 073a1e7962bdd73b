//! Mantri — "Reining in the Outliers in Map-Reduce Clusters" (Ananthanarayanan et al.,
//! OSDI 2010), the speculation policy deployed in the Bing cluster and the paper's
//! second baseline.
//!
//! Mantri is *resource aware*: it schedules a duplicate of a running task only when
//! doing so is expected to reduce total resource consumption — the rule this
//! reimplementation uses is `trem > 2 × tnew` (a duplicate plus the original consume
//! less slot-time than letting the original run alone). Unlike LATE, Mantri acts on
//! stragglers promptly, even while unscheduled tasks remain, but it still launches
//! unscheduled work FIFO with no awareness of the job's approximation bound.

use grass_core::{
    Action, BoxedPolicy, JobSpec, JobView, PolicyFactory, SpeculationPolicy, TaskView,
};

/// Duplicate a task when its estimated remaining time exceeds this multiple of a
/// fresh copy's estimated duration (the "2×" rule).
const RESTART_THRESHOLD: f64 = 2.0;

/// Maximum concurrently running copies per task (original + duplicates).
const MAX_COPIES: u32 = 2;

/// Minimum progress a copy must have made before Mantri judges it (its estimate of
/// `trem` is meaningless before any progress reports).
const MIN_PROGRESS: f64 = 0.05;

/// Per-job Mantri policy instance. Its tunables are this module's constants.
#[derive(Debug, Clone, Default)]
pub struct MantriPolicy;

impl MantriPolicy {
    /// The running task whose duplicate saves the most, by the largest `trem`, the
    /// higher task id among equal ones, whatever the order of the rows.
    fn duplicate_candidate<'v>(view: &'v JobView) -> Option<&'v TaskView> {
        view.tasks
            .iter()
            .filter(|t| {
                t.eligible
                    && t.is_running()
                    && t.running_copies < MAX_COPIES
                    && view.progress(t) >= MIN_PROGRESS
            })
            .map(|t| (view.trem(t), t))
            .filter(|&(trem, t)| trem > RESTART_THRESHOLD * view.tnew(t))
            .max_by(|(a, s), (b, t)| a.total_cmp(b).then(s.id.cmp(&t.id)))
            .map(|(_, t)| t)
    }
}

impl SpeculationPolicy for MantriPolicy {
    fn name(&self) -> &str {
        "Mantri"
    }

    fn choose(&mut self, view: &JobView) -> Option<Action> {
        // Resource-saving duplicates are taken eagerly — that is Mantri's defining
        // behaviour relative to LATE.
        if let Some(t) = Self::duplicate_candidate(view) {
            return Some(Action::speculate(t.id));
        }
        // Otherwise launch pending work FIFO (no approximation awareness).
        view.eligible_tasks()
            .filter(|t| !t.is_running())
            .min_by_key(|t| t.id)
            .map(|t| Action::launch(t.id))
    }
}

/// Factory for [`MantriPolicy`].
#[derive(Debug, Clone, Default)]
pub struct MantriFactory;

impl PolicyFactory for MantriFactory {
    fn name(&self) -> &str {
        "Mantri"
    }

    fn create(&self, _job: &JobSpec) -> BoxedPolicy {
        Box::new(MantriPolicy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{deadline_view, error_view, running_task, unscheduled_task};
    use grass_core::{ActionKind, TaskId, TaskRows};

    #[test]
    fn duplicates_resource_wasting_stragglers_even_with_pending_work() {
        let tasks = TaskRows::from(vec![
            running_task(0, 10.0, 3.0, 1), // trem > 2*tnew => duplicate
            unscheduled_task(1, 3.0),
        ]);
        let view = deadline_view(&tasks, 0.0, 100.0);
        let a = MantriPolicy.choose(&view).unwrap();
        assert_eq!(a.task, TaskId(0));
        assert_eq!(a.kind, ActionKind::Speculate);
    }

    #[test]
    fn does_not_duplicate_when_saving_is_insufficient() {
        let tasks = TaskRows::from(vec![
            running_task(0, 5.0, 3.0, 1), // trem < 2*tnew => keep waiting
            unscheduled_task(1, 3.0),
        ]);
        let view = deadline_view(&tasks, 0.0, 100.0);
        let a = MantriPolicy.choose(&view).unwrap();
        assert_eq!(a, Action::launch(TaskId(1)));
    }

    #[test]
    fn respects_copy_cap() {
        let tasks = TaskRows::from(vec![running_task(0, 50.0, 3.0, 2)]);
        let view = error_view(&tasks, 0.0, 10, 9);
        assert!(MantriPolicy.choose(&view).is_none());
    }

    #[test]
    fn picks_worst_straggler_among_candidates() {
        let tasks = TaskRows::from(vec![
            running_task(0, 20.0, 3.0, 1),
            running_task(1, 40.0, 3.0, 1),
            running_task(2, 30.0, 3.0, 1),
        ]);
        let view = deadline_view(&tasks, 0.0, 100.0);
        assert_eq!(MantriPolicy.choose(&view).unwrap().task, TaskId(1));
    }

    #[test]
    fn equal_stragglers_go_to_the_higher_task_id_in_either_row_order() {
        let rows = [
            running_task(2, 40.0, 3.0, 1),
            running_task(4, 20.0, 3.0, 1),
            running_task(6, 40.0, 3.0, 1),
        ];
        for order in [[0, 1, 2], [2, 1, 0], [1, 2, 0]] {
            let tasks = TaskRows::from(order.map(|i| rows[i].clone()).to_vec());
            let view = deadline_view(&tasks, 0.0, 100.0);
            let a = MantriPolicy.choose(&view);
            assert_eq!(a, Some(Action::speculate(TaskId(6))), "order {order:?}");
        }
    }

    #[test]
    fn ignores_copies_without_progress() {
        // Half a second into a 50.5 s copy: under 1% progress.
        let fresh = TaskView {
            copy_start: -0.5,
            copy_duration: 50.5,
            oldest_start: -0.5,
            ..running_task(0, 50.0, 3.0, 1)
        };
        let tasks = TaskRows::from(vec![fresh]);
        let view = deadline_view(&tasks, 0.0, 100.0);
        assert!(MantriPolicy.choose(&view).is_none());
    }

    #[test]
    fn factory_name_and_creation() {
        let job =
            grass_core::JobSpec::single_stage(1, 0.0, grass_core::Bound::Deadline(10.0), vec![1.0]);
        assert_eq!(MantriFactory.name(), "Mantri");
        assert_eq!(MantriFactory.create(&job).name(), "Mantri");
    }
}
