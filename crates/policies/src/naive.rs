//! The naive baseline: FIFO without speculation.
//!
//! It anchors the ablation space: LATE/Mantri add speculation on top of FIFO, GS
//! adds approximation-aware prioritisation, and RAS adds opportunity-cost awareness
//! on top of GS.

use grass_core::{Action, BoxedPolicy, JobSpec, JobView, PolicyFactory, SpeculationPolicy};

/// Launch unscheduled tasks in task-id (FIFO) order; never speculate.
#[derive(Debug, Default, Clone)]
pub struct NoSpecPolicy;

impl SpeculationPolicy for NoSpecPolicy {
    fn name(&self) -> &str {
        "NoSpec"
    }

    fn choose(&mut self, view: &JobView) -> Option<Action> {
        view.eligible_tasks()
            .filter(|t| !t.is_running())
            .min_by_key(|t| t.id)
            .map(|t| Action::launch(t.id))
    }
}

/// Factory for [`NoSpecPolicy`].
#[derive(Debug, Default, Clone)]
pub struct NoSpecFactory;

impl PolicyFactory for NoSpecFactory {
    fn name(&self) -> &str {
        "NoSpec"
    }

    fn create(&self, _job: &JobSpec) -> BoxedPolicy {
        Box::new(NoSpecPolicy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{deadline_view, running_task, unscheduled_task};
    use grass_core::{TaskId, TaskRows};

    #[test]
    fn nospec_launches_in_fifo_order_and_never_speculates() {
        let tasks = TaskRows::from(vec![
            running_task(0, 10.0, 1.0, 1),
            unscheduled_task(2, 5.0),
            unscheduled_task(1, 9.0),
        ]);
        let view = deadline_view(&tasks, 0.0, 100.0);
        let mut p = NoSpecPolicy;
        assert_eq!(p.choose(&view).unwrap(), Action::launch(TaskId(1)));
        // Only a straggling running task left: NoSpec has nothing to do.
        let tasks = TaskRows::from(vec![running_task(0, 10.0, 1.0, 1)]);
        let view = deadline_view(&tasks, 0.0, 100.0);
        assert!(p.choose(&view).is_none());
    }

    #[test]
    fn factories_produce_named_policies() {
        let job =
            grass_core::JobSpec::single_stage(1, 0.0, grass_core::Bound::Deadline(10.0), vec![1.0]);
        assert_eq!(NoSpecFactory.create(&job).name(), "NoSpec");
        assert_eq!(NoSpecFactory.name(), "NoSpec");
    }
}
