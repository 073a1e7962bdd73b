//! Naive baselines: FIFO without speculation, and the classic SJF / LJF prioritisers
//! without speculation.
//!
//! These are not evaluated in the paper's figures directly, but they anchor the
//! ablation space: LATE/Mantri add speculation on top of FIFO, GS adds
//! approximation-aware prioritisation on top of SJF/LJF, and RAS adds opportunity-cost
//! awareness on top of GS.

use grass_core::{
    Action, BoxedPolicy, JobSpec, JobView, PolicyFactory, SpeculationPolicy, TaskView,
};

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

/// Shortest Job First over unscheduled tasks, no speculation. The classical optimal
/// prioritisation for maximising completions by a deadline when durations are known
/// (§3.1.1).
#[derive(Debug, Default, Clone)]
pub struct SjfPolicy;

impl SpeculationPolicy for SjfPolicy {
    fn name(&self) -> &str {
        "SJF"
    }

    fn choose(&mut self, view: &JobView) -> Option<Action> {
        pick_unscheduled(view, |a, b| view.tnew(a).total_cmp(&view.tnew(b)))
    }
}

/// Longest Job First over unscheduled tasks, no speculation. The classical
/// makespan-minimising prioritisation for error-bound jobs (§3.1.2).
#[derive(Debug, Default, Clone)]
pub struct LjfPolicy;

impl SpeculationPolicy for LjfPolicy {
    fn name(&self) -> &str {
        "LJF"
    }

    fn choose(&mut self, view: &JobView) -> Option<Action> {
        pick_unscheduled(view, |a, b| view.tnew(b).total_cmp(&view.tnew(a)))
    }
}

fn pick_unscheduled(
    view: &JobView,
    cmp: impl Fn(&TaskView, &TaskView) -> std::cmp::Ordering,
) -> Option<Action> {
    view.eligible_tasks()
        .filter(|t| !t.is_running())
        .min_by(|a, b| cmp(a, b))
        .map(|t| Action::launch(t.id))
}

/// Factory for [`SjfPolicy`].
#[derive(Debug, Default, Clone)]
pub struct SjfFactory;

impl PolicyFactory for SjfFactory {
    fn name(&self) -> &str {
        "SJF"
    }

    fn create(&self, _job: &JobSpec) -> BoxedPolicy {
        Box::new(SjfPolicy)
    }
}

/// Factory for [`LjfPolicy`].
#[derive(Debug, Default, Clone)]
pub struct LjfFactory;

impl PolicyFactory for LjfFactory {
    fn name(&self) -> &str {
        "LJF"
    }

    fn create(&self, _job: &JobSpec) -> BoxedPolicy {
        Box::new(LjfPolicy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{deadline_view, running_task, unscheduled_task};
    use grass_core::TaskId;

    #[test]
    fn nospec_launches_in_fifo_order_and_never_speculates() {
        let tasks = vec![
            running_task(0, 10.0, 1.0, 1),
            unscheduled_task(2, 5.0),
            unscheduled_task(1, 9.0),
        ];
        let view = deadline_view(&tasks, 0.0, 100.0);
        let mut p = NoSpecPolicy;
        assert_eq!(p.choose(&view).unwrap(), Action::launch(TaskId(1)));
        // Only a straggling running task left: NoSpec has nothing to do.
        let tasks = vec![running_task(0, 10.0, 1.0, 1)];
        let view = deadline_view(&tasks, 0.0, 100.0);
        assert!(p.choose(&view).is_none());
    }

    #[test]
    fn sjf_and_ljf_order_by_estimated_duration() {
        let tasks = vec![
            unscheduled_task(0, 7.0),
            unscheduled_task(1, 2.0),
            unscheduled_task(2, 5.0),
        ];
        let view = deadline_view(&tasks, 0.0, 100.0);
        assert_eq!(SjfPolicy.choose(&view).unwrap().task, TaskId(1));
        assert_eq!(LjfPolicy.choose(&view).unwrap().task, TaskId(0));
    }

    #[test]
    fn factories_produce_named_policies() {
        let job =
            grass_core::JobSpec::single_stage(1, 0.0, grass_core::Bound::Deadline(10.0), vec![1.0]);
        assert_eq!(NoSpecFactory.create(&job).name(), "NoSpec");
        assert_eq!(SjfFactory.create(&job).name(), "SJF");
        assert_eq!(LjfFactory.create(&job).name(), "LJF");
        assert_eq!(NoSpecFactory.name(), "NoSpec");
        assert_eq!(SjfFactory.name(), "SJF");
        assert_eq!(LjfFactory.name(), "LJF");
    }
}
