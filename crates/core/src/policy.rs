//! The policy interface: what the cluster scheduler asks a per-job speculation policy.

use crate::job::{JobSpec, JobView};
use crate::outcome::JobOutcome;
use crate::task::TaskId;

/// What kind of copy an action launches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionKind {
    /// First copy of a task that is not currently running.
    Launch,
    /// Additional (speculative) copy of a task that already has at least one running
    /// copy.
    Speculate,
}

/// A scheduling decision returned by a policy: run one more copy of `task` on the free
/// slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Action {
    /// Which task to run a copy of.
    pub task: TaskId,
    /// Whether this is the task's first copy or a speculative duplicate.
    pub kind: ActionKind,
}

impl Action {
    /// Launch the first copy of an unscheduled task.
    pub fn launch(task: TaskId) -> Self {
        Action {
            task,
            kind: ActionKind::Launch,
        }
    }

    /// Launch a speculative copy of a running task.
    pub fn speculate(task: TaskId) -> Self {
        Action {
            task,
            kind: ActionKind::Speculate,
        }
    }

    /// Whether this action is a speculative duplicate.
    pub fn is_speculative(&self) -> bool {
        self.kind == ActionKind::Speculate
    }
}

/// Per-job speculation policy: given a view of the job's unfinished tasks, decide what
/// to run next on a freed slot.
///
/// This is the interface GS, RAS, GRASS, LATE, Mantri and the oracle all implement.
/// One policy instance is created per job (via a [`PolicyFactory`]), so policies are
/// free to keep per-job state (GRASS keeps its current mode and switch bookkeeping).
pub trait SpeculationPolicy: Send {
    /// Short, stable policy name used in reports ("GRASS", "GS", "RAS", "LATE", …).
    fn name(&self) -> &str;

    /// Called once when the job becomes active (its arrival is processed).
    ///
    /// `view.tasks` is the job's resident task table, built at arrival: the
    /// same rows `choose()` reads at this instant.
    fn on_job_start(&mut self, _view: &JobView) {}

    /// Called whenever a slot allocated to this job is free. Return `Some(action)` to
    /// run one more copy, or `None` if the job has nothing useful to run right now
    /// (the slot is then offered to other jobs).
    ///
    /// `view.tasks` comes in a deterministic order that is not sorted (a completion
    /// swap-removes its row), and carries the map from task id to row. A decision
    /// must depend on the rows, not on their order: every policy here breaks ties by
    /// task id, and finds a row by id through [`TaskRows::get`](crate::TaskRows::get).
    ///
    /// The simulator relies on a two-part contract to avoid re-asking jobs whose
    /// answer cannot have changed:
    ///
    /// 1. Within one dispatch pass (one `now`, one fair share) a job that declined is
    ///    not asked again, even after other jobs launched copies and utilisation rose.
    ///    A decision must therefore not flip on utilisation alone within one instant.
    /// 2. A `None` returned after [`JobView::hold_decline`] stands until the job's own
    ///    state changes: the job is not asked again until one of its copies finishes.
    ///    Policies that cannot promise this simply never call it.
    ///
    /// An instance is asked only about the job it was created for, so it may keep
    /// state that speeds up its next decision on that job: GS, RAS and GRASS remember
    /// where the job's error-bound needed set ended last time. They answer a repeat
    /// decision within one instant from the runner-up candidates their last pass
    /// kept, when the rows' change stamp (see [`TaskRows`](crate::TaskRows)) shows
    /// that the only change since was one more copy of the task they named. After an
    /// error-bound decline they keep a certificate that later declines check against
    /// the same stamp, so a decline that only completions followed costs no row read.
    /// Such a memo must stay a hint the decision re-checks: it may make a decision
    /// cheaper, never different.
    fn choose(&mut self, view: &JobView) -> Option<Action>;

    /// Called when one of the job's tasks completes (its first copy finishes).
    ///
    /// `view.tasks` is the job's resident task table, already refreshed for the
    /// completion (the finished task's row is gone): the same rows `choose()`
    /// reads at this instant. `view.tnew_estimate` already folds in the finished
    /// copy's duration, so [`JobView::tnew`] reads the moved estimate.
    fn on_task_complete(&mut self, _view: &JobView, _task: TaskId) {}

    /// Called when the job finishes (deadline reached or error bound satisfied).
    /// GRASS uses this to feed its shared sample store.
    fn on_job_complete(&mut self, _outcome: &JobOutcome) {}
}

/// Boxed policy, the form in which the simulator stores per-job policies.
pub type BoxedPolicy = Box<dyn SpeculationPolicy>;

/// Factory that creates one [`SpeculationPolicy`] instance per job.
///
/// Factories are shared across the whole simulation run, so cross-job state (GRASS's
/// sample store and its ξ-perturbation draws) lives here. Per-job limits such as
/// LATE's speculation budget (`wave_width × cap`) live in the policy instances.
pub trait PolicyFactory: Send + Sync {
    /// Name of the policy family this factory creates.
    fn name(&self) -> &str;

    /// Create the policy instance for `job`.
    fn create(&self, job: &JobSpec) -> BoxedPolicy;
}

/// Blanket helper: a closure `(job) -> BoxedPolicy` plus a name is a factory.
pub struct FnFactory<F> {
    name: String,
    f: F,
}

impl<F> FnFactory<F>
where
    F: Fn(&JobSpec) -> BoxedPolicy + Send + Sync,
{
    /// Wrap a closure as a [`PolicyFactory`].
    pub fn new(name: impl Into<String>, f: F) -> Self {
        FnFactory {
            name: name.into(),
            f,
        }
    }
}

impl<F> PolicyFactory for FnFactory<F>
where
    F: Fn(&JobSpec) -> BoxedPolicy + Send + Sync,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn create(&self, job: &JobSpec) -> BoxedPolicy {
        (self.f)(job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Bound;

    struct Noop;
    impl SpeculationPolicy for Noop {
        fn name(&self) -> &str {
            "noop"
        }
        fn choose(&mut self, _view: &JobView) -> Option<Action> {
            None
        }
    }

    #[test]
    fn action_constructors() {
        let a = Action::launch(TaskId(1));
        assert_eq!(a.kind, ActionKind::Launch);
        assert!(!a.is_speculative());
        let s = Action::speculate(TaskId(2));
        assert!(s.is_speculative());
    }

    #[test]
    fn fn_factory_creates_policies() {
        let factory = FnFactory::new("noop", |_job: &JobSpec| Box::new(Noop) as BoxedPolicy);
        assert_eq!(factory.name(), "noop");
        let job = JobSpec::single_stage(1, 0.0, Bound::Deadline(5.0), vec![1.0]);
        let p = factory.create(&job);
        assert_eq!(p.name(), "noop");
    }
}
