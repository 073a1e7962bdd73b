//! Oracle scheduler: the paper's "optimal" comparison point (§2.3 and Figure 8).
//!
//! The paper compares GRASS against "an optimal scheduler that knows task durations
//! and slot availabilities in advance" (an offline bin-packing formulation). A true
//! offline optimum is NP-hard; the oracle here captures what makes it an upper bound
//! in practice:
//!
//! * it sees **ground-truth** remaining times and fresh-copy durations (no estimation
//!   error at all), and
//! * it applies the theoretically right regime per Guideline 3 — opportunity-cost
//!   aware (RAS-style) decisions while more than two waves of work remain, greedy
//!   (GS-style) decisions in the final two waves — with perfect knowledge of where
//!   that boundary lies.
//!
//! Used together with [`grass_core::EstimatorConfig::oracle`] in the simulator, this
//! yields the near-optimal reference the figures normalise against.

use grass_core::speculation::{choose, SpeculationMode};
use grass_core::{
    Action, BoxedPolicy, JobSpec, JobView, PolicyFactory, SpeculationPolicy, TnewEstimate,
};

/// Per-job oracle policy.
#[derive(Debug, Default, Clone)]
pub struct OraclePolicy;

impl SpeculationPolicy for OraclePolicy {
    fn name(&self) -> &str {
        "Oracle"
    }

    fn choose(&mut self, view: &JobView) -> Option<Action> {
        // Substitute ground truth for every estimate by marking the view's
        // estimates oracle, under which `JobView::trem` reads the true remaining
        // time and `JobView::tnew` the hint, then run the GS/RAS machinery with
        // the oracle-exact switch point. The rows are the view's own, so its
        // deadline index still describes them when it is keyed by the hints,
        // i.e. when the view is already oracle; a per-work index is of the other
        // kind, and the decision builds one from the rows instead.
        let truth_view = JobView {
            tnew_estimate: TnewEstimate::Oracle,
            estimation_accuracy: 1.0,
            ..view.clone()
        };
        let unscheduled = truth_view.unscheduled_eligible();
        let mode = if unscheduled > 2 * truth_view.wave_width.max(1) {
            SpeculationMode::Ras
        } else {
            SpeculationMode::Gs
        };
        choose(&truth_view, mode)
    }
}

/// Factory for [`OraclePolicy`].
#[derive(Debug, Default, Clone)]
pub struct OracleFactory;

impl PolicyFactory for OracleFactory {
    fn name(&self) -> &str {
        "Oracle"
    }

    fn create(&self, _job: &JobSpec) -> BoxedPolicy {
        Box::new(OraclePolicy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{deadline_view, error_view, running_task, unscheduled_task};
    use grass_core::{ActionKind, TaskId, TaskRows, TaskView};

    #[test]
    fn oracle_uses_ground_truth_not_estimates() {
        // The truth is 50s left, but the copy's bias makes the estimate 1s (no point
        // speculating); with no unscheduled task and wave width 4 the oracle is in its
        // greedy regime and speculates.
        let straggler = TaskView {
            rem_bias: 0.02,
            ..running_task(0, 50.0, 3.0, 1)
        };
        let tasks = TaskRows::from(vec![straggler]);
        let view = error_view(&tasks, 0.0, 10, 9);
        assert!(view.trem(&tasks[0]) < 1.01);
        assert_eq!(choose(&view, SpeculationMode::Gs), None);
        let a = OraclePolicy.choose(&view).unwrap();
        assert_eq!(a.task, TaskId(0));
        assert_eq!(a.kind, ActionKind::Speculate);
    }

    #[test]
    fn truth_rows_read_the_ground_truth_remaining_time() {
        for bias in [0.5, 1.0, 1.7] {
            let tasks = TaskRows::from(vec![TaskView {
                rem_bias: bias,
                ..running_task(0, 6.5, 3.0, 2)
            }]);
            let view = error_view(&tasks, 0.0, 10, 9);
            let truth = JobView {
                tnew_estimate: TnewEstimate::Oracle,
                ..view.clone()
            };
            assert_eq!(truth.trem(&tasks[0]).to_bits(), 6.5f64.to_bits());
            assert_eq!(
                truth.trem(&tasks[0]).to_bits(),
                view.true_remaining(&tasks[0]).to_bits()
            );
        }
    }

    #[test]
    fn oracle_is_conservative_with_many_waves_remaining() {
        // 20 unscheduled tasks on wave width 4 (> 2 waves): RAS regime, so a marginal
        // speculation (positive time saving but negative resource saving) is declined
        // in favour of launching fresh work.
        let mut tasks = vec![running_task(0, 4.0, 3.0, 1)];
        for i in 1..21 {
            tasks.push(unscheduled_task(i, 3.0));
        }
        let tasks = TaskRows::from(tasks);
        let view = deadline_view(&tasks, 0.0, 1000.0);
        let a = OraclePolicy.choose(&view).unwrap();
        assert_eq!(a.kind, ActionKind::Launch);
    }

    #[test]
    fn oracle_speculates_aggressively_in_the_last_wave() {
        // Same marginal speculation, but no unscheduled work left: GS regime, so the
        // oracle races a copy (tnew < trem by ground truth).
        let tasks = TaskRows::from(vec![running_task(0, 4.0, 3.0, 1)]);
        let view = deadline_view(&tasks, 0.0, 1000.0);
        let a = OraclePolicy.choose(&view).unwrap();
        assert_eq!(a.kind, ActionKind::Speculate);
    }

    #[test]
    fn factory_name_and_creation() {
        let job =
            grass_core::JobSpec::single_stage(1, 0.0, grass_core::Bound::Deadline(10.0), vec![1.0]);
        assert_eq!(OracleFactory.name(), "Oracle");
        assert_eq!(OracleFactory.create(&job).name(), "Oracle");
    }
}
