//! GRASS: the combined speculation algorithm (§4 of the paper).
//!
//! A GRASS job starts under RAS (conservative, opportunity-cost-aware speculation) and
//! switches to GS (greedy speculation) as it approaches its approximation bound. The
//! switching point is learned from samples of jobs that ran pure GS or pure RAS
//! throughout; those samples are generated by perturbing a small fraction ξ of jobs
//! (§4.2, empirically ξ = 15%).

mod samples;
mod switching;

pub use samples::{BoundKind, FactorSet, QueryContext, Sample, SampleStore, StoreCounts};
pub use switching::{
    learned_decision, strawman_decision, StrawmanConfig, SwitchDecision, SwitchStrategy,
};

use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::job::{JobSpec, JobView};
use crate::outcome::JobOutcome;
use crate::policy::{Action, BoxedPolicy, PolicyFactory, SpeculationPolicy};
use crate::speculation::{choose_holding, choose_memoised, NeededSetMemo, SpeculationMode};
use crate::task::Time;

/// Configuration of the GRASS algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GrassConfig {
    /// Perturbation probability ξ: the fraction of jobs that run pure GS or pure RAS
    /// throughout to generate learning samples. The paper finds ξ = 15% optimal
    /// (Figure 15).
    pub xi: f64,
    /// Switching rule.
    pub strategy: SwitchStrategy,
    /// Factors used for sample matching (Best-1 / Best-2 / all-three ablations).
    pub factors: FactorSet,
}

/// Minimum simulated time between successive switch evaluations, in seconds ("the
/// calculation for the optimal switching point is performed periodically").
const CHECK_INTERVAL: Time = 1.0;

impl GrassConfig {
    /// The paper's configuration: learned switching over all three factors, ξ = 15%.
    pub fn paper_default() -> Self {
        GrassConfig {
            xi: 0.15,
            strategy: SwitchStrategy::Learned,
            factors: FactorSet::all(),
        }
    }

    /// GRASS with the static two-wave strawman switcher (§6.3.2).
    pub fn strawman() -> Self {
        GrassConfig {
            strategy: SwitchStrategy::Strawman(StrawmanConfig::default()),
            ..Self::paper_default()
        }
    }

    /// GRASS restricted to a subset of learning factors.
    pub fn with_factors(factors: FactorSet) -> Self {
        GrassConfig {
            factors,
            ..Self::paper_default()
        }
    }

    /// GRASS with a different perturbation probability (Figure 15 sweep).
    pub fn with_xi(xi: f64) -> Self {
        GrassConfig {
            xi: xi.clamp(0.0, 1.0),
            ..Self::paper_default()
        }
    }

    /// The name reports give this configuration: `GRASS-strawman`, `GRASS` for a
    /// learned switch over all three factors, and `GRASS-best{n}` over `n` of them.
    pub fn name(&self) -> String {
        match (self.strategy, self.factors.count()) {
            (SwitchStrategy::Strawman(_), _) => "GRASS-strawman".to_string(),
            (SwitchStrategy::Learned, 3) => "GRASS".to_string(),
            (SwitchStrategy::Learned, n) => format!("GRASS-best{n}"),
        }
    }
}

impl Default for GrassConfig {
    fn default() -> Self {
        GrassConfig::paper_default()
    }
}

/// Per-job GRASS policy instance.
pub struct GrassPolicy {
    config: GrassConfig,
    store: Arc<SampleStore>,
    /// `Some(mode)` when this job was ξ-perturbed into a pure-GS / pure-RAS sample
    /// generator.
    forced: Option<SpeculationMode>,
    mode: SpeculationMode,
    switched: bool,
    last_check: Option<Time>,
    /// Where this job's error-bound needed set ended at its last decision. The set
    /// does not depend on the mode, so one memo serves RAS and GS alike.
    memo: NeededSetMemo,
}

impl GrassPolicy {
    /// Create a GRASS policy for one job. `forced` marks a ξ-perturbed sample job.
    pub fn new(
        config: GrassConfig,
        store: Arc<SampleStore>,
        forced: Option<SpeculationMode>,
    ) -> Self {
        GrassPolicy {
            config,
            store,
            forced,
            mode: SpeculationMode::Ras,
            switched: false,
            last_check: None,
            memo: NeededSetMemo::default(),
        }
    }

    /// The mode the policy is currently scheduling with.
    pub fn current_mode(&self) -> SpeculationMode {
        self.forced.unwrap_or(self.mode)
    }

    /// Whether the policy has already switched from RAS to GS.
    pub fn has_switched(&self) -> bool {
        self.switched
    }

    fn maybe_switch(&mut self, view: &JobView) {
        if self.switched || self.forced.is_some() {
            return;
        }
        if let Some(last) = self.last_check {
            if view.now - last < CHECK_INTERVAL {
                return;
            }
        }
        self.last_check = Some(view.now);
        let decision = match self.config.strategy {
            SwitchStrategy::Strawman(cfg) => strawman_decision(view, &cfg),
            SwitchStrategy::Learned => learned_decision(view, &self.store, self.config.factors),
        };
        if decision == SwitchDecision::SwitchNow {
            self.mode = SpeculationMode::Gs;
            self.switched = true;
        }
    }
}

impl SpeculationPolicy for GrassPolicy {
    fn name(&self) -> &str {
        // ξ-perturbed jobs report the algorithm they actually ran so that metrics and
        // the sample store see them for what they are.
        match self.forced {
            Some(SpeculationMode::Gs) => "GS",
            Some(SpeculationMode::Ras) => "RAS",
            None => "GRASS",
        }
    }

    fn choose(&mut self, view: &JobView) -> Option<Action> {
        if let Some(mode) = self.forced {
            return choose_holding(view, mode, &mut self.memo);
        }
        self.maybe_switch(view);
        // Before its mode is final, a RAS decline may become a GS launch once the
        // switch rule (which reads utilisation and the shared store) fires.
        if self.switched {
            choose_holding(view, self.mode, &mut self.memo)
        } else {
            choose_memoised(view, self.mode, &mut self.memo)
        }
    }

    fn on_job_complete(&mut self, outcome: &JobOutcome) {
        if let Some(mode) = self.forced {
            self.store.record_outcome(mode, outcome);
        }
    }
}

/// Factory that creates GRASS policies and owns the shared sample store and the
/// ξ-perturbation randomness.
pub struct GrassFactory {
    config: GrassConfig,
    store: Arc<SampleStore>,
    rng: Mutex<StdRng>,
    name: String,
}

impl GrassFactory {
    /// New factory with the paper-default configuration.
    pub fn new(seed: u64) -> Self {
        Self::with_config(GrassConfig::paper_default(), seed)
    }

    /// New factory with an explicit configuration.
    pub fn with_config(config: GrassConfig, seed: u64) -> Self {
        GrassFactory {
            config,
            store: Arc::new(SampleStore::new()),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            name: config.name(),
        }
    }

    /// New factory that shares an existing sample store (useful for pre-seeding the
    /// store with samples from earlier runs).
    pub fn with_store(config: GrassConfig, store: Arc<SampleStore>, seed: u64) -> Self {
        let mut factory = Self::with_config(config, seed);
        factory.store = store;
        factory
    }

    /// Access the shared sample store.
    pub fn store(&self) -> Arc<SampleStore> {
        Arc::clone(&self.store)
    }
}

impl PolicyFactory for GrassFactory {
    fn name(&self) -> &str {
        &self.name
    }

    fn create(&self, _job: &JobSpec) -> BoxedPolicy {
        let forced = {
            let mut rng = self.rng.lock();
            if rng.gen_bool(self.config.xi.clamp(0.0, 1.0)) {
                if rng.gen_bool(0.5) {
                    Some(SpeculationMode::Gs)
                } else {
                    Some(SpeculationMode::Ras)
                }
            } else {
                None
            }
        };
        Box::new(GrassPolicy::new(
            self.config,
            Arc::clone(&self.store),
            forced,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Bound, TnewEstimate};
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

    fn deadline_view(tasks: &TaskRows, now: f64, deadline: f64) -> JobView<'_> {
        JobView {
            job: JobId(1),
            now,
            arrival: 0.0,
            bound: Bound::Deadline(deadline),
            input_deadline: None,
            total_input_tasks: 20,
            completed_input_tasks: 0,
            total_tasks: 20,
            completed_tasks: 0,
            tasks,
            tnew_estimate: TnewEstimate::PerWork(1.0),
            deadline_index: None,
            wave_width: 2,
            cluster_utilization: 0.5,
            estimation_accuracy: 0.75,
            decline_hold: std::cell::Cell::new(false),
        }
    }

    #[test]
    fn grass_starts_in_ras_mode() {
        let policy = GrassPolicy::new(
            GrassConfig::paper_default(),
            Arc::new(SampleStore::new()),
            None,
        );
        assert_eq!(policy.current_mode(), SpeculationMode::Ras);
        assert!(!policy.has_switched());
        assert_eq!(policy.name(), "GRASS");
    }

    #[test]
    fn strawman_grass_switches_near_the_deadline() {
        let mut policy =
            GrassPolicy::new(GrassConfig::strawman(), Arc::new(SampleStore::new()), None);
        let tasks: TaskRows = (0..10).map(|i| unscheduled(i, 4.0)).collect();
        // Far from the deadline: stays RAS.
        let view = deadline_view(&tasks, 0.0, 100.0);
        policy.choose(&view);
        assert_eq!(policy.current_mode(), SpeculationMode::Ras);
        // Near the deadline (6s remain, two waves = 8s): switches.
        let view = deadline_view(&tasks, 94.0, 100.0);
        policy.choose(&view);
        assert_eq!(policy.current_mode(), SpeculationMode::Gs);
        assert!(policy.has_switched());
    }

    #[test]
    fn declines_are_held_only_once_the_mode_is_final() {
        // Every task runs and a copy would save nothing, so every mode declines.
        let tasks: TaskRows = (0..10)
            .map(|i| TaskView {
                running_copies: 1,
                copy_duration: 1.0,
                ..unscheduled(i, 4.0)
            })
            .collect();
        let store = Arc::new(SampleStore::new());
        let ras = Some(SpeculationMode::Ras);
        let cases = [
            // Far from the deadline both switch rules stay in RAS: not final.
            (GrassConfig::paper_default(), None, 0.0, false),
            (GrassConfig::strawman(), None, 0.0, false),
            // One second before it the strawman switches to GS for good.
            (GrassConfig::strawman(), None, 99.0, true),
            (GrassConfig::paper_default(), ras, 0.0, true),
        ];
        for (config, forced, now, held) in cases {
            let mut policy = GrassPolicy::new(config, Arc::clone(&store), forced);
            let view = deadline_view(&tasks, now, 100.0);
            assert!(policy.choose(&view).is_none());
            assert_eq!(
                view.is_decline_held(),
                held,
                "{config:?} {forced:?} at {now}"
            );
        }
    }

    #[test]
    fn check_interval_rate_limits_evaluation() {
        let config = GrassConfig::strawman();
        let tasks: TaskRows = (0..10).map(|i| unscheduled(i, 4.0)).collect();
        // Checked at t=0 with 10s left (two 4s waves are 8s: stay); at t=2.5, with
        // 7.5s left and more than the 1s interval gone, it re-evaluates and switches.
        let mut policy = GrassPolicy::new(config, Arc::new(SampleStore::new()), None);
        policy.choose(&deadline_view(&tasks, 0.0, 10.0));
        assert!(!policy.has_switched());
        policy.choose(&deadline_view(&tasks, 2.5, 10.0));
        assert!(policy.has_switched());

        // Checked at t=2.5 with 8.5s left (stay), then at t=3.25 with 7.75s left (a
        // switch would be warranted): only 0.75 < 1s passed, so it must not
        // re-evaluate; at t=3.5 the interval has elapsed and it switches.
        let mut policy = GrassPolicy::new(config, Arc::new(SampleStore::new()), None);
        policy.choose(&deadline_view(&tasks, 2.5, 11.0));
        assert!(!policy.has_switched());
        policy.choose(&deadline_view(&tasks, 3.25, 11.0));
        assert!(
            !policy.has_switched(),
            "re-evaluated before the check interval elapsed"
        );
        policy.choose(&deadline_view(&tasks, 3.5, 11.0));
        assert!(policy.has_switched());
    }

    #[test]
    fn forced_jobs_report_their_mode_and_feed_the_store() {
        let store = Arc::new(SampleStore::new());
        let mut policy = GrassPolicy::new(
            GrassConfig::paper_default(),
            Arc::clone(&store),
            Some(SpeculationMode::Gs),
        );
        assert_eq!(policy.name(), "GS");
        assert_eq!(policy.current_mode(), SpeculationMode::Gs);
        let outcome = JobOutcome {
            job: JobId(1),
            policy: "GS".to_string(),
            bound: Bound::Deadline(50.0),
            input_tasks: 100,
            total_tasks: 100,
            dag_length: 1,
            arrival: 0.0,
            finish: 50.0,
            completed_input_tasks: 70,
            completed_tasks: 70,
            speculative_copies: 3,
            killed_copies: 1,
            slot_seconds: 100.0,
            avg_wave_width: 5.0,
            avg_cluster_utilization: 0.6,
            avg_estimation_accuracy: 0.75,
        };
        policy.on_job_complete(&outcome);
        assert_eq!(store.len(), 1);

        // Non-perturbed GRASS jobs do not pollute the store.
        let mut grass = GrassPolicy::new(GrassConfig::paper_default(), Arc::clone(&store), None);
        grass.on_job_complete(&outcome);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn factory_perturbs_roughly_xi_fraction_of_jobs() {
        let factory = GrassFactory::with_config(GrassConfig::with_xi(0.5), 7);
        let job = JobSpec::single_stage(1, 0.0, Bound::Deadline(10.0), vec![1.0; 10]);
        let mut forced = 0;
        let n = 2000;
        for _ in 0..n {
            let p = factory.create(&job);
            if p.name() != "GRASS" {
                forced += 1;
            }
        }
        let frac = forced as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.05, "forced fraction {frac}");
    }

    #[test]
    fn factory_with_zero_xi_never_perturbs() {
        let factory = GrassFactory::with_config(GrassConfig::with_xi(0.0), 7);
        let job = JobSpec::single_stage(1, 0.0, Bound::Deadline(10.0), vec![1.0; 10]);
        for _ in 0..100 {
            assert_eq!(factory.create(&job).name(), "GRASS");
        }
    }

    #[test]
    fn factory_names_reflect_configuration() {
        assert_eq!(GrassFactory::new(1).name(), "GRASS");
        assert_eq!(
            GrassFactory::with_config(GrassConfig::strawman(), 1).name(),
            "GRASS-strawman"
        );
        assert_eq!(
            GrassFactory::with_config(GrassConfig::with_factors(FactorSet::best_one()), 1).name(),
            "GRASS-best1"
        );
        assert_eq!(
            GrassFactory::with_config(
                GrassConfig::with_factors(FactorSet::best_two_utilization()),
                1
            )
            .name(),
            "GRASS-best2"
        );
    }

    #[test]
    fn shared_store_is_visible_across_factories() {
        let store = Arc::new(SampleStore::new());
        let f1 = GrassFactory::with_store(GrassConfig::paper_default(), Arc::clone(&store), 1);
        store.record_outcome(
            SpeculationMode::Gs,
            &JobOutcome {
                job: JobId(2),
                policy: "GS".to_string(),
                bound: Bound::Deadline(50.0),
                input_tasks: 10,
                total_tasks: 10,
                dag_length: 1,
                arrival: 0.0,
                finish: 50.0,
                completed_input_tasks: 7,
                completed_tasks: 7,
                speculative_copies: 0,
                killed_copies: 0,
                slot_seconds: 10.0,
                avg_wave_width: 2.0,
                avg_cluster_utilization: 0.5,
                avg_estimation_accuracy: 0.7,
            },
        );
        assert_eq!(f1.store().len(), 1);
    }
}
