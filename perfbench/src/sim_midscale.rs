//! `sim-midscale`: one GRASS simulation of Facebook-Spark error-bound jobs on
//! a 1000-machine × 2-slot cluster. Dispatch, `TaskView` build and `choose()`
//! do almost all of the work; the trace plane does none.

use std::path::Path;
use std::sync::atomic::Ordering;

use grass_core::{GrassFactory, JobSpec};
use grass_experiments::outcome_digest;
use grass_sim::{run_simulation, ClusterConfig, SimConfig, SimResult};
use grass_workload::{generate, BoundSpec, Framework, TraceProfile, WorkloadConfig};

use crate::probe::{Recorder, TimedFactory};
use crate::{now, Iteration, Metrics, Workload};

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimMidscale {
    pub machines: usize,
    pub slots: usize,
    pub jobs: usize,
}

impl SimMidscale {
    pub const FULL: SimMidscale = SimMidscale {
        machines: 1000,
        slots: 2,
        jobs: 80,
    };

    /// Generator seed of the job population. The population is fixed, and the
    /// run seed drives the simulator (straggler draws) and GRASS (ξ-perturbed
    /// sample jobs): with heavy-tailed job sizes, a population redrawn per seed
    /// would change the amount of work by ±20% at this size.
    pub const POPULATION_SEED: u64 = 42;

    /// The workload generator configuration. The Facebook-Spark inter-arrival
    /// rate is calibrated for a 200-slot cluster, so it is scaled with the
    /// cluster to keep the same contended, multi-wave regime.
    pub fn workload_config(&self) -> WorkloadConfig {
        let mut profile = TraceProfile::facebook(Framework::Spark);
        profile.interarrival.mean *= 200.0 / (self.machines * self.slots) as f64;
        WorkloadConfig::new(profile)
            .with_jobs(self.jobs)
            .with_bound(BoundSpec::paper_errors())
    }
}

pub struct SimInput {
    sim: SimConfig,
    jobs: Vec<JobSpec>,
    seed: u64,
}

impl Workload for SimMidscale {
    type Input = SimInput;

    fn jobs(&self) -> usize {
        self.jobs
    }

    fn setup(&self, seed: u64, _out: &Path) -> Result<(SimInput, Metrics), String> {
        let started = now();
        let jobs = generate(&self.workload_config(), Self::POPULATION_SEED);
        let gen_s = started.elapsed().as_secs_f64();
        let mut layers = Metrics::default();
        layers.set("workload.gen_s", gen_s, "s");
        layers.set("workload.jobs", jobs.len() as f64, "count");
        let tasks: usize = jobs.iter().map(JobSpec::total_tasks).sum();
        layers.set("workload.tasks", tasks as f64, "count");
        let sim = SimConfig {
            cluster: ClusterConfig::small(self.machines, self.slots),
            seed,
            ..SimConfig::default()
        };
        Ok((SimInput { sim, jobs, seed }, layers))
    }

    fn run(&self, input: &SimInput, recorder: Option<&mut Recorder>) -> Iteration {
        let jobs = input.jobs.clone();
        let factory = GrassFactory::new(input.seed);
        let mut it = Iteration::default();
        let result = match recorder {
            None => {
                let started = now();
                let result = run_simulation(&input.sim, jobs, &factory);
                it.wall_s = started.elapsed().as_secs_f64();
                result
            }
            Some(rec) => {
                let store = factory.store();
                let timed = TimedFactory::new(&factory, store.clone());
                let (result, run_s) = rec.time("sim.run_simulation", |_| {
                    run_simulation(&input.sim, jobs, &timed)
                });
                it.wall_s = run_s;
                let c = timed.counters();
                let calls = c.choose_calls.load(Ordering::Relaxed);
                let accepts = c.choose_accepts.load(Ordering::Relaxed);
                let l = &mut it.layers;
                l.set("sim.run_s", run_s, "s");
                l.set("sim.self_s", run_s - c.callbacks_s(), "s");
                l.set(
                    "sim.view_rows",
                    c.view_rows.load(Ordering::Relaxed) as f64,
                    "count",
                );
                l.set("policy.choose_calls", calls as f64, "count");
                l.set("policy.choose_s", c.choose_s(), "s");
                l.set(
                    "policy.choose_accept_ratio",
                    accepts as f64 / calls.max(1) as f64,
                    "ratio",
                );
                l.set("policy.callbacks_s", c.callbacks_s(), "s");
                l.set(
                    "store.record_calls",
                    c.record_calls.load(Ordering::Relaxed) as f64,
                    "count",
                );
                l.set("store.record_s", c.record_s(), "s");
                l.set("store.samples", store.len() as f64, "count");
                l.set("store.generation", store.generation() as f64, "count");
                it.check(calls == result.stats.policy_consultations, || {
                    format!(
                        "choose() decorator saw {calls} calls, SimStats counted {}",
                        result.stats.policy_consultations
                    )
                });
                result
            }
        };
        let stats = result.stats;
        let c = &mut it.counts;
        c.set("sim.events", stats.events_processed as f64, "count");
        c.set("sim.job_touches", stats.job_touches as f64, "count");
        c.set(
            "sim.consultations",
            stats.policy_consultations as f64,
            "count",
        );
        c.set(
            "sim.touches_per_event",
            stats.job_touches as f64 / stats.events_processed.max(1) as f64,
            "ratio",
        );
        check_outcomes(&mut it, &input.jobs, &result);
        it.digest = outcome_digest(&result);
        it
    }

    fn pinned_digest(&self) -> Option<&'static str> {
        (*self == Self::FULL).then_some(PINNED_DIGEST)
    }
}

/// FNV-1a 64 of `outcome_digest` for [`crate::DEFAULT_SEED`] at [`SimMidscale::FULL`].
pub const PINNED_DIGEST: &str = "c9916e236e9fbe84";

/// One outcome per job: every input job id exactly once.
fn check_outcomes(it: &mut Iteration, jobs: &[JobSpec], result: &SimResult) {
    let mut expected: Vec<u64> = jobs.iter().map(|j| j.id.0).collect();
    let mut seen: Vec<u64> = result.outcomes.iter().map(|o| o.job.0).collect();
    expected.sort_unstable();
    seen.sort_unstable();
    it.check(expected == seen, || {
        format!(
            "{} outcomes for {} jobs, or job ids differ",
            seen.len(),
            expected.len()
        )
    });
}
