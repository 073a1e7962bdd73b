//! Shared experiment plumbing: which policies to run, how to run a job source through
//! the simulator for several seeds, and how to turn the outcomes into the improvement
//! tables the paper's figures report.
//!
//! Every experiment entry point consumes a [`JobSource`] rather than sampling a
//! workload itself: a [`grass_workload::GeneratedWorkload`] re-rolls a synthetic
//! workload per seed (the historical behaviour, byte-identical), while a
//! `RecordedWorkload` — typically
//! decoded from a `grass-trace` workload trace — replays one fixed job list, enabling
//! controlled comparisons of the *same* jobs across policies and cluster sizes (the
//! paper's §6.1 methodology; see [`crate::sweep`]).

use std::sync::Arc;

use grass_core::{
    EstimatorConfig, FactorSet, GrassConfig, GrassFactory, GsFactory, JobSizeBin, PolicyFactory,
    RasFactory, SampleStore, SpeculationMode,
};
use grass_metrics::{
    improvement_by_size_bin, overall_improvement, Cell, Metric, OutcomeSet, Table,
};
use grass_policies::{LateFactory, MantriFactory, NoSpecFactory, OracleFactory};
use grass_sim::{run_simulation, ClusterConfig, SimConfig};
use grass_workload::{BoundSpec, JobSource, TraceProfile, WorkloadConfig};
use serde::{Deserialize, Serialize};

/// Global knobs of an experiment run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExpConfig {
    /// Jobs per simulated workload.
    pub jobs_per_run: usize,
    /// Seeds to average over (each seed regenerates the workload and the cluster).
    pub seeds: Vec<u64>,
    /// Cluster configuration.
    pub cluster: ClusterConfig,
    /// Estimator accuracy model for non-oracle policies.
    pub estimator: EstimatorConfig,
    /// Fraction of the workload replayed as a GS/RAS warm-up before a GRASS run, so
    /// GRASS's sample store reflects "executions of previous jobs" (§4.1).
    pub warmup_fraction: f64,
}

impl ExpConfig {
    /// Full-fidelity configuration used by the `repro` binary.
    pub fn full() -> Self {
        ExpConfig {
            jobs_per_run: 120,
            seeds: vec![11, 23, 47],
            cluster: ClusterConfig::ec2_scaled(),
            estimator: EstimatorConfig::paper_default(),
            warmup_fraction: 0.5,
        }
    }

    /// Reduced configuration for integration tests and benches: one seed, fewer jobs,
    /// a smaller cluster.
    pub fn quick() -> Self {
        ExpConfig {
            jobs_per_run: 36,
            seeds: vec![11],
            cluster: ClusterConfig {
                machines: 20,
                slots_per_machine: 4,
                ..ClusterConfig::ec2_scaled()
            },
            estimator: EstimatorConfig::paper_default(),
            warmup_fraction: 0.5,
        }
    }

    /// Even smaller configuration for micro-benchmarks.
    pub fn tiny() -> Self {
        ExpConfig {
            jobs_per_run: 12,
            seeds: vec![11],
            cluster: ClusterConfig {
                machines: 10,
                slots_per_machine: 4,
                ..ClusterConfig::ec2_scaled()
            },
            estimator: EstimatorConfig::paper_default(),
            warmup_fraction: 0.5,
        }
    }
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig::full()
    }
}

/// The policies experiments compare. Each value knows how to build its factory (and
/// whether it needs oracle-exact estimates).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// LATE baseline (deployed in the Facebook cluster).
    Late,
    /// Mantri baseline (deployed in the Bing cluster).
    Mantri,
    /// FIFO with no speculation.
    NoSpec,
    /// GS throughout ("GS-only").
    GsOnly,
    /// RAS throughout ("RAS-only").
    RasOnly,
    /// Full GRASS with the given configuration.
    Grass(GrassConfig),
    /// The oracle (optimal) scheduler with exact knowledge.
    Oracle,
}

impl PolicyKind {
    /// Default GRASS (learned switching, all three factors, ξ = 15%).
    pub fn grass() -> Self {
        PolicyKind::Grass(GrassConfig::paper_default())
    }

    /// GRASS with the static two-wave strawman switcher.
    pub fn strawman() -> Self {
        PolicyKind::Grass(GrassConfig::strawman())
    }

    /// GRASS restricted to a subset of learning factors.
    pub fn grass_with_factors(factors: FactorSet) -> Self {
        PolicyKind::Grass(GrassConfig::with_factors(factors))
    }

    /// GRASS with a specific perturbation probability ξ.
    pub fn grass_with_xi(xi: f64) -> Self {
        PolicyKind::Grass(GrassConfig::with_xi(xi))
    }

    /// The named policies and their CLI/wire names: the one table `--policies`,
    /// `--policy`, cell specs and cache keys read. A custom-tuned `Grass(config)`
    /// has no name.
    fn named() -> [(&'static str, PolicyKind); 7] {
        [
            ("late", PolicyKind::Late),
            ("mantri", PolicyKind::Mantri),
            ("nospec", PolicyKind::NoSpec),
            ("gs", PolicyKind::GsOnly),
            ("ras", PolicyKind::RasOnly),
            ("grass", PolicyKind::grass()),
            ("oracle", PolicyKind::Oracle),
        ]
    }

    /// Parse a policy name (case-insensitive) into a [`PolicyKind`].
    pub fn parse(name: &str) -> Result<PolicyKind, String> {
        let lower = name.to_ascii_lowercase();
        let named = Self::named();
        if let Some((_, policy)) = named.iter().find(|(n, _)| *n == lower) {
            return Ok(policy.clone());
        }
        let names: Vec<&str> = named.iter().map(|(n, _)| *n).collect();
        Err(format!(
            "unknown policy '{lower}'; expected one of {}",
            names.join(", ")
        ))
    }

    /// CLI/wire name of a named policy ([`parse`](Self::parse)'s inverse). Refusing a
    /// custom GRASS config keeps cache keys and cell specs unambiguous.
    pub fn wire_name(&self) -> Result<&'static str, String> {
        Self::named()
            .into_iter()
            .find(|(_, policy)| policy == self)
            .map(|(name, _)| name)
            .ok_or_else(|| {
                "fleet cells carry named policies only; a custom GRASS config is not encodable"
                    .to_string()
            })
    }

    /// The factory that runs this policy. Only GRASS draws randomness, all of it
    /// from `seed`, so two factories built from the same seed decide alike.
    pub fn factory(&self, seed: u64) -> Box<dyn PolicyFactory> {
        match self {
            PolicyKind::Late => Box::new(LateFactory),
            PolicyKind::Mantri => Box::new(MantriFactory),
            PolicyKind::NoSpec => Box::new(NoSpecFactory),
            PolicyKind::GsOnly => Box::new(GsFactory),
            PolicyKind::RasOnly => Box::new(RasFactory),
            PolicyKind::Oracle => Box::new(OracleFactory),
            PolicyKind::Grass(cfg) => Box::new(GrassFactory::with_config(*cfg, seed)),
        }
    }

    /// Display name used in tables.
    pub fn label(&self) -> String {
        match self {
            PolicyKind::Late => "LATE".to_string(),
            PolicyKind::Mantri => "Mantri".to_string(),
            PolicyKind::NoSpec => "NoSpec".to_string(),
            PolicyKind::GsOnly => "GS-only".to_string(),
            PolicyKind::RasOnly => "RAS-only".to_string(),
            PolicyKind::Oracle => "Optimal".to_string(),
            PolicyKind::Grass(cfg) => cfg.name(),
        }
    }

    /// Whether this policy is given oracle-exact estimates (only the optimal
    /// scheduler).
    pub fn uses_oracle_estimates(&self) -> bool {
        matches!(self, PolicyKind::Oracle)
    }
}

/// Run one job source under one policy for a single seed and return all job outcomes.
pub fn run_once(
    exp: &ExpConfig,
    source: &dyn JobSource,
    policy: &PolicyKind,
    seed: u64,
) -> OutcomeSet {
    let jobs = source.jobs(seed);
    let estimator = if policy.uses_oracle_estimates() {
        EstimatorConfig::oracle()
    } else {
        exp.estimator
    };
    let sim = SimConfig {
        cluster: exp.cluster,
        estimator,
        seed,
        max_time: None,
    };
    let outcomes = match policy {
        PolicyKind::Grass(cfg) => {
            let store = warmed_store(exp, source, &sim, seed);
            let factory = GrassFactory::with_store(*cfg, store, seed ^ 0x9A55);
            run_simulation(&sim, jobs, &factory).outcomes
        }
        other => run_simulation(&sim, jobs, other.factory(seed).as_ref()).outcomes,
    };
    OutcomeSet::new(outcomes)
}

/// Run a job source under one policy across all configured seeds and pool the
/// outcomes. Generated sources re-roll the workload per seed; recorded sources replay
/// the same jobs under per-seed simulator randomness.
pub fn run_policy(exp: &ExpConfig, source: &dyn JobSource, policy: &PolicyKind) -> OutcomeSet {
    let mut all = Vec::new();
    for &seed in &exp.seeds {
        all.extend(run_once(exp, source, policy, seed).all().to_vec());
    }
    OutcomeSet::new(all)
}

/// Build a GRASS sample store warmed up with pure-GS and pure-RAS executions of a
/// slice of the job source — the "samples of previous jobs" GRASS learns from.
fn warmed_store(
    exp: &ExpConfig,
    source: &dyn JobSource,
    sim: &SimConfig,
    seed: u64,
) -> Arc<SampleStore> {
    let store = Arc::new(SampleStore::new());
    if exp.warmup_fraction <= 0.0 {
        return store;
    }
    for (mode, offset) in [(SpeculationMode::Gs, 0x61), (SpeculationMode::Ras, 0x72)] {
        let jobs = source.warmup_jobs(exp.warmup_fraction, seed ^ offset);
        let warm_sim = SimConfig {
            seed: seed ^ offset,
            ..*sim
        };
        let result = match mode {
            SpeculationMode::Gs => run_simulation(&warm_sim, jobs, &GsFactory),
            SpeculationMode::Ras => run_simulation(&warm_sim, jobs, &RasFactory),
        };
        for outcome in &result.outcomes {
            store.record_outcome(mode, outcome);
        }
    }
    store
}

/// A generated workload at the experiment's scale: `exp.jobs_per_run` jobs of
/// `profile` under `bound`, whose deadlines are calibrated for a job that gets a
/// fifth of the cluster's slots (at least four) on 0.8 × its mean slowdown.
pub(crate) fn workload(exp: &ExpConfig, profile: TraceProfile, bound: BoundSpec) -> WorkloadConfig {
    let mut cfg = WorkloadConfig::new(profile)
        .with_jobs(exp.jobs_per_run)
        .with_bound(bound);
    cfg.expected_share = (exp.cluster.total_slots() / 5).max(4);
    cfg.duration_calibration = exp.cluster.mean_slowdown() * 0.8;
    cfg
}

/// Metric appropriate for a workload's bound specification.
pub fn metric_for(workload: &WorkloadConfig) -> Metric {
    if workload.bound.is_deadline() {
        Metric::Accuracy
    } else {
        Metric::Duration
    }
}

/// Metric appropriate for a job source's (predominant) bound kind.
pub fn metric_for_source(source: &dyn JobSource) -> Metric {
    if source.deadline_bound() {
        Metric::Accuracy
    } else {
        Metric::Duration
    }
}

/// Result of comparing one candidate policy against one baseline on one job source.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Comparison {
    /// Candidate policy label.
    pub candidate: String,
    /// Baseline policy label.
    pub baseline: String,
    /// Overall percentage improvement; `None` when the baseline is degenerate (empty
    /// or a non-positive metric mean) — rendered as `n/a`, not as zero.
    pub overall: Option<f64>,
    /// Improvement per job-size bin (paper bins `<50`, `51-500`, `>500`), in that
    /// order; `None` when a bin had no jobs or a degenerate baseline.
    pub by_size_bin: Vec<Option<f64>>,
}

/// Run baseline and candidate on the same job source and compute improvements.
pub fn compare(
    exp: &ExpConfig,
    source: &dyn JobSource,
    baseline: &PolicyKind,
    candidate: &PolicyKind,
) -> Comparison {
    let base = run_policy(exp, source, baseline);
    let cand = run_policy(exp, source, candidate);
    compare_outcomes(source, baseline, candidate, &base, &cand)
}

/// Compute improvements from already-collected outcome sets.
pub fn compare_outcomes(
    source: &dyn JobSource,
    baseline: &PolicyKind,
    candidate: &PolicyKind,
    base: &OutcomeSet,
    cand: &OutcomeSet,
) -> Comparison {
    let metric = metric_for_source(source);
    let by_bin = improvement_by_size_bin(base, cand, metric);
    Comparison {
        candidate: candidate.label(),
        baseline: baseline.label(),
        overall: overall_improvement(base, cand, metric),
        by_size_bin: grass_core::JobSizeBin::all()
            .iter()
            .map(|b| by_bin.get(b).copied())
            .collect(),
    }
}

/// Table cell of an improvement; an undefined one (`None`) is an empty cell.
pub(crate) fn improvement_cell(improvement: Option<f64>) -> Cell {
    improvement.map(Cell::Number).unwrap_or(Cell::Empty)
}

/// Improvement table with one column per comparison, headed by `columns` (whose
/// first entry heads the row labels): one row per job-size bin, then `overall`.
pub(crate) fn size_bin_rows(
    title: impl Into<String>,
    columns: Vec<&str>,
    comparisons: &[Comparison],
) -> Table {
    let mut table = Table::new(title, columns);
    for (i, bin) in JobSizeBin::all().iter().enumerate() {
        let cells = comparisons
            .iter()
            .map(|c| improvement_cell(c.by_size_bin[i]))
            .collect();
        table.push_row(bin.label(), cells);
    }
    let overall = comparisons
        .iter()
        .map(|c| improvement_cell(c.overall))
        .collect();
    table.push_row("overall", overall);
    table
}

/// Convenience: durations of individual tasks as the simulator would produce them, for
/// the Figure 3 Hill plot. Work × machine slowdown × per-copy straggle, sampled
/// directly from the workload and cluster models.
pub fn sample_task_durations(
    workload: &WorkloadConfig,
    cluster: &ClusterConfig,
    count: usize,
    seed: u64,
) -> Vec<f64> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let machines = cluster.build_machines(seed);
    (0..count)
        .map(|_| {
            let work = workload.profile.task_work.sample(&mut rng);
            // Uniform machine draw: the former `i % machines.len()` round-robin
            // over-represented low-index machines whenever `count` was not a
            // multiple of the cluster size, biasing the Figure 3 sample.
            let machine = &machines[rng.gen_range(0..machines.len())];
            let straggle = cluster.straggler.sample(&mut rng);
            work * machine.slowdown * straggle
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use grass_workload::{BoundSpec, Framework, GeneratedWorkload, TraceProfile};

    fn tiny_workload(bound: BoundSpec) -> WorkloadConfig {
        WorkloadConfig::new(TraceProfile::facebook(Framework::Spark))
            .with_jobs(10)
            .with_bound(bound)
    }

    fn tiny_source(bound: BoundSpec) -> GeneratedWorkload {
        GeneratedWorkload::new(tiny_workload(bound))
    }

    #[test]
    fn policy_labels() {
        assert_eq!(PolicyKind::Late.label(), "LATE");
        assert_eq!(PolicyKind::Mantri.label(), "Mantri");
        assert_eq!(PolicyKind::grass().label(), "GRASS");
        assert_eq!(PolicyKind::strawman().label(), "GRASS-strawman");
        assert_eq!(
            PolicyKind::grass_with_factors(FactorSet::best_one()).label(),
            "GRASS-best1"
        );
        assert_eq!(PolicyKind::Oracle.label(), "Optimal");
        assert!(PolicyKind::Oracle.uses_oracle_estimates());
        assert!(!PolicyKind::grass().uses_oracle_estimates());
    }

    #[test]
    fn run_once_produces_one_outcome_per_job() {
        let exp = ExpConfig::tiny();
        let src = tiny_source(BoundSpec::paper_errors());
        let outcomes = run_once(&exp, &src, &PolicyKind::Late, 1);
        assert_eq!(outcomes.len(), 10);
        assert!(outcomes.all().iter().all(|o| o.policy == "LATE"));
    }

    #[test]
    fn run_policy_pools_all_seeds() {
        let mut exp = ExpConfig::tiny();
        exp.seeds = vec![1, 2];
        let src = tiny_source(BoundSpec::paper_deadlines());
        let outcomes = run_policy(&exp, &src, &PolicyKind::GsOnly);
        assert_eq!(outcomes.len(), 20);
    }

    #[test]
    fn grass_runs_label_jobs_as_grass_or_perturbed_modes() {
        let exp = ExpConfig::tiny();
        let src = tiny_source(BoundSpec::paper_errors());
        let outcomes = run_once(&exp, &src, &PolicyKind::grass(), 3);
        assert_eq!(outcomes.len(), 10);
        for o in outcomes.all() {
            assert!(
                o.policy == "GRASS" || o.policy == "GS" || o.policy == "RAS",
                "unexpected policy label {}",
                o.policy
            );
        }
    }

    #[test]
    fn comparison_has_all_bins_slots() {
        let exp = ExpConfig::tiny();
        let src = tiny_source(BoundSpec::paper_deadlines());
        let cmp = compare(&exp, &src, &PolicyKind::NoSpec, &PolicyKind::GsOnly);
        assert_eq!(cmp.by_size_bin.len(), 3);
        assert_eq!(cmp.baseline, "NoSpec");
        assert_eq!(cmp.candidate, "GS-only");
        assert!(cmp.overall.expect("non-degenerate baseline").is_finite());
    }

    #[test]
    fn metric_follows_bound_kind() {
        assert_eq!(
            metric_for(&tiny_workload(BoundSpec::paper_deadlines())),
            Metric::Accuracy
        );
        assert_eq!(
            metric_for(&tiny_workload(BoundSpec::paper_errors())),
            Metric::Duration
        );
        assert_eq!(
            metric_for_source(&tiny_source(BoundSpec::paper_deadlines())),
            Metric::Accuracy
        );
        assert_eq!(
            metric_for_source(&tiny_source(BoundSpec::paper_errors())),
            Metric::Duration
        );
    }

    #[test]
    fn sampled_durations_are_positive_and_heavy_tailed() {
        let wl = tiny_workload(BoundSpec::Exact);
        let durations = sample_task_durations(&wl, &ClusterConfig::ec2_scaled(), 5000, 9);
        assert_eq!(durations.len(), 5000);
        assert!(durations.iter().all(|d| *d > 0.0));
        let mut sorted = durations.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[sorted.len() / 2];
        let max = sorted[sorted.len() - 1];
        assert!(max / median > 5.0, "max/median = {}", max / median);
    }
}
