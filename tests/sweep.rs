//! Integration tests of the trace-calibrated sweep harness and the `JobSource`
//! refactor of the experiment entry points.
//!
//! Two guarantees are pinned here:
//!
//! 1. Sweeping a *recorded* workload is deterministic: two runs — serial or
//!    threaded — produce byte-identical digests and identical tables.
//! 2. The `JobSource` refactor is behaviour-preserving: `run_once` driven by a
//!    [`GeneratedWorkload`] produces outcomes identical to the pre-refactor path
//!    that called `generate` directly (replicated inline below, including the
//!    GS/RAS warm-up of the GRASS sample store).

use std::sync::Arc;

use grass::prelude::*;

/// `GRASS_SMOKE=1` shrinks the grid (2×2 instead of 3×4) and the policy matrix of
/// the parity test, the same smoke override style as `PROPTEST_CASES`; every
/// assertion below derives its expectations from the configured grid, so the
/// defaults are unchanged when the variable is unset (or `0`).
fn smoke() -> bool {
    std::env::var("GRASS_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn grid_machines() -> Vec<usize> {
    if smoke() {
        vec![6, 14]
    } else {
        vec![6, 10, 14]
    }
}

fn grid_policies() -> Vec<PolicyKind> {
    if smoke() {
        vec![PolicyKind::Late, PolicyKind::grass()]
    } else {
        vec![
            PolicyKind::Late,
            PolicyKind::GsOnly,
            PolicyKind::RasOnly,
            PolicyKind::grass(),
        ]
    }
}

fn workload(bound: BoundSpec, jobs: usize) -> WorkloadConfig {
    WorkloadConfig::new(TraceProfile::facebook(Framework::Spark))
        .with_jobs(jobs)
        .with_bound(bound)
}

fn tiny_exp() -> ExpConfig {
    let mut exp = ExpConfig {
        jobs_per_run: 10,
        seeds: vec![11],
        ..ExpConfig::quick()
    };
    exp.cluster.machines = 10;
    exp
}

fn tiny_grid(exp: ExpConfig) -> SweepConfig {
    SweepConfig {
        machines: grid_machines(),
        policies: grid_policies(),
        baseline: PolicyKind::Late,
        threads: 1,
        base: exp,
    }
}

#[test]
fn sweeping_a_recorded_workload_twice_is_byte_identical() {
    let config = workload(BoundSpec::paper_errors(), 10);
    let trace = record_workload(&config, 7, 11, "late", 10, 4);
    let source = trace.to_source();

    let first = run_sweep(&source, &tiny_grid(tiny_exp()));
    let second = run_sweep(&source, &tiny_grid(tiny_exp()));
    assert_eq!(first.digest(), second.digest());
    assert_eq!(first.cells, second.cells);
    assert_eq!(
        first.improvement_table().render_text(),
        second.improvement_table().render_text()
    );

    // A threaded run of the same grid assembles the identical result.
    let mut threaded_grid = tiny_grid(tiny_exp());
    threaded_grid.threads = 4;
    let threaded = run_sweep(&source, &threaded_grid);
    assert_eq!(first.digest(), threaded.digest());
    assert_eq!(first.cells, threaded.cells);

    // And the disk round-trip changes nothing: sweep the decoded trace.
    let decoded = WorkloadTrace::from_bytes(&trace.to_bytes()).unwrap();
    let replayed = run_sweep(&decoded.to_source(), &tiny_grid(tiny_exp()));
    assert_eq!(first.digest(), replayed.digest());
}

#[test]
fn sweep_covers_the_grid_and_compares_against_the_baseline() {
    let config = workload(BoundSpec::paper_errors(), 10);
    let source = record_workload(&config, 7, 11, "late", 10, 4).to_source();
    let result = run_sweep(&source, &tiny_grid(tiny_exp()));

    // Full grid coverage: every cluster size x every policy.
    assert_eq!(
        result.cells.len(),
        grid_machines().len() * grid_policies().len()
    );
    assert_eq!(result.metric, Metric::Duration);
    assert_eq!(result.baseline, "LATE");
    for cell in &result.cells {
        assert_eq!(cell.jobs, 10);
        assert!(cell.mean.unwrap() > 0.0);
        assert_eq!(cell.comparison.baseline, "LATE");
        if cell.policy == "LATE" {
            assert_eq!(cell.comparison.overall, Some(0.0));
        }
    }
    // More machines can only help (weakly) the mean duration of the same jobs
    // under the same policy; check the extremes for LATE.
    let late_small = result
        .cells
        .iter()
        .find(|c| c.machines == 6 && c.policy == "LATE");
    let late_large = result
        .cells
        .iter()
        .find(|c| c.machines == 14 && c.policy == "LATE");
    let (small, large) = (late_small.unwrap(), late_large.unwrap());
    assert!(
        large.mean.unwrap() <= small.mean.unwrap() * 1.05,
        "14 machines ({:?}) should not be slower than 6 ({:?})",
        large.mean,
        small.mean
    );
}

/// The pre-refactor `run_once` body, replicated verbatim against the public API:
/// `generate` called directly, plus the GS/RAS warm-up of the GRASS sample store
/// (`ceil(num_jobs × warmup_fraction).max(4)` jobs at seed ⊕ 0x61 / 0x72, factory
/// seed ⊕ 0x9A55).
fn pre_refactor_run_once(
    exp: &ExpConfig,
    wl: &WorkloadConfig,
    policy: &PolicyKind,
    seed: u64,
) -> Vec<JobOutcome> {
    let jobs = generate(wl, seed);
    let sim = SimConfig {
        cluster: exp.cluster,
        estimator: exp.estimator,
        seed,
    };
    match policy {
        PolicyKind::Late => run_simulation(&sim, jobs, &LateFactory).outcomes,
        PolicyKind::GsOnly => run_simulation(&sim, jobs, &GsFactory).outcomes,
        PolicyKind::Grass(cfg) => {
            let store = Arc::new(SampleStore::new());
            let warm_jobs = ((wl.num_jobs as f64 * exp.warmup_fraction).ceil() as usize).max(4);
            let warm_cfg = WorkloadConfig {
                num_jobs: warm_jobs,
                ..*wl
            };
            for (mode, offset) in [(SpeculationMode::Gs, 0x61), (SpeculationMode::Ras, 0x72)] {
                let warm = generate(&warm_cfg, seed ^ offset);
                let warm_sim = SimConfig {
                    seed: seed ^ offset,
                    ..sim
                };
                let result = match mode {
                    SpeculationMode::Gs => run_simulation(&warm_sim, warm, &GsFactory),
                    SpeculationMode::Ras => run_simulation(&warm_sim, warm, &RasFactory),
                };
                for outcome in &result.outcomes {
                    store.record_outcome(mode, outcome);
                }
            }
            let factory = GrassFactory::with_store(*cfg, store, seed ^ 0x9A55);
            run_simulation(&sim, jobs, &factory).outcomes
        }
        other => panic!("pre-refactor replica does not model {other:?}"),
    }
}

#[test]
fn generated_source_run_once_matches_the_pre_refactor_direct_path() {
    let exp = tiny_exp();
    let bounds = if smoke() {
        vec![BoundSpec::paper_errors()]
    } else {
        vec![BoundSpec::paper_errors(), BoundSpec::paper_deadlines()]
    };
    let policies = if smoke() {
        vec![PolicyKind::Late, PolicyKind::grass()]
    } else {
        vec![PolicyKind::Late, PolicyKind::GsOnly, PolicyKind::grass()]
    };
    for bound in bounds {
        let wl = workload(bound, 10);
        let source = GeneratedWorkload::new(wl);
        for policy in policies.clone() {
            let refactored = run_once(&exp, &source, &policy, 11);
            let direct = pre_refactor_run_once(&exp, &wl, &policy, 11);
            assert_eq!(
                refactored.all(),
                &direct[..],
                "outcome drift for {policy:?} under {bound:?}"
            );
        }
    }
}

#[test]
fn recorded_source_pins_jobs_while_seeds_vary_the_cluster() {
    let config = workload(BoundSpec::paper_errors(), 8);
    let jobs = generate(&config, 3);
    let source = RecordedWorkload::new("pinned", jobs.clone());
    let mut exp = tiny_exp();
    exp.seeds = vec![1, 2];
    // Two seeds, same recorded jobs: outcomes pool 2 × 8 entries, and both halves
    // saw identical job ids (the jobs are pinned; only simulator randomness moved).
    let outcomes = run_policy(&exp, &source, &PolicyKind::GsOnly);
    assert_eq!(outcomes.len(), 16);
    let ids: Vec<_> = outcomes.all().iter().map(|o| o.job).collect();
    assert_eq!(&ids[..8], &ids[8..]);
    let first_half: Vec<_> = outcomes.all()[..8].iter().map(|o| o.finish).collect();
    let second_half: Vec<_> = outcomes.all()[8..].iter().map(|o| o.finish).collect();
    assert_ne!(first_half, second_half, "different seeds must differ");
}
