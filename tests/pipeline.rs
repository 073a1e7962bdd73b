//! End-to-end integration tests spanning workload generation, the cluster simulator,
//! the speculation policies and the metrics layer.
//!
//! Like the facade property suite's `PROPTEST_CASES` override, `GRASS_SMOKE=1`
//! shrinks this suite to a smoke profile — job counts drop to roughly a third and
//! multi-seed sweeps run one seed — so
//! `GRASS_SMOKE=1 PROPTEST_CASES=2 cargo test -q` finishes in seconds. Defaults
//! are unchanged when the variable is unset (or set to `0`).

use grass::prelude::*;

/// Whether the smoke profile is requested via `GRASS_SMOKE`.
fn smoke() -> bool {
    std::env::var("GRASS_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Scale a job count down for the smoke profile (full size by default).
fn scaled_jobs(full: usize) -> usize {
    if smoke() {
        (full / 3).max(4)
    } else {
        full
    }
}

/// Take a prefix of the seed list for the smoke profile (all seeds by default).
fn scaled_seeds(full: &[u64]) -> &[u64] {
    if smoke() {
        &full[..1]
    } else {
        full
    }
}

fn quick_cluster() -> ClusterConfig {
    ClusterConfig {
        machines: 12,
        slots_per_machine: 4,
        ..ClusterConfig::ec2_scaled()
    }
}

fn quick_sim(seed: u64) -> SimConfig {
    SimConfig {
        cluster: quick_cluster(),
        seed,
        ..SimConfig::default()
    }
}

fn quick_workload(bound: BoundSpec, jobs: usize) -> WorkloadConfig {
    let mut wl = WorkloadConfig::new(TraceProfile::facebook(Framework::Spark))
        .with_jobs(jobs)
        .with_bound(bound);
    wl.expected_share = 10;
    wl.duration_calibration = quick_cluster().mean_slowdown() * 0.8;
    wl
}

#[test]
fn every_policy_completes_an_error_bound_workload() {
    let wl = quick_workload(BoundSpec::paper_errors(), scaled_jobs(12));
    let jobs = generate(&wl, 5);
    let factories: Vec<Box<dyn PolicyFactory>> = vec![
        Box::new(NoSpecFactory),
        Box::new(LateFactory),
        Box::new(MantriFactory),
        Box::new(GsFactory),
        Box::new(RasFactory),
        Box::new(GrassFactory::new(3)),
        Box::new(OracleFactory),
    ];
    for factory in &factories {
        let result = run_simulation(&quick_sim(5), jobs.clone(), factory.as_ref());
        assert_eq!(
            result.outcomes.len(),
            jobs.len(),
            "policy {}",
            factory.name()
        );
        for outcome in &result.outcomes {
            assert!(
                outcome.met_error_bound(),
                "policy {} left job {:?} short of its error bound",
                factory.name(),
                outcome.job
            );
            assert!(outcome.duration() > 0.0);
            assert!(outcome.accuracy() <= 1.0 + 1e-12);
        }
    }
}

#[test]
fn deadline_jobs_respect_their_deadline_under_every_policy() {
    let wl = quick_workload(BoundSpec::paper_deadlines(), scaled_jobs(12));
    let jobs = generate(&wl, 7);
    let factories: Vec<Box<dyn PolicyFactory>> = vec![
        Box::new(LateFactory),
        Box::new(GsFactory),
        Box::new(GrassFactory::new(4)),
    ];
    for factory in &factories {
        let result = run_simulation(&quick_sim(7), jobs.clone(), factory.as_ref());
        for (job, outcome) in jobs.iter().zip(result.outcomes.iter().map(|o| {
            result
                .outcomes
                .iter()
                .find(|x| x.job == o.job)
                .expect("outcome present")
        })) {
            if let Bound::Deadline(d) = job.bound {
                let matching = result
                    .outcomes
                    .iter()
                    .find(|o| o.job == job.id)
                    .expect("every job has an outcome");
                assert!(
                    matching.duration() <= d + 1e-6,
                    "policy {} ran past the deadline",
                    factory.name()
                );
                assert!(matching.accuracy() <= 1.0 + 1e-12);
                let _ = outcome;
            }
        }
    }
}

#[test]
fn exact_jobs_complete_every_task() {
    let wl = quick_workload(BoundSpec::Exact, scaled_jobs(8));
    let jobs = generate(&wl, 9);
    let result = run_simulation(&quick_sim(9), jobs.clone(), &GrassFactory::new(9));
    for outcome in &result.outcomes {
        assert_eq!(outcome.completed_input_tasks, outcome.input_tasks);
        assert!((outcome.accuracy() - 1.0).abs() < 1e-12);
    }
}

#[test]
fn full_pipeline_is_deterministic() {
    let wl = quick_workload(BoundSpec::paper_errors(), scaled_jobs(10));
    let jobs = generate(&wl, 11);
    let a = run_simulation(&quick_sim(11), jobs.clone(), &GrassFactory::new(11));
    let b = run_simulation(&quick_sim(11), jobs, &GrassFactory::new(11));
    assert_eq!(a.outcomes.len(), b.outcomes.len());
    for (x, y) in a.outcomes.iter().zip(b.outcomes.iter()) {
        assert_eq!(x.job, y.job);
        assert_eq!(x.policy, y.policy);
        assert!((x.finish - y.finish).abs() < 1e-9);
        assert_eq!(x.completed_tasks, y.completed_tasks);
        assert_eq!(x.speculative_copies, y.speculative_copies);
    }
}

#[test]
fn speculation_aware_policies_beat_no_speculation_on_error_bound_jobs() {
    // Directional end-to-end check of the paper's headline: with heavy-tailed
    // straggling, approximation-aware speculation (GRASS) finishes error-bound jobs
    // faster on average than a FIFO scheduler that never speculates.
    let wl = quick_workload(BoundSpec::paper_errors(), scaled_jobs(20));
    let mut nospec_total = 0.0;
    let mut grass_total = 0.0;
    for &seed in scaled_seeds(&[21u64, 22, 23]) {
        let jobs = generate(&wl, seed);
        let nospec = run_simulation(&quick_sim(seed), jobs.clone(), &NoSpecFactory);
        let grass = run_simulation(&quick_sim(seed), jobs, &GrassFactory::new(seed));
        nospec_total += OutcomeSet::new(nospec.outcomes)
            .mean(Metric::Duration)
            .unwrap();
        grass_total += OutcomeSet::new(grass.outcomes)
            .mean(Metric::Duration)
            .unwrap();
    }
    assert!(
        grass_total < nospec_total,
        "GRASS ({grass_total:.1}s total) should beat NoSpec ({nospec_total:.1}s total)"
    );
}

#[test]
fn metrics_layer_summarises_simulation_outcomes() {
    let wl = quick_workload(BoundSpec::paper_deadlines(), scaled_jobs(15));
    let jobs = generate(&wl, 31);
    let result = run_simulation(&quick_sim(31), jobs, &LateFactory);
    let set = OutcomeSet::new(result.outcomes);
    let mean = set.mean(Metric::Accuracy).unwrap();
    assert!(mean > 0.0 && mean <= 1.0);
    let by_bin = set.mean_by_size_bin(Metric::Accuracy);
    assert!(!by_bin.is_empty());
    for value in by_bin.values() {
        assert!(*value >= 0.0 && *value <= 1.0 + 1e-12);
    }
}
