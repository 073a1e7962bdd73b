//! Property-based tests of cross-crate invariants: whatever workload the generator
//! produces and whatever policy schedules it, the simulator must respect conservation
//! laws, bounds semantics and determinism.

use grass::prelude::*;
use proptest::prelude::*;

/// Case count for this suite: 24 by default (it dominates `cargo test` wall-time —
/// ROADMAP "slow test tail"), overridable via `PROPTEST_CASES` (the same variable the
/// real proptest reads) to shrink smoke runs or broaden nightly ones. Read locally —
/// not via a shim helper — so this file compiles unchanged against the real proptest.
fn configured_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}

fn small_sim(seed: u64) -> SimConfig {
    SimConfig {
        cluster: ClusterConfig {
            machines: 6,
            slots_per_machine: 2,
            ..ClusterConfig::ec2_scaled()
        },
        seed,
        ..SimConfig::default()
    }
}

/// Strategy for a small random job.
fn job_strategy() -> impl Strategy<Value = (Vec<f64>, f64, u8)> {
    (
        prop::collection::vec(0.5f64..8.0, 3..40),
        0.0f64..0.5,
        0u8..3,
    )
}

fn policy_for(selector: u8) -> Box<dyn PolicyFactory> {
    match selector {
        0 => Box::new(GsFactory),
        1 => Box::new(RasFactory),
        _ => Box::new(LateFactory),
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: configured_cases(),
        ..ProptestConfig::default()
    })]

    /// Error-bound jobs always finish with at least the required number of input
    /// tasks, never more tasks than exist, and consume positive slot time.
    #[test]
    fn error_bound_jobs_meet_their_bound((work, epsilon, policy) in job_strategy()) {
        let total = work.len();
        let job = JobSpec::single_stage(1, 0.0, Bound::Error(epsilon), work);
        let needed = job.input_tasks_needed();
        let factory = policy_for(policy);
        let result = run_simulation(&small_sim(7), vec![job], factory.as_ref());
        prop_assert_eq!(result.outcomes.len(), 1);
        let o = &result.outcomes[0];
        prop_assert!(o.completed_input_tasks >= needed);
        prop_assert!(o.completed_input_tasks <= total);
        prop_assert!(o.slot_seconds > 0.0);
        prop_assert!(o.duration() > 0.0);
        prop_assert!(o.accuracy() >= 1.0 - epsilon - 1e-9);
    }

    /// Deadline-bound jobs never report more completed tasks than they have, never
    /// run past their deadline, and report accuracy in [0, 1].
    #[test]
    fn deadline_jobs_have_sane_outcomes((work, _eps, policy) in job_strategy(), deadline in 1.0f64..60.0) {
        let total = work.len();
        let job = JobSpec::single_stage(1, 0.0, Bound::Deadline(deadline), work);
        let factory = policy_for(policy);
        let result = run_simulation(&small_sim(13), vec![job], factory.as_ref());
        let o = &result.outcomes[0];
        prop_assert!(o.completed_input_tasks <= total);
        prop_assert!(o.duration() <= deadline + 1e-6);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&o.accuracy()));
        prop_assert!(o.killed_copies <= o.speculative_copies + total);
    }

    /// A looser deadline can never reduce the number of tasks a job completes, for the
    /// same workload, cluster and policy (the simulator is deterministic per seed).
    #[test]
    fn accuracy_is_monotone_in_the_deadline(work in prop::collection::vec(0.5f64..6.0, 4..30), deadline in 2.0f64..30.0) {
        let tight = JobSpec::single_stage(1, 0.0, Bound::Deadline(deadline), work.clone());
        let loose = JobSpec::single_stage(1, 0.0, Bound::Deadline(deadline * 2.0), work);
        let a = run_simulation(&small_sim(21), vec![tight], &GsFactory);
        let b = run_simulation(&small_sim(21), vec![loose], &GsFactory);
        prop_assert!(
            b.outcomes[0].completed_input_tasks >= a.outcomes[0].completed_input_tasks,
            "loose deadline completed {} < tight deadline {}",
            b.outcomes[0].completed_input_tasks,
            a.outcomes[0].completed_input_tasks
        );
    }

    /// Generated workloads are always valid job specs with bounds in the configured
    /// ranges, whatever the profile and seed.
    #[test]
    fn generated_workloads_are_valid(seed in 0u64..500, jobs in 1usize..40, spark in any::<bool>(), deadline_mode in any::<bool>()) {
        let profile = if spark {
            TraceProfile::facebook(Framework::Spark)
        } else {
            TraceProfile::bing(Framework::Hadoop)
        };
        let bound = if deadline_mode {
            BoundSpec::paper_deadlines()
        } else {
            BoundSpec::paper_errors()
        };
        let cfg = WorkloadConfig::new(profile).with_jobs(jobs).with_bound(bound);
        let generated = generate(&cfg, seed);
        prop_assert_eq!(generated.len(), jobs);
        for job in &generated {
            prop_assert!(job.validate().is_ok());
            match job.bound {
                Bound::Deadline(d) => prop_assert!(d > 0.0),
                Bound::Error(e) => prop_assert!((0.05..=0.30).contains(&e)),
            }
        }
    }

    /// The simulator never double-books a slot: at any completion, the total number of
    /// concurrently running copies never exceeded the cluster's slot count, which is
    /// implied by total slot-seconds <= slots × makespan.
    #[test]
    fn slot_seconds_never_exceed_capacity((work, epsilon, policy) in job_strategy()) {
        let sim = small_sim(29);
        let slots = sim.cluster.total_slots() as f64;
        let job = JobSpec::single_stage(1, 0.0, Bound::Error(epsilon), work);
        let factory = policy_for(policy);
        let result = run_simulation(&sim, vec![job], factory.as_ref());
        let total_slot_seconds: f64 = result.outcomes.iter().map(|o| o.slot_seconds).sum();
        prop_assert!(
            total_slot_seconds <= slots * result.makespan + 1e-6,
            "slot-seconds {} exceed capacity {}",
            total_slot_seconds,
            slots * result.makespan
        );
    }
}
