//! Integration tests of the `grass-trace` subsystem: property-based codec
//! round-trips, corrupt-input and version rejection, the pinned golden fixtures,
//! and the end-to-end record→replay determinism guarantee.

use proptest::prelude::*;

use grass::prelude::*;

fn meta(policy: &str) -> WorkloadMeta {
    WorkloadMeta {
        generator_seed: 1,
        sim_seed: 2,
        policy: policy.to_string(),
        profile: "test".to_string(),
        machines: 2,
        slots_per_machine: 2,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn workload_records_round_trip(
        id in 0u64..1_000_000,
        arrival in 0.0f64..1e7,
        err in 0.0f64..0.99,
        deadline in 1e-6f64..1e6,
        use_deadline in any::<bool>(),
        stage_works in prop::collection::vec(
            prop::collection::vec(1e-9f64..1e9, 1..30),
            1..4,
        ),
    ) {
        let bound = if use_deadline {
            Bound::Deadline(deadline)
        } else {
            Bound::Error(err)
        };
        let job = JobSpec::multi_stage(id, arrival, bound, stage_works);
        prop_assert!(job.validate().is_ok());
        let trace = WorkloadTrace::new(meta("GRASS"), vec![job.clone()]);
        let decoded = WorkloadTrace::from_bytes(&trace.to_bytes()).unwrap();
        // Identity round trip, including bit-exact floats.
        prop_assert_eq!(&decoded.jobs, &trace.jobs);
        prop_assert_eq!(decoded.jobs[0].arrival.to_bits(), job.arrival.to_bits());
        for (a, b) in decoded.jobs[0].tasks.iter().zip(job.tasks.iter()) {
            prop_assert_eq!(a.work.to_bits(), b.work.to_bits());
        }
        // Canonical encoding: encode(decode(x)) == x.
        prop_assert_eq!(decoded.to_bytes(), trace.to_bytes());
    }

    #[test]
    fn execution_records_round_trip(
        variant in 0usize..6,
        t in 0.0f64..1e7,
        job in 0u64..10_000,
        task in 0u32..100_000,
        copy in 0u64..1_000_000_000,
        machine in 0usize..1000,
        slot in 0usize..16,
        duration in 1e-9f64..1e6,
        speculate in any::<bool>(),
        counts in (0usize..5000, 0usize..5000),
    ) {
        let job = JobId(job);
        let task = TaskId(task);
        let slot = SlotId { machine, slot };
        let event = match variant {
            0 => SimTraceEvent::JobArrival { time: t, job },
            1 => SimTraceEvent::Decision {
                time: t,
                job,
                task,
                kind: if speculate { ActionKind::Speculate } else { ActionKind::Launch },
            },
            2 => SimTraceEvent::CopyLaunch {
                time: t, job, task, copy, slot, duration, speculative: speculate,
            },
            3 => SimTraceEvent::CopyFinish {
                time: t, job, task, copy, task_completed: speculate,
            },
            4 => SimTraceEvent::CopyKill { time: t, job, task, copy, slot },
            _ => SimTraceEvent::JobFinish {
                time: t,
                job,
                completed_input: counts.0,
                completed_total: counts.1,
            },
        };
        let trace = ExecutionTrace::new(
            ExecutionMeta {
                sim_seed: 7,
                policy: "GS".into(),
                machines: 2,
                slots_per_machine: 2,
            },
            vec![event],
        );
        let decoded = ExecutionTrace::from_bytes(&trace.to_bytes()).unwrap();
        prop_assert_eq!(&decoded, &trace);
        prop_assert_eq!(decoded.events[0].time().to_bits(), t.to_bits());
    }
}

#[test]
fn corrupt_and_mismatched_inputs_are_rejected() {
    let good = WorkloadTrace::new(
        meta("GS"),
        vec![JobSpec::single_stage(1, 0.0, Bound::EXACT, vec![1.0, 2.0])],
    )
    .to_bytes();
    assert!(WorkloadTrace::from_bytes(&good).is_ok());

    // Future format versions must be rejected, not misparsed.
    let future =
        String::from_utf8(good.clone())
            .unwrap()
            .replacen("grass-trace 1 ", "grass-trace 2 ", 1);
    match WorkloadTrace::from_bytes(future.as_bytes()) {
        Err(TraceError::UnsupportedVersion(2)) => {}
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }

    // Foreign files are rejected on the magic.
    assert!(matches!(
        WorkloadTrace::from_bytes(b"{\"not\": \"a trace\"}"),
        Err(TraceError::BadMagic)
    ));

    // A workload reader refuses an execution stream and vice versa.
    assert!(matches!(
        WorkloadTrace::from_bytes(b"grass-trace 1 execution\n"),
        Err(TraceError::WrongStream { .. })
    ));

    // Flipping a digit of a numeric field into junk is caught.
    let corrupt = String::from_utf8(good.clone())
        .unwrap()
        .replacen("arrival=0", "arrival=zero", 1);
    assert!(matches!(
        WorkloadTrace::from_bytes(corrupt.as_bytes()),
        Err(TraceError::Parse { .. })
    ));

    // Truncating the job list contradicts the declared count.
    let mut truncated = good.clone();
    let last_line_start = {
        let without_trailing = &truncated[..truncated.len() - 1];
        without_trailing.iter().rposition(|&b| b == b'\n').unwrap() + 1
    };
    truncated.truncate(last_line_start);
    assert!(WorkloadTrace::from_bytes(&truncated).is_err());

    // Unknown record tags are rejected.
    let mut with_junk = String::from_utf8(good).unwrap();
    with_junk.push_str("wormhole to=elsewhere\n");
    assert!(matches!(
        WorkloadTrace::from_bytes(with_junk.as_bytes()),
        Err(TraceError::Parse { .. })
    ));

    // Stage task counts whose sum overflows usize fail validation, not a panic.
    let mut job = JobSpec::multi_stage(1, 0.0, Bound::EXACT, vec![vec![1.0], vec![]]);
    job.stages[0].task_count = usize::MAX;
    job.stages[1].task_count = 2;
    let bytes = WorkloadTrace::new(meta("GS"), vec![job]).to_bytes();
    let err = WorkloadTrace::from_bytes(&bytes).unwrap_err();
    assert!(err.to_string().contains("invalid"), "{err}");
}

#[test]
fn golden_workload_fixture_is_stable() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/golden_workload.trace"
    );
    let bytes = std::fs::read(path).expect("golden workload fixture exists");
    let trace = WorkloadTrace::from_bytes(&bytes).expect("golden workload decodes");

    // Pinned semantics of the fixture (recorded once; any codec change that breaks
    // decoding of previously written traces must bump FORMAT_VERSION instead).
    assert_eq!(trace.meta.generator_seed, 13);
    assert_eq!(trace.meta.sim_seed, 42);
    assert_eq!(trace.meta.profile, "Facebook-Spark");
    assert_eq!(trace.meta.machines, 4);
    assert_eq!(trace.meta.slots_per_machine, 2);
    assert_eq!(trace.jobs.len(), 3);
    assert!(trace.jobs.iter().all(|j| j.validate().is_ok()));

    // Canonical encoding: re-encoding reproduces the committed bytes exactly.
    assert_eq!(trace.to_bytes(), bytes);

    // Replaying the golden workload reproduces the pinned outcomes bit-exactly.
    let sim = replay_config(&trace);
    let result = replay(&trace, &sim, &GsFactory);
    assert_eq!(result.total_copies, 240);
    assert_eq!(format!("{}", result.makespan), "104.64554786828928");
    let first = &result.outcomes[0];
    assert_eq!(first.job, JobId(0));
    assert_eq!(first.completed_input_tasks, 15);
    assert_eq!(format!("{}", first.finish), "38.735788284596985");
}

#[test]
fn golden_execution_fixture_is_stable() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/golden_execution.trace"
    );
    let bytes = std::fs::read(path).expect("golden execution fixture exists");
    let trace = ExecutionTrace::from_bytes(&bytes).expect("golden execution decodes");
    assert_eq!(trace.meta.policy, "GS");
    assert_eq!(trace.meta.sim_seed, 42);
    assert_eq!(trace.to_bytes(), bytes);

    let stats = TraceStats::from_bytes(&bytes).unwrap();
    assert_eq!(stats.jobs, 3);
    assert_eq!(stats.records_by_tag["launch"], 240);

    // The recorded event stream must agree with an in-memory re-capture of the
    // same run: decode the sibling workload fixture, re-run it traced, compare.
    let workload = WorkloadTrace::load(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/golden_workload.trace"
    ))
    .unwrap();
    let sim = replay_config(&workload);
    let mut sink = VecSink::new();
    run_simulation_traced(&sim, workload.jobs.clone(), &GsFactory, &mut sink);
    assert_eq!(sink.into_events(), trace.events);
}

#[test]
fn record_replay_round_trip_through_files_is_deterministic() {
    let dir = std::env::temp_dir().join(format!("grass-roundtrip-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("workload.trace");

    let workload = WorkloadConfig::new(TraceProfile::facebook(Framework::Spark))
        .with_jobs(10)
        .with_bound(BoundSpec::paper_deadlines());
    let trace = record_workload(&workload, 5, 17, "GRASS", 5, 4);
    trace.save(&path).unwrap();

    let sim = replay_config(&trace);
    let original = replay(&trace, &sim, &GrassFactory::new(sim.seed));

    let reloaded = WorkloadTrace::load(&path).unwrap();
    assert_eq!(reloaded, trace);
    let replayed = replay(&reloaded, &sim, &GrassFactory::new(sim.seed));

    assert_eq!(original.outcomes, replayed.outcomes);
    assert_eq!(original.total_copies, replayed.total_copies);
    assert_eq!(original.makespan.to_bits(), replayed.makespan.to_bits());

    // The digest the CLI diff relies on is therefore byte-identical too.
    assert_eq!(outcome_digest(&original), outcome_digest(&replayed));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recorded_workload_source_feeds_the_simulator() {
    let workload = WorkloadConfig::new(TraceProfile::bing(Framework::Spark))
        .with_jobs(5)
        .with_bound(BoundSpec::paper_errors());
    let trace = record_workload(&workload, 3, 9, "GS", 4, 2);
    let source = trace.to_source();
    // A recorded source ignores the seed: both runs see the same jobs.
    let sim = replay_config(&trace);
    let a = run_simulation(&sim, source.jobs(0), &GsFactory);
    let b = run_simulation(&sim, source.jobs(999), &GsFactory);
    assert_eq!(a.outcomes, b.outcomes);
    assert_eq!(source.label(), "Bing-Spark");
}
