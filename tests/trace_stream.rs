//! Integration tests of the streaming decode layer: pull-based iterators yield
//! item-for-item exactly what eager decode returns (both formats, both stream
//! kinds), truncation errors carry the same byte offset / line number as the
//! eager path, the streaming converter is byte-identical to the eager one, and
//! `open_workload_source` prefix-loads behave exactly like an in-memory
//! recording.

use std::collections::BTreeMap;

use proptest::prelude::*;

use grass::prelude::*;

fn meta(policy: &str) -> WorkloadMeta {
    WorkloadMeta {
        generator_seed: 1,
        sim_seed: 2,
        policy: policy.to_string(),
        profile: "stream-test".to_string(),
        machines: 2,
        slots_per_machine: 2,
    }
}

fn exec_meta() -> ExecutionMeta {
    ExecutionMeta {
        sim_seed: 7,
        policy: "GS".into(),
        machines: 2,
        slots_per_machine: 2,
    }
}

/// A small recorded workload with heavy-tailed jobs (the realistic corpus).
fn recorded(jobs: usize) -> WorkloadTrace {
    let config = WorkloadConfig::new(TraceProfile::facebook(Framework::Spark))
        .with_jobs(jobs)
        .with_bound(BoundSpec::paper_errors());
    record_workload(&config, 21, 43, "GS", 4, 2)
}

/// A recorded execution stream exercising every event variant.
fn recorded_execution() -> ExecutionTrace {
    let trace = recorded(6);
    let sim = replay_config(&trace);
    let mut sink = VecSink::new();
    run_simulation_traced(&sim, trace.jobs.clone(), &GsFactory, &mut sink);
    ExecutionTrace::new(exec_meta(), sink.into_events())
}

#[test]
fn streamed_workload_items_match_eager_decode_exactly() {
    let trace = recorded(12);
    for format in TraceFormat::ALL {
        let bytes = trace.to_bytes_as(format);
        let eager = WorkloadTrace::from_bytes(&bytes).unwrap();

        let mut items = WorkloadItems::open(&bytes[..]).unwrap();
        assert_eq!(items.format(), format);
        assert_eq!(items.meta(), &eager.meta);
        assert_eq!(items.declared_jobs(), eager.jobs.len());
        for (i, expected) in eager.jobs.iter().enumerate() {
            let streamed = items.next().unwrap().unwrap();
            assert_eq!(&streamed, expected, "job {i} ({format})");
        }
        assert!(items.next().is_none(), "{format}");
    }
}

#[test]
fn streamed_execution_events_match_eager_decode_exactly() {
    let trace = recorded_execution();
    assert!(trace.events.len() > 20, "corpus too small to be meaningful");
    for format in TraceFormat::ALL {
        let bytes = trace.to_bytes_as(format);
        let eager = ExecutionTrace::from_bytes(&bytes).unwrap();
        let mut events = ExecutionEvents::open(&bytes[..]).unwrap();
        assert_eq!(events.meta(), &eager.meta);
        for (i, expected) in eager.events.iter().enumerate() {
            assert_eq!(&events.next().unwrap().unwrap(), expected, "event {i}");
        }
        assert!(events.next().is_none(), "{format}");
    }
}

/// Pull a streaming decoder to its end, returning either the collected items or
/// the first error (the streaming analogue of an eager decode attempt).
fn drain_workload(bytes: &[u8]) -> Result<(WorkloadMeta, Vec<JobSpec>), TraceError> {
    let mut items = WorkloadItems::open(bytes)?;
    let meta = items.meta().clone();
    let mut jobs = Vec::new();
    for job in &mut items {
        jobs.push(job?);
    }
    Ok((meta, jobs))
}

fn drain_execution(bytes: &[u8]) -> Result<Vec<SimTraceEvent>, TraceError> {
    let mut events = ExecutionEvents::open(bytes)?;
    let mut out = Vec::new();
    for event in &mut events {
        out.push(event?);
    }
    Ok(out)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Streaming decode of an arbitrary workload trace yields item-for-item what
    /// eager decode returns, in both formats.
    #[test]
    fn arbitrary_workloads_stream_identically_to_eager_decode(
        id in 0u64..1_000_000,
        arrival in 0.0f64..1e7,
        err in 0.0f64..0.99,
        stage_works in prop::collection::vec(
            prop::collection::vec(1e-9f64..1e9, 1..20),
            1..4,
        ),
        extra_jobs in 0usize..4,
    ) {
        let mut jobs = vec![JobSpec::multi_stage(id, arrival, Bound::Error(err), stage_works)];
        for extra in 0..extra_jobs {
            jobs.push(JobSpec::single_stage(
                id + 1 + extra as u64,
                arrival + extra as f64,
                Bound::EXACT,
                vec![1.0 + extra as f64, 2.5],
            ));
        }
        let trace = WorkloadTrace::new(meta("GRASS"), jobs);
        for format in TraceFormat::ALL {
            let bytes = trace.to_bytes_as(format);
            let eager = WorkloadTrace::from_bytes(&bytes).unwrap();
            let (streamed_meta, streamed_jobs) = drain_workload(&bytes).unwrap();
            prop_assert_eq!(&streamed_meta, &eager.meta);
            prop_assert_eq!(&streamed_jobs, &eager.jobs);
            for (a, b) in streamed_jobs.iter().zip(eager.jobs.iter()) {
                prop_assert_eq!(a.arrival.to_bits(), b.arrival.to_bits());
            }
        }
    }

    /// Truncating a workload trace at an arbitrary byte boundary makes streaming
    /// and eager decode fail identically — same error variant, same byte offset
    /// (binary) or line number (text), same message — or succeed identically
    /// (cuts that only shave a trailing newline).
    #[test]
    fn truncated_workloads_error_at_the_same_offset_as_eager_decode(
        jobs in 1usize..5,
        cut_fraction in 0.0f64..1.0,
    ) {
        let trace = WorkloadTrace::new(
            meta("GS"),
            (0..jobs)
                .map(|i| JobSpec::single_stage(i as u64, i as f64, Bound::EXACT, vec![1.0, 2.0]))
                .collect(),
        );
        for format in TraceFormat::ALL {
            let bytes = trace.to_bytes_as(format);
            let cut = ((bytes.len() as f64 * cut_fraction) as usize).min(bytes.len() - 1);
            let truncated = &bytes[..cut];
            let eager = WorkloadTrace::from_bytes(truncated);
            let streamed = drain_workload(truncated);
            match (&eager, &streamed) {
                (Err(e), Err(s)) => prop_assert_eq!(
                    format!("{e:?}"),
                    format!("{s:?}"),
                    "cut at {} of {} ({})", cut, bytes.len(), format
                ),
                (Ok(t), Ok((m, j))) => {
                    prop_assert_eq!(&t.meta, m);
                    prop_assert_eq!(&t.jobs, j);
                }
                _ => prop_assert!(
                    false,
                    "streaming and eager disagree at cut {}: eager {:?} vs streamed {:?}",
                    cut, eager.is_ok(), streamed.is_ok()
                ),
            }
        }
    }

    /// The same truncation identity for execution streams.
    #[test]
    fn truncated_executions_error_at_the_same_offset_as_eager_decode(
        events in 1usize..6,
        cut_fraction in 0.0f64..1.0,
    ) {
        let trace = ExecutionTrace::new(
            exec_meta(),
            (0..events)
                .map(|i| SimTraceEvent::CopyLaunch {
                    time: i as f64,
                    job: JobId(1),
                    task: TaskId(i as u32),
                    copy: 0,
                    slot: SlotId { machine: i, slot: 0 },
                    duration: 1.5,
                    speculative: i % 2 == 0,
                })
                .collect(),
        );
        for format in TraceFormat::ALL {
            let bytes = trace.to_bytes_as(format);
            let cut = ((bytes.len() as f64 * cut_fraction) as usize).min(bytes.len() - 1);
            let truncated = &bytes[..cut];
            let eager = ExecutionTrace::from_bytes(truncated);
            let streamed = drain_execution(truncated);
            match (&eager, &streamed) {
                (Err(e), Err(s)) => prop_assert_eq!(
                    format!("{e:?}"),
                    format!("{s:?}"),
                    "cut at {} of {} ({})", cut, bytes.len(), format
                ),
                (Ok(t), Ok(ev)) => prop_assert_eq!(&t.events, ev),
                _ => prop_assert!(
                    false,
                    "streaming and eager disagree at cut {}: eager {:?} vs streamed {:?}",
                    cut, eager.is_ok(), streamed.is_ok()
                ),
            }
        }
    }
}

#[test]
fn streaming_convert_is_byte_identical_to_eager_convert() {
    let workload = recorded(10);
    let execution = recorded_execution();
    for from in TraceFormat::ALL {
        for to in TraceFormat::ALL {
            let input = workload.to_bytes_as(from);
            let mut streamed = Vec::new();
            let (sniffed, kind) = convert_stream(&input[..], &mut streamed, to).unwrap();
            assert_eq!(sniffed, from);
            assert_eq!(kind, StreamKind::Workload);
            assert_eq!(streamed, workload.to_bytes_as(to), "workload {from}->{to}");

            let input = execution.to_bytes_as(from);
            let mut streamed = Vec::new();
            let (sniffed, kind) = convert_stream(&input[..], &mut streamed, to).unwrap();
            assert_eq!(sniffed, from);
            assert_eq!(kind, StreamKind::Execution);
            assert_eq!(
                streamed,
                execution.to_bytes_as(to),
                "execution {from}->{to}"
            );
        }
    }
}

#[test]
fn streamed_stats_match_decoded_trace_stats() {
    let workload = recorded(8);
    let jobs = &workload.jobs;
    let workload_stats = TraceStats {
        format: TraceFormat::Text,
        kind: StreamKind::Workload,
        jobs: jobs.len(),
        tasks: jobs.iter().map(JobSpec::total_tasks).sum(),
        records_by_tag: BTreeMap::from([("job".to_string(), jobs.len()), ("meta".to_string(), 1)]),
        total_work: jobs.iter().fold(0.0, |sum, j| sum + j.total_work()),
        horizon: jobs.iter().fold(0.0, |max, j| f64::max(max, j.arrival)),
    };

    let execution = recorded_execution();
    let events = &execution.events;
    let mut records_by_tag = BTreeMap::from([("meta".to_string(), 1)]);
    for event in events {
        *records_by_tag
            .entry(event.kind_label().to_string())
            .or_insert(0) += 1;
    }
    let execution_stats = TraceStats {
        format: TraceFormat::Text,
        kind: StreamKind::Execution,
        jobs: events
            .iter()
            .filter(|e| matches!(e, SimTraceEvent::JobFinish { .. }))
            .count(),
        tasks: events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    SimTraceEvent::CopyFinish {
                        task_completed: true,
                        ..
                    }
                )
            })
            .count(),
        records_by_tag,
        total_work: events.iter().fold(0.0, |sum, e| match e {
            SimTraceEvent::CopyLaunch { duration, .. } => sum + duration,
            _ => sum,
        }),
        horizon: events.iter().fold(0.0, |max, e| f64::max(max, e.time())),
    };

    for format in TraceFormat::ALL {
        for (bytes, expected) in [
            (workload.to_bytes_as(format), &workload_stats),
            (execution.to_bytes_as(format), &execution_stats),
        ] {
            let streamed = TraceStats::from_bytes(&bytes).unwrap();
            assert_eq!(streamed.format, format);
            assert_eq!(
                &TraceStats {
                    format: TraceFormat::Text,
                    ..streamed
                },
                expected
            );
        }
    }
}

#[test]
fn open_workload_source_prefix_loads_like_an_in_memory_recording() {
    let dir = std::env::temp_dir().join(format!("grass-trace-stream-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let trace = recorded(10);
    for format in TraceFormat::ALL {
        let path = dir.join(format!("workload-{format}.trace"));
        trace.save_as(&path, format).unwrap();

        let (meta, streamed) = open_workload_source(&path).unwrap();
        assert_eq!(meta, trace.meta);
        assert_eq!(streamed.total_jobs(), trace.jobs.len());
        assert_eq!(streamed.label(), trace.meta.profile);

        let eager = trace.to_source();
        assert_eq!(streamed.deadline_bound(), eager.deadline_bound());
        assert_eq!(streamed.jobs(3), eager.jobs(3));
        // Warm-up prefixes match the in-memory semantics (ceil, min 4, capped).
        for fraction in [0.1, 0.5, 1.0, 3.0] {
            assert_eq!(
                streamed.warmup_jobs(fraction, 9),
                eager.warmup_jobs(fraction, 9),
                "fraction {fraction} ({format})"
            );
        }
    }

    // A corrupt trace fails at open (the validation pass), not mid-experiment:
    // dropping the whole last job line leaves 9 jobs against a meta declaring 10.
    let bad = dir.join("corrupt.trace");
    let mut bytes = trace.to_bytes();
    let cut = bytes[..bytes.len() - 2]
        .iter()
        .rposition(|&b| b == b'\n')
        .unwrap()
        + 1;
    bytes.truncate(cut);
    std::fs::write(&bad, &bytes).unwrap();
    let err = open_workload_source(&bad).unwrap_err();
    assert!(err.to_string().contains("declares"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweeping_a_streamed_source_matches_the_recorded_source() {
    let dir = std::env::temp_dir().join(format!("grass-sweep-stream-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let trace = recorded(8);
    let path = dir.join("workload.trace");
    trace.save_as(&path, TraceFormat::Binary).unwrap();

    let mut base = ExpConfig::tiny();
    base.jobs_per_run = trace.jobs.len();
    let grid = SweepConfig {
        machines: vec![6, 10],
        policies: vec![PolicyKind::Late, PolicyKind::GsOnly],
        baseline: PolicyKind::Late,
        threads: 2,
        base,
    };

    let (_, streamed) = open_workload_source(&path).unwrap();
    let from_stream = run_sweep(&streamed, &grid);
    let from_memory = run_sweep(&trace.to_source(), &grid);
    assert_eq!(from_stream.digest(), from_memory.digest());
    let _ = std::fs::remove_dir_all(&dir);
}
