//! Integration tests of the pluggable trace-format layer: strict binary (v2)
//! decode errors mirroring the text corrupt-input suite, property-based
//! cross-format identity (every conversion cycle between text, binary and
//! compressed is byte-identical), and replay equivalence — a workload replayed
//! from any format produces bit-identical `JobOutcome` digests. The
//! compressed-specific corrupt-input suite lives in `trace_compressed.rs`.

use proptest::prelude::*;

use grass::prelude::*;
use grass::trace::binary::MAX_FRAME_LEN;

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

fn sample_workload_bytes() -> Vec<u8> {
    WorkloadTrace::new(
        meta("GS"),
        vec![JobSpec::single_stage(1, 0.0, Bound::EXACT, vec![1.0, 2.0])],
    )
    .to_bytes_as(TraceFormat::Binary)
}

/// Append one raw frame (length prefix + body) to a binary trace.
fn push_frame(bytes: &mut Vec<u8>, body: &[u8]) {
    let mut len = body.len() as u64;
    loop {
        let byte = (len & 0x7F) as u8;
        len >>= 7;
        if len == 0 {
            bytes.push(byte);
            break;
        }
        bytes.push(byte | 0x80);
    }
    bytes.extend_from_slice(body);
}

#[test]
fn truncated_binary_frames_name_their_byte_offset() {
    let good = sample_workload_bytes();
    assert!(WorkloadTrace::from_bytes(&good).is_ok());

    // Cut the stream in the middle of the final frame: the error must say
    // "truncated" and carry the byte offset the frame body started at.
    let err = WorkloadTrace::from_bytes(&good[..good.len() - 5]).unwrap_err();
    match &err {
        TraceError::Frame { offset, message } => {
            assert!(message.contains("truncated"), "{err}");
            assert!(*offset > 14, "{err}");
        }
        other => panic!("expected Frame error, got {other:?}"),
    }
    assert!(err.to_string().contains("byte offset"), "{err}");

    // Cutting inside the header is a magic failure, same as the text path.
    assert!(matches!(
        WorkloadTrace::from_bytes(&good[..7]),
        Err(TraceError::BadMagic)
    ));
}

#[test]
fn bad_magic_and_unsupported_versions_are_rejected() {
    let mut bytes = sample_workload_bytes();
    bytes[5] ^= 0x20;
    assert!(matches!(
        WorkloadTrace::from_bytes(&bytes),
        Err(TraceError::BadMagic)
    ));

    // Byte 12 is the binary header's version.
    let mut bytes = sample_workload_bytes();
    bytes[12] = 9;
    match WorkloadTrace::from_bytes(&bytes) {
        Err(TraceError::UnsupportedVersion(9)) => {}
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn unknown_binary_tags_are_rejected_with_their_offset() {
    let mut bytes = sample_workload_bytes();
    let tag_offset = bytes.len() as u64 + 1; // +1 for the length prefix
    push_frame(&mut bytes, &[0x7F, 1, 2, 3]);
    let err = WorkloadTrace::from_bytes(&bytes).unwrap_err();
    match &err {
        TraceError::Frame { offset, message } => {
            assert!(message.contains("unknown frame tag 0x7f"), "{err}");
            assert_eq!(*offset, tag_offset, "{err}");
        }
        other => panic!("expected Frame error, got {other:?}"),
    }
}

#[test]
fn oversized_frame_lengths_are_rejected_before_allocation() {
    let mut bytes = sample_workload_bytes();
    let frame_offset = bytes.len() as u64;
    // A length prefix declaring one byte over the cap, with no body at all: the
    // reader must fail on the length itself, not try to allocate or read it.
    let mut len = MAX_FRAME_LEN + 1;
    while len > 0 {
        let byte = (len & 0x7F) as u8;
        len >>= 7;
        bytes.push(if len > 0 { byte | 0x80 } else { byte });
    }
    let err = WorkloadTrace::from_bytes(&bytes).unwrap_err();
    match &err {
        TraceError::Frame { offset, message } => {
            assert!(message.contains("overflows"), "{err}");
            assert_eq!(*offset, frame_offset, "{err}");
        }
        other => panic!("expected Frame error, got {other:?}"),
    }
}

#[test]
fn binary_stream_kinds_and_job_counts_are_checked() {
    // A binary execution header refuses a workload read and vice versa.
    let exec = ExecutionTrace::new(
        ExecutionMeta {
            sim_seed: 0,
            policy: "GS".into(),
            machines: 1,
            slots_per_machine: 1,
        },
        vec![],
    )
    .to_bytes_as(TraceFormat::Binary);
    assert!(matches!(
        WorkloadTrace::from_bytes(&exec),
        Err(TraceError::WrongStream { .. })
    ));

    // A meta frame declaring more jobs than the stream carries is rejected, like
    // the text codec's truncation check.
    let mut bytes = Vec::new();
    let mut codec = codec_for(TraceFormat::Binary);
    let job = JobSpec::single_stage(1, 0.0, Bound::EXACT, vec![1.0]);
    codec
        .begin_workload(&mut bytes, &meta("GS"), 2)
        .and_then(|()| codec.encode_job(&mut bytes, &job))
        .and_then(|()| codec.finish(&mut bytes))
        .unwrap();
    let err = WorkloadTrace::from_bytes(&bytes).unwrap_err();
    assert!(err.to_string().contains("declares 2 jobs"), "{err}");

    // Trailing bytes inside a frame are a schema mismatch, not silently ignored.
    let mut bytes = exec.clone();
    push_frame(&mut bytes, &[0x10, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0xAB]);
    let err = ExecutionTrace::from_bytes(&bytes).unwrap_err();
    assert!(err.to_string().contains("trailing"), "{err}");
}

#[test]
fn corrupt_lengths_fail_cleanly_instead_of_panicking() {
    // Binary: a string-length varint of u64::MAX inside the meta frame must be
    // a TraceError (the cursor compares against the bytes remaining), not an
    // arithmetic-overflow or inverted-slice panic.
    let mut bytes = b"grass-trace\0\x02\x00".to_vec();
    let mut body = vec![0x01u8, 0, 0]; // meta tag, generator_seed=0, sim_seed=0
    body.extend_from_slice(&[0xFF; 9]);
    body.push(0x01); // 10-byte LEB128 varint = u64::MAX as the policy length
    push_frame(&mut bytes, &body);
    let err = WorkloadTrace::from_bytes(&bytes).unwrap_err();
    assert!(err.to_string().contains("byte offset"), "{err}");

    // Text: an absurd num_jobs declaration must fail the job-count check, not
    // abort inside Vec::with_capacity.
    let text = b"grass-trace 1 workload\n\
        meta generator_seed=0 sim_seed=0 policy=GS profile=x machines=1 \
        slots_per_machine=1 num_jobs=18446744073709551615\n";
    let err = WorkloadTrace::from_bytes(&text[..]).unwrap_err();
    assert!(err.to_string().contains("declares"), "{err}");

    // Text event decoding is as strict as binary about task-id width: a task id
    // past u32::MAX is an error, not a silent truncation to TaskId(0).
    let text = b"grass-trace 1 execution\n\
        meta sim_seed=0 policy=GS machines=1 slots_per_machine=1\n\
        decide t=0 job=1 task=4294967296 kind=launch\n";
    let err = ExecutionTrace::from_bytes(&text[..]).unwrap_err();
    assert!(err.to_string().contains("overflows u32"), "{err}");
}

#[test]
fn corrupt_binary_jobs_fail_validation_like_text() {
    // NaN task work survives the raw-bits decode but must die in validation,
    // exactly as the text codec's degenerate-value check does.
    let mut trace = WorkloadTrace::new(
        meta("GS"),
        vec![JobSpec::single_stage(1, 0.0, Bound::EXACT, vec![1.0, 2.0])],
    );
    trace.jobs[0].tasks[1].work = f64::NAN;
    let bytes = trace.to_bytes_as(TraceFormat::Binary);
    let err = WorkloadTrace::from_bytes(&bytes).unwrap_err();
    assert!(err.to_string().contains("invalid"), "{err}");

    // Stage task counts whose sum overflows usize fail validation, not a panic.
    let mut job = JobSpec::multi_stage(1, 0.0, Bound::EXACT, vec![vec![1.0], vec![]]);
    job.stages[0].task_count = usize::MAX;
    job.stages[1].task_count = 2;
    let bytes = WorkloadTrace::new(meta("GS"), vec![job]).to_bytes_as(TraceFormat::Binary);
    let err = WorkloadTrace::from_bytes(&bytes).unwrap_err();
    assert!(err.to_string().contains("invalid"), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Cross-format identity for workload traces: decode(text) == decode(binary)
    /// as values, and both conversion cycles are byte-identical.
    #[test]
    fn workload_cross_format_round_trips_are_identical(
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
        let trace = WorkloadTrace::new(meta("GRASS"), vec![job]);

        let text = trace.to_bytes_as(TraceFormat::Text);
        let binary = trace.to_bytes_as(TraceFormat::Binary);
        let compressed = trace.to_bytes_as(TraceFormat::Compressed);
        let from_text = WorkloadTrace::from_bytes(&text).unwrap();
        let from_binary = WorkloadTrace::from_bytes(&binary).unwrap();
        let from_compressed = WorkloadTrace::from_bytes(&compressed).unwrap();

        // Value identity across formats, including bit-exact floats.
        prop_assert_eq!(&from_text, &from_binary);
        prop_assert_eq!(&from_text, &from_compressed);
        prop_assert_eq!(
            from_text.jobs[0].arrival.to_bits(),
            from_binary.jobs[0].arrival.to_bits()
        );
        for (a, b) in from_text.jobs[0].tasks.iter().zip(from_binary.jobs[0].tasks.iter()) {
            prop_assert_eq!(a.work.to_bits(), b.work.to_bits());
        }

        // Every conversion cycle reproduces the canonical bytes exactly.
        prop_assert_eq!(from_binary.to_bytes_as(TraceFormat::Text), text);
        prop_assert_eq!(from_text.to_bytes_as(TraceFormat::Binary), binary.as_slice());
        prop_assert_eq!(from_text.to_bytes_as(TraceFormat::Compressed), compressed.as_slice());
        prop_assert_eq!(from_compressed.to_bytes_as(TraceFormat::Binary), binary);
        prop_assert_eq!(from_binary.to_bytes_as(TraceFormat::Compressed), compressed);
    }

    /// Cross-format identity for execution traces over every event variant.
    #[test]
    fn execution_cross_format_round_trips_are_identical(
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
        let text = trace.to_bytes_as(TraceFormat::Text);
        let binary = trace.to_bytes_as(TraceFormat::Binary);
        let compressed = trace.to_bytes_as(TraceFormat::Compressed);
        let from_text = ExecutionTrace::from_bytes(&text).unwrap();
        let from_binary = ExecutionTrace::from_bytes(&binary).unwrap();
        let from_compressed = ExecutionTrace::from_bytes(&compressed).unwrap();
        prop_assert_eq!(&from_text, &from_binary);
        prop_assert_eq!(&from_text, &from_compressed);
        prop_assert_eq!(from_binary.to_bytes_as(TraceFormat::Text), text);
        prop_assert_eq!(from_text.to_bytes_as(TraceFormat::Binary), binary.as_slice());
        prop_assert_eq!(from_compressed.to_bytes_as(TraceFormat::Binary), binary);
        prop_assert_eq!(from_binary.to_bytes_as(TraceFormat::Compressed), compressed);
    }
}

#[test]
fn replay_from_either_format_yields_bit_identical_digests() {
    let config = WorkloadConfig::new(TraceProfile::facebook(Framework::Spark))
        .with_jobs(8)
        .with_bound(BoundSpec::paper_errors());
    let trace = record_workload(&config, 21, 43, "GRASS", 4, 4);
    let sim = replay_config(&trace);

    let original = replay(&trace, &sim, &GrassFactory::new(sim.seed));
    let from_text = WorkloadTrace::from_bytes(&trace.to_bytes_as(TraceFormat::Text)).unwrap();
    let from_binary = WorkloadTrace::from_bytes(&trace.to_bytes_as(TraceFormat::Binary)).unwrap();
    let from_compressed =
        WorkloadTrace::from_bytes(&trace.to_bytes_as(TraceFormat::Compressed)).unwrap();
    let text_result = replay(&from_text, &sim, &GrassFactory::new(sim.seed));
    let binary_result = replay(&from_binary, &sim, &GrassFactory::new(sim.seed));
    let compressed_result = replay(&from_compressed, &sim, &GrassFactory::new(sim.seed));

    assert_eq!(outcome_digest(&original), outcome_digest(&text_result));
    assert_eq!(outcome_digest(&original), outcome_digest(&binary_result));
    assert_eq!(
        outcome_digest(&original),
        outcome_digest(&compressed_result)
    );
    assert_eq!(
        text_result.makespan.to_bits(),
        binary_result.makespan.to_bits()
    );
    assert_eq!(text_result.outcomes, binary_result.outcomes);
}

#[test]
fn golden_fixtures_convert_to_binary_and_back_byte_identically() {
    // The pinned v1 fixtures pushed through the new format layer: text -> binary
    // -> text must reproduce the committed bytes exactly (v1 is frozen).
    let workload_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/golden_workload.trace"
    );
    let text = std::fs::read(workload_path).unwrap();
    let decoded = WorkloadTrace::from_bytes(&text).unwrap();
    let binary = decoded.to_bytes_as(TraceFormat::Binary);
    let back = WorkloadTrace::from_bytes(&binary).unwrap();
    assert_eq!(back, decoded);
    assert_eq!(back.to_bytes_as(TraceFormat::Text), text);
    let compressed = decoded.to_bytes_as(TraceFormat::Compressed);
    let back = WorkloadTrace::from_bytes(&compressed).unwrap();
    assert_eq!(back, decoded);
    assert_eq!(back.to_bytes_as(TraceFormat::Text), text);

    let execution_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/golden_execution.trace"
    );
    let text = std::fs::read(execution_path).unwrap();
    let decoded = ExecutionTrace::from_bytes(&text).unwrap();
    let back = ExecutionTrace::from_bytes(&decoded.to_bytes_as(TraceFormat::Binary)).unwrap();
    assert_eq!(back, decoded);
    assert_eq!(back.to_bytes_as(TraceFormat::Text), text);
}
