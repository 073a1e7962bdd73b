//! Integration tests of the compressed (v3) trace format: the block-level
//! corrupt-input suite mirroring the v2 one in `trace_formats.rs`, the
//! dual offset convention (block-level defects name absolute file offsets,
//! frame-level defects name decompressed-stream offsets — see
//! `docs/trace-formats.md`), exhaustive truncation, and the compression-ratio
//! demonstration on a corpus whose entropy actually permits compression.

use grass::prelude::*;
use grass::trace::binary::MAX_FRAME_LEN;

/// Size of the fixed v3 header: `"grass-trace" 0x00 version kind`.
const HEADER_LEN: usize = 14;

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

fn sample_workload_v3() -> Vec<u8> {
    WorkloadTrace::new(
        meta("GS"),
        vec![JobSpec::single_stage(1, 0.0, Bound::EXACT, vec![1.0, 2.0])],
    )
    .to_bytes_as(TraceFormat::Compressed)
}

/// A bare v3 workload header with no blocks after it.
fn v3_header() -> Vec<u8> {
    let mut bytes = b"grass-trace\0".to_vec();
    bytes.push(COMPRESSED_FORMAT_VERSION as u8);
    bytes.push(0); // StreamKind::Workload
    assert_eq!(bytes.len(), HEADER_LEN);
    bytes
}

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Append one raw v3 block (`raw_len comp_len payload`) verbatim.
fn push_block(bytes: &mut Vec<u8>, raw_len: u64, comp_len: u64, payload: &[u8]) {
    put_varint(bytes, raw_len);
    put_varint(bytes, comp_len);
    bytes.extend_from_slice(payload);
}

fn frame_error(err: &TraceError) -> (u64, &str) {
    match err {
        TraceError::Frame { offset, message } => (*offset, message.as_str()),
        other => panic!("expected Frame error, got {other:?}"),
    }
}

#[test]
fn compressed_round_trip_is_sniffed_and_decoded() {
    let bytes = sample_workload_v3();
    assert_eq!(
        sniff_bytes(&bytes).unwrap(),
        (TraceFormat::Compressed, StreamKind::Workload)
    );
    let decoded = WorkloadTrace::from_bytes(&bytes).unwrap();
    assert_eq!(decoded.jobs.len(), 1);
    assert_eq!(decoded.to_bytes_as(TraceFormat::Compressed), bytes);
}

#[test]
fn zero_raw_length_blocks_are_rejected_at_their_file_offset() {
    // Block-level defect: the offset is the absolute file offset of the block's
    // length prefixes — here the first byte after the 14-byte header.
    let mut bytes = v3_header();
    put_varint(&mut bytes, 0);
    let err = WorkloadTrace::from_bytes(&bytes).unwrap_err();
    let (offset, message) = frame_error(&err);
    assert!(message.contains("zero raw length"), "{err}");
    assert_eq!(offset, HEADER_LEN as u64, "{err}");
}

#[test]
fn oversized_block_lengths_are_rejected_before_allocation() {
    // MAX_BLOCK_LEN is MAX_FRAME_LEN + 16 (one target block plus one maximal
    // frame); anything larger must fail on the declared length alone.
    let mut bytes = v3_header();
    put_varint(&mut bytes, MAX_FRAME_LEN + 17);
    let err = WorkloadTrace::from_bytes(&bytes).unwrap_err();
    let (offset, message) = frame_error(&err);
    assert!(message.contains("overflows"), "{err}");
    assert_eq!(offset, HEADER_LEN as u64, "{err}");
}

#[test]
fn comp_len_exceeding_raw_len_is_rejected_at_the_comp_len_offset() {
    // raw_len=5 is one varint byte, so comp_len sits at file offset 15.
    let mut bytes = v3_header();
    push_block(&mut bytes, 5, 6, &[0; 6]);
    let err = WorkloadTrace::from_bytes(&bytes).unwrap_err();
    let (offset, message) = frame_error(&err);
    assert!(message.contains("exceeds its raw length 5"), "{err}");
    assert_eq!(offset, HEADER_LEN as u64 + 1, "{err}");
}

#[test]
fn truncated_block_payloads_name_the_payload_file_offset() {
    // comp_len declares 10 payload bytes but only 5 exist: the error anchors at
    // the payload's absolute file offset (14 header + 2 length varints = 16).
    let mut bytes = v3_header();
    push_block(&mut bytes, 50, 10, &[0; 5]);
    let err = WorkloadTrace::from_bytes(&bytes).unwrap_err();
    let (offset, message) = frame_error(&err);
    assert!(message.contains("truncated block"), "{err}");
    assert!(message.contains("declares 10 bytes"), "{err}");
    assert_eq!(offset, HEADER_LEN as u64 + 2, "{err}");
}

#[test]
fn corrupt_lz_payloads_name_the_payload_file_offset() {
    // comp_len < raw_len marks an LZ payload; 0xFF opens a literal run longer
    // than the payload, so decompression must fail cleanly at the payload's
    // file offset rather than panic or return short output.
    let mut bytes = v3_header();
    push_block(&mut bytes, 100, 4, &[0xFF, 0x00, 0x00, 0x00]);
    let err = WorkloadTrace::from_bytes(&bytes).unwrap_err();
    let (offset, message) = frame_error(&err);
    assert!(message.contains("corrupt compressed block"), "{err}");
    assert_eq!(offset, HEADER_LEN as u64 + 2, "{err}");
}

#[test]
fn frames_may_not_straddle_blocks_and_errors_use_decompressed_offsets() {
    // A stored block whose one frame declares 10 body bytes with only 3 left in
    // the block. Frame-level defect: the offset is in the *decompressed* frame
    // stream — header (14) + 1 prefix byte = 15 — not the file offset of the
    // payload byte (17).
    let mut bytes = v3_header();
    push_block(&mut bytes, 4, 4, &[0x0A, 1, 2, 3]);
    let err = WorkloadTrace::from_bytes(&bytes).unwrap_err();
    let (offset, message) = frame_error(&err);
    assert!(message.contains("truncated frame"), "{err}");
    assert!(message.contains("its block has 3 left"), "{err}");
    assert_eq!(offset, HEADER_LEN as u64 + 1, "{err}");
}

#[test]
fn unknown_frame_tags_are_rejected_with_their_decompressed_offset() {
    // Append a stored block carrying one bogus frame to a valid trace. The
    // decompressed-stream offset of the tag is the header plus every previous
    // block's raw length plus this frame's 1-byte length prefix.
    let mut bytes = sample_workload_v3();
    let mut decompressed_len = HEADER_LEN as u64;
    let mut pos = HEADER_LEN;
    while pos < bytes.len() {
        let mut raw_len = 0u64;
        let mut shift = 0;
        loop {
            let byte = bytes[pos];
            pos += 1;
            raw_len |= u64::from(byte & 0x7F) << shift;
            shift += 7;
            if byte & 0x80 == 0 {
                break;
            }
        }
        let mut comp_len = 0u64;
        let mut shift = 0;
        loop {
            let byte = bytes[pos];
            pos += 1;
            comp_len |= u64::from(byte & 0x7F) << shift;
            shift += 7;
            if byte & 0x80 == 0 {
                break;
            }
        }
        pos += comp_len as usize;
        decompressed_len += raw_len;
    }
    assert_eq!(pos, bytes.len(), "block walk must consume the whole file");

    push_block(&mut bytes, 5, 5, &[0x04, 0x7F, 1, 2, 3]);
    let err = WorkloadTrace::from_bytes(&bytes).unwrap_err();
    let (offset, message) = frame_error(&err);
    assert!(message.contains("unknown frame tag 0x7f"), "{err}");
    assert_eq!(offset, decompressed_len + 1, "{err}");
}

#[test]
fn compressed_stream_kinds_versions_and_job_counts_are_checked() {
    // Version byte past the known range: rejected at sniff, exactly like v2.
    let mut bytes = sample_workload_v3();
    bytes[12] = 9;
    assert!(matches!(
        WorkloadTrace::from_bytes(&bytes),
        Err(TraceError::UnsupportedVersion(9))
    ));

    // A compressed execution header refuses a workload read.
    let exec = ExecutionTrace::new(
        ExecutionMeta {
            sim_seed: 0,
            policy: "GS".into(),
            machines: 1,
            slots_per_machine: 1,
        },
        vec![],
    )
    .to_bytes_as(TraceFormat::Compressed);
    assert!(matches!(
        WorkloadTrace::from_bytes(&exec),
        Err(TraceError::WrongStream { .. })
    ));

    // A meta frame declaring more jobs than the stream carries is rejected.
    let mut bytes = Vec::new();
    let mut codec = codec_for(TraceFormat::Compressed);
    let job = JobSpec::single_stage(1, 0.0, Bound::EXACT, vec![1.0]);
    codec
        .begin_workload(&mut bytes, &meta("GS"), 2)
        .and_then(|()| codec.encode_job(&mut bytes, &job))
        .and_then(|()| codec.finish(&mut bytes))
        .unwrap();
    let err = WorkloadTrace::from_bytes(&bytes).unwrap_err();
    assert!(err.to_string().contains("declares 2 jobs"), "{err}");

    // Stage task counts whose sum overflows usize fail validation, not a panic.
    let mut job = JobSpec::multi_stage(1, 0.0, Bound::EXACT, vec![vec![1.0], vec![]]);
    job.stages[0].task_count = usize::MAX;
    job.stages[1].task_count = 2;
    let bytes = WorkloadTrace::new(meta("GS"), vec![job]).to_bytes_as(TraceFormat::Compressed);
    let err = WorkloadTrace::from_bytes(&bytes).unwrap_err();
    assert!(err.to_string().contains("invalid"), "{err}");
}

#[test]
fn every_truncation_of_a_compressed_trace_is_an_error() {
    // No prefix of a v3 trace may decode successfully or panic: cuts inside the
    // header fail the magic/version checks, cuts inside a block fail the block
    // length/payload checks, and cuts at a block boundary fail the job count.
    let bytes = sample_workload_v3();
    for cut in 0..bytes.len() {
        assert!(
            WorkloadTrace::from_bytes(&bytes[..cut]).is_err(),
            "truncation to {cut} of {} bytes decoded successfully",
            bytes.len()
        );
    }
}

#[test]
fn constant_work_corpus_compresses_at_least_3x_over_binary() {
    // The generated corpora barely compress (task work is ~random f64 bits — see
    // EXPERIMENTS.md), so the ratio target is pinned where entropy permits: a
    // workload of structurally repetitive jobs must shrink ≥3x vs v2.
    let jobs: Vec<JobSpec> = (0..500)
        .map(|i| JobSpec::single_stage(i, i as f64, Bound::EXACT, vec![1.0; 40]))
        .collect();
    let trace = WorkloadTrace::new(meta("GRASS"), jobs);
    let v2 = trace.to_bytes_as(TraceFormat::Binary);
    let v3 = trace.to_bytes_as(TraceFormat::Compressed);
    assert_eq!(WorkloadTrace::from_bytes(&v3).unwrap(), trace);
    eprintln!(
        "# constant-work corpus: binary {} B, compressed {} B ({:.1}x)",
        v2.len(),
        v3.len(),
        v2.len() as f64 / v3.len() as f64
    );
    assert!(
        v3.len() * 3 <= v2.len(),
        "compressed {} bytes vs binary {} bytes: under 3x",
        v3.len(),
        v2.len()
    );
}
