//! Integration tests of the memory-mapped read path: the map is one more byte
//! source for the streaming decoders, so replay digests must agree across
//! every format *and* read path (text, binary, compressed, mmap), error
//! diagnostics must match the buffered reader byte for byte, and
//! `open_workload_source_mmap` must read every format.

use grass::prelude::*;

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("grass-mmap-test-{tag}-{}", std::process::id()))
}

fn recorded_trace() -> WorkloadTrace {
    let config = WorkloadConfig::new(TraceProfile::facebook(Framework::Spark))
        .with_jobs(8)
        .with_bound(BoundSpec::paper_errors());
    record_workload(&config, 21, 43, "GRASS", 4, 4)
}

#[test]
fn replay_digests_are_identical_across_formats_and_read_paths() {
    let trace = recorded_trace();
    let sim = replay_config(&trace);
    let baseline = outcome_digest(&replay(&trace, &sim, &GrassFactory::new(sim.seed)));

    // Every encoding, decoded through a buffered reader or through a memory
    // map, replays to a bit-identical digest.
    for format in TraceFormat::ALL {
        let decoded = WorkloadTrace::from_bytes(&trace.to_bytes_as(format)).unwrap();
        let digest = outcome_digest(&replay(&decoded, &sim, &GrassFactory::new(sim.seed)));
        assert_eq!(digest, baseline, "{format}");

        let path = temp_path(&format!("replay-{format}"));
        std::fs::write(&path, trace.to_bytes_as(format)).unwrap();
        let (meta, source) = open_workload_source_mmap(&path).unwrap();
        let from_map = WorkloadTrace::new(meta, source.jobs(0));
        let digest = outcome_digest(&replay(&from_map, &sim, &GrassFactory::new(sim.seed)));
        assert_eq!(digest, baseline, "mmap {format}");
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn mapped_errors_match_the_buffered_reader_exactly() {
    // Error parity: a truncated binary trace must produce the same TraceError
    // (message and byte offset) whether decoded from a map or from a reader.
    let trace = recorded_trace();
    let mut bytes = trace.to_bytes_as(TraceFormat::Binary);
    bytes.truncate(bytes.len() - 5);
    let buffered = WorkloadTrace::from_bytes(&bytes).unwrap_err();

    let path = temp_path("errors");
    std::fs::write(&path, &bytes).unwrap();
    let from_map = open_workload_source_mmap(&path).expect_err("truncated map must fail to open");
    assert_eq!(from_map.to_string(), buffered.to_string());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn open_workload_source_mmap_falls_back_for_non_binary_formats() {
    // Nothing falls back any more: every format decodes from the map.
    let trace = recorded_trace();
    for format in TraceFormat::ALL {
        let path = temp_path(&format!("source-{format}"));
        std::fs::write(&path, trace.to_bytes_as(format)).unwrap();
        let (meta, source) =
            open_workload_source_mmap(&path).unwrap_or_else(|e| panic!("{format}: {e}"));
        assert_eq!(meta, trace.meta, "{format}");
        assert_eq!(source.total_jobs(), trace.jobs.len(), "{format}");
        let _ = std::fs::remove_file(&path);
    }

    // An execution stream is a WrongStream error.
    let exec = ExecutionTrace::new(
        ExecutionMeta {
            sim_seed: 0,
            policy: "GS".into(),
            machines: 1,
            slots_per_machine: 1,
        },
        vec![],
    );
    let path = temp_path("source-exec");
    std::fs::write(&path, exec.to_bytes_as(TraceFormat::Binary)).unwrap();
    assert!(matches!(
        open_workload_source_mmap(&path),
        Err(TraceError::WrongStream { .. })
    ));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn mapped_stats_fold_matches_streamed_stats_in_every_format() {
    let trace = recorded_trace();
    for format in TraceFormat::ALL {
        let path = temp_path(&format!("stats-{format}"));
        std::fs::write(&path, trace.to_bytes_as(format)).unwrap();
        let streamed = TraceStats::load(&path).unwrap();
        let mapped = TraceStats::load_mmap(&path).unwrap();
        assert_eq!(mapped, streamed, "{format}");
        assert_eq!(mapped.jobs, trace.jobs.len(), "{format}");
        let _ = std::fs::remove_file(&path);
    }
}
