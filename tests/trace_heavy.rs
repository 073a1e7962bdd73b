//! GB-scale streaming pin: `trace gen` → `trace stats` → `trace convert` over a
//! ≥100 MiB trace must run in bounded memory — far less than the file itself,
//! which is what the eager (slurp + full decode) design structurally required.
//! The mmap and compressed (v3) legs ride the same bound: the mmap leg streams
//! the binary trace out of a memory map (touched pages count toward VmHWM, so
//! the file must fit under the bound once, not twice), and v3 stats decompress
//! one ~64 KiB block at a time.
//!
//! Gated behind `GRASS_HEAVY=1` (run by the scheduled bench workflow, skipped in
//! tier-1) because it writes ~350 MiB of temp files; the wall time itself is
//! seconds. The peak-RSS assertion reads Linux's `VmHWM` and is skipped on other
//! platforms. Run with `--nocapture` to see the throughput numbers EXPERIMENTS.md
//! records.

use std::io::{BufReader, BufWriter};
use std::time::Instant;

use grass::prelude::*;

/// Jobs that encode to comfortably over 100 MiB of text (~4.7 KiB/job for the
/// Facebook-Spark profile).
const JOBS: usize = 26_000;

/// Peak-RSS ceiling. The trace is ≥100 MiB, so staying under this bound proves
/// no path slurped the file or materialised the job list (the decoded jobs alone
/// would exceed it); the baseline test process is ~10 MiB.
const MAX_PEAK_RSS_BYTES: u64 = 96 * 1024 * 1024;

/// Linux peak resident set size (`VmHWM`), if available.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

#[test]
fn hundred_mib_trace_streams_through_gen_stats_and_convert_in_bounded_memory() {
    if std::env::var_os("GRASS_HEAVY").is_none() {
        eprintln!("skipping: set GRASS_HEAVY=1 to run the >=100 MiB streaming pin");
        return;
    }
    let dir = std::env::temp_dir().join(format!("grass-trace-heavy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // gen: generator iterator -> streaming sink, one job in memory at a time.
    let config = WorkloadConfig::new(TraceProfile::facebook(Framework::Spark))
        .with_jobs(JOBS)
        .with_bound(BoundSpec::paper_errors());
    let meta = WorkloadMeta {
        generator_seed: 7,
        sim_seed: 11,
        policy: "grass".into(),
        profile: config.profile.label(),
        machines: 20,
        slots_per_machine: 4,
    };
    let text_path = dir.join("heavy.trace");
    let started = Instant::now();
    let mut sink = WorkloadTraceSink::with_format(
        BufWriter::new(std::fs::File::create(&text_path).unwrap()),
        &meta,
        JOBS,
        TraceFormat::Text,
    )
    .unwrap();
    for job in JobGen::new(config, 7) {
        sink.push(&job).unwrap();
    }
    sink.finish().unwrap();
    let gen_elapsed = started.elapsed();
    let text_bytes = std::fs::metadata(&text_path).unwrap().len();
    assert!(
        text_bytes >= 100 * 1024 * 1024,
        "corpus too small: {} bytes",
        text_bytes
    );
    eprintln!(
        "# gen:     {JOBS} jobs -> {:.1} MiB text in {gen_elapsed:.2?} ({:.0} MiB/s)",
        mib(text_bytes),
        mib(text_bytes) / gen_elapsed.as_secs_f64(),
    );

    // stats: one streaming pass, O(one record) memory.
    let started = Instant::now();
    let stats = TraceStats::load(&text_path).unwrap();
    let stats_elapsed = started.elapsed();
    assert_eq!(stats.jobs, JOBS);
    assert_eq!(stats.format, TraceFormat::Text);
    eprintln!(
        "# stats:   {:.1} MiB text in {stats_elapsed:.2?} ({:.0} MiB/s)",
        mib(text_bytes),
        mib(text_bytes) / stats_elapsed.as_secs_f64(),
    );

    // convert: record-at-a-time re-encode to binary, then stats the result.
    let binary_path = dir.join("heavy.bin.trace");
    let started = Instant::now();
    let (from, kind) = convert_stream(
        BufReader::new(std::fs::File::open(&text_path).unwrap()),
        BufWriter::new(std::fs::File::create(&binary_path).unwrap()),
        TraceFormat::Binary,
    )
    .unwrap();
    let convert_elapsed = started.elapsed();
    assert_eq!((from, kind), (TraceFormat::Text, StreamKind::Workload));
    let binary_bytes = std::fs::metadata(&binary_path).unwrap().len();
    eprintln!(
        "# convert: text -> {:.1} MiB binary in {convert_elapsed:.2?} ({:.0} MiB/s input)",
        mib(binary_bytes),
        mib(text_bytes) / convert_elapsed.as_secs_f64(),
    );
    let binary_stats = TraceStats::load(&binary_path).unwrap();
    assert_eq!(binary_stats.jobs, JOBS);
    assert_eq!(binary_stats.format, TraceFormat::Binary);
    assert_eq!(binary_stats.tasks, stats.tasks);

    // mmap: the same streaming fold over a memory map. Mapped pages that are
    // actually touched count toward VmHWM, so this leg also proves the mapped
    // read adds (file size + epsilon), not a second materialised copy.
    let started = Instant::now();
    let mmap_stats = TraceStats::load_mmap(&binary_path).unwrap();
    let mmap_elapsed = started.elapsed();
    assert_eq!(mmap_stats.jobs, JOBS);
    assert_eq!(mmap_stats.tasks, stats.tasks);
    eprintln!(
        "# mmap:    {:.1} MiB binary in {mmap_elapsed:.2?} ({:.0} MiB/s)",
        mib(binary_bytes),
        mib(binary_bytes) / mmap_elapsed.as_secs_f64(),
    );

    // compressed (v3): stream the binary into block-compressed form, stats it
    // (one block decompressed at a time), and pin the memory bound across it.
    let v3_path = dir.join("heavy.v3.trace");
    let started = Instant::now();
    let (from, kind) = convert_stream(
        BufReader::new(std::fs::File::open(&binary_path).unwrap()),
        BufWriter::new(std::fs::File::create(&v3_path).unwrap()),
        TraceFormat::Compressed,
    )
    .unwrap();
    let v3_convert_elapsed = started.elapsed();
    assert_eq!((from, kind), (TraceFormat::Binary, StreamKind::Workload));
    let v3_bytes = std::fs::metadata(&v3_path).unwrap().len();
    eprintln!(
        "# convert: binary -> {:.1} MiB compressed in {v3_convert_elapsed:.2?} \
         (binary/compressed = {:.2}x)",
        mib(v3_bytes),
        binary_bytes as f64 / v3_bytes as f64,
    );
    let started = Instant::now();
    let v3_stats = TraceStats::load(&v3_path).unwrap();
    let v3_elapsed = started.elapsed();
    assert_eq!(v3_stats.jobs, JOBS);
    assert_eq!(v3_stats.format, TraceFormat::Compressed);
    assert_eq!(v3_stats.tasks, stats.tasks);
    eprintln!(
        "# stats:   {:.1} MiB compressed in {v3_elapsed:.2?} ({:.0} MiB/s)",
        mib(v3_bytes),
        mib(v3_bytes) / v3_elapsed.as_secs_f64(),
    );

    // The memory pin: everything above ran in this process; its peak RSS must
    // stay far below the file it processed.
    match peak_rss_bytes() {
        Some(peak) => {
            eprintln!(
                "# peak RSS {:.1} MiB over a {:.1} MiB trace (bound {:.0} MiB)",
                mib(peak),
                mib(text_bytes),
                mib(MAX_PEAK_RSS_BYTES),
            );
            assert!(
                peak < MAX_PEAK_RSS_BYTES,
                "peak RSS {} bytes exceeds the {} byte bound — a decode path \
                 is materialising the trace",
                peak,
                MAX_PEAK_RSS_BYTES
            );
        }
        None => eprintln!("# peak RSS unavailable on this platform; memory bound not asserted"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
