//! Benchmarks of the `grass-trace` subsystem: per-format codec encode/decode
//! throughput for both record streams (text v1 vs compact binary v2 vs
//! block-compressed v3 on the same workload, eager collect vs `_streamed`
//! pull-iterator decode, plus the file-backed `_binary_file` buffered read vs
//! `_mmap` memory-mapped read), and replay-from-trace versus regenerate-from-seed
//! simulation speed (the cost a trace-driven experiment pays — or saves —
//! relative to re-rolling the workload every run).
//!
//! Filter one format via the shim's CLI filtering, e.g.
//! `cargo bench -p grass-bench --bench tracebench -- binary`.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use grass_bench::{recorded_execution, recorded_trace, workload_config};
use grass_core::GsFactory;
use grass_sim::{run_simulation, SimConfig};
use grass_trace::{
    replay, replay_config, ExecutionEvents, ExecutionTrace, TraceFormat, TraceStats, WorkloadItems,
    WorkloadTrace,
};
use grass_workload::generate;

const FORMATS: [TraceFormat; 3] = TraceFormat::ALL;

/// Write `bytes` to a bench-scoped temp file for the file-backed read paths
/// (mmap vs buffered reads need a real file, not a `&[u8]`).
fn temp_trace(tag: &str, bytes: &[u8]) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("grass-tracebench-{tag}-{}", std::process::id()));
    std::fs::write(&path, bytes).expect("write bench trace");
    path
}

/// Minimum wall time of `f` over `reps` runs (same convention as the shim's
/// "min" column); used for the printed throughput summary table.
fn time_min(reps: usize, mut f: impl FnMut()) -> Duration {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .min()
        .expect("reps > 0")
}

/// Print the text-vs-binary throughput table the EXPERIMENTS.md entry pins:
/// MiB/s against each format's own encoded size, plus the speedup of binary
/// over text in wall time per operation on the same in-memory trace.
///
/// The summary is plain `println!` work, not a registered benchmark, so it
/// checks the CLI filter itself (through the shim's matcher, so the semantics
/// cannot diverge): `cargo bench ... -- binary` skips the ~10 s summary rather
/// than paying for output it was asked to filter out.
fn throughput_summary(c: &mut Criterion) {
    if !c.filter_matches("trace_codec/throughput_summary") {
        return;
    }
    let workload = recorded_trace(500);
    let execution = recorded_execution();
    let tasks: usize = workload.jobs.iter().map(|j| j.total_tasks()).sum();
    println!(
        "# corpus: workload 500 jobs / {tasks} tasks; execution {} events",
        execution.events.len()
    );
    println!(
        "# stream    format  size-KiB  encode-ms  enc-MiB/s  decode-ms  dec-MiB/s  \
         sdec-ms  sdec-MiB/s"
    );
    let mut op_times: Vec<(f64, f64)> = Vec::new();
    for (stream, encode, bytes) in [
        (
            "workload",
            Box::new(|f: TraceFormat| workload.to_bytes_as(f))
                as Box<dyn Fn(TraceFormat) -> Vec<u8>>,
            FORMATS.map(|f| workload.to_bytes_as(f)),
        ),
        (
            "execution",
            Box::new(|f: TraceFormat| execution.to_bytes_as(f)),
            FORMATS.map(|f| execution.to_bytes_as(f)),
        ),
    ] {
        for (format, encoded) in FORMATS.iter().zip(bytes.iter()) {
            let mib = encoded.len() as f64 / (1024.0 * 1024.0);
            let enc = time_min(15, || {
                criterion::black_box(encode(*format).len());
            })
            .as_secs_f64();
            let dec = time_min(15, || match stream {
                "workload" => {
                    criterion::black_box(WorkloadTrace::from_bytes(encoded).unwrap().jobs.len());
                }
                _ => {
                    criterion::black_box(ExecutionTrace::from_bytes(encoded).unwrap().events.len());
                }
            })
            .as_secs_f64();
            // Streamed decode: pull every record through the frame iterator
            // without collecting (the constant-memory path).
            let sdec = time_min(15, || match stream {
                "workload" => {
                    let items = WorkloadItems::open(&encoded[..]).unwrap();
                    criterion::black_box(
                        items.map(|job| job.unwrap().total_tasks()).sum::<usize>(),
                    );
                }
                _ => {
                    let events = ExecutionEvents::open(&encoded[..]).unwrap();
                    criterion::black_box(events.fold(0usize, |n, e| {
                        e.unwrap();
                        n + 1
                    }));
                }
            })
            .as_secs_f64();
            op_times.push((enc, dec));
            println!(
                "# {stream:<9} {format:<10} {:>8.1}  {:>9.2}  {:>9.0}  {:>9.2}  {:>9.0}  {:>7.2}  {:>10.0}",
                encoded.len() as f64 / 1024.0,
                enc * 1e3,
                mib / enc,
                dec * 1e3,
                mib / dec,
                sdec * 1e3,
                mib / sdec,
            );
        }
        // Size ratio of the compressed format against v2 on this corpus.
        let (bin_len, comp_len) = (bytes[1].len() as f64, bytes[2].len() as f64);
        println!(
            "# {stream} size ratio: binary/compressed = {:.2}x ({:.1} KiB -> {:.1} KiB)",
            bin_len / comp_len,
            bin_len / 1024.0,
            comp_len / 1024.0,
        );
    }

    // File-backed workload reads: the same streamed stats fold over a buffered
    // reader vs a memory map of one binary file — the ratio EXPERIMENTS.md pins.
    let binary = workload.to_bytes_as(TraceFormat::Binary);
    let mib = binary.len() as f64 / (1024.0 * 1024.0);
    let path = temp_trace("summary", &binary);
    let buffered = time_min(15, || {
        criterion::black_box(TraceStats::load(&path).unwrap().tasks);
    })
    .as_secs_f64();
    let mapped = time_min(15, || {
        criterion::black_box(TraceStats::load_mmap(&path).unwrap().tasks);
    })
    .as_secs_f64();
    println!(
        "# workload file scan (binary): buffered {:.2} ms ({:.0} MiB/s), mmap {:.2} ms \
         ({:.0} MiB/s) -> mmap speedup {:.1}x",
        buffered * 1e3,
        mib / buffered,
        mapped * 1e3,
        mib / mapped,
        buffered / mapped,
    );
    let _ = std::fs::remove_file(&path);

    for (stream, rows) in ["workload", "execution"].iter().zip(op_times.chunks(3)) {
        let (text_enc, text_dec) = rows[0];
        for (format, (enc, dec)) in FORMATS.iter().zip(rows.iter()).skip(1) {
            println!(
                "# {stream} speedup ({format} over text, same trace): encode {:.1}x, decode {:.1}x",
                text_enc / enc,
                text_dec / dec,
            );
        }
    }
}

/// Whether the CLI filter selects any id of the form `prefix_{text|binary}` or
/// its `_streamed` variant.
fn any_format_selected(c: &Criterion, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|prefix| {
        FORMATS.iter().any(|format| {
            c.filter_matches(&format!("{prefix}_{format}"))
                || c.filter_matches(&format!("{prefix}_{format}_streamed"))
        })
    })
}

fn codec_throughput(c: &mut Criterion) {
    // Build each corpus only when the filter selects at least one of its
    // benchmarks — the 500-job recording and the 20-job simulation dominate a
    // filtered run's wall time otherwise.
    let run_workload = any_format_selected(
        c,
        &[
            "trace_codec/encode_workload_500_jobs",
            "trace_codec/decode_workload_500_jobs",
        ],
    ) || c.filter_matches("trace_codec/decode_workload_500_jobs_binary_file")
        || c.filter_matches("trace_codec/decode_workload_500_jobs_mmap");
    let run_execution = any_format_selected(
        c,
        &[
            "trace_codec/encode_execution_20_jobs",
            "trace_codec/decode_execution_20_jobs",
        ],
    );
    if !run_workload && !run_execution {
        return;
    }
    let mut group = c.benchmark_group("trace_codec");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2));

    // Workload stream: 500 heavy-tailed jobs (tens of thousands of tasks). The
    // `_streamed` ids pull jobs through the frame iterator without collecting,
    // isolating the cost of the streaming layer from Vec assembly.
    if run_workload {
        let trace = recorded_trace(500);
        for format in FORMATS {
            let bytes = trace.to_bytes_as(format);
            group.throughput(Throughput::Bytes(bytes.len() as u64));
            group.bench_function(format!("encode_workload_500_jobs_{format}"), |b| {
                b.iter(|| criterion::black_box(trace.to_bytes_as(format).len()))
            });
            group.bench_function(format!("decode_workload_500_jobs_{format}"), |b| {
                b.iter(|| {
                    criterion::black_box(WorkloadTrace::from_bytes(&bytes).unwrap().jobs.len())
                })
            });
            group.bench_function(format!("decode_workload_500_jobs_{format}_streamed"), |b| {
                b.iter(|| {
                    let items = WorkloadItems::open(&bytes[..]).unwrap();
                    criterion::black_box(items.map(|job| job.unwrap().total_tasks()).sum::<usize>())
                })
            });
        }
        // File-backed binary reads: the same streamed stats fold over a
        // buffered reader vs a memory map of the same file.
        let binary = trace.to_bytes_as(TraceFormat::Binary);
        let path = temp_trace("codec", &binary);
        group.throughput(Throughput::Bytes(binary.len() as u64));
        group.bench_function("decode_workload_500_jobs_binary_file", |b| {
            b.iter(|| criterion::black_box(TraceStats::load(&path).unwrap().tasks))
        });
        group.bench_function("decode_workload_500_jobs_mmap", |b| {
            b.iter(|| criterion::black_box(TraceStats::load_mmap(&path).unwrap().tasks))
        });
        let _ = std::fs::remove_file(&path);
    }

    // Execution stream: the event log of a 20-job simulated run.
    if run_execution {
        let exec = recorded_execution();
        for format in FORMATS {
            let bytes = exec.to_bytes_as(format);
            group.throughput(Throughput::Bytes(bytes.len() as u64));
            group.bench_function(format!("encode_execution_20_jobs_{format}"), |b| {
                b.iter(|| criterion::black_box(exec.to_bytes_as(format).len()))
            });
            group.bench_function(format!("decode_execution_20_jobs_{format}"), |b| {
                b.iter(|| {
                    criterion::black_box(ExecutionTrace::from_bytes(&bytes).unwrap().events.len())
                })
            });
            group.bench_function(format!("decode_execution_20_jobs_{format}_streamed"), |b| {
                b.iter(|| {
                    let events = ExecutionEvents::open(&bytes[..]).unwrap();
                    criterion::black_box(events.fold(0usize, |n, e| {
                        e.unwrap();
                        n + 1
                    }))
                })
            });
        }
    }
    group.finish();
}

fn replay_vs_regenerate(c: &mut Criterion) {
    if !c.filter_matches("trace_replay/regenerate_and_run_20_jobs")
        && !any_format_selected(c, &["trace_replay/decode_and_run_20_jobs"])
    {
        return;
    }
    let mut group = c.benchmark_group("trace_replay");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));

    let config = workload_config(20);
    let trace = recorded_trace(20);
    let sim: SimConfig = replay_config(&trace);

    // Baseline: the status quo ante — sample the workload fresh, then simulate.
    group.bench_function("regenerate_and_run_20_jobs", |b| {
        b.iter(|| {
            let jobs = generate(&config, 7);
            criterion::black_box(run_simulation(&sim, jobs, &GsFactory).total_copies)
        })
    });
    // Replay: decode the recorded workload from bytes, then simulate.
    for format in FORMATS {
        let bytes = trace.to_bytes_as(format);
        group.bench_function(format!("decode_and_run_20_jobs_{format}"), |b| {
            b.iter(|| {
                let decoded = WorkloadTrace::from_bytes(&bytes).unwrap();
                criterion::black_box(replay(&decoded, &sim, &GsFactory).total_copies)
            })
        });
    }
    group.finish();
}

criterion_group!(
    tracebench,
    throughput_summary,
    codec_throughput,
    replay_vs_regenerate
);
criterion_main!(tracebench);
