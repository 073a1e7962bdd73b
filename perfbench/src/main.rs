//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Sets a workload up from the seed, runs it once to warm up, then repeats it
//! for `--seconds`, checking every run's outputs. `wall_s` is the mean of the
//! faster half of the runs (see `faster_half_mean`). The last line of stdout is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`. Untraced
//! runs report the end-to-end metrics; `--trace 1` reports the per-layer
//! metrics and writes the span buffer to `perfbench/out/`.

use std::path::Path;
use std::process::ExitCode;

use perfbench::probe::Recorder;
use perfbench::sim_midscale::SimMidscale;
use perfbench::sweep_fleet::SweepFleet;
use perfbench::trace_pipeline::TracePipeline;
use perfbench::{
    fastest_mean, fnv64, median, now, peak_rss_mib, Iteration, Metrics, Workload, DEFAULT_SEED,
    LAYER_METRICS,
};

const USAGE: &str = "usage: perfbench --workload <sim-midscale|sweep-fleet|trace-pipeline> \
                     [--seed N] [--seconds S] [--trace 0|1]";
/// Where generated inputs and span files go, relative to the repository root.
const OUT_DIR: &str = "perfbench/out";
/// Set-ups per process; `setup_s` is their median.
const SETUP_RUNS: usize = 9;
/// Measured runs per process, at least.
const MIN_RUNS: usize = 3;
/// `wall_s` is the mean of the faster half of the runs. The host is shared, and
/// its other tenants slow runs down for seconds to minutes at a time, so a
/// process's run times are a mix of a few speed levels. The median jumps from
/// one level to the next as the mix shifts; a mean of the faster half moves
/// with the mix smoothly and ignores the slowest bursts.
fn faster_half_mean(walls: &[f64]) -> f64 {
    fastest_mean(walls, walls.len().div_ceil(2))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} '{value}': {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = Path::new(OUT_DIR);
    let result = std::fs::create_dir_all(out)
        .map_err(|e| format!("cannot create {OUT_DIR}: {e}"))
        .and_then(|()| match args.workload.as_str() {
            "sim-midscale" => bench(&SimMidscale::FULL, &args, out),
            "sweep-fleet" => bench(&SweepFleet::FULL, &args, out),
            "trace-pipeline" => bench(&TracePipeline::FULL, &args, out),
            other => Err(format!("unknown workload '{other}'\n{USAGE}")),
        });
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Checked-operation totals of a process.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Fold in one run: its own checks, plus one for its digest matching
    /// `expected` (the warm-up run's digest, or the pinned one) and one for
    /// its work counts matching the warm-up run's.
    fn absorb(&mut self, it: &Iteration, expected: &str, counts: &Metrics) {
        self.attempted += it.attempted + 2;
        self.failed += it.failed;
        for problem in &it.problems {
            eprintln!("perfbench: check failed: {problem}");
        }
        let digest = fnv64(it.digest.as_bytes());
        if digest != expected {
            self.failed += 1;
            eprintln!("perfbench: digest {digest} differs from the expected {expected}");
        }
        if it.counts != *counts {
            self.failed += 1;
            eprintln!(
                "perfbench: work counts differ from the warm-up run: {:?} vs {counts:?}",
                it.counts
            );
        }
    }
}

fn bench<W: Workload>(w: &W, args: &Args, out: &Path) -> Result<String, String> {
    let mut recorder = args.trace.then(Recorder::new);

    let mut setup_s = Vec::new();
    let mut setup_layers = Vec::new();
    let mut input = None;
    for _ in 0..SETUP_RUNS {
        let span = recorder.as_mut().map(|r| r.enter("setup"));
        let started = now();
        let (built, layers) = w.setup(args.seed, out)?;
        setup_s.push(started.elapsed().as_secs_f64());
        if let (Some(r), Some(id)) = (recorder.as_mut(), span) {
            r.exit(id);
        }
        setup_layers.push(layers);
        input = Some(built);
    }
    let input = input.expect("SETUP_RUNS > 0");

    // Warm-up run, untimed: its digest is what every later run must repeat,
    // and for the default seed it must equal the pinned digest.
    let warm = w.run(&input, None);
    let reference = fnv64(warm.digest.as_bytes());
    eprintln!(
        "perfbench: {} seed {} digest {reference}",
        args.workload, args.seed
    );
    let expected = match w.pinned_digest() {
        Some(pin) if args.seed == DEFAULT_SEED => pin.to_string(),
        _ => reference.clone(),
    };
    let mut tally = Tally::default();
    tally.absorb(&warm, &expected, &warm.counts);

    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut traced_layers = Vec::new();
    let started = now();
    // Host seconds of the last loop pass (run plus checks): no run starts that
    // would probably end after `--seconds`.
    let mut last_pass_s = 0.0;
    while walls.len() + traced_walls.len() < MIN_RUNS * (1 + usize::from(args.trace))
        || started.elapsed().as_secs_f64() + last_pass_s < args.seconds
    {
        let pass = now();
        // A traced process alternates untraced and traced runs, so both see
        // the same machine state and their ratio is the tracing overhead.
        let traced = args.trace && walls.len() > traced_walls.len();
        let it = match recorder.as_mut().filter(|_| traced) {
            Some(r) => {
                let id = r.enter(format!("{}.run", args.workload));
                let it = w.run(&input, Some(r));
                r.exit(id);
                it
            }
            None => w.run(&input, None),
        };
        tally.absorb(&it, &expected, &warm.counts);
        if traced {
            traced_walls.push(it.wall_s);
            traced_layers.push(it.layers);
        } else {
            walls.push(it.wall_s);
        }
        last_pass_s = pass.elapsed().as_secs_f64();
    }

    let wall_s = faster_half_mean(&walls);
    let mut metrics = Metrics::default();
    match recorder {
        None => {
            metrics.set("setup_s", median(&setup_s), "s");
            metrics.set("wall_s", wall_s, "s");
            let rss = peak_rss_mib().ok_or("VmHWM is not readable from /proc/self/status")?;
            metrics.set("peak_rss_mib", rss, "MiB");
            metrics.set("jobs_per_s", w.jobs() as f64 / wall_s, "jobs/s");
        }
        Some(recorder) => {
            let mut layers = median_metrics(&setup_layers);
            layers.extend(&warm.counts);
            layers.extend(&median_metrics(&traced_layers));
            // Throughputs of the measured work only (set-up work excluded).
            let per_s = |name: &str| warm.counts.get(name).unwrap_or(0.0) / wall_s;
            let derived = [
                ("sim.events_per_s", per_s("sim.events"), "events/s"),
                ("sweep.cells_per_s", per_s("sweep.cells"), "cells/s"),
                (
                    "trace.mib_per_s",
                    per_s("trace.encode_mib") + per_s("trace.decode_mib"),
                    "MiB/s",
                ),
                (
                    "bench.trace_overhead",
                    faster_half_mean(&traced_walls) / wall_s - 1.0,
                    "ratio",
                ),
            ];
            for (name, value, unit) in derived {
                layers.set(name, value, unit);
            }
            for &(name, unit) in LAYER_METRICS {
                metrics.set(name, layers.get(name).unwrap_or(0.0), unit);
            }
            let path = out.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
            std::fs::write(&path, recorder.to_json())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            eprintln!(
                "perfbench: {} spans written to {}",
                recorder.spans().len(),
                path.display()
            );
        }
    }

    eprintln!(
        "perfbench: {} seed {} runs {}+{} (untraced+traced)",
        args.workload,
        args.seed,
        walls.len(),
        traced_walls.len()
    );
    eprintln!("  run walls (s): {walls:.4?}");
    for (name, value, unit) in &metrics.0 {
        eprintln!("  {name:<28} {value:>16.6} {unit}");
    }
    Ok(result_line(&tally, &metrics))
}

/// Per-name median over several metric sets.
fn median_metrics(sets: &[Metrics]) -> Metrics {
    let mut out = Metrics::default();
    for (name, _, unit) in sets.iter().flat_map(|m| &m.0) {
        if out.get(name).is_none() {
            let values: Vec<f64> = sets.iter().filter_map(|m| m.get(name)).collect();
            out.set(name, median(&values), unit);
        }
    }
    out
}

fn result_line(tally: &Tally, metrics: &Metrics) -> String {
    let fields: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        fields.join(", ")
    )
}
