//! End-to-end and per-layer benchmark of the GRASS workspace.
//!
//! Three batch workloads, each run in one process with single-threaded
//! compute, measure the runtime crates from outside through their public
//! functions and traits:
//!
//! * [`sim_midscale`] — one GRASS simulation of Facebook-Spark error-bound
//!   jobs on a 1000-machine cluster (dispatch, `TaskView` build, `choose()`);
//! * [`sweep_fleet`] — a recorded deadline-bound trace swept over the quick
//!   grid × three seeds by one in-process fleet worker (many small sims,
//!   GRASS warm-ups, the fleet protocol and the digest merge);
//! * [`trace_pipeline`] — generate → encode v2 → stats → v2→v3 → stats →
//!   v3→v2 → decode, with no simulation at all.
//!
//! A workload is set up from a seed, then run repeatedly; every run returns a
//! digest of its outputs plus the checks it made. See `README.md` for the
//! metric definitions and the run configuration.

pub mod probe;
pub mod sim_midscale;
pub mod sweep_fleet;
pub mod trace_pipeline;

use std::path::Path;
use std::time::Instant;

use probe::Recorder;

/// Seed whose digests are pinned in each workload's `PINNED_DIGEST`.
pub const DEFAULT_SEED: u64 = 1;

/// Named metric values with units, in insertion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Set `name`, replacing an earlier value.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.0.iter_mut().find(|(n, _, _)| n == name) {
            Some(entry) => {
                entry.1 = value;
                entry.2 = unit;
            }
            None => self.0.push((name.to_string(), value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|e| e.1)
    }

    pub fn extend(&mut self, other: &Metrics) {
        for (name, value, unit) in &other.0 {
            self.set(name, *value, unit);
        }
    }
}

/// What one run of a workload's measured phase produced.
#[derive(Debug, Clone, Default)]
pub struct Iteration {
    /// Host seconds of the measured work (checks excluded).
    pub wall_s: f64,
    /// Deterministic text summary of the outputs; equal inputs give equal digests.
    pub digest: String,
    /// Operations checked in this run, and how many of them failed a check.
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// Work counts the program reports itself (e.g. `SimStats`), traced or not.
    pub counts: Metrics,
    /// Per-layer metrics; filled only by traced runs.
    pub layers: Metrics,
}

impl Iteration {
    /// Count one checked operation; `ok == false` records `problem`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.tally(1, u64::from(!ok), problem);
    }

    /// Count `attempted` checked operations of which `failed` failed.
    pub fn tally(&mut self, attempted: u64, failed: u64, problem: impl FnOnce() -> String) {
        self.attempted += attempted;
        if failed > 0 {
            self.failed += failed;
            self.problems.push(problem());
        }
    }
}

/// A benchmark workload: built once from a seed, then run repeatedly.
pub trait Workload {
    type Input;

    /// Jobs one run processes (the numerator of `jobs_per_s`).
    fn jobs(&self) -> usize;

    /// Build the inputs from `seed`, writing any files under `out`. Returns the
    /// per-layer metrics of the set-up stages.
    fn setup(&self, seed: u64, out: &Path) -> Result<(Self::Input, Metrics), String>;

    /// Run the measured phase once. With a recorder the run is traced: spans
    /// go into it and [`Iteration::layers`] is filled.
    fn run(&self, input: &Self::Input, recorder: Option<&mut Recorder>) -> Iteration;

    /// FNV-1a 64 of the digest for [`DEFAULT_SEED`] at this size, if pinned.
    fn pinned_digest(&self) -> Option<&'static str>;
}

/// The benchmark's one clock read. Timing is this package's job: readings
/// feed only the reported metrics and spans, never a digest or a check.
pub fn now() -> Instant {
    // grass: allow(wall-clock-in-core, "benchmark timer: readings feed reported metrics only, never a digest or a check")
    Instant::now()
}

/// Incremental FNV-1a 64.
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// The hash as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// FNV-1a 64 of `bytes`, as 16 hex digits.
pub fn fnv64(bytes: &[u8]) -> String {
    let mut hasher = Fnv64::default();
    hasher.write(bytes);
    hasher.hex()
}

pub const MIB: f64 = 1024.0 * 1024.0;

/// Every per-layer metric the traced run reports, with its unit. A workload
/// reports 0 for a layer it does not run or cannot observe from outside.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("workload.gen_s", "s"),
    ("workload.jobs", "count"),
    ("workload.tasks", "count"),
    ("trace.encode_s", "s"),
    ("trace.encode_mib", "MiB"),
    ("trace.stats_s.v2", "s"),
    ("trace.stats_s.v3", "s"),
    ("trace.convert_s.v2_v3", "s"),
    ("trace.convert_s.v3_v2", "s"),
    ("trace.decode_s", "s"),
    ("trace.decode_mib", "MiB"),
    ("trace.mib_per_s", "MiB/s"),
    ("sim.run_s", "s"),
    ("sim.self_s", "s"),
    ("sim.events", "count"),
    ("sim.job_touches", "count"),
    ("sim.consultations", "count"),
    ("sim.touches_per_event", "ratio"),
    ("sim.view_rows", "count"),
    ("sim.events_per_s", "events/s"),
    ("policy.choose_calls", "count"),
    ("policy.choose_s", "s"),
    ("policy.choose_accept_ratio", "ratio"),
    ("policy.callbacks_s", "s"),
    ("store.record_calls", "count"),
    ("store.record_s", "s"),
    ("store.samples", "count"),
    ("store.generation", "count"),
    ("sweep.cells", "count"),
    ("sweep.cells_per_s", "cells/s"),
    ("sweep.cell_s.LATE", "s"),
    ("sweep.cell_s.GS", "s"),
    ("sweep.cell_s.RAS", "s"),
    ("sweep.cell_s.GRASS", "s"),
    ("metrics.merge_s", "s"),
    ("metrics.digest_s", "s"),
    ("fleet.dispatched", "count"),
    ("fleet.completed", "count"),
    ("fleet.failed", "count"),
    ("fleet.sync_exchanges", "count"),
    ("fleet.sync_s", "s"),
    ("fleet.overhead_s", "s"),
    ("bench.trace_overhead", "ratio"),
];

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Mean of the `k` smallest `values` (of all of them when there are fewer; 0
/// when empty).
pub fn fastest_mean(values: &[f64], k: usize) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.truncate(k);
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// Linux peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
