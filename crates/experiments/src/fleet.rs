//! GRASS glue for the `grass-fleet` broker/worker service, plus the
//! `repro fleet` CLI verbs.
//!
//! `grass-fleet` moves opaque cell specs and result payloads; this module
//! defines both encodings for sweep work, as `tag key=value` lines written by
//! [`LineBuilder`] and split by [`Fields`] (the text trace's line codec):
//!
//! * a **cell spec** names one `(trace, machines, policy, seed, slots)` cell
//!   of a sweep grid, so a worker can stream the shared on-disk trace via
//!   `open_workload_source` and run the cell through [`run_sweep_cell`] — the
//!   exact code path `run_sweep` uses in-process;
//! * a **result payload** encodes every [`JobOutcome`] field at full precision
//!   (shortest-round-trip float formatting), so the broker-side merge
//!   reconstructs bit-identical outcome sets and the fleet digest is
//!   byte-identical to a single-process sweep;
//! * a **cell key** hashes the cell's inputs (trace identity, machines,
//!   policy, seed, slots, experiment profile) for the persistent
//!   [`DigestCache`], which doubles as the `repro sweep --resume` cache.

// grass: allow(unordered-iter-on-digest-path, "keyed lookup only; the trace cache is never iterated for results")
use std::collections::HashMap;
use std::env;
use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use grass_core::{JobId, JobOutcome, SampleStore, SpeculationMode};
use grass_fleet::broker::serve_broker_on;
use grass_fleet::{run_fleet, run_worker, CellRunner, DigestCache, FleetConfig, FleetOutcome};
use grass_metrics::OutcomeSet;
use grass_sim::ClusterConfig;
use grass_trace::codec::{Fields, LineBuilder};
use grass_trace::text::{bound_text, parse_bound};
use grass_trace::{open_workload_source, open_workload_source_mmap, WorkloadMeta};
use grass_workload::StreamedWorkload;

use crate::cli::{write_stdout, Flags};
use crate::common::ExpConfig;
use crate::sweep::{
    assemble_sweep_result, on_pool, run_sweep_cell, sweep_config_from_flags, SweepConfig,
    SweepResult,
};
use crate::trace_cli::resolve_workload_path;
use crate::PolicyKind;

// ---------------------------------------------------------------------------
// Trace identity and cell keys
// ---------------------------------------------------------------------------

/// Content identity of a trace file: FNV-1a 64 over its bytes plus its length.
/// Part of every cell key, so editing or re-recording a trace invalidates all
/// of its cached cells.
pub fn trace_identity(path: &Path) -> Result<String, String> {
    let mut file = File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut len: u64 = 0;
    let mut buf = [0u8; 64 * 1024];
    loop {
        let n = file
            .read(&mut buf)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        if n == 0 {
            break;
        }
        len += n as u64;
        for &b in &buf[..n] {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    }
    Ok(format!("fnv64-{hash:016x}-len{len}"))
}

/// The digest-cache key for one sweep cell: every input that determines the
/// cell's outcomes. Cluster shape beyond the machine count is normalised
/// (machines are keyed separately) and included so heterogeneity/straggler
/// profile changes can never serve stale results.
pub fn cell_key(
    trace_id: &str,
    machines: usize,
    policy: &PolicyKind,
    seed: u64,
    base: &ExpConfig,
) -> Result<String, String> {
    let cluster_profile = ClusterConfig {
        machines: 0,
        ..base.cluster
    };
    Ok(LineBuilder::new("grass-fleet cell v1")
        .text("trace", trace_id)
        .num("machines", machines)
        .text("policy", policy.wire_name()?)
        .num("seed", seed)
        .num("slots", base.cluster.slots_per_machine)
        .num("warmup", base.warmup_fraction)
        .text("estimator", &format!("{:?}", base.estimator))
        .text("cluster", &format!("{cluster_profile:?}"))
        .build())
}

// ---------------------------------------------------------------------------
// Cell spec codec (broker -> worker)
// ---------------------------------------------------------------------------

/// One cell of a sweep grid: the seed-level unit a worker runs.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetCellSpec {
    pub machines: usize,
    pub policy: PolicyKind,
    pub seed: u64,
}

/// The wire spec of `cell` over the trace at `trace` with `slots` slots per
/// machine: a tagless line of `key=value` fields.
pub fn encode_cell_spec(
    trace: &Path,
    cell: &FleetCellSpec,
    slots: usize,
) -> Result<String, String> {
    Ok(LineBuilder::new("")
        .num("machines", cell.machines)
        .text("policy", cell.policy.wire_name()?)
        .num("seed", cell.seed)
        .num("slots", slots)
        .text("trace", &trace.display().to_string())
        .build())
}

/// Invert [`encode_cell_spec`]: the trace path, the cell and the slot count.
pub fn decode_cell_spec(spec: &str) -> Result<(PathBuf, FleetCellSpec, usize), String> {
    let fields = Fields::untagged("spec", spec)?;
    let cell = FleetCellSpec {
        machines: fields.num("machines")?,
        policy: PolicyKind::parse(&fields.text("policy")?)?,
        seed: fields.num("seed")?,
    };
    Ok((
        PathBuf::from(fields.text("trace")?),
        cell,
        fields.num("slots")?,
    ))
}

// ---------------------------------------------------------------------------
// Result payload codec (worker -> broker, and the digest cache value)
// ---------------------------------------------------------------------------

/// Opening words of every cell payload's first line.
const PAYLOAD_HEADER: &str = "cellresult v1";

/// Encode one cell's outcomes at full precision: a header line, then one
/// `outcome` line per job, each newline-terminated. Floats use Rust's
/// shortest-round-trip `Display`, so decode is bit-exact for every non-NaN
/// value and the merged digest cannot drift from the in-process one.
pub fn encode_cell_outcomes(set: &OutcomeSet) -> String {
    let mut out = LineBuilder::new(PAYLOAD_HEADER)
        .num("outcomes", set.len())
        .build();
    out.push('\n');
    for o in set.all() {
        let line = LineBuilder::new("outcome")
            .num("job", o.job.0)
            .text("policy", &o.policy)
            .num("bound", bound_text(o.bound))
            .num("input_tasks", o.input_tasks)
            .num("total_tasks", o.total_tasks)
            .num("dag_length", o.dag_length)
            .num("arrival", o.arrival)
            .num("finish", o.finish)
            .num("completed_input_tasks", o.completed_input_tasks)
            .num("completed_tasks", o.completed_tasks)
            .num("speculative_copies", o.speculative_copies)
            .num("killed_copies", o.killed_copies)
            .num("slot_seconds", o.slot_seconds)
            .num("avg_wave_width", o.avg_wave_width)
            .num("avg_cluster_utilization", o.avg_cluster_utilization)
            .num("avg_estimation_accuracy", o.avg_estimation_accuracy);
        out.push_str(&line.build());
        out.push('\n');
    }
    out
}

/// Decode a payload produced by [`encode_cell_outcomes`]. Any other text,
/// blank lines included, is an error.
pub fn decode_cell_outcomes(payload: &str) -> Result<OutcomeSet, String> {
    let mut lines = payload.lines();
    let header = lines.next().ok_or("empty cell payload")?;
    let counts = header
        .strip_prefix(PAYLOAD_HEADER)
        .and_then(|rest| rest.strip_prefix(' '))
        .ok_or_else(|| format!("bad cell payload header `{header}`"))?;
    let expected: usize = Fields::untagged("cellresult", counts)?.num("outcomes")?;
    let outcomes: Vec<JobOutcome> = lines.map(decode_outcome).collect::<Result<_, _>>()?;
    if outcomes.len() != expected {
        return Err(format!(
            "cell payload declared {expected} outcomes, carried {}",
            outcomes.len()
        ));
    }
    Ok(OutcomeSet::new(outcomes))
}

fn decode_outcome(line: &str) -> Result<JobOutcome, String> {
    let o = Fields::parse(line)?;
    if o.tag != "outcome" {
        return Err(format!("expected an `outcome` line, found `{}`", o.tag));
    }
    Ok(JobOutcome {
        job: JobId(o.num("job")?),
        policy: o.text("policy")?,
        bound: parse_bound(o.raw("bound")?)?,
        input_tasks: o.num("input_tasks")?,
        total_tasks: o.num("total_tasks")?,
        dag_length: o.num("dag_length")?,
        arrival: o.num("arrival")?,
        finish: o.num("finish")?,
        completed_input_tasks: o.num("completed_input_tasks")?,
        completed_tasks: o.num("completed_tasks")?,
        speculative_copies: o.num("speculative_copies")?,
        killed_copies: o.num("killed_copies")?,
        slot_seconds: o.num("slot_seconds")?,
        avg_wave_width: o.num("avg_wave_width")?,
        avg_cluster_utilization: o.num("avg_cluster_utilization")?,
        avg_estimation_accuracy: o.num("avg_estimation_accuracy")?,
    })
}

// ---------------------------------------------------------------------------
// The fleet plan: grid enumeration, cache lookup, grid-order merge
// ---------------------------------------------------------------------------

/// A sweep grid prepared for fleet execution: the trace it runs over, the
/// seed-level cells in dispatch order, and the merge back into a
/// [`SweepResult`].
///
/// Cell order is `SweepConfig::units()` (machines outer, policy inner) with
/// the seed innermost — per-unit payload chunks are contiguous, and pooling
/// them in seed order reproduces exactly what `run_policy` computes
/// in-process.
pub struct FleetPlan {
    pub trace_path: PathBuf,
    pub trace_id: String,
    pub meta: WorkloadMeta,
    pub source: StreamedWorkload,
    pub config: SweepConfig,
    pub cells: Vec<FleetCellSpec>,
}

impl FleetPlan {
    /// Build a plan for `config` over the trace at `path` (already opened as
    /// `meta`/`source`). Fails when the grid is not fleet-encodable: unnamed
    /// policies, or a `base` that deviates from the standard sweep profile a
    /// worker reconstructs from the cell spec.
    pub fn new(
        path: &Path,
        meta: WorkloadMeta,
        source: StreamedWorkload,
        config: SweepConfig,
    ) -> Result<FleetPlan, String> {
        // Workers may run in another working directory: ship an absolute path.
        let trace_path = std::fs::canonicalize(path)
            .map_err(|e| format!("cannot canonicalize {}: {e}", path.display()))?;
        let trace_id = trace_identity(&trace_path)?;

        // A worker rebuilds its ExpConfig from the spec as "ExpConfig::full()
        // with the spec's slots, over an ec2_scaled cluster". Reject bases that
        // would make that reconstruction diverge from the broker's merge.
        let canonical = ExpConfig::full();
        let expected_cluster = ClusterConfig {
            machines: config.base.cluster.machines,
            slots_per_machine: config.base.cluster.slots_per_machine,
            ..ClusterConfig::ec2_scaled()
        };
        if format!("{:?}", config.base.cluster) != format!("{expected_cluster:?}")
            || format!("{:?}", config.base.estimator) != format!("{:?}", canonical.estimator)
            || config.base.warmup_fraction != canonical.warmup_fraction
        {
            return Err(
                "fleet sweeps assume the standard experiment profile (ExpConfig::full over an \
                 ec2_scaled cluster); custom estimator/heterogeneity/warmup settings are not \
                 encodable in cell specs"
                    .to_string(),
            );
        }

        let cells = config.cells();
        for cell in &cells {
            cell.policy.wire_name()?;
        }
        Ok(FleetPlan {
            trace_path,
            trace_id,
            meta,
            source,
            config,
            cells,
        })
    }

    /// Open the trace at `path` and build the plan in one step. With `mmap`,
    /// the trace is read through a memory map instead of a buffered reader;
    /// the plan is identical either way.
    pub fn open(
        path: &Path,
        mmap: bool,
        config_for: impl FnOnce(&WorkloadMeta, &StreamedWorkload) -> Result<SweepConfig, String>,
    ) -> Result<FleetPlan, String> {
        let path = resolve_workload_path(path);
        let (meta, source) = if mmap {
            open_workload_source_mmap(&path)
        } else {
            open_workload_source(&path)
        }
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let config = config_for(&meta, &source)?;
        FleetPlan::new(&path, meta, source, config)
    }

    /// Wire specs for every cell, in dispatch (grid) order.
    pub fn specs(&self) -> Result<Vec<String>, String> {
        let slots = self.config.base.cluster.slots_per_machine;
        self.cells
            .iter()
            .map(|cell| encode_cell_spec(&self.trace_path, cell, slots))
            .collect()
    }

    /// Digest-cache key per cell, in dispatch order.
    pub fn keys(&self) -> Result<Vec<String>, String> {
        self.cells
            .iter()
            .map(|cell| {
                cell_key(
                    &self.trace_id,
                    cell.machines,
                    &cell.policy,
                    cell.seed,
                    &self.config.base,
                )
            })
            .collect()
    }

    /// Look every cell up in `cache`. A hit must also decode cleanly —
    /// corrupt entries are treated as misses, never merged.
    pub fn lookup_cached(&self, cache: &DigestCache) -> Result<Vec<Option<String>>, String> {
        Ok(self
            .keys()?
            .into_iter()
            .map(|key| {
                cache
                    .get(&key)
                    .filter(|payload| decode_cell_outcomes(payload).is_ok())
            })
            .collect())
    }

    /// Persist the payloads of cells that were actually run (`cached[i]` was
    /// `None`). Returns the number of entries written.
    pub fn write_back(
        &self,
        cache: &DigestCache,
        cached: &[Option<String>],
        payloads: &[String],
    ) -> Result<usize, String> {
        let keys = self.keys()?;
        let mut written = 0;
        for (i, key) in keys.iter().enumerate() {
            if cached.get(i).is_some_and(Option::is_none) {
                cache
                    .put(key, &payloads[i])
                    .map_err(|e| format!("cannot write cache entry: {e}"))?;
                written += 1;
            }
        }
        Ok(written)
    }

    /// Merge grid-order cell payloads into the [`SweepResult`] a
    /// single-process `run_sweep` of the same grid would produce.
    pub fn merge(&self, payloads: &[String], elapsed: Duration) -> Result<SweepResult, String> {
        if payloads.len() != self.cells.len() {
            return Err(format!(
                "fleet returned {} payloads for {} cells",
                payloads.len(),
                self.cells.len()
            ));
        }
        let sets = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| {
                decode_cell_outcomes(p).map_err(|e| format!("cell {i} payload invalid: {e}"))
            })
            .collect::<Result<_, String>>()?;
        Ok(assemble_sweep_result(
            &self.source,
            &self.config,
            sets,
            elapsed,
        ))
    }

    /// `repro sweep --resume`: serve cells from `cache` where their keys hit,
    /// run the misses in-process on the sweep's thread pool, persist them, and
    /// merge. Returns the result, whose digest equals [`crate::run_sweep`]'s for
    /// the same grid, and the number of cells that ran.
    pub(crate) fn resume(&self, cache: &DigestCache) -> Result<(SweepResult, usize), String> {
        // grass: allow(wall-clock-in-core, "elapsed is operator-facing metadata; digests and comparisons never read it")
        let started = Instant::now();
        let cached = self.lookup_cached(cache)?;
        let payloads = on_pool(self.config.threads, self.cells.len(), |i| {
            let cell = &self.cells[i];
            cached[i].clone().unwrap_or_else(|| {
                let base = &self.config.base;
                let set =
                    run_sweep_cell(&self.source, base, cell.machines, &cell.policy, cell.seed);
                encode_cell_outcomes(&set)
            })
        });
        let ran = self.write_back(cache, &cached, &payloads)?;
        Ok((self.merge(&payloads, started.elapsed())?, ran))
    }
}

// ---------------------------------------------------------------------------
// The worker-side runner
// ---------------------------------------------------------------------------

/// Runs sweep cells from their wire specs — the [`CellRunner`] behind
/// `repro fleet work`. Opened traces are cached per path and the streamed
/// source is shared: no per-worker in-memory copy of the workload.
///
/// Alongside the cells, the runner records every pure-GS / pure-RAS job outcome
/// its cells produce into a [`SampleStore`], and sends that store's retained
/// counts to the broker with each `sync` frame ([`CellRunner::snapshot`]), as one
/// `storecounts generation=… deadline_gs=… deadline_ras=… error_gs=… error_ras=…`
/// line. What the broker sends back is not read: cells rebuild their own warmed
/// stores from the trace, so fleet state never reaches pinned outcomes.
pub struct SweepCellRunner {
    stall_ms: u64,
    mmap: bool,
    // grass: allow(unordered-iter-on-digest-path, "keyed lookup only; cells fetch their own trace by path")
    sources: Mutex<HashMap<PathBuf, StreamedWorkload>>,
    /// This worker's own observations — the snapshot it offers the fleet.
    learned: SampleStore,
}

impl SweepCellRunner {
    pub fn new() -> SweepCellRunner {
        SweepCellRunner::with_stall(0)
    }

    /// A runner that sleeps `stall_ms` before every cell — fault-injection
    /// hook (`repro fleet work --stall-ms N`) so tests can SIGKILL a worker
    /// reliably mid-cell.
    pub fn with_stall(stall_ms: u64) -> SweepCellRunner {
        SweepCellRunner {
            stall_ms,
            mmap: false,
            // grass: allow(unordered-iter-on-digest-path, "keyed lookup only; cells fetch their own trace by path")
            sources: Mutex::new(HashMap::new()),
            learned: SampleStore::new(),
        }
    }

    /// Read traces through a memory map (`repro fleet work --mmap`).
    /// Cell payloads are identical either way; only the read path differs.
    pub fn with_mmap(mut self, mmap: bool) -> SweepCellRunner {
        self.mmap = mmap;
        self
    }

    /// The store of learned GS/RAS rates from this runner's own cells.
    pub fn learned_store(&self) -> &SampleStore {
        &self.learned
    }

    fn source_for(&self, path: &Path) -> Result<StreamedWorkload, String> {
        let mut sources = self.sources.lock().unwrap();
        if let Some(source) = sources.get(path) {
            return Ok(source.clone());
        }
        let (_meta, source) = if self.mmap {
            open_workload_source_mmap(path)
        } else {
            open_workload_source(path)
        }
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        sources.insert(path.to_path_buf(), source.clone());
        Ok(source)
    }
}

impl Default for SweepCellRunner {
    fn default() -> Self {
        SweepCellRunner::new()
    }
}

impl CellRunner for SweepCellRunner {
    fn run(&self, _cell: usize, spec: &str) -> Result<String, String> {
        let (trace, cell, slots) = decode_cell_spec(spec)?;
        if self.stall_ms > 0 {
            thread::sleep(Duration::from_millis(self.stall_ms));
        }
        let source = self.source_for(&trace)?;
        // The profile FleetPlan::new validated: ExpConfig::full() over an
        // ec2_scaled cluster with the spec's slot count.
        let base = ExpConfig {
            cluster: ClusterConfig {
                slots_per_machine: slots,
                ..ClusterConfig::ec2_scaled()
            },
            ..ExpConfig::full()
        };
        let set = run_sweep_cell(&source, &base, cell.machines, &cell.policy, cell.seed);
        // Feed the learned store from jobs that ran a pure mode throughout:
        // GS/RAS cells entirely, plus the ξ-perturbed sample jobs inside GRASS
        // cells (both report the algorithm they actually ran as their policy).
        for outcome in set.all() {
            match outcome.policy.as_str() {
                "GS" => self.learned.record_outcome(SpeculationMode::Gs, outcome),
                "RAS" => self.learned.record_outcome(SpeculationMode::Ras, outcome),
                _ => {}
            }
        }
        Ok(encode_cell_outcomes(&set))
    }

    fn snapshot(&self) -> Option<String> {
        let counts = self.learned.counts_snapshot();
        Some(
            LineBuilder::new("storecounts")
                .num("generation", counts.generation)
                .num("deadline_gs", counts.deadline.0)
                .num("deadline_ras", counts.deadline.1)
                .num("error_gs", counts.error.0)
                .num("error_ras", counts.error.1)
                .build(),
        )
    }
}

// ---------------------------------------------------------------------------
// CLI: repro fleet serve | work | run
// ---------------------------------------------------------------------------

const GRID_FLAGS: &[&str] = &["machines", "slots", "policies", "baseline", "seeds"];

/// Lease, heartbeat and backoff timings: `--test-profile` picks the
/// test-scale ones, and production timings are the default.
fn fleet_config_from_flags(flags: &Flags) -> FleetConfig {
    if flags.has("test-profile") {
        FleetConfig::test_profile()
    } else {
        FleetConfig::production()
    }
}

/// Entry point for `repro fleet <serve|work|run> ...`.
pub fn run_fleet_command(args: &[String]) -> Result<(), String> {
    let Some((verb, rest)) = args.split_first() else {
        return Err(
            "fleet expects a verb: serve <trace>, work --connect <addr>, or run <trace> \
             --workers N"
                .to_string(),
        );
    };
    match verb.as_str() {
        "serve" => fleet_serve_command(rest),
        "work" => fleet_work_command(rest),
        "run" => fleet_run_command(rest),
        other => Err(format!(
            "unknown fleet verb '{other}'; expected serve, work or run"
        )),
    }
}

fn fleet_serve_command(args: &[String]) -> Result<(), String> {
    let valued = [GRID_FLAGS, &["cache", "port"]].concat();
    let flags = Flags::parse(args, &["quick", "test-profile", "mmap"], &valued)?;
    let [path] = flags.positional.as_slice() else {
        return Err("fleet serve expects exactly one workload trace path".to_string());
    };
    let port = flags.num("port", 0)?;
    let plan = FleetPlan::open(Path::new(path), flags.has("mmap"), |meta, source| {
        sweep_config_from_flags(&flags, meta, source)
    })?;
    let cache = open_cache(&flags)?;
    run_plan(
        plan,
        fleet_config_from_flags(&flags),
        cache.as_ref(),
        |handle_addr| {
            eprintln!(
                "fleet broker listening on {handle_addr}; start workers with: \
                 repro fleet work --connect {handle_addr}"
            );
            Ok(Vec::new())
        },
        port,
    )
}

fn fleet_run_command(args: &[String]) -> Result<(), String> {
    let valued = [GRID_FLAGS, &["cache", "workers", "stall-ms"]].concat();
    let flags = Flags::parse(args, &["quick", "test-profile", "mmap"], &valued)?;
    let [path] = flags.positional.as_slice() else {
        return Err("fleet run expects exactly one workload trace path".to_string());
    };
    let fleet_config = fleet_config_from_flags(&flags);
    let workers = flags.num("workers", 2)?;
    if workers == 0 {
        return Err("fleet run needs --workers >= 1".to_string());
    }
    let stall_ms: u64 = flags.num("stall-ms", 0)?;
    let mmap = flags.has("mmap");
    let plan = FleetPlan::open(Path::new(path), mmap, |meta, source| {
        sweep_config_from_flags(&flags, meta, source)
    })?;
    let cache = open_cache(&flags)?;

    let specs = plan.specs()?;
    let cached = match cache.as_ref() {
        Some(cache) => plan.lookup_cached(cache)?,
        None => vec![None; specs.len()],
    };
    let cached_count = cached.iter().flatten().count();
    eprintln!(
        "fleet run: {} cells ({cached_count} cached), {workers} local worker(s)",
        specs.len()
    );
    let exe = env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    // grass: allow(wall-clock-in-core, "elapsed is operator-facing metadata; digests and comparisons never read it")
    let started = Instant::now();
    let report = run_fleet(specs, cached.clone(), fleet_config, workers, |i, addr| {
        let mut cmd = Command::new(&exe);
        cmd.arg("fleet")
            .arg("work")
            .arg("--connect")
            .arg(addr.to_string())
            .arg("--id")
            .arg(format!("worker-{i}"));
        if stall_ms > 0 {
            cmd.arg("--stall-ms").arg(stall_ms.to_string());
        }
        if mmap {
            cmd.arg("--mmap");
        }
        // Workers log to stderr; keep stdout digest-clean.
        cmd.stdout(Stdio::null());
        cmd
    })
    .map_err(|e| e.to_string())?;
    finish_fleet(
        &plan,
        cache.as_ref(),
        &cached,
        report.outcome,
        started.elapsed(),
    )
}

fn fleet_work_command(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["mmap"], &["connect", "id", "stall-ms"])?;
    if !flags.positional.is_empty() {
        return Err("fleet work takes no positional arguments".to_string());
    }
    let Some(addr) = flags.get("connect") else {
        return Err("fleet work needs --connect <host:port>".to_string());
    };
    let default_id = format!("worker-{}", std::process::id());
    let id = flags.get("id").unwrap_or(default_id.as_str());
    let stall_ms = flags.num("stall-ms", 0)?;
    let runner = SweepCellRunner::with_stall(stall_ms).with_mmap(flags.has("mmap"));
    eprintln!("fleet worker {id} connecting to {addr}");
    let report = run_worker(addr, id, &runner).map_err(|e| e.to_string())?;
    eprintln!(
        "fleet worker {id} done: completed={} failed={} stale={} syncs={}",
        report.completed, report.failed, report.stale, report.syncs
    );
    Ok(())
}

fn open_cache(flags: &Flags) -> Result<Option<DigestCache>, String> {
    match flags.get("cache") {
        Some(dir) => DigestCache::open(dir)
            .map(Some)
            .map_err(|e| format!("cannot open cache {dir}: {e}")),
        None => Ok(None),
    }
}

/// Serve `plan` on a broker, let `before_wait` start (or announce) workers,
/// wait for the grid, then merge/report. Shared by `fleet serve` (external
/// workers) and tests.
fn run_plan(
    plan: FleetPlan,
    fleet_config: FleetConfig,
    cache: Option<&DigestCache>,
    before_wait: impl FnOnce(std::net::SocketAddr) -> Result<Vec<std::process::Child>, String>,
    port: u16,
) -> Result<(), String> {
    let specs = plan.specs()?;
    let cached = match cache {
        Some(cache) => plan.lookup_cached(cache)?,
        None => vec![None; specs.len()],
    };
    // grass: allow(wall-clock-in-core, "elapsed is operator-facing metadata; digests and comparisons never read it")
    let started = Instant::now();
    let handle = serve_broker_on(specs, cached.clone(), fleet_config, port)
        .map_err(|e| format!("cannot start broker: {e}"))?;
    let _children = before_wait(handle.addr())?;
    let outcome = handle.wait().map_err(|e| e.to_string())?;
    finish_fleet(&plan, cache, &cached, outcome, started.elapsed())
}

/// Write back fresh cells, merge in grid order, render tables (stderr) and
/// the digest (stdout) exactly like `repro sweep`.
fn finish_fleet(
    plan: &FleetPlan,
    cache: Option<&DigestCache>,
    cached: &[Option<String>],
    outcome: FleetOutcome,
    elapsed: Duration,
) -> Result<(), String> {
    if let Some(cache) = cache {
        plan.write_back(cache, cached, &outcome.results)?;
    }
    let result = plan.merge(&outcome.results, elapsed)?;
    eprintln!(
        "{}",
        result
            .improvement_table()
            .render_text()
            .trim_end_matches('\n')
    );
    eprintln!(
        "{}",
        result.mean_table().render_text().trim_end_matches('\n')
    );
    let stats = outcome.stats;
    eprintln!(
        "fleet cells={} cached={} ran={} dispatched={} expired_leases={} crash_releases={} \
         failed_reports={} stale_completes={} sync_exchanges={} elapsed={elapsed:.2?}",
        plan.cells.len(),
        stats.cached,
        stats.completed,
        stats.dispatched,
        stats.expired_leases,
        stats.crash_releases,
        stats.failed_reports,
        stats.stale_completes,
        stats.sync_exchanges,
    );
    write_stdout(&result.digest())
}

#[cfg(test)]
mod tests {
    use super::*;
    use grass_core::Bound;
    use grass_trace::record_workload;
    use grass_workload::{BoundSpec, Framework, TraceProfile, WorkloadConfig};
    use std::fs;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = env::temp_dir().join(format!("grass-fleet-exp-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn record_trace(dir: &Path) -> PathBuf {
        let config = WorkloadConfig::new(TraceProfile::facebook(Framework::Spark))
            .with_jobs(6)
            .with_bound(BoundSpec::paper_errors());
        let trace = record_workload(&config, 7, 11, "late", 10, 4);
        let path = dir.join("workload.trace");
        trace
            .save_as(&path, grass_trace::TraceFormat::Text)
            .unwrap();
        path
    }

    fn tiny_config(meta: &WorkloadMeta, source: &StreamedWorkload) -> SweepConfig {
        let base = ExpConfig {
            jobs_per_run: source.total_jobs(),
            seeds: vec![meta.sim_seed],
            cluster: ClusterConfig {
                machines: meta.machines,
                slots_per_machine: meta.slots_per_machine,
                ..ClusterConfig::ec2_scaled()
            },
            ..ExpConfig::full()
        };
        SweepConfig {
            machines: vec![6, 10],
            policies: vec![PolicyKind::Late, PolicyKind::GsOnly],
            baseline: PolicyKind::Late,
            threads: 1,
            base,
        }
    }

    #[test]
    fn outcome_payloads_round_trip_bit_exactly() {
        let outcomes = vec![
            JobOutcome {
                job: JobId(3),
                policy: "GS then RAS".into(),
                bound: Bound::Deadline(0.1 + 0.2), // 0.30000000000000004
                input_tasks: 50,
                total_tasks: 75,
                dag_length: 2,
                arrival: 1.5e-300,
                finish: f64::MAX,
                completed_input_tasks: 48,
                completed_tasks: 70,
                speculative_copies: 3,
                killed_copies: 1,
                slot_seconds: 123.45678901234568,
                avg_wave_width: 4.000000000000001,
                avg_cluster_utilization: 0.9999999999999999,
                avg_estimation_accuracy: -0.0,
            },
            JobOutcome {
                job: JobId(4),
                policy: "LATE".into(),
                bound: Bound::Error(0.05),
                input_tasks: 1,
                total_tasks: 1,
                dag_length: 1,
                arrival: 0.0,
                finish: 7.25,
                completed_input_tasks: 1,
                completed_tasks: 1,
                speculative_copies: 0,
                killed_copies: 0,
                slot_seconds: 7.25,
                avg_wave_width: 1.0,
                avg_cluster_utilization: 0.5,
                avg_estimation_accuracy: 1.0,
            },
        ];
        let set = OutcomeSet::new(outcomes);
        let payload = encode_cell_outcomes(&set);
        let decoded = decode_cell_outcomes(&payload).unwrap();
        assert_eq!(decoded.all(), set.all());
        // Re-encoding is canonical: byte-identical payloads.
        assert_eq!(encode_cell_outcomes(&decoded), payload);
    }

    #[test]
    fn decode_rejects_corrupt_payloads() {
        assert!(decode_cell_outcomes("").is_err());
        assert!(decode_cell_outcomes("cellresult v2 outcomes=0\n").is_err());
        assert!(decode_cell_outcomes("cellresult v1 outcomes=1\n").is_err());
        assert!(
            decode_cell_outcomes("cellresult v1 outcomes=1\noutcome job=1\n").is_err(),
            "missing fields must not decode"
        );
        // A hostile count reserves nothing: it only fails the count check.
        let huge = format!("cellresult v1 outcomes={}\n", usize::MAX);
        assert!(decode_cell_outcomes(&huge)
            .unwrap_err()
            .contains("declared"));
        // Words are separated by exactly one space, and blank lines are refused.
        let payload = encode_cell_outcomes(&OutcomeSet::new(Vec::new()));
        assert!(decode_cell_outcomes(&payload).unwrap().is_empty());
        assert!(decode_cell_outcomes("cellresult v1  outcomes=0\n").is_err());
        assert!(decode_cell_outcomes("cellresult v1 outcomes=0\n\n").is_err());
    }

    #[test]
    fn cell_specs_round_trip_and_name_every_standard_policy() {
        let spec = FleetCellSpec {
            machines: 50,
            policy: PolicyKind::grass(),
            seed: 23,
        };
        let line = encode_cell_spec(Path::new("/tmp/some dir/workload.trace"), &spec, 4).unwrap();
        let (trace, parsed, slots) = decode_cell_spec(&line).unwrap();
        assert_eq!(parsed.machines, 50);
        assert_eq!(parsed.policy, PolicyKind::grass());
        assert_eq!(parsed.seed, 23);
        assert_eq!(slots, 4);
        assert_eq!(trace, PathBuf::from("/tmp/some dir/workload.trace"));

        for policy in [
            PolicyKind::Late,
            PolicyKind::Mantri,
            PolicyKind::NoSpec,
            PolicyKind::GsOnly,
            PolicyKind::RasOnly,
            PolicyKind::Oracle,
            PolicyKind::grass(),
        ] {
            let name = policy.wire_name().unwrap();
            assert_eq!(PolicyKind::parse(name).unwrap(), policy);
        }
        // A tuned GRASS config has no wire name.
        let mut tuned = match PolicyKind::grass() {
            PolicyKind::Grass(cfg) => cfg,
            _ => unreachable!(),
        };
        tuned.xi += 0.01;
        assert!(PolicyKind::Grass(tuned).wire_name().is_err());
    }

    #[test]
    fn cell_keys_separate_every_input() {
        let base = ExpConfig::full();
        let key = |trace: &str, m: usize, p: PolicyKind, s: u64| {
            cell_key(trace, m, &p, s, &base).unwrap()
        };
        let reference = key("t1", 20, PolicyKind::Late, 11);
        assert_eq!(reference, key("t1", 20, PolicyKind::Late, 11));
        assert_ne!(reference, key("t2", 20, PolicyKind::Late, 11));
        assert_ne!(reference, key("t1", 50, PolicyKind::Late, 11));
        assert_ne!(reference, key("t1", 20, PolicyKind::GsOnly, 11));
        assert_ne!(reference, key("t1", 20, PolicyKind::Late, 12));
        let mut other_slots = base.clone();
        other_slots.cluster.slots_per_machine += 1;
        assert_ne!(
            reference,
            cell_key("t1", 20, &PolicyKind::Late, 11, &other_slots).unwrap()
        );
    }

    #[test]
    fn resume_cache_reruns_nothing_and_reproduces_the_digest() {
        let dir = temp_dir("resume");
        let trace_path = record_trace(&dir);
        let plan = |threads| {
            FleetPlan::open(&trace_path, false, |meta, source| {
                let mut config = tiny_config(meta, source);
                config.threads = threads;
                Ok(config)
            })
            .unwrap()
        };
        let serial = plan(1);
        let cells = serial.cells.len();
        let expected = crate::run_sweep(&serial.source, &serial.config);

        let cache = DigestCache::open(dir.join("cache")).unwrap();
        let (first, ran) = serial.resume(&cache).unwrap();
        assert_eq!(first.digest(), expected.digest());
        assert_eq!(ran, cells);
        let (second, ran) = serial.resume(&cache).unwrap();
        assert_eq!(second.digest(), expected.digest());
        assert_eq!(ran, 0);

        // One lost entry re-runs just that cell.
        let entry = fs::read_dir(cache.dir()).unwrap().next().unwrap().unwrap();
        fs::remove_file(entry.path()).unwrap();
        let (third, ran) = serial.resume(&cache).unwrap();
        assert_eq!(third.digest(), expected.digest());
        assert_eq!(ran, 1);

        // A threaded resume fills the same digest.
        let fresh_cache = DigestCache::open(dir.join("cache2")).unwrap();
        let (fourth, ran) = plan(3).resume(&fresh_cache).unwrap();
        assert_eq!(fourth.digest(), expected.digest());
        assert_eq!(ran, cells);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn runner_offers_its_store_counts_as_one_line() {
        let dir = temp_dir("storecounts");
        let trace_path = record_trace(&dir);
        let runner = SweepCellRunner::new();
        for (cell, policy) in [PolicyKind::GsOnly, PolicyKind::RasOnly]
            .into_iter()
            .enumerate()
        {
            let spec = FleetCellSpec {
                machines: 6,
                policy,
                seed: 11,
            };
            runner
                .run(cell, &encode_cell_spec(&trace_path, &spec, 4).unwrap())
                .unwrap();
        }
        let counts = runner.learned_store().counts_snapshot();
        assert!(counts.error.0 > 0 && counts.error.1 > 0, "{counts:?}");

        let offered = runner.snapshot().unwrap();
        let fields = Fields::parse(&offered).unwrap();
        assert_eq!(fields.tag, "storecounts");
        assert_eq!(fields.num::<u64>("generation").unwrap(), counts.generation);
        let count = |key| fields.num::<usize>(key).unwrap();
        assert_eq!(
            (count("deadline_gs"), count("deadline_ras")),
            counts.deadline
        );
        assert_eq!((count("error_gs"), count("error_ras")), counts.error);
        // One line of exactly those five fields.
        assert!(!offered.contains('\n'));
        assert_eq!(offered.split(' ').count(), 6, "{offered}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fleet_plan_rejects_non_standard_profiles() {
        let dir = temp_dir("plan-reject");
        let trace_path = record_trace(&dir);
        let (meta, source) = open_workload_source(&trace_path).unwrap();
        let mut config = tiny_config(&meta, &source);
        config.base.warmup_fraction = 0.25;
        let err = match FleetPlan::new(&trace_path, meta, source, config) {
            Ok(_) => panic!("non-standard profile accepted"),
            Err(e) => e,
        };
        assert!(err.contains("standard experiment profile"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fleet_command_rejects_bad_invocations() {
        assert!(run_fleet_command(&[]).unwrap_err().contains("verb"));
        let err = run_fleet_command(&["sow".into()]).unwrap_err();
        assert!(err.contains("unknown fleet verb"), "{err}");
        let err = run_fleet_command(&["work".into()]).unwrap_err();
        assert!(err.contains("--connect"), "{err}");
        let err = run_fleet_command(&["run".into(), "x".into(), "--workers".into(), "0".into()])
            .unwrap_err();
        assert!(err.contains("--workers >= 1"), "{err}");
        let err = run_fleet_command(&["serve".into()]).unwrap_err();
        assert!(err.contains("exactly one"), "{err}");
        // A port past u16 is refused, not truncated to another port.
        let err = run_fleet_command(&["serve".into(), "x".into(), "--port".into(), "70000".into()])
            .unwrap_err();
        assert!(err.contains("--port"), "{err}");
    }
}
