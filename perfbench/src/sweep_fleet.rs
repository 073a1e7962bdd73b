//! `sweep-fleet`: a deadline-bound trace recorded as a binary v2 file, opened
//! with `FleetPlan::open` and swept over the 12-unit quick grid × seeds
//! 11/23/47 (36 cells) by one in-process worker talking to an in-process
//! broker over one loopback connection, then merged and digested.

use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};

use grass_experiments::{ExpConfig, FleetPlan, SweepCellRunner, SweepConfig};
use grass_fleet::{run_worker, serve_broker, FleetConfig, FleetStats, WorkerReport};
use grass_sim::ClusterConfig;
use grass_trace::{TraceFormat, WorkloadMeta, WorkloadTraceSink};
use grass_workload::{generate, BoundSpec, Framework, TraceProfile, WorkloadConfig};

use crate::probe::{Recorder, TimedRunner};
use crate::{now, Iteration, Metrics, Workload, MIB};

/// Simulator seeds of every grid unit for the default run seed (the
/// `ExpConfig::full` seeds); other run seeds shift them by 1000 per step.
pub const SWEEP_SEEDS: [u64; 3] = [11, 23, 47];
/// Units of the quick grid: 3 cluster sizes × 4 policies.
const GRID_UNITS: usize = 12;
/// Generator seed of the recorded trace (the `repro trace record` default).
/// The trace is fixed and the run seed picks the sweep's simulator seeds: a
/// trace redrawn per seed would change the amount of work by ±10%.
pub const TRACE_SEED: u64 = 7;

/// The sweep's simulator seeds for run seed `seed`.
pub fn sweep_seeds(seed: u64) -> Vec<u64> {
    let shift = seed.wrapping_sub(crate::DEFAULT_SEED).wrapping_mul(1000);
    SWEEP_SEEDS.iter().map(|s| s.wrapping_add(shift)).collect()
}
/// Cluster recorded in the trace meta; the quick grid overrides the machine
/// count per column (8/16/24) and keeps the slots.
pub const TRACE_MACHINES: usize = 20;
pub const TRACE_SLOTS: usize = 4;

#[derive(Debug, Clone, Copy)]
pub struct SweepFleet {
    pub jobs: usize,
}

impl SweepFleet {
    pub const FULL: SweepFleet = SweepFleet { jobs: 48 };
}

pub struct SweepInput {
    plan: FleetPlan,
    specs: Vec<String>,
}

fn quick_grid(meta: &WorkloadMeta, total_jobs: usize, seeds: Vec<u64>) -> SweepConfig {
    let base = ExpConfig {
        jobs_per_run: total_jobs,
        seeds,
        cluster: ClusterConfig {
            machines: meta.machines,
            slots_per_machine: meta.slots_per_machine,
            ..ClusterConfig::ec2_scaled()
        },
        ..ExpConfig::full()
    };
    SweepConfig::quick_grid(base)
}

fn record_trace(
    config: &WorkloadConfig,
    meta: &WorkloadMeta,
    path: &Path,
    layers: &mut Metrics,
) -> Result<(), String> {
    let started = now();
    let jobs = generate(config, meta.generator_seed);
    layers.set("workload.gen_s", started.elapsed().as_secs_f64(), "s");
    layers.set("workload.jobs", jobs.len() as f64, "count");
    let tasks: usize = jobs.iter().map(|j| j.total_tasks()).sum();
    layers.set("workload.tasks", tasks as f64, "count");

    let started = now();
    let file = File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut sink =
        WorkloadTraceSink::with_format(BufWriter::new(file), meta, jobs.len(), TraceFormat::Binary)
            .map_err(|e| e.to_string())?;
    for job in &jobs {
        sink.push(job).map_err(|e| e.to_string())?;
    }
    sink.finish().map_err(|e| e.to_string())?;
    layers.set("trace.encode_s", started.elapsed().as_secs_f64(), "s");
    Ok(())
}

impl Workload for SweepFleet {
    type Input = SweepInput;

    fn jobs(&self) -> usize {
        // Every cell simulates the whole trace.
        self.jobs * GRID_UNITS * SWEEP_SEEDS.len()
    }

    fn setup(&self, seed: u64, out: &Path) -> Result<(SweepInput, Metrics), String> {
        let config = WorkloadConfig::new(TraceProfile::facebook(Framework::Spark))
            .with_jobs(self.jobs)
            .with_bound(BoundSpec::paper_deadlines());
        let seeds = sweep_seeds(seed);
        let meta = WorkloadMeta {
            generator_seed: TRACE_SEED,
            sim_seed: seeds[0],
            policy: "GRASS".to_string(),
            profile: config.profile.label(),
            machines: TRACE_MACHINES,
            slots_per_machine: TRACE_SLOTS,
        };
        let path: PathBuf = out.join("sweep-fleet.v2.trace");
        let mut layers = Metrics::default();
        record_trace(&config, &meta, &path, &mut layers)?;
        let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len() as f64;
        layers.set("trace.encode_mib", bytes / MIB, "MiB");

        let started = now();
        let plan = FleetPlan::open(&path, false, |meta, source| {
            Ok(quick_grid(meta, source.total_jobs(), seeds))
        })?;
        layers.set("trace.decode_s", started.elapsed().as_secs_f64(), "s");
        layers.set("trace.decode_mib", bytes / MIB, "MiB");
        let specs = plan.specs()?;
        Ok((SweepInput { plan, specs }, layers))
    }

    fn run(&self, input: &SweepInput, recorder: Option<&mut Recorder>) -> Iteration {
        let mut it = Iteration::default();
        let cells = input.specs.len();
        let runner = SweepCellRunner::new();
        let traced = recorder.is_some();
        let started = now();
        let fleet = match recorder {
            None => run_fleet(input, &runner),
            Some(rec) => {
                let timed = TimedRunner::new(&runner, std::mem::take(rec));
                let fleet = run_fleet(input, &timed);
                let fleet_s = started.elapsed().as_secs_f64();
                let sync_s = timed.sync_s();
                let l = &mut it.layers;
                let mut cell_total = 0.0;
                for policy in ["LATE", "GS", "RAS", "GRASS"] {
                    let s = timed.cell_s(policy);
                    cell_total += s;
                    l.set(&format!("sweep.cell_s.{policy}"), s, "s");
                }
                l.set("fleet.sync_s", sync_s, "s");
                l.set("fleet.overhead_s", fleet_s - cell_total - sync_s, "s");
                *rec = timed.into_recorder();
                let store = runner.learned_store();
                l.set("store.record_calls", store.generation() as f64, "count");
                l.set("store.samples", store.len() as f64, "count");
                l.set("store.generation", store.generation() as f64, "count");
                fleet
            }
        };
        let (stats, report, results) = match fleet {
            Ok(fleet) => fleet,
            Err(e) => {
                it.wall_s = started.elapsed().as_secs_f64();
                it.check(false, || format!("fleet run failed: {e}"));
                return it;
            }
        };

        let merge_started = now();
        let merged = input.plan.merge(&results, merge_started - started);
        let merge_s = merge_started.elapsed().as_secs_f64();
        let digest_started = now();
        let digest = merged.as_ref().map(|r| r.digest());
        let digest_s = digest_started.elapsed().as_secs_f64();
        it.wall_s = started.elapsed().as_secs_f64();
        if traced {
            it.layers.set("metrics.merge_s", merge_s, "s");
            it.layers.set("metrics.digest_s", digest_s, "s");
        }

        check_fleet(&mut it, cells, &stats, &report);
        match digest {
            Ok(digest) => {
                it.check(true, String::new);
                it.digest = digest;
            }
            Err(e) => it.check(false, || format!("merge failed: {e}")),
        }
        let c = &mut it.counts;
        c.set("sweep.cells", cells as f64, "count");
        c.set("fleet.dispatched", stats.dispatched as f64, "count");
        c.set("fleet.completed", stats.completed as f64, "count");
        c.set("fleet.failed", fleet_failures(&stats) as f64, "count");
        c.set("fleet.sync_exchanges", stats.sync_exchanges as f64, "count");
        it
    }

    fn pinned_digest(&self) -> Option<&'static str> {
        (self.jobs == Self::FULL.jobs).then_some(PINNED_DIGEST)
    }
}

/// FNV-1a 64 of the sweep digest for [`crate::DEFAULT_SEED`] at [`SweepFleet::FULL`].
pub const PINNED_DIGEST: &str = "9a69ef66d5298d55";

type FleetRun = (FleetStats, WorkerReport, Vec<String>);

fn run_fleet(input: &SweepInput, runner: &dyn grass_fleet::CellRunner) -> Result<FleetRun, String> {
    let cells = input.specs.len();
    let handle = serve_broker(
        input.specs.clone(),
        vec![None; cells],
        FleetConfig::production(),
    )
    .map_err(|e| format!("cannot start broker: {e}"))?;
    let report =
        run_worker(handle.addr(), "perfbench-worker", runner).map_err(|e| e.to_string())?;
    let outcome = handle.wait().map_err(|e| e.to_string())?;
    Ok((outcome.stats, report, outcome.results))
}

/// Fleet events that mean a cell did not complete on its first dispatch.
fn fleet_failures(stats: &FleetStats) -> u64 {
    stats.expired_leases
        + stats.crash_releases
        + stats.failed_reports
        + stats.stale_completes
        + stats.exhausted
}

fn check_fleet(it: &mut Iteration, cells: usize, stats: &FleetStats, report: &WorkerReport) {
    // One operation per cell: a cell that was re-dispatched, failed, went
    // stale or expired did not complete on its first dispatch.
    let n = cells as u64;
    let retried = (fleet_failures(stats)
        + stats.dispatched.saturating_sub(n)
        + n.saturating_sub(stats.completed)
        + (report.failed + report.stale) as u64)
        .min(n);
    it.tally(n, retried, || {
        format!("{retried} fleet cells not completed on first dispatch: {stats:?} {report:?}")
    });
    it.check(stats.sync_exchanges == n, || {
        format!("{} sync exchanges for {cells} cells", stats.sync_exchanges)
    });
}
