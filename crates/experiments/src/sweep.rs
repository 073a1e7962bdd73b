//! Controlled cluster-size × policy sweeps over one job source.
//!
//! The paper's evaluation (§6.1) replays production-derived workloads across
//! schedulers so that every comparison sees the *same* jobs. This module is the
//! whole-experiment version of that methodology: one [`JobSource`] — typically a
//! `RecordedWorkload` decoded from a `grass-trace` workload trace — is replayed
//! across a grid of cluster sizes and policies, and every cell is compared against a
//! baseline policy *at the same cluster size*.
//!
//! Cells (one policy at one cluster size under one seed) are independent
//! simulations, so the runner executes them on a scoped `std::thread` pool sized by
//! [`SweepConfig::threads`]; results are assembled in grid order afterwards, which
//! makes the output — including the machine-readable [`SweepResult::digest`] —
//! bit-identical regardless of thread count or scheduling.
//!
//! The `repro sweep` subcommand (see [`run_sweep_command`]) wires this to recorded
//! traces on disk; `diff` of two digests is the determinism check CI runs.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use grass_metrics::{Cell, Metric, OutcomeSet, Table};
use grass_sim::ClusterConfig;
use grass_trace::{open_workload_source, open_workload_source_mmap};
use grass_workload::JobSource;

use crate::cli::{write_stdout, Flags};
use crate::common::{compare_outcomes, metric_for_source, run_once, Comparison, ExpConfig};
use crate::fleet::{FleetCellSpec, FleetPlan};
use crate::trace_cli::resolve_workload_path;
use crate::PolicyKind;

/// Grid definition of a sweep: which cluster sizes and policies to run one job
/// source through, and how.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// Cluster sizes (number of machines) to sweep, in presentation order.
    pub machines: Vec<usize>,
    /// Policies to evaluate at every cluster size.
    pub policies: Vec<PolicyKind>,
    /// Baseline policy every cell is compared against (at the same cluster size).
    pub baseline: PolicyKind,
    /// Worker threads for cell execution; `0` or `1` runs serially. The result is
    /// identical either way.
    pub threads: usize,
    /// Base experiment configuration: seeds, estimator model, warm-up fraction and
    /// slots per machine are taken from here; `base.cluster.machines` is overridden
    /// per grid column.
    pub base: ExpConfig,
}

impl SweepConfig {
    /// The paper-scale default grid: 20/50/100 machines × LATE/GS/RAS/GRASS with
    /// LATE as the baseline.
    pub fn paper_grid(base: ExpConfig) -> Self {
        SweepConfig {
            machines: vec![20, 50, 100],
            policies: vec![
                PolicyKind::Late,
                PolicyKind::GsOnly,
                PolicyKind::RasOnly,
                PolicyKind::grass(),
            ],
            baseline: PolicyKind::Late,
            threads: 1,
            base,
        }
    }

    /// A reduced grid (smaller clusters, same policy set) for smoke tests and CI.
    pub fn quick_grid(base: ExpConfig) -> Self {
        SweepConfig {
            machines: vec![8, 16, 24],
            ..SweepConfig::paper_grid(base)
        }
    }

    /// The distinct policies of the grid in first-appearance order (simulating a
    /// duplicate `--policies` entry twice would waste a full multi-seed run and
    /// duplicate digest lines), with the baseline prepended when it is not already
    /// among them.
    fn distinct_policies(&self) -> Vec<PolicyKind> {
        let mut policies: Vec<PolicyKind> = Vec::new();
        if !self.policies.contains(&self.baseline) {
            policies.push(self.baseline.clone());
        }
        for p in &self.policies {
            if !policies.contains(p) {
                policies.push(p.clone());
            }
        }
        policies
    }

    /// The distinct cluster sizes in first-appearance order (mirrors
    /// [`SweepConfig::distinct_policies`]: a duplicate `--machines` entry must not
    /// re-simulate a whole column or emit duplicate digest cells).
    pub(crate) fn distinct_machines(&self) -> Vec<usize> {
        let mut machines: Vec<usize> = Vec::new();
        for &m in &self.machines {
            if !machines.contains(&m) {
                machines.push(m);
            }
        }
        machines
    }

    /// Every (machines, policy) unit the runner must simulate: the cross product of
    /// the distinct cluster sizes with the distinct policies.
    pub fn units(&self) -> Vec<(usize, PolicyKind)> {
        let machines = self.distinct_machines();
        let policies = self.distinct_policies();
        let mut units = Vec::with_capacity(machines.len() * policies.len());
        for &m in &machines {
            for p in &policies {
                units.push((m, p.clone()));
            }
        }
        units
    }

    /// Every seed-level cell: each of [`SweepConfig::units`] under each of
    /// `base.seeds`, the seed innermost.
    ///
    /// This ordering is the shared contract between the in-process runner, the
    /// cache-aware resume path and the fleet broker: any executor that produces
    /// one [`OutcomeSet`] per cell in this order can hand them to
    /// [`assemble_sweep_result`] and obtain a byte-identical digest.
    pub fn cells(&self) -> Vec<FleetCellSpec> {
        let mut cells = Vec::new();
        for (machines, policy) in self.units() {
            for &seed in &self.base.seeds {
                cells.push(FleetCellSpec {
                    machines,
                    policy: policy.clone(),
                    seed,
                });
            }
        }
        cells
    }
}

/// One grid cell: a policy's pooled outcomes at one cluster size, compared against
/// the baseline at the same size.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Cluster size (machines) of this cell.
    pub machines: usize,
    /// Policy label of this cell.
    pub policy: String,
    /// Jobs pooled into the cell (jobs per run × seeds).
    pub jobs: usize,
    /// Mean metric value (accuracy or duration) of the cell's outcomes.
    pub mean: Option<f64>,
    /// Improvement over the baseline at the same cluster size.
    pub comparison: Comparison,
}

/// Result of a sweep: the grid cells in row-major (machines × policy) order plus
/// presentation and provenance metadata.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Label of the swept job source.
    pub source: String,
    /// Metric the comparisons use (from the source's bound kind).
    pub metric: Metric,
    /// Baseline policy label.
    pub baseline: String,
    /// Seeds the cells pooled over.
    pub seeds: Vec<u64>,
    /// Grid cells, row-major: machines outer, policy inner.
    pub cells: Vec<SweepCell>,
    /// Wall-clock time of cell execution (not part of the digest).
    pub elapsed: Duration,
    /// Worker threads the cells were executed on.
    pub threads: usize,
}

impl SweepResult {
    /// Improvement-vs-baseline table: one row per cluster size, one column per
    /// policy.
    pub fn improvement_table(&self) -> Table {
        let metric_label = match self.metric {
            Metric::Accuracy => "accuracy",
            Metric::Duration => "duration",
        };
        self.table(
            format!(
                "Sweep of {}: {} improvement over {} (%) by cluster size",
                self.source, metric_label, self.baseline
            ),
            |cell| cell.comparison.overall,
        )
    }

    /// Raw-mean table: the mean metric value per cell (seconds for durations,
    /// a fraction for accuracies).
    pub fn mean_table(&self) -> Table {
        let metric_label = match self.metric {
            Metric::Accuracy => "mean accuracy",
            Metric::Duration => "mean duration (s)",
        };
        self.table(
            format!("Sweep of {}: {metric_label} by cluster size", self.source),
            |cell| cell.mean,
        )
    }

    fn table(&self, title: String, value: impl Fn(&SweepCell) -> Option<f64>) -> Table {
        let mut columns = vec!["Machines".to_string()];
        let mut policies: Vec<&str> = Vec::new();
        for cell in &self.cells {
            if !policies.contains(&cell.policy.as_str()) {
                policies.push(&cell.policy);
            }
        }
        columns.extend(policies.iter().map(|p| p.to_string()));
        let mut table = Table::new(title, columns.iter().map(String::as_str).collect());
        let mut machines: Vec<usize> = Vec::new();
        for cell in &self.cells {
            if !machines.contains(&cell.machines) {
                machines.push(cell.machines);
            }
        }
        for m in machines {
            let cells: Vec<Cell> = policies
                .iter()
                .map(|p| {
                    self.cells
                        .iter()
                        .find(|c| c.machines == m && &c.policy == p)
                        .and_then(&value)
                        .map(Cell::Number)
                        .unwrap_or(Cell::Empty)
                })
                .collect();
            table.push_row(format!("{m}"), cells);
        }
        table
    }

    /// Machine-readable digest, one line per cell, floats at full precision
    /// (shortest-round-trip formatting) so byte-identical digests imply bit-identical
    /// sweeps. Wall-clock and thread count are deliberately excluded: two runs of the
    /// same sweep — serial or threaded — must diff clean.
    pub fn digest(&self) -> String {
        fn opt(v: Option<f64>) -> String {
            v.map(|x| x.to_string()).unwrap_or_else(|| "n/a".into())
        }
        let mut out = String::new();
        out.push_str(&format!(
            "sweep source={} metric={} baseline={} seeds={}\n",
            self.source,
            match self.metric {
                Metric::Accuracy => "accuracy",
                Metric::Duration => "duration",
            },
            self.baseline,
            self.seeds
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(","),
        ));
        for cell in &self.cells {
            out.push_str(&format!(
                "cell machines={} policy={} jobs={} mean={} overall={} bins={}\n",
                cell.machines,
                cell.policy,
                cell.jobs,
                opt(cell.mean),
                opt(cell.comparison.overall),
                cell.comparison
                    .by_size_bin
                    .iter()
                    .map(|b| opt(*b))
                    .collect::<Vec<_>>()
                    .join("|"),
            ));
        }
        out.push_str(&format!("summary cells={}\n", self.cells.len()));
        out
    }
}

/// Run one sweep cell: one policy at one cluster size under one seed — the
/// smallest unit of sweep work, shared verbatim by the in-process runner, the
/// cache-aware resume path and fleet workers (which is what makes a fleet
/// digest byte-identical to a single-process sweep).
pub fn run_sweep_cell(
    source: &dyn JobSource,
    base: &ExpConfig,
    machines: usize,
    policy: &PolicyKind,
    seed: u64,
) -> OutcomeSet {
    let exp = ExpConfig {
        cluster: ClusterConfig {
            machines,
            ..base.cluster
        },
        ..base.clone()
    };
    run_once(&exp, source, policy, seed)
}

/// Pool per-seed outcome sets in seed order — exactly what
/// [`crate::run_policy`] produces when it runs the seeds itself.
pub fn merge_seed_sets(sets: impl IntoIterator<Item = OutcomeSet>) -> OutcomeSet {
    let mut all = Vec::new();
    for set in sets {
        all.extend(set.all().to_vec());
    }
    OutcomeSet::new(all)
}

/// Run the full grid over one job source. Cells execute on up to
/// [`SweepConfig::threads`] scoped worker threads; the assembled result is identical
/// to a serial run.
pub fn run_sweep(source: &(dyn JobSource + Sync), config: &SweepConfig) -> SweepResult {
    // grass: allow(wall-clock-in-core, "elapsed is operator-facing metadata; digests and comparisons never read it")
    let started = Instant::now();
    let cells = config.cells();
    let sets = on_pool(config.threads, cells.len(), |i| {
        let cell = &cells[i];
        run_sweep_cell(source, &config.base, cell.machines, &cell.policy, cell.seed)
    });
    assemble_sweep_result(source, config, sets, started.elapsed())
}

/// Assemble a [`SweepResult`] from one [`OutcomeSet`] per [`SweepConfig::cells`]
/// entry (in that order), however the sets were produced — in-process threads,
/// the digest cache, or a worker fleet. Each unit pools its seeds' sets in seed
/// order, exactly as [`crate::run_policy`] does when it runs the seeds itself.
pub fn assemble_sweep_result(
    source: &dyn JobSource,
    config: &SweepConfig,
    cell_sets: Vec<OutcomeSet>,
    elapsed: Duration,
) -> SweepResult {
    let units = config.units();
    let seeds = config.base.seeds.len();
    assert_eq!(
        cell_sets.len(),
        units.len() * seeds,
        "one outcome set per cell"
    );
    let mut cell_sets = cell_sets.into_iter();
    let sets: Vec<OutcomeSet> = units
        .iter()
        .map(|_| merge_seed_sets(cell_sets.by_ref().take(seeds)))
        .collect();
    let metric = metric_for_source(source);
    let lookup = |m: usize, p: &PolicyKind| -> &OutcomeSet {
        let idx = units
            .iter()
            .position(|(um, up)| *um == m && up == p)
            .expect("unit present in grid");
        &sets[idx]
    };
    let mut cell_policies: Vec<PolicyKind> = Vec::new();
    for p in &config.policies {
        if !cell_policies.contains(p) {
            cell_policies.push(p.clone());
        }
    }
    let mut cells = Vec::new();
    for m in config.distinct_machines() {
        let base = lookup(m, &config.baseline);
        for p in &cell_policies {
            let cand = lookup(m, p);
            cells.push(SweepCell {
                machines: m,
                policy: p.label(),
                jobs: cand.len(),
                mean: cand.mean(metric),
                comparison: compare_outcomes(source, &config.baseline, p, base, cand),
            });
        }
    }
    SweepResult {
        source: source.label(),
        metric,
        baseline: config.baseline.label(),
        seeds: config.base.seeds.clone(),
        cells,
        elapsed,
        threads: config.threads.max(1),
    }
}

/// `run(i)` for every `i` in `0..n`, on up to `threads` scoped worker threads
/// that claim indices from a shared counter. Results come back in index order,
/// so scheduling cannot reorder them.
pub(crate) fn on_pool<R: Send>(
    threads: usize,
    n: usize,
    run: impl Fn(usize) -> R + Sync,
) -> Vec<R> {
    let workers = threads.clamp(1, n.max(1));
    if workers == 1 {
        return (0..n).map(run).collect();
    }
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = run(i);
                collected
                    .lock()
                    .expect("sweep worker poisoned the results lock")
                    .push((i, result));
            });
        }
    });
    let mut indexed = collected.into_inner().expect("workers have exited");
    indexed.sort_by_key(|(i, _)| *i);
    debug_assert_eq!(indexed.len(), n);
    indexed.into_iter().map(|(_, result)| result).collect()
}

fn parse_list<T, E: std::fmt::Display>(
    raw: &str,
    what: &str,
    parse: impl Fn(&str) -> Result<T, E>,
) -> Result<Vec<T>, String> {
    let items: Result<Vec<T>, String> = raw
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| parse(s.trim()).map_err(|e| format!("bad {what} '{s}': {e}")))
        .collect();
    let items = items?;
    if items.is_empty() {
        return Err(format!("{what} list is empty"));
    }
    Ok(items)
}

/// Entry point for `repro sweep <workload.trace|dir> [flags]`.
///
/// Opens the recorded workload trace **streamingly** (`open_workload_source`:
/// one O(1)-memory validation pass, then on-demand prefix loads — warm-up
/// decodes only its job prefix) and sweeps it across the configured grid. The
/// rendered tables and progress go to stderr; stdout carries only the digest, so
/// `diff <(run1) <(run2)` is the determinism check.
pub fn run_sweep_command(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        args,
        &["quick", "mmap"],
        &[
            "machines", "slots", "policies", "baseline", "threads", "seeds", "resume",
        ],
    )?;
    let [path] = flags.positional.as_slice() else {
        return Err("sweep expects exactly one workload trace path".to_string());
    };
    let path = resolve_workload_path(Path::new(path));
    // --mmap reads the trace through a memory map; digests are identical.
    let (meta, source) = if flags.has("mmap") {
        open_workload_source_mmap(&path)
    } else {
        open_workload_source(&path)
    }
    .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let config = sweep_config_from_flags(&flags, &meta, &source)?;

    eprintln!(
        "sweeping {} jobs ({}) across {} cluster sizes x {} policies on {} thread(s)",
        source.total_jobs(),
        source.label(),
        config.machines.len(),
        config.policies.len(),
        config.threads.max(1),
    );
    let result = match flags.get("resume") {
        // Serve cells from the fleet's per-cell digest cache, so an interrupted
        // or repeated sweep only re-runs missing cells.
        Some(dir) => {
            let cache = grass_fleet::DigestCache::open(dir)
                .map_err(|e| format!("cannot open cache {dir}: {e}"))?;
            let plan = FleetPlan::new(&path, meta, source, config)?;
            let (result, ran) = plan.resume(&cache)?;
            let cells = plan.cells.len();
            eprintln!("resume cells={cells} cached={} ran={ran}", cells - ran);
            result
        }
        None => run_sweep(&source, &config),
    };
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
    eprintln!(
        "swept {} cells in {:.2?} on {} thread(s)",
        result.cells.len(),
        result.elapsed,
        result.threads,
    );
    write_stdout(&result.digest())
}

/// Build the [`SweepConfig`] for a recorded trace from common CLI flags
/// (`--machines`, `--slots`, `--policies`, `--baseline`, `--threads`,
/// `--seeds`, `--quick`) — shared by `repro sweep` and the `repro fleet`
/// verbs, which must agree exactly for their digests to be comparable.
pub(crate) fn sweep_config_from_flags(
    flags: &Flags,
    meta: &grass_trace::WorkloadMeta,
    source: &grass_workload::StreamedWorkload,
) -> Result<SweepConfig, String> {
    let quick = flags.has("quick");
    let slots = flags.num("slots", meta.slots_per_machine)?;
    let threads = flags.num("threads", 1)?;
    let seeds = match flags.get("seeds") {
        Some(raw) => parse_list(raw, "seed", |s| s.parse::<u64>())?,
        None => vec![meta.sim_seed],
    };
    let base = ExpConfig {
        jobs_per_run: source.total_jobs(),
        seeds,
        cluster: ClusterConfig {
            machines: meta.machines,
            slots_per_machine: slots,
            ..ClusterConfig::ec2_scaled()
        },
        ..ExpConfig::full()
    };
    let mut config = if quick {
        SweepConfig::quick_grid(base)
    } else {
        SweepConfig::paper_grid(base)
    };
    config.threads = threads;
    if let Some(raw) = flags.get("machines") {
        config.machines = parse_list(raw, "machine count", |s| s.parse::<usize>())?;
    }
    if let Some(raw) = flags.get("policies") {
        config.policies = parse_list(raw, "policy", PolicyKind::parse)?;
    }
    if let Some(raw) = flags.get("baseline") {
        config.baseline = PolicyKind::parse(raw)?;
    }
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use grass_trace::record_workload;
    use grass_workload::{BoundSpec, Framework, RecordedWorkload, TraceProfile, WorkloadConfig};

    fn tiny_base() -> ExpConfig {
        let mut base = ExpConfig::tiny();
        base.jobs_per_run = 8;
        base
    }

    fn tiny_grid() -> SweepConfig {
        SweepConfig {
            machines: vec![6, 10],
            policies: vec![PolicyKind::Late, PolicyKind::GsOnly],
            baseline: PolicyKind::Late,
            threads: 1,
            base: tiny_base(),
        }
    }

    fn recorded_source() -> RecordedWorkload {
        let config = WorkloadConfig::new(TraceProfile::facebook(Framework::Spark))
            .with_jobs(8)
            .with_bound(BoundSpec::paper_errors());
        record_workload(&config, 7, 11, "late", 10, 4).to_source()
    }

    #[test]
    fn grid_units_cover_the_cross_product_and_prepend_missing_baselines() {
        let grid = tiny_grid();
        assert_eq!(grid.units().len(), 4); // baseline is already a policy
        let mut oracle_base = tiny_grid();
        oracle_base.baseline = PolicyKind::Oracle;
        let units = oracle_base.units();
        assert_eq!(units.len(), 6);
        assert_eq!(units[0], (6, PolicyKind::Oracle));
        // Duplicate policy and machine entries are simulated (and reported) once.
        let mut dup = tiny_grid();
        dup.policies = vec![PolicyKind::Late, PolicyKind::GsOnly, PolicyKind::GsOnly];
        dup.machines = vec![6, 10, 6];
        assert_eq!(dup.units().len(), 4);
        let result = run_sweep(&recorded_source(), &dup);
        assert_eq!(result.cells.len(), 4);
        assert_eq!(result.digest().matches("policy=GS-only").count(), 2);
        assert_eq!(result.digest().matches("machines=6 ").count(), 2);
    }

    #[test]
    fn serial_and_threaded_sweeps_are_identical() {
        let source = recorded_source();
        let serial = run_sweep(&source, &tiny_grid());
        let mut threaded_grid = tiny_grid();
        threaded_grid.threads = 3;
        let threaded = run_sweep(&source, &threaded_grid);
        assert_eq!(serial.cells, threaded.cells);
        assert_eq!(serial.digest(), threaded.digest());
        // The baseline cell compares against itself: exactly zero improvement.
        let late = &serial.cells[0];
        assert_eq!(late.policy, "LATE");
        assert_eq!(late.comparison.overall, Some(0.0));
    }

    #[test]
    fn tables_have_one_row_per_cluster_size_and_one_column_per_policy() {
        let source = recorded_source();
        let result = run_sweep(&source, &tiny_grid());
        assert_eq!(result.cells.len(), 4);
        let table = result.improvement_table();
        assert_eq!(table.columns.len(), 3); // Machines + 2 policies
        assert_eq!(table.rows.len(), 2);
        assert!(table.value("6", "GS-only").is_some());
        let means = result.mean_table();
        assert!(means.value("10", "LATE").unwrap() > 0.0);
        // The digest names every cell and the grid shape.
        let digest = result.digest();
        assert_eq!(digest.matches("\ncell ").count(), 4);
        assert!(digest.starts_with("sweep source="));
        assert!(digest.trim_end().ends_with("summary cells=4"));
    }

    #[test]
    fn policy_names_parse_and_reject() {
        assert_eq!(PolicyKind::parse("late").unwrap(), PolicyKind::Late);
        assert_eq!(PolicyKind::parse("GRASS").unwrap(), PolicyKind::grass());
        assert!(PolicyKind::parse("quantum").is_err());
        let err = PolicyKind::parse("grass-sketch").unwrap_err();
        assert!(err.contains("unknown policy 'grass-sketch'"), "{err}");
        assert_eq!(
            parse_list("20,50,100", "machine count", |s| s.parse::<usize>()).unwrap(),
            vec![20, 50, 100]
        );
        assert!(parse_list("", "machine count", |s| s.parse::<usize>()).is_err());
        assert!(parse_list("20,x", "machine count", |s| s.parse::<usize>()).is_err());
    }

    #[test]
    fn sweep_command_rejects_bad_invocations() {
        let err = run_sweep_command(&[]).unwrap_err();
        assert!(err.contains("exactly one"), "{err}");
        let err = run_sweep_command(&["a.trace".into(), "--jobs".into(), "3".into()]).unwrap_err();
        assert!(err.contains("unknown flag --jobs"), "{err}");
        let err = run_sweep_command(&["/nonexistent/x.trace".into()]).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
    }
}
