//! End-to-end fleet tests: a broker plus workers (threads or real `repro`
//! processes) must reproduce the single-process sweep digest byte for byte —
//! including across worker crashes, lease expiry and fully-cached re-runs.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use grass_experiments::{
    run_sweep, ExpConfig, FleetPlan, PolicyKind, SweepCellRunner, SweepConfig,
};
use grass_fleet::{run_worker, serve_broker, DigestCache, FleetConfig};
use grass_sim::ClusterConfig;
use grass_trace::{open_workload_source, record_workload, TraceFormat, WorkloadMeta};
use grass_workload::{BoundSpec, Framework, StreamedWorkload, TraceProfile, WorkloadConfig};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("grass-fleet-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn record_trace(dir: &Path) -> PathBuf {
    let config = WorkloadConfig::new(TraceProfile::facebook(Framework::Spark))
        .with_jobs(6)
        .with_bound(BoundSpec::paper_errors());
    let trace = record_workload(&config, 7, 11, "late", 10, 4);
    let path = dir.join("workload.trace");
    trace.save_as(&path, TraceFormat::Text).unwrap();
    path
}

/// A 2×2 grid over the recorded trace: small enough for CI, big enough that
/// grid-order assembly matters.
fn grid(meta: &WorkloadMeta, source: &StreamedWorkload) -> SweepConfig {
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

fn plan_for(trace_path: &Path) -> (FleetPlan, String) {
    let (meta, source) = open_workload_source(trace_path).unwrap();
    let config = grid(&meta, &source);
    let expected = run_sweep(&source, &config).digest();
    let plan = FleetPlan::new(trace_path, meta, source, config).unwrap();
    (plan, expected)
}

#[test]
fn fleet_of_thread_workers_reproduces_the_sweep_digest() {
    let dir = temp_dir("threads");
    let trace_path = record_trace(&dir);
    let (plan, expected) = plan_for(&trace_path);

    let specs = plan.specs().unwrap();
    let cells = specs.len();
    let cached = vec![None; cells];
    let handle = serve_broker(specs, cached, FleetConfig::test_profile()).unwrap();
    let addr = handle.addr();
    let started = Instant::now();
    let workers: Vec<_> = (0..2)
        .map(|w| {
            thread::spawn(move || {
                let runner = SweepCellRunner::new();
                run_worker(addr, &format!("w{w}"), &runner)
            })
        })
        .collect();
    let outcome = handle.wait().unwrap();
    let mut completed = 0;
    for w in workers {
        completed += w.join().unwrap().unwrap().completed;
    }
    assert_eq!(completed, cells);

    let merged = plan.merge(&outcome.results, started.elapsed()).unwrap();
    assert_eq!(merged.digest(), expected);
    assert_eq!(outcome.stats.completed as usize, cells);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hung_worker_loses_its_lease_and_the_digest_survives() {
    let dir = temp_dir("hung");
    let trace_path = record_trace(&dir);
    let (plan, expected) = plan_for(&trace_path);

    let specs = plan.specs().unwrap();
    let cells = specs.len();
    let handle = serve_broker(specs, vec![None; cells], FleetConfig::test_profile()).unwrap();
    let addr = handle.addr();

    // A raw client claims a cell and then hangs: the connection stays open but
    // no heartbeats arrive, so only the lease-expiry ticker can reclaim it.
    let hung = TcpStream::connect(addr).unwrap();
    {
        let mut writer = hung.try_clone().unwrap();
        let mut reader = BufReader::new(hung.try_clone().unwrap());
        let mut line = String::new();
        writer.write_all(b"hello worker=hung\n").unwrap();
        reader.read_line(&mut line).unwrap();
        line.clear();
        writer.write_all(b"claim worker=hung\n").unwrap();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("grant "), "got {line:?}");
    }

    // Wait for the broker to expire the silent lease before any healthy
    // worker shows up, so the test pins expiry (not crash release).
    let deadline = Instant::now() + Duration::from_secs(30);
    while handle.snapshot().unwrap().stats.expired_leases == 0 {
        assert!(Instant::now() < deadline, "lease never expired");
        thread::sleep(Duration::from_millis(10));
    }

    let started = Instant::now();
    let worker = thread::spawn(move || {
        let runner = SweepCellRunner::new();
        run_worker(addr, "healthy", &runner)
    });
    let outcome = handle.wait().unwrap();
    worker.join().unwrap().unwrap();
    drop(hung);

    let merged = plan.merge(&outcome.results, started.elapsed()).unwrap();
    assert_eq!(merged.digest(), expected);
    assert!(outcome.stats.expired_leases >= 1);
    assert!(outcome.stats.dispatched as usize > cells);
    let _ = std::fs::remove_dir_all(&dir);
}

fn spawn_worker(addr: std::net::SocketAddr, id: &str, stall_ms: u64) -> std::process::Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.arg("fleet")
        .arg("work")
        .arg("--connect")
        .arg(addr.to_string())
        .arg("--id")
        .arg(id)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if stall_ms > 0 {
        cmd.arg("--stall-ms").arg(stall_ms.to_string());
    }
    cmd.spawn().unwrap()
}

#[test]
fn sigkilled_worker_is_rescheduled_and_the_digest_survives() {
    let dir = temp_dir("sigkill");
    let trace_path = record_trace(&dir);
    let (plan, expected) = plan_for(&trace_path);

    let specs = plan.specs().unwrap();
    let cells = specs.len();
    let handle = serve_broker(specs, vec![None; cells], FleetConfig::test_profile()).unwrap();
    let addr = handle.addr();

    // The victim stalls long before running its first cell, so it is reliably
    // mid-cell (holding a lease, heartbeating) when the SIGKILL lands.
    let mut victim = spawn_worker(addr, "victim", 30_000);
    let deadline = Instant::now() + Duration::from_secs(30);
    while !handle
        .snapshot()
        .unwrap()
        .leases
        .iter()
        .any(|(_, worker)| worker == "victim")
    {
        assert!(Instant::now() < deadline, "victim never claimed a cell");
        thread::sleep(Duration::from_millis(10));
    }
    victim.kill().unwrap(); // SIGKILL on unix
    victim.wait().unwrap();

    let started = Instant::now();
    let mut healthy = spawn_worker(addr, "healthy", 0);
    let outcome = handle.wait().unwrap();
    healthy.wait().unwrap();

    let merged = plan.merge(&outcome.results, started.elapsed()).unwrap();
    assert_eq!(merged.digest(), expected);
    // The victim's cell came back via crash release (broker saw the dropped
    // connection) or lease expiry, and was dispatched at least twice.
    assert!(outcome.stats.crash_releases + outcome.stats.expired_leases >= 1);
    assert!(outcome.stats.dispatched as usize > cells);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fully_cached_grid_replays_without_workers() {
    let dir = temp_dir("cached");
    let trace_path = record_trace(&dir);
    let (plan, expected) = plan_for(&trace_path);
    let cache = DigestCache::open(dir.join("cells")).unwrap();

    // First run: thread workers fill the cache.
    let specs = plan.specs().unwrap();
    let cells = specs.len();
    let handle = serve_broker(
        specs,
        plan.lookup_cached(&cache).unwrap(),
        FleetConfig::test_profile(),
    )
    .unwrap();
    let addr = handle.addr();
    let worker = thread::spawn(move || {
        let runner = SweepCellRunner::new();
        run_worker(addr, "filler", &runner)
    });
    let started = Instant::now();
    let outcome = handle.wait().unwrap();
    worker.join().unwrap().unwrap();
    let none_cached = vec![None; cells];
    assert_eq!(
        plan.write_back(&cache, &none_cached, &outcome.results)
            .unwrap(),
        cells
    );
    let first = plan.merge(&outcome.results, started.elapsed()).unwrap();
    assert_eq!(first.digest(), expected);

    // Second run: every cell is preloaded, the broker finishes with no
    // workers at all, and the digest still matches.
    let (plan2, _) = plan_for(&trace_path);
    let cached = plan2.lookup_cached(&cache).unwrap();
    assert!(cached.iter().all(Option::is_some));
    let handle = serve_broker(plan2.specs().unwrap(), cached, FleetConfig::test_profile()).unwrap();
    assert!(handle.done());
    let outcome = handle.wait().unwrap();
    assert_eq!(outcome.stats.dispatched, 0);
    assert_eq!(outcome.stats.cached as usize, cells);
    let second = plan2.merge(&outcome.results, Duration::ZERO).unwrap();
    assert_eq!(second.digest(), expected);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Run the `repro` binary and return (stdout, stderr), asserting success.
fn repro(args: &[&str]) -> (String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "repro {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    (
        String::from_utf8(output.stdout).unwrap(),
        String::from_utf8(output.stderr).unwrap(),
    )
}

#[test]
fn fleet_run_cli_matches_sweep_and_resumes_from_cache() {
    let dir = temp_dir("cli");
    let trace_path = record_trace(&dir);
    let trace = trace_path.to_str().unwrap();
    let cache_dir = dir.join("cells");
    let cache = cache_dir.to_str().unwrap();
    let grid_flags = ["--machines", "6,10", "--policies", "late,gs"];

    let mut sweep_args = vec!["sweep", trace];
    sweep_args.extend_from_slice(&grid_flags);
    let (sweep_digest, _) = repro(&sweep_args);

    let mut fleet_args = vec![
        "fleet",
        "run",
        trace,
        "--workers",
        "2",
        "--test-profile",
        "--cache",
        cache,
    ];
    fleet_args.extend_from_slice(&grid_flags);
    let (fleet_digest, fleet_log) = repro(&fleet_args);
    assert_eq!(fleet_digest, sweep_digest);
    assert!(fleet_log.contains("cached=0"), "{fleet_log}");

    // Second fleet run: every cell served from the cache, zero dispatches.
    let (fleet_digest2, fleet_log2) = repro(&fleet_args);
    assert_eq!(fleet_digest2, sweep_digest);
    assert!(
        fleet_log2.contains("cached=4 ran=0"),
        "expected fully-cached second run: {fleet_log2}"
    );

    // `sweep --resume` shares the same cache and digest.
    let mut resume_args = vec!["sweep", trace, "--resume", cache];
    resume_args.extend_from_slice(&grid_flags);
    let (resume_digest, resume_log) = repro(&resume_args);
    assert_eq!(resume_digest, sweep_digest);
    assert!(
        resume_log.contains("resume cells=4 cached=4 ran=0"),
        "{resume_log}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
