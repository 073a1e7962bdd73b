//! The tracing decorators are passive: at a reduced size, a traced run of
//! each workload produces the same digest and the same work counts as an
//! untraced run of the same inputs.

use std::path::PathBuf;

use perfbench::probe::Recorder;
use perfbench::sim_midscale::SimMidscale;
use perfbench::sweep_fleet::SweepFleet;
use perfbench::trace_pipeline::TracePipeline;
use perfbench::{Iteration, Workload};

const SEED: u64 = 3;

fn out_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run `w` untraced then traced over one set-up; both must pass their checks
/// and agree byte for byte.
fn untraced_and_traced<W: Workload>(w: &W, name: &str) -> (Iteration, Iteration) {
    let (input, _) = w.setup(SEED, &out_dir(name)).unwrap();
    let plain = w.run(&input, None);
    let mut recorder = Recorder::new();
    let traced = w.run(&input, Some(&mut recorder));
    assert_eq!(plain.failed, 0, "{:?}", plain.problems);
    assert_eq!(traced.failed, 0, "{:?}", traced.problems);
    assert!(!plain.digest.is_empty());
    assert_eq!(plain.digest, traced.digest);
    assert_eq!(plain.counts, traced.counts);
    assert!(plain.layers.0.is_empty());
    assert!(!traced.layers.0.is_empty());
    assert!(!recorder.spans().is_empty());
    (plain, traced)
}

#[test]
fn sim_midscale_traced_run_is_passive() {
    let w = SimMidscale {
        machines: 100,
        slots: 2,
        jobs: 12,
    };
    let (plain, traced) = untraced_and_traced(&w, "sim");
    // The decorator saw every consultation the simulator counted.
    assert_eq!(
        traced.layers.get("policy.choose_calls"),
        plain.counts.get("sim.consultations")
    );
    assert!(traced.layers.get("sim.view_rows").unwrap() > 0.0);
}

#[test]
fn sweep_fleet_traced_run_is_passive_and_keeps_every_sync() {
    let (plain, traced) = untraced_and_traced(&SweepFleet { jobs: 6 }, "sweep");
    for it in [&plain, &traced] {
        assert_eq!(it.counts.get("sweep.cells"), Some(36.0));
        assert_eq!(it.counts.get("fleet.completed"), Some(36.0));
        assert_eq!(it.counts.get("fleet.sync_exchanges"), Some(36.0));
    }
    let cell_s: f64 = ["LATE", "GS", "RAS", "GRASS"]
        .iter()
        .map(|p| traced.layers.get(&format!("sweep.cell_s.{p}")).unwrap())
        .sum();
    assert!(cell_s > 0.0);
}

#[test]
fn trace_pipeline_traced_run_is_passive() {
    let (plain, traced) = untraced_and_traced(&TracePipeline { jobs: 300 }, "pipeline");
    assert_eq!(plain.counts.get("workload.jobs"), Some(300.0));
    assert!(traced.layers.get("trace.convert_s.v2_v3").unwrap() > 0.0);
}

#[test]
fn digests_repeat_for_a_seed_and_differ_across_seeds() {
    let w = SimMidscale {
        machines: 100,
        slots: 2,
        jobs: 12,
    };
    let out = out_dir("seeds");
    let digest = |seed| {
        let (input, _) = w.setup(seed, &out).unwrap();
        w.run(&input, None).digest
    };
    assert_eq!(digest(5), digest(5));
    assert_ne!(digest(5), digest(6));
}
