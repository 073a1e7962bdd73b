//! Quickstart: schedule a single deadline-bound job with GRASS and with LATE on a
//! small simulated cluster, and compare the accuracy each achieves by the deadline.
//!
//! Run with: `cargo run --release --example quickstart`

use grass::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // A 10-machine, 4-slot cluster with the paper-calibrated straggler model.
    let sim = SimConfig {
        cluster: ClusterConfig {
            machines: 10,
            slots_per_machine: 4,
            ..ClusterConfig::ec2_scaled()
        },
        seed: 42,
        ..SimConfig::default()
    };

    // One deadline-bound job: 200 tasks with heavy-tailed work, 60 seconds to produce
    // the most accurate answer it can.
    let mut rng = StdRng::seed_from_u64(7);
    let work: Vec<f64> = (0..200)
        .map(|_| {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            (2.0 * u.powf(-1.0 / 1.259)).min(60.0)
        })
        .collect();
    let deadline = 60.0;

    println!("GRASS quickstart: 200-task deadline-bound job, {deadline}s deadline, 40 slots\n");
    println!(
        "{:<10} {:>12} {:>18} {:>14}",
        "policy", "accuracy", "speculative copies", "slot-seconds"
    );

    for (name, outcome) in [
        ("LATE", run(&sim, &work, deadline, &LateFactory)),
        ("GS", run(&sim, &work, deadline, &GsFactory)),
        ("RAS", run(&sim, &work, deadline, &RasFactory)),
        ("GRASS", run(&sim, &work, deadline, &GrassFactory::new(1))),
    ] {
        println!(
            "{:<10} {:>11.1}% {:>18} {:>14.0}",
            name,
            outcome.accuracy() * 100.0,
            outcome.speculative_copies,
            outcome.slot_seconds
        );
    }

    println!();
    println!("Accuracy is the fraction of the job's input tasks completed by the deadline;");
    println!("GRASS runs RAS early in the job and switches to GS as the deadline approaches.");
}

fn run(sim: &SimConfig, work: &[f64], deadline: f64, factory: &dyn PolicyFactory) -> JobOutcome {
    let job = JobSpec::single_stage(1, 0.0, Bound::Deadline(deadline), work.to_vec());
    let result = run_simulation(sim, vec![job], factory);
    result.outcomes.into_iter().next().expect("one job outcome")
}
