//! Differential gate for the event-core simulator refactor.
//!
//! Two layers of defence around "the refactored engine changes nothing":
//!
//! 1. **Pinned golden fixtures** (`tests/fixtures/sim/`): a small grid of
//!    workload × policy × cluster cases whose full-precision outcome digest and
//!    captured `ExecutionTrace` bytes were recorded from the pre-refactor engine
//!    (now frozen verbatim as `grass_oracles::sim`). The live engine must
//!    reproduce every fixture byte-for-byte. This is the gate the event-core
//!    refactor had to pass: the fixtures were committed *before* the refactor
//!    landed and are never regenerated from the live engine.
//! 2. **A property harness** replaying arbitrary generated workloads (random
//!    profile × policy × cluster size × seeds) through both the live engine and
//!    the frozen reference, asserting the digests and trace bytes agree exactly.
//!
//! `GRASS_SMOKE=1` / `PROPTEST_CASES` shrink the property harness for the
//! seconds-scale dev loop (PR 4's convention); the scheduled bench workflow runs
//! the full profile. Set `GRASS_REGEN_SIM_FIXTURES=1` to re-record the fixtures
//! from the *reference* engine — only ever needed if the fixture grid itself
//! changes, never for engine work.

use std::path::PathBuf;

use grass::prelude::*;
use grass_oracles::sim::run_reference_traced;
use proptest::prelude::*;

type ProfileEntry = (&'static str, fn() -> TraceProfile);

const PROFILES: &[ProfileEntry] = &[
    ("facebook-hadoop", || {
        TraceProfile::facebook(Framework::Hadoop)
    }),
    ("facebook-spark", || {
        TraceProfile::facebook(Framework::Spark)
    }),
    ("bing-hadoop", || TraceProfile::bing(Framework::Hadoop)),
    ("bing-spark", || TraceProfile::bing(Framework::Spark)),
];

const POLICIES: &[&str] = &["gs", "ras", "grass", "late", "mantri", "nospec", "oracle"];

/// One simulation scenario, fully determined by its fields.
#[derive(Clone, Copy, Debug)]
struct Scenario {
    profile: usize,
    policy: &'static str,
    deadlines: bool,
    machines: usize,
    slots: usize,
    jobs: usize,
    gen_seed: u64,
    sim_seed: u64,
}

impl Scenario {
    fn jobs(&self) -> Vec<JobSpec> {
        let bound = if self.deadlines {
            BoundSpec::paper_deadlines()
        } else {
            BoundSpec::paper_errors()
        };
        let config = WorkloadConfig::new(PROFILES[self.profile].1())
            .with_jobs(self.jobs)
            .with_bound(bound);
        generate(&config, self.gen_seed)
    }

    fn sim_config(&self) -> SimConfig {
        SimConfig {
            cluster: ClusterConfig::small(self.machines, self.slots),
            seed: self.sim_seed,
            ..SimConfig::default()
        }
    }

    /// Run the scenario through `engine`, returning the full-precision outcome
    /// digest and the encoded execution-trace bytes.
    fn run(
        &self,
        engine: fn(&SimConfig, Vec<JobSpec>, &dyn PolicyFactory, &mut dyn TraceSink) -> SimResult,
    ) -> (String, Vec<u8>) {
        let factory = make_factory(self.policy, self.sim_seed).expect("known policy");
        let mut sink = VecSink::new();
        let result = engine(&self.sim_config(), self.jobs(), factory.as_ref(), &mut sink);
        let trace = ExecutionTrace::new(
            ExecutionMeta {
                sim_seed: self.sim_seed,
                policy: self.policy.to_string(),
                machines: self.machines,
                slots_per_machine: self.slots,
            },
            sink.into_events(),
        );
        (outcome_digest(&result), trace.to_bytes())
    }
}

/// The pinned fixture grid: every policy, both bound families, all four trace
/// profiles, a spread of cluster shapes and seeds. Names are the fixture file
/// stems — extend the grid by appending (and re-recording), never by editing
/// existing entries.
const FIXTURE_CASES: &[(&str, Scenario)] = &[
    // (name, profile, policy, deadlines, machines, slots, jobs, gen_seed, sim_seed)
    (
        "gs_fb_spark_err",
        Scenario {
            profile: 1,
            policy: "gs",
            deadlines: false,
            machines: 6,
            slots: 2,
            jobs: 10,
            gen_seed: 11,
            sim_seed: 1,
        },
    ),
    (
        "ras_fb_hadoop_dl",
        Scenario {
            profile: 0,
            policy: "ras",
            deadlines: true,
            machines: 5,
            slots: 3,
            jobs: 8,
            gen_seed: 12,
            sim_seed: 2,
        },
    ),
    (
        "grass_bing_spark_err",
        Scenario {
            profile: 3,
            policy: "grass",
            deadlines: false,
            machines: 8,
            slots: 2,
            jobs: 12,
            gen_seed: 13,
            sim_seed: 3,
        },
    ),
    (
        "grass_fb_spark_dl",
        Scenario {
            profile: 1,
            policy: "grass",
            deadlines: true,
            machines: 6,
            slots: 4,
            jobs: 10,
            gen_seed: 14,
            sim_seed: 4,
        },
    ),
    (
        "late_bing_hadoop_err",
        Scenario {
            profile: 2,
            policy: "late",
            deadlines: false,
            machines: 4,
            slots: 2,
            jobs: 8,
            gen_seed: 15,
            sim_seed: 5,
        },
    ),
    (
        "mantri_fb_hadoop_err",
        Scenario {
            profile: 0,
            policy: "mantri",
            deadlines: false,
            machines: 6,
            slots: 2,
            jobs: 9,
            gen_seed: 16,
            sim_seed: 6,
        },
    ),
    (
        "nospec_bing_spark_dl",
        Scenario {
            profile: 3,
            policy: "nospec",
            deadlines: true,
            machines: 5,
            slots: 2,
            jobs: 7,
            gen_seed: 17,
            sim_seed: 7,
        },
    ),
    (
        "oracle_fb_spark_err",
        Scenario {
            profile: 1,
            policy: "oracle",
            deadlines: false,
            machines: 6,
            slots: 3,
            jobs: 10,
            gen_seed: 18,
            sim_seed: 8,
        },
    ),
];

/// Separates the digest from the trace bytes inside a fixture file. Neither the
/// digest (`outcome ...`/`summary ...` lines) nor a text trace can contain it.
const FIXTURE_SEPARATOR: &[u8] = b"==== execution trace ====\n";

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/sim")
}

fn encode_fixture(digest: &str, trace: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(digest.len() + FIXTURE_SEPARATOR.len() + trace.len());
    bytes.extend_from_slice(digest.as_bytes());
    bytes.extend_from_slice(FIXTURE_SEPARATOR);
    bytes.extend_from_slice(trace);
    bytes
}

fn regen_requested() -> bool {
    std::env::var("GRASS_REGEN_SIM_FIXTURES").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn smoke() -> bool {
    std::env::var("GRASS_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

#[test]
fn live_engine_reproduces_pinned_pre_refactor_fixtures() {
    let dir = fixture_dir();
    if regen_requested() {
        // Record from the *frozen reference* engine, so the fixtures always pin
        // pre-refactor behaviour even when regenerated on a post-refactor tree.
        std::fs::create_dir_all(&dir).unwrap();
        for (name, scenario) in FIXTURE_CASES {
            let (digest, trace) = scenario.run(run_reference_traced);
            std::fs::write(
                dir.join(format!("{name}.fixture")),
                encode_fixture(&digest, &trace),
            )
            .unwrap();
            eprintln!("# recorded fixture {name}");
        }
    }
    for (name, scenario) in FIXTURE_CASES {
        let path = dir.join(format!("{name}.fixture"));
        let pinned = std::fs::read(&path).unwrap_or_else(|e| {
            panic!(
                "missing fixture {} ({e}); run with GRASS_REGEN_SIM_FIXTURES=1 to record",
                path.display()
            )
        });
        let (digest, trace) = scenario.run(run_simulation_traced);
        let live = encode_fixture(&digest, &trace);
        assert!(
            live == pinned,
            "{name}: live engine diverged from the pinned pre-refactor fixture \
             ({} live bytes vs {} pinned)",
            live.len(),
            pinned.len()
        );
    }
}

#[test]
fn frozen_reference_engine_still_reproduces_the_fixtures() {
    // Guards the oracle itself: if shared code (JobRuntime, trace hooks, RNG use)
    // drifts, the reference engine stops matching the fixtures and the
    // differential property below loses its meaning.
    let dir = fixture_dir();
    for (name, scenario) in FIXTURE_CASES {
        let path = dir.join(format!("{name}.fixture"));
        let Ok(pinned) = std::fs::read(&path) else {
            continue; // missing-fixture diagnostics live in the test above
        };
        let (digest, trace) = scenario.run(run_reference_traced);
        assert!(
            encode_fixture(&digest, &trace) == pinned,
            "{name}: frozen reference engine diverged from its own recording — \
             shared simulator state (JobRuntime/trace/RNG) changed behaviour"
        );
    }
}

fn property_cases() -> u32 {
    if let Ok(v) = std::env::var("PROPTEST_CASES") {
        if let Ok(n) = v.parse() {
            return n;
        }
    }
    if smoke() {
        8
    } else {
        48
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: property_cases(), ..ProptestConfig::default() })]

    /// The heart of the differential harness: on arbitrary workloads the event
    /// core and the frozen pre-refactor engine must agree on the full-precision
    /// outcome digest *and* on every captured trace byte.
    #[test]
    fn event_core_matches_frozen_reference_on_arbitrary_workloads(
        (profile, policy_idx) in (0usize..4, 0usize..7),
        deadlines in any::<bool>(),
        (machines, slots) in (2usize..10, 1usize..5),
        jobs in 1usize..12,
        (gen_seed, sim_seed) in (0u64..1_000_000, 0u64..1_000_000),
    ) {
        let scenario = Scenario {
            profile,
            policy: POLICIES[policy_idx],
            deadlines,
            machines,
            slots,
            jobs,
            gen_seed,
            sim_seed,
        };
        let (live_digest, live_trace) = scenario.run(run_simulation_traced);
        let (ref_digest, ref_trace) = scenario.run(run_reference_traced);
        prop_assert_eq!(
            &live_digest, &ref_digest,
            "outcome digest diverged on {:?}", scenario
        );
        prop_assert!(
            live_trace == ref_trace,
            "trace bytes diverged on {:?} ({} live vs {} reference bytes)",
            scenario, live_trace.len(), ref_trace.len()
        );
    }
}
