//! Scale pin for the sample store: recording far past the retention cap must
//! keep memory flat. Past the cap every record evicts the globally oldest
//! sample, so the store retains exactly the last `cap` records and nothing
//! else grows with the stream length.
//!
//! Profiles, following `tests/sim_scale.rs`:
//!
//! * `GRASS_SMOKE=1` — 10k samples through a 1k-sample cap, structural
//!   assertions only, runs in tier-1 CI.
//! * `GRASS_HEAVY=1` — 1M samples through the default 50k-sample cap, with a
//!   pinned `VmHWM` growth budget past the cap (Linux only). Run with
//!   `--nocapture` to see the numbers EXPERIMENTS.md records.
//!
//! With neither variable set the test skips.

use std::time::Instant;

use grass::prelude::*;
use grass_core::grass::{BoundKind, QueryContext, Sample};

fn env_on(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Linux peak resident set size (`VmHWM`), if available.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// A varied-but-bounded sample stream: all four partitions, 12 size buckets,
/// bound values spanning several powers of two, and utilization/accuracy
/// across their whole range.
fn scale_sample(i: usize) -> Sample {
    let mode = if i.is_multiple_of(2) {
        SpeculationMode::Gs
    } else {
        SpeculationMode::Ras
    };
    let kind = if (i / 2).is_multiple_of(2) {
        BoundKind::Deadline
    } else {
        BoundKind::Error
    };
    Sample {
        mode,
        kind,
        size_bucket: SizeBucket((i % 12) as u8),
        bound_value: 2.0 + ((i * 37) % 900) as f64,
        performance: 0.5 + ((i * 13) % 400) as f64,
        utilization: ((i * 7) % 100) as f64 / 100.0,
        accuracy: ((i * 11) % 100) as f64 / 100.0,
    }
}

#[test]
fn exact_store_memory_stays_flat_past_the_retention_cap() {
    let (label, cap, samples, pin_rss) = if env_on("GRASS_SMOKE") {
        ("smoke", 1_000usize, 10_000usize, false)
    } else if env_on("GRASS_HEAVY") {
        ("heavy", 50_000usize, 1_000_000usize, true)
    } else {
        eprintln!("skipping: set GRASS_HEAVY=1 (full) or GRASS_SMOKE=1 (small) to run");
        return;
    };

    // Fill the store to its cap: from here on every record evicts one sample.
    let store = SampleStore::with_capacity(cap);
    for i in 0..cap {
        store.record(scale_sample(i));
    }
    assert_eq!(store.len(), cap);
    let peak_full = peak_rss_bytes();

    let started = Instant::now();
    for i in cap..samples {
        store.record(scale_sample(i));
    }
    let elapsed = started.elapsed();
    let peak_past = peak_rss_bytes();
    eprintln!("# exact ({label}): {samples} samples through a {cap}-sample cap in {elapsed:.2?}");

    // Exactly the last `cap` records stay, in record order within each
    // partition.
    assert_eq!(store.len(), cap);
    assert_eq!(store.generation(), samples as u64);
    for mode in [SpeculationMode::Gs, SpeculationMode::Ras] {
        for kind in [BoundKind::Deadline, BoundKind::Error] {
            let want: Vec<Sample> = (samples - cap..samples)
                .map(scale_sample)
                .filter(|s| s.mode == mode && s.kind == kind)
                .collect();
            let (gs, ras) = store.counts_snapshot().for_kind(kind);
            let count = if mode == SpeculationMode::Gs { gs } else { ras };
            assert_eq!(count, want.len());
            assert!(
                store.samples_for(mode, kind) == want,
                "({mode:?}, {kind:?}) must retain the last records in order"
            );
        }
    }

    if let (Some(full), Some(past)) = (peak_full, peak_past) {
        let growth = past.saturating_sub(full);
        eprintln!(
            "# exact ({label}): peak RSS {:.1} MiB at the cap -> {:.1} MiB (+{:.1} MiB)",
            mib(full),
            mib(past),
            mib(growth)
        );
        if pin_rss {
            // Retaining all 1M samples would take about 53 MiB more than the
            // cap's 50k; recording past the cap must stay an order below that.
            let budget = 8 * 1024 * 1024;
            assert!(
                growth <= budget,
                "recording past the cap grew peak RSS by {:.1} MiB (budget {:.1} MiB)",
                mib(growth),
                mib(budget)
            );
        }
    }

    let ctx = QueryContext {
        kind: BoundKind::Deadline,
        size_bucket: SizeBucket(4),
        bound_value: 50.0,
        utilization: 0.5,
        accuracy: 0.5,
    };
    let predicted = store
        .predict_rate(SpeculationMode::Gs, &ctx, FactorSet::all(), 1)
        .expect("prediction");
    eprintln!("# predict ({label}): {predicted:.6}");
    assert!(predicted.is_finite() && predicted > 0.0);
}
