//! Differential tests of the partitioned sample store.
//!
//! The store must be **bit-for-bit** equivalent to the frozen pre-partitioning
//! store (`grass_oracles::store::ReferenceSampleStore`): same retained samples,
//! same counts, same `predict_rate` bits under arbitrary record interleavings,
//! capacities and queries — partitioning is a pure reorganisation, not a
//! behaviour change.

use grass::prelude::*;
use grass_core::grass::{BoundKind, QueryContext, Sample};
use grass_oracles::store::ReferenceSampleStore;
use proptest::prelude::*;

/// Case count, overridable via `PROPTEST_CASES` (see `tests/properties.rs`).
fn configured_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}

fn mode_of(sel: u8) -> SpeculationMode {
    if sel.is_multiple_of(2) {
        SpeculationMode::Gs
    } else {
        SpeculationMode::Ras
    }
}

fn kind_of(sel: u8) -> BoundKind {
    if sel.is_multiple_of(2) {
        BoundKind::Deadline
    } else {
        BoundKind::Error
    }
}

fn factors_of(sel: u8) -> FactorSet {
    match sel % 4 {
        0 => FactorSet::all(),
        1 => FactorSet::best_one(),
        2 => FactorSet::best_two_utilization(),
        _ => FactorSet::best_two_accuracy(),
    }
}

/// One record operation, compactly encoded so the strategy stays within the
/// shim's 5-element tuple limit: selectors pick the partition and size bucket,
/// floats supply the measured values.
fn sample_strategy() -> impl Strategy<Value = (u8, u8, f64, f64, f64)> {
    (
        0u8..4,        // mode (low bit) and kind (high bit) selector
        0u8..10,       // size bucket
        0.1f64..500.0, // bound value
        0.1f64..300.0, // performance
        0.0f64..1.0,   // utilization (accuracy derived below)
    )
}

fn build_sample(op: &(u8, u8, f64, f64, f64)) -> Sample {
    let (sel, size, bound, perf, util) = *op;
    Sample {
        mode: mode_of(sel),
        kind: kind_of(sel / 2),
        size_bucket: SizeBucket(size),
        bound_value: bound,
        performance: perf,
        utilization: util,
        // Derived rather than drawn to stay within the tuple limit; still
        // exercises the accuracy kernel with varied values.
        accuracy: (util * 7.3).fract(),
    }
}

fn query_strategy() -> impl Strategy<Value = (u8, u8, f64, f64, f64)> {
    (0u8..8, 0u8..10, 0.1f64..500.0, 0.0f64..1.0, 0.0f64..1.0)
}

fn build_query(q: &(u8, u8, f64, f64, f64)) -> (SpeculationMode, QueryContext, FactorSet) {
    let (sel, size, bound, util, acc) = *q;
    (
        mode_of(sel),
        QueryContext {
            kind: kind_of(sel / 2),
            size_bucket: SizeBucket(size),
            bound_value: bound,
            utilization: util,
            accuracy: acc,
        },
        factors_of(sel / 4 + size),
    )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: configured_cases(),
        ..ProptestConfig::default()
    })]

    /// Under arbitrary record interleavings and eviction pressure, the exact
    /// partitioned store retains the same samples in the same order as the
    /// frozen whole-vector reference, and every prediction agrees bit for bit.
    #[test]
    fn exact_store_matches_the_frozen_reference_bit_for_bit(
        ops in prop::collection::vec(sample_strategy(), 1..120),
        queries in prop::collection::vec(query_strategy(), 1..12),
        cap in 1usize..24,
        min_samples in 0usize..6,
    ) {
        let store = SampleStore::with_capacity(cap);
        let reference = ReferenceSampleStore::with_capacity(cap);
        for op in &ops {
            let sample = build_sample(op);
            store.record(sample.clone());
            reference.record(sample);

            // Retention and counts agree after every single record — this is
            // what makes global-FIFO-by-sequence ≡ drain-from-the-front.
            prop_assert_eq!(store.len(), reference.len());
            prop_assert_eq!(store.counts_snapshot(), reference.counts_snapshot());
        }
        for mode in [SpeculationMode::Gs, SpeculationMode::Ras] {
            for kind in [BoundKind::Deadline, BoundKind::Error] {
                prop_assert_eq!(
                    store.samples_for(mode, kind),
                    reference.samples_for(mode, kind)
                );
            }
        }
        for q in &queries {
            let (mode, ctx, factors) = build_query(q);
            let got = store.predict_rate(mode, &ctx, factors, min_samples);
            let want = reference.predict_rate(mode, &ctx, factors, min_samples);
            prop_assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits));
        }
    }
}

/// The ring-buffer eviction walks the same global FIFO as the historical
/// front-drain, across partitions: drive both stores through an irregular
/// mixed-partition overflow sequence and compare the retained samples per
/// partition, in order, after every record.
#[test]
fn eviction_order_and_counts_match_the_frozen_reference() {
    let store = SampleStore::with_capacity(5);
    let oracle = ReferenceSampleStore::with_capacity(5);
    let mix = [
        (SpeculationMode::Gs, BoundKind::Deadline),
        (SpeculationMode::Gs, BoundKind::Deadline),
        (SpeculationMode::Ras, BoundKind::Error),
        (SpeculationMode::Gs, BoundKind::Error),
        (SpeculationMode::Ras, BoundKind::Deadline),
        (SpeculationMode::Gs, BoundKind::Deadline),
        (SpeculationMode::Ras, BoundKind::Error),
    ];
    for i in 0..23 {
        let (mode, kind) = mix[(i * i) % mix.len()];
        let sample = Sample {
            mode,
            kind,
            size_bucket: SizeBucket(5),
            bound_value: 10.0 + i as f64,
            performance: 20.0 + i as f64,
            utilization: 0.5,
            accuracy: 0.75,
        };
        store.record(sample.clone());
        oracle.record(sample);
        for (m, k) in [
            (SpeculationMode::Gs, BoundKind::Deadline),
            (SpeculationMode::Ras, BoundKind::Deadline),
            (SpeculationMode::Gs, BoundKind::Error),
            (SpeculationMode::Ras, BoundKind::Error),
        ] {
            assert_eq!(
                store.samples_for(m, k),
                oracle.samples_for(m, k),
                "partition ({m:?}, {k:?}) diverged after record {i}"
            );
            let (gs, ras) = store.counts_snapshot().for_kind(k);
            let count = if m == SpeculationMode::Gs { gs } else { ras };
            assert_eq!(count, oracle.count_for(m, k));
        }
        assert_eq!(store.len(), oracle.len());
    }
}
