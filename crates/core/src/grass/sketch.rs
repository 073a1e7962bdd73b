//! Log-spaced histogram of task-completion rates, and the exact base-2 helpers the
//! sample store's bins share with it.
//!
//! Every partition of [`crate::grass::SampleStore`] keeps a fixed-size histogram of
//! observed rates on a base-2 logarithmic grid, which its snapshot carries. Bucket
//! indices come straight from the IEEE exponent bits (no libm) and counts are
//! integers, so two stores fed the same rates hold identical histograms on every
//! platform.
//!
//! Resolution: one bucket per power of two over `[2^-32, 2^31]`. Rates outside the
//! range clamp to the edge buckets; non-positive rates land in bucket 0.

/// Number of log-spaced buckets; covers rate exponents `-32..=31`.
const SKETCH_BUCKETS: usize = 64;

/// Exponent of the smallest bucket (`2^SKETCH_MIN_EXP` is the left edge of bucket 0).
const SKETCH_MIN_EXP: i32 = -32;

/// `floor(log2(x))` for finite positive `x`, read straight off the exponent bits so
/// the result is exact and identical on every platform (no libm rounding).
pub(crate) fn floor_log2(x: f64) -> i32 {
    debug_assert!(x > 0.0 && x.is_finite());
    let bits = x.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i32;
    if exp == 0 {
        // Subnormal: below 2^-1022, far under the sketch floor; clamp hard.
        -1075
    } else {
        exp - 1023
    }
}

/// Exact power of two `2^e` built from the exponent bits (for `e` in normal range).
pub(crate) fn pow2(e: i32) -> f64 {
    debug_assert!((-1022..=1023).contains(&e));
    f64::from_bits(((e + 1023) as u64) << 52)
}

/// Fixed-size histogram of rates on a base-2 log grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RateHistogram {
    counts: [u64; SKETCH_BUCKETS],
    total: u64,
}

impl Default for RateHistogram {
    fn default() -> Self {
        RateHistogram {
            counts: [0; SKETCH_BUCKETS],
            total: 0,
        }
    }
}

impl RateHistogram {
    /// Bucket index for a rate. Non-positive and non-finite-negative rates map to
    /// bucket 0; rates beyond the grid clamp to the edges.
    fn bucket_of(rate: f64) -> usize {
        if rate <= 0.0 || !rate.is_finite() {
            return 0;
        }
        (floor_log2(rate) - SKETCH_MIN_EXP).clamp(0, SKETCH_BUCKETS as i32 - 1) as usize
    }

    /// Record one rate observation.
    pub(crate) fn insert(&mut self, rate: f64) {
        // grass: allow(panicky-lib, "bucket_of clamps to 0..SKETCH_BUCKETS")
        self.counts[Self::bucket_of(rate)] += 1;
        self.total += 1;
    }

    /// Whether no observations have been recorded.
    pub(crate) fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Non-empty buckets as `(bucket index, count)` pairs in ascending index order —
    /// the canonical wire form used by the store snapshot codec.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_log2_matches_definition_on_powers_and_neighbours() {
        for e in -30..30 {
            let p = pow2(e);
            assert_eq!(floor_log2(p), e, "2^{e}");
            assert_eq!(floor_log2(p * 1.5), e, "1.5·2^{e}");
            assert_eq!(floor_log2(p * 1.999), e, "1.999·2^{e}");
        }
        assert_eq!(floor_log2(1.0), 0);
        assert_eq!(floor_log2(0.5), -1);
        assert_eq!(floor_log2(3.0), 1);
    }

    #[test]
    fn bucket_edges_and_clamping() {
        assert_eq!(RateHistogram::bucket_of(0.0), 0);
        assert_eq!(RateHistogram::bucket_of(-4.0), 0);
        assert_eq!(RateHistogram::bucket_of(f64::NAN), 0);
        assert_eq!(RateHistogram::bucket_of(f64::INFINITY), 0);
        assert_eq!(RateHistogram::bucket_of(1.0), 32);
        assert_eq!(RateHistogram::bucket_of(2.0), 33);
        assert_eq!(RateHistogram::bucket_of(0.5), 31);
        // Far beyond both edges clamps instead of indexing out of range.
        assert_eq!(RateHistogram::bucket_of(1e-200), 0);
        assert_eq!(RateHistogram::bucket_of(1e200), SKETCH_BUCKETS - 1);
    }
}
