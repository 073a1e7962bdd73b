//! Job-size binning.
//!
//! The paper bins jobs by their number of tasks both for reporting (§6.1: "small"
//! < 50 tasks, "medium" 51–500, "large" > 500) and for GRASS's sample matching
//! (§4.2: "we bucket jobs by their number of tasks and compare only within jobs of the
//! same bucket"). The reporting bins are coarse; the sample-matching buckets are a
//! finer geometric partition so that GRASS compares a 60-task job with other ~64-task
//! jobs rather than with 500-task jobs.

use serde::{Deserialize, Serialize};

/// The three reporting bins used throughout the paper's evaluation figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum JobSizeBin {
    /// Fewer than 50 tasks.
    Small,
    /// 51–500 tasks (we fold the boundary case of exactly 50 into this bin's lower
    /// neighbour per the paper's "< 50" wording).
    Medium,
    /// More than 500 tasks.
    Large,
}

impl JobSizeBin {
    /// Bin a job by its number of (input) tasks.
    pub fn of(tasks: usize) -> Self {
        if tasks < 50 {
            JobSizeBin::Small
        } else if tasks <= 500 {
            JobSizeBin::Medium
        } else {
            JobSizeBin::Large
        }
    }

    /// All bins in display order.
    pub fn all() -> [JobSizeBin; 3] {
        [JobSizeBin::Small, JobSizeBin::Medium, JobSizeBin::Large]
    }

    /// Label used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            JobSizeBin::Small => "<50",
            JobSizeBin::Medium => "51-500",
            JobSizeBin::Large => ">500",
        }
    }
}

/// Finer, geometric size bucket used by GRASS's sample store (§4.2). Bucket `k`
/// contains jobs with `2^k <= tasks < 2^(k+1)` (bucket 0 holds 1-task jobs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SizeBucket(pub u8);

impl SizeBucket {
    /// Bucket for a job with `tasks` tasks.
    pub fn of(tasks: usize) -> Self {
        let t = tasks.max(1);
        SizeBucket((usize::BITS - 1 - t.leading_zeros()) as u8)
    }

    /// Distance between buckets (used to borrow samples from neighbouring buckets when
    /// a bucket has too few samples of its own).
    pub fn distance(&self, other: &SizeBucket) -> u8 {
        self.0.abs_diff(other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reporting_bins_match_paper_boundaries() {
        assert_eq!(JobSizeBin::of(1), JobSizeBin::Small);
        assert_eq!(JobSizeBin::of(49), JobSizeBin::Small);
        assert_eq!(JobSizeBin::of(50), JobSizeBin::Medium);
        assert_eq!(JobSizeBin::of(500), JobSizeBin::Medium);
        assert_eq!(JobSizeBin::of(501), JobSizeBin::Large);
        assert_eq!(JobSizeBin::of(10_000), JobSizeBin::Large);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(JobSizeBin::Small.label(), "<50");
        assert_eq!(JobSizeBin::Medium.label(), "51-500");
        assert_eq!(JobSizeBin::Large.label(), ">500");
        assert_eq!(JobSizeBin::all().len(), 3);
    }

    #[test]
    fn size_buckets_are_geometric() {
        assert_eq!(SizeBucket::of(1), SizeBucket(0));
        assert_eq!(SizeBucket::of(2), SizeBucket(1));
        assert_eq!(SizeBucket::of(3), SizeBucket(1));
        assert_eq!(SizeBucket::of(4), SizeBucket(2));
        assert_eq!(SizeBucket::of(1000), SizeBucket(9));
        assert_eq!(SizeBucket::of(0), SizeBucket(0));
    }

    #[test]
    fn bucket_bounds_and_distance() {
        // Bucket k holds the task counts 2^k ..= 2^(k+1) - 1.
        assert_eq!(SizeBucket::of(64), SizeBucket(6));
        assert_eq!(SizeBucket::of(127), SizeBucket(6));
        assert_eq!(SizeBucket::of(128), SizeBucket(7));
        assert_eq!(SizeBucket(3).distance(&SizeBucket(5)), 2);
        assert_eq!(SizeBucket(5).distance(&SizeBucket(3)), 2);
    }
}
