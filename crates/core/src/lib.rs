//! # grass-core
//!
//! Core library of the GRASS reproduction (NSDI '14, "GRASS: Trimming Stragglers in
//! Approximation Analytics").
//!
//! This crate contains everything that is *policy*, independent of how a cluster is
//! simulated or where workloads come from:
//!
//! * the shared task / job model ([`TaskSpec`], [`JobSpec`], [`Bound`], [`JobView`],
//!   [`TaskView`], [`TaskRows`], [`JobOutcome`]),
//! * the [`SpeculationPolicy`] / [`PolicyFactory`] traits through which a cluster
//!   scheduler asks a per-job policy what to run next on a freed slot,
//! * the paper's two building-block policies, **GS** (Greedy Speculative) and **RAS**
//!   (Resource Aware Speculative), implemented exactly after Pseudocode 1 (deadline
//!   bound) and Pseudocode 2 (error bound),
//! * **GRASS** itself: RAS early, GS near the approximation bound, with the switching
//!   point learned online from ξ-perturbed sample jobs (§4 of the paper), plus the
//!   static *strawman* switcher and the Best-1/Best-2 factor ablations used in §6.3,
//! * estimator utilities for `trem` / `tnew` with a configurable target accuracy
//!   (§5.1 of the paper reports ~72% / ~76% accuracy in production).
//!
//! The discrete-event cluster simulator that drives these policies lives in
//! `grass-sim`; baselines (LATE, Mantri, the oracle scheduler) live in
//! `grass-policies`; workload generation lives in `grass-workload`.
//!
//! ## Quick example
//!
//! ```
//! use grass_core::{Bound, JobSpec, TaskSpec, GsPolicy, SpeculationPolicy, JobView, TaskView};
//!
//! // A tiny deadline-bound job: three tasks, 10s deadline.
//! let job = JobSpec::single_stage(1, 0.0, Bound::Deadline(10.0), vec![1.0, 2.0, 3.0]);
//! assert_eq!(job.total_tasks(), 3);
//! ```

pub mod bins;
pub mod estimate;
pub mod grass;
pub mod job;
pub mod outcome;
pub mod policy;
pub mod speculation;
pub mod task;

pub use bins::{JobSizeBin, SizeBucket};
pub use estimate::{degrade_estimate, AccuracyTracker, EstimatorConfig};
pub use grass::{
    FactorSet, GrassConfig, GrassFactory, GrassPolicy, SampleStore, StrawmanConfig, SwitchScanCache,
};
pub use job::{Bound, DeadlineIndex, JobSpec, JobView, StageSpec, TnewEstimate};
pub use outcome::JobOutcome;
pub use policy::{Action, ActionKind, BoxedPolicy, PolicyFactory, SpeculationPolicy};
pub use speculation::{GsFactory, GsPolicy, RasFactory, RasPolicy, SpeculationMode};
pub use task::{JobId, StageId, TaskId, TaskRows, TaskSpec, TaskView, Time};

/// Crate-wide result alias (the crate has no fallible public API today, but the alias
/// keeps signatures stable if validation errors are added).
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced while validating job specifications.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A job was declared with no tasks at all.
    EmptyJob(JobId),
    /// A bound value was outside its legal domain (negative deadline, error fraction
    /// outside `[0, 1)`).
    InvalidBound(String),
    /// A task referenced a stage index that the job does not declare.
    UnknownStage { job: JobId, stage: StageId },
    /// A numeric field (arrival time, task work) was NaN, infinite or negative —
    /// such values would otherwise poison every downstream comparison and mean.
    DegenerateValue { job: JobId, message: String },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::EmptyJob(id) => write!(f, "job {id:?} has no tasks"),
            Error::InvalidBound(msg) => write!(f, "invalid approximation bound: {msg}"),
            Error::UnknownStage { job, stage } => {
                write!(f, "job {job:?} references undeclared stage {stage:?}")
            }
            Error::DegenerateValue { job, message } => {
                write!(f, "job {job:?} has a degenerate value: {message}")
            }
        }
    }
}

impl std::error::Error for Error {}
