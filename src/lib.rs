//! # grass
//!
//! Facade crate for the GRASS (NSDI '14) reproduction: *GRASS: Trimming Stragglers in
//! Approximation Analytics* (Ananthanarayanan, Hung, Ren, Stoica, Wierman, Yu).
//!
//! GRASS is a speculation (straggler-mitigation) algorithm for **approximation jobs**
//! — jobs that either maximise accuracy within a deadline or minimise the time to
//! reach an error bound. It combines two simple policies: **GS** (greedy speculation)
//! and **RAS** (resource-aware speculation), starting a job under RAS and switching to
//! GS near the approximation bound, with the switching point learned online.
//!
//! This crate re-exports the whole workspace so applications can depend on a single
//! crate:
//!
//! * [`core`] (`grass-core`) — task/job model, GS, RAS, GRASS, estimators,
//! * [`sim`] (`grass-sim`) — the discrete-event cluster simulator substrate,
//! * [`workload`] (`grass-workload`) — Facebook/Bing-calibrated synthetic traces,
//! * [`policies`] (`grass-policies`) — LATE, Mantri, no-speculation and oracle
//!   baselines,
//! * [`model`] (`grass-model`) — the Appendix-A analytic model and Hill estimator,
//! * [`metrics`] (`grass-metrics`) — outcome aggregation and report tables,
//! * [`trace`] (`grass-trace`) — workload/execution trace capture, codec and replay,
//! * [`fleet`] (`grass-fleet`) — broker/worker sweep service with cell leases,
//!   heartbeats and a persistent digest cache,
//! * [`experiments`] (`grass-experiments`) — harnesses regenerating every table and
//!   figure of the paper,
//! * [`analysis`] (`grass-analysis`) — determinism & robustness lint engine behind
//!   `repro lint` (see `docs/lints.md`).
//!
//! ## Quickstart
//!
//! ```
//! use grass::prelude::*;
//!
//! // A small cluster and a deadline-bound job with heavy-tailed tasks.
//! let sim = SimConfig {
//!     cluster: ClusterConfig::small(4, 2),
//!     ..SimConfig::default()
//! };
//! let job = JobSpec::single_stage(1, 0.0, Bound::Deadline(30.0), vec![2.0; 40]);
//!
//! // Schedule it with GRASS and inspect the achieved accuracy.
//! let grass = GrassFactory::new(7);
//! let result = run_simulation(&sim, vec![job], &grass);
//! let outcome = &result.outcomes[0];
//! assert!(outcome.accuracy() > 0.0);
//! ```

pub use grass_analysis as analysis;
pub use grass_core as core;
pub use grass_experiments as experiments;
pub use grass_fleet as fleet;
pub use grass_metrics as metrics;
pub use grass_model as model;
pub use grass_policies as policies;
pub use grass_sim as sim;
pub use grass_trace as trace;
pub use grass_workload as workload;

/// Convenient single-import prelude for applications and examples.
///
/// The prelude is *complete* with respect to the sub-crates' root re-exports: every
/// name a workspace crate re-exports at its root appears here (the facade test
/// `tests/facade.rs` parses the crate roots and fails on any drift in either
/// direction). The sub-crates' own root definitions that are deliberately *not*
/// re-exported (`grass_core::{Error, Result}`, which would shadow the std prelude)
/// are accessible through the module re-exports above.
pub mod prelude {
    pub use grass_analysis::{
        is_known_lint, lex, lint_info, lint_source, parse_suppressions, path_covers, render_json,
        render_text, role_for, run_lints, sort_findings, summarize, AnalysisConfig, ClassSet,
        Comment, FileCtx, Finding, LexedFile, LintInfo, PathAllow, Role, Severity, SourceFile,
        Summary, Suppression, SuppressionError, Token, TokenKind, Workspace, CATALOG,
    };
    pub use grass_core::{
        degrade_estimate, AccuracyTracker, Action, ActionKind, Bound, BoxedPolicy, DeadlineIndex,
        EstimatorConfig, FactorSet, GrassConfig, GrassFactory, GrassPolicy, GsFactory, GsPolicy,
        JobId, JobOutcome, JobSizeBin, JobSpec, JobView, PolicyFactory, RasFactory, RasPolicy,
        SampleStore, SizeBucket, SpeculationMode, SpeculationPolicy, StageId, StageSpec,
        StrawmanConfig, TaskId, TaskRows, TaskSpec, TaskView, Time, TnewEstimate,
    };
    pub use grass_experiments::{
        assemble_sweep_result, compare, compare_outcomes, experiment_ids, make_factory,
        merge_seed_sets, metric_for, metric_for_source, outcome_digest, run_experiment,
        run_experiments_command, run_fleet_command, run_lint_command, run_once, run_policy,
        run_sweep, run_sweep_cell, run_sweep_command, run_trace_command, sample_task_durations,
        trace_identity, Comparison, ExpConfig, FleetCellSpec, FleetPlan, PolicyKind, SweepCell,
        SweepCellRunner, SweepConfig, SweepResult,
    };
    pub use grass_fleet::{
        fnv1a64, run_fleet, run_worker, serve_broker, BrokerHandle, CellRunner, CellStatus, Claim,
        Completion, DigestCache, FleetConfig, FleetError, FleetOutcome, FleetSnapshot, FleetStats,
        GridState, Lease, LeaseTable, Request, Response, WorkerReport, PROTOCOL_VERSION,
        SYNC_SEPARATOR,
    };
    pub use grass_metrics::{
        improvement_by_size_bin, improvement_percent, mean_metric, overall_improvement, Cell,
        Metric, OutcomeSet, Report, Series, Table,
    };
    pub use grass_model::{
        figure4_curves, hill_estimate, hill_plot, tail_index, Figure4Curve, HillPoint, Pareto,
        ProactiveModel, ReactiveModel,
    };
    pub use grass_policies::{
        LateFactory, LatePolicy, MantriFactory, MantriPolicy, NoSpecFactory, NoSpecPolicy,
        OracleFactory, OraclePolicy,
    };
    pub use grass_sim::{
        run_simulation, run_simulation_traced, ClusterConfig, CompletionEffect, CopyId,
        CopyRuntime, Event, EventQueue, HeterogeneityModel, JobRuntime, Machine, NullSink,
        SimConfig, SimResult, SimStats, SimTraceEvent, SlotId, StragglerModel, TaskRuntime,
        TimeWeighted, TraceSink, VecSink,
    };
    pub use grass_trace::{
        codec_for, convert_stream, open_workload_source, open_workload_source_mmap,
        record_workload, replay, replay_config, sniff_bytes, sniff_format, BinaryCodec,
        CompressedCodec, ExecutionEvents, ExecutionMeta, ExecutionTrace, ExecutionTraceSink,
        Fields, StreamKind, TextCodec, TraceCodec, TraceError, TraceFormat, TraceItems,
        TraceReader, TraceStats, WorkloadItems, WorkloadMeta, WorkloadTrace, WorkloadTraceSink,
        BINARY_FORMAT_VERSION, COMPRESSED_FORMAT_VERSION, FORMAT_VERSION,
    };
    pub use grass_workload::{
        generate, generate_job, ideal_duration, table1_rows, BoundSpec, Framework,
        GeneratedWorkload, InterArrival, JobGen, JobSource, RecordedWorkload, SizeMix,
        StreamedWorkload, TraceProfile, TraceSource, TraceSummary, WorkDistribution,
        WorkloadConfig,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_are_usable_together() {
        let profile = TraceProfile::facebook(Framework::Spark);
        let workload = WorkloadConfig::new(profile)
            .with_jobs(5)
            .with_bound(BoundSpec::paper_errors());
        let jobs = generate(&workload, 3);
        let sim = SimConfig {
            cluster: ClusterConfig::small(4, 2),
            ..SimConfig::default()
        };
        let result = run_simulation(&sim, jobs, &LateFactory);
        assert_eq!(result.outcomes.len(), 5);
    }
}
