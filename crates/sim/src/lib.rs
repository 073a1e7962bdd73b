//! # grass-sim
//!
//! Discrete-event cluster simulator substrate for the GRASS (NSDI '14) reproduction.
//!
//! The paper evaluates GRASS on a 200-node EC2 cluster running Hadoop and Spark
//! prototypes, plus a trace-driven simulator. Neither is available here, so this crate
//! provides the equivalent substrate: a deterministic, seedable discrete-event
//! simulator of a slot-based analytics cluster. It reproduces the scheduling-level
//! phenomena GRASS exploits — heavy-tailed task durations, runtime straggling that a
//! second copy would dodge, multi-waved execution under fair sharing, and speculative
//! copy races — without any of the JVM machinery.
//!
//! The main entry point is [`run_simulation`]; see `grass-experiments` for harnesses
//! that reproduce every figure of the paper on top of it.
//!
//! ```
//! use grass_core::{Bound, GsFactory, JobSpec};
//! use grass_sim::{run_simulation, ClusterConfig, SimConfig};
//!
//! let config = SimConfig {
//!     cluster: ClusterConfig::small(2, 2),
//!     ..SimConfig::default()
//! };
//! let job = JobSpec::single_stage(1, 0.0, Bound::EXACT, vec![1.0; 8]);
//! let result = run_simulation(&config, vec![job], &GsFactory);
//! assert_eq!(result.outcomes[0].completed_input_tasks, 8);
//! ```

pub mod cluster;
pub mod event;
pub mod machine;
pub mod runtime;
pub mod simulator;
pub mod stats;
pub mod straggler;
pub mod trace;

pub use cluster::ClusterConfig;
pub use event::{CopyId, Event, EventQueue};
pub use machine::{HeterogeneityModel, Machine, SlotId};
pub use runtime::{CompletionEffect, CopyRuntime, JobRuntime, TaskRuntime};
pub use simulator::{run_simulation, run_simulation_traced, SimConfig, SimResult, SimStats};
pub use stats::TimeWeighted;
pub use straggler::StragglerModel;
pub use trace::{NullSink, SimTraceEvent, TraceSink, VecSink};
