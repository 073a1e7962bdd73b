//! # grass-trace
//!
//! Trace capture, formats and replay for the GRASS (NSDI '14) reproduction.
//!
//! The paper's evaluation replays production traces through a trace-driven simulator
//! (§6.1); this crate makes the trace a first-class, durable artefact of the
//! reproduction. Two typed record streams sit on a **pluggable format layer**
//! ([`TraceFormat`] / [`TraceCodec`]) with two built-in wire formats:
//!
//! * **Text (v1)** — the original line-oriented `key=value` codec ([`text`], on the
//!   [`codec`] primitives). Human-readable, hand-rolled (the workspace's serde shim
//!   derives are no-ops), and frozen byte-for-byte against golden fixtures.
//! * **Binary (v2)** — compact length-prefixed framing ([`binary`]): shared magic +
//!   stream-kind header, varint integers, raw-bits `f64`. Same data model, an order
//!   of magnitude faster — the interchange path once traces reach GBs.
//! * **Compressed (v3)** — the v2 record schema inside LZ-compressed blocks
//!   ([`v3`], block framing in [`compress`]): smallest on disk, with streaming,
//!   seeking and exact-offset truncation errors intact because every block is
//!   independently framed and decompressed.
//!
//! Reads **sniff the format automatically** ([`sniff_format`]), so every consumer —
//! replay, stats, sweeps, the CLI — accepts any format through one call; writes
//! take a [`TraceFormat`] (defaulting to text for debuggability). All formats
//! round-trip every `f64` bit-exactly, the property the replay guarantee rests on.
//!
//! Decode is **streaming end to end** ([`stream`]): the codec plugins expose
//! pull-based frame iterators ([`WorkloadItems`], [`ExecutionEvents`], and
//! [`TraceItems`] for either-kind consumers) and the eager API is those iterators
//! collected, so streaming and eager decode cannot diverge. v2 and v3 share one
//! frame walker past their framing, and every decoded job passes
//! `JobSpec::validate`. One-pass consumers ([`TraceStats`], [`convert_stream`],
//! [`open_workload_source`] prefix loads, the [`WorkloadTraceSink`] behind
//! `repro trace gen`) run in O(one record) memory at any trace size.
//!
//! Files can also be read through a **memory map** ([`mmap`]):
//! [`open_workload_source_mmap`] and [`TraceStats::load_mmap`] hand the mapped
//! bytes to the same streaming decoders, so every format and stream kind reads
//! from the map with buffered-identical values and errors.
//!
//! The streams:
//!
//! * **Workload traces** ([`WorkloadTrace`]) — the full `JobSpec`/`TaskSpec` set of a
//!   run plus generator seed, profile, cluster size and replay defaults; [`replay()`]
//!   reproduces the original `JobOutcome`s exactly from a decoded trace.
//! * **Execution traces** ([`ExecutionTrace`]) — the timestamped simulator event
//!   stream (arrivals, speculation decisions, copy launches with slot allocation,
//!   finishes, kills, job completions), captured through `grass-sim`'s `TraceSink`
//!   hook either in memory (`grass_sim::VecSink`) or streamed to disk in either
//!   format ([`ExecutionTraceSink`]).
//!
//! Consumers: the `repro` binary's `trace record / replay / stats / convert`
//! subcommands and `repro sweep`, the `trace_replay` example, and the `grass-bench`
//! `tracebench` target (per-format codec throughput, replay-vs-regenerate speed).
//!
//! ```
//! use grass_core::GrassFactory;
//! use grass_trace::{record_workload, replay, replay_config, TraceFormat, WorkloadTrace};
//! use grass_workload::{BoundSpec, Framework, TraceProfile, WorkloadConfig};
//!
//! // Record a workload, persist it as compact binary, decode it (format sniffed),
//! // replay it: identical outcomes.
//! let config = WorkloadConfig::new(TraceProfile::facebook(Framework::Spark))
//!     .with_jobs(4)
//!     .with_bound(BoundSpec::paper_errors());
//! let trace = record_workload(&config, 7, 11, "GRASS", 4, 2);
//! let decoded = WorkloadTrace::from_bytes(&trace.to_bytes_as(TraceFormat::Binary)).unwrap();
//! let sim = replay_config(&decoded);
//! let original = replay(&trace, &sim, &GrassFactory::new(sim.seed));
//! let replayed = replay(&decoded, &sim, &GrassFactory::new(sim.seed));
//! assert_eq!(original.outcomes, replayed.outcomes);
//! ```

pub mod binary;
pub mod codec;
pub mod compress;
pub mod execution;
pub mod format;
pub mod mmap;
pub mod replay;
pub mod sink;
pub mod stats;
pub mod stream;
pub mod text;
pub mod v3;
pub mod workload;

pub use binary::BinaryCodec;
pub use codec::{
    Fields, StreamKind, TraceError, TraceReader, BINARY_FORMAT_VERSION, COMPRESSED_FORMAT_VERSION,
    FORMAT_VERSION,
};
pub use execution::{ExecutionMeta, ExecutionTrace};
pub use format::{codec_for, sniff_bytes, sniff_format, TraceCodec, TraceFormat};
pub use mmap::open_workload_source_mmap;
pub use replay::{replay, replay_config};
pub use sink::{convert_stream, ExecutionTraceSink, WorkloadTraceSink};
pub use stats::TraceStats;
pub use stream::{ExecutionEvents, TraceItems, WorkloadItems};
pub use text::TextCodec;
pub use v3::CompressedCodec;
pub use workload::{open_workload_source, record_workload, WorkloadMeta, WorkloadTrace};
