//! # grass-fleet
//!
//! A broker/worker sweep service: one **broker** owns a grid of sweep cells and
//! their lifecycle state machine, a pool of **workers** connects over localhost
//! TCP, claims cells, runs them, and reports full-precision result payloads.
//!
//! The crate is deliberately *generic over the cell domain*: a cell is an opaque
//! spec `String` handed to a [`CellRunner`], and a result is an opaque payload
//! `String` the broker collects in grid order. `grass-experiments` supplies the
//! GRASS-specific glue (cell specs that name a recorded trace, a cluster size, a
//! policy and a seed; payloads that encode per-job outcomes bit-exactly), which
//! keeps the dependency direction `experiments -> fleet` and the state machine
//! testable without a simulator.
//!
//! ## Lifecycle
//!
//! ```text
//! pending --claim--> leased --complete--> completed
//!    ^                 |
//!    |                 +-- missed heartbeats (lease expiry)
//!    |                 +-- connection drop (worker crash)
//!    |                 +-- explicit `fail` report
//!    |                 |
//!    +---- backoff ----+--(attempts exhausted)--> exhausted
//! ```
//!
//! Every transition is driven by a millisecond clock the caller passes in, so
//! the whole state machine is deterministic under test (see
//! `tests/state_props.rs`). Re-dispatch backoff is `base * 2^(attempt-1)` plus
//! jitter drawn from a seeded [`rand::rngs::StdRng`] — deterministic for a fixed
//! [`FleetConfig::backoff_seed`].
//!
//! ## Wire protocol
//!
//! Line-oriented `tag key=value ...` frames over TCP, percent-escaped with the
//! `grass-trace` codec helpers — no generic serialization (the workspace serde
//! is a no-op shim). See [`protocol`] for the full message set.

pub mod broker;
pub mod cache;
pub mod config;
pub mod lease;
pub mod protocol;
pub mod spawn;
pub mod state;
pub mod worker;

pub use broker::{serve_broker, BrokerHandle, FleetOutcome, FleetSnapshot};
pub use cache::{fnv1a64, DigestCache};
pub use config::FleetConfig;
pub use lease::{Lease, LeaseTable};
pub use protocol::{Request, Response, PROTOCOL_VERSION, SYNC_SEPARATOR};
pub use spawn::run_fleet;
pub use state::{CellStatus, Claim, Completion, FleetStats, GridState};
pub use worker::{run_worker, CellRunner, WorkerReport};

use std::fmt;

/// Errors surfaced by the broker/worker plumbing.
#[derive(Debug)]
pub enum FleetError {
    /// Transport-level failure (bind, connect, read, write).
    Io(std::io::Error),
    /// A peer spoke something that does not parse or was not expected.
    Protocol(String),
    /// The grid terminated but some cells ran out of retries.
    Exhausted(Vec<usize>),
    /// Every worker process exited while cells were still outstanding.
    WorkersExited(usize),
    /// A broker or worker thread panicked: the message names the lock it
    /// poisoned or the thread that died.
    Panicked(String),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Io(e) => write!(f, "fleet i/o error: {e}"),
            FleetError::Protocol(msg) => write!(f, "fleet protocol error: {msg}"),
            FleetError::Exhausted(cells) => {
                write!(f, "fleet cells exhausted retries: {cells:?}")
            }
            FleetError::WorkersExited(n) => {
                write!(f, "all {n} worker processes exited with cells outstanding")
            }
            FleetError::Panicked(what) => write!(f, "fleet thread panicked: {what}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FleetError {
    fn from(e: std::io::Error) -> Self {
        FleetError::Io(e)
    }
}
