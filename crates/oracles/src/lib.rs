//! # grass-oracles
//!
//! Frozen copies of code the workspace has since rebuilt, kept only so that
//! differential tests can compare the rebuilt code against them:
//!
//! * [`sim`]: the simulator as it stood before the indexed event core, replayed
//!   against the live engine by `tests/sim_differential.rs`;
//! * [`store`]: the sample store as it stood before partitioning, compared
//!   bit for bit with `grass_core::SampleStore` by `tests/store_equivalence.rs`.
//!
//! Nothing in the workspace's library code depends on this crate: only the
//! facade's tests and the benchmarks take it as a dev-dependency. Do not
//! optimise, fix or otherwise improve these modules; their value is that they
//! never change.

pub mod sim;
pub mod store;
