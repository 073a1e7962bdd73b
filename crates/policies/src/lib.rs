//! # grass-policies
//!
//! Baseline straggler-mitigation policies for the GRASS (NSDI '14) reproduction:
//!
//! * [`LatePolicy`] — LATE (OSDI '08), the baseline deployed in the Facebook cluster,
//! * [`MantriPolicy`] — Mantri (OSDI '10), the baseline deployed in the Bing cluster,
//! * [`NoSpecPolicy`] — the non-speculating FIFO anchor,
//! * [`OraclePolicy`] — the "optimal scheduler with advance knowledge" comparison
//!   point used in §2.3 and Figure 8.
//!
//! All of them implement [`grass_core::SpeculationPolicy`] and plug into the
//! `grass-sim` simulator exactly like GS/RAS/GRASS do.

pub mod late;
pub mod mantri;
pub mod naive;
pub mod oracle;
#[cfg(test)]
mod test_util;

pub use late::{LateFactory, LatePolicy};
pub use mantri::{MantriFactory, MantriPolicy};
pub use naive::{NoSpecFactory, NoSpecPolicy};
pub use oracle::{OracleFactory, OraclePolicy};
