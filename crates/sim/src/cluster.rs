//! Cluster configuration and construction.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::machine::{HeterogeneityModel, Machine};
use crate::straggler::StragglerModel;

/// Static configuration of the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of machines.
    pub machines: usize,
    /// Compute slots per machine.
    pub slots_per_machine: usize,
    /// Machine speed heterogeneity.
    pub heterogeneity: HeterogeneityModel,
    /// Per-copy straggler model.
    pub straggler: StragglerModel,
}

impl ClusterConfig {
    /// A laptop-scale stand-in for the paper's 200-node EC2 deployment: 50 machines
    /// with 4 slots each (200 slots total), mild machine heterogeneity and the
    /// calibrated straggler model.
    pub fn ec2_scaled() -> Self {
        ClusterConfig {
            machines: 50,
            slots_per_machine: 4,
            heterogeneity: HeterogeneityModel::default(),
            straggler: StragglerModel::paper_default(),
        }
    }

    /// A small cluster for quick tests.
    pub fn small(machines: usize, slots_per_machine: usize) -> Self {
        ClusterConfig {
            machines,
            slots_per_machine,
            heterogeneity: HeterogeneityModel::Homogeneous,
            straggler: StragglerModel::paper_default(),
        }
    }

    /// Total number of compute slots.
    pub fn total_slots(&self) -> usize {
        self.machines * self.slots_per_machine
    }

    /// Expected runtime multiplier of a random copy on a random machine. Used as the
    /// ground-truth hint for `tnew`.
    pub fn mean_slowdown(&self) -> f64 {
        self.heterogeneity.mean() * self.straggler.mean()
    }

    /// Materialise the machines, drawing per-machine speed factors from the
    /// heterogeneity model with a dedicated RNG stream so cluster layout does not
    /// perturb workload randomness.
    pub fn build_machines(&self, seed: u64) -> Vec<Machine> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC1A5_7E55);
        (0..self.machines)
            .map(|id| Machine {
                id,
                slots: self.slots_per_machine,
                slowdown: self.heterogeneity.sample(&mut rng),
            })
            .collect()
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig::ec2_scaled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_accounting() {
        let c = ClusterConfig::small(3, 4);
        assert_eq!(c.total_slots(), 12);
        let machines = c.build_machines(1);
        assert_eq!(machines.len(), 3);
        assert!(machines.iter().all(|m| m.slots == 4));
        assert!(machines.iter().all(|m| m.slowdown == 1.0));
    }

    #[test]
    fn ec2_scaled_has_200_slots() {
        let c = ClusterConfig::ec2_scaled();
        assert_eq!(c.total_slots(), 200);
        assert!(c.mean_slowdown() > 1.0);
    }

    #[test]
    fn machine_layout_is_deterministic_per_seed() {
        let c = ClusterConfig::ec2_scaled();
        let a = c.build_machines(42);
        let b = c.build_machines(42);
        assert_eq!(a, b);
    }
}
