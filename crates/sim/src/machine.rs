//! Machines and slots.
//!
//! A cluster is a set of machines, each exposing a fixed number of compute slots
//! (the paper's Hadoop/Dryad-era slot model). Machines differ in speed — the cluster
//! heterogeneity that LATE was designed around and one of the two sources of straggling
//! in the simulator (the other being per-copy runtime straggle multipliers).

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Identifier of a single compute slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SlotId {
    /// Index of the machine that hosts the slot.
    pub machine: usize,
    /// Index of the slot within its machine.
    pub slot: usize,
}

/// How machine speed factors are assigned across the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum HeterogeneityModel {
    /// All machines run at unit speed.
    Homogeneous,
    /// A fraction of machines is slower by a constant factor (EC2-style "bad node"
    /// heterogeneity, §2.2 of the LATE paper).
    TwoSpeed {
        /// Fraction of machines that are slow, in `[0, 1]`.
        slow_fraction: f64,
        /// Runtime multiplier of slow machines (`> 1` means slower).
        slow_factor: f64,
    },
    /// Machine runtime multipliers drawn uniformly from `[min, max]`.
    UniformRange {
        /// Fastest multiplier (usually `1.0`).
        min: f64,
        /// Slowest multiplier.
        max: f64,
    },
}

impl Default for HeterogeneityModel {
    fn default() -> Self {
        // A mild EC2-like mix: 20% of machines run ~50% slower.
        HeterogeneityModel::TwoSpeed {
            slow_fraction: 0.2,
            slow_factor: 1.5,
        }
    }
}

impl HeterogeneityModel {
    /// Draw the runtime multiplier for one machine.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            HeterogeneityModel::Homogeneous => 1.0,
            HeterogeneityModel::TwoSpeed {
                slow_fraction,
                slow_factor,
            } => {
                if rng.gen_bool(slow_fraction.clamp(0.0, 1.0)) {
                    slow_factor.max(1.0)
                } else {
                    1.0
                }
            }
            HeterogeneityModel::UniformRange { min, max } => {
                let lo = min.max(0.01);
                let hi = max.max(lo);
                rng.gen_range(lo..=hi)
            }
        }
    }

    /// Expected runtime multiplier across machines.
    pub fn mean(&self) -> f64 {
        match *self {
            HeterogeneityModel::Homogeneous => 1.0,
            HeterogeneityModel::TwoSpeed {
                slow_fraction,
                slow_factor,
            } => 1.0 + slow_fraction.clamp(0.0, 1.0) * (slow_factor.max(1.0) - 1.0),
            HeterogeneityModel::UniformRange { min, max } => 0.5 * (min.max(0.01) + max.max(min)),
        }
    }
}

/// One machine of the cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Machine {
    /// Machine index.
    pub id: usize,
    /// Number of compute slots.
    pub slots: usize,
    /// Runtime multiplier applied to every copy running on this machine (`1.0` = unit
    /// speed, larger = slower).
    pub slowdown: f64,
}

impl Machine {
    /// All slot identifiers of this machine.
    pub fn slot_ids(&self) -> impl Iterator<Item = SlotId> + '_ {
        (0..self.slots).map(move |s| SlotId {
            machine: self.id,
            slot: s,
        })
    }
}

/// The cluster's free-slot pool.
///
/// Allocation order is a strict LIFO stack — the same order a plain
/// `Vec<SlotId>` with `pop()`/`extend()` gives — because the slot a copy lands
/// on feeds the execution trace and (through the machine's slowdown) the copy's
/// duration, so the allocation sequence is part of the simulator's reproducible
/// behaviour.
#[derive(Debug, Clone)]
pub struct SlotPool {
    stack: Vec<SlotId>,
    total: usize,
}

impl SlotPool {
    /// Pool with every slot of every machine free, in machine-then-slot order
    /// (so the first `pop` returns the last slot of the last machine).
    pub fn new(machines: &[Machine]) -> Self {
        let stack: Vec<SlotId> = machines.iter().flat_map(|m| m.slot_ids()).collect();
        let total = stack.len();
        SlotPool { stack, total }
    }

    /// Take the most recently freed slot, if any.
    pub fn pop(&mut self) -> Option<SlotId> {
        self.stack.pop()
    }

    /// Return a slot to the pool (it becomes the next `pop` result).
    pub fn push(&mut self, slot: SlotId) {
        self.stack.push(slot);
    }

    /// Return a batch of slots in iteration order.
    pub fn extend(&mut self, slots: impl IntoIterator<Item = SlotId>) {
        for slot in slots {
            self.push(slot);
        }
    }

    /// Number of currently free slots.
    pub fn free_len(&self) -> usize {
        self.stack.len()
    }

    /// Whether no slot is free.
    pub fn is_empty(&self) -> bool {
        self.stack.is_empty()
    }

    /// Total slots in the cluster (free or busy).
    pub fn total(&self) -> usize {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn homogeneous_machines_run_at_unit_speed() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(HeterogeneityModel::Homogeneous.sample(&mut rng), 1.0);
        }
        assert_eq!(HeterogeneityModel::Homogeneous.mean(), 1.0);
    }

    #[test]
    fn two_speed_matches_configured_fraction() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = HeterogeneityModel::TwoSpeed {
            slow_fraction: 0.3,
            slow_factor: 2.0,
        };
        let n = 20_000;
        let slow = (0..n).filter(|_| model.sample(&mut rng) > 1.0).count();
        let frac = slow as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.02, "slow fraction {frac}");
        assert!((model.mean() - 1.3).abs() < 1e-12);
    }

    #[test]
    fn uniform_range_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = HeterogeneityModel::UniformRange { min: 1.0, max: 2.0 };
        for _ in 0..1000 {
            let s = model.sample(&mut rng);
            assert!((1.0..=2.0).contains(&s));
        }
        assert_eq!(model.mean(), 1.5);
    }

    #[test]
    fn machine_exposes_all_slots() {
        let m = Machine {
            id: 3,
            slots: 4,
            slowdown: 1.0,
        };
        let ids: Vec<SlotId> = m.slot_ids().collect();
        assert_eq!(ids.len(), 4);
        assert_eq!(
            ids[0],
            SlotId {
                machine: 3,
                slot: 0
            }
        );
        assert_eq!(
            ids[3],
            SlotId {
                machine: 3,
                slot: 3
            }
        );
    }

    #[test]
    fn slot_pool_preserves_vec_lifo_order() {
        let machines: Vec<Machine> = (0..3)
            .map(|id| Machine {
                id,
                slots: 2,
                slowdown: 1.0,
            })
            .collect();
        // The order contract: identical pop sequence to the plain Vec-as-stack
        // the pre-event-core simulator used.
        let mut reference: Vec<SlotId> = machines.iter().flat_map(|m| m.slot_ids()).collect();
        let mut pool = SlotPool::new(&machines);
        assert_eq!(pool.total(), 6);
        assert_eq!(pool.free_len(), 6);

        let a = pool.pop().unwrap();
        assert_eq!(Some(a), reference.pop());
        let b = pool.pop().unwrap();
        assert_eq!(Some(b), reference.pop());
        assert_eq!(pool.free_len(), 4);

        pool.extend([b, a]);
        reference.extend([b, a]);
        for _ in 0..6 {
            assert_eq!(pool.pop(), reference.pop());
        }
        assert!(pool.is_empty());
        assert_eq!(pool.pop(), None);
    }
}
