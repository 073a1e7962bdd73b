//! Property tests for the broker's cell-grid state machine: under arbitrary
//! interleavings of claim / heartbeat / complete / crash / lease-expiry
//! events, the grid never loses a cell, never double-completes one, and a
//! live worker can always drive it to termination (every cell completed or
//! exhausted-retries).

use grass_fleet::{CellStatus, Claim, Completion, FleetConfig, GridState};
use proptest::prelude::*;

const WORKERS: usize = 4;

/// A lease the model believes is live: `(worker, cell, lease_id)`.
type Held = (usize, usize, u64);

struct Model {
    state: GridState,
    now: u64,
    config: FleetConfig,
    /// Leases that are live from the grid's point of view.
    held: Vec<Held>,
    /// Leases invalidated by crash/expiry — completing them must be stale.
    stale: Vec<Held>,
    /// Accepted completion payload per cell (at most one, ever).
    accepted: Vec<Option<String>>,
}

impl Model {
    fn new(cells: usize, max_retries: u32, seed: u64) -> Model {
        let config = FleetConfig {
            max_retries,
            backoff_seed: seed,
            ..FleetConfig::test_profile()
        };
        Model {
            state: GridState::new(cells, config.clone()),
            now: 0,
            config,
            held: Vec::new(),
            stale: Vec::new(),
            accepted: vec![None; cells],
        }
    }

    fn worker_name(w: usize) -> String {
        format!("w{w}")
    }

    fn claim(&mut self, w: usize) {
        match self.state.claim(&Model::worker_name(w), self.now) {
            Claim::Granted { cell, lease, .. } => {
                assert!(
                    !self.held.iter().any(|&(_, c, _)| c == cell),
                    "cell {cell} granted while already leased"
                );
                assert!(
                    self.accepted[cell].is_none(),
                    "completed cell {cell} re-dispatched"
                );
                self.held.push((w, cell, lease));
            }
            Claim::Wait { ms } => assert!(ms >= 1),
            Claim::Finished => assert!(self.state.all_done()),
        }
    }

    fn heartbeat(&mut self, pick: usize) {
        if self.held.is_empty() {
            // Heartbeat for a lease nobody holds must be rejected.
            assert!(!self
                .state
                .heartbeat("w0", pick % self.accepted.len(), self.now));
            return;
        }
        let (w, cell, _) = self.held[pick % self.held.len()];
        assert!(
            self.state.heartbeat(&Model::worker_name(w), cell, self.now),
            "heartbeat for live lease on cell {cell} rejected"
        );
    }

    fn complete(&mut self, pick: usize) {
        if self.held.is_empty() {
            return;
        }
        let (w, cell, lease) = self.held.swap_remove(pick % self.held.len());
        let payload = format!("cell{cell}-lease{lease}");
        let outcome = self
            .state
            .complete(&Model::worker_name(w), cell, lease, payload.clone());
        assert_eq!(outcome, Completion::Accepted);
        assert!(
            self.accepted[cell].replace(payload).is_none(),
            "cell {cell} completed twice"
        );
    }

    fn stale_complete(&mut self, pick: usize) {
        if self.stale.is_empty() {
            return;
        }
        let (w, cell, lease) = self.stale[pick % self.stale.len()];
        let outcome = self
            .state
            .complete(&Model::worker_name(w), cell, lease, "zombie".into());
        assert_eq!(
            outcome,
            Completion::Stale,
            "dead lease on cell {cell} accepted"
        );
    }

    fn crash(&mut self, w: usize) {
        self.state.release_worker(&Model::worker_name(w), self.now);
        let mut i = 0;
        while i < self.held.len() {
            if self.held[i].0 == w {
                self.stale.push(self.held.swap_remove(i));
            } else {
                i += 1;
            }
        }
    }

    fn advance_and_expire(&mut self, delta: u64) {
        self.now += delta;
        let expired = self.state.expire_leases(self.now);
        for cell in expired {
            let idx = self
                .held
                .iter()
                .position(|&(_, c, _)| c == cell)
                .unwrap_or_else(|| panic!("expired lease on cell {cell} not in model"));
            self.stale.push(self.held.swap_remove(idx));
        }
    }

    /// A single healthy worker drives every remaining cell to a terminal
    /// state. Bounded: if the grid can stall, this panics.
    fn drain(&mut self) {
        let cells = self.accepted.len();
        // Generous bound: every cell can be re-dispatched max_retries times
        // with exponentially growing backoff gates, plus poll waits.
        let mut budget = 20_000usize;
        loop {
            assert!(
                budget > 0,
                "grid failed to terminate while a worker was live"
            );
            budget -= 1;
            self.advance_and_expire(1);
            match self.state.claim("drainer", self.now) {
                Claim::Granted { cell, lease, .. } => {
                    let payload = format!("cell{cell}-lease{lease}");
                    assert_eq!(
                        self.state.complete("drainer", cell, lease, payload.clone()),
                        Completion::Accepted
                    );
                    assert!(self.accepted[cell].replace(payload).is_none());
                }
                Claim::Wait { ms } => self.now += ms,
                Claim::Finished => break,
            }
        }
        assert!(self.state.all_done());
        let statuses = self.state.statuses();
        assert_eq!(statuses.len(), cells);
        let results = self.state.results();
        let exhausted = results.clone().err().unwrap_or_default();
        for (cell, status) in statuses.iter().enumerate() {
            assert_eq!(
                *status == CellStatus::Exhausted,
                exhausted.contains(&cell),
                "cell {cell} is {status:?}"
            );
        }
        for (cell, accepted) in self.accepted.iter().enumerate() {
            let is_exhausted = exhausted.contains(&cell);
            assert!(
                accepted.is_some() || is_exhausted,
                "cell {cell} lost: neither completed nor exhausted"
            );
            assert!(
                !(accepted.is_some() && is_exhausted),
                "cell {cell} both completed and exhausted"
            );
        }
        if let Ok(results) = results {
            assert_eq!(results.len(), cells);
            for (cell, payload) in results.iter().enumerate() {
                assert_eq!(Some(payload), self.accepted[cell].as_ref());
            }
        }
        let stats = self.state.stats();
        let max_dispatches = (1 + self.config.max_retries) as u64 * cells as u64;
        assert!(stats.dispatched <= max_dispatches);
        assert_eq!(
            stats.completed as usize,
            self.accepted.iter().flatten().count()
        );
        assert_eq!(stats.exhausted as usize, exhausted.len());
    }
}

proptest! {
    #[test]
    fn arbitrary_interleavings_never_lose_or_double_complete_cells(
        cells in 1usize..8,
        max_retries in 0u32..4,
        seed in 0u64..1000,
        ops in prop::collection::vec((0u8..6, 0u64..16, 0u64..400), 0..80),
    ) {
        let mut model = Model::new(cells, max_retries, seed);
        for (kind, a, b) in ops {
            match kind {
                0 => model.claim(a as usize % WORKERS),
                1 => model.heartbeat(a as usize),
                2 => model.complete(a as usize),
                3 => model.crash(a as usize % WORKERS),
                4 => model.advance_and_expire(b),
                _ => model.stale_complete(a as usize),
            }
        }
        model.drain();
    }
}
