//! The broker's cell-grid state machine: pending → leased → completed, with
//! lease expiry, capped retries and seeded backoff-with-jitter on re-dispatch.
//!
//! [`GridState`] is pure data over a caller-supplied millisecond clock — the
//! TCP broker wraps it in a mutex and feeds it wall-clock time, the property
//! tests feed it a synthetic clock and arbitrary event interleavings.

use std::collections::BTreeMap;

use crate::config::FleetConfig;
use crate::lease::LeaseTable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Lifecycle status of one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// Waiting to be dispatched (possibly gated by a backoff deadline).
    Pending,
    /// Held by a worker under an active lease.
    Leased,
    /// Result payload accepted; terminal.
    Completed,
    /// Ran out of retries; terminal.
    Exhausted,
}

impl CellStatus {
    pub fn is_terminal(self) -> bool {
        matches!(self, CellStatus::Completed | CellStatus::Exhausted)
    }
}

/// Outcome of a claim request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Claim {
    /// The worker now holds `cell` under `lease`; this is dispatch `attempt`.
    Granted {
        cell: usize,
        attempt: u32,
        lease: u64,
    },
    /// Nothing claimable right now; ask again in roughly `ms`.
    Wait { ms: u64 },
    /// Every cell is terminal — the worker can shut down.
    Finished,
}

/// Outcome of a completion report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completion {
    /// The payload was recorded; the cell is completed.
    Accepted,
    /// The lease was no longer valid (expired, re-dispatched or already
    /// completed); the payload was discarded.
    Stale,
}

/// Monotonic counters describing what the broker saw.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Grants handed out (first dispatches and re-dispatches).
    pub dispatched: u64,
    /// Cells completed by a worker this run.
    pub completed: u64,
    /// Cells pre-completed from the digest cache.
    pub cached: u64,
    /// Leases expired by heartbeat timeout.
    pub expired_leases: u64,
    /// Leases released because a worker connection dropped uncleanly.
    pub crash_releases: u64,
    /// Explicit `fail` reports from workers.
    pub failed_reports: u64,
    /// Completion reports rejected as stale.
    pub stale_completes: u64,
    /// Cells that ran out of retries.
    pub exhausted: u64,
    /// `sync` exchanges served (workers posting a learned-state snapshot).
    pub sync_exchanges: u64,
}

#[derive(Debug)]
struct Cell {
    status: CellStatus,
    /// Dispatches so far (== the `attempt` number of the current/last lease).
    attempts: u32,
    /// Earliest time the cell may be dispatched again (backoff gate).
    not_before_ms: u64,
    result: Option<String>,
}

/// The full grid: cell states, the lease table, retry/backoff policy.
#[derive(Debug)]
pub struct GridState {
    cells: Vec<Cell>,
    leases: LeaseTable,
    config: FleetConfig,
    jitter: StdRng,
    stats: FleetStats,
    /// Latest learned-state snapshot posted by each worker via `sync`.
    /// `BTreeMap` so the peer payload handed back is deterministically ordered.
    sync_board: BTreeMap<String, String>,
}

impl GridState {
    pub fn new(cells: usize, config: FleetConfig) -> Self {
        let jitter = StdRng::seed_from_u64(config.backoff_seed);
        GridState {
            cells: (0..cells)
                .map(|_| Cell {
                    status: CellStatus::Pending,
                    attempts: 0,
                    not_before_ms: 0,
                    result: None,
                })
                .collect(),
            leases: LeaseTable::new(),
            config,
            jitter,
            stats: FleetStats::default(),
            sync_board: BTreeMap::new(),
        }
    }

    /// Pre-complete `cell` with a cached result (never dispatched). A cell
    /// outside the grid is ignored.
    ///
    /// Only valid before any claim touches the cell.
    pub fn preload(&mut self, cell: usize, result: String) {
        let Some(c) = self.cells.get_mut(cell) else {
            return;
        };
        assert_eq!(
            c.status,
            CellStatus::Pending,
            "preload on a dispatched cell"
        );
        c.status = CellStatus::Completed;
        c.result = Some(result);
        self.stats.cached += 1;
    }

    /// A worker asks for a cell.
    pub fn claim(&mut self, worker: &str, now_ms: u64) -> Claim {
        if self.all_done() {
            return Claim::Finished;
        }
        let mut next_ready: Option<u64> = None;
        for (i, cell) in self.cells.iter_mut().enumerate() {
            if cell.status != CellStatus::Pending {
                continue;
            }
            if cell.not_before_ms <= now_ms {
                let lease = self.leases.grant(worker, i, now_ms);
                cell.status = CellStatus::Leased;
                cell.attempts += 1;
                self.stats.dispatched += 1;
                return Claim::Granted {
                    cell: i,
                    attempt: cell.attempts,
                    lease,
                };
            }
            let wait = cell.not_before_ms - now_ms;
            next_ready = Some(next_ready.map_or(wait, |w| w.min(wait)));
        }
        // Either every pending cell is backoff-gated (wait until the nearest
        // gate opens) or all remaining cells are leased elsewhere (poll).
        Claim::Wait {
            ms: next_ready.unwrap_or(self.config.poll_ms).max(1),
        }
    }

    /// Refresh a lease. Returns `false` for stale heartbeats.
    pub fn heartbeat(&mut self, worker: &str, cell: usize, now_ms: u64) -> bool {
        if cell >= self.cells.len() {
            return false;
        }
        self.leases.heartbeat(worker, cell, now_ms)
    }

    /// A worker reports a finished cell.
    pub fn complete(
        &mut self,
        worker: &str,
        cell: usize,
        lease: u64,
        payload: String,
    ) -> Completion {
        let Some(c) = self.cells.get_mut(cell) else {
            self.stats.stale_completes += 1;
            return Completion::Stale;
        };
        match self.leases.holder(cell) {
            Some(l) if l.worker == worker && l.id == lease => {
                self.leases.release_cell(cell);
                debug_assert_eq!(c.status, CellStatus::Leased);
                c.status = CellStatus::Completed;
                c.result = Some(payload);
                self.stats.completed += 1;
                Completion::Accepted
            }
            _ => {
                self.stats.stale_completes += 1;
                Completion::Stale
            }
        }
    }

    /// A worker reports it could not run a cell (the cell is re-dispatched,
    /// subject to the retry cap). Stale reports are ignored.
    pub fn fail(&mut self, worker: &str, cell: usize, lease: u64, now_ms: u64) {
        if cell >= self.cells.len() {
            return;
        }
        let held = matches!(
            self.leases.holder(cell),
            Some(l) if l.worker == worker && l.id == lease
        );
        if held {
            self.leases.release_cell(cell);
            self.stats.failed_reports += 1;
            self.requeue(cell, now_ms);
        }
    }

    /// Expire every lease whose heartbeat is older than the timeout and
    /// requeue the cells. Returns the expired cell indices.
    pub fn expire_leases(&mut self, now_ms: u64) -> Vec<usize> {
        let expired = self.leases.expired(now_ms, self.config.lease_timeout_ms);
        for &cell in &expired {
            self.leases.release_cell(cell);
            self.stats.expired_leases += 1;
            self.requeue(cell, now_ms);
        }
        expired
    }

    /// A worker's connection dropped uncleanly: release everything it held.
    pub fn release_worker(&mut self, worker: &str, now_ms: u64) -> Vec<usize> {
        let dropped = self.leases.release_worker(worker);
        let cells: Vec<usize> = dropped.iter().map(|l| l.cell).collect();
        for &cell in &cells {
            self.stats.crash_releases += 1;
            self.requeue(cell, now_ms);
        }
        cells
    }

    /// Back a failed cell off and return it to the pending pool, or mark it
    /// exhausted when its dispatch budget (`1 + max_retries`) is spent.
    fn requeue(&mut self, cell: usize, now_ms: u64) {
        let max_dispatches = 1 + self.config.max_retries;
        let Some(c) = self.cells.get_mut(cell) else {
            return;
        };
        debug_assert_eq!(c.status, CellStatus::Leased);
        if c.attempts >= max_dispatches {
            c.status = CellStatus::Exhausted;
            self.stats.exhausted += 1;
            return;
        }
        // attempts >= 1 here (the cell was dispatched at least once).
        let exponent = (c.attempts - 1).min(16);
        let backoff = self.config.backoff_base_ms.saturating_mul(1u64 << exponent);
        let jitter = if self.config.backoff_jitter_ms > 0 {
            self.jitter.gen_range(0..=self.config.backoff_jitter_ms)
        } else {
            0
        };
        c.status = CellStatus::Pending;
        c.not_before_ms = now_ms.saturating_add(backoff).saturating_add(jitter);
    }

    /// True once every cell is completed or exhausted.
    pub fn all_done(&self) -> bool {
        self.cells.iter().all(|c| c.status.is_terminal())
    }

    /// Cells that ran out of retries.
    pub fn exhausted_cells(&self) -> Vec<usize> {
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.status == CellStatus::Exhausted)
            .map(|(i, _)| i)
            .collect()
    }

    /// Grid-order result payloads, or the cells without one: after
    /// [`GridState::all_done`], exactly the cells that ran out of retries.
    pub fn results(&self) -> Result<Vec<String>, Vec<usize>> {
        debug_assert!(self.all_done());
        let missing: Vec<usize> = self
            .cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.result.is_none())
            .map(|(i, _)| i)
            .collect();
        if !missing.is_empty() {
            return Err(missing);
        }
        Ok(self.cells.iter().filter_map(|c| c.result.clone()).collect())
    }

    pub fn statuses(&self) -> Vec<CellStatus> {
        self.cells.iter().map(|c| c.status).collect()
    }

    pub fn stats(&self) -> FleetStats {
        self.stats
    }

    pub fn len(&self) -> usize {
        self.cells.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// `(cell, worker)` pairs for active leases (status snapshots).
    pub fn active_leases(&self) -> Vec<(usize, String)> {
        self.leases.entries()
    }

    /// A worker posts its learned-state snapshot and receives every *other*
    /// worker's most recent snapshot, joined with
    /// [`SYNC_SEPARATOR`](crate::protocol::SYNC_SEPARATOR) in worker-name order
    /// (deterministic). An empty payload leaves the worker's previous snapshot —
    /// if any — on the board.
    pub fn sync(&mut self, worker: &str, payload: String) -> String {
        if !payload.is_empty() {
            self.sync_board.insert(worker.to_string(), payload);
        }
        self.stats.sync_exchanges += 1;
        let peers: Vec<&str> = self
            .sync_board
            .iter()
            .filter(|(name, _)| name.as_str() != worker)
            .map(|(_, snap)| snap.as_str())
            .collect();
        peers.join(&crate::protocol::SYNC_SEPARATOR.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_state(cells: usize) -> GridState {
        GridState::new(cells, FleetConfig::test_profile())
    }

    fn grant(state: &mut GridState, worker: &str, now: u64) -> (usize, u64) {
        match state.claim(worker, now) {
            Claim::Granted { cell, lease, .. } => (cell, lease),
            other => panic!("expected grant, got {other:?}"),
        }
    }

    #[test]
    fn happy_path_completes_in_grid_order() {
        let mut state = test_state(3);
        for i in 0..3 {
            let (cell, lease) = grant(&mut state, "w1", 10 * i as u64);
            assert_eq!(cell, i);
            assert_eq!(
                state.complete("w1", cell, lease, format!("r{cell}")),
                Completion::Accepted
            );
        }
        assert!(state.all_done());
        assert_eq!(state.claim("w2", 100), Claim::Finished);
        assert_eq!(state.results().unwrap(), vec!["r0", "r1", "r2"]);
        let stats = state.stats();
        assert_eq!(stats.dispatched, 3);
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.expired_leases + stats.crash_releases, 0);
    }

    #[test]
    fn lease_expiry_requeues_and_stale_complete_is_rejected() {
        let mut state = test_state(1);
        let (cell, old_lease) = grant(&mut state, "w1", 0);
        assert_eq!(cell, 0);

        // No heartbeat: the lease expires at the timeout.
        let timeout = FleetConfig::test_profile().lease_timeout_ms;
        assert!(state.expire_leases(timeout - 1).is_empty());
        assert_eq!(state.expire_leases(timeout), vec![0]);
        assert_eq!(state.statuses()[0], CellStatus::Pending);

        // The cell is backoff-gated, then re-dispatchable to another worker.
        let mut now = timeout;
        let (cell2, new_lease) = loop {
            match state.claim("w2", now) {
                Claim::Granted { cell, lease, .. } => break (cell, lease),
                Claim::Wait { ms } => now += ms,
                Claim::Finished => panic!("not finished"),
            }
        };
        assert_eq!(cell2, 0);
        assert_ne!(old_lease, new_lease);

        // The original worker's late completion is stale and changes nothing.
        assert_eq!(
            state.complete("w1", 0, old_lease, "stale".into()),
            Completion::Stale
        );
        assert_eq!(
            state.complete("w2", 0, new_lease, "good".into()),
            Completion::Accepted
        );
        assert_eq!(state.results().unwrap(), vec!["good"]);
        let stats = state.stats();
        assert_eq!(stats.expired_leases, 1);
        assert_eq!(stats.stale_completes, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn heartbeats_keep_a_lease_alive() {
        let mut state = test_state(1);
        let (_, lease) = grant(&mut state, "w1", 0);
        let timeout = FleetConfig::test_profile().lease_timeout_ms;
        for t in (0..5 * timeout).step_by(20) {
            assert!(state.heartbeat("w1", 0, t));
            assert!(state.expire_leases(t).is_empty());
        }
        assert_eq!(
            state.complete("w1", 0, lease, "ok".into()),
            Completion::Accepted
        );
    }

    #[test]
    fn retries_are_capped_and_exhaustion_is_terminal() {
        let mut config = FleetConfig::test_profile();
        config.max_retries = 2;
        let mut state = GridState::new(1, config.clone());
        let mut now = 0u64;
        // 1 + max_retries dispatches, each crashing.
        for attempt in 1..=3u32 {
            let (cell, granted_attempt) = loop {
                match state.claim("w1", now) {
                    Claim::Granted { cell, attempt, .. } => break (cell, attempt),
                    Claim::Wait { ms } => now += ms,
                    Claim::Finished => panic!("finished too early"),
                }
            };
            assert_eq!((cell, granted_attempt), (0, attempt));
            state.release_worker("w1", now);
        }
        assert!(state.all_done());
        assert_eq!(state.statuses()[0], CellStatus::Exhausted);
        assert_eq!(state.claim("w1", now), Claim::Finished);
        assert_eq!(state.results().unwrap_err(), vec![0]);
        assert_eq!(state.stats().exhausted, 1);
        assert_eq!(state.stats().dispatched, 3);
    }

    #[test]
    fn backoff_schedule_is_deterministic_for_a_fixed_seed() {
        let schedule = |seed: u64| -> Vec<u64> {
            let mut config = FleetConfig::test_profile();
            config.backoff_seed = seed;
            config.max_retries = 4;
            let mut state = GridState::new(1, config);
            let mut gates = Vec::new();
            let mut now = 0u64;
            for _ in 0..4 {
                loop {
                    match state.claim("w", now) {
                        Claim::Granted { .. } => break,
                        Claim::Wait { ms } => now += ms,
                        Claim::Finished => panic!(),
                    }
                }
                state.release_worker("w", now);
                gates.push(now);
            }
            gates
        };
        assert_eq!(schedule(7), schedule(7));
        // Exponential base: successive gaps grow (jitter is bounded by 5ms,
        // base doubles 5, 10, 20 under the test profile).
        let gates = schedule(7);
        assert!(gates.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn preloaded_cells_are_never_dispatched() {
        let mut state = test_state(2);
        state.preload(0, "cached".into());
        let (cell, lease) = grant(&mut state, "w1", 0);
        assert_eq!(cell, 1);
        state.complete("w1", 1, lease, "fresh".into());
        assert!(state.all_done());
        assert_eq!(state.results().unwrap(), vec!["cached", "fresh"]);
        assert_eq!(state.stats().cached, 1);
        assert_eq!(state.stats().dispatched, 1);
    }

    #[test]
    fn fully_preloaded_grid_is_immediately_finished() {
        let mut state = test_state(2);
        state.preload(0, "a".into());
        state.preload(1, "b".into());
        assert!(state.all_done());
        assert_eq!(state.claim("w", 0), Claim::Finished);
    }

    #[test]
    fn double_complete_of_same_lease_is_stale() {
        let mut state = test_state(1);
        let (_, lease) = grant(&mut state, "w1", 0);
        assert_eq!(
            state.complete("w1", 0, lease, "first".into()),
            Completion::Accepted
        );
        assert_eq!(
            state.complete("w1", 0, lease, "second".into()),
            Completion::Stale
        );
        assert_eq!(state.results().unwrap(), vec!["first"]);
    }

    #[test]
    fn sync_board_returns_peers_in_deterministic_order() {
        let mut state = test_state(1);
        // First syncer sees no peers.
        assert_eq!(state.sync("w2", "snap-two".into()), "");
        // A second worker sees the first's snapshot; names order the board.
        assert_eq!(state.sync("w1", "snap-one".into()), "snap-two");
        let sep = crate::protocol::SYNC_SEPARATOR;
        assert_eq!(
            state.sync("w3", "snap-three".into()),
            format!("snap-one{sep}snap-two")
        );
        // Re-sync replaces the worker's own entry; empty payload keeps it.
        assert_eq!(
            state.sync("w2", "snap-two-b".into()),
            format!("snap-one{sep}snap-three")
        );
        assert_eq!(
            state.sync("w1", String::new()),
            format!("snap-two-b{sep}snap-three")
        );
        assert_eq!(state.stats().sync_exchanges, 5);
    }
}
