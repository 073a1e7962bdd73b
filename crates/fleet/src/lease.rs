//! The broker's lease table: which worker currently holds which cell, and how
//! fresh its heartbeat is. Purely in-memory bookkeeping over a caller-supplied
//! millisecond clock — no threads, no sockets — so it is trivially testable.

/// One active lease: `worker` holds `cell` since `granted_ms`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lease {
    /// Unique, monotonically increasing id. A `complete` must quote the id it
    /// was granted, which is what makes a post-expiry completion detectably
    /// stale instead of silently overwriting a re-dispatched cell.
    pub id: u64,
    pub worker: String,
    pub cell: usize,
    pub granted_ms: u64,
    pub last_heartbeat_ms: u64,
}

/// All currently active leases. At most one lease per cell.
#[derive(Debug, Default)]
pub struct LeaseTable {
    active: Vec<Lease>,
    next_id: u64,
}

impl LeaseTable {
    pub fn new() -> Self {
        LeaseTable {
            active: Vec::new(),
            next_id: 1,
        }
    }

    /// Grant `cell` to `worker`, returning the new lease id. The caller (the
    /// grid state machine) guarantees the cell is not currently leased.
    pub fn grant(&mut self, worker: &str, cell: usize, now_ms: u64) -> u64 {
        debug_assert!(self.holder(cell).is_none(), "cell {cell} already leased");
        let id = self.next_id;
        self.next_id += 1;
        self.active.push(Lease {
            id,
            worker: worker.to_string(),
            cell,
            granted_ms: now_ms,
            last_heartbeat_ms: now_ms,
        });
        id
    }

    /// Refresh the heartbeat for `(worker, cell)`. Returns `false` when the
    /// worker no longer holds that cell (expired lease or stale heartbeat).
    pub fn heartbeat(&mut self, worker: &str, cell: usize, now_ms: u64) -> bool {
        for lease in &mut self.active {
            if lease.cell == cell && lease.worker == worker {
                lease.last_heartbeat_ms = lease.last_heartbeat_ms.max(now_ms);
                return true;
            }
        }
        false
    }

    /// The active lease on `cell`, if any.
    pub fn holder(&self, cell: usize) -> Option<&Lease> {
        self.active.iter().find(|l| l.cell == cell)
    }

    /// Drop the lease on `cell`, returning it.
    pub fn release_cell(&mut self, cell: usize) -> Option<Lease> {
        let idx = self.active.iter().position(|l| l.cell == cell)?;
        Some(self.active.swap_remove(idx))
    }

    /// Drop every lease held by `worker` (connection lost), returning them.
    pub fn release_worker(&mut self, worker: &str) -> Vec<Lease> {
        let mut released = Vec::new();
        let mut i = 0;
        while let Some(lease) = self.active.get(i) {
            if lease.worker == worker {
                released.push(self.active.swap_remove(i));
            } else {
                i += 1;
            }
        }
        released
    }

    /// Cells whose last heartbeat is at least `timeout_ms` old.
    pub fn expired(&self, now_ms: u64, timeout_ms: u64) -> Vec<usize> {
        self.active
            .iter()
            .filter(|l| now_ms.saturating_sub(l.last_heartbeat_ms) >= timeout_ms)
            .map(|l| l.cell)
            .collect()
    }

    pub fn len(&self) -> usize {
        self.active.len()
    }

    pub fn is_empty(&self) -> bool {
        self.active.is_empty()
    }

    /// `(cell, worker)` pairs for status snapshots.
    pub fn entries(&self) -> Vec<(usize, String)> {
        self.active
            .iter()
            .map(|l| (l.cell, l.worker.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grant_heartbeat_expire_cycle() {
        let mut table = LeaseTable::new();
        let id = table.grant("w1", 0, 100);
        assert_eq!(id, 1);
        assert_eq!(table.holder(0).unwrap().worker, "w1");

        // Fresh lease: not expired at the timeout boundary minus one.
        assert!(table.expired(249, 150).is_empty());
        assert_eq!(table.expired(250, 150), vec![0]);

        // A heartbeat pushes expiry out.
        assert!(table.heartbeat("w1", 0, 200));
        assert!(table.expired(250, 150).is_empty());
        assert_eq!(table.expired(350, 150), vec![0]);

        // Heartbeats from a non-holder are rejected.
        assert!(!table.heartbeat("w2", 0, 300));
        assert!(!table.heartbeat("w1", 5, 300));
    }

    #[test]
    fn heartbeat_never_moves_backwards() {
        let mut table = LeaseTable::new();
        table.grant("w1", 0, 100);
        assert!(table.heartbeat("w1", 0, 500));
        // A delayed heartbeat with an older timestamp must not rewind expiry.
        assert!(table.heartbeat("w1", 0, 200));
        assert_eq!(table.holder(0).unwrap().last_heartbeat_ms, 500);
    }

    #[test]
    fn release_worker_drops_all_its_leases() {
        let mut table = LeaseTable::new();
        table.grant("w1", 0, 0);
        table.grant("w2", 1, 0);
        table.grant("w1", 2, 0);
        let dropped = table.release_worker("w1");
        assert_eq!(dropped.len(), 2);
        assert_eq!(table.len(), 1);
        assert_eq!(table.holder(1).unwrap().worker, "w2");
        assert!(table.release_cell(1).is_some());
        assert!(table.is_empty());
    }

    #[test]
    fn lease_ids_are_unique_across_regrants() {
        let mut table = LeaseTable::new();
        let a = table.grant("w1", 0, 0);
        table.release_cell(0);
        let b = table.grant("w2", 0, 10);
        assert_ne!(a, b);
    }
}
