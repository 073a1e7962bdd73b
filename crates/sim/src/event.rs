//! Discrete-event queue.
//!
//! The simulator is a classic continuous-time discrete-event model: every state change
//! happens at an event, and events are processed in non-decreasing time order. Ties are
//! broken by insertion order so runs are fully deterministic for a given seed.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use grass_core::{JobId, TaskId, Time};

/// Unique identifier of a launched copy, used to detect stale completion events for
/// copies that were killed when a sibling finished first.
pub type CopyId = u64;

/// The kinds of events the simulator processes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A job arrives and becomes active.
    JobArrival(JobId),
    /// A running copy finishes its work.
    CopyFinish {
        /// Job the copy belongs to.
        job: JobId,
        /// Task the copy belongs to.
        task: TaskId,
        /// Unique copy identifier.
        copy: CopyId,
    },
    /// A deadline-bound job reaches its (input) deadline and is finalised.
    JobDeadline(JobId),
}

/// An event tagged with its firing time and a sequence number for deterministic
/// tie-breaking.
#[derive(Debug, Clone, Copy)]
struct ScheduledEvent {
    time: Time,
    seq: u64,
    event: Event,
}

impl PartialEq for ScheduledEvent {
    fn eq(&self, other: &Self) -> bool {
        // Must agree with `Ord::cmp` below (total order), so compare times with
        // `total_cmp` rather than `==` (under which NaN != NaN).
        self.time.total_cmp(&other.time) == Ordering::Equal && self.seq == other.seq
    }
}

impl Eq for ScheduledEvent {}

impl Ord for ScheduledEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        // `total_cmp` is a total order, so a NaN that slips past the push-side
        // debug_assert cannot break heap transitivity (it sorts last instead of
        // comparing Equal to everything, which silently scrambled pop order).
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for ScheduledEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Time-ordered event queue.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<ScheduledEvent>,
    next_seq: u64,
}

impl EventQueue {
    /// Empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedule `event` to fire at `time`.
    pub fn push(&mut self, time: Time, event: Event) {
        debug_assert!(time.is_finite(), "event scheduled at non-finite time");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent { time, seq, event });
    }

    /// Pop the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Time, Event)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.push(5.0, Event::JobArrival(JobId(1)));
        q.push(1.0, Event::JobArrival(JobId(2)));
        q.push(3.0, Event::JobDeadline(JobId(3)));
        assert_eq!(q.len(), 3);
        let order: Vec<Time> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(order, vec![1.0, 3.0, 5.0]);
        assert!(q.is_empty());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(2.0, Event::JobArrival(JobId(1)));
        q.push(2.0, Event::JobArrival(JobId(2)));
        q.push(2.0, Event::JobArrival(JobId(3)));
        let ids: Vec<u64> = std::iter::from_fn(|| {
            q.pop().map(|(_, e)| match e {
                Event::JobArrival(j) => j.0,
                _ => unreachable!(),
            })
        })
        .collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn copy_finish_round_trip() {
        let mut q = EventQueue::new();
        q.push(
            1.5,
            Event::CopyFinish {
                job: JobId(4),
                task: TaskId(2),
                copy: 7,
            },
        );
        let (t, e) = q.pop().unwrap();
        assert_eq!(t, 1.5);
        assert_eq!(
            e,
            Event::CopyFinish {
                job: JobId(4),
                task: TaskId(2),
                copy: 7
            }
        );
    }
}
