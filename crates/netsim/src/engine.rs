//! The discrete-event scheduler.
//!
//! A classic calendar of `(time, seq, event)` entries in a binary heap.
//! The monotonically increasing `seq` breaks ties between events scheduled
//! for the same instant in insertion order, which makes runs exactly
//! reproducible regardless of heap internals.

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Handle returned by [`Scheduler::schedule`]; can be used to cancel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle(u64);

struct Entry<E> {
    at: SimTime,
    seq: u64,
    cancelled: bool,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event queue.
///
/// `E` is the simulation's event payload type. Popping advances the clock;
/// scheduling into the past is a logic error (panics in debug builds, clamps
/// to `now` in release builds).
pub struct Scheduler<E> {
    heap: BinaryHeap<Entry<E>>,
    now: SimTime,
    next_seq: u64,
    cancelled: crate::fx::FxHashSet<u64>,
    popped: u64,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// An empty scheduler at time zero.
    pub fn new() -> Self {
        Scheduler {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            cancelled: crate::fx::FxHashSet::default(),
            popped: 0,
        }
    }

    /// Current simulation time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far.
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Number of events still pending (including cancelled tombstones).
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Schedule `event` at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventHandle {
        debug_assert!(at >= self.now, "scheduling into the past: {at} < {}", self.now);
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            at,
            seq,
            cancelled: false,
            event,
        });
        EventHandle(seq)
    }

    /// Schedule `event` after a relative delay.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) -> EventHandle {
        self.schedule(self.now + delay, event)
    }

    /// Cancel a previously scheduled event. Cancelling an already-fired or
    /// already-cancelled event is a no-op.
    pub fn cancel(&mut self, handle: EventHandle) {
        self.cancelled.insert(handle.0);
    }

    /// Pop the next live event, advancing the clock to its timestamp.
    /// Returns `None` when the queue is exhausted.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(entry) = self.heap.pop() {
            if entry.cancelled || self.cancelled.remove(&entry.seq) {
                continue;
            }
            self.now = entry.at;
            self.popped += 1;
            return Some((entry.at, entry.event));
        }
        None
    }

    /// Peek at the timestamp of the next live event without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // Drain cancelled tombstones off the top first.
        while let Some(top) = self.heap.peek() {
            if top.cancelled || self.cancelled.contains(&top.seq) {
                let e = self.heap.pop().expect("peeked entry exists");
                self.cancelled.remove(&e.seq);
            } else {
                return Some(top.at);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut s = Scheduler::new();
        s.schedule(SimTime::from_secs(3), "c");
        s.schedule(SimTime::from_secs(1), "a");
        s.schedule(SimTime::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(s.now(), SimTime::from_secs(3));
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut s = Scheduler::new();
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            s.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_removes_event() {
        let mut s = Scheduler::new();
        let h = s.schedule(SimTime::from_secs(1), "x");
        s.schedule(SimTime::from_secs(2), "y");
        s.cancel(h);
        assert_eq!(s.pop().map(|(_, e)| e), Some("y"));
        assert!(s.pop().is_none());
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut s = Scheduler::new();
        let h = s.schedule(SimTime::from_secs(1), "x");
        assert_eq!(s.pop().map(|(_, e)| e), Some("x"));
        s.cancel(h);
        s.schedule(SimTime::from_secs(2), "y");
        assert_eq!(s.pop().map(|(_, e)| e), Some("y"));
    }

    #[test]
    fn schedule_after_uses_current_time() {
        let mut s = Scheduler::new();
        s.schedule(SimTime::from_secs(5), "first");
        s.pop();
        s.schedule_after(SimDuration::from_secs(1), "second");
        let (t, e) = s.pop().unwrap();
        assert_eq!(e, "second");
        assert_eq!(t, SimTime::from_secs(6));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut s = Scheduler::new();
        let h = s.schedule(SimTime::from_secs(1), "x");
        s.schedule(SimTime::from_secs(2), "y");
        s.cancel(h);
        assert_eq!(s.peek_time(), Some(SimTime::from_secs(2)));
    }

    #[test]
    fn counts_processed_events() {
        let mut s = Scheduler::new();
        for i in 0..5u32 {
            s.schedule(SimTime::from_secs(u64::from(i)), i);
        }
        while s.pop().is_some() {}
        assert_eq!(s.events_processed(), 5);
        assert_eq!(s.pending(), 0);
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use crate::prop::check;

    /// Pops come out sorted by (time, insertion sequence), regardless of
    /// the schedule order or interleaved cancellations.
    #[test]
    fn pops_are_time_then_insertion_ordered() {
        check("pops_are_time_then_insertion_ordered", 256, &[], |rng| {
            let n = rng.gen_range(1..60usize);
            let mut s = Scheduler::new();
            let mut expected: Vec<(u64, usize)> = Vec::new();
            let mut handles = Vec::new();
            for i in 0..n {
                let t = rng.gen_range(0..1000u64);
                handles.push((s.schedule(SimTime::from_micros(t), i), t, i));
            }
            for (h, t, i) in handles {
                if rng.gen_bool(0.5) {
                    s.cancel(h);
                } else {
                    expected.push((t, i));
                }
            }
            expected.sort();
            let mut got = Vec::new();
            while let Some((at, i)) = s.pop() {
                got.push((at.as_micros(), i));
            }
            assert_eq!(got, expected);
        });
    }

    /// The clock never moves backwards across pops.
    #[test]
    fn clock_is_monotone() {
        check("clock_is_monotone", 256, &[], |rng| {
            let mut s = Scheduler::new();
            for i in 0..rng.gen_range(1..60usize) {
                s.schedule(SimTime::from_micros(rng.gen_range(0..1000)), i);
            }
            let mut last = SimTime::ZERO;
            while let Some((at, _)) = s.pop() {
                assert!(at >= last);
                last = at;
            }
            assert_eq!(s.now(), last);
        });
    }
}
