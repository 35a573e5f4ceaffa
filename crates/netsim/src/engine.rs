//! The discrete-event scheduler.
//!
//! A calendar of `(time, seq, event)` entries popped in `(time, seq)` order.
//! The monotonically increasing `seq` breaks ties between events scheduled
//! for the same instant in insertion order, which makes runs exactly
//! reproducible regardless of queue internals.
//!
//! The calendar has two tiers. Almost every event of a protocol simulation
//! is scheduled a *constant* delay after the current instant (zero, a hop,
//! a back-off), and the clock never runs backwards, so the entries of one
//! such delay are born sorted: each gets a FIFO **lane**, pushed at the back
//! and popped at the front. Everything else (jittered periods, random
//! faults) goes to a binary **heap**. [`Scheduler::pop`] takes the smallest
//! `(time, seq)` among the lane fronts and the heap top; every tier is sorted
//! by that key, so the minimum over their heads is the minimum over all
//! entries, and the pop order is the one a single heap would produce, ties
//! included. A lane only ever accepts an entry that is not before its back
//! (anything else takes the heap), so its order does not rest on the
//! argument above staying true.

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
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
        other.key().cmp(&self.key())
    }
}

/// The entries scheduled exactly `delay` after the instant they were
/// scheduled at, oldest first: sorted by `(at, seq)`.
struct Lane<E> {
    delay: SimDuration,
    queue: VecDeque<Entry<E>>,
}

/// A deterministic discrete-event queue.
///
/// `E` is the simulation's event payload type. Popping advances the clock;
/// scheduling into the past is a logic error (panics in debug builds, clamps
/// to `now` in release builds).
pub struct Scheduler<E> {
    heap: BinaryHeap<Entry<E>>,
    /// A handful, scanned linearly on every schedule and pop.
    lanes: Vec<Lane<E>>,
    now: SimTime,
    next_seq: u64,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// An empty scheduler at time zero.
    pub fn new() -> Self {
        Self::with_lanes(&[])
    }

    /// An empty scheduler at time zero with a FIFO lane for each of the
    /// given delays — the constant delays most events are scheduled at.
    /// Which delays have a lane changes what a pop costs, never its result
    /// (a delay given twice leaves its second lane empty).
    pub fn with_lanes(delays: &[SimDuration]) -> Self {
        let lane = |&delay| Lane {
            delay,
            queue: VecDeque::new(),
        };
        Scheduler {
            heap: BinaryHeap::new(),
            lanes: delays.iter().map(lane).collect(),
            now: SimTime::ZERO,
            next_seq: 0,
        }
    }

    /// Current simulation time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        debug_assert!(at >= self.now, "scheduling into the past: {at} < {}", self.now);
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Entry { at, seq, event };
        let delay = at - self.now;
        let lane = self.lanes.iter_mut().find(|lane| {
            lane.delay == delay && lane.queue.back().is_none_or(|back| back.at <= at)
        });
        match lane {
            Some(lane) => lane.queue.push_back(entry),
            None => self.heap.push(entry),
        }
    }

    /// Pop the next event, advancing the clock to its timestamp. Returns
    /// `None` when the queue is exhausted.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let mut least = self.heap.peek().map(Entry::key);
        let mut from_lane = None;
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(front) = lane.queue.front() {
                if least.is_none_or(|least| front.key() < least) {
                    least = Some(front.key());
                    from_lane = Some(i);
                }
            }
        }
        let entry = match from_lane {
            Some(i) => self.lanes[i].queue.pop_front(),
            None => self.heap.pop(),
        }?;
        self.now = entry.at;
        Some((entry.at, entry.event))
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
    fn ties_break_by_insertion_order_across_tiers() {
        let hop = SimDuration::from_millis(15);
        let mut s = Scheduler::with_lanes(&[SimDuration::ZERO, hop]);
        // 0 to 4 are all for the instant 15 ms: 0 rides the hop lane, 1 the
        // heap (scheduled at 5 ms, a delay without a lane), 2 to 4 the zero
        // lane.
        s.schedule(SimTime::from_millis(15), 0);
        s.schedule(SimTime::from_millis(5), 100);
        assert_eq!(s.pop(), Some((SimTime::from_millis(5), 100)));
        s.schedule(SimTime::from_millis(15), 1);
        s.schedule(SimTime::from_millis(20), 5);
        assert_eq!(s.pop(), Some((SimTime::from_millis(15), 0)));
        s.schedule(SimTime::from_millis(15), 2);
        assert_eq!(s.pop(), Some((SimTime::from_millis(15), 1)));
        s.schedule(SimTime::from_millis(15), 3);
        s.schedule(SimTime::from_millis(30), 6);
        s.schedule(SimTime::from_millis(15), 4);
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![2, 3, 4, 5, 6]);
        assert_eq!(s.now(), SimTime::from_millis(30));
    }

    /// The clock cannot run backwards through `schedule` and `pop`, so this
    /// turns it back by hand: the lane must refuse the entry that would land
    /// before its back, whatever made it so.
    #[test]
    fn a_lane_refuses_an_entry_before_its_back() {
        let hop = SimDuration::from_millis(15);
        let mut s = Scheduler::with_lanes(&[hop]);
        s.schedule(SimTime::from_millis(115), "late");
        s.pop();
        s.schedule(SimTime::from_millis(130), "later");
        s.now = SimTime::from_millis(100);
        s.schedule(SimTime::from_millis(115), "early");
        assert_eq!(s.lanes[0].queue.len(), 1);
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["early", "later"]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_the_past_is_caught_in_debug_builds() {
        let mut s = Scheduler::new();
        s.schedule(SimTime::from_secs(2), ());
        s.pop();
        s.schedule(SimTime::from_secs(1), ());
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use crate::prop::check;

    /// Pops come out sorted by (time, insertion sequence), regardless of
    /// the schedule order.
    #[test]
    fn pops_are_time_then_insertion_ordered() {
        check("pops_are_time_then_insertion_ordered", 256, &[], |rng| {
            let n = rng.gen_range(1..60usize);
            let mut s = Scheduler::new();
            let mut expected: Vec<(u64, usize)> = Vec::new();
            for i in 0..n {
                let t = rng.gen_range(0..1000u64);
                s.schedule(SimTime::from_micros(t), i);
                expected.push((t, i));
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
