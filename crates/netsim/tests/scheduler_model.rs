//! The two-tier [`Scheduler`] against the heap-only one it replaced, kept
//! here as the reference: random programs of `schedule` and `pop` must
//! produce the same `(time, payload)` sequence and the same clock.

use netsim::prop::check;
use netsim::{Rng, Scheduler, SimDuration, SimTime};

/// `crates/netsim/src/engine.rs` as it was before the lanes, unchanged but
/// for the two `crate::` paths: one binary heap, tombstones for `cancel`.
#[allow(dead_code)]
mod reference {
    use netsim::{SimDuration, SimTime};
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
        cancelled: netsim::fx::FxHashSet<u64>,
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
                cancelled: netsim::fx::FxHashSet::default(),
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
}

/// The constant delays a program draws from, in microseconds: more of them
/// than any scheduler under test has lanes.
const DELAYS: [u64; 7] = [0, 15_000, 60_000, 30_000, 1, 250_000, 15_001];

/// One random program, run on both schedulers in step.
fn run_program(rng: &mut Rng) {
    // Lanes for a random few of the delays (possibly none, possibly one
    // twice), in a random order.
    let lanes: Vec<SimDuration> = (0..rng.gen_range(0..6usize))
        .map(|_| SimDuration::from_micros(DELAYS[rng.gen_range(0..DELAYS.len())]))
        .collect();
    let mut new = Scheduler::with_lanes(&lanes);
    let mut old = reference::Scheduler::new();
    // An instant many entries are scheduled for, from different distances.
    let mut hot = SimTime::from_micros(rng.gen_range(0..400_000u64));
    let pop_bias = rng.gen_range(0.2..0.7);

    let pop_both = |new: &mut Scheduler<usize>, old: &mut reference::Scheduler<usize>| {
        let (got, want) = (new.pop(), old.pop());
        assert_eq!(got, want);
        assert_eq!(new.now(), old.now());
        want.is_some()
    };

    for payload in 0..rng.gen_range(0..400usize) {
        if rng.gen_bool(pop_bias) {
            // Sometimes down to the empty queue and once beyond.
            let drain = rng.gen_bool(0.03);
            while pop_both(&mut new, &mut old) && drain {}
            continue;
        }
        let now = old.now();
        let at = match rng.gen_range(0..10u32) {
            0..=2 => now,
            3..=5 => now + SimDuration::from_micros(DELAYS[rng.gen_range(0..DELAYS.len())]),
            6 => now + SimDuration::from_micros(rng.gen_range(0..300_000u64)),
            7 | 8 => {
                if hot < now {
                    hot = now + SimDuration::from_micros(rng.gen_range(0..100_000u64));
                }
                hot
            }
            // Into the past: a debug build asserts (tested in `engine`), a
            // release build clamps to `now`, in both schedulers alike.
            _ if cfg!(debug_assertions) => now,
            _ => SimTime::from_micros(now.as_micros().saturating_sub(rng.gen_range(0..50_000u64))),
        };
        new.schedule(at, payload);
        old.schedule(at, payload);
    }
    while pop_both(&mut new, &mut old) {}
    assert!(!pop_both(&mut new, &mut old), "both stay empty");
}

#[test]
fn lanes_and_heap_pop_in_the_old_heaps_order() {
    check("lanes_and_heap_pop_in_the_old_heaps_order", 512, &[], run_program);
}
