//! Per-node low-watermarks over the nodes' local clocks.
//!
//! A streaming consumer needs to decide when a packet's evidence has
//! plausibly all arrived. Global time is unavailable by construction —
//! node clocks are unsynchronized and drifting (see [`crate::clock`]) —
//! but each node's *own* log is delivered in recording order, so each
//! node's local timestamps (and, failing those, its record count) advance
//! monotonically. A [`WatermarkTracker`] tracks that per-node progress;
//! windowing layers compare a node's current [`Mark`] against the mark at
//! the time of the node's last contribution to a packet, never comparing
//! clocks *across* nodes.
//!
//! Watermarks are a latency heuristic, not a correctness mechanism: a
//! window closed too early is reopened by the late arrival and the result
//! still converges to the batch answer.

use crate::logger::LocalTs;
use netsim::fx::FxHashMap;
use netsim::NodeId;

/// One node's stream progress.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Mark {
    /// Newest local-clock reading seen from this node (monotone by the
    /// per-node ordering guarantee; 0 until a timestamped record arrives).
    pub ts_us: u64,
    /// Records delivered by this node so far — the logical clock that
    /// keeps watermarks moving when logs carry no timestamps, and the
    /// latest record's position in its node's stream (`packet_order`).
    pub records: u64,
}

/// How far a node's mark must move past a reference point before that
/// point counts as *passed*. Either condition suffices: the record bound
/// keeps untimestamped streams moving, the time bound keeps sparse
/// streams from waiting on a record quota.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lateness {
    /// Records the node must deliver beyond the reference point.
    pub records: u64,
    /// Local-clock microseconds the node must advance beyond the
    /// reference point (ignored while the node has no timestamps).
    pub micros: u64,
}

impl Default for Lateness {
    fn default() -> Self {
        // Permissive enough for the CitySee uploads: a node's next
        // handful of records (or 30 local seconds) closes its windows.
        Lateness {
            records: 16,
            micros: 30_000_000,
        }
    }
}

/// Tracks every node's high-water [`Mark`].
#[derive(Debug, Default)]
pub struct WatermarkTracker {
    marks: FxHashMap<NodeId, Mark>,
}

impl WatermarkTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        WatermarkTracker::default()
    }

    /// Record one delivered record from `node`; returns its updated mark.
    /// Timestamps only ever advance the mark (a locally-delayed reading
    /// never moves a watermark backwards).
    pub fn advance(&mut self, node: NodeId, local_ts: Option<LocalTs>) -> Mark {
        let mark = self.marks.entry(node).or_default();
        mark.records += 1;
        if let Some(ts) = local_ts {
            mark.ts_us = mark.ts_us.max(ts.get());
        }
        *mark
    }

    /// The current mark of `node` (zero if never seen).
    pub fn mark(&self, node: NodeId) -> Mark {
        self.marks.get(&node).copied().unwrap_or_default()
    }

    /// Has `node` moved far enough past `since` (its mark at some earlier
    /// observation) to consider that point passed?
    pub fn passed(&self, node: NodeId, since: Mark, lateness: Lateness) -> bool {
        let now = self.mark(node);
        if now.records >= since.records.saturating_add(lateness.records) {
            return true;
        }
        // The time bound needs real timestamps and real progress; an
        // untimestamped node sits at ts 0 forever and must not pass early.
        now.ts_us > since.ts_us && now.ts_us >= since.ts_us.saturating_add(lateness.micros)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn marks_start_at_zero() {
        let t = WatermarkTracker::new();
        assert_eq!(t.mark(n(1)), Mark::default());
    }

    #[test]
    fn advance_counts_records_and_maxes_timestamps() {
        let mut t = WatermarkTracker::new();
        t.advance(n(1), LocalTs::new(100));
        t.advance(n(1), LocalTs::new(50)); // a delayed reading must not regress
        let m = t.advance(n(1), None);
        assert_eq!(m, Mark { ts_us: 100, records: 3 });
        assert_eq!(t.mark(n(1)), m);
        assert_eq!(t.mark(n(2)), Mark::default());
    }

    #[test]
    fn passed_by_record_quota() {
        let mut t = WatermarkTracker::new();
        let lateness = Lateness { records: 3, micros: u64::MAX };
        let since = t.advance(n(1), None);
        assert!(!t.passed(n(1), since, lateness));
        t.advance(n(1), None);
        t.advance(n(1), None);
        assert!(!t.passed(n(1), since, lateness), "two more records: not yet");
        t.advance(n(1), None);
        assert!(t.passed(n(1), since, lateness), "three more records: passed");
    }

    #[test]
    fn passed_by_local_time() {
        let mut t = WatermarkTracker::new();
        let lateness = Lateness { records: u64::MAX, micros: 1_000 };
        let since = t.advance(n(1), LocalTs::new(10_000));
        t.advance(n(1), LocalTs::new(10_500));
        assert!(!t.passed(n(1), since, lateness));
        t.advance(n(1), LocalTs::new(11_000));
        assert!(t.passed(n(1), since, lateness));
    }

    #[test]
    fn untimestamped_nodes_never_pass_on_time_alone() {
        let mut t = WatermarkTracker::new();
        let lateness = Lateness { records: u64::MAX, micros: 0 };
        let since = t.advance(n(1), None);
        t.advance(n(1), None);
        assert!(
            !t.passed(n(1), since, lateness),
            "ts stuck at zero: no strict progress, no pass"
        );
    }

    #[test]
    fn quota_overflow_saturates() {
        let mut t = WatermarkTracker::new();
        let since = Mark { ts_us: u64::MAX - 1, records: u64::MAX - 1 };
        let lateness = Lateness { records: u64::MAX, micros: u64::MAX };
        t.advance(n(1), LocalTs::new(5));
        assert!(!t.passed(n(1), since, lateness));
    }
}
