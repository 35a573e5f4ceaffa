//! Per-node low-watermarks over the nodes' local clocks.
//!
//! A streaming consumer needs to decide when a packet's evidence has
//! plausibly all arrived. Global time is unavailable by construction —
//! node clocks are unsynchronized and drifting (see [`crate::clock`]) —
//! but each node's *own* log is delivered in recording order, so each
//! node's local timestamps (and, failing those, its record count) advance
//! monotonically. A node's [`Mark`] is that progress; windowing layers keep
//! one per node and ask [`Lateness::passed`] whether a node's current mark
//! has moved far enough past its mark at its last contribution to a packet,
//! never comparing clocks *across* nodes.
//!
//! A window that closes once the evidence it names is in closes once per
//! packet; one closed too early is reopened by the late arrival, so the
//! marks decide when a report is emitted, never what it says: the result
//! converges to the batch answer either way.

use crate::logger::LocalTs;

/// One node's stream progress.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Mark {
    /// Newest local-clock reading seen from this node (monotone by the
    /// per-node ordering guarantee; 0 until a timestamped record arrives).
    pub ts_us: u64,
    /// Records delivered by this node so far — the logical clock that
    /// keeps watermarks moving when logs carry no timestamps, and the
    /// latest record's position in its node's stream.
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

impl Mark {
    /// Count one more delivered record from this node, stamped `local_ts`,
    /// and return the updated mark. Timestamps only ever advance the mark (a
    /// locally-delayed reading never moves a watermark backwards).
    pub fn advance(&mut self, local_ts: Option<LocalTs>) -> Mark {
        self.records += 1;
        if let Some(ts) = local_ts {
            self.ts_us = self.ts_us.max(ts.get());
        }
        *self
    }
}

impl Lateness {
    /// Has a node whose mark is now `now` moved far enough past `since`
    /// (its mark at some earlier observation) to consider that point passed?
    /// Monotone: once passed, a later `now` passes too, and so does an
    /// earlier `since`.
    pub fn passed(&self, now: Mark, since: Mark) -> bool {
        if now.records >= since.records.saturating_add(self.records) {
            return true;
        }
        // The time bound needs real timestamps and real progress; an
        // untimestamped node sits at ts 0 forever and must not pass early.
        now.ts_us > since.ts_us && now.ts_us >= since.ts_us.saturating_add(self.micros)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A node's mark after records stamped `stamps`.
    fn fed(stamps: &[Option<u64>]) -> Mark {
        let mut mark = Mark::default();
        for &ts in stamps {
            mark.advance(ts.and_then(LocalTs::new));
        }
        mark
    }

    #[test]
    fn marks_start_at_zero() {
        assert_eq!(fed(&[]), Mark { ts_us: 0, records: 0 });
    }

    #[test]
    fn advance_counts_records_and_maxes_timestamps() {
        let mut mark = fed(&[Some(100), Some(50)]); // a delayed reading must not regress
        let m = mark.advance(None);
        assert_eq!(m, Mark { ts_us: 100, records: 3 });
        assert_eq!(mark, m);
    }

    #[test]
    fn passed_by_record_quota() {
        let lateness = Lateness { records: 3, micros: u64::MAX };
        let mut now = fed(&[None]);
        let since = now;
        assert!(!lateness.passed(now, since));
        now.advance(None);
        now.advance(None);
        assert!(!lateness.passed(now, since), "two more records: not yet");
        now.advance(None);
        assert!(lateness.passed(now, since), "three more records: passed");
    }

    #[test]
    fn passed_by_local_time() {
        let lateness = Lateness { records: u64::MAX, micros: 1_000 };
        let mut now = fed(&[Some(10_000)]);
        let since = now;
        now.advance(LocalTs::new(10_500));
        assert!(!lateness.passed(now, since));
        now.advance(LocalTs::new(11_000));
        assert!(lateness.passed(now, since));
    }

    #[test]
    fn untimestamped_nodes_never_pass_on_time_alone() {
        let lateness = Lateness { records: u64::MAX, micros: 0 };
        let mut now = fed(&[None]);
        let since = now;
        now.advance(None);
        assert!(
            !lateness.passed(now, since),
            "ts stuck at zero: no strict progress, no pass"
        );
    }

    #[test]
    fn quota_overflow_saturates() {
        let since = Mark { ts_us: u64::MAX - 1, records: u64::MAX - 1 };
        let lateness = Lateness { records: u64::MAX, micros: u64::MAX };
        assert!(!lateness.passed(fed(&[Some(5)]), since));
    }
}
