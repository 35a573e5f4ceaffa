//! Predicate evaluation with segment-level pushdown.
//!
//! A [`Query`] is a conjunction of optional predicates. Each predicate
//! applies only to the row types it is meaningful for; setting a predicate
//! *excludes* the other row type entirely, so results are never a mix of
//! "events filtered by X" and "reports that ignored X":
//!
//! | predicate       | event rows                   | report rows                 |
//! |-----------------|------------------------------|-----------------------------|
//! | `origin`        | packet origin matches        | packet origin matches       |
//! | `seqno`         | packet seqno in range        | packet seqno in range       |
//! | `ts`            | real local timestamp in range| **excluded**                |
//! | `cause`         | **excluded**                 | diagnosed loss cause matches|
//! | `disposition`   | **excluded**                 | some flow entry has origin  |
//!
//! Pushdown happens before any file is touched: the manifest's per-segment
//! min/max ranges ([`crate::SegmentStats`]) are checked against the
//! predicate, and segments that cannot contain a match are skipped.
//! [`QueryStats`] reports how much work pushdown saved.

use crate::row::ReportRow;
use crate::segment::Block;
use crate::store::SegmentStore;
use crate::StoreError;
use eventlog::LogEntry;
use netsim::NodeId;
use refill::provenance::EntryOrigin;
use refill::DiagnosedCause;

/// A conjunction of optional predicates.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Query {
    /// Packet origin node.
    pub origin: Option<NodeId>,
    /// Inclusive packet-seqno range.
    pub seqno: Option<(u32, u32)>,
    /// Inclusive local-timestamp range (event rows only; rows without a
    /// timestamp never match).
    pub ts: Option<(u64, u64)>,
    /// Diagnosed loss cause (report rows only; requires a sidecar).
    pub cause: Option<DiagnosedCause>,
    /// Flow-entry disposition (report rows only): matches reports whose
    /// flow contains at least one entry with this origin.
    pub disposition: Option<EntryOrigin>,
}

/// How much scanning a query did (and skipped).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Segments in the store.
    pub segments_total: usize,
    /// Segments actually read.
    pub segments_scanned: usize,
    /// Segments pushdown skipped without touching the file.
    pub segments_skipped: usize,
    /// Event rows examined.
    pub event_rows_scanned: u64,
    /// Event rows matched.
    pub event_rows_matched: u64,
    /// Report rows examined.
    pub report_rows_scanned: u64,
    /// Report rows matched.
    pub report_rows_matched: u64,
}

/// A query's result set.
#[derive(Debug, Clone, Default)]
pub struct QueryOutput {
    /// Matching event rows, in store order.
    pub events: Vec<LogEntry>,
    /// Matching report rows, in store order (duplicates kept — callers
    /// wanting the converged view dedup by packet, last wins).
    pub reports: Vec<ReportRow>,
    /// Scan accounting.
    pub stats: QueryStats,
}

impl Query {
    fn wants_events(&self) -> bool {
        self.cause.is_none() && self.disposition.is_none()
    }

    fn wants_reports(&self) -> bool {
        self.ts.is_none()
    }

    fn matches_packet(&self, packet: eventlog::PacketId) -> bool {
        if let Some(origin) = self.origin {
            if packet.origin != origin {
                return false;
            }
        }
        if let Some((lo, hi)) = self.seqno {
            if packet.seqno < lo || packet.seqno > hi {
                return false;
            }
        }
        true
    }

    fn matches_event(&self, entry: &LogEntry) -> bool {
        if !self.matches_packet(entry.event.packet) {
            return false;
        }
        if let Some((lo, hi)) = self.ts {
            match entry.local_ts {
                Some(ts) if (lo..=hi).contains(&ts.get()) => {}
                _ => return false,
            }
        }
        true
    }

    fn matches_report(&self, row: &ReportRow) -> bool {
        if !self.matches_packet(row.report.packet) {
            return false;
        }
        if let Some(cause) = self.cause {
            let diagnosed = row
                .sidecar
                .as_ref()
                .and_then(|s| s.diagnosis.cause);
            if diagnosed != Some(cause) {
                return false;
            }
        }
        if let Some(disposition) = self.disposition {
            if !row.report.origins.contains(&disposition) {
                return false;
            }
        }
        true
    }
}

impl SegmentStore {
    /// Evaluate `query` over the store.
    pub fn query(&self, query: &Query) -> Result<QueryOutput, StoreError> {
        let mut out = QueryOutput {
            stats: QueryStats {
                segments_total: self.segments().len(),
                ..QueryStats::default()
            },
            ..QueryOutput::default()
        };
        for meta in self.segments() {
            let admits = |check_ts: bool| {
                if let Some(origin) = query.origin {
                    if !meta.stats.admits_origin(origin.0) {
                        return false;
                    }
                }
                if let Some((lo, hi)) = query.seqno {
                    if !meta.stats.admits_seqno(lo, hi) {
                        return false;
                    }
                }
                if check_ts {
                    if let Some((lo, hi)) = query.ts {
                        if !meta.stats.admits_ts(lo, hi) {
                            return false;
                        }
                    }
                }
                true
            };
            let scan_events = query.wants_events() && meta.events > 0 && admits(true);
            let scan_reports = query.wants_reports() && meta.reports > 0 && admits(false);
            if !scan_events && !scan_reports {
                out.stats.segments_skipped += 1;
                continue;
            }
            out.stats.segments_scanned += 1;
            for block in self.read_segment(meta)? {
                match block {
                    Block::Events(rows) if scan_events => {
                        for entry in rows {
                            out.stats.event_rows_scanned += 1;
                            if query.matches_event(&entry) {
                                out.stats.event_rows_matched += 1;
                                out.events.push(entry);
                            }
                        }
                    }
                    Block::Reports(rows) if scan_reports => {
                        for row in rows {
                            out.stats.report_rows_scanned += 1;
                            if query.matches_report(&row) {
                                out.stats.report_rows_matched += 1;
                                out.reports.push(row);
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::SegmentStore;
    use eventlog::{Event, EventKind, LocalTs, PacketId};
    use std::path::PathBuf;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir = std::env::temp_dir().join(format!(
                "refill-store-query-{tag}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn row(origin: u16, seqno: u32, ts: Option<u64>) -> LogEntry {
        let p = PacketId::new(NodeId(origin), seqno);
        LogEntry {
            event: Event::new(NodeId(origin), EventKind::Origin, p),
            local_ts: ts.and_then(LocalTs::new),
        }
    }

    #[test]
    fn pushdown_skips_disjoint_segments_without_changing_answers() {
        let tmp = TempDir::new("pushdown");
        let (store, _) = SegmentStore::open(&tmp.0).unwrap();
        // Tiny roll: each append seals its own segment.
        let mut store = store.with_roll_bytes(1);
        store.append_events(&[row(1, 0, Some(100)), row(1, 1, Some(200))]).unwrap();
        store.append_events(&[row(2, 0, Some(300)), row(2, 1, Some(400))]).unwrap();
        store.append_events(&[row(9, 5, Some(900))]).unwrap();
        store.sync().unwrap();
        assert_eq!(store.segments().len(), 3);

        let q = Query {
            origin: Some(NodeId(2)),
            ..Query::default()
        };
        let out = store.query(&q).unwrap();
        assert_eq!(out.events.len(), 2);
        assert_eq!(out.stats.segments_scanned, 1, "two segments pushed down");
        assert_eq!(out.stats.segments_skipped, 2);
        assert_eq!(out.stats.event_rows_scanned, 2);

        let q = Query {
            ts: Some((250, 950)),
            ..Query::default()
        };
        let out = store.query(&q).unwrap();
        assert_eq!(out.events.len(), 3);
        assert_eq!(out.stats.segments_skipped, 1, "first segment's ts range is disjoint");
        assert!(out.reports.is_empty(), "a ts query excludes reports");

        let q = Query {
            seqno: Some((5, 5)),
            ..Query::default()
        };
        let out = store.query(&q).unwrap();
        assert_eq!(out.events, vec![row(9, 5, Some(900))]);
        assert_eq!(out.stats.segments_scanned, 1);
    }

    #[test]
    fn untimestamped_rows_never_match_a_ts_range() {
        let tmp = TempDir::new("tsnone");
        let (mut store, _) = SegmentStore::open(&tmp.0).unwrap();
        store
            .append_events(&[row(1, 0, None), row(1, 1, Some(50))])
            .unwrap();
        store.sync().unwrap();
        let q = Query {
            ts: Some((0, u64::MAX)),
            ..Query::default()
        };
        let out = store.query(&q).unwrap();
        assert_eq!(out.events, vec![row(1, 1, Some(50))]);
    }
}
