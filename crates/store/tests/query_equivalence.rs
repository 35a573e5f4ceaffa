//! Query/memory equivalence: for any soup of local logs, every predicate
//! evaluated by the store (with segment pushdown over the manifest
//! metadata) returns byte-identical rows to an independent in-memory
//! filter over the merged event columns and the `reconstruct_log` reports
//! the store was fed. Pushdown may only skip work, never answers.

use eventlog::logger::{LocalLog, LocalTs, LogEntry};
use eventlog::merge::{merge_logs, merge_logs_store};
use eventlog::{encode_row, Event, EventKind, PacketId};
use netsim::prop::{check, vec_of};
use netsim::{NodeId, Rng};
use refill::provenance::EntryOrigin;
use refill::{CtpVocabulary, DiagnosedCause, Diagnoser, Reconstructor};
use refill_store::{Query, ReportRow, SegmentStore, Sidecar};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static NONCE: AtomicU64 = AtomicU64::new(0);

struct TempDir(PathBuf);

impl TempDir {
    fn new() -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "refill-store-queryeq-{}-{}",
            std::process::id(),
            NONCE.fetch_add(1, Ordering::Relaxed)
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

/// One generated log entry, before grouping into per-node logs.
#[derive(Debug, Clone, Copy)]
struct Soup {
    node: u16,
    origin: u16,
    seqno: u32,
    kind: u8,
    ts: Option<u64>,
}

fn arb_soup(rng: &mut Rng) -> Vec<Soup> {
    vec_of(rng, 1..60, |rng| Soup {
        node: rng.gen_range(1..=4),
        origin: rng.gen_range(1..=3),
        seqno: rng.gen_range(0..8),
        kind: rng.gen_range(0..5),
        ts: rng.gen_bool(0.5).then(|| rng.gen_range(0..10_000)),
    })
}

fn to_logs(soup: &[Soup]) -> Vec<LocalLog> {
    let mut logs: Vec<LocalLog> = (1u16..=4)
        .map(|n| LocalLog {
            node: NodeId(n),
            entries: Vec::new(),
        })
        .collect();
    for s in soup {
        let packet = PacketId::new(NodeId(s.origin), s.seqno);
        let next = NodeId(if s.node == 4 { 1 } else { s.node + 1 });
        let kind = match s.kind {
            0 => EventKind::Origin,
            1 => EventKind::Trans { to: next },
            2 => EventKind::Recv { from: next },
            3 => EventKind::AckRecvd { to: next },
            _ => EventKind::Enqueue,
        };
        logs[usize::from(s.node) - 1].entries.push(LogEntry {
            event: Event::new(NodeId(s.node), kind, packet),
            local_ts: s.ts.and_then(LocalTs::new),
        });
    }
    logs
}

/// Independent oracle for the event side of a query. Deliberately written
/// against the entry, not the store's own matcher.
fn oracle_events(rows: &[LogEntry], q: &Query) -> Vec<LogEntry> {
    if q.cause.is_some() || q.disposition.is_some() {
        return Vec::new();
    }
    rows.iter()
        .filter(|LogEntry { event, local_ts }| {
            if let Some(origin) = q.origin {
                if event.packet.origin != origin {
                    return false;
                }
            }
            if let Some((lo, hi)) = q.seqno {
                if !(lo..=hi).contains(&event.packet.seqno) {
                    return false;
                }
            }
            if let Some((lo, hi)) = q.ts {
                if !local_ts.is_some_and(|ts| (lo..=hi).contains(&ts.get())) {
                    return false;
                }
            }
            true
        })
        .copied()
        .collect()
}

/// Independent oracle for the report side of a query.
fn oracle_reports(rows: &[ReportRow], q: &Query) -> Vec<ReportRow> {
    if q.ts.is_some() {
        return Vec::new();
    }
    rows.iter()
        .filter(|row| {
            if let Some(origin) = q.origin {
                if row.report.packet.origin != origin {
                    return false;
                }
            }
            if let Some((lo, hi)) = q.seqno {
                if !(lo..=hi).contains(&row.report.packet.seqno) {
                    return false;
                }
            }
            if let Some(cause) = q.cause {
                let got = row.sidecar.as_ref().and_then(|s| s.diagnosis.cause);
                if got != Some(cause) {
                    return false;
                }
            }
            if let Some(disposition) = q.disposition {
                if !row.report.origins.contains(&disposition) {
                    return false;
                }
            }
            true
        })
        .cloned()
        .collect()
}

#[test]
fn store_queries_match_in_memory_filters() {
    check("store_queries_match_in_memory_filters", 32, &[], |rng| {
        let soup = arb_soup(rng);
        let chunk = rng.gen_range(1..16usize);
        let q_origin = rng.gen_bool(0.5).then(|| rng.gen_range(1..=3u16));
        let q_seqno = rng
            .gen_bool(0.5)
            .then(|| (rng.gen_range(0..8u32), rng.gen_range(0..8u32)));
        let q_ts = rng
            .gen_bool(0.5)
            .then(|| (rng.gen_range(0..10_000u64), rng.gen_range(0..10_000u64)));
        let logs = to_logs(&soup);
        let columns = merge_logs_store(&logs);
        let event_rows = columns.entries();
        let reports =
            Reconstructor::new(CtpVocabulary::table2()).reconstruct_log(&merge_logs(&logs));
        let diagnoser = Diagnoser::new();
        let report_rows: Vec<ReportRow> = reports
            .iter()
            .map(|r| {
                let diagnosis = diagnoser.diagnose(r, None);
                ReportRow::from_report(
                    r,
                    Some(Sidecar {
                        est_time: None,
                        diagnosis,
                        fate: None,
                    }),
                )
            })
            .collect();

        // Small roll so the soup spreads over several segments and
        // pushdown has something to skip.
        let tmp = TempDir::new();
        let (store, _) = SegmentStore::open(&tmp.0).unwrap();
        let mut store = store.with_roll_bytes(256);
        for rows in event_rows.chunks(chunk) {
            store.append_events(rows).unwrap();
        }
        for rows in report_rows.chunks(chunk.div_ceil(2)) {
            store.append_reports(rows).unwrap();
        }
        store.sync().unwrap();

        // Survive a reopen too: queries run against the recovered store.
        drop(store);
        let (store, _) = SegmentStore::open(&tmp.0).unwrap();

        let mut queries = vec![
            Query::default(),
            Query { origin: q_origin.map(NodeId), ..Query::default() },
            Query {
                seqno: q_seqno.map(|(a, b)| (a.min(b), a.max(b))),
                ..Query::default()
            },
            Query { ts: q_ts.map(|(a, b)| (a.min(b), a.max(b))), ..Query::default() },
            Query {
                origin: q_origin.map(NodeId),
                seqno: q_seqno.map(|(a, b)| (a.min(b), a.max(b))),
                ts: q_ts.map(|(a, b)| (a.min(b), a.max(b))),
                ..Query::default()
            },
            Query { disposition: Some(EntryOrigin::Observed), ..Query::default() },
            Query { disposition: Some(EntryOrigin::InterForced), ..Query::default() },
        ];
        // Every diagnosed cause present in the data.
        let mut causes: Vec<DiagnosedCause> = Vec::new();
        for cause in report_rows
            .iter()
            .filter_map(|r| r.sidecar.as_ref().and_then(|s| s.diagnosis.cause))
        {
            if !causes.contains(&cause) {
                causes.push(cause);
            }
        }
        for cause in causes {
            queries.push(Query { cause: Some(cause), ..Query::default() });
        }

        for q in &queries {
            let out = store.query(q).unwrap();
            assert_eq!(&out.events, &oracle_events(event_rows, q));
            assert_eq!(&out.reports, &oracle_reports(&report_rows, q));
            assert_eq!(
                out.stats.segments_scanned + out.stats.segments_skipped,
                out.stats.segments_total
            );
            assert_eq!(out.stats.event_rows_matched as usize, out.events.len());
            assert_eq!(out.stats.report_rows_matched as usize, out.reports.len());
        }

        // Compaction changes layout, not answers: events become ts-ordered
        // (a permutation) and the latest report per packet survives.
        let mut store = store;
        let latest_before = store.latest_reports().unwrap();
        store.compact().unwrap();
        assert_eq!(store.latest_reports().unwrap(), latest_before);
        let mut before_sorted = event_rows.to_vec();
        before_sorted.sort_by_key(encode_row);
        let mut after_sorted = store.events().unwrap();
        after_sorted.sort_by_key(encode_row);
        assert_eq!(after_sorted, before_sorted);
    });
}
