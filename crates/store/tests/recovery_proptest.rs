//! Crash-recovery property: however many bytes of a store's segment file
//! survive a crash, reopening recovers exactly the longest prefix of
//! whole, CRC-valid blocks — no panic, no error, no partial rows — and a
//! second reopen is a no-op. Appends after recovery continue cleanly.

use eventlog::{Event, EventKind, LocalTs, LogEntry, PacketId};
use netsim::json::{self, ToJson};
use netsim::prop::check;
use netsim::NodeId;
use refill_store::{segment, Manifest, ReportRow, SegmentStore};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static NONCE: AtomicU64 = AtomicU64::new(0);

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "refill-store-recovery-{tag}-{}-{}",
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

fn event_row(origin: u16, seqno: u32, local_ts: Option<LocalTs>) -> LogEntry {
    let p = PacketId::new(NodeId(origin), seqno);
    LogEntry {
        event: Event::new(NodeId(origin), EventKind::Origin, p),
        local_ts,
    }
}

fn report_rows() -> Vec<ReportRow> {
    // A real single-hop flow, reconstructed rather than hand-built, so the
    // persisted template exercises the same code paths production rows do.
    use eventlog::logger::LocalLog;
    use eventlog::merge::merge_logs;
    use refill::{CtpVocabulary, Reconstructor};
    let p = PacketId::new(NodeId(1), 0);
    let log = LocalLog {
        node: NodeId(1),
        entries: vec![
            LogEntry {
                event: Event::new(NodeId(1), EventKind::Origin, p),
                local_ts: LocalTs::new(10),
            },
            LogEntry {
                event: Event::new(NodeId(1), EventKind::Trans { to: NodeId(2) }, p),
                local_ts: LocalTs::new(20),
            },
        ],
    };
    let merged = merge_logs(&[log]);
    let reports = Reconstructor::new(CtpVocabulary::table2()).reconstruct_log(&merged);
    assert!(!reports.is_empty());
    reports
        .iter()
        .map(|r| ReportRow::from_report(r, None))
        .collect()
}

/// The append schedule every property case replays: five event blocks with
/// a report block in the middle. Returns (event rows per block, reports).
fn schedule() -> (Vec<Vec<LogEntry>>, Vec<ReportRow>) {
    let mut blocks = Vec::new();
    for b in 0u32..5 {
        let mut rows = Vec::new();
        for i in 0..8u32 {
            let seq = b * 8 + i;
            let ts = if seq % 7 == 3 {
                None
            } else {
                LocalTs::new(u64::from(seq) * 100)
            };
            rows.push(event_row(1 + (seq % 3) as u16, seq, ts));
        }
        blocks.push(rows);
    }
    (blocks, report_rows())
}

/// Build the store, tracking each block's end offset and the cumulative
/// row counts durable at that boundary.
fn build(dir: &std::path::Path) -> (Vec<(u64, usize, usize)>, u64) {
    let (store, _) = SegmentStore::open(dir).unwrap();
    let mut store = store;
    let (event_blocks, reports) = schedule();
    let mut boundaries = Vec::new();
    let mut offset = 0u64;
    let mut events = 0usize;
    let mut nreports = 0usize;
    for (i, rows) in event_blocks.iter().enumerate() {
        store.append_events(rows).unwrap();
        offset += segment::encode_events(rows).len() as u64;
        events += rows.len();
        boundaries.push((offset, events, nreports));
        if i == 2 {
            store.append_reports(&reports).unwrap();
            offset += segment::encode_reports(&reports).unwrap().len() as u64;
            nreports += reports.len();
            boundaries.push((offset, events, nreports));
        }
    }
    store.sync().unwrap();
    assert_eq!(store.segments().len(), 1, "default roll keeps one segment");
    assert_eq!(store.segments()[0].committed_len, offset);
    (boundaries, offset)
}

#[test]
fn truncate_anywhere_reopen_recovers_longest_durable_prefix() {
    check(
        "truncate_anywhere_reopen_recovers_longest_durable_prefix",
        64,
        &[],
        |rng| {
            let cut_frac: f64 = rng.gen_range(0.0..=1.0);
            let tmp = TempDir::new("cut");
            let (boundaries, total_len) = build(&tmp.0);
            let cut = (cut_frac * total_len as f64).round() as u64;

            // Reference contents of the intact store.
            let (full, _) = SegmentStore::open(&tmp.0).unwrap();
            let full_events = full.events().unwrap();
            let full_reports = full.reports().unwrap();
            drop(full);

            // Simulate the crash: everything past `cut` never reached disk.
            let seg = tmp.0.join(boundaries_file(&tmp.0));
            let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
            f.set_len(cut).unwrap();
            drop(f);

            let (want_events, want_reports, durable) = boundaries
                .iter()
                .rev()
                .find(|(end, _, _)| *end <= cut)
                .map_or((0, 0, 0), |&(end, e, r)| (e, r, end));

            let (store, report) = SegmentStore::open(&tmp.0).unwrap();
            assert_eq!(store.events().unwrap(), full_events[..want_events].to_vec());
            assert_eq!(
                store.reports().unwrap(),
                full_reports[..want_reports].to_vec()
            );
            assert_eq!(report.torn_bytes, cut - durable);
            assert_eq!(report.truncated_segments, usize::from(cut != durable));
            assert_eq!(store.segments()[0].committed_len, durable);
            drop(store);

            // Recovery is idempotent: the second open finds nothing to fix.
            let (store, report) = SegmentStore::open(&tmp.0).unwrap();
            assert_eq!(report.torn_bytes, 0);
            assert_eq!(report.truncated_segments, 0);

            // Life goes on: the store accepts appends after recovery.
            let mut store = store;
            let extra = event_row(9, 999, LocalTs::new(1234));
            store.append_events(&[extra]).unwrap();
            store.sync().unwrap();
            drop(store);
            let (store, _) = SegmentStore::open(&tmp.0).unwrap();
            let mut want = full_events[..want_events].to_vec();
            want.push(extra);
            assert_eq!(store.events().unwrap(), want);
        },
    );
}

/// The single segment file's name (recovery must not depend on us knowing
/// the id scheme, but the test needs the path to truncate).
fn boundaries_file(dir: &std::path::Path) -> String {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".refill"))
        .collect();
    names.sort();
    assert_eq!(names.len(), 1);
    names.remove(0)
}

/// Crashing mid-`sync` can leave the manifest behind the file (extra whole
/// blocks past `committed_len`). Scan is ground truth: they are kept.
#[test]
fn manifest_behind_file_keeps_scanned_blocks() {
    let tmp = TempDir::new("stale-manifest");
    let (_, total_len) = build(&tmp.0);
    let (full, _) = SegmentStore::open(&tmp.0).unwrap();
    let full_events = full.events().unwrap();
    let full_reports = full.reports().unwrap();
    drop(full);

    // Rewind the manifest's committed_len as if the last sync never
    // happened, leaving valid blocks past the recorded boundary.
    let manifest_path = tmp.0.join("MANIFEST.json");
    let text = std::fs::read_to_string(&manifest_path).unwrap();
    let mut doc: Manifest = json::decode(text.as_bytes()).unwrap();
    doc.segments[0].committed_len = 8;
    std::fs::write(&manifest_path, doc.to_json().to_compact().unwrap()).unwrap();

    let (store, report) = SegmentStore::open(&tmp.0).unwrap();
    assert_eq!(store.events().unwrap(), full_events);
    assert_eq!(store.reports().unwrap(), full_reports);
    assert_eq!(report.torn_bytes, 0);
    assert_eq!(store.segments()[0].committed_len, total_len);
}
