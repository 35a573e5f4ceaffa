//! The bytes a log entry is written as are pinned: the frames of the log
//! file and the segment rows of one fixed soup, whose timestamps include
//! the edges `0`, `1`, `u64::MAX - 1` and none, fold into a 64-bit digest.
//! Each format also reads back to the soup it was written from. The bytes
//! compaction writes — one merged segment and its manifest — are pinned the
//! same way.

use eventlog::frame::{decode_all, encode_records, read_logs, NodeRecord};
use eventlog::{Event, EventKind, LocalLog, LocalTs, LogEntry, PacketId};
use netsim::NodeId;
use refill_store::segment::{self, Block};

/// SplitMix64 (public-domain constants).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const EDGES: [Option<u64>; 4] = [Some(0), Some(1), Some(u64::MAX - 1), None];

fn stamp(ts: Option<u64>) -> Option<LocalTs> {
    ts.map(|ts| LocalTs::new(ts).expect("the soup draws no u64::MAX"))
}

/// Five logs of up to 23 entries; a third of the timestamps are ordinary
/// readings, the rest edges.
fn soup() -> Vec<LocalLog> {
    let mut rng = SplitMix64(0x666f_726d_6174);
    (1..=5u16)
        .map(|n| {
            let node = NodeId(n);
            let entries = (0..rng.below(24))
                .map(|seqno| {
                    let peer = NodeId(rng.below(8) as u16);
                    let kind = match rng.below(4) {
                        0 => EventKind::Recv { from: peer },
                        1 => EventKind::Trans { to: peer },
                        2 => EventKind::Origin,
                        _ => EventKind::Custom(rng.next() as u16),
                    };
                    let ts = if rng.below(3) == 0 {
                        Some(rng.next() >> 1)
                    } else {
                        EDGES[rng.below(4) as usize]
                    };
                    LogEntry {
                        event: Event::new(node, kind, PacketId::new(peer, seqno as u32)),
                        local_ts: stamp(ts),
                    }
                })
                .collect();
            LocalLog { node, entries }
        })
        .collect()
}

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// The frames and rows of the digest frozen before `LocalTs` came in, which
/// also folded the JSON-lines text of a log format since removed: these are
/// the same two byte strings folded alone, on the code that still had it.
const FORMAT_DIGEST: u64 = 0xd7d3_5771_bf20_fcbe;

#[test]
fn frames_and_segment_rows_are_the_frozen_bytes() {
    let logs = soup();
    for edge in EDGES {
        assert!(
            logs.iter()
                .flat_map(|l| &l.entries)
                .any(|e| e.local_ts == stamp(edge)),
            "the soup holds {edge:?}"
        );
    }

    let records: Vec<NodeRecord> = logs
        .iter()
        .flat_map(|l| l.entries.iter().map(|e| NodeRecord::new(l.node, *e)))
        .collect();
    let frames = encode_records(&records);
    let (decoded, stats) = decode_all(&frames);
    assert_eq!(decoded, records);
    assert_eq!(stats.corrupt, 0);
    let nonempty: Vec<LocalLog> = logs.iter().filter(|l| !l.is_empty()).cloned().collect();
    assert_eq!(read_logs(&frames[..]).unwrap().0, nonempty);

    let expected: Vec<LogEntry> = records.iter().map(|r| r.entry).collect();
    let block = segment::encode_events(&expected);
    let (back, _) = segment::decode_block(&block)
        .unwrap()
        .expect("a whole block");
    assert_eq!(back, Block::Events(expected));

    let mut digest = 0xcbf2_9ce4_8422_2325;
    for bytes in [&frames, &block] {
        digest = fnv1a(digest, &(bytes.len() as u64).to_le_bytes());
        digest = fnv1a(digest, bytes);
    }
    assert_eq!(digest, FORMAT_DIGEST, "digest {digest:#018x}");
}

/// A store directory removed on drop.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "refill-format-identity-{tag}-{}",
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

/// Packets flow 1 -> 2 -> 3, the three logs interleaved round-robin. Node
/// 3's clock steps back by 25 000 at packet 8, and from packet 12 on node 1
/// logs no timestamps: compaction sees segment runs out of time order and
/// rows that sort as 0.
fn stepped_and_lost_records() -> Vec<NodeRecord> {
    let mut logs: Vec<Vec<LogEntry>> = vec![Vec::new(); 3];
    for seq in 0..18u32 {
        let p = PacketId::new(NodeId(1), seq);
        let ts = u64::from(seq) * 10_000;
        let stamp1 = if seq < 12 { LocalTs::new(ts) } else { None };
        let step = if seq >= 8 { 25_000 } else { 0 };
        logs[0].push(LogEntry {
            event: Event::new(NodeId(1), EventKind::Trans { to: NodeId(2) }, p),
            local_ts: stamp1,
        });
        if seq % 5 != 3 {
            logs[0].push(LogEntry {
                event: Event::new(NodeId(1), EventKind::AckRecvd { to: NodeId(2) }, p),
                local_ts: stamp1.map(|t| LocalTs::new(t.get() + 5).unwrap()),
            });
            logs[1].push(LogEntry {
                event: Event::new(NodeId(2), EventKind::Recv { from: NodeId(1) }, p),
                local_ts: LocalTs::new(ts + 300),
            });
            logs[1].push(LogEntry {
                event: Event::new(NodeId(2), EventKind::Trans { to: NodeId(3) }, p),
                local_ts: LocalTs::new(ts + 310),
            });
            logs[2].push(LogEntry {
                event: Event::new(NodeId(3), EventKind::Recv { from: NodeId(2) }, p),
                local_ts: LocalTs::new(ts + 50_000 - step),
            });
        }
    }
    let mut records = Vec::new();
    for at in 0..logs.iter().map(Vec::len).max().unwrap_or(0) {
        for (lane, log) in logs.iter().enumerate() {
            if let Some(entry) = log.get(at) {
                records.push(NodeRecord::new(NodeId(lane as u16 + 1), *entry));
            }
        }
    }
    records
}

/// Frozen before the store read and wrote log records as `LogEntry`.
const COMPACTED_DIGEST: u64 = 0x16f2_4a76_0a15_c1a9;

/// A multi-segment store written by a checkpointed stream, compacted into
/// one segment: the segment's bytes and the manifest that lists it are
/// pinned.
#[test]
fn a_compacted_segment_is_the_frozen_bytes() {
    use eventlog::watermark::Lateness;
    use refill::{CtpVocabulary, Reconstructor};
    use refill_store::{SegmentStore, StoreCheckpoint};
    use refill_stream::{StreamObserver, StreamReconstructor};

    let records = stepped_and_lost_records();
    let tmp = TempDir::new("compacted");
    let (store, _) = SegmentStore::open(&tmp.0).unwrap();
    let mut ckpt = StoreCheckpoint::new(store.with_roll_bytes(300));
    let mut stream = StreamReconstructor::with_lateness(
        Reconstructor::new(CtpVocabulary::table2()),
        Lateness {
            records: 2,
            micros: 20_000,
        },
    );
    // The driver's hook order by hand, a commit every eight records.
    for (i, rec) in records.iter().enumerate() {
        stream.ingest(*rec);
        ckpt.on_record(rec).unwrap();
        if (i + 1) % 8 == 0 {
            stream.pump();
            stream.poll_with(|report| ckpt.on_report(report).unwrap());
            ckpt.sync().unwrap();
        }
    }
    for report in &stream.finish() {
        ckpt.on_report(report).unwrap();
    }
    let mut store = ckpt.finish().unwrap();
    assert!(store.segments().len() > 2, "{:?}", store.segments());
    let appended = store.events().unwrap();
    let compacted = store.compact().unwrap();
    assert_ne!(store.events().unwrap(), appended, "the merge interleaves the runs");
    assert_eq!(compacted.events, records.len() as u64);
    assert!(compacted.dropped_reports > 0, "{compacted:?}");

    let [meta] = store.segments() else {
        panic!("compaction leaves one segment")
    };
    let segment = std::fs::read(tmp.0.join(&meta.file)).unwrap();
    let manifest = std::fs::read(tmp.0.join(refill_store::manifest::MANIFEST_FILE)).unwrap();
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for bytes in [&segment, &manifest] {
        digest = fnv1a(digest, &(bytes.len() as u64).to_le_bytes());
        digest = fnv1a(digest, bytes);
    }
    assert_eq!(digest, COMPACTED_DIGEST, "digest {digest:#018x}");
}
