//! The bytes a log entry is written as are pinned: the archive text, the
//! wire frames and the segment rows of one fixed soup, whose timestamps
//! include the edges `0`, `1`, `u64::MAX - 1` and none, fold into a 64-bit
//! digest frozen while timestamps were still `Option<u64>`. Each format
//! also reads back to the soup it was written from.

use eventlog::frame::{decode_all, encode_records, NodeRecord};
use eventlog::{archive, Event, EventKind, LocalLog, LocalTs, LogEntry, PackedEvent, PacketId};
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

/// Frozen on the parent of the commit that introduced `LocalTs`.
const FORMAT_DIGEST: u64 = 0xfd53_ae22_79f7_54a5;

#[test]
fn archive_frames_and_segment_rows_are_the_frozen_bytes() {
    let logs = soup();
    for edge in EDGES {
        assert!(
            logs.iter()
                .flat_map(|l| &l.entries)
                .any(|e| e.local_ts == stamp(edge)),
            "the soup holds {edge:?}"
        );
    }

    let mut text = Vec::new();
    archive::write_logs(&logs, &mut text).unwrap();
    assert_eq!(archive::read_logs(&text[..]).unwrap(), logs);

    let records: Vec<NodeRecord> = logs
        .iter()
        .flat_map(|l| l.entries.iter().map(|e| NodeRecord::new(l.node, *e)))
        .collect();
    let frames = encode_records(&records);
    let (decoded, stats) = decode_all(&frames);
    assert_eq!(decoded, records);
    assert_eq!(stats.corrupt, 0);

    let rows: Vec<(PackedEvent, u64)> = records
        .iter()
        .map(|r| PackedEvent::pack_entry(&r.entry))
        .collect();
    let block = segment::encode_events(&rows);
    let (back, _) = segment::decode_block(&block)
        .unwrap()
        .expect("a whole block");
    let Block::Events(back) = back else {
        panic!("an events block")
    };
    let entries: Vec<LogEntry> = back.into_iter().map(PackedEvent::unpack_entry).collect();
    let expected: Vec<LogEntry> = records.iter().map(|r| r.entry).collect();
    assert_eq!(entries, expected);

    let mut digest = 0xcbf2_9ce4_8422_2325;
    for bytes in [&text, &frames, &block] {
        digest = fnv1a(digest, &(bytes.len() as u64).to_le_bytes());
        digest = fnv1a(digest, bytes);
    }
    assert_eq!(digest, FORMAT_DIGEST, "digest {digest:#018x}");
}
