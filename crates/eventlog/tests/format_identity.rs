//! The bytes of the one log file format are pinned: the frames of one fixed
//! soup, whose timestamps include the edges `0`, `1`, `u64::MAX - 1` and
//! none, fold into a 64-bit digest, and they read back to the soup they
//! were written from.

use eventlog::frame::{decode_all, encode_records, read_logs, NodeRecord};
use eventlog::{Event, EventKind, LocalLog, LocalTs, LogEntry, PacketId};
use netsim::NodeId;

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

/// The frames' length and bytes, folded on the code that also pinned the
/// segment rows of the same soup beside them.
const FRAMES_DIGEST: u64 = 0x2c69_cf72_e229_6aa1;

#[test]
fn frames_are_the_frozen_bytes() {
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

    let digest = fnv1a(0xcbf2_9ce4_8422_2325, &(frames.len() as u64).to_le_bytes());
    let digest = fnv1a(digest, &frames);
    assert_eq!(digest, FRAMES_DIGEST, "digest {digest:#018x}");
}
