//! Deterministic record streams for the stream tests, shared by
//! `stream_identity.rs` and the reconstructor's own unit tests (which check
//! every sweep against a scan of every open window): packet soups over a
//! small node pool, three arrival orders, timestamps on, off or lost half
//! way, three lateness rules, and rewritten clocks.

use eventlog::frame::{node_logs, NodeRecord};
use eventlog::logger::{LocalTs, LogEntry};
use eventlog::watermark::Lateness;
use eventlog::{merge_logs, Event, EventKind, PacketId};
use netsim::NodeId;
use refill::trace::{CtpVocabulary, PacketReport, Reconstructor};
use std::collections::VecDeque;

pub fn n(i: u16) -> NodeId {
    NodeId(i)
}

/// SplitMix64 (public-domain constants); both the generator of the record
/// streams and the mixing step of the digest.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// One packet's events as its nodes would log them, interleaved in
/// causal order: a walk over a small node pool (so routing loops and
/// revisits happen) with retransmissions and timeouts, or — one time in
/// five — kinds no protocol run would produce. Events are then lost.
pub fn soup(rng: &mut SplitMix64, packet: PacketId) -> Vec<Event> {
    let pool = 3 + rng.below(6);
    let mut events = Vec::new();
    if rng.chance(20) {
        for _ in 0..1 + rng.below(12) {
            let who = n(1 + rng.below(pool) as u16);
            let peer = n(1 + rng.below(pool) as u16);
            let kind = match rng.below(8) {
                0 | 1 => EventKind::Recv { from: peer },
                2 | 3 => EventKind::Trans { to: peer },
                4 => EventKind::AckRecvd { to: peer },
                5 => EventKind::Dup { from: peer },
                6 => EventKind::Origin,
                _ => EventKind::Custom(rng.below(3) as u16),
            };
            events.push(Event::new(who, kind, packet));
        }
    } else {
        let mut at = packet.origin;
        events.push(Event::new(at, EventKind::Origin, packet));
        for _ in 0..1 + rng.below(8) {
            let to = n(1 + rng.below(pool) as u16);
            if to == at {
                continue;
            }
            for _ in 0..1 + rng.below(3) {
                events.push(Event::new(at, EventKind::Trans { to }, packet));
            }
            if rng.chance(10) {
                events.push(Event::new(at, EventKind::Timeout { to }, packet));
                break;
            }
            events.push(Event::new(to, EventKind::Recv { from: at }, packet));
            events.push(Event::new(at, EventKind::AckRecvd { to }, packet));
            at = to;
        }
    }
    let loss = [0, 10, 30, 60][rng.below(4) as usize];
    events.retain(|_| !rng.chance(loss));
    events
}

/// How the records of a deployment reach the collector. Every order keeps
/// each node's records in that node's recording order.
#[derive(Clone, Copy, Debug)]
pub enum Arrival {
    /// Packet by packet, nodes interleaved as the packet travelled.
    Interleaved,
    /// One node's whole log, then the next node's.
    NodeByNode,
    /// One record from each node in turn.
    RoundRobin,
}

pub const ARRIVALS: [Arrival; 3] = [Arrival::Interleaved, Arrival::NodeByNode, Arrival::RoundRobin];

/// Whether the records carry their node's clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stamps {
    On,
    Off,
    /// On for the first half of the stream as it arrives, off after.
    LostHalfWay,
}

pub const STAMPS: [Stamps; 3] = [Stamps::On, Stamps::Off, Stamps::LostHalfWay];

/// `packets` soups under packet ids of their own as one record stream.
/// Timestamps, when asked for, come from per-node clocks that are skewed
/// against each other, mostly tick in milliseconds, sometimes leap tens of
/// seconds and now and then read backwards.
pub fn records(seed: u64, packets: u32, arrival: Arrival, stamps: Stamps) -> Vec<NodeRecord> {
    let mut rng = SplitMix64(0x2015_57e4 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut clocks: Vec<(NodeId, u64)> = Vec::new();
    let mut out = Vec::new();
    for seqno in 0..packets {
        let packet = PacketId::new(n(1 + rng.below(8) as u16), seqno);
        for event in soup(&mut rng, packet) {
            let at = match clocks.iter().position(|(node, _)| *node == event.node) {
                Some(at) => at,
                None => {
                    clocks.push((event.node, u64::from(event.node.0) * 7_000_000));
                    clocks.len() - 1
                }
            };
            let clock = &mut clocks[at].1;
            *clock = match rng.below(50) {
                0 => clock.saturating_sub(rng.below(3_000)),
                1..=4 => *clock + 1_000_000 + rng.below(40_000_000),
                _ => *clock + 100 + rng.below(5_000),
            };
            let local_ts = (stamps != Stamps::Off)
                .then_some(*clock)
                .and_then(LocalTs::new);
            out.push(NodeRecord::new(event.node, LogEntry { event, local_ts }));
        }
    }
    let mut out = match arrival {
        Arrival::Interleaved => out,
        Arrival::NodeByNode => {
            out.sort_by_key(|r| r.node); // stable: per-node order survives
            out
        }
        Arrival::RoundRobin => {
            let mut lanes: Vec<VecDeque<NodeRecord>> = vec![VecDeque::new(); clocks.len()];
            for r in out {
                let at = clocks.iter().position(|(node, _)| *node == r.node).unwrap();
                lanes[at].push_back(r);
            }
            let mut out = Vec::new();
            while lanes.iter().any(|lane| !lane.is_empty()) {
                out.extend(lanes.iter_mut().filter_map(|lane| lane.pop_front()));
            }
            out
        }
    };
    if stamps == Stamps::LostHalfWay {
        let half = out.len() / 2;
        out[half..].iter_mut().for_each(|r| r.entry.local_ts = None);
    }
    out
}

pub fn reconstructor(which: usize) -> Reconstructor {
    match which % 3 {
        0 => Reconstructor::new(CtpVocabulary::citysee()).with_sink(n(1)),
        1 => Reconstructor::new(CtpVocabulary::table2()),
        _ => Reconstructor::new(CtpVocabulary::full()),
    }
}

pub fn latenesses() -> [Lateness; 3] {
    [
        Lateness {
            records: 1,
            micros: u64::MAX,
        },
        Lateness {
            records: 3,
            micros: 20_000,
        },
        Lateness::default(),
    ]
}

/// The batch answer over the records regrouped into per-node logs, which
/// the stream's answer is (whatever order the logs come in).
pub fn batch(recon: &Reconstructor, recs: &[NodeRecord]) -> Vec<PacketReport> {
    recon.reconstruct_log(&merge_logs(&node_logs(recs)))
}

/// Fisher–Yates.
pub fn shuffle<T>(rng: &mut SplitMix64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// How a deployment's clocks are rewritten.
#[derive(Clone, Copy, Debug)]
pub enum Clocks {
    /// Every timestamp dropped.
    Stripped,
    /// About a third of the timestamps dropped.
    PartlyStripped,
    /// Every node's clock moved by an offset of its own, up to ± 10^12 µs.
    SkewedPerNode,
    /// One reading in ten stepped back by up to 100 s.
    SteppingBack,
}

pub const CLOCKS: [Clocks; 4] = [
    Clocks::Stripped,
    Clocks::PartlyStripped,
    Clocks::SkewedPerNode,
    Clocks::SteppingBack,
];

pub fn rewrite_clocks(recs: &mut [NodeRecord], clocks: Clocks, rng: &mut SplitMix64) {
    for r in recs {
        let Some(ts) = r.entry.local_ts.map(LocalTs::get) else {
            continue;
        };
        let offset = SplitMix64(u64::from(r.node.0)).next() % 1_000_000_000_000;
        r.entry.local_ts = match clocks {
            Clocks::Stripped => None,
            Clocks::PartlyStripped if rng.chance(33) => None,
            Clocks::PartlyStripped => Some(ts),
            Clocks::SkewedPerNode if offset.is_multiple_of(2) => Some(ts.saturating_add(offset)),
            Clocks::SkewedPerNode => Some(ts.saturating_sub(offset)),
            Clocks::SteppingBack if rng.chance(10) => {
                Some(ts.saturating_sub(rng.below(100_000_000)))
            }
            Clocks::SteppingBack => Some(ts),
        }
        .and_then(LocalTs::new);
    }
}

