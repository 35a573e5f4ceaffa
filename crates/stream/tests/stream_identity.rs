//! The online path gives the batch answer, on a schedule that is pinned:
//!
//! * under three arrival orders × timestamps on, off or lost half way ×
//!   three lateness rules × three poll cadences, `finish()` equals
//!   `reconstruct_log` over the merge of the records regrouped into per-node
//!   logs in node order;
//! * a 64-bit digest over *when* windows close — the packets of every
//!   `poll()` batch, `open_windows()` after it and the closing
//!   `StreamStats` of the runs whose timestamps are all on or all off —
//!   frozen on the commit before windows kept the merge's order, which
//!   changed what a close computes and not when it happens;
//! * a stream that pumps before it polls emits, at every close, the batch
//!   report over the records ingested so far;
//! * logs fed one by one with a `finish()` after each give the batch answer
//!   over the merge (the "logs trickle in over hours" use), and a `finish()`
//!   in mid-stream changes nothing but the moment the lanes are pumped.
//!
//! The kernel's own output is pinned field by field in
//! `crates/core/tests/kernel_identity.rs`.

use eventlog::frame::NodeRecord;
use eventlog::logger::{LocalLog, LocalTs, LogEntry};
use eventlog::watermark::Lateness;
use eventlog::{merge_logs, Event, EventKind, PacketId};
use netsim::NodeId;
use refill::trace::{CtpVocabulary, PacketReport, Reconstructor};
use refill_stream::StreamReconstructor;
use std::collections::{BTreeMap, VecDeque};

fn n(i: u16) -> NodeId {
    NodeId(i)
}

// --- deterministic input -------------------------------------------------

/// SplitMix64 (public-domain constants); both the generator of the record
/// streams and the mixing step of the digest.
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

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// One packet's events as its nodes would log them, interleaved in
/// causal order: a walk over a small node pool (so routing loops and
/// revisits happen) with retransmissions and timeouts, or — one time in
/// five — kinds no protocol run would produce. Events are then lost.
fn soup(rng: &mut SplitMix64, packet: PacketId) -> Vec<Event> {
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
enum Arrival {
    /// Packet by packet, nodes interleaved as the packet travelled.
    Interleaved,
    /// One node's whole log, then the next node's.
    NodeByNode,
    /// One record from each node in turn.
    RoundRobin,
}

const ARRIVALS: [Arrival; 3] = [Arrival::Interleaved, Arrival::NodeByNode, Arrival::RoundRobin];

/// Whether the records carry their node's clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stamps {
    On,
    Off,
    /// On for the first half of the stream as it arrives, off after.
    LostHalfWay,
}

const STAMPS: [Stamps; 3] = [Stamps::On, Stamps::Off, Stamps::LostHalfWay];

/// `packets` soups under packet ids of their own as one record stream.
/// Timestamps, when asked for, come from per-node clocks that are skewed
/// against each other, mostly tick in milliseconds, sometimes leap tens of
/// seconds and now and then read backwards.
fn records(seed: u64, packets: u32, arrival: Arrival, stamps: Stamps) -> Vec<NodeRecord> {
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

fn reconstructor(which: usize) -> Reconstructor {
    match which % 3 {
        0 => Reconstructor::new(CtpVocabulary::citysee()).with_sink(n(1)),
        1 => Reconstructor::new(CtpVocabulary::table2()),
        _ => Reconstructor::new(CtpVocabulary::full()),
    }
}

fn latenesses() -> [Lateness; 3] {
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

/// The records regrouped into per-node logs in node order: the logs whose
/// merge the stream's answer is the batch answer over.
fn node_logs(recs: &[NodeRecord]) -> Vec<LocalLog> {
    let mut logs: BTreeMap<NodeId, LocalLog> = BTreeMap::new();
    for r in recs {
        logs.entry(r.node)
            .or_insert_with(|| LocalLog::new(r.node))
            .entries
            .push(r.entry);
    }
    logs.into_values().collect()
}

fn batch(recon: &Reconstructor, recs: &[NodeRecord]) -> Vec<PacketReport> {
    recon.reconstruct_log(&merge_logs(&node_logs(recs)))
}

// --- the digest ----------------------------------------------------------

struct Digest(SplitMix64);

impl Digest {
    fn word(&mut self, w: u64) {
        self.0 .0 ^= w;
        self.0 .0 = self.0.next();
    }

    fn packet(&mut self, id: PacketId) {
        self.word(u64::from(id.origin.0) << 32 | u64::from(id.seqno));
    }
}

/// Computed on the parent of the commit that made windows keep the merge's
/// order, by this very function, with the lanes of 256 records the stream
/// has kept since.
const FROZEN_DIGEST: u64 = 0xb450_04b2_1b0a_1c6b;

#[test]
fn emissions_match_the_frozen_digest() {
    const PACKETS: u32 = 300;
    let mut digest = Digest(SplitMix64(0));
    // What the matrix exercises: a generator that stops reaching it is noticed.
    let (mut rolling, mut reopened, mut backpressure, mut big_batches) = (0u64, 0u64, 0u64, 0u64);
    let mut runs = 0usize;
    for (a, arrival) in ARRIVALS.into_iter().enumerate() {
        for (s, stamps) in STAMPS.into_iter().enumerate() {
            let which = 3 * a + s;
            let recs = records(which as u64, PACKETS, arrival, stamps);
            let expected = batch(&reconstructor(which), &recs);
            // Losing timestamps reopens every closed window, which the
            // frozen schedule predates.
            let pinned = stamps != Stamps::LostHalfWay;
            for lateness in latenesses() {
                for poll_every in [1usize, 7, 64] {
                    let mut stream = StreamReconstructor::with_lateness(reconstructor(which), lateness);
                    runs += 1;
                    for (i, rec) in recs.iter().enumerate() {
                        stream.ingest(*rec);
                        if (i + 1) % poll_every == 0 {
                            let emitted = stream.poll();
                            rolling += emitted.len() as u64;
                            big_batches += u64::from(emitted.len() >= 8); // parallel closes
                            if pinned {
                                digest.word(emitted.len() as u64);
                                emitted.iter().for_each(|r| digest.packet(r.packet));
                                digest.word(stream.open_windows() as u64);
                            }
                        }
                    }
                    let all = stream.finish();
                    let run = format!("{arrival:?}, {stamps:?}, {lateness:?}, every {poll_every}");
                    assert!(all == expected, "finish() is not the batch answer: {run}");
                    assert_eq!(stream.open_windows(), 0);
                    assert_eq!(stream.reports(), all);
                    let stats = stream.stats();
                    assert_eq!(stats.records, recs.len() as u64);
                    if pinned {
                        for w in [
                            stats.records,
                            stats.windows_closed,
                            stats.windows_reopened,
                            stats.backpressure,
                        ] {
                            digest.word(w);
                        }
                    }
                    reopened += stats.windows_reopened;
                    backpressure += stats.backpressure;
                }
            }
        }
    }
    assert_eq!(runs, 81);
    assert!(
        rolling > 10_000 && reopened > 5_000 && backpressure > 100 && big_batches > 50,
        "rolling {rolling}, reopened {reopened}, backpressure {backpressure}, \
         big batches {big_batches}"
    );
    assert_eq!(
        digest.0 .0, FROZEN_DIGEST,
        "the stream path's close schedule changed: {:#018x}",
        digest.0 .0
    );
}

#[test]
fn a_close_after_a_pump_is_the_batch_answer_so_far() {
    for (a, arrival) in ARRIVALS.into_iter().enumerate() {
        for (s, stamps) in STAMPS.into_iter().enumerate() {
            let which = 3 * a + s;
            let recs = records(500 + which as u64, 120, arrival, stamps);
            let recon = reconstructor(which);
            for lateness in latenesses() {
                let mut stream = StreamReconstructor::with_lateness(reconstructor(which), lateness);
                let mut closes = 0;
                for (i, rec) in recs.iter().enumerate() {
                    stream.ingest(*rec);
                    if (i + 1) % 16 != 0 {
                        continue;
                    }
                    stream.pump();
                    let emitted = stream.poll();
                    if emitted.is_empty() {
                        continue;
                    }
                    let so_far = merge_logs(&node_logs(&recs[..=i])).packet_index();
                    for report in &emitted {
                        let events = so_far.get(report.packet).expect("only ingested packets close");
                        assert!(
                            *report == recon.reconstruct_packet(report.packet, events),
                            "{arrival:?}, {stamps:?}, {lateness:?}: packet {} after {} records",
                            report.packet,
                            i + 1
                        );
                    }
                    closes += emitted.len();
                }
                assert!(closes > 0, "{arrival:?}, {stamps:?}, {lateness:?}");
                assert!(stream.finish() == batch(&recon, &recs));
            }
        }
    }
}

// --- the uses the incremental reconstructor documented ---------------------

/// The stream's records as per-node logs, log `k` wholly before log `k + 1`
/// on the merged clock, so the merged order is the order a log-by-log feed
/// absorbs.
fn logs_of(recs: &[NodeRecord]) -> Vec<LocalLog> {
    let mut logs: Vec<LocalLog> = Vec::new();
    for (tick, r) in recs.iter().enumerate() {
        let at = match logs.iter().position(|log| log.node == r.node) {
            Some(at) => at,
            None => {
                logs.push(LocalLog::new(r.node));
                logs.len() - 1
            }
        };
        logs[at].entries.push(LogEntry {
            event: r.entry.event,
            local_ts: LocalTs::new(((at as u64) << 32) | tick as u64),
        });
    }
    logs
}

#[test]
fn logs_fed_one_by_one_with_a_finish_after_each_give_the_batch_answer() {
    for which in 0..3 {
        let recs = records(900 + which as u64, 200, Arrival::Interleaved, Stamps::Off);
        let logs = logs_of(&recs);
        let reference = reconstructor(which).reconstruct_log(&merge_logs(&logs));

        let mut stream = StreamReconstructor::new(reconstructor(which));
        let mut last = Vec::new();
        for log in &logs {
            for entry in &log.entries {
                stream.ingest(NodeRecord::new(log.node, *entry));
            }
            last = stream.finish();
            assert_eq!(stream.open_windows(), 0);
        }
        assert_eq!(last, reference, "vocabulary {which}");
        // Every later log reopens the packets it shares with earlier ones.
        assert!(stream.stats().windows_reopened > 100);
    }
}

#[test]
fn a_finish_in_mid_stream_changes_nothing_but_the_moment_of_pumping() {
    for (which, arrival) in ARRIVALS.into_iter().enumerate() {
        let recs = records(950 + which as u64, 120, arrival, Stamps::On);
        let (early, late) = recs.split_at(recs.len() / 2);

        let mut twice = StreamReconstructor::new(reconstructor(which));
        early.iter().for_each(|r| twice.ingest(*r));
        let halfway = twice.finish();
        assert!(!halfway.is_empty());
        late.iter().for_each(|r| twice.ingest(*r));
        let twice_reports = twice.finish();

        let mut once = StreamReconstructor::new(reconstructor(which));
        early.iter().for_each(|r| once.ingest(*r));
        once.pump();
        late.iter().for_each(|r| once.ingest(*r));
        assert_eq!(twice_reports, once.finish(), "{arrival:?}");
        assert!(twice_reports == batch(&reconstructor(which), &recs), "{arrival:?}");
        assert_eq!(twice.packed_event_bytes(), once.packed_event_bytes());
    }
}
