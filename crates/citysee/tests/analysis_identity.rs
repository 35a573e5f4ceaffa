//! What `citysee::analyze` reports is pinned, not just its shape:
//!
//! * a 64-bit digest over every packet record, every score, the three
//!   baseline outcomes and the transport statistics of a clean and a lossy
//!   campaign (the lossy one frozen on the commit before the baselines and
//!   the scoring moved into the per-packet pass, the clean one re-frozen
//!   when the merge stopped reading clocks);
//! * the digest does not depend on how the analysis threads are scheduled,
//!   nor on the order the collected logs are listed in, and no packet's
//!   report or diagnosis depends on how its evidence is interleaved so long
//!   as each node's order is kept;
//! * `wit_merge` on local logs allocates by the number of logs, not of
//!   events, and scoring a flow asks the allocator for one buffer, or for
//!   none on a warm thread.

use baselines::wit::wit_merge;
use citysee::{analyze, run_scenario, Analysis, Scenario};
use eventlog::{Event, EventKind, LocalLog, PacketId, PacketIndex, TruthEvent};
use netsim::json::ToJson;
use netsim::rng::Rng;
use netsim::NodeId;
use refill::diagnose::Diagnoser;
use refill::score::{score_events, score_flow};
use refill::trace::{CtpVocabulary, Reconstructor};
use std::fmt::Debug;
use std::sync::atomic::{AtomicBool, Ordering};

// --- frozen digest -------------------------------------------------------

/// FNV-1a over the `Debug` rendering of whatever it is fed: every field of
/// every type below derives `Debug`, so nothing a reader of [`Analysis`]
/// can see stays out of the digest.
struct Fnv(u64);

impl Fnv {
    fn feed(&mut self, what: &dyn Debug) {
        for b in format!("{what:?}\n").bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest(a: &Analysis) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.feed(&a.records.len());
    for r in &a.records {
        h.feed(&(r.packet, r.est_time, &r.diagnosis, r.fate));
    }
    h.feed(&a.flow_score);
    h.feed(&a.cause_score);
    h.feed(&a.path_score);
    h.feed(&a.naive);
    h.feed(&a.correlation);
    h.feed(&a.wit.components);
    h.feed(&a.wit.log_count);
    h.feed(&a.transport);
    h.0
}

/// `Scenario::small()` under the benchmark's `citysee-lossy` collection:
/// chunks and whole logs lost, failed writes, no timestamps (so the flows
/// need several times the inference).
fn lossy() -> Scenario {
    let mut s = Scenario::small();
    s.collection.chunk_loss_prob = 0.30;
    s.collection.whole_log_loss_prob = 0.05;
    s.logger.write_failure_prob = 0.05;
    s.logger.timestamps = false;
    s
}

/// Both digests were re-frozen when reports stopped depending on the
/// interleave of their evidence: the kernel orders a packet's nodes itself
/// (origin, then by id) and the diagnosis reads the deepest end of the
/// flow along the packet's route, no longer the latest one in list order.
const CLEAN_DIGEST: u64 = 0xeae9_58ad_7dd0_5381;
const LOSSY_DIGEST: u64 = 0x8d49_c989_ee90_6688;

#[test]
fn the_whole_analysis_is_the_frozen_one() {
    let clean = run_scenario(&Scenario::small());
    let lossy = run_scenario(&lossy());
    let first = (digest(&analyze(&clean)), digest(&analyze(&lossy)));
    assert_eq!(
        first,
        (CLEAN_DIGEST, LOSSY_DIGEST),
        "clean {:#018x}, lossy {:#018x}",
        first.0,
        first.1
    );
    // Again in the same process: nothing is left behind by a run.
    let again = (digest(&analyze(&clean)), digest(&analyze(&lossy)));
    assert_eq!(again, first, "second run in one process");
    // And while another thread keeps a core busy, so the analysis threads
    // are scheduled differently from the two runs above.
    let stop = AtomicBool::new(false);
    let contended = std::thread::scope(|s| {
        s.spawn(|| {
            let mut x = 1u64;
            while !stop.load(Ordering::Relaxed) {
                x = std::hint::black_box(x.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
            }
        });
        let out = (digest(&analyze(&clean)), digest(&analyze(&lossy)));
        stop.store(true, Ordering::Relaxed);
        out
    });
    assert_eq!(contended, first, "beside a busy thread");
}

// --- one answer per evidence set -----------------------------------------

/// `events` interleaved at random, each node's kept in its order.
fn shuffled(rng: &mut Rng, events: &[Event]) -> Vec<Event> {
    let mut streams: Vec<Vec<Event>> = Vec::new();
    for &e in events.iter().rev() {
        match streams.iter_mut().find(|s| s[0].node == e.node) {
            Some(stream) => stream.push(e),
            None => streams.push(vec![e]),
        }
    }
    let mut out = Vec::with_capacity(events.len());
    while !streams.is_empty() {
        let pick = rng.gen_range(0..streams.len());
        out.push(streams[pick].pop().expect("no stream is left empty"));
        if streams[pick].is_empty() {
            streams.swap_remove(pick);
        }
    }
    out
}

/// Fisher–Yates.
fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

#[test]
fn no_answer_depends_on_how_the_logs_are_interleaved() {
    let mut campaign = run_scenario(&lossy());
    let sink = campaign.topology.sink();
    let recon = Reconstructor::new(CtpVocabulary::citysee()).with_sink(sink);
    let diagnoser = Diagnoser::new().with_sink(sink);
    let answer = |events: &[Event], packet| {
        let report = recon.reconstruct_packet(packet, events);
        let json = |v: &dyn ToJson| v.to_json().to_compact().expect("finite numbers");
        (json(&report), json(&diagnoser.diagnose(&report, None)))
    };
    // Every packet, over one packet's evidence in four orders.
    let mut rng = Rng::new(0x0de7_0f0e_7e9e_4ce5);
    let index = PacketIndex::group_logs(&campaign.collected);
    for (packet, events) in index.iter() {
        let events: Vec<Event> = events.iter().map(|&&e| e).collect();
        let events = events.as_slice();
        let by_node = |reverse: bool| {
            let mut events = events.to_vec();
            events.sort_by_key(|e| if reverse { u16::MAX - e.node.0 } else { e.node.0 });
            events
        };
        let grouped = answer(events, packet);
        for other in [by_node(false), by_node(true), shuffled(&mut rng, events)] {
            assert_eq!(answer(&other, packet), grouped, "{packet:?}");
        }
    }
    // The whole analysis, over the logs listed in three orders: the frozen
    // answer each time.
    drop(index);
    assert_eq!(digest(&analyze(&campaign)), LOSSY_DIGEST, "as collected");
    campaign.collected.reverse();
    assert_eq!(digest(&analyze(&campaign)), LOSSY_DIGEST, "reversed");
    shuffle(&mut rng, &mut campaign.collected);
    assert_eq!(digest(&analyze(&campaign)), LOSSY_DIGEST, "shuffled");
}

// --- the shape of the cost -----------------------------------------------

#[global_allocator]
static GLOBAL: netsim::alloc::Counting = netsim::alloc::Counting;

fn requests_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let (out, requests) = netsim::alloc::requested_by(f);
    (out, requests.calls)
}

/// `logs` local logs of `events` entries each: every tuple names the node
/// that recorded it, as CitySee's do, so no two logs share one.
fn local_logs(logs: u16, events: u32) -> Vec<LocalLog> {
    (0..logs)
        .map(|node| {
            let node = NodeId(node);
            let entries = (0..events).map(|i| {
                let peer = NodeId((i % 7) as u16);
                let kind = match i % 3 {
                    0 => EventKind::Recv { from: peer },
                    1 => EventKind::Trans { to: peer },
                    _ => EventKind::AckRecvd { to: peer },
                };
                Event::new(node, kind, PacketId::new(peer, i / 3))
            });
            LocalLog::from_events(node, entries)
        })
        .collect()
}

#[test]
fn wit_on_local_logs_allocates_by_logs_not_events() {
    let (short, long) = (local_logs(300, 10), local_logs(300, 1_000));
    let (merge, few) = requests_of(|| wit_merge(&short));
    assert!(merge.fully_disconnected());
    let (merge, many) = requests_of(|| wit_merge(&long));
    assert!(merge.fully_disconnected());
    assert_eq!(merge.log_count, 300);
    // One component vector per log plus the tables: nothing per event. (The
    // all-tuples hash join grew a 300 000-entry map and a set per log.)
    assert_eq!(few, many, "requests for 10 vs 1 000 events a log");
    assert!(many <= 2 * 300 + 64, "wit_merge made {many} requests");
}

#[test]
fn scoring_a_flow_asks_for_one_buffer() {
    let campaign = run_scenario(&Scenario::small());
    let truth = &campaign.sim.truth;
    let truth_rows = truth.packet_rows();
    let index = PacketIndex::group_logs(&campaign.collected);
    // The busiest packet: enough distinct truth events that a map would
    // have to grow several times.
    let (id, rows) = truth_rows
        .iter()
        .max_by_key(|(_, rows)| rows.len())
        .expect("the campaign generated packets");
    assert!(rows.len() >= 50, "{} events", rows.len());
    let recon = Reconstructor::new(CtpVocabulary::citysee()).with_sink(campaign.topology.sink());
    let events: Vec<Event> = index.get(id).unwrap_or(&[]).iter().map(|&&e| e).collect();
    let report = recon.reconstruct_packet(id, &events);

    // A thread's first score sizes one buffer for the truth it is handed...
    let copied: Vec<TruthEvent> = truth_rows.rows_of(id, &truth.events).copied().collect();
    let (score, requests) = requests_of(|| score_flow(&report, &copied));
    assert!(score.observed > 0 && score.lost > 0, "{score:?}");
    assert!(requests <= 1, "score_flow made {requests} requests");
    // ...which the thread keeps: warm, it asks for nothing.
    let true_events = truth_rows.rows_of(id, &truth.events).map(|te| &te.event);
    let (warm, requests) = requests_of(|| score_events(&report, true_events));
    assert_eq!(warm, score);
    assert_eq!(requests, 0, "a warm thread made {requests} requests");
}
