//! Streaming/batch equivalence: however a day's records are interleaved
//! across nodes, chunked on the wire, windowed, closed early, or reopened
//! by late arrivals, the reports after the final flush are byte-identical
//! to a batch reconstruction of the same logs.
//!
//! The days are built so that the interleave matters: packets wander over a
//! small pool of nodes with retransmissions, revisits and lost evidence, and
//! the kernel's answer for such a packet depends on the order its nodes'
//! records reach it. Only a stream that keeps every packet in the merge's
//! order gives the batch answer.

use eventlog::frame::{encode_records, FrameDecoder, NodeRecord};
use eventlog::logger::{LocalLog, LocalTs, LogEntry};
use eventlog::merge::merge_logs;
use eventlog::watermark::Lateness;
use eventlog::{Event, EventKind, PacketId};
use netsim::prop::{check, vec_of};
use netsim::{NodeId, Rng};
use refill::{CtpVocabulary, PacketReport, Reconstructor};
use refill_stream::StreamReconstructor;

fn n(i: u16) -> NodeId {
    NodeId(i)
}

fn recon() -> Reconstructor {
    Reconstructor::new(CtpVocabulary::table2())
}

/// A synthetic day over five nodes. Each packet walks from its origin
/// through random next hops (revisits and loops included), each hop sent
/// one to three times and then acknowledged or timed out; three events in
/// ten are lost. Clocks are minutes apart and now and then step back. With
/// `untimed`, node 2 logs no timestamps, which exercises the record-quota
/// watermarks.
fn day_logs(rng: &mut Rng, packets: u32, untimed: bool) -> Vec<LocalLog> {
    let mut logs: Vec<LocalLog> = (1..=5).map(|i| LocalLog::new(n(i))).collect();
    let mut clocks: Vec<u64> = (0..5).map(|i| i * 90_000_000).collect();
    let mut log = |rng: &mut Rng, node: NodeId, kind: EventKind, packet: PacketId| {
        if rng.gen_bool(0.3) {
            return;
        }
        let at = usize::from(node.0) - 1;
        clocks[at] = if rng.gen_bool(0.05) {
            clocks[at].saturating_sub(rng.gen_range(0..3_000))
        } else {
            clocks[at] + rng.gen_range(100..5_000)
        };
        let local_ts = (!untimed || node != n(2))
            .then_some(clocks[at])
            .and_then(LocalTs::new);
        logs[at].entries.push(LogEntry {
            event: Event::new(node, kind, packet),
            local_ts,
        });
    };
    for seq in 0..packets {
        let packet = PacketId::new(n(rng.gen_range(1..=5)), seq);
        let mut at = packet.origin;
        log(rng, at, EventKind::Origin, packet);
        for _ in 0..rng.gen_range(1..6) {
            let to = n(rng.gen_range(1..=5));
            if to == at {
                continue;
            }
            for _ in 0..rng.gen_range(1..4) {
                log(rng, at, EventKind::Trans { to }, packet);
            }
            if rng.gen_bool(0.1) {
                log(rng, at, EventKind::Timeout { to }, packet);
                break;
            }
            log(rng, to, EventKind::Recv { from: at }, packet);
            log(rng, at, EventKind::AckRecvd { to }, packet);
            at = to;
        }
    }
    logs
}

/// Interleave logs into one arrival sequence using `picks` (cycled), while
/// preserving each node's own order — the one guarantee real collection
/// provides.
fn interleave(logs: &[LocalLog], picks: &[usize]) -> Vec<NodeRecord> {
    let total: usize = logs.iter().map(|l| l.entries.len()).sum();
    let mut idx = vec![0usize; logs.len()];
    let mut out = Vec::with_capacity(total);
    let mut turn = 0usize;
    while out.len() < total {
        let mut lane = picks[turn % picks.len()] % logs.len();
        turn += 1;
        while idx[lane] >= logs[lane].entries.len() {
            lane = (lane + 1) % logs.len();
        }
        out.push(NodeRecord::new(logs[lane].node, logs[lane].entries[idx[lane]]));
        idx[lane] += 1;
    }
    out
}

/// The batch reference over the same logs.
fn batch_reports(logs: &[LocalLog]) -> Vec<PacketReport> {
    recon().reconstruct_log(&merge_logs(logs))
}

/// Encode `records`, feed the bytes through the frame decoder in the given
/// chunk sizes, stream with the given lateness, poll as we go, flush.
fn stream_chunked(
    records: &[NodeRecord],
    chunks: &[usize],
    lateness_records: u64,
    poll_every: usize,
) -> Vec<PacketReport> {
    let bytes = encode_records(records.iter());
    let lateness = Lateness {
        records: lateness_records,
        micros: 20_000,
    };
    let mut stream = StreamReconstructor::with_lateness(recon(), lateness);
    let mut decoder = FrameDecoder::new();
    let mut fed = 0usize;
    let mut chunk_turn = 0usize;
    let mut absorbed = 0usize;
    while fed < bytes.len() {
        let size = chunks[chunk_turn % chunks.len()].max(1);
        chunk_turn += 1;
        let end = (fed + size).min(bytes.len());
        decoder.push(&bytes[fed..end]);
        fed = end;
        while let Some(rec) = decoder.next_record() {
            stream.ingest(rec);
            absorbed += 1;
            if absorbed.is_multiple_of(poll_every.max(1)) {
                let _ = stream.poll();
            }
        }
    }
    let stats = decoder.finish();
    assert_eq!(stats.corrupt, 0, "clean stream must decode cleanly");
    stream.finish()
}

/// THE streaming contract: any per-node-order-preserving interleaving,
/// any wire chunking, any (aggressive) lateness and poll cadence —
/// after the final flush the reports are byte-identical to batch.
#[test]
fn streaming_equals_batch_under_permutation_and_chunking() {
    check(
        "streaming_equals_batch_under_permutation_and_chunking",
        32,
        &[],
        |rng| {
            let packets = rng.gen_range(1..40);
            let untimed = rng.gen_bool(0.5);
            let picks = vec_of(rng, 1..48, |rng| rng.gen_range(0..5usize));
            let chunks = vec_of(rng, 1..12, |rng| rng.gen_range(1..64usize));
            let (lateness_records, poll_every) = (rng.gen_range(1..4), rng.gen_range(1..8));
            let logs = day_logs(rng, packets, untimed);
            let records = interleave(&logs, &picks);
            let streamed = stream_chunked(&records, &chunks, lateness_records, poll_every);
            let batch = batch_reports(&logs);
            assert_eq!(&streamed, &batch);
            // "Byte-identical": the rendered reports match exactly too.
            assert_eq!(format!("{streamed:#?}"), format!("{batch:#?}"));
        },
    );
}

/// Two different interleavings of the same day agree with each other
/// (a direct read on arrival-order insensitivity).
#[test]
fn two_interleavings_agree() {
    check("two_interleavings_agree", 32, &[], |rng| {
        let packets = rng.gen_range(1..30);
        let untimed = rng.gen_bool(0.5);
        let picks_a = vec_of(rng, 1..32, |rng| rng.gen_range(0..5usize));
        let picks_b = vec_of(rng, 1..32, |rng| rng.gen_range(0..5usize));
        let logs = day_logs(rng, packets, untimed);
        let a = stream_chunked(&interleave(&logs, &picks_a), &[17], 1, 3);
        let b = stream_chunked(&interleave(&logs, &picks_b), &[5], 2, 5);
        assert_eq!(a, b);
    });
}

/// A deterministic worst case: every node's log arrives whole, one after
/// another, with aggressive lateness — so every early window closes on
/// the first nodes' evidence alone and is reopened by the later ones.
/// Convergence must still be exact, and reopens must be observed.
#[test]
fn sequential_lanes_force_reopens_and_still_converge() {
    for untimed in [false, true] {
        let logs = day_logs(&mut Rng::new(8), 24, untimed);
        let records: Vec<NodeRecord> = logs
            .iter()
            .flat_map(|l| l.entries.iter().map(|e| NodeRecord::new(l.node, *e)))
            .collect();
        let lateness = Lateness {
            records: 1,
            micros: 1,
        };
        let mut stream = StreamReconstructor::with_lateness(recon(), lateness);
        for rec in &records {
            stream.ingest(*rec);
            let _ = stream.poll();
        }
        let streamed = stream.finish();
        assert!(
            stream.stats().windows_reopened > 0,
            "whole-log-at-a-time arrival must reopen early windows"
        );
        assert_eq!(streamed, batch_reports(&logs), "untimed: {untimed}");
    }
}
