//! Streaming/batch equivalence: however a day's records are interleaved
//! across nodes, chunked on the wire, windowed, closed early, or reopened
//! by late arrivals, the reports after the final flush are byte-identical
//! to a batch reconstruction of the same logs.

use eventlog::frame::{encode_records, FrameDecoder, NodeRecord};
use eventlog::logger::{LocalLog, LogEntry};
use eventlog::merge::merge_logs;
use eventlog::watermark::Lateness;
use eventlog::{Event, EventKind, PacketId};
use netsim::prop::{check, vec_of};
use netsim::NodeId;
use refill::{CtpVocabulary, PacketReport, Reconstructor};
use refill_stream::{StreamConfig, StreamReconstructor};

fn n(i: u16) -> NodeId {
    NodeId(i)
}

fn recon() -> Reconstructor {
    Reconstructor::new(CtpVocabulary::table2())
}

/// A synthetic day: `packets` packets flowing 1 -> 2 -> 3, with per-packet
/// evidence dropped according to `drops` (bit 0: node 1's ack, bit 1: node
/// 2's whole visit, bit 2: node 3's recv). Node 2 logs no timestamps —
/// exercising the record-quota watermark path alongside the local-time one.
fn day_logs(packets: u32, drops: &[u8]) -> Vec<LocalLog> {
    let mut n1 = Vec::new();
    let mut n2 = Vec::new();
    let mut n3 = Vec::new();
    for seq in 0..packets {
        let p = PacketId::new(n(1), seq);
        let d = drops.get(seq as usize).copied().unwrap_or(0);
        let ts = u64::from(seq) * 10_000;
        n1.push(LogEntry {
            event: Event::new(n(1), EventKind::Trans { to: n(2) }, p),
            local_ts: Some(ts),
        });
        if d & 1 == 0 {
            n1.push(LogEntry {
                event: Event::new(n(1), EventKind::AckRecvd { to: n(2) }, p),
                local_ts: Some(ts + 5),
            });
        }
        if d & 2 == 0 {
            n2.push(LogEntry {
                event: Event::new(n(2), EventKind::Recv { from: n(1) }, p),
                local_ts: None,
            });
            n2.push(LogEntry {
                event: Event::new(n(2), EventKind::Trans { to: n(3) }, p),
                local_ts: None,
            });
        }
        if d & 4 == 0 {
            n3.push(LogEntry {
                event: Event::new(n(3), EventKind::Recv { from: n(2) }, p),
                // Node 3's clock is minutes off node 1's: cross-node skew
                // must not matter, windowing is per-node.
                local_ts: Some(ts + 300_000_000),
            });
        }
    }
    vec![
        LocalLog { node: n(1), entries: n1 },
        LocalLog { node: n(2), entries: n2 },
        LocalLog { node: n(3), entries: n3 },
    ]
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
/// chunk sizes, stream with the given settings, poll as we go, flush.
fn stream_chunked(
    records: &[NodeRecord],
    chunks: &[usize],
    lateness_records: u64,
    poll_every: usize,
) -> Vec<PacketReport> {
    let bytes = encode_records(records.iter());
    let config = StreamConfig {
        lane_capacity: 4,
        lateness: Lateness {
            records: lateness_records,
            micros: 20_000,
        },
    };
    let mut stream = StreamReconstructor::with_config(recon(), config);
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
            let packets = rng.gen_range(1..10);
            let drops = vec_of(rng, 0..10, |rng| rng.gen_range(0..8u8));
            let picks = vec_of(rng, 1..48, |rng| rng.gen_range(0..3usize));
            let chunks = vec_of(rng, 1..12, |rng| rng.gen_range(1..64usize));
            let (lateness_records, poll_every) = (rng.gen_range(1..4), rng.gen_range(1..8));
            let logs = day_logs(packets, &drops);
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
        let packets = rng.gen_range(1..8);
        let drops = vec_of(rng, 0..8, |rng| rng.gen_range(0..8u8));
        let picks_a = vec_of(rng, 1..32, |rng| rng.gen_range(0..3usize));
        let picks_b = vec_of(rng, 1..32, |rng| rng.gen_range(0..3usize));
        let logs = day_logs(packets, &drops);
        let a = stream_chunked(&interleave(&logs, &picks_a), &[17], 1, 3);
        let b = stream_chunked(&interleave(&logs, &picks_b), &[5], 2, 5);
        assert_eq!(a, b);
    });
}

/// A deterministic worst case: every node's log arrives whole, one after
/// another, with aggressive lateness — so every early window closes on
/// node 1's evidence alone and is reopened (possibly twice) by nodes 2
/// and 3. Convergence must still be exact, and reopens must be observed.
#[test]
fn sequential_lanes_force_reopens_and_still_converge() {
    let logs = day_logs(8, &[0; 8]);
    let records: Vec<NodeRecord> = logs
        .iter()
        .flat_map(|l| l.entries.iter().map(|e| NodeRecord::new(l.node, *e)))
        .collect();
    let config = StreamConfig {
        lane_capacity: 4,
        lateness: Lateness {
            records: 1,
            micros: 1,
        },
    };
    let mut stream = StreamReconstructor::with_config(recon(), config);
    for rec in &records {
        stream.ingest(*rec);
        stream.pump();
        let _ = stream.poll();
    }
    let streamed = stream.finish();
    assert!(
        stream.stats().windows_reopened > 0,
        "whole-log-at-a-time arrival must reopen early windows"
    );
    assert_eq!(streamed, batch_reports(&logs));
}
