//! What a window close and a whole streamed campaign ask of the allocator,
//! counted.
//!
//! * A window that re-closes with a report no larger than its previous
//!   report's vectors requests no memory for it: the sweep's own three
//!   vectors and nothing else.
//! * `run_stream` over a fixed small campaign stays under a pinned number of
//!   requests.
//!
//! A test binary of its own with one test in it, because the counting
//! allocator is global: it must count the driver's ingest thread and the
//! sweep's workers, and must not count another test.

use citysee::run::{run_scenario, upload_order};
use citysee::Scenario;
use eventlog::frame::{encode_records, NodeRecord};
use eventlog::logger::LogEntry;
use eventlog::watermark::Lateness;
use eventlog::{Event, EventKind, PacketId};
use netsim::NodeId;
use refill::trace::{CtpVocabulary, Reconstructor};
use refill_stream::{run_stream, DriverConfig, StreamReconstructor};
use std::io::Cursor;

#[global_allocator]
static GLOBAL: netsim::alloc::Counting = netsim::alloc::Counting;

/// Requests made while `f` runs, on any thread.
fn requests_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = netsim::alloc::requests();
    let out = f();
    (out, netsim::alloc::requests() - before)
}

fn record(node: u16, kind: EventKind, packet: PacketId) -> NodeRecord {
    let event = Event::new(NodeId(node), kind, packet);
    NodeRecord::new(
        NodeId(node),
        LogEntry {
            event,
            local_ts: None,
        },
    )
}

/// What one sweep that closes something requests for itself: the closing
/// windows with their previous reports, the buffer their events are gathered
/// into for the kernel and the rebuilt reports, a vector each.
const SWEEP_OWN_REQUESTS: usize = 3;

/// One window closed six times over, a record larger each time: the first
/// close allocates its report, a re-close that outgrows the previous report's
/// vectors regrows them (at least doubling), and — the case under test — a
/// re-close whose report fits in them requests nothing for it.
fn a_reclosing_window_reuses_its_report() {
    let recon = Reconstructor::new(CtpVocabulary::table2());
    let lateness = Lateness {
        records: 1,
        micros: u64::MAX,
    };
    let mut stream = StreamReconstructor::with_lateness(recon, lateness);
    let n = NodeId;
    let chain = |packet| {
        [
            record(1, EventKind::Trans { to: n(2) }, packet),
            record(2, EventKind::Recv { from: n(1) }, packet),
            record(1, EventKind::AckRecvd { to: n(2) }, packet),
            record(2, EventKind::Trans { to: n(3) }, packet),
            record(3, EventKind::Recv { from: n(2) }, packet),
            record(2, EventKind::AckRecvd { to: n(3) }, packet),
        ]
    };

    // Warm the thread's kernel buffers on a packet as large as the one
    // below will get, so its closes measure reports, not first uses.
    for rec in chain(PacketId::new(n(1), 99)) {
        stream.ingest(rec);
    }
    stream.finish();

    // Feed `recs` of `p`, then move every node one record past them — with
    // records of one window per node that never closes, so `p`'s is the only
    // window the sweep closes — and sweep. Returns what the sweep requested,
    // and the length and capacity of `p`'s flow.
    let p = PacketId::new(n(1), 0);
    let close_after = |stream: &mut StreamReconstructor, recs: &[NodeRecord]| {
        for rec in recs {
            stream.ingest(*rec);
        }
        for node in [1u16, 2, 3] {
            stream.ingest(record(
                node,
                EventKind::Origin,
                PacketId::new(n(9), node.into()),
            ));
        }
        stream.pump();
        // Room is made here, so that noting a close requests nothing.
        let mut closed = Vec::with_capacity(4);
        let ((), requests) = requests_during(|| {
            stream.poll_with(|report| {
                closed.push((
                    report.packet,
                    report.flow.len(),
                    report.flow.entries.capacity(),
                ))
            })
        });
        assert_eq!(closed.len(), 1, "one window closes per sweep here");
        let (packet, len, capacity) = closed[0];
        assert_eq!(packet, p);
        (requests, len, capacity)
    };

    let records = chain(p);
    let (fresh, len, mut capacity) = close_after(&mut stream, &records[..3]);
    assert_eq!(len, 3);
    assert!(
        fresh > SWEEP_OWN_REQUESTS,
        "a first close allocates its report: {fresh} requests"
    );
    let mut regrown = 0;
    for (i, rec) in records.iter().enumerate().skip(3) {
        let (requests, len, now) = close_after(&mut stream, std::slice::from_ref(rec));
        assert_eq!(len, i + 1);
        regrown += usize::from(requests > SWEEP_OWN_REQUESTS);
        if i + 1 == records.len() {
            // The case under test: the reopening record's entry fits.
            assert_eq!(now, capacity, "the same vectors, not grown");
            assert_eq!(
                requests, SWEEP_OWN_REQUESTS,
                "a re-close that fits its previous report's vectors requests nothing for it"
            );
        }
        capacity = now;
    }
    assert!(
        regrown > 0,
        "an earlier re-close outgrew its vectors and was counted"
    );
    assert_eq!(
        stream.report(p).expect("reported").flow.to_string(),
        "1-2 trans, 1-2 recv, 1-2 ack recvd, 2-3 trans, 2-3 recv, 2-3 ack recvd"
    );
}

/// `run_stream` over `Scenario::small()`'s upload stream: 53 553 records,
/// 2 092 packets, 11 344 window closes in 39 sweeps with the default
/// configuration.
///
/// Requests per run on two workers: 165 600 on the commit before reports
/// were rebuilt in place (a fresh report and a clone of it per close, the
/// window unpacked into a scratch vector, every pump through a temporary);
/// 62 000 after — the converged set `finish()` clones, every window's event
/// vector as it grows, each report's first vectors and their regrowth, and
/// ≈ 7 000 for the sweeps' extra worker, which starts each sweep with cold
/// kernel buffers. That last part grows with the core count, so the budget
/// does too.
fn a_streamed_campaign_stays_in_budget() {
    let budget = 58_000 + 12_000 * (netsim::available_workers() - 1);
    let campaign = run_scenario(&Scenario::small());
    let bytes = encode_records(upload_order(&campaign.collected).iter());
    let sink = campaign.topology.sink();
    let (summary, requests) = requests_during(|| {
        let recon = Reconstructor::new(CtpVocabulary::citysee()).with_sink(sink);
        let mut stream = StreamReconstructor::new(recon);
        run_stream(
            Cursor::new(&bytes),
            &mut stream,
            DriverConfig::default(),
            |_| {},
        )
        .expect("an in-memory reader cannot fail")
    });
    println!(
        "run_stream: {requests} requests for {} records, {} packets, {} closes",
        summary.stats.records,
        summary.reports.len(),
        summary.stats.windows_closed
    );
    assert!(
        summary.stats.windows_reopened > 0,
        "the campaign re-closes windows"
    );
    assert!(
        requests <= budget,
        "{requests} allocator requests (budget {budget}) to stream {} records",
        summary.stats.records
    );
}

#[test]
fn stream_allocation_budgets() {
    a_reclosing_window_reuses_its_report();
    a_streamed_campaign_stays_in_budget();
}
