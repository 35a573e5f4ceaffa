//! Once a thread has reconstructed a packet, reconstructing another of the
//! same size allocates the report's own vectors and nothing else: the net,
//! its queues and every working buffer are reused. And when the caller hands
//! the previous report back, not those either.
//!
//! The counts are this thread's requests (`netsim::alloc`).

use eventlog::event::BASE_STATION;
use eventlog::{Event, EventKind, PacketId};
use netsim::alloc::requested_by;
use netsim::NodeId;
use refill::trace::{CtpVocabulary, Reconstructor};

#[global_allocator]
static GLOBAL: netsim::alloc::Counting = netsim::alloc::Counting;

/// 1 → 2 → 3 → sink 0 → base station, every statement logged, in the order
/// things happened.
fn three_hops_delivered(packet: PacketId) -> Vec<Event> {
    let n = NodeId;
    let ev = |node: NodeId, kind| Event::new(node, kind, packet);
    let mut events = vec![ev(n(1), EventKind::Origin)];
    for (from, to) in [(n(1), n(2)), (n(2), n(3)), (n(3), n(0))] {
        events.push(ev(from, EventKind::Trans { to }));
        events.push(ev(to, EventKind::Recv { from }));
        events.push(ev(from, EventKind::AckRecvd { to }));
    }
    events.push(ev(n(0), EventKind::SerialTrans));
    events.push(ev(BASE_STATION, EventKind::BsRecv));
    events
}

#[test]
fn a_warm_thread_allocates_only_the_report() {
    let recon = Reconstructor::new(CtpVocabulary::citysee()).with_sink(NodeId(0));
    let first = PacketId::new(NodeId(1), 0);
    let second = PacketId::new(NodeId(1), 1);
    let third = PacketId::new(NodeId(1), 2);
    let (warm_up, events) = (three_hops_delivered(first), three_hops_delivered(second));
    let expected = recon.reconstruct_packet(first, &warm_up);
    assert!(expected.delivered && expected.flow.inferred_count() == 0);

    let (report, spent) = requested_by(|| recon.reconstruct_packet(second, &events));

    assert_eq!(report.flow.to_string(), expected.flow.to_string());
    assert_eq!(report.flow.len(), events.len());
    // Five vectors hold this report (entries, edges, origins, engines,
    // path); before the kernel kept its buffers the same call made 108
    // requests.
    assert!(
        spent.calls <= 16,
        "{} allocations for a 12-event packet",
        spent.calls
    );

    // With its predecessor's report handed back, the next one is built in
    // those five vectors: not one request.
    let events = three_hops_delivered(third);
    recon.recycle(report);
    let (report, spent) = requested_by(|| recon.reconstruct_packet(third, &events));

    assert_eq!(report.packet, third);
    assert_eq!(report.flow.to_string(), expected.flow.to_string());
    assert!(report
        .flow
        .entries
        .iter()
        .all(|e| e.payload.packet == third));
    assert_eq!(
        spent.calls, 0,
        "a recycled report's vectors were not reused"
    );
}
