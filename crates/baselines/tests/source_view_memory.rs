//! What the source view holds for a base-station record with a large
//! seqno.
//!
//! The losses are the gaps between received seqnos; a view that stored one
//! loss per missing seqno needed about 80 MB for one record of seqno
//! 5 000 000, and a record of seqno 4 000 000 000 made every command that
//! reads such logs abort on a 4 GiB allocation.
//!
//! A test binary of its own with one test in it: the high-water mark is the
//! whole process's.

use baselines::SourceView;
use eventlog::event::BASE_STATION;
use eventlog::logger::{LocalLog, LocalTs, LogEntry};
use eventlog::{Event, EventKind, PacketId};
use netsim::{NodeId, SimDuration, SimTime};

#[global_allocator]
static GLOBAL: netsim::alloc::Counting = netsim::alloc::Counting;

/// Heap bytes building the view may hold above what was live before.
const BOUND: usize = 64 * 1024;

#[test]
fn a_large_seqno_costs_no_memory_per_missing_packet() {
    let seqno = 5_000_000;
    let packet = PacketId::new(NodeId(3), seqno);
    let log = LocalLog {
        node: BASE_STATION,
        entries: vec![LogEntry {
            event: Event::new(BASE_STATION, EventKind::BsRecv, packet),
            local_ts: LocalTs::new(1_000_000),
        }],
    };

    netsim::alloc::reset_peak();
    let start = netsim::alloc::live_bytes();
    let view = SourceView::from_bs_log(&log, SimDuration::from_secs(30));
    let high_water = netsim::alloc::peak_bytes() - start;
    println!("from_bs_log: high-water {high_water} B above start");
    assert!(
        high_water <= BOUND,
        "{high_water} B above start (bound {BOUND})"
    );

    // The losses are all still there, in order, back-dated (saturating at
    // time zero) from the one received packet.
    assert!(view.received(packet));
    let mut losses = view.losses();
    let first = losses.next().unwrap();
    assert_eq!(first.packet, PacketId::new(NodeId(3), 0));
    assert_eq!(first.est_time, SimTime::from_micros(0));
    assert_eq!(losses.count(), seqno as usize - 1);
}
