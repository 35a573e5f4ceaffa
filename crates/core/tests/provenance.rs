//! Cross-driver provenance invariants: the origins a report carries — the
//! "ledger" an operator audits through `refill explain` — must tell the same
//! story as the telemetry counters and the flows themselves under every
//! driver: sequential, parallel, the fused columnar one and the memoised
//! path.

use eventlog::logger::{LocalTs, LogEntry};
use eventlog::{merge_logs, Event, EventKind, LocalLog, PacketId};
use netsim::prop::{check, vec_of};
use netsim::{NodeId, Rng};
use refill::parallel::{reconstruct_fused, reconstruct_parallel};
use refill::provenance::FlowProvenance;
use refill::sigcache::SigCache;
use refill::telemetry::{AtomicRecorder, Recorder};
use refill::trace::{CtpVocabulary, PacketReport, Reconstructor};
use std::sync::Arc;

fn n(i: u16) -> NodeId {
    NodeId(i)
}

/// The lossy 3-node chain from the telemetry tests (20 packets from origin
/// 1, assorted losses so flow shapes repeat and the cache sees real hits)
/// plus a second origin: 5 packets from node 5 through the same forwarder,
/// so the per-origin allowlist has something to discriminate.
fn sample_logs() -> Vec<LocalLog> {
    let mut n1 = Vec::new();
    let mut n2 = Vec::new();
    let mut n3 = Vec::new();
    let mut n5 = Vec::new();
    for s in 0..20u32 {
        let p = PacketId::new(n(1), s);
        n1.push(Event::new(n(1), EventKind::Trans { to: n(2) }, p));
        if s % 3 != 0 {
            n1.push(Event::new(n(1), EventKind::AckRecvd { to: n(2) }, p));
        }
        if s % 4 != 0 {
            n2.push(Event::new(n(2), EventKind::Recv { from: n(1) }, p));
            n2.push(Event::new(n(2), EventKind::Trans { to: n(3) }, p));
        }
        if s % 5 != 0 {
            n3.push(Event::new(n(3), EventKind::Recv { from: n(2) }, p));
        }
    }
    for s in 0..5u32 {
        let p = PacketId::new(n(5), s);
        n5.push(Event::new(n(5), EventKind::Trans { to: n(2) }, p));
        if s % 2 != 0 {
            n2.push(Event::new(n(2), EventKind::Recv { from: n(5) }, p));
        }
    }
    vec![
        LocalLog::from_events(n(1), n1),
        LocalLog::from_events(n(2), n2),
        LocalLog::from_events(n(3), n3),
        LocalLog::from_events(n(5), n5),
    ]
}

const DRIVERS: [&str; 4] = ["sequential", "parallel", "fused", "cached"];

/// Run one driver with a recorder attached (the cache on the same one).
fn run_driver(
    driver: &str,
    vocabulary: CtpVocabulary,
    logs: &[LocalLog],
) -> (Arc<AtomicRecorder>, Vec<PacketReport>) {
    let recorder = Arc::new(AtomicRecorder::new());
    let recon = Reconstructor::new(vocabulary).with_recorder(recorder.clone());
    let reports = match driver {
        "sequential" => recon.reconstruct_log(&merge_logs(logs)),
        "parallel" => reconstruct_parallel(&recon, &merge_logs(logs), 3),
        "fused" => reconstruct_fused(&recon, logs, 3),
        "cached" => {
            let cache = SigCache::default().with_recorder(recorder.clone());
            recon.reconstruct_log_cached(&merge_logs(logs), &cache)
        }
        other => unreachable!("unknown driver {other}"),
    };
    (recorder, reports)
}

/// Three accountings of one run must agree: the reports' provenance, the
/// telemetry counters, and the flows' own observed / inferred counts.
/// Returns the provenance, which must not depend on the driver.
fn assert_accountings_agree(
    driver: &str,
    vocabulary: CtpVocabulary,
    logs: &[LocalLog],
) -> Vec<FlowProvenance> {
    let (recorder, reports) = run_driver(driver, vocabulary, logs);
    let snap = recorder.snapshot();
    let ledger: Vec<FlowProvenance> = reports.iter().map(PacketReport::provenance).collect();

    let observed: u64 = reports.iter().map(|r| r.flow.observed_count() as u64).sum();
    let inferred: u64 = reports.iter().map(|r| r.flow.inferred_count() as u64).sum();
    let ledger_observed: u64 = ledger.iter().map(|f| f.observed_count() as u64).sum();
    let ledger_inferred: u64 = ledger.iter().map(|f| f.inferred_count() as u64).sum();
    assert_eq!(ledger_observed, observed, "{driver}");
    assert_eq!(ledger_inferred, inferred, "{driver}");
    assert_eq!(snap.counter("events_observed"), observed, "{driver}");
    assert_eq!(snap.counter("events_inferred"), inferred, "{driver}");

    for (r, f) in reports.iter().zip(&ledger) {
        // The origins column rides in lockstep with the flow.
        assert_eq!(r.origins.len(), r.flow.len(), "{driver} {}", r.packet);
        assert_eq!(f.packet, r.packet, "{driver}");
        assert_eq!(f.entries.len(), r.flow.len(), "{driver} {}", r.packet);
        assert_eq!(
            f.observed_count(),
            r.flow.observed_count(),
            "{driver} {}",
            r.packet
        );
        assert_eq!(
            f.inferred_count(),
            r.flow.inferred_count(),
            "{driver} {}",
            r.packet
        );
        assert_eq!(
            f.jump_count() + f.forced_count(),
            f.inferred_count(),
            "{driver} {}",
            r.packet
        );
        let c = f.confidence();
        assert!((0.0..=1.0).contains(&c), "{driver} {}: {c}", r.packet);
    }
    ledger
}

#[test]
fn ledger_agrees_with_telemetry_and_reports_on_every_driver() {
    let logs = sample_logs();
    for driver in DRIVERS {
        let ledger = assert_accountings_agree(driver, CtpVocabulary::table2(), &logs);
        assert_eq!(ledger.len(), 25, "{driver}");
        assert!(
            ledger.iter().any(|f| f.inferred_count() > 0),
            "{driver}: the lossy log should force inference"
        );
    }
}

#[test]
fn ledgers_are_identical_across_drivers() {
    let logs = sample_logs();
    let ledger = |driver: &str| -> Vec<FlowProvenance> {
        let (_, reports) = run_driver(driver, CtpVocabulary::table2(), &logs);
        reports.iter().map(PacketReport::provenance).collect()
    };
    let sequential = ledger("sequential");
    for driver in &DRIVERS[1..] {
        assert_eq!(sequential, ledger(driver), "{driver}");
    }
}

/// The confidence the parent's ledger entries had (PR 20, `68127a2`, where
/// a sampler captured them at the report-publishing sites) is the confidence
/// of the provenance a report now yields itself.
#[test]
fn flow_provenance_keeps_the_ledgers_confidence() {
    let (_, reports) = run_driver("sequential", CtpVocabulary::table2(), &sample_logs());
    let confidence = |origin: u16, seqno: u32| {
        let packet = PacketId::new(n(origin), seqno);
        let report = reports.iter().find(|r| r.packet == packet).unwrap();
        report.provenance().confidence()
    };
    // 3 observed + 2 forced; 2 observed + 2 forced; fully observed.
    assert_eq!(confidence(1, 4), 0.4285714285714286);
    assert_eq!(confidence(1, 12), 0.3333333333333333);
    assert_eq!(confidence(5, 1), 1.0);

    // Table II, Case 1 under CitySee's vocabulary (the fixture of
    // `refill explain`'s test): 2 observed, 1 jump, 2 forced.
    let p = PacketId::new(n(1), 0);
    let logs = [
        LocalLog::from_events(
            n(1),
            vec![Event::new(n(1), EventKind::Trans { to: n(2) }, p)],
        ),
        LocalLog::from_events(
            n(3),
            vec![Event::new(n(3), EventKind::Recv { from: n(2) }, p)],
        ),
    ];
    let (_, reports) = run_driver("sequential", CtpVocabulary::citysee(), &logs);
    assert_eq!(reports[0].provenance().confidence(), 0.26666666666666666);
}

// ---------------------------------------------------------------------------
// Property tests over random lossy soups.
// ---------------------------------------------------------------------------

/// Raw event soup: (recording node, kind discriminant, peer, packet seqno,
/// optional local timestamp).
fn arb_soup(rng: &mut Rng) -> Vec<(u16, u8, u16, u32, Option<u64>)> {
    vec_of(rng, 0..40, |rng| {
        (
            rng.gen_range(0..6),
            rng.gen_range(0..12),
            rng.gen_range(0..6),
            rng.gen_range(0..4),
            rng.gen_bool(0.5).then(|| rng.gen_range(0..1_000)),
        )
    })
}

fn decode(node: u16, kind: u8, peer: u16, packet: PacketId) -> Event {
    let peer = NodeId(peer);
    let kind = match kind {
        0 => EventKind::Recv { from: peer },
        1 => EventKind::Overflow { from: peer },
        2 => EventKind::Dup { from: peer },
        3 => EventKind::Trans { to: peer },
        4 => EventKind::AckRecvd { to: peer },
        5 => EventKind::Origin,
        6 => EventKind::Enqueue,
        7 => EventKind::Timeout { to: peer },
        8 => EventKind::SerialTrans,
        9 => EventKind::BsRecv,
        10 => EventKind::Deliver,
        _ => EventKind::Custom(3),
    };
    Event::new(NodeId(node), kind, packet)
}

fn soup_logs(raw: &[(u16, u8, u16, u32, Option<u64>)]) -> Vec<LocalLog> {
    let mut per_node: Vec<Vec<LogEntry>> = vec![Vec::new(); 6];
    for &(node, kind, peer, seq, ts) in raw {
        let packet = PacketId::new(NodeId((seq % 6) as u16), seq);
        per_node[node as usize].push(LogEntry {
            event: decode(node, kind, peer, packet),
            local_ts: ts.and_then(LocalTs::new),
        });
    }
    per_node
        .into_iter()
        .enumerate()
        .map(|(i, entries)| LocalLog {
            node: NodeId(i as u16),
            entries,
        })
        .collect()
}

/// Over arbitrary topologies and loss patterns, the three accountings
/// (provenance, telemetry, flows) agree under every driver, and the
/// provenance is identical across drivers.
#[test]
fn ledger_telemetry_and_reports_agree_on_soups() {
    check(
        "ledger_telemetry_and_reports_agree_on_soups",
        256,
        &[],
        |rng| {
            let logs = soup_logs(&arb_soup(rng));
            let ledgers =
                DRIVERS.map(|d| assert_accountings_agree(d, CtpVocabulary::citysee(), &logs));
            for (driver, ledger) in DRIVERS.iter().zip(&ledgers).skip(1) {
                assert_eq!(&ledgers[0], ledger, "sequential vs {driver}");
            }
        },
    );
}
