//! Cross-driver provenance invariants: the ledger a [`ProvenanceSink`]
//! captures must tell the same story as the telemetry counters and the
//! reports themselves, under every driver — the sequential memoised path,
//! the parallel driver and the fused columnar one — and the sampling gate
//! must admit exactly its share without perturbing reconstruction.

use eventlog::logger::LogEntry;
use eventlog::{merge_logs, Event, EventKind, LocalLog, PacketId};
use netsim::prop::{check, vec_of};
use netsim::{NodeId, Rng};
use refill::parallel::{reconstruct_fused, reconstruct_parallel};
use refill::provenance::{CacheDisposition, ProvenanceSink, TraceSampler};
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

/// A reconstructor with a shared recorder, a provenance sink with the given
/// sampler, and a cache on the same recorder.
fn instrumented(
    sampler: TraceSampler,
) -> (
    Arc<AtomicRecorder>,
    Arc<ProvenanceSink>,
    Reconstructor,
    SigCache,
) {
    let recorder = Arc::new(AtomicRecorder::new());
    let sink = Arc::new(ProvenanceSink::new(sampler));
    let recon = Reconstructor::new(CtpVocabulary::table2())
        .with_recorder(recorder.clone())
        .with_provenance(Arc::clone(&sink));
    let cache = SigCache::default().with_recorder(recorder.clone());
    (recorder, sink, recon, cache)
}

const DRIVERS: [&str; 3] = ["cached", "parallel", "fused"];

fn run_driver(
    driver: &str,
    logs: &[LocalLog],
    sampler: TraceSampler,
) -> (Arc<AtomicRecorder>, Arc<ProvenanceSink>, Vec<PacketReport>) {
    let (recorder, sink, recon, cache) = instrumented(sampler);
    let reports = match driver {
        "cached" => recon.reconstruct_log_cached(&merge_logs(logs), &cache),
        "parallel" => reconstruct_parallel(&recon, &merge_logs(logs), 3),
        "fused" => reconstruct_fused(&recon, logs, 3),
        other => unreachable!("unknown driver {other}"),
    };
    (recorder, sink, reports)
}

#[test]
fn ledger_agrees_with_telemetry_and_reports_on_every_driver() {
    let logs = sample_logs();
    for driver in DRIVERS {
        let (recorder, sink, reports) = run_driver(driver, &logs, TraceSampler::always());
        let snap = recorder.snapshot();
        let ledger = sink.ledger();

        // One ledger entry per report under an always-sampler.
        assert_eq!(ledger.len(), reports.len(), "{driver}");

        // Three independent accountings of the same run must agree: the
        // ledger's totals, the telemetry counters, and the reports' own
        // flow counts.
        let observed: u64 = reports.iter().map(|r| r.flow.observed_count() as u64).sum();
        let inferred: u64 = reports.iter().map(|r| r.flow.inferred_count() as u64).sum();
        assert_eq!(ledger.observed_total(), observed, "{driver}");
        assert_eq!(ledger.inferred_total(), inferred, "{driver}");
        assert_eq!(snap.counter("events_observed"), observed, "{driver}");
        assert_eq!(snap.counter("events_inferred"), inferred, "{driver}");
        assert!(inferred > 0, "{driver}: the lossy log should force inference");

        for r in &reports {
            // The origins column rides in lockstep with the flow.
            assert_eq!(r.origins.len(), r.flow.len(), "{driver} {}", r.packet);
            let f = ledger.get(r.packet).expect("captured");
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
            let c = f.confidence();
            assert!((0.0..=1.0).contains(&c), "{driver} {}: {c}", r.packet);
        }
    }
}

#[test]
fn ledgers_are_identical_across_drivers() {
    let logs = sample_logs();
    // Only the memoised driver rehydrates, so drivers are compared on what
    // they share: packets, events, origins.
    let shape = |driver: &str| {
        let (_, sink, _) = run_driver(driver, &logs, TraceSampler::always());
        sink.ledger()
            .flows()
            .into_iter()
            .map(|f| (f.packet, f.entries))
            .collect::<Vec<_>>()
    };
    let cached = shape("cached");
    assert_eq!(cached, shape("parallel"));
    assert_eq!(cached, shape("fused"));
}

#[test]
fn one_in_n_sampler_captures_the_exact_share_under_every_driver() {
    let logs = sample_logs();
    for driver in DRIVERS {
        let (_, sink, reports) = run_driver(driver, &logs, TraceSampler::one_in(4));
        // The tick counter is global: 25 asks hand out ticks 0..25, and
        // exactly ceil(25/4) of them are ≡ 0 (mod 4) — regardless of which
        // worker asked first.
        assert_eq!(reports.len(), 25, "{driver}");
        assert_eq!(sink.ledger().len(), 7, "{driver}");
    }
}

#[test]
fn origin_allowlist_captures_only_matching_packets() {
    let logs = sample_logs();
    for driver in DRIVERS {
        let (_, sink, reports) = run_driver(driver, &logs, TraceSampler::origins([n(5)]));
        assert_eq!(reports.len(), 25, "{driver}");
        let flows = sink.ledger().flows();
        assert_eq!(flows.len(), 5, "{driver}");
        assert!(
            flows.iter().all(|f| f.packet.origin == n(5)),
            "{driver}: allowlist leaked a foreign origin"
        );
    }
}

#[test]
fn sampling_does_not_perturb_reconstruction() {
    let logs = sample_logs();
    let merged = merge_logs(&logs);
    let plain = Reconstructor::new(CtpVocabulary::table2())
        .reconstruct_log_cached(&merged, &SigCache::default());
    for sampler in [
        TraceSampler::always(),
        TraceSampler::one_in(4),
        TraceSampler::origins([n(5)]),
    ] {
        let (_, _, reports) = run_driver("cached", &logs, sampler);
        assert_eq!(plain, reports, "capture must be observation-only");
    }
}

#[test]
fn disposition_tracks_the_cache_path() {
    let logs = sample_logs();
    let (_, sink, recon, cache) = instrumented(TraceSampler::always());
    let merged = merge_logs(&logs);

    // Cold pass: the first packet of every distinct flow shape misses the
    // cache and reconstructs directly.
    recon.reconstruct_log_cached(&merged, &cache);
    assert!(
        sink.ledger()
            .flows()
            .iter()
            .any(|f| f.disposition == CacheDisposition::Direct),
        "a cold pass must record direct reconstructions"
    );

    // Warm pass over the same log: every group is cacheable (the telemetry
    // tests pin packets_uncacheable == 0 for this log), so re-recording
    // overwrites every entry as rehydrated.
    recon.reconstruct_log_cached(&merged, &cache);
    assert!(
        sink.ledger()
            .flows()
            .iter()
            .all(|f| f.disposition == CacheDisposition::Rehydrated),
        "a warm pass must rehydrate every cacheable flow"
    );
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
            local_ts: ts,
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

fn soup_driver(
    driver: &str,
    logs: &[LocalLog],
) -> (Arc<AtomicRecorder>, Arc<ProvenanceSink>, Vec<PacketReport>) {
    let recorder = Arc::new(AtomicRecorder::new());
    let sink = Arc::new(ProvenanceSink::new(TraceSampler::always()));
    let recon = Reconstructor::new(CtpVocabulary::citysee())
        .with_recorder(recorder.clone())
        .with_provenance(Arc::clone(&sink));
    let cache = SigCache::default();
    let reports = match driver {
        "cached" => recon.reconstruct_log_cached(&merge_logs(logs), &cache),
        "parallel" => reconstruct_parallel(&recon, &merge_logs(logs), 3),
        "fused" => reconstruct_fused(&recon, logs, 3),
        other => unreachable!("unknown driver {other}"),
    };
    (recorder, sink, reports)
}

/// Over arbitrary topologies and loss patterns, the three accountings
/// (ledger, telemetry, reports) agree under every driver, and the
/// ledgers' deterministic parts are identical across drivers.
#[test]
fn ledger_telemetry_and_reports_agree_on_soups() {
    check(
        "ledger_telemetry_and_reports_agree_on_soups",
        256,
        &[],
        |rng| {
            let logs = soup_logs(&arb_soup(rng));
            let mut shapes = Vec::new();
            for driver in DRIVERS {
                let (recorder, sink, reports) = soup_driver(driver, &logs);
                let snap = recorder.snapshot();
                let ledger = sink.ledger();
                assert_eq!(ledger.len(), reports.len(), "{}", driver);

                let observed: u64 = reports.iter().map(|r| r.flow.observed_count() as u64).sum();
                let inferred: u64 = reports.iter().map(|r| r.flow.inferred_count() as u64).sum();
                assert_eq!(ledger.observed_total(), observed, "{}", driver);
                assert_eq!(ledger.inferred_total(), inferred, "{}", driver);
                assert_eq!(snap.counter("events_observed"), observed, "{}", driver);
                assert_eq!(snap.counter("events_inferred"), inferred, "{}", driver);
                for r in &reports {
                    assert_eq!(r.origins.len(), r.flow.len(), "{} {}", driver, r.packet);
                }
                shapes.push(
                    ledger
                        .flows()
                        .into_iter()
                        .map(|f| (f.packet, f.entries))
                        .collect::<Vec<_>>(),
                );
            }
            assert_eq!(&shapes[0], &shapes[1], "cached vs parallel");
            assert_eq!(&shapes[0], &shapes[2], "cached vs fused");
        },
    );
}
