//! Cross-crate telemetry invariants: one recorder attached to both the
//! reconstructor and its signature cache must tell a story consistent with
//! the reports actually produced, sequentially and in parallel.

use eventlog::{merge_logs, Event, EventKind, LocalLog, MergedLog, PacketId};
use netsim::NodeId;
use refill::sigcache::SigCache;
use refill::telemetry::{AtomicRecorder, Recorder, TelemetrySnapshot};
use refill::trace::{CtpVocabulary, Reconstructor};
use std::sync::Arc;

fn n(i: u16) -> NodeId {
    NodeId(i)
}

/// A small multi-packet merged log: 20 packets over a 3-node chain with
/// assorted losses, so flow shapes repeat and the cache sees real hits.
fn sample_log() -> MergedLog {
    let mut n1 = Vec::new();
    let mut n2 = Vec::new();
    let mut n3 = Vec::new();
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
    merge_logs(&[
        LocalLog::from_events(n(1), n1),
        LocalLog::from_events(n(2), n2),
        LocalLog::from_events(n(3), n3),
    ])
}

fn instrumented() -> (Arc<AtomicRecorder>, Reconstructor, SigCache) {
    let recorder = Arc::new(AtomicRecorder::new());
    let recon = Reconstructor::new(CtpVocabulary::table2()).with_recorder(recorder.clone());
    let cache = SigCache::default().with_recorder(recorder.clone());
    (recorder, recon, cache)
}

#[test]
fn recorder_invariants_on_cached_log_run() {
    let merged = sample_log();
    let (recorder, recon, cache) = instrumented();
    let reports = recon.reconstruct_log_cached(&merged, &cache);
    let snap = recorder.snapshot();
    let packets = reports.len() as u64;

    // Every packet goes through exactly one cache lookup.
    assert_eq!(snap.counter("packets_uncacheable"), 0);
    assert_eq!(
        snap.counter("cache_hits") + snap.counter("cache_misses"),
        packets
    );
    assert_eq!(snap.counter("packets_reconstructed"), packets);

    // Event counters must agree with the reports themselves: the inferred
    // total is exactly the lost events the reports claim to have recovered.
    let observed: u64 = reports.iter().map(|r| r.flow.observed_count() as u64).sum();
    let inferred: u64 = reports.iter().map(|r| r.flow.inferred_count() as u64).sum();
    let omitted: u64 = reports.iter().map(|r| r.omitted.len() as u64).sum();
    assert_eq!(snap.counter("events_observed"), observed);
    assert_eq!(snap.counter("events_inferred"), inferred);
    assert_eq!(snap.counter("events_omitted"), omitted);
    assert!(inferred > 0, "the lossy sample log should force inference");

    // The CacheStats adapter reads the same recorder.
    let stats = cache.stats();
    assert_eq!(stats.hits, snap.counter("cache_hits"));
    assert_eq!(stats.misses, snap.counter("cache_misses"));

    // Stage spans: one signature computation and one cache lookup per
    // packet, at least one real transition run, one rehydrate per lookup.
    let signature = snap.stage("signature").expect("signature stage recorded");
    assert_eq!(signature.calls, packets);
    let cache_stage = snap.stage("cache").expect("cache stage recorded");
    assert!(cache_stage.calls >= packets);
    assert!(snap.stage("transition").is_some(), "misses run the engine");
    let rehydrate = snap.stage("rehydrate").expect("rehydrate stage recorded");
    assert_eq!(rehydrate.calls, packets);

    // Index instrumentation: one group per packet.
    assert_eq!(snap.counter("indexed_packets"), packets);
    let groups = snap.histogram("group_events").expect("group size histogram");
    assert_eq!(groups.count, packets);
}

#[test]
fn parallel_counter_totals_match_single_threaded() {
    let merged = sample_log();
    let run = |workers: usize| -> TelemetrySnapshot {
        let (recorder, recon, _) = instrumented();
        refill::parallel::reconstruct_parallel(&recon, &merged, workers);
        recorder.snapshot()
    };
    let seq = run(1);
    let par = run(4);

    // Per-report counters are deterministic regardless of scheduling.
    for name in [
        "packets_reconstructed",
        "events_observed",
        "events_inferred",
        "events_omitted",
        "indexed_packets",
        "fsm_steps",
        "fsm_jump_transitions",
        "fsm_forced_steps",
    ] {
        assert_eq!(seq.counter(name), par.counter(name), "{name}");
    }
    assert_eq!(seq.counter("packets_reconstructed"), 20);
}
