//! The online path gives the batch answer, on a schedule that is pinned:
//!
//! * under three arrival orders × timestamps on, off or lost half way ×
//!   three lateness rules × three poll cadences, `finish()` equals
//!   `reconstruct_log` over the merge of the records regrouped into per-node
//!   logs in node order;
//! * a 64-bit digest over *when* windows close — the packets of every
//!   `poll()` batch, `open_windows()` after it and the closing
//!   `StreamStats` of every run;
//! * the window ledger balances in every run: after `finish()`, windows
//!   closed − windows reopened = packets reported;
//! * every close emits the batch report over the records ingested so far;
//! * logs fed one by one with a `finish()` after each give the batch answer
//!   over the merge (the "logs trickle in over hours" use), and a `finish()`
//!   in mid-stream changes no converged report;
//! * no report, batch or streamed, depends on the order the per-node logs
//!   are listed or fed in, nor on what their clocks read: timestamps stripped,
//!   partly stripped, skewed per node or stepping back change when a window
//!   closes, never what its report says — on generated soups and on a small
//!   campaign.
//!
//! The kernel's own output is pinned field by field in
//! `crates/core/tests/kernel_identity.rs`.

use citysee::run::upload_order;
use citysee::{run_scenario, Scenario};
use eventlog::frame::{node_logs, NodeRecord};
use eventlog::logger::LocalLog;
use eventlog::watermark::Lateness;
use eventlog::{merge_logs, PacketId};
use netsim::NodeId;
use refill::trace::{CtpVocabulary, PacketReport, Reconstructor};
use refill_stream::StreamReconstructor;

mod soup;

use soup::{
    batch, latenesses, reconstructor, records, rewrite_clocks, shuffle, Arrival, SplitMix64, Stamps,
    ARRIVALS, CLOCKS, STAMPS,
};

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

/// Computed by this very function on the commit that made `ingest` absorb
/// each record at once.
const FROZEN_DIGEST: u64 = 0xa62e_bf69_ad31_8d5a;

#[test]
fn emissions_match_the_frozen_digest() {
    const PACKETS: u32 = 300;
    let mut digest = Digest(SplitMix64(0));
    // What the matrix exercises: a generator that stops reaching it is noticed.
    let (mut rolling, mut reopened, mut big_batches) = (0u64, 0u64, 0u64);
    let mut runs = 0usize;
    for (a, arrival) in ARRIVALS.into_iter().enumerate() {
        for (s, stamps) in STAMPS.into_iter().enumerate() {
            let which = 3 * a + s;
            let recs = records(which as u64, PACKETS, arrival, stamps);
            let expected = batch(&reconstructor(which), &recs);
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
                            digest.word(emitted.len() as u64);
                            emitted.iter().for_each(|r| digest.packet(r.packet));
                            digest.word(stream.open_windows() as u64);
                        }
                    }
                    let all = stream.finish();
                    let run = format!("{arrival:?}, {stamps:?}, {lateness:?}, every {poll_every}");
                    assert!(all == expected, "finish() is not the batch answer: {run}");
                    assert_eq!(stream.open_windows(), 0);
                    assert_eq!(stream.reports(), all);
                    let stats = stream.stats();
                    assert_eq!(stats.records, recs.len() as u64);
                    assert_eq!(
                        stats.windows_closed - stats.windows_reopened,
                        all.len() as u64,
                        "the window ledger does not balance: {run}"
                    );
                    for w in [stats.records, stats.windows_closed, stats.windows_reopened] {
                        digest.word(w);
                    }
                    reopened += stats.windows_reopened;
                }
            }
        }
    }
    assert_eq!(runs, 81);
    assert!(
        rolling > 10_000 && reopened > 5_000 && big_batches > 50,
        "rolling {rolling}, reopened {reopened}, big batches {big_batches}"
    );
    assert_eq!(
        digest.0 .0, FROZEN_DIGEST,
        "the stream path's close schedule changed: {:#018x}",
        digest.0 .0
    );
}

#[test]
fn every_close_is_the_batch_answer_so_far() {
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

/// The stream's records as per-node logs, listed in the order their nodes
/// first appear — not node order.
fn logs_of(recs: &[NodeRecord]) -> Vec<LocalLog> {
    let mut logs: Vec<LocalLog> = Vec::new();
    for r in recs {
        let at = match logs.iter().position(|log| log.node == r.node) {
            Some(at) => at,
            None => {
                logs.push(LocalLog::new(r.node));
                logs.len() - 1
            }
        };
        logs[at].entries.push(r.entry);
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
fn a_finish_in_mid_stream_changes_no_converged_report() {
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
        recs.iter().for_each(|r| once.ingest(*r));
        assert_eq!(twice_reports, once.finish(), "{arrival:?}");
        assert!(twice_reports == batch(&reconstructor(which), &recs), "{arrival:?}");
        assert_eq!(twice.packed_event_bytes(), once.packed_event_bytes());
    }
}

// --- what no report depends on --------------------------------------------

/// The reports of a stream fed `logs` one after the other.
fn fed_log_by_log(recon: Reconstructor, logs: &[LocalLog]) -> Vec<PacketReport> {
    let mut stream = StreamReconstructor::new(recon);
    for log in logs {
        for entry in &log.entries {
            stream.ingest(NodeRecord::new(log.node, *entry));
        }
    }
    stream.finish()
}

/// The reports of a stream fed `recs` in their order.
fn fed_as_they_arrive(recon: Reconstructor, recs: &[NodeRecord]) -> Vec<PacketReport> {
    let mut stream = StreamReconstructor::with_lateness(
        recon,
        Lateness {
            records: 3,
            micros: 20_000,
        },
    );
    for (i, rec) in recs.iter().enumerate() {
        stream.ingest(*rec);
        if i % 7 == 0 {
            stream.poll();
        }
    }
    stream.finish()
}

#[test]
fn no_report_depends_on_the_order_of_the_logs_or_on_their_clocks() {
    for (which, arrival) in ARRIVALS.into_iter().enumerate() {
        let recs = records(700 + which as u64, 200, arrival, Stamps::On);
        let reference = batch(&reconstructor(which), &recs);
        let mut rng = SplitMix64(which as u64);
        for clocks in CLOCKS {
            let mut recs = recs.clone();
            rewrite_clocks(&mut recs, clocks, &mut rng);
            let mut logs = node_logs(&recs);
            for _ in 0..3 {
                shuffle(&mut rng, &mut logs);
                let what = format!("{arrival:?}, {clocks:?}");
                let batch = reconstructor(which).reconstruct_log(&merge_logs(&logs));
                assert!(batch == reference, "batch over shuffled logs: {what}");
                let streamed = fed_log_by_log(reconstructor(which), &logs);
                assert!(streamed == reference, "stream fed log by log: {what}");
            }
            let streamed = fed_as_they_arrive(reconstructor(which), &recs);
            assert!(streamed == reference, "stream: {arrival:?}, {clocks:?}");
        }
    }
}

#[test]
fn a_campaigns_reports_do_not_depend_on_the_order_of_its_logs_or_on_their_clocks() {
    let campaign = run_scenario(&Scenario::small());
    let recon = || Reconstructor::new(CtpVocabulary::citysee()).with_sink(campaign.topology.sink());
    let reference = recon().reconstruct_log(&merge_logs(&campaign.collected));
    let mut rng = SplitMix64(0x2015);
    for clocks in CLOCKS {
        let mut recs = campaign.upload_records();
        rewrite_clocks(&mut recs, clocks, &mut rng);
        let mut logs = node_logs(&recs);
        shuffle(&mut rng, &mut logs);
        let batch = recon().reconstruct_log(&merge_logs(&logs));
        assert!(batch == reference, "batch over shuffled logs, {clocks:?}");
        // Uploaded as the rewritten clocks order the records.
        let streamed = fed_as_they_arrive(recon(), &upload_order(&logs));
        assert!(streamed == reference, "stream, {clocks:?}");
    }
}

// --- what the stream learns of the clocks ----------------------------------

/// The clock offsets a small campaign's upload stream teaches the stream:
/// for at least 95 % of the node pairs one hop apart that it links, the
/// learned offset lies within one hop's delay bound — the MAC's retry
/// backoff, which spans an attempt's `trans`, the `recv` and the `ack recvd`
/// — of the difference of the simulator's own clock offsets.
#[test]
fn learned_clock_offsets_match_the_simulated_clocks() {
    let scenario = Scenario::small();
    let bound = i64::try_from(scenario.build().3.retry_backoff.as_micros()).unwrap();
    let campaign = run_scenario(&scenario);
    let recon = Reconstructor::new(CtpVocabulary::citysee()).with_sink(campaign.topology.sink());
    let mut stream = StreamReconstructor::new(recon);
    let recs = campaign.upload_records();
    recs.iter().for_each(|r| stream.ingest(*r));
    stream.finish();

    let mut hops: Vec<(NodeId, NodeId)> = recs
        .iter()
        .filter_map(|r| r.entry.event.kind.peer().map(|peer| (r.node, peer)))
        .filter(|(node, peer)| node != peer)
        .map(|(a, b)| (a.min(b), a.max(b)))
        .collect();
    hops.sort_unstable();
    hops.dedup();
    let clock = |node| campaign.sim.clocks.clock(node).offset_us;
    let (mut linked, mut within) = (0usize, 0usize);
    for &(a, b) in &hops {
        let Some(learned) = stream.clock_offset(a, b) else {
            continue;
        };
        assert_eq!(stream.clock_offset(b, a), Some(-learned));
        linked += 1;
        within += usize::from((learned - (clock(b) - clock(a))).abs() <= bound);
    }
    assert!(
        linked * 10 >= hops.len() * 9,
        "{linked} of {} hop pairs linked",
        hops.len()
    );
    assert!(
        within * 100 >= linked * 95,
        "{within} of {linked} learned offsets within {bound} µs of the clocks'"
    );
}
