//! The analysis pipeline: REFILL + baselines over a campaign.
//!
//! This is the "PC side" of the paper's implementation: it sees only the
//! collected (lossy, unsynchronized) logs and the base station's data, and
//! produces per-packet diagnoses. Ground truth is touched exclusively for
//! *scoring* — quantifying how well the reconstruction did, which the real
//! deployment could never know.
//!
//! [`Analyzer`] is that PC side and nothing else: the base station's log
//! as a [`SourceView`], a [`Reconstructor`] and a [`Diagnoser`], and the one
//! way from a packet's events to its diagnosed report — [`Analyzer::pass`]
//! over many packets in parallel, [`Analyzer::packet`] for one. Every
//! operator path (`refill analyze`, `trace`, `explain`, `profile`, `store`)
//! and the figure binaries run it; none has a loop of its own.
//!
//! [`analyze`] is three steps around it. *Group*: the collected logs by
//! packet where they lie, plus the two baselines that read whole logs (Wit's
//! merge, time correlation), on one thread, the ground truth's row numbers
//! grouped by packet on another — neither copies what it groups, and
//! nothing merges the logs. *Pass*:
//! the analyzer's, with a visitor that scores and asks the naive baseline —
//! everything that needs the packet's events happens while they are in hand.
//! *Fold*: sums.

use crate::run::Campaign;
use baselines::naive::naive_claim;
use baselines::source_view::SourceView;
use baselines::time_correlation::{correlate_causes, CorrelationConfig};
use baselines::wit::{wit_merge, WitMerge};
use eventlog::event::BASE_STATION;
use eventlog::logger::{LocalLog, LocalTs};
use eventlog::{Event, GroundTruth, LossCause, PacketFate, PacketId, PacketIndex};
use netsim::fx::FxHashMap;
use netsim::{available_workers, NodeId, SimDuration, SimTime};
use refill::diagnose::{Diagnoser, Diagnosis};
use refill::parallel::par_map;
use refill::score::{score_cause, score_events, score_path, CauseScore, FlowScore, PathScore};
use refill::telemetry::{Counter, Hist, Stage, StageTimer};
use refill::trace::{CtpVocabulary, PacketReport, ReconOptions, Reconstructor};

/// Everything known (and inferred) about one packet after analysis.
#[derive(Debug, Clone)]
pub struct PacketRecord {
    /// The packet.
    pub packet: PacketId,
    /// Source-view time estimate (back-dated from sequence gaps).
    pub est_time: Option<SimTime>,
    /// REFILL's diagnosis.
    pub diagnosis: Diagnosis,
    /// Ground truth (for scoring and figure annotation only).
    pub fate: PacketFate,
}

/// Accuracy of the naive single-node baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveSummary {
    /// Packets the naive analysis declared lost.
    pub claimed_losses: usize,
    /// Of the truly lost packets it flagged, how many were blamed on the
    /// correct node.
    pub position_correct: usize,
    /// Truly lost packets.
    pub true_losses: usize,
}

/// Accuracy of the time-correlation baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct CorrelationSummary {
    /// Losses it attributed to some cause.
    pub attributed: usize,
    /// Attributions matching the true cause.
    pub cause_correct: usize,
    /// Losses examined.
    pub total: usize,
}

/// Per-packet transport statistics the event flows reveal (Section II:
/// "the packet related information, e.g. per-packet delay, packet
/// retransmission, packet loss, can also be revealed").
#[derive(Debug, Clone, Copy, Default)]
pub struct TransportStats {
    /// Delivered packets with a delay estimate.
    pub delay_count: usize,
    /// Mean estimated end-to-end delay (seconds). The estimate is
    /// analysis-side only: per origin, the send phase is fitted as
    /// `min(arrival − seqno × period)` over received packets, so queuing
    /// and retransmission delay show up as positive offsets.
    pub mean_delay_s: f64,
    /// 95th-percentile estimated delay (seconds).
    pub p95_delay_s: f64,
    /// Mean observed retransmissions per packet.
    pub mean_retransmissions: f64,
    /// Mean reconstructed path length (nodes).
    pub mean_path_len: f64,
    /// Packets whose reconstructed path revisits a node.
    pub loops_detected: usize,
}

/// The full analysis result.
pub struct Analysis {
    /// Per-packet records, sorted by packet id.
    pub records: Vec<PacketRecord>,
    /// Aggregate inference quality (REFILL flows vs truth).
    pub flow_score: FlowScore,
    /// Aggregate diagnosis quality (REFILL causes vs truth).
    pub cause_score: CauseScore,
    /// Aggregate path-recovery quality (reconstructed vs true paths).
    pub path_score: PathScore,
    /// Wit-style merge outcome on the collected logs.
    pub wit: WitMerge,
    /// Naive baseline accuracy.
    pub naive: NaiveSummary,
    /// Time-correlation baseline accuracy.
    pub correlation: CorrelationSummary,
    /// Delay / retransmission / path statistics.
    pub transport: TransportStats,
}

/// What the pass learns about one packet.
struct PacketOutcome {
    record: PacketRecord,
    flow: FlowScore,
    cause: CauseScore,
    path: PathScore,
    looped: bool,
    /// The node the naive baseline blames, if it declares a loss.
    naive_claim: Option<NodeId>,
}

/// The base station's log among `logs`, if they hold one.
fn bs_log(logs: &[LocalLog]) -> Option<&LocalLog> {
    logs.iter().find(|l| l.node == BASE_STATION)
}

/// The paper's PC side (§V): collected logs in, diagnosed event flows out.
pub struct Analyzer {
    recon: Reconstructor,
    diagnoser: Diagnoser,
    source_view: SourceView,
}

/// One packet, as [`Analyzer::pass`] lends it to its visitor.
pub struct Visit<'a> {
    /// The packet's events, log by log, each log's in recording order (none
    /// if no log mentions it).
    pub events: &'a [Event],
    /// The reconstruction; its buffers go back to the reconstructor when the
    /// visitor returns.
    pub report: &'a PacketReport,
    /// Source-view time estimate (back-dated from sequence gaps).
    pub est_time: Option<SimTime>,
    /// REFILL's diagnosis.
    pub diagnosis: Diagnosis,
}

impl Analyzer {
    /// An analyzer around `recon` (which brings the vocabulary, the ablation
    /// options and the telemetry recorder). The source view is built from
    /// the base station's log among `logs`, `period` being the application's
    /// sending period.
    pub fn new(recon: Reconstructor, logs: &[LocalLog], period: SimDuration) -> Self {
        let no_bs_log = LocalLog::new(BASE_STATION);
        Analyzer {
            recon,
            diagnoser: Diagnoser::new(),
            source_view: SourceView::from_bs_log(bs_log(logs).unwrap_or(&no_bs_log), period),
        }
    }

    /// Pin the sink node for reconstruction and diagnosis alike.
    pub fn with_sink(mut self, sink: NodeId) -> Self {
        self.recon = self.recon.with_sink(sink);
        self.diagnoser = self.diagnoser.with_sink(sink);
        self
    }

    /// Apply ablation options to the reconstructor (see [`ReconOptions`]).
    pub fn with_options(mut self, options: ReconOptions) -> Self {
        self.recon = self.recon.with_options(options);
        self
    }

    /// Provide the server-outage windows. The outage schedule is operational
    /// knowledge (the server records its own downtime), so the diagnoser may
    /// use it.
    pub fn with_outages(mut self, outages: Vec<(SimTime, SimTime)>) -> Self {
        self.diagnoser = self.diagnoser.with_outages(outages);
        self
    }

    /// The analyzer a campaign's operator would run: the deployment's
    /// logging vocabulary, its sink and its outage schedule.
    pub fn for_campaign(campaign: &Campaign) -> Self {
        let scenario = &campaign.scenario;
        let (_, _, faults, config) = scenario.build();
        let vocabulary = CtpVocabulary {
            log_origin: config.log_origin,
            log_enqueue: config.log_enqueue,
        };
        Analyzer::new(
            Reconstructor::new(vocabulary),
            &campaign.collected,
            scenario.packet_interval(),
        )
        .with_sink(campaign.topology.sink())
        .with_outages(faults.outages)
    }

    /// The diagnoser (for `refill::explain`, which diagnoses on its own).
    pub fn diagnoser(&self) -> &Diagnoser {
        &self.diagnoser
    }

    /// Group the events of `logs` by packet where they lie
    /// ([`PacketIndex::group_logs`]), timed as the `index` stage of the
    /// reconstructor's recorder. An enabled recorder also learns what went
    /// in and what came out: every log's length and every packet's group.
    pub fn index<'a>(&self, logs: &'a [LocalLog]) -> PacketIndex<&'a Event> {
        let recorder = &**self.recon.recorder();
        let index = {
            let _span = StageTimer::start(recorder, Stage::Index);
            PacketIndex::group_logs(logs)
        };
        if recorder.enabled() {
            for log in logs {
                recorder.observe(Hist::NodeLogEvents, log.len() as u64);
            }
            recorder.add(Counter::IndexedPackets, index.len() as u64);
            for (_, rows) in index.iter() {
                recorder.observe(Hist::GroupEvents, rows.len() as u64);
            }
        }
        index
    }

    fn diagnose(&self, report: &PacketReport) -> (Option<SimTime>, Diagnosis) {
        let est_time = self.source_view.estimate_time(report.packet);
        let _span = StageTimer::start(&**self.recon.recorder(), Stage::Diagnose);
        (est_time, self.diagnoser.diagnose(report, est_time))
    }

    /// The per-packet pass: reconstruct and diagnose every packet of `ids`
    /// on `workers` threads, lend each to `visit`, and return what it made
    /// of them in `ids` order. `index` is [`Analyzer::index`]'s grouping;
    /// each worker gathers a packet's events from their logs into one
    /// buffer it keeps. A packet `index` does not know gets a flow
    /// reconstructed from no events.
    pub fn pass<T: Send>(
        &self,
        index: &PacketIndex<&Event>,
        ids: &[PacketId],
        workers: usize,
        visit: impl Fn(Visit<'_>) -> T + Sync,
    ) -> Vec<T> {
        par_map(ids.len(), workers, Vec::new, |gathered, i| {
            let packet = ids[i];
            gathered.clear();
            gathered.extend(index.get(packet).unwrap_or(&[]).iter().map(|&&e| e));
            let report = self.recon.reconstruct_packet(packet, gathered);
            let (est_time, diagnosis) = self.diagnose(&report);
            let out = visit(Visit {
                events: gathered,
                report: &report,
                est_time,
                diagnosis,
            });
            // Visited: the next packet on this thread reuses the report's
            // vectors.
            self.recon.recycle(report);
            out
        })
    }

    /// The point lookup: one packet's report and diagnosis out of `logs`,
    /// or `None` if no log mentions it. One walk over each log, timed as the
    /// `index` stage, keeps the packet's events — [`Analyzer::index`]'s group
    /// for it, with no other packet grouped. An enabled recorder learns what
    /// [`Analyzer::index`] tells it: every log's length, and the one group.
    pub fn packet(&self, logs: &[LocalLog], packet: PacketId) -> Option<(PacketReport, Diagnosis)> {
        let recorder = &**self.recon.recorder();
        let events: Vec<Event> = {
            let _span = StageTimer::start(recorder, Stage::Index);
            let logged = logs.iter().flat_map(LocalLog::events);
            logged.filter(|e| e.packet == packet).copied().collect()
        };
        if recorder.enabled() {
            for log in logs {
                recorder.observe(Hist::NodeLogEvents, log.len() as u64);
            }
            recorder.add(Counter::IndexedPackets, u64::from(!events.is_empty()));
            if !events.is_empty() {
                recorder.observe(Hist::GroupEvents, events.len() as u64);
            }
        }
        if events.is_empty() {
            return None;
        }
        let report = self.recon.reconstruct_packet(packet, &events);
        let (_, diagnosis) = self.diagnose(&report);
        Some((report, diagnosis))
    }
}

/// Every packet of a campaign, sorted: those `index` found in the logs, and
/// those only the ground truth knows — never mentioned in any log, they
/// still deserve records (fate says they existed) and get an `Unknown`
/// diagnosis through an empty flow.
pub fn campaign_packets(index: &PacketIndex<&Event>, truth: &GroundTruth) -> Vec<PacketId> {
    let mut ids: Vec<PacketId> = index.ids().to_vec();
    for id in truth.fates.keys() {
        if index.get(*id).is_none() {
            ids.push(*id);
        }
    }
    ids.sort_unstable();
    ids
}

/// A packet's true fate, for scoring and for the record's sidecar. A packet
/// the logs mention and the truth does not cannot be scored as a loss.
pub fn truth_fate(truth: &GroundTruth, packet: PacketId) -> PacketFate {
    truth
        .fates
        .get(&packet)
        .copied()
        .unwrap_or(PacketFate::Delivered { at: SimTime::ZERO })
}

/// One visited packet's flow and diagnosis scored against the truth, as
/// [`analyze`] scores them; `truth_rows` groups the truth's events by
/// packet.
pub fn score_visit(
    truth: &GroundTruth,
    truth_rows: &PacketIndex<u32>,
    v: &Visit<'_>,
) -> (FlowScore, CauseScore) {
    let id = v.report.packet;
    let true_events = truth_rows.rows_of(id, &truth.events).map(|te| &te.event);
    let flow = score_events(v.report, true_events);
    (flow, score_cause(&v.diagnosis, &truth_fate(truth, id)))
}

/// Run REFILL and all baselines over a campaign.
pub fn analyze(campaign: &Campaign) -> Analysis {
    let truth = &campaign.sim.truth;
    let analyzer = Analyzer::for_campaign(campaign);
    let source_view = &analyzer.source_view;

    // Group. What reads the logs — the packet index and the two baselines
    // that are not per-packet — and what reads the ground truth (its rows
    // per packet, for flow scoring) are independent, so they take a thread
    // each. Neither copies what it groups: the campaign already holds it.
    let (index, wit, correlation, truth_rows) = std::thread::scope(|s| {
        let truth_rows = s.spawn(|| truth.packet_rows());
        let index = analyzer.index(&campaign.collected);
        let wit = wit_merge(&campaign.collected);
        let correlation = summarize_correlation(campaign, source_view);
        let truth_rows = truth_rows
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        (index, wit, correlation, truth_rows)
    });

    // Pass: the analyzer's, plus scoring and the naive baseline.
    let ids = campaign_packets(&index, truth);
    let outcomes = analyzer.pass(&index, &ids, available_workers(), |v| {
        let id = v.report.packet;
        let (flow, cause) = score_visit(truth, &truth_rows, &v);
        PacketOutcome {
            flow,
            cause,
            path: score_path(v.report, truth.paths.get(&id).map_or(&[], Vec::as_slice)),
            looped: v.report.has_routing_loop(),
            naive_claim: naive_claim(v.events),
            record: PacketRecord {
                packet: id,
                est_time: v.est_time,
                diagnosis: v.diagnosis,
                fate: truth_fate(truth, id),
            },
        }
    });

    // Fold.
    let mut records = Vec::with_capacity(outcomes.len());
    let mut flow_score = FlowScore::default();
    let mut cause_score = CauseScore::default();
    let mut path_score = PathScore::default();
    let mut loops_detected = 0usize;
    let mut naive = NaiveSummary {
        true_losses: truth.lost_count(),
        ..NaiveSummary::default()
    };
    for outcome in outcomes {
        flow_score.merge(&outcome.flow);
        cause_score.merge(&outcome.cause);
        path_score.merge(&outcome.path);
        loops_detected += usize::from(outcome.looped);
        if let Some(blamed) = outcome.naive_claim {
            naive.claimed_losses += 1;
            naive.position_correct += usize::from(outcome.record.fate.loss_node() == Some(blamed));
        }
        records.push(outcome.record);
    }
    let transport = transport_stats(
        &records,
        bs_log(&campaign.collected),
        &campaign.scenario,
        loops_detected,
    );

    Analysis {
        records,
        flow_score,
        cause_score,
        path_score,
        wit,
        naive,
        correlation,
        transport,
    }
}

/// Estimate per-packet delays from the base station's log alone and fold in
/// the flow-derived retransmission/path statistics.
fn transport_stats(
    records: &[PacketRecord],
    bs_log: Option<&LocalLog>,
    scenario: &crate::scenario::Scenario,
    loops_detected: usize,
) -> TransportStats {
    use eventlog::EventKind;
    let period = scenario.packet_interval().as_micros();

    // Arrival times per origin (seqno-sorted), then a per-origin send-phase
    // fit: phase = min(arrival − seqno × period).
    let mut arrivals: FxHashMap<NodeId, Vec<(u32, u64)>> = FxHashMap::default();
    for entry in bs_log.iter().flat_map(|l| &l.entries) {
        if matches!(entry.event.kind, EventKind::BsRecv) {
            if let Some(ts) = entry.local_ts.map(LocalTs::get) {
                arrivals
                    .entry(entry.event.packet.origin)
                    .or_default()
                    .push((entry.event.packet.seqno, ts));
            }
        }
    }
    let mut delays_us: Vec<u64> = Vec::new();
    for per_origin in arrivals.values() {
        let phase = per_origin
            .iter()
            .map(|&(s, ts)| ts.saturating_sub(u64::from(s) * period))
            .min()
            .unwrap_or(0);
        for &(s, ts) in per_origin {
            let est_send = phase + u64::from(s) * period;
            delays_us.push(ts.saturating_sub(est_send));
        }
    }
    delays_us.sort_unstable();
    let delay_count = delays_us.len();
    let mean_delay_s = if delay_count == 0 {
        0.0
    } else {
        delays_us.iter().sum::<u64>() as f64 / delay_count as f64 / 1e6
    };
    let p95_delay_s = delays_us
        .get((delay_count.saturating_sub(1)) * 95 / 100)
        .map(|&d| d as f64 / 1e6)
        .unwrap_or(0.0);

    let n = records.len().max(1) as f64;
    let mean_retransmissions =
        records.iter().map(|r| r.diagnosis.retransmissions).sum::<usize>() as f64 / n;
    let mean_path_len = records.iter().map(|r| r.diagnosis.path_len).sum::<usize>() as f64 / n;

    TransportStats {
        delay_count,
        mean_delay_s,
        p95_delay_s,
        mean_retransmissions,
        mean_path_len,
        loops_detected,
    }
}

fn summarize_correlation(campaign: &Campaign, source_view: &SourceView) -> CorrelationSummary {
    let losses: Vec<(PacketId, SimTime)> = source_view
        .losses()
        .map(|l| (l.packet, l.est_time))
        .collect();
    let verdicts = correlate_causes(
        &losses,
        &campaign.collected,
        &CorrelationConfig::default(),
    );
    let mut s = CorrelationSummary {
        total: verdicts.len(),
        ..CorrelationSummary::default()
    };
    for v in &verdicts {
        let Some(cause) = v.cause else { continue };
        s.attributed += 1;
        if let Some(PacketFate::Lost { cause: truth, .. }) =
            campaign.sim.truth.fates.get(&v.packet)
        {
            if cause == *truth {
                s.cause_correct += 1;
            }
        }
    }
    s
}

impl Analysis {
    /// Records of truly lost packets.
    pub fn lost_records(&self) -> impl Iterator<Item = &PacketRecord> {
        self.records.iter().filter(|r| !r.fate.delivered())
    }

    /// Count of losses REFILL attributed to each cause, from the analysis
    /// side (diagnosed, not truth).
    pub fn diagnosed_cause_counts(&self) -> FxHashMap<refill::DiagnosedCause, usize> {
        let mut out = FxHashMap::default();
        for r in &self.records {
            if r.diagnosis.delivered {
                continue;
            }
            if let Some(c) = r.diagnosis.cause {
                *out.entry(c).or_insert(0) += 1;
            }
        }
        out
    }

    /// Truth cause counts, for side-by-side reporting.
    pub fn truth_cause_counts(&self) -> FxHashMap<LossCause, usize> {
        let mut out = FxHashMap::default();
        for r in &self.records {
            if let Some(c) = r.fate.cause() {
                *out.entry(c).or_insert(0) += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run_scenario;
    use crate::scenario::Scenario;

    fn analyzed() -> (Campaign, Analysis) {
        let c = run_scenario(&Scenario::small());
        let a = analyze(&c);
        (c, a)
    }

    #[test]
    fn analysis_covers_every_packet() {
        let (c, a) = analyzed();
        assert_eq!(a.records.len(), c.sim.truth.packet_count());
        assert!(a.records.windows(2).all(|w| w[0].packet < w[1].packet));
    }

    #[test]
    fn refill_inference_is_precise() {
        let (_, a) = analyzed();
        // Inferred events should overwhelmingly correspond to events that
        // truly happened (the augmentation is semantics-driven).
        assert!(
            a.flow_score.precision() > 0.8,
            "precision {} too low ({} matched / {} inferred)",
            a.flow_score.precision(),
            a.flow_score.matched,
            a.flow_score.inferred
        );
        assert!(a.flow_score.inferred > 0, "some events should be inferred");
    }

    #[test]
    fn refill_delivery_verdicts_are_accurate() {
        let (_, a) = analyzed();
        assert!(
            a.cause_score.delivery_accuracy() > 0.97,
            "delivery accuracy {}",
            a.cause_score.delivery_accuracy()
        );
    }

    #[test]
    fn refill_beats_naive_on_loss_positions() {
        let (_, a) = analyzed();
        let naive_acc = if a.naive.true_losses == 0 {
            1.0
        } else {
            a.naive.position_correct as f64 / a.naive.true_losses as f64
        };
        assert!(
            a.cause_score.position_accuracy() > naive_acc,
            "REFILL position accuracy {} should beat naive {}",
            a.cause_score.position_accuracy(),
            naive_acc
        );
    }

    #[test]
    fn refill_beats_time_correlation_on_causes() {
        let (_, a) = analyzed();
        let corr_acc = if a.correlation.total == 0 {
            1.0
        } else {
            a.correlation.cause_correct as f64 / a.correlation.total as f64
        };
        assert!(
            a.cause_score.cause_accuracy() > corr_acc,
            "REFILL cause accuracy {} should beat correlation {}",
            a.cause_score.cause_accuracy(),
            corr_acc
        );
    }

    #[test]
    fn transport_stats_are_plausible() {
        let (c, a) = analyzed();
        let t = &a.transport;
        assert_eq!(
            t.delay_count as u64,
            c.sim.counters.get("delivered"),
            "every delivered packet gets a delay estimate"
        );
        assert!(t.mean_delay_s >= 0.0);
        assert!(t.p95_delay_s >= t.mean_delay_s * 0.5);
        assert!(t.mean_path_len > 1.5, "multi-hop network: {}", t.mean_path_len);
        assert!(t.mean_retransmissions >= 0.0);
    }

    #[test]
    fn paths_are_recovered_well() {
        let (_, a) = analyzed();
        assert!(
            a.path_score.prefix_coverage() > 0.8,
            "path prefix coverage {}",
            a.path_score.prefix_coverage()
        );
        assert!(
            a.path_score.exact_rate() > 0.5,
            "exact path rate {}",
            a.path_score.exact_rate()
        );
    }

    /// `Scenario::small()` under lossy collection with no timestamps.
    fn lossy_small() -> Scenario {
        let mut lossy = Scenario::small();
        lossy.collection.chunk_loss_prob = 0.30;
        lossy.logger.timestamps = false;
        lossy
    }

    /// The pass gathers each packet's events from where they lie in the
    /// logs: exactly the packet's entries, log by log, with timestamps and
    /// without, on several workers that reuse their buffers, and none for a
    /// packet no log mentions.
    #[test]
    fn the_pass_lends_each_packet_its_packet_index_group() {
        for scenario in [Scenario::small(), lossy_small()] {
            let c = run_scenario(&scenario);
            let mut expected: FxHashMap<PacketId, Vec<Event>> = FxHashMap::default();
            for e in c.collected.iter().flat_map(LocalLog::events) {
                expected.entry(e.packet).or_default().push(*e);
            }
            let analyzer = Analyzer::for_campaign(&c);
            let index = analyzer.index(&c.collected);
            let mut ids = campaign_packets(&index, &c.sim.truth);
            ids.push(PacketId::new(NodeId(9_999), 0));
            let lent = analyzer.pass(&index, &ids, 3, |v| (v.report.packet, v.events.to_vec()));
            assert_eq!(lent.len(), ids.len());
            for ((packet, events), id) in lent.iter().zip(&ids) {
                assert_eq!(packet, id);
                let logged = expected.get(id).map_or(&[][..], Vec::as_slice);
                assert_eq!(events, logged, "{id}");
            }
        }
    }

    /// The point lookup answers as the pass does: every packet of a lossy
    /// campaign gets the report and diagnosis the pass lends it, and a
    /// packet no log mentions gets none.
    #[test]
    fn the_point_lookup_answers_as_the_pass_does() {
        let c = run_scenario(&lossy_small());
        let analyzer = Analyzer::for_campaign(&c);
        let index = analyzer.index(&c.collected);
        let passed = analyzer.pass(&index, index.ids(), 2, |v| (v.report.clone(), v.diagnosis));
        assert!(passed.len() > 1_000, "{} packets", passed.len());
        for (id, expected) in index.ids().iter().zip(passed) {
            let looked_up = analyzer.packet(&c.collected, *id);
            assert_eq!(looked_up, Some(expected), "{id}");
        }
        let unknown = PacketId::new(NodeId(9_999), 0);
        assert!(analyzer.packet(&c.collected, unknown).is_none());
    }

    /// What `Analyzer::index` records must add up: one span, every logged
    /// event grouped exactly once (Σ `node_log_events` = Σ `group_events` =
    /// the rows grouped), one group per packet.
    #[test]
    fn index_telemetry_accounts_for_every_event() {
        use refill::telemetry::{AtomicRecorder, Recorder};
        use std::sync::Arc;
        let c = run_scenario(&Scenario::small());
        let mut untimed = c.collected.clone();
        for log in &mut untimed {
            for entry in &mut log.entries {
                entry.local_ts = None;
            }
        }

        for logs in [c.collected.clone(), untimed] {
            let recorder = Arc::new(AtomicRecorder::new());
            let recon = Reconstructor::new(CtpVocabulary::table2()).with_recorder(recorder.clone());
            let analyzer = Analyzer::new(recon, &logs, c.scenario.packet_interval());
            let index = analyzer.index(&logs);
            let snap = recorder.snapshot();

            assert_eq!(snap.stage("index").map(|s| s.calls), Some(1));
            let logged: u64 = logs.iter().map(|l| l.len() as u64).sum();
            assert_eq!(index.event_count() as u64, logged);
            let groups = snap.histogram("group_events").expect("groups observed");
            assert_eq!(groups.sum, logged);
            assert_eq!(groups.count, index.len() as u64);
            assert_eq!(snap.counter("indexed_packets"), index.len() as u64);
            let per_log = snap.histogram("node_log_events").expect("logs observed");
            assert_eq!((per_log.count, per_log.sum), (logs.len() as u64, logged));
        }
    }

    #[test]
    fn wit_cannot_merge_local_logs() {
        let (_, a) = analyzed();
        assert!(a.wit.fully_disconnected());
    }

    #[test]
    fn diagnosed_causes_resemble_truth() {
        // Total-variation distance between the truth and diagnosed cause
        // distributions stays small: shares may shift a few points under
        // log loss, but the composition is preserved.
        let (_, a) = analyzed();
        let truth = a.truth_cause_counts();
        let diag = a.diagnosed_cause_counts();
        let truth_total: usize = truth.values().sum();
        let diag_total: usize = diag.values().sum();
        assert!(truth_total > 0 && diag_total > 0);
        let mut tv = 0.0;
        for cause in eventlog::LossCause::ALL {
            let p = truth.get(&cause).copied().unwrap_or(0) as f64 / truth_total as f64;
            let q = diag
                .get(&refill::DiagnosedCause::Known(cause))
                .copied()
                .unwrap_or(0) as f64
                / diag_total as f64;
            tv += (p - q).abs();
        }
        tv += diag
            .get(&refill::DiagnosedCause::Unknown)
            .copied()
            .unwrap_or(0) as f64
            / diag_total as f64;
        tv /= 2.0;
        assert!(
            tv < 0.2,
            "cause distributions diverge (TV={tv:.3}): truth {truth:?} vs diagnosed {diag:?}"
        );
    }
}
