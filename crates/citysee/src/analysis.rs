//! The analysis pipeline: REFILL + baselines over a campaign.
//!
//! This is the "PC side" of the paper's implementation: it sees only the
//! collected (lossy, unsynchronized) logs and the base station's data, and
//! produces per-packet diagnoses. Ground truth is touched exclusively for
//! *scoring* — quantifying how well the reconstruction did, which the real
//! deployment could never know.
//!
//! [`analyze`] is three steps. *Group*: the packet index of the merged log
//! plus the two baselines that read whole logs (Wit's merge, time
//! correlation) on one thread, the ground truth grouped the same way on
//! another. *Pass*: one parallel visit per packet that reconstructs,
//! diagnoses, scores and asks the naive baseline — everything that needs
//! the packet's events happens while they are in hand. *Fold*: sums.

use crate::run::Campaign;
use baselines::naive::naive_claim;
use baselines::source_view::SourceView;
use baselines::time_correlation::{correlate_causes, CorrelationConfig};
use baselines::wit::{wit_merge, WitMerge};
use eventlog::event::BASE_STATION;
use eventlog::logger::LocalLog;
use eventlog::{LossCause, PacketFate, PacketId};
use netsim::fx::FxHashMap;
use netsim::{NodeId, SimTime};
use refill::diagnose::{Diagnoser, Diagnosis};
use refill::parallel::{available_workers, par_map};
use refill::score::{score_cause, score_flow, score_path, CauseScore, FlowScore, PathScore};
use refill::trace::{CtpVocabulary, Reconstructor};

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

/// Run REFILL and all baselines over a campaign.
pub fn analyze(campaign: &Campaign) -> Analysis {
    let scenario = &campaign.scenario;
    let sink = campaign.topology.sink();
    let truth = &campaign.sim.truth;

    // Source view from the base station's reliable log.
    let no_bs_log = LocalLog::new(BASE_STATION);
    let bs_log = campaign
        .collected
        .iter()
        .find(|l| l.node == BASE_STATION)
        .unwrap_or(&no_bs_log);
    let source_view = SourceView::from_bs_log(bs_log, scenario.packet_interval());

    // REFILL setup. The outage schedule is operational knowledge (the
    // server records its own downtime), so the diagnoser may use it.
    let (_, _, faults, config) = scenario.build();
    let vocabulary = CtpVocabulary {
        log_origin: config.log_origin,
        log_enqueue: config.log_enqueue,
    };
    let recon = Reconstructor::new(vocabulary).with_sink(sink);
    let diagnoser = Diagnoser::new()
        .with_outages(faults.outages.clone())
        .with_sink(sink);

    // Group. What reads the logs — the packet index and the two baselines
    // that are not per-packet — and what reads the ground truth (its events
    // per packet, for flow scoring) are independent and about the same
    // size, so they take a thread each.
    let (index, wit, correlation, truth_events) = std::thread::scope(|s| {
        let truth_events = s.spawn(|| truth.by_packet());
        let index = campaign.merged.packet_index();
        let wit = wit_merge(&campaign.collected);
        let correlation = summarize_correlation(campaign, &source_view);
        let truth_events = truth_events
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        (index, wit, correlation, truth_events)
    });

    let mut ids: Vec<PacketId> = index.ids().to_vec();
    // Packets never mentioned in any log still deserve records (fate says
    // they existed); they get an Unknown diagnosis through an empty flow.
    for id in truth.fates.keys() {
        if index.get(*id).is_none() {
            ids.push(*id);
        }
    }
    ids.sort_unstable();

    // Pass: per-packet reconstruction, diagnosis, scoring and the naive
    // baseline, in parallel.
    let outcomes: Vec<PacketOutcome> = par_map(
        ids.len(),
        available_workers(),
        || (),
        |_, i| {
            let id = ids[i];
            let events = index.get(id).unwrap_or(&[]);
            let report = recon.reconstruct_packet(id, events);
            let est_time = source_view.estimate_time(id);
            let diagnosis = diagnoser.diagnose(&report, est_time);
            let flow = score_flow(&report, truth_events.get(id).unwrap_or(&[]));
            let path = score_path(&report, truth.paths.get(&id).map_or(&[], Vec::as_slice));
            let fate = truth
                .fates
                .get(&id)
                .copied()
                .unwrap_or(PacketFate::Delivered { at: SimTime::ZERO });
            let looped = report.has_routing_loop();
            // Scored: the next packet on this thread reuses the report's
            // vectors.
            recon.recycle(report);
            PacketOutcome {
                flow,
                cause: score_cause(&diagnosis, &fate),
                path,
                looped,
                naive_claim: naive_claim(events),
                record: PacketRecord {
                    packet: id,
                    est_time,
                    diagnosis,
                    fate,
                },
            }
        },
    );

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
    let transport = transport_stats(&records, bs_log, scenario, loops_detected);

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
    bs_log: &LocalLog,
    scenario: &crate::scenario::Scenario,
    loops_detected: usize,
) -> TransportStats {
    use eventlog::EventKind;
    let period = scenario.packet_interval().as_micros();

    // Arrival times per origin (seqno-sorted), then a per-origin send-phase
    // fit: phase = min(arrival − seqno × period).
    let mut arrivals: FxHashMap<NodeId, Vec<(u32, u64)>> = FxHashMap::default();
    for entry in &bs_log.entries {
        if matches!(entry.event.kind, EventKind::BsRecv) {
            if let Some(ts) = entry.local_ts {
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
        .losses
        .iter()
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
