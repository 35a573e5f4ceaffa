//! The four workloads: input generation from a seed, the timed
//! operation, and the reference each answer is checked against.
//!
//! The program only ever sees generated logs or bytes. Ground truth
//! (`SimOutput::truth`) is read by the program solely where it does so
//! itself (`citysee::analyze` scores its own flows) and otherwise only by
//! the harness, outside every timed region.

use crate::spans::Tracer;
use baselines::source_view::SourceView;
use citysee::analysis::Analysis;
use citysee::run::upload_order;
use citysee::{figures, Campaign, Scenario};
use eventlog::collect::LossyCollector;
use eventlog::event::BASE_STATION;
use eventlog::frame::{self, FrameStats, NodeRecord};
use eventlog::{merge_logs, LocalLog, MergedLog, PacketId, TruthEvent};
use netsim::{NodeId, RngFactory};
use protocols::sim::Simulator;
use refill::diagnose::{Diagnoser, Diagnosis};
use refill::score::{score_cause, score_flow, CauseScore, FlowScore};
use refill::trace::{CtpVocabulary, PacketReport, Reconstructor};
use refill_stream::{run_stream, DriverConfig, StreamReconstructor, StreamSummary};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{Cursor, Read};
use std::time::Instant;

/// Which operation a workload times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `merge_logs` → `citysee::analyze` → fig4/5/6/8 CSV: the path
    /// `refill analyze` runs.
    Report,
    /// `merge_logs` → `packet_index` → reconstruct/diagnose/explain a
    /// handful of packets: the path `refill trace` / `refill explain` runs.
    Trace,
    /// `run_stream` over framed bytes to completion.
    Stream,
}

/// A named workload: an operation and the campaign it runs over.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// `Scenario::paper()` (1 200 nodes) instead of `Scenario::standard()`
    /// (300 nodes).
    paper_scale: bool,
    days: u32,
    /// The paper's setting: heavy collection loss and no timestamps.
    lossy: bool,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "citysee-clean",
        kind: Kind::Report,
        paper_scale: false,
        days: 10,
        lossy: false,
    },
    Spec {
        name: "citysee-lossy",
        kind: Kind::Report,
        paper_scale: false,
        days: 10,
        lossy: true,
    },
    Spec {
        name: "trace-wide",
        kind: Kind::Trace,
        paper_scale: true,
        days: 3,
        lossy: false,
    },
    Spec {
        name: "stream-replay",
        kind: Kind::Stream,
        paper_scale: false,
        days: 1,
        lossy: false,
    },
];

/// Packets one *trace* operation answers for.
pub const TRACE_BATCH: usize = 32;
/// Seed-chosen packets the *trace* workload draws its batches from; the
/// warm-up operation traces all of them at once and is what the quality
/// metrics are scored over, so those do not hinge on 32 packets.
pub const TRACE_SAMPLE: usize = 2048;
/// One byte is flipped per this many records in the *stream* input.
pub const RECORDS_PER_FLIP: usize = 200;
/// Seed of the deployment itself: node positions, link qualities and the
/// fault history (outages, snow, interference bursts). It is the same for
/// every run, as CitySee is one deployment with one history; `--seed`
/// draws what happens on it (every node's radio, clock and logger
/// streams, the collection losses, the packets traced, the bytes
/// flipped). Seeding the deployment too moved the loss-cause mix, and
/// with it every quality metric and the work per operation, by 10-30 %
/// between seeds, which would drown the bounds the metrics are gated on.
pub const DEPLOYMENT_SEED: u64 = 2015;

impl Spec {
    /// The deployment this workload simulates. `smoke` shrinks it to 60
    /// nodes × 1 day for the self-test.
    pub fn scenario(&self, smoke: bool) -> Scenario {
        let mut s = if self.paper_scale {
            Scenario::paper()
        } else {
            Scenario::standard()
        };
        s.days = self.days;
        if self.lossy {
            s.collection.chunk_loss_prob = 0.30;
            s.collection.whole_log_loss_prob = 0.05;
            s.logger.write_failure_prob = 0.05;
            s.logger.timestamps = false;
        }
        if smoke {
            s.nodes = 60;
            s.side_m = 350.0;
            s.days = 1;
        }
        s.seed = DEPLOYMENT_SEED;
        s
    }
}

/// SplitMix64, for the harness's own seed-derived choices (which packets
/// to trace, which bytes to flip).
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// How long each part of one input generation took, and what it made.
#[derive(Debug, Clone, Copy, Default)]
pub struct GenStats {
    pub total_s: f64,
    pub simulate_s: f64,
    pub collect_s: f64,
    pub events_logged: usize,
    pub events_collected: usize,
}

/// A framed, damaged record stream.
pub struct Framed {
    pub bytes: Vec<u8>,
    /// Packet and end offset (exclusive) of each record's frame, in stream
    /// order.
    pub frame_ends: Vec<(PacketId, u64)>,
}

/// One generated input.
pub struct Input {
    /// The campaign with `merged` left empty: the operation merges.
    pub campaign: Campaign,
    /// *stream* only.
    pub framed: Option<Framed>,
    /// *trace* only: the packets batches are drawn from.
    pub trace_sample: Vec<PacketId>,
    pub stats: GenStats,
}

/// Frame `records` one at a time, then XOR-flip one byte at each of
/// `records / RECORDS_PER_FLIP` seed-chosen offsets.
pub fn frame_and_damage(records: &[NodeRecord], seed: u64) -> Framed {
    let mut bytes = Vec::new();
    let mut frame_ends = Vec::with_capacity(records.len());
    for rec in records {
        frame::encode_record(rec, &mut bytes);
        frame_ends.push((rec.entry.event.packet, bytes.len() as u64));
    }
    let mut rng = SplitMix64(seed ^ 0xF11B_B17E);
    for _ in 0..records.len() / RECORDS_PER_FLIP {
        let at = rng.below(bytes.len());
        bytes[at] ^= 1 << rng.below(8);
    }
    Framed { bytes, frame_ends }
}

/// Generate the workload's input: simulate → lossy collection (→ trace
/// sample / frame encoding where used). The collection step mirrors
/// `citysee::run_scenario`, minus its merge, which belongs to the timed
/// operation.
pub fn generate(spec: &Spec, seed: u64, smoke: bool) -> Input {
    let t0 = Instant::now();
    let scenario = spec.scenario(smoke);
    let (topology, table, faults, mut config) = scenario.build();
    config.seed = seed;
    let t_sim = Instant::now();
    let mut sim = Simulator::new(topology.clone(), table, faults, config).run();
    let simulate_s = t_sim.elapsed().as_secs_f64();
    let events_logged = sim.logs.iter().map(LocalLog::len).sum();

    let (bs_logs, node_logs): (Vec<LocalLog>, Vec<LocalLog>) = std::mem::take(&mut sim.logs)
        .into_iter()
        .partition(|log| log.node == BASE_STATION);
    let t_collect = Instant::now();
    let mut collected = LossyCollector::new(scenario.collection)
        .collect_all(&node_logs, &RngFactory::new(seed ^ 0xC011_1EC7));
    let collect_s = t_collect.elapsed().as_secs_f64();
    // The base station's log lives on the server and survives intact.
    collected.extend(bs_logs);
    let events_collected = collected.iter().map(LocalLog::len).sum();

    let framed =
        (spec.kind == Kind::Stream).then(|| frame_and_damage(&upload_order(&collected), seed));
    let trace_sample = if spec.kind == Kind::Trace {
        choose_trace_sample(&collected, seed)
    } else {
        Vec::new()
    };

    Input {
        campaign: Campaign {
            scenario,
            topology,
            sim,
            collected,
            merged: MergedLog::default(),
        },
        framed,
        trace_sample,
        stats: GenStats {
            total_s: t0.elapsed().as_secs_f64(),
            simulate_s,
            collect_s,
            events_logged,
            events_collected,
        },
    }
}

/// Up to [`TRACE_SAMPLE`] distinct packets that appear in the collected
/// logs (a packet with no surviving event cannot be traced), seed-chosen.
fn choose_trace_sample(collected: &[LocalLog], seed: u64) -> Vec<PacketId> {
    let seen: HashSet<PacketId> = collected
        .iter()
        .flat_map(|log| log.entries.iter().map(|e| e.event.packet))
        .collect();
    let mut ids: Vec<PacketId> = seen.into_iter().collect();
    ids.sort_unstable();
    let mut rng = SplitMix64(seed ^ 0x7EAC_E1D5);
    let take = TRACE_SAMPLE.min(ids.len());
    for i in 0..take {
        let j = i + rng.below(ids.len() - i);
        ids.swap(i, j);
    }
    ids.truncate(take);
    ids
}

/// The reconstructor and diagnoser `citysee::analyze` configures for a
/// campaign (same vocabulary, sink and outage schedule).
pub fn analysis_tools(campaign: &Campaign) -> (Reconstructor, Diagnoser) {
    let (_, _, faults, config) = campaign.scenario.build();
    let sink = campaign.topology.sink();
    let recon = Reconstructor::new(CtpVocabulary {
        log_origin: config.log_origin,
        log_enqueue: config.log_enqueue,
    })
    .with_sink(sink);
    let diagnoser = Diagnoser::new()
        .with_outages(faults.outages)
        .with_sink(sink);
    (recon, diagnoser)
}

// ---------------------------------------------------------------------
// Operations
// ---------------------------------------------------------------------

/// What one *report* operation hands its user.
pub struct ReportOutput {
    pub analysis: Analysis,
    pub csv: [String; 4],
}

/// The *report* operation.
pub fn report_op(campaign: &mut Campaign, tracer: &Tracer) -> ReportOutput {
    campaign.merged = tracer.span("eventlog.merge_logs", || merge_logs(&campaign.collected));
    let campaign = &*campaign;
    let analysis = tracer.span("citysee.analyze", || citysee::analyze(campaign));
    let csv = [
        tracer.span("citysee.fig4", || {
            figures::render_loss_points_csv(&figures::fig4_source_view(&analysis))
        }),
        tracer.span("citysee.fig5", || {
            figures::render_loss_points_csv(&figures::fig5_loss_positions(&analysis))
        }),
        tracer.span("citysee.fig6", || {
            figures::render_fig6_csv(&figures::fig6_daily_causes(campaign, &analysis))
        }),
        tracer.span("citysee.fig8", || {
            figures::render_fig8_csv(&figures::fig8_spatial_received(campaign, &analysis))
        }),
    ];
    ReportOutput { analysis, csv }
}

/// One traced packet as `refill trace` / `refill explain` present it.
pub struct Traced {
    pub report: PacketReport,
    pub diagnosis: Diagnosis,
    pub narrative: String,
}

/// The *trace* operation over `ids`.
pub fn trace_op(
    logs: &[LocalLog],
    recon: &Reconstructor,
    diagnoser: &Diagnoser,
    ids: &[PacketId],
    tracer: &Tracer,
) -> Vec<Traced> {
    let merged = tracer.span("eventlog.merge_logs", || merge_logs(logs));
    let index = tracer.span("eventlog.packet_index", || merged.packet_index());
    ids.iter()
        .map(|&id| {
            let events = index.get(id).expect("traced packets appear in the logs");
            let report = tracer.span("refill.reconstruct_packet", || {
                recon.reconstruct_packet(id, events)
            });
            let diagnosis = tracer.span("refill.diagnose", || diagnoser.diagnose(&report, None));
            let narrative = tracer.span("refill.explain", || {
                refill::explain(&report, diagnoser, None).render_text()
            });
            Traced {
                report,
                diagnosis,
                narrative,
            }
        })
        .collect()
}

/// The *stream* operation over any reader of framed bytes.
pub fn stream_op<R: Read + Send>(
    reader: R,
    sink: NodeId,
    tracer: &Tracer,
    on_report: impl FnMut(&PacketReport),
) -> (StreamSummary, usize) {
    let recon = Reconstructor::new(CtpVocabulary::citysee()).with_sink(sink);
    let mut stream = StreamReconstructor::new(recon);
    let summary = tracer.span("refill_stream.run_stream", || {
        run_stream(reader, &mut stream, DriverConfig::default(), on_report)
            .expect("an in-memory reader cannot fail")
    });
    let packed_bytes = stream.packed_event_bytes();
    // Freeing the per-packet state is part of what the caller waits for.
    tracer.span("refill_stream.drop", || drop(stream));
    (summary, packed_bytes)
}

/// [`stream_op`] over a byte slice.
pub fn stream_op_bytes(bytes: &[u8], sink: NodeId, tracer: &Tracer) -> StreamSummary {
    stream_op(Cursor::new(bytes), sink, tracer, |_| {}).0
}

// ---------------------------------------------------------------------
// References and checks
// ---------------------------------------------------------------------

/// Answers checked and answers that differed from the reference.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Reference reports by packet: `Reconstructor::reconstruct_log`, the
/// sequential reference driver, over `merged`.
pub fn reference_reports(
    recon: &Reconstructor,
    merged: &MergedLog,
) -> HashMap<PacketId, PacketReport> {
    recon
        .reconstruct_log(merged)
        .into_iter()
        .map(|r| (r.packet, r))
        .collect()
}

/// *report* check: every record's diagnosis must equal the diagnoser
/// applied to the reference report with that record's time estimate.
/// Packets no log mentions have an empty reference flow.
pub fn check_report(
    out: &ReportOutput,
    reference: &HashMap<PacketId, PacketReport>,
    recon: &Reconstructor,
    diagnoser: &Diagnoser,
) -> Tally {
    assert!(
        out.csv.iter().all(|csv| csv.lines().count() >= 1),
        "every figure CSV has at least its header"
    );
    let mut tally = Tally::default();
    for rec in &out.analysis.records {
        let expected = match reference.get(&rec.packet) {
            Some(report) => diagnoser.diagnose(report, rec.est_time),
            None => diagnoser.diagnose(&recon.reconstruct_packet(rec.packet, &[]), rec.est_time),
        };
        tally.attempted += 1;
        tally.failed += u64::from(rec.diagnosis != expected);
    }
    tally
}

/// *trace* check: every traced report must equal the same packet's
/// reference report.
pub fn check_trace(traced: &[Traced], reference: &HashMap<PacketId, PacketReport>) -> Tally {
    let mut tally = Tally::default();
    for t in traced {
        assert!(!t.narrative.is_empty(), "explain renders a narrative");
        assert_eq!(t.diagnosis.packet, t.report.packet);
        tally.attempted += 1;
        tally.failed += u64::from(reference.get(&t.report.packet) != Some(&t.report));
    }
    tally
}

/// The *stream* reference: what the decoder lets through, regrouped into
/// per-node logs and reconstructed in batch.
pub struct StreamReference {
    pub frames: FrameStats,
    pub reports: HashMap<PacketId, PacketReport>,
}

pub fn stream_reference(bytes: &[u8], sink: NodeId) -> StreamReference {
    let (survivors, frames) = frame::decode_all(bytes);
    let mut by_node: BTreeMap<NodeId, LocalLog> = BTreeMap::new();
    for rec in survivors {
        by_node
            .entry(rec.node)
            .or_insert_with(|| LocalLog::new(rec.node))
            .entries
            .push(rec.entry);
    }
    let logs: Vec<LocalLog> = by_node.into_values().collect();
    let recon = Reconstructor::new(CtpVocabulary::citysee()).with_sink(sink);
    StreamReference {
        frames,
        reports: reference_reports(&recon, &merge_logs(&logs)),
    }
}

/// The evidence a report accounts for: how often each logged event appears
/// in it, as a flow entry or among the omitted.
fn evidence(report: &PacketReport) -> HashMap<eventlog::Event, usize> {
    let observed = report
        .flow
        .entries
        .iter()
        .filter(|e| e.observed)
        .map(|e| &e.payload);
    let mut bag = HashMap::new();
    for event in observed.chain(&report.omitted) {
        *bag.entry(*event).or_default() += 1;
    }
    bag
}

/// *stream* check against the batch reference, packet for packet.
///
/// The program documents the converged reports as identical to batch, but
/// a packet's inferred events depend on the cross-node order its events
/// are replayed in, and the stream's lanes replay a different (equally
/// legal) order than `merge_logs`. What must hold whatever the order is
/// that the same packets are answered for, each with the same delivery
/// verdict and exactly the decoded evidence: that is what `failed`
/// counts. Reports that are not also byte-identical to batch are
/// returned as the second value and reported, not hidden. The frame
/// counters must agree with `decode_all`; if not, every answer fails.
pub fn check_stream(summary: &StreamSummary, reference: &StreamReference) -> (Tally, u64) {
    let mut tally = Tally {
        attempted: reference.reports.len() as u64,
        failed: 0,
    };
    if summary.frames != reference.frames {
        tally.failed = tally.attempted;
        return (tally, tally.attempted);
    }
    let mut same_evidence = 0u64;
    let mut identical = 0u64;
    for report in &summary.reports {
        match reference.reports.get(&report.packet) {
            Some(expected) => {
                identical += u64::from(expected == report);
                same_evidence += u64::from(
                    expected.delivered == report.delivered
                        && evidence(expected) == evidence(report),
                );
            }
            // An answer for a packet the reference never saw.
            None => tally.attempted += 1,
        }
    }
    tally.failed = tally.attempted - same_evidence;
    (tally, tally.attempted - identical)
}

// ---------------------------------------------------------------------
// Scoring against ground truth
// ---------------------------------------------------------------------

/// Inferred-event precision/recall and cause accuracy of a set of
/// reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quality {
    pub flow: FlowScore,
    pub cause: CauseScore,
}

/// Score `reports` the way `citysee::analyze` scores its own: flows
/// against each packet's true events, and the diagnosis (outage schedule,
/// sink and source-view time estimate supplied) against its true fate.
pub fn score_reports<'a>(
    reports: impl IntoIterator<Item = &'a PacketReport>,
    campaign: &Campaign,
    diagnoser: &Diagnoser,
) -> Quality {
    let truth = &campaign.sim.truth;
    let mut truth_by_packet: HashMap<PacketId, Vec<TruthEvent>> = HashMap::new();
    for te in &truth.events {
        truth_by_packet
            .entry(te.event.packet)
            .or_default()
            .push(*te);
    }
    let bs_log = campaign
        .collected
        .iter()
        .find(|l| l.node == BASE_STATION)
        .cloned()
        .unwrap_or_else(|| LocalLog::new(BASE_STATION));
    let source_view = SourceView::from_bs_log(&bs_log, campaign.scenario.packet_interval());

    let mut quality = Quality::default();
    for report in reports {
        let truth_events = truth_by_packet
            .get(&report.packet)
            .map_or(&[][..], Vec::as_slice);
        quality.flow.merge(&score_flow(report, truth_events));
        if let Some(fate) = truth.fates.get(&report.packet) {
            let diagnosis = diagnoser.diagnose(report, source_view.estimate_time(report.packet));
            quality.cause.merge(&score_cause(&diagnosis, fate));
        }
    }
    quality
}
