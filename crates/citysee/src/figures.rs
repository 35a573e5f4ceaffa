//! Data extraction for every figure of the paper's evaluation.
//!
//! Each `figN` function turns a campaign + analysis into exactly the data
//! series the corresponding figure plots; `render_*` helpers produce CSV
//! (for external plotting) and compact ASCII summaries (for the bench
//! binaries' stdout). Shape expectations are recorded in EXPERIMENTS.md.

use crate::analysis::{Analysis, PacketRecord};
use crate::run::Campaign;
use crate::scenario::Scenario;
use eventlog::{LossCause, PacketId};
use netsim::fx::FxHashMap;
use netsim::{NodeId, SimTime};
use refill::DiagnosedCause;
use std::fmt::Write as _;

/// The cause order used across all figures.
pub const CAUSE_ORDER: [DiagnosedCause; 7] = [
    DiagnosedCause::Known(LossCause::AckedLoss),
    DiagnosedCause::Known(LossCause::ReceivedLoss),
    DiagnosedCause::Known(LossCause::ServerOutage),
    DiagnosedCause::Known(LossCause::OverflowLoss),
    DiagnosedCause::Known(LossCause::TimeoutLoss),
    DiagnosedCause::Known(LossCause::DuplicateLoss),
    DiagnosedCause::Unknown,
];

/// One scatter point: a lost packet at a time, attributed to a node and a
/// cause. Figure 4 uses `node = origin` (the source view); Figure 5 uses
/// `node = loss position` (REFILL's view).
#[derive(Debug, Clone, Copy)]
pub struct LossPoint {
    /// The packet.
    pub packet: PacketId,
    /// Time (seconds of campaign time; estimated, as in the paper).
    pub time_s: f64,
    /// The node this view attributes the loss to.
    pub node: NodeId,
    /// The diagnosed cause.
    pub cause: DiagnosedCause,
}

fn record_time(r: &PacketRecord) -> SimTime {
    match (r.est_time, &r.fate) {
        (Some(t), _) => t,
        (None, eventlog::PacketFate::Lost { at, .. }) => *at,
        (None, eventlog::PacketFate::Delivered { at }) => *at,
    }
}

fn record_cause(r: &PacketRecord) -> DiagnosedCause {
    r.diagnosis.cause.unwrap_or(DiagnosedCause::Unknown)
}

/// Figure 4: temporal distribution of lost packets in the *source* view —
/// `(time, origin node, cause)` per lost packet.
pub fn fig4_source_view(analysis: &Analysis) -> Vec<LossPoint> {
    analysis
        .records
        .iter()
        .filter(|r| !r.fate.delivered())
        .map(|r| LossPoint {
            packet: r.packet,
            time_s: record_time(r).as_secs_f64(),
            node: r.packet.origin,
            cause: record_cause(r),
        })
        .collect()
}

/// Figure 5: the same losses attributed to their *loss positions* by
/// REFILL.
pub fn fig5_loss_positions(analysis: &Analysis) -> Vec<LossPoint> {
    analysis
        .records
        .iter()
        .filter(|r| !r.fate.delivered())
        .filter_map(|r| {
            r.diagnosis.loss_node.map(|node| LossPoint {
                packet: r.packet,
                time_s: record_time(r).as_secs_f64(),
                node,
                cause: record_cause(r),
            })
        })
        .collect()
}

/// Figure 6: per-day cause composition.
#[derive(Debug, Clone)]
pub struct DailyCauses {
    /// 0-indexed day.
    pub day: u32,
    /// Loss counts per cause (ordered as [`CAUSE_ORDER`]).
    pub counts: Vec<usize>,
    /// Total losses that day.
    pub total: usize,
    /// Packets generated that day (for loss-rate context).
    pub generated: usize,
}

/// Build the Figure 6 series.
pub fn fig6_daily_causes(
    campaign: &Campaign,
    analysis: &Analysis,
) -> Vec<DailyCauses> {
    let scenario = &campaign.scenario;
    let mut days: Vec<DailyCauses> = (0..scenario.days)
        .map(|day| DailyCauses {
            day,
            counts: vec![0; CAUSE_ORDER.len()],
            total: 0,
            generated: 0,
        })
        .collect();
    for r in &analysis.records {
        let day = scenario.day_of(record_time(r)) as usize;
        days[day].generated += 1;
        if r.fate.delivered() {
            continue;
        }
        let cause = record_cause(r);
        let idx = CAUSE_ORDER
            .iter()
            .position(|c| *c == cause)
            .unwrap_or(CAUSE_ORDER.len() - 1);
        days[day].counts[idx] += 1;
        days[day].total += 1;
    }
    days
}

/// Figure 8: spatial distribution of received losses.
#[derive(Debug, Clone)]
pub struct SpatialPoint {
    /// The node.
    pub node: NodeId,
    /// Position (metres).
    pub x: f64,
    /// Position (metres).
    pub y: f64,
    /// Received losses positioned here.
    pub received_losses: usize,
    /// Whether this is the sink (the triangle in the paper's figure).
    pub is_sink: bool,
}

/// Build the Figure 8 series.
pub fn fig8_spatial_received(campaign: &Campaign, analysis: &Analysis) -> Vec<SpatialPoint> {
    let mut counts: FxHashMap<NodeId, usize> = FxHashMap::default();
    for r in analysis.records.iter().filter(|r| !r.fate.delivered()) {
        if r.diagnosis.cause == Some(DiagnosedCause::Known(LossCause::ReceivedLoss)) {
            if let Some(node) = r.diagnosis.loss_node {
                *counts.entry(node).or_insert(0) += 1;
            }
        }
    }
    let topology = &campaign.topology;
    topology
        .nodes()
        .map(|node| {
            let p = topology.position(node);
            SpatialPoint {
                node,
                x: p.x,
                y: p.y,
                received_losses: counts.get(&node).copied().unwrap_or(0),
                is_sink: node == topology.sink(),
            }
        })
        .collect()
}

/// Figure 9 / Section V-C: the overall cause breakdown with sink splits.
#[derive(Debug, Clone)]
pub struct Fig9Breakdown {
    /// Total lost packets.
    pub lost_total: usize,
    /// Delivered packets.
    pub delivered_total: usize,
    /// Percent of losses per cause, ordered as [`CAUSE_ORDER`].
    pub percent: Vec<f64>,
    /// Received losses at the sink, % of all losses (paper: 20.0 %).
    pub received_sink_pct: f64,
    /// Received losses elsewhere, % (paper: 12.2 %).
    pub received_other_pct: f64,
    /// Acked losses at the sink, % (paper: 38.0 %).
    pub acked_sink_pct: f64,
    /// Acked losses elsewhere, % (paper: 0.6 %).
    pub acked_other_pct: f64,
}

netsim::json_struct!(write Fig9Breakdown {
    lost_total,
    delivered_total,
    percent,
    received_sink_pct,
    received_other_pct,
    acked_sink_pct,
    acked_other_pct
});

/// Build the Figure 9 breakdown from REFILL's diagnoses.
pub fn fig9_breakdown(campaign: &Campaign, analysis: &Analysis) -> Fig9Breakdown {
    let sink = campaign.topology.sink();
    let mut counts = vec![0usize; CAUSE_ORDER.len()];
    let mut lost_total = 0usize;
    let mut delivered_total = 0usize;
    let mut received_sink = 0usize;
    let mut received_other = 0usize;
    let mut acked_sink = 0usize;
    let mut acked_other = 0usize;
    for r in &analysis.records {
        if r.fate.delivered() {
            delivered_total += 1;
            continue;
        }
        lost_total += 1;
        let cause = record_cause(r);
        let idx = CAUSE_ORDER
            .iter()
            .position(|c| *c == cause)
            .unwrap_or(CAUSE_ORDER.len() - 1);
        counts[idx] += 1;
        let at_sink = r.diagnosis.loss_node == Some(sink);
        match cause {
            DiagnosedCause::Known(LossCause::ReceivedLoss) => {
                if at_sink {
                    received_sink += 1;
                } else {
                    received_other += 1;
                }
            }
            DiagnosedCause::Known(LossCause::AckedLoss) => {
                if at_sink {
                    acked_sink += 1;
                } else {
                    acked_other += 1;
                }
            }
            _ => {}
        }
    }
    let pct = |c: usize| {
        if lost_total == 0 {
            0.0
        } else {
            100.0 * c as f64 / lost_total as f64
        }
    };
    Fig9Breakdown {
        lost_total,
        delivered_total,
        percent: counts.iter().map(|&c| pct(c)).collect(),
        received_sink_pct: pct(received_sink),
        received_other_pct: pct(received_other),
        acked_sink_pct: pct(acked_sink),
        acked_other_pct: pct(acked_other),
    }
}

// ---------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------

/// CSV for scatter figures (4 and 5).
pub fn render_loss_points_csv(points: &[LossPoint]) -> String {
    let mut out = String::from("packet,time_s,node,cause\n");
    for p in points {
        let _ = writeln!(
            out,
            "{},{:.1},{},{}",
            p.packet,
            p.time_s,
            p.node.0,
            p.cause.label()
        );
    }
    out
}

/// CSV for Figure 6.
pub fn render_fig6_csv(days: &[DailyCauses]) -> String {
    let mut out = String::from("day,generated,lost");
    for c in CAUSE_ORDER {
        let _ = write!(out, ",{}", c.label().replace(' ', "_"));
    }
    out.push('\n');
    for d in days {
        let _ = write!(out, "{},{},{}", d.day, d.generated, d.total);
        for &c in &d.counts {
            let _ = write!(out, ",{c}");
        }
        out.push('\n');
    }
    out
}

/// CSV for Figure 8.
pub fn render_fig8_csv(points: &[SpatialPoint]) -> String {
    let mut out = String::from("node,x,y,received_losses,is_sink\n");
    for p in points {
        let _ = writeln!(
            out,
            "{},{:.1},{:.1},{},{}",
            p.node.0, p.x, p.y, p.received_losses, p.is_sink
        );
    }
    out
}

/// ASCII bar summary for Figure 9 (also used by the fig6 per-day rows).
pub fn render_fig9_ascii(b: &Fig9Breakdown) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "losses: {} / {} packets ({:.1}% loss rate)",
        b.lost_total,
        b.lost_total + b.delivered_total,
        100.0 * b.lost_total as f64 / (b.lost_total + b.delivered_total).max(1) as f64
    );
    for (i, cause) in CAUSE_ORDER.iter().enumerate() {
        let pct = b.percent[i];
        let bar = "#".repeat((pct / 2.0).round() as usize);
        let _ = writeln!(out, "{:>14}: {:5.1}% {}", cause.label(), pct, bar);
    }
    let _ = writeln!(
        out,
        "      received: {:.1}% sink + {:.1}% other | acked: {:.1}% sink + {:.1}% other",
        b.received_sink_pct, b.received_other_pct, b.acked_sink_pct, b.acked_other_pct
    );
    out
}

/// ASCII day-by-day table for Figure 6.
pub fn render_fig6_ascii(days: &[DailyCauses], scenario: &Scenario) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "day | lost/gen | {}",
        CAUSE_ORDER
            .iter()
            .map(|c| format!("{:>9}", c.label().split(' ').next().unwrap_or("")))
            .collect::<Vec<_>>()
            .join(" ")
    );
    for d in days {
        let mut row = format!("{:>3} | {:>4}/{:<5}|", d.day + 1, d.total, d.generated);
        for &c in &d.counts {
            let _ = write!(row, " {c:>9}");
        }
        let mut marks = String::new();
        if scenario.snow_days.contains(&d.day) {
            marks.push_str("  <- snow");
        }
        if scenario.sink_fix_day == Some(d.day) {
            marks.push_str("  <- sink fixed");
        }
        let _ = writeln!(out, "{row}{marks}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::run::run_scenario;
    use std::sync::OnceLock;

    fn fixtures() -> &'static (Campaign, Analysis) {
        static CELL: OnceLock<(Campaign, Analysis)> = OnceLock::new();
        CELL.get_or_init(|| {
            let c = run_scenario(&Scenario::small());
            let a = analyze(&c);
            (c, a)
        })
    }

    #[test]
    fn fig4_points_cover_losses_by_origin() {
        let (_, a) = fixtures();
        let pts = fig4_source_view(a);
        assert!(!pts.is_empty());
        for p in &pts {
            assert_eq!(p.node, p.packet.origin, "fig4 attributes to the origin");
        }
    }

    #[test]
    fn fig5_positions_are_concentrated_vs_fig4_origins() {
        // The paper's headline contrast: sources spread out, positions
        // concentrate on few nodes (dominated by the sink).
        let (_, a) = fixtures();
        let fig4 = fig4_source_view(a);
        let fig5 = fig5_loss_positions(a);
        let distinct = |pts: &[LossPoint]| {
            let mut nodes: Vec<u16> = pts.iter().map(|p| p.node.0).collect();
            nodes.sort_unstable();
            nodes.dedup();
            nodes.len()
        };
        assert!(
            distinct(&fig5) < distinct(&fig4),
            "positions ({}) should concentrate vs origins ({})",
            distinct(&fig5),
            distinct(&fig4)
        );
    }

    #[test]
    fn fig6_days_sum_to_total_losses() {
        let (c, a) = fixtures();
        let days = fig6_daily_causes(c, a);
        assert_eq!(days.len() as u32, c.scenario.days);
        let total: usize = days.iter().map(|d| d.total).sum();
        assert_eq!(total, a.lost_records().count());
        let generated: usize = days.iter().map(|d| d.generated).sum();
        assert_eq!(generated, a.records.len());
    }

    #[test]
    fn fig6_losses_drop_after_sink_fix() {
        let (c, a) = fixtures();
        let days = fig6_daily_causes(c, a);
        let fix = c.scenario.sink_fix_day.unwrap() as usize;
        let before: f64 = days[..fix]
            .iter()
            .map(|d| d.total as f64 / d.generated.max(1) as f64)
            .sum::<f64>()
            / fix as f64;
        let after: f64 = days[fix..]
            .iter()
            .map(|d| d.total as f64 / d.generated.max(1) as f64)
            .sum::<f64>()
            / (days.len() - fix) as f64;
        assert!(
            after < before,
            "loss rate should drop after the sink fix: before {before:.3}, after {after:.3}"
        );
    }

    #[test]
    fn fig8_sink_dominates_received_losses() {
        let (c, a) = fixtures();
        let pts = fig8_spatial_received(c, a);
        assert_eq!(pts.len(), c.scenario.nodes);
        let sink_pt = pts.iter().find(|p| p.is_sink).unwrap();
        let max_other = pts
            .iter()
            .filter(|p| !p.is_sink)
            .map(|p| p.received_losses)
            .max()
            .unwrap_or(0);
        assert!(
            sink_pt.received_losses >= max_other,
            "sink ({}) should have at least as many received losses as any other node ({max_other})",
            sink_pt.received_losses
        );
    }

    #[test]
    fn fig9_percentages_sum_to_100() {
        let (c, a) = fixtures();
        let b = fig9_breakdown(c, a);
        assert!(b.lost_total > 0);
        let sum: f64 = b.percent.iter().sum();
        assert!((sum - 100.0).abs() < 1e-6, "percentages sum to {sum}");
        // Splits are consistent with their parents.
        let recv_idx = CAUSE_ORDER
            .iter()
            .position(|c| *c == DiagnosedCause::Known(LossCause::ReceivedLoss))
            .unwrap();
        assert!(
            (b.received_sink_pct + b.received_other_pct - b.percent[recv_idx]).abs() < 1e-6
        );
    }

    #[test]
    fn fig9_shape_matches_paper_ordering() {
        // Shape criterion from DESIGN.md: acked + received dominate, and
        // the sink accounts for most of both.
        let (c, a) = fixtures();
        let b = fig9_breakdown(c, a);
        let idx = |cause: DiagnosedCause| CAUSE_ORDER.iter().position(|c| *c == cause).unwrap();
        let acked = b.percent[idx(DiagnosedCause::Known(LossCause::AckedLoss))];
        let received = b.percent[idx(DiagnosedCause::Known(LossCause::ReceivedLoss))];
        let dup = b.percent[idx(DiagnosedCause::Known(LossCause::DuplicateLoss))];
        let overflow = b.percent[idx(DiagnosedCause::Known(LossCause::OverflowLoss))];
        assert!(acked + received > 40.0, "acked+received = {:.1}", acked + received);
        assert!(acked > dup && acked > overflow);
        assert!(b.acked_sink_pct > b.acked_other_pct);
    }

    #[test]
    fn renderers_produce_parseable_output() {
        let (c, a) = fixtures();
        let csv4 = render_loss_points_csv(&fig4_source_view(a));
        assert!(csv4.starts_with("packet,time_s,node,cause\n"));
        assert!(csv4.lines().count() > 1);
        let days = fig6_daily_causes(c, a);
        let csv6 = render_fig6_csv(&days);
        assert_eq!(csv6.lines().count(), days.len() + 1);
        let csv8 = render_fig8_csv(&fig8_spatial_received(c, a));
        assert_eq!(csv8.lines().count(), c.scenario.nodes + 1);
        let ascii9 = render_fig9_ascii(&fig9_breakdown(c, a));
        assert!(ascii9.contains('%'));
        let ascii6 = render_fig6_ascii(&days, &c.scenario);
        assert!(ascii6.contains("sink fixed"));
    }
}
