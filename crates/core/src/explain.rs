//! Human-readable provenance narratives for single reconstructions.
//!
//! `refill explain <packet-id>` is the audit surface for the origins a
//! report carries: given one packet's [`PacketReport`], this module walks the
//! reconstructed timeline and annotates every entry with its evidence —
//! which node's log it came from, or which inference rule (intra-node jump
//! vs inter-node prerequisite, Section IV-B) synthesized it — then closes
//! with the loss attribution from [`crate::diagnose`] and the flow's
//! confidence score. The same structure serializes to JSON for tooling.

use crate::diagnose::Diagnoser;
use crate::trace::PacketReport;
use netsim::json::ToJson;
use netsim::json_struct;
use refill_provenance::{CacheDisposition, EntryOrigin};
use std::fmt::Write as _;

/// One annotated timeline row of an [`Explanation`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineEntry {
    /// The event in the paper's notation (e.g. `1-2 trans`).
    pub event: String,
    /// The node whose engine produced the entry.
    pub node: String,
    /// Origin name: `observed`, `intra_jump`, or `inter_forced`.
    pub origin: &'static str,
    /// The evidence or inference rule, in words.
    pub rule: String,
}

json_struct!(write TimelineEntry { event, node, origin, rule });

/// A structured provenance narrative for one packet.
#[derive(Debug, Clone, PartialEq)]
pub struct Explanation {
    /// The packet, rendered (`n1#7`).
    pub packet: String,
    /// True if the base station logged the packet.
    pub delivered: bool,
    /// Per-flow confidence score in `[0, 1]`
    /// (see [`refill_provenance::FlowProvenance::confidence`]).
    pub confidence: f64,
    /// Signature-cache disposition name, when the caller knows which path
    /// produced the report (`direct` / `rehydrated` / `uncacheable`).
    pub disposition: Option<&'static str>,
    /// Observed entry count.
    pub observed: usize,
    /// Inferred entry count (jumps + forced).
    pub inferred: usize,
    /// Intra-node jump inferences.
    pub intra_jumps: usize,
    /// Inter-node forced inferences.
    pub inter_forced: usize,
    /// Observed events the engines could not place.
    pub omitted: usize,
    /// Loss-cause label (`None` when delivered).
    pub cause: Option<&'static str>,
    /// Loss position (`None` when delivered or unknown).
    pub loss_node: Option<String>,
    /// Observed retransmission attempts.
    pub retransmissions: usize,
    /// The reconstructed main-chain node path.
    pub path: Vec<String>,
    /// The annotated event timeline, in flow order.
    pub timeline: Vec<TimelineEntry>,
}

json_struct!(write Explanation {
    packet,
    delivered,
    confidence,
    disposition,
    observed,
    inferred,
    intra_jumps,
    inter_forced,
    omitted,
    cause,
    loss_node,
    retransmissions,
    path,
    timeline
});

/// Build the narrative for one report. `disposition` is which cache path
/// produced the report, when the caller knows it; pass `None` otherwise and
/// the field stays unset.
pub fn explain(
    report: &PacketReport,
    diagnoser: &Diagnoser,
    disposition: Option<CacheDisposition>,
) -> Explanation {
    let diagnosis = diagnoser.diagnose(report, None);
    let provenance = report.provenance();

    let timeline = report
        .flow
        .entries
        .iter()
        .zip(&report.origins)
        .map(|(entry, &origin)| {
            let ev = entry.payload;
            let rule = match origin {
                EntryOrigin::Observed => format!("logged by {}", ev.node),
                EntryOrigin::IntraJump => format!(
                    "inferred: intra-node jump replayed {}'s lost `{}` entry",
                    ev.node,
                    ev.kind.name()
                ),
                EntryOrigin::InterForced => format!(
                    "inferred: {} forced to `{}` by a peer's inter-node prerequisite",
                    ev.node,
                    ev.kind.name()
                ),
            };
            TimelineEntry {
                event: ev.to_string(),
                node: ev.node.to_string(),
                origin: origin.name(),
                rule,
            }
        })
        .collect();

    Explanation {
        packet: report.packet.to_string(),
        delivered: report.delivered,
        confidence: provenance.confidence(),
        disposition: disposition.map(|d| d.name()),
        observed: provenance.observed_count(),
        inferred: provenance.inferred_count(),
        intra_jumps: provenance.jump_count(),
        inter_forced: provenance.forced_count(),
        omitted: report.omitted.len(),
        cause: diagnosis.cause.map(|c| c.label()),
        loss_node: diagnosis.loss_node.map(|n| n.to_string()),
        retransmissions: diagnosis.retransmissions,
        path: report.path.iter().map(|n| n.to_string()).collect(),
        timeline,
    }
}

impl Explanation {
    /// Render the narrative as human-readable text. Inferred events are
    /// bracketed, matching the paper's flow notation.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let fate = if self.delivered { "delivered" } else { "lost" };
        let _ = writeln!(out, "packet {}: {}", self.packet, fate);
        if let (Some(cause), Some(node)) = (self.cause, &self.loss_node) {
            let _ = writeln!(out, "  loss: {cause} at {node}");
        } else if let Some(cause) = self.cause {
            let _ = writeln!(out, "  loss: {cause}");
        }
        let _ = writeln!(out, "  path: {}", self.path.join(" -> "));
        let _ = writeln!(
            out,
            "  evidence: {} observed, {} inferred ({} intra-node jumps, {} inter-node forced), {} omitted",
            self.observed, self.inferred, self.intra_jumps, self.inter_forced, self.omitted
        );
        if self.retransmissions > 0 {
            let _ = writeln!(out, "  retransmissions: {}", self.retransmissions);
        }
        if let Some(d) = self.disposition {
            let _ = writeln!(out, "  cache: {d}");
        }
        let _ = writeln!(out, "  confidence: {:.3}", self.confidence);
        let _ = writeln!(out, "  timeline:");
        for t in &self.timeline {
            let shown = if t.origin == "observed" {
                t.event.clone()
            } else {
                format!("[{}]", t.event)
            };
            let _ = writeln!(out, "    {:<20} {}", shown, t.rule);
        }
        out
    }

    /// Render as pretty-printed JSON.
    pub fn render_json(&self) -> String {
        self.to_json()
            .to_pretty()
            .expect("a confidence score is finite")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{CtpVocabulary, Reconstructor};
    use eventlog::{merge_logs, Event, EventKind, LocalLog, LossCause, PacketId};
    use netsim::NodeId;

    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    fn pid() -> PacketId {
        PacketId::new(n(1), 0)
    }

    fn ev(node: u16, kind: EventKind) -> Event {
        Event::new(n(node), kind, pid())
    }

    /// Table II Case 2: ack received, receiver logged nothing — the
    /// receiver's `recv` is inferred by inter-node forcing and the loss is
    /// an acked loss at node 2.
    fn case2_report() -> PacketReport {
        let logs = vec![LocalLog::from_events(
            n(1),
            vec![
                ev(1, EventKind::Trans { to: n(2) }),
                ev(1, EventKind::AckRecvd { to: n(2) }),
            ],
        )];
        let merged = merge_logs(&logs);
        let recon = Reconstructor::new(CtpVocabulary::table2());
        recon.reconstruct_packet(pid(), &merged.by_packet()[&pid()])
    }

    #[test]
    fn narrative_carries_loss_attribution_and_counts() {
        let report = case2_report();
        let ex = explain(&report, &Diagnoser::new(), Some(CacheDisposition::Direct));
        assert!(!ex.delivered);
        assert_eq!(ex.cause, Some(LossCause::AckedLoss.label()));
        assert_eq!(ex.loss_node.as_deref(), Some("n2"));
        assert_eq!(ex.observed, report.flow.observed_count());
        assert_eq!(ex.inferred, report.flow.inferred_count());
        assert!(ex.inferred > 0, "Case 2 must infer the receiver's recv");
        assert_eq!(ex.timeline.len(), report.flow.len());
        assert_eq!(ex.disposition, Some("direct"));
        assert!(ex.confidence > 0.0 && ex.confidence < 1.0);
    }

    #[test]
    fn text_brackets_inferred_events() {
        let report = case2_report();
        let ex = explain(&report, &Diagnoser::new(), None);
        let text = ex.render_text();
        assert!(text.contains("packet n1#0: lost"));
        assert!(text.contains(LossCause::AckedLoss.label()));
        assert!(
            text.contains("[1-2 recv]"),
            "inferred recv must be bracketed:\n{text}"
        );
        assert!(text.contains("1-2 trans"));
        assert!(text.contains("confidence:"));
    }

    #[test]
    fn json_roundtrips_field_names() {
        let report = case2_report();
        let ex = explain(&report, &Diagnoser::new(), Some(CacheDisposition::Rehydrated));
        let v = netsim::json::parse(ex.render_json().as_bytes()).unwrap();
        assert_eq!(v["packet"].as_str(), Some("n1#0"));
        assert_eq!(v["disposition"].as_str(), Some("rehydrated"));
        assert!(v["timeline"].as_array().unwrap().len() == ex.timeline.len());
        assert!(v["timeline"][0]["rule"].as_str().is_some());
    }

    #[test]
    fn delivered_flow_scores_full_confidence_when_fully_observed() {
        let logs = vec![LocalLog::from_events(
            eventlog::event::BASE_STATION,
            vec![Event::new(
                eventlog::event::BASE_STATION,
                EventKind::BsRecv,
                pid(),
            )],
        )];
        let merged = merge_logs(&logs);
        let recon = Reconstructor::new(CtpVocabulary::table2()).with_sink(n(0));
        let report = recon.reconstruct_packet(pid(), &merged.by_packet()[&pid()]);
        let ex = explain(&report, &Diagnoser::new(), None);
        assert!(ex.delivered);
        assert_eq!(ex.cause, None);
        if ex.inferred == 0 && ex.observed > 0 {
            assert_eq!(ex.confidence, 1.0);
        }
    }
}
