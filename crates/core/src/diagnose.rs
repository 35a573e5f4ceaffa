//! Loss-position and loss-cause diagnosis (Section V of the paper).
//!
//! Given a packet's reconstructed event flow, the *last* entry tells where
//! the packet was last known to exist and why it went no further:
//!
//! | last entry                         | cause            | position  |
//! |------------------------------------|------------------|-----------|
//! | `overflow`                         | overflow loss    | receiver  |
//! | `dup`                              | duplicate loss   | receiver  |
//! | `timeout`                          | timeout loss     | sender    |
//! | `recv` / `enqueue` / `origin`      | received loss    | that node |
//! | `ack recvd`, receiver's recv *observed* | received loss | receiver |
//! | `ack recvd`, receiver's recv *inferred* | acked loss    | receiver |
//! | `trans` (no ack, no timeout)       | timeout loss     | sender    |
//! | `serial trans`, outage active      | server outage    | sink      |
//! | `serial trans`, no outage          | received loss    | sink      |
//! | `bs recv`                          | delivered        | —         |
//!
//! The received/acked distinction is the paper's key insight about hardware
//! ACKs: an acked packet may still die before the receiver's network layer
//! logs it. If the flow *observed* the receiver's `recv`, the packet made it
//! into the node and died there (received loss); if the `recv` exists only
//! as an inferred event, the hardware acked but the stack dropped it
//! (acked loss).

use crate::ctp_model::Role;
use crate::trace::PacketReport;
use eventlog::{Event, EventKind, LossCause, PacketId};
use netsim::fx::FxHashMap;
use netsim::{NodeId, SimTime};

/// A diagnosed cause: either one of the paper's taxonomy or unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiagnosedCause {
    /// Classified into the Section V-C taxonomy.
    Known(LossCause),
    /// The flow gave no usable signal (e.g. no events at all survived).
    Unknown,
}

impl DiagnosedCause {
    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            DiagnosedCause::Known(c) => c.label(),
            DiagnosedCause::Unknown => "unknown",
        }
    }
}

/// Diagnosis of one packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnosis {
    /// The packet.
    pub packet: PacketId,
    /// True if the base station logged it.
    pub delivered: bool,
    /// The loss cause (`None` when delivered).
    pub cause: Option<DiagnosedCause>,
    /// The node where the packet was lost (`None` when delivered or
    /// unknown).
    pub loss_node: Option<NodeId>,
    /// The last event of the flow, if any.
    pub last_event: Option<Event>,
    /// Number of nodes on the reconstructed main path.
    pub path_len: usize,
    /// Observed retransmission attempts (trans events beyond the first per
    /// engine).
    pub retransmissions: usize,
}

/// The diagnoser: optionally knows the base-station outage schedule, which
/// operators have independently of the logs (server downtime is recorded at
/// the server).
#[derive(Debug, Clone, Default)]
pub struct Diagnoser {
    outages: Vec<(SimTime, SimTime)>,
    sink: Option<NodeId>,
}

impl Diagnoser {
    /// A diagnoser without outage knowledge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Provide the server-outage windows `[start, end)`.
    pub fn with_outages(mut self, outages: Vec<(SimTime, SimTime)>) -> Self {
        self.outages = outages;
        self
    }

    /// Pin the sink node: a loss positioned at the sink while the server
    /// was down is attributed to the outage even when the `serial trans`
    /// record itself was lost.
    pub fn with_sink(mut self, sink: NodeId) -> Self {
        self.sink = Some(sink);
        self
    }

    fn in_outage(&self, t: SimTime) -> bool {
        self.outages.iter().any(|&(s, e)| t >= s && t < e)
    }

    /// Diagnose one packet. `est_time` is an estimate of when the packet
    /// was in flight (e.g. back-dated from its sequence number and the
    /// sending period, as the paper does for Figure 4); it is only used to
    /// split beyond-sink losses into outage vs cable losses.
    pub fn diagnose(&self, report: &PacketReport, est_time: Option<SimTime>) -> Diagnosis {
        let retransmissions = count_retransmissions(report);
        let path_len = report.path.len();
        let last_idx = classification_entry(report);
        let last = last_idx.map(|i| report.flow.entries[i].payload);

        if report.delivered {
            return Diagnosis {
                packet: report.packet,
                delivered: true,
                cause: None,
                loss_node: None,
                last_event: last,
                path_len,
                retransmissions,
            };
        }

        let (cause, loss_node) = match last {
            None => (Some(DiagnosedCause::Unknown), None),
            Some(ev) => {
                let node = ev.node;
                match ev.kind {
                    EventKind::Overflow { .. } => {
                        (Some(DiagnosedCause::Known(LossCause::OverflowLoss)), Some(node))
                    }
                    EventKind::Dup { .. } => {
                        (Some(DiagnosedCause::Known(LossCause::DuplicateLoss)), Some(node))
                    }
                    EventKind::Timeout { .. } => {
                        (Some(DiagnosedCause::Known(LossCause::TimeoutLoss)), Some(node))
                    }
                    EventKind::Recv { .. }
                    | EventKind::Enqueue
                    | EventKind::Origin
                    | EventKind::Deliver => {
                        // A packet last seen received *at the sink* during a
                        // server outage most likely went over the serial
                        // line into the downed server (the serial record was
                        // simply lost).
                        let cause = match est_time {
                            Some(t)
                                if Some(node) == self.sink && self.in_outage(t) =>
                            {
                                LossCause::ServerOutage
                            }
                            _ => LossCause::ReceivedLoss,
                        };
                        (Some(DiagnosedCause::Known(cause)), Some(node))
                    }
                    EventKind::AckRecvd { to } => {
                        // Acked vs received vs duplicate loss: inspect what
                        // the *receiver engine of this hop* observed. (A
                        // node-wide scan would be confused by earlier visits
                        // in a routing loop.)
                        let receiver_engine = last_idx
                            .map(|i| &report.engines[report.flow.entries[i].engine.0 as usize])
                            .and_then(|info| info.next);
                        let mut observed_dup = false;
                        let mut observed_recv = false;
                        if let Some(re) = receiver_engine {
                            for e in &report.flow.entries {
                                if e.engine.0 as usize == re && e.observed {
                                    match e.payload.kind {
                                        EventKind::Dup { .. } => observed_dup = true,
                                        EventKind::Recv { .. } => observed_recv = true,
                                        _ => {}
                                    }
                                }
                            }
                        } else {
                            // No linked receiver engine: fall back to a
                            // node-wide scan.
                            observed_recv = report.flow.entries.iter().any(|e| {
                                e.observed
                                    && e.payload.node == to
                                    && matches!(e.payload.kind, EventKind::Recv { .. })
                            });
                        }
                        let mut cause = if observed_dup {
                            LossCause::DuplicateLoss
                        } else if observed_recv {
                            LossCause::ReceivedLoss
                        } else {
                            LossCause::AckedLoss
                        };
                        // Same sink-during-outage reasoning as for recv-last
                        // flows: the packet very likely crossed into the
                        // downed server.
                        if let Some(t) = est_time {
                            if Some(to) == self.sink && self.in_outage(t) {
                                cause = LossCause::ServerOutage;
                            }
                        }
                        (Some(DiagnosedCause::Known(cause)), Some(to))
                    }
                    EventKind::Trans { .. } => {
                        // In flight, never acked, no timeout record survived:
                        // the link dropped it.
                        (Some(DiagnosedCause::Known(LossCause::TimeoutLoss)), Some(node))
                    }
                    EventKind::SerialTrans => {
                        let cause = match est_time {
                            Some(t) if self.in_outage(t) => LossCause::ServerOutage,
                            _ => LossCause::ReceivedLoss,
                        };
                        (Some(DiagnosedCause::Known(cause)), Some(node))
                    }
                    EventKind::BsRecv => {
                        // Shouldn't happen for an undelivered packet, but an
                        // omitted bs-recv on an odd node could. Unknown.
                        (Some(DiagnosedCause::Unknown), None)
                    }
                    EventKind::Custom(_) => (Some(DiagnosedCause::Unknown), None),
                }
            }
        };

        Diagnosis {
            packet: report.packet,
            delivered: false,
            cause,
            loss_node,
            last_event: last,
            path_len,
            retransmissions,
        }
    }
}

/// The flow entry the diagnosis is based on: among the *maximal* entries of
/// the partial order (nothing depends on them — each is the end of some
/// copy's story), the non-`dup` one deepest along the packet's route. The
/// packet's fate is what happened to the copy that progressed furthest (the
/// simulator's deepest death); a duplicate drop is the end of a
/// retransmitted *extra* copy, which decides it only when it is the sole
/// remaining story (a genuine routing-loop discard).
///
/// Depth is what the chains tell of the route: a chain that reaches the
/// sink ends it, every chain but the main one (headed at the origin) lies
/// past the main one, and along a chain a hop is one step deeper. Equal
/// depths go to the latest entry.
fn classification_entry(report: &PacketReport) -> Option<usize> {
    let n = report.flow.entries.len();
    let mut has_successor = vec![false; n];
    for i in 0..n {
        for &d in report.flow.deps_of(i) {
            has_successor[d as usize] = true;
        }
    }
    let engine_of = |i: usize| report.flow.entries[i].engine.0 as usize;
    // A dup entry counts as the packet's end only when its engine *is* the
    // chain continuation (a routing-loop discard: the previous hop's `next`
    // points at it). A dup on a side stub is a retransmitted extra copy.
    let is_stub_dup = |i: usize| {
        let on_chain = match report.engines[engine_of(i)].prev {
            Some(p) => report.engines[p].next == Some(engine_of(i)),
            None => true,
        };
        matches!(report.flow.entries[i].payload.kind, EventKind::Dup { .. }) && !on_chain
    };
    // Per engine: its chain reaches the sink, its chain is not the main
    // one, and its hops back to the chain's head — bounded, as under heavy
    // log loss the links can form a cycle. A chain's engines follow its
    // head, so a hop count mostly extends its predecessor's.
    let engines = &report.engines;
    let mut route: Vec<(bool, bool, usize)> = Vec::with_capacity(engines.len());
    for (e, info) in engines.iter().enumerate() {
        let hops = match info.prev {
            Some(p) if p < e => (route[p].2 + 1).min(engines.len()),
            _ => std::iter::successors(info.prev, |&p| engines[p].prev)
                .take(engines.len())
                .count(),
        };
        route.push((false, info.fragment != 0, hops));
    }
    for info in engines.iter().filter(|e| matches!(e.role, Role::Sink | Role::BaseStation)) {
        for (d, other) in route.iter_mut().zip(engines) {
            d.0 |= other.fragment == info.fragment;
        }
    }
    let depth = |i: usize| (route[engine_of(i)], i);
    let ends = || (0..n).filter(|&i| !has_successor[i]);
    let deepest = ends().filter(|&i| !is_stub_dup(i)).max_by_key(|&i| depth(i));
    deepest.or_else(|| ends().max_by_key(|&i| depth(i)))
}

fn count_retransmissions(report: &PacketReport) -> usize {
    let mut per_engine: FxHashMap<u32, usize> = FxHashMap::default();
    for e in &report.flow.entries {
        if e.observed && matches!(e.payload.kind, EventKind::Trans { .. }) {
            *per_engine.entry(e.engine.0).or_insert(0) += 1;
        }
    }
    per_engine.values().map(|&c| c.saturating_sub(1)).sum()
}

/// Aggregate cause breakdown (Figure 9 / Section V-C).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CauseBreakdown {
    /// Lost-packet count per cause.
    pub counts: FxHashMap<DiagnosedCause, usize>,
    /// Number of lost packets.
    pub lost_total: usize,
    /// Number of delivered packets.
    pub delivered_total: usize,
}

impl CauseBreakdown {
    /// Build from diagnoses.
    pub fn from_diagnoses<'a>(diags: impl IntoIterator<Item = &'a Diagnosis>) -> Self {
        let mut out = CauseBreakdown::default();
        for d in diags {
            if d.delivered {
                out.delivered_total += 1;
            } else {
                out.lost_total += 1;
                let cause = d.cause.unwrap_or(DiagnosedCause::Unknown);
                *out.counts.entry(cause).or_insert(0) += 1;
            }
        }
        out
    }

    /// Percentage of lost packets attributed to `cause`.
    pub fn percent(&self, cause: DiagnosedCause) -> f64 {
        if self.lost_total == 0 {
            return 0.0;
        }
        100.0 * self.counts.get(&cause).copied().unwrap_or(0) as f64 / self.lost_total as f64
    }
}

/// Loss counts per position (node), per cause — the data behind Figures 5
/// and 8.
#[derive(Debug, Clone, Default)]
pub struct PositionBreakdown {
    /// `(node, cause) → count`.
    pub counts: FxHashMap<(NodeId, DiagnosedCause), usize>,
}

impl PositionBreakdown {
    /// Build from diagnoses (delivered and position-less entries skipped).
    pub fn from_diagnoses<'a>(diags: impl IntoIterator<Item = &'a Diagnosis>) -> Self {
        let mut out = PositionBreakdown::default();
        for d in diags {
            if let (Some(node), Some(cause)) = (d.loss_node, d.cause) {
                *out.counts.entry((node, cause)).or_insert(0) += 1;
            }
        }
        out
    }

    /// Total losses positioned at `node`.
    pub fn at_node(&self, node: NodeId) -> usize {
        self.counts
            .iter()
            .filter(|((n, _), _)| *n == node)
            .map(|(_, &c)| c)
            .sum()
    }

    /// Nodes sorted by descending loss count.
    pub fn hotspots(&self) -> Vec<(NodeId, usize)> {
        let mut per_node: FxHashMap<NodeId, usize> = FxHashMap::default();
        for ((n, _), &c) in &self.counts {
            *per_node.entry(*n).or_insert(0) += c;
        }
        let mut v: Vec<(NodeId, usize)> = per_node.into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{CtpVocabulary, Reconstructor};
    use eventlog::{merge_logs, LocalLog};

    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    fn pid() -> PacketId {
        PacketId::new(n(1), 0)
    }

    fn ev(node: u16, kind: EventKind) -> Event {
        Event::new(n(node), kind, pid())
    }

    fn diagnose(logs: Vec<LocalLog>) -> Diagnosis {
        let merged = merge_logs(&logs);
        let recon = Reconstructor::new(CtpVocabulary::table2());
        let report = recon.reconstruct_packet(pid(), &merged.by_packet()[&pid()]);
        Diagnoser::new().diagnose(&report, None)
    }

    #[test]
    fn acked_loss_when_recv_only_inferred() {
        // Table II Case 2: ack received, receiver logged nothing.
        let d = diagnose(vec![LocalLog::from_events(
            n(1),
            vec![
                ev(1, EventKind::Trans { to: n(2) }),
                ev(1, EventKind::AckRecvd { to: n(2) }),
            ],
        )]);
        assert_eq!(d.cause, Some(DiagnosedCause::Known(LossCause::AckedLoss)));
        assert_eq!(d.loss_node, Some(n(2)));
        assert!(!d.delivered);
    }

    #[test]
    fn received_loss_when_recv_observed() {
        let d = diagnose(vec![
            LocalLog::from_events(
                n(1),
                vec![
                    ev(1, EventKind::Trans { to: n(2) }),
                    ev(1, EventKind::AckRecvd { to: n(2) }),
                ],
            ),
            LocalLog::from_events(n(2), vec![ev(2, EventKind::Recv { from: n(1) })]),
        ]);
        assert_eq!(
            d.cause,
            Some(DiagnosedCause::Known(LossCause::ReceivedLoss))
        );
        assert_eq!(d.loss_node, Some(n(2)));
    }

    #[test]
    fn received_loss_at_last_known_position() {
        // Case 1: the last event is node 3's recv.
        let d = diagnose(vec![
            LocalLog::from_events(n(1), vec![ev(1, EventKind::Trans { to: n(2) })]),
            LocalLog::from_events(n(3), vec![ev(3, EventKind::Recv { from: n(2) })]),
        ]);
        assert_eq!(
            d.cause,
            Some(DiagnosedCause::Known(LossCause::ReceivedLoss))
        );
        assert_eq!(d.loss_node, Some(n(3)));
        assert_eq!(d.path_len, 3);
    }

    #[test]
    fn timeout_loss_from_timeout_event() {
        let d = diagnose(vec![LocalLog::from_events(
            n(1),
            vec![
                ev(1, EventKind::Trans { to: n(2) }),
                ev(1, EventKind::Trans { to: n(2) }),
                ev(1, EventKind::Timeout { to: n(2) }),
            ],
        )]);
        assert_eq!(d.cause, Some(DiagnosedCause::Known(LossCause::TimeoutLoss)));
        assert_eq!(d.loss_node, Some(n(1)));
        assert_eq!(d.retransmissions, 1);
    }

    #[test]
    fn trans_without_ack_is_a_link_loss() {
        let d = diagnose(vec![LocalLog::from_events(
            n(1),
            vec![ev(1, EventKind::Trans { to: n(2) })],
        )]);
        assert_eq!(d.cause, Some(DiagnosedCause::Known(LossCause::TimeoutLoss)));
        assert_eq!(d.loss_node, Some(n(1)));
    }

    #[test]
    fn overflow_and_dup_losses() {
        let d = diagnose(vec![
            LocalLog::from_events(n(1), vec![ev(1, EventKind::Trans { to: n(2) })]),
            LocalLog::from_events(n(2), vec![ev(2, EventKind::Overflow { from: n(1) })]),
        ]);
        assert_eq!(d.cause, Some(DiagnosedCause::Known(LossCause::OverflowLoss)));
        assert_eq!(d.loss_node, Some(n(2)));

        let d = diagnose(vec![
            LocalLog::from_events(n(1), vec![ev(1, EventKind::Trans { to: n(2) })]),
            LocalLog::from_events(n(2), vec![ev(2, EventKind::Dup { from: n(1) })]),
        ]);
        assert_eq!(
            d.cause,
            Some(DiagnosedCause::Known(LossCause::DuplicateLoss))
        );
    }

    #[test]
    fn serial_trans_splits_on_outage_schedule() {
        let logs = vec![LocalLog::from_events(
            n(0),
            vec![
                ev(0, EventKind::Recv { from: n(1) }),
                ev(0, EventKind::SerialTrans),
            ],
        )];
        let merged = merge_logs(&logs);
        let recon = Reconstructor::new(CtpVocabulary::table2()).with_sink(n(0));
        let report = recon.reconstruct_packet(pid(), &merged.by_packet()[&pid()]);

        let outage = (SimTime::from_secs(100), SimTime::from_secs(200));
        let diagnoser = Diagnoser::new().with_outages(vec![outage]);
        let during = diagnoser.diagnose(&report, Some(SimTime::from_secs(150)));
        assert_eq!(
            during.cause,
            Some(DiagnosedCause::Known(LossCause::ServerOutage))
        );
        let outside = diagnoser.diagnose(&report, Some(SimTime::from_secs(300)));
        assert_eq!(
            outside.cause,
            Some(DiagnosedCause::Known(LossCause::ReceivedLoss))
        );
        assert_eq!(outside.loss_node, Some(n(0)));
    }

    #[test]
    fn delivered_packet_has_no_cause() {
        let logs = vec![
            LocalLog::from_events(
                eventlog::event::BASE_STATION,
                vec![Event::new(eventlog::event::BASE_STATION, EventKind::BsRecv, pid())],
            ),
        ];
        let merged = merge_logs(&logs);
        let recon = Reconstructor::new(CtpVocabulary::table2()).with_sink(n(0));
        let report = recon.reconstruct_packet(pid(), &merged.by_packet()[&pid()]);
        let d = Diagnoser::new().diagnose(&report, None);
        assert!(d.delivered);
        assert_eq!(d.cause, None);
        assert_eq!(d.loss_node, None);
    }

    #[test]
    fn retransmission_dup_stub_does_not_decide_the_cause() {
        // The receiver accepted and forwarded, but a later retransmission
        // arrival was dup-dropped; the packet's real end is downstream.
        let d = diagnose(vec![
            LocalLog::from_events(
                n(1),
                vec![
                    ev(1, EventKind::Trans { to: n(2) }),
                    ev(1, EventKind::Trans { to: n(2) }),
                    ev(1, EventKind::AckRecvd { to: n(2) }),
                ],
            ),
            LocalLog::from_events(
                n(2),
                vec![
                    ev(2, EventKind::Recv { from: n(1) }),
                    ev(2, EventKind::Dup { from: n(1) }),
                    ev(2, EventKind::Trans { to: n(3) }),
                ],
            ),
            LocalLog::from_events(n(3), vec![ev(3, EventKind::Recv { from: n(2) })]),
        ]);
        assert_eq!(
            d.cause,
            Some(DiagnosedCause::Known(LossCause::ReceivedLoss)),
            "the dup stub must not win over node 3's recv"
        );
        assert_eq!(d.loss_node, Some(n(3)));
    }

    #[test]
    fn routing_loop_dup_is_a_duplicate_loss() {
        // 1 → 2 → 3 → 2: the loop's terminal dup at node 2 IS the packet's
        // end (the chain continuation), so the cause is duplicate loss.
        let d = diagnose(vec![
            LocalLog::from_events(
                n(1),
                vec![
                    ev(1, EventKind::Trans { to: n(2) }),
                    ev(1, EventKind::AckRecvd { to: n(2) }),
                ],
            ),
            LocalLog::from_events(
                n(2),
                vec![
                    ev(2, EventKind::Recv { from: n(1) }),
                    ev(2, EventKind::Trans { to: n(3) }),
                    ev(2, EventKind::AckRecvd { to: n(3) }),
                    ev(2, EventKind::Dup { from: n(3) }),
                ],
            ),
            LocalLog::from_events(
                n(3),
                vec![
                    ev(3, EventKind::Recv { from: n(2) }),
                    ev(3, EventKind::Trans { to: n(2) }),
                    ev(3, EventKind::AckRecvd { to: n(2) }),
                ],
            ),
        ]);
        assert_eq!(
            d.cause,
            Some(DiagnosedCause::Known(LossCause::DuplicateLoss)),
            "a loop-terminating dup decides the cause"
        );
        assert_eq!(d.loss_node, Some(n(2)));
    }

    #[test]
    fn empty_flow_is_unknown() {
        let merged = merge_logs(&[]);
        let _ = merged;
        let recon = Reconstructor::new(CtpVocabulary::table2());
        let report = recon.reconstruct_packet(pid(), &[]);
        let d = Diagnoser::new().diagnose(&report, None);
        assert_eq!(d.cause, Some(DiagnosedCause::Unknown));
        assert_eq!(d.loss_node, None);
        assert_eq!(d.path_len, 0);
    }

    #[test]
    fn breakdown_percentages_sum() {
        let mk = |cause, node: u16| Diagnosis {
            packet: pid(),
            delivered: false,
            cause: Some(DiagnosedCause::Known(cause)),
            loss_node: Some(n(node)),
            last_event: None,
            path_len: 1,
            retransmissions: 0,
        };
        let diags = vec![
            mk(LossCause::AckedLoss, 0),
            mk(LossCause::AckedLoss, 0),
            mk(LossCause::ReceivedLoss, 0),
            mk(LossCause::TimeoutLoss, 5),
        ];
        let b = CauseBreakdown::from_diagnoses(&diags);
        assert_eq!(b.lost_total, 4);
        assert!((b.percent(DiagnosedCause::Known(LossCause::AckedLoss)) - 50.0).abs() < 1e-9);
        let total: f64 = [
            LossCause::AckedLoss,
            LossCause::ReceivedLoss,
            LossCause::TimeoutLoss,
        ]
        .iter()
        .map(|&c| b.percent(DiagnosedCause::Known(c)))
        .sum();
        assert!((total - 100.0).abs() < 1e-9);
    }

    #[test]
    fn position_breakdown_finds_hotspots() {
        let mk = |cause, node: u16| Diagnosis {
            packet: pid(),
            delivered: false,
            cause: Some(DiagnosedCause::Known(cause)),
            loss_node: Some(n(node)),
            last_event: None,
            path_len: 1,
            retransmissions: 0,
        };
        let diags = vec![
            mk(LossCause::ReceivedLoss, 0),
            mk(LossCause::ReceivedLoss, 0),
            mk(LossCause::AckedLoss, 0),
            mk(LossCause::TimeoutLoss, 7),
        ];
        let p = PositionBreakdown::from_diagnoses(&diags);
        assert_eq!(p.at_node(n(0)), 3);
        assert_eq!(
            p.counts[&(n(0), DiagnosedCause::Known(LossCause::ReceivedLoss))],
            2
        );
        assert_eq!(p.hotspots()[0], (n(0), 3));
    }
}
