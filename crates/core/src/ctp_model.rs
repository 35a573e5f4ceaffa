//! The shipped CTP/LPL inference-engine model: all the tracer
//! ([`crate::trace`]) knows of CTP.
//!
//! This is the concrete instantiation of Figure 2 for the CitySee stack:
//! one table of per node-visit FSM templates, indexed by the four [`Role`]s
//! a node can play in one packet's life — *source*, *forwarder*, *sink* and
//! the *base station* — plus which role a visit gets, what an event says
//! about a visit's hop, the inter-node rules (`CtpModel::add_rules`),
//! sink and delivery evidence, the mapping from logged [`EventKind`]s to
//! FSM labels, and the synthesis of inferred lost events back into
//! displayable [`Event`]s.
//!
//! The templates are parameterized by a [`CtpVocabulary`]: the FSM is
//! "generated according to the log positions" (Section IV-A), so only event
//! kinds the deployment actually logs appear as states/edges — otherwise
//! REFILL would infer losses of events that never existed.

use crate::fsm::{FsmBuilder, FsmTemplate, StateId, Transition};
use crate::net::{ConnectedNet, EngineId, InterRule};
use eventlog::event::BASE_STATION;
use eventlog::{Event, EventKind, PacketId};
use netsim::NodeId;
use std::sync::Arc;

/// Placeholder peer for inferred events whose counterparty is unknown
/// (e.g. a forced `recv` on an engine whose previous hop was never linked).
pub const UNKNOWN_NODE: NodeId = NodeId(u16::MAX - 1);

/// FSM labels for the CTP hop machine. This is [`EventKind`] with the peer
/// information stripped: the engine instance knows its own hop endpoints,
/// so the label only needs the event *type*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HopLabel {
    /// Packet generated.
    Origin,
    /// Packet received from the previous hop.
    Recv,
    /// Duplicate discarded.
    Dup,
    /// Queue overflow discard.
    Overflow,
    /// Packet enqueued for forwarding.
    Enqueue,
    /// Transmission (attempt) to the next hop.
    Trans,
    /// Acknowledgement received from the next hop.
    AckRecvd,
    /// Retransmissions exhausted.
    Timeout,
    /// Pushed onto the sink's serial link.
    SerialTrans,
    /// Received by the base station.
    BsRecv,
    /// Application-layer delivery.
    Deliver,
    /// User-defined.
    Custom(u16),
}

/// Map a logged event kind to its FSM label.
pub fn label_of(kind: &EventKind) -> HopLabel {
    match kind {
        EventKind::Origin => HopLabel::Origin,
        EventKind::Recv { .. } => HopLabel::Recv,
        EventKind::Dup { .. } => HopLabel::Dup,
        EventKind::Overflow { .. } => HopLabel::Overflow,
        EventKind::Enqueue => HopLabel::Enqueue,
        EventKind::Trans { .. } => HopLabel::Trans,
        EventKind::AckRecvd { .. } => HopLabel::AckRecvd,
        EventKind::Timeout { .. } => HopLabel::Timeout,
        EventKind::SerialTrans => HopLabel::SerialTrans,
        EventKind::BsRecv => HopLabel::BsRecv,
        EventKind::Deliver => HopLabel::Deliver,
        EventKind::Custom(c) => HopLabel::Custom(*c),
    }
}

/// Which optional log statements the deployment compiles in. The FSM is
/// built from exactly this vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtpVocabulary {
    /// The application logs an `origin` event when generating a packet.
    pub log_origin: bool,
    /// The forwarder logs an `enqueue` event.
    pub log_enqueue: bool,
}

impl CtpVocabulary {
    /// The CitySee deployment's vocabulary: origins are logged (they anchor
    /// the source view), enqueues are not.
    pub fn citysee() -> Self {
        CtpVocabulary {
            log_origin: true,
            log_enqueue: false,
        }
    }

    /// The minimal vocabulary of the paper's Table II examples: only
    /// trans / recv / ack-style events.
    pub fn table2() -> Self {
        CtpVocabulary {
            log_origin: false,
            log_enqueue: false,
        }
    }

    /// Everything on.
    pub fn full() -> Self {
        CtpVocabulary {
            log_origin: true,
            log_enqueue: true,
        }
    }
}

impl Default for CtpVocabulary {
    fn default() -> Self {
        CtpVocabulary::citysee()
    }
}

/// The role a node-visit engine plays for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The packet's origin (or a retransmission re-visit at the origin).
    Source,
    /// An intermediate forwarder.
    Forwarder,
    /// The sink (radio in, serial out).
    Sink,
    /// The base station behind the serial link.
    BaseStation,
}

netsim::json_enum!(Role {
    Source,
    Forwarder,
    Sink,
    BaseStation
});

impl Role {
    /// A visit in this role can have a next hop.
    pub(crate) fn sends(self) -> bool {
        self != Role::BaseStation
    }

    /// A visit in this role can have a previous hop.
    pub(crate) fn receives(self) -> bool {
        self != Role::Source
    }

    /// A visit in this role transmits over the radio (and so retransmits).
    pub(crate) fn transmits(self) -> bool {
        matches!(self, Role::Source | Role::Forwarder)
    }
}

/// Landmark states of one role template, resolved once at build time.
#[derive(Debug, Clone, Copy)]
pub struct RoleStates {
    /// State after the packet is held by the node (post `recv` / `origin`).
    pub got: StateId,
    /// State while transmitting to the next hop.
    pub sending: Option<StateId>,
    /// Terminal duplicate-drop state, if the role can dup-drop.
    pub dup_drop: Option<StateId>,
    /// State after the sink pushed onto the serial link, if applicable.
    pub serial_sent: Option<StateId>,
}

/// The four role templates plus their landmark states, in one table
/// indexed by [`Role`]. Templates are interned behind [`Arc`], so
/// registering a role in a per-packet [`ConnectedNet`] is a refcount bump.
#[derive(Debug, Clone)]
pub struct CtpModel {
    roles: [(Arc<FsmTemplate<HopLabel>>, RoleStates); 4],
}

impl CtpModel {
    /// Build the role templates for `vocabulary`.
    pub fn new(vocabulary: CtpVocabulary) -> Self {
        let radio = |name, kind| build_radio_role(name, vocabulary, kind);
        let role = |(template, states)| (Arc::new(template), states);
        CtpModel {
            roles: [
                role(radio("source", RoleKind::Source)),
                role(radio("forwarder", RoleKind::Forwarder)),
                role(build_sink()),
                role(build_bs()),
            ],
        }
    }

    /// The FSM a visit in `role` runs.
    pub fn template(&self, role: Role) -> &Arc<FsmTemplate<HopLabel>> {
        &self.roles[role as usize].0
    }

    /// The landmarks of [`CtpModel::template`]`(role)`.
    pub fn landmarks(&self, role: Role) -> RoleStates {
        self.roles[role as usize].1
    }

    /// Remove every derived intra-node jump (the `intra_jumps` ablation);
    /// landmarks are normal states and stay put.
    pub(crate) fn strip_intra(&mut self) {
        for (template, _) in &mut self.roles {
            *template = Arc::new(template.strip_intra());
        }
    }

    /// Register the four templates in a freshly reset `net`: a role's
    /// template index there is `role as usize`.
    pub(crate) fn register(&self, net: &mut ConnectedNet<HopLabel, Event>) {
        for (template, _) in &self.roles {
            net.add_template(Arc::clone(template));
        }
    }

    /// Wire the inter-node rules of `engine`, a visit in `role`, to its
    /// linked neighbours (engine, role): a `recv` / `dup` needs the previous
    /// hop's `Sending`, a `bs recv` the sink's `SerialSent`, and an `ack
    /// recvd` the next hop to have got (or knowingly dropped) the packet.
    pub(crate) fn add_rules(
        &self,
        net: &mut ConnectedNet<HopLabel, Event>,
        engine: EngineId,
        role: Role,
        prev: Option<(EngineId, Role)>,
        next: Option<(EngineId, Role)>,
    ) {
        if let Some((pe, prev_role)) = prev {
            let landmarks = self.landmarks(prev_role);
            match role {
                Role::Forwarder | Role::Sink => {
                    if let Some(sending) = landmarks.sending {
                        for label in [HopLabel::Recv, HopLabel::Dup] {
                            net.add_rule(engine, label, InterRule::new(pe, &[sending], sending));
                        }
                    }
                }
                Role::BaseStation => {
                    if let Some(serial) = landmarks.serial_sent {
                        let rule = InterRule::new(pe, &[serial], serial);
                        net.add_rule(engine, HopLabel::BsRecv, rule);
                    }
                }
                Role::Source => {}
            }
        }
        if let Some((ne, next_role)) = next.filter(|_| role.transmits()) {
            let ns = self.landmarks(next_role);
            let rule = match ns.dup_drop {
                Some(dup_drop) => InterRule::new(ne, &[ns.got, dup_drop], ns.got),
                None => InterRule::new(ne, &[ns.got], ns.got),
            };
            net.add_rule(engine, HopLabel::AckRecvd, rule);
        }
    }
}

/// The role of a visit spawned at `node` by `ev`, when `visits_so_far`
/// visits of this packet already exist there.
pub(crate) fn spawn_role(
    packet: PacketId,
    node: NodeId,
    sink: Option<NodeId>,
    visits_so_far: u32,
    ev: &Event,
) -> Role {
    if node == BASE_STATION {
        Role::BaseStation
    } else if Some(node) == sink {
        Role::Sink
    } else if node == packet.origin && (visits_so_far == 0 || ev.kind.is_sender_side()) {
        // First visit at the origin is the source; later visits are the
        // source again for sender-side evidence (a retransmission
        // sequence, Case 3) or a forwarder for receiver-side evidence
        // (a genuine routing loop back to the origin, Case 4).
        Role::Source
    } else {
        Role::Forwarder
    }
}

/// The role of a phantom visit at `node`: a hop that a receiver's entry
/// evidence names as its `sender` (or a sender's exit evidence names as its
/// receiver) but whose own log contributed nothing.
pub(crate) fn phantom_role(
    node: NodeId,
    sender: bool,
    packet: PacketId,
    sink: Option<NodeId>,
) -> Role {
    if sender && node == packet.origin {
        Role::Source
    } else if !sender && node == BASE_STATION {
        Role::BaseStation
    } else if Some(node) == sink {
        Role::Sink
    } else {
        Role::Forwarder
    }
}

/// What a visit's accepted events say about its hop.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct HopEvidence {
    pub(crate) entry_from: Option<NodeId>,
    /// True when the entry evidence is a `dup` — a retransmission
    /// duplicate, whose "sender" is an existing visit retransmitting, not a
    /// new hop.
    pub(crate) entry_is_dup: bool,
    pub(crate) exit_to: Option<NodeId>,
    exit_frozen: bool,
}

impl HopEvidence {
    /// The node a visit in `role` took the packet from: its entry
    /// evidence's sender; the sink, always, for the base station.
    pub(crate) fn upstream(&self, role: Role, sink: Option<NodeId>) -> Option<NodeId> {
        match role {
            Role::Forwarder | Role::Sink => self.entry_from,
            Role::BaseStation => sink,
            Role::Source => None,
        }
    }

    /// Whether a visit at `node` in `role` sent the packet to `target`: its
    /// exit evidence names `target`, or it is the sink and `target` the
    /// base station behind its serial link.
    pub(crate) fn exits_to(&self, role: Role, node: NodeId, target: NodeId) -> bool {
        self.exit_to == Some(target)
            || (node != BASE_STATION && target == BASE_STATION && role == Role::Sink)
    }

    /// Update hop evidence with an accepted event.
    pub(crate) fn accept(&mut self, kind: &EventKind) {
        match *kind {
            EventKind::Recv { from } | EventKind::Dup { from } | EventKind::Overflow { from }
                if self.entry_from.is_none() => {
                    self.entry_from = Some(from);
                    self.entry_is_dup = matches!(kind, EventKind::Dup { .. });
                }
            EventKind::Trans { to } | EventKind::Timeout { to }
                // A node may re-route mid-visit (parent change): the latest
                // target wins, unless an ack already froze the hop.
                if !self.exit_frozen => {
                    self.exit_to = Some(to);
                }
            EventKind::AckRecvd { to } => {
                self.exit_to = Some(to);
                self.exit_frozen = true;
            }
            EventKind::SerialTrans
                if !self.exit_frozen => {
                    self.exit_to = Some(BASE_STATION);
                }
            _ => {}
        }
    }
}

/// The sink an event group names: the least `serial trans` recorder, so
/// that no interleave of the group can name another.
pub(crate) fn sink_of(events: &[Event]) -> Option<NodeId> {
    events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::SerialTrans))
        .map(|e| e.node)
        .min()
}

/// True if the base station logged the packet.
pub(crate) fn delivered(events: &[Event]) -> bool {
    events.iter().any(|e| matches!(e.kind, EventKind::BsRecv))
}

enum RoleKind {
    Source,
    Forwarder,
}

/// Source and forwarder share the radio-out structure and differ in how the
/// packet arrives (generated vs received).
fn build_radio_role(
    name: &str,
    vocab: CtpVocabulary,
    kind: RoleKind,
) -> (FsmTemplate<HopLabel>, RoleStates) {
    let mut b = FsmBuilder::new(name);
    let init = b.state("Init");

    // Entry.
    let (got, dup_drop) = match kind {
        RoleKind::Source => {
            if vocab.log_origin {
                let got = b.state("Got");
                b.t(init, HopLabel::Origin, got);
                (got, None)
            } else {
                // The first logged statement is the trans itself.
                (init, None)
            }
        }
        RoleKind::Forwarder => {
            let got = b.state("Got");
            let dup = b.state("DupDrop");
            b.t(init, HopLabel::Recv, got);
            b.t(init, HopLabel::Dup, dup);
            (got, Some(dup))
        }
    };

    // Queueing.
    let ready = if vocab.log_enqueue {
        let queued = b.state("Queued");
        b.t(got, HopLabel::Enqueue, queued);
        queued
    } else {
        got
    };
    let ovf = b.state("OvfDrop");
    b.t(got, HopLabel::Overflow, ovf);

    // Radio out.
    let sending = b.state("Sending");
    let acked = b.state("Acked");
    let timeout = b.state("TimeoutDrop");
    b.t(ready, HopLabel::Trans, sending)
        .t(sending, HopLabel::Trans, sending)
        .t(sending, HopLabel::AckRecvd, acked)
        .t(sending, HopLabel::Timeout, timeout);

    let template = b.build().expect("role template is deterministic");
    let states = RoleStates {
        got,
        sending: Some(sending),
        dup_drop,
        serial_sent: None,
    };
    (template, states)
}

fn build_sink() -> (FsmTemplate<HopLabel>, RoleStates) {
    let mut b = FsmBuilder::new("sink");
    let init = b.state("Init");
    let got = b.state("Got");
    let dup = b.state("DupDrop");
    let ovf = b.state("OvfDrop");
    let serial = b.state("SerialSent");
    b.t(init, HopLabel::Recv, got)
        .t(init, HopLabel::Dup, dup)
        .t(got, HopLabel::Overflow, ovf)
        .t(got, HopLabel::SerialTrans, serial);
    let template = b.build().expect("sink template is deterministic");
    let states = RoleStates {
        got,
        sending: None,
        dup_drop: Some(dup),
        serial_sent: Some(serial),
    };
    (template, states)
}

fn build_bs() -> (FsmTemplate<HopLabel>, RoleStates) {
    let mut b = FsmBuilder::new("base-station");
    let init = b.state("Init");
    let done = b.state("Received");
    b.t(init, HopLabel::BsRecv, done);
    let template = b.build().expect("bs template is deterministic");
    let states = RoleStates {
        got: done,
        sending: None,
        dup_drop: None,
        serial_sent: None,
    };
    (template, states)
}

/// Synthesize a displayable [`Event`] for an inferred lost transition on an
/// engine whose hop endpoints are known.
pub fn synthesize_event(
    node: NodeId,
    prev: Option<NodeId>,
    next: Option<NodeId>,
    packet: PacketId,
    trans: &Transition<HopLabel>,
) -> Event {
    let kind = match trans.label {
        HopLabel::Origin => EventKind::Origin,
        HopLabel::Recv => EventKind::Recv {
            from: prev.unwrap_or(UNKNOWN_NODE),
        },
        HopLabel::Dup => EventKind::Dup {
            from: prev.unwrap_or(UNKNOWN_NODE),
        },
        HopLabel::Overflow => EventKind::Overflow {
            from: prev.unwrap_or(UNKNOWN_NODE),
        },
        HopLabel::Enqueue => EventKind::Enqueue,
        HopLabel::Trans => EventKind::Trans {
            to: next.unwrap_or(UNKNOWN_NODE),
        },
        HopLabel::AckRecvd => EventKind::AckRecvd {
            to: next.unwrap_or(UNKNOWN_NODE),
        },
        HopLabel::Timeout => EventKind::Timeout {
            to: next.unwrap_or(UNKNOWN_NODE),
        },
        HopLabel::SerialTrans => EventKind::SerialTrans,
        HopLabel::BsRecv => EventKind::BsRecv,
        HopLabel::Deliver => EventKind::Deliver,
        HopLabel::Custom(c) => EventKind::Custom(c),
    };
    let node = if matches!(trans.label, HopLabel::BsRecv) {
        BASE_STATION
    } else {
        node
    };
    Event::new(node, kind, packet)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_mapping_covers_all_kinds() {
        let n = NodeId(3);
        assert_eq!(label_of(&EventKind::Recv { from: n }), HopLabel::Recv);
        assert_eq!(label_of(&EventKind::Trans { to: n }), HopLabel::Trans);
        assert_eq!(label_of(&EventKind::AckRecvd { to: n }), HopLabel::AckRecvd);
        assert_eq!(label_of(&EventKind::Dup { from: n }), HopLabel::Dup);
        assert_eq!(label_of(&EventKind::Overflow { from: n }), HopLabel::Overflow);
        assert_eq!(label_of(&EventKind::Timeout { to: n }), HopLabel::Timeout);
        assert_eq!(label_of(&EventKind::Origin), HopLabel::Origin);
        assert_eq!(label_of(&EventKind::Enqueue), HopLabel::Enqueue);
        assert_eq!(label_of(&EventKind::SerialTrans), HopLabel::SerialTrans);
        assert_eq!(label_of(&EventKind::BsRecv), HopLabel::BsRecv);
        assert_eq!(label_of(&EventKind::Deliver), HopLabel::Deliver);
        assert_eq!(label_of(&EventKind::Custom(7)), HopLabel::Custom(7));
    }

    #[test]
    fn forwarder_template_shape() {
        let m = CtpModel::new(CtpVocabulary::citysee());
        let f = m.template(Role::Forwarder);
        let init = f.initial();
        // Entry alternatives.
        assert!(f.can_process(init, &HopLabel::Recv));
        assert!(f.can_process(init, &HopLabel::Dup));
        // Intra jumps derived for lost prefixes.
        assert!(f.can_process(init, &HopLabel::Trans));
        assert!(f.can_process(init, &HopLabel::AckRecvd));
        assert!(f.can_process(init, &HopLabel::Overflow));
        assert!(f.can_process(init, &HopLabel::Timeout));
        // No enqueue in the CitySee vocabulary.
        assert!(!f.can_process(init, &HopLabel::Enqueue));
    }

    #[test]
    fn intra_jump_infers_recv_then_trans_for_ack() {
        let m = CtpModel::new(CtpVocabulary::citysee());
        let f = m.template(Role::Forwarder);
        let plan = f.plan(f.initial(), &HopLabel::AckRecvd).unwrap();
        let labels: Vec<HopLabel> = plan.iter().map(|t| f.transition(*t).label).collect();
        assert_eq!(
            labels,
            vec![HopLabel::Recv, HopLabel::Trans, HopLabel::AckRecvd]
        );
    }

    #[test]
    fn source_without_origin_logging_starts_at_trans() {
        let m = CtpModel::new(CtpVocabulary::table2());
        let s = m.template(Role::Source);
        let plan = s.plan(s.initial(), &HopLabel::Trans).unwrap();
        assert_eq!(plan.len(), 1, "normal transition, nothing inferred");
    }

    #[test]
    fn source_with_origin_logging_infers_origin() {
        let m = CtpModel::new(CtpVocabulary::citysee());
        let s = m.template(Role::Source);
        let plan = s.plan(s.initial(), &HopLabel::Trans).unwrap();
        assert_eq!(plan.len(), 2, "one lost event inferred");
        assert_eq!(
            s.transition(plan[0]).label,
            HopLabel::Origin,
            "lost origin inferred before the trans"
        );
    }

    #[test]
    fn enqueue_vocabulary_extends_lost_paths() {
        let m = CtpModel::new(CtpVocabulary::full());
        let f = m.template(Role::Forwarder);
        let plan = f.plan(f.initial(), &HopLabel::AckRecvd).unwrap();
        let labels: Vec<HopLabel> = plan.iter().map(|t| f.transition(*t).label).collect();
        assert_eq!(
            labels,
            vec![
                HopLabel::Recv,
                HopLabel::Enqueue,
                HopLabel::Trans,
                HopLabel::AckRecvd
            ]
        );
    }

    #[test]
    fn sink_template_has_serial_exit() {
        let m = CtpModel::new(CtpVocabulary::citysee());
        let sink = m.template(Role::Sink);
        let got = m.landmarks(Role::Sink).got;
        assert!(sink.can_process(got, &HopLabel::SerialTrans));
        // Serial trans at Init jumps over a lost recv.
        let plan = sink.plan(sink.initial(), &HopLabel::SerialTrans).unwrap();
        assert_eq!(plan.len(), 2, "one lost event inferred");
        assert_eq!(sink.transition(plan[0]).label, HopLabel::Recv);
    }

    #[test]
    fn bs_template_is_single_shot() {
        let m = CtpModel::new(CtpVocabulary::citysee());
        let bs = m.template(Role::BaseStation);
        assert_eq!(bs.state_count(), 2);
        assert!(bs.can_process(bs.initial(), &HopLabel::BsRecv));
        assert!(!bs.can_process(bs.initial(), &HopLabel::Recv));
    }

    #[test]
    fn no_ambiguities_in_role_templates() {
        for vocab in [
            CtpVocabulary::citysee(),
            CtpVocabulary::table2(),
            CtpVocabulary::full(),
        ] {
            let m = CtpModel::new(vocab);
            for role in [Role::Source, Role::Forwarder, Role::Sink, Role::BaseStation] {
                let t = m.template(role);
                assert!(
                    t.ambiguities().is_empty(),
                    "{role:?} template has ambiguities under {vocab:?}: {:?}",
                    t.ambiguities()
                );
            }
        }
    }

    #[test]
    fn synthesis_builds_correct_events() {
        let m = CtpModel::new(CtpVocabulary::citysee());
        let p = PacketId::new(NodeId(5), 1);
        let recv_t = m
            .template(Role::Forwarder)
            .transitions()
            .iter()
            .find(|t| t.label == HopLabel::Recv)
            .unwrap();
        let e = synthesize_event(NodeId(2), Some(NodeId(1)), Some(NodeId(3)), p, recv_t);
        assert_eq!(e.to_string(), "1-2 recv");
        let trans_t = m
            .template(Role::Forwarder)
            .transitions()
            .iter()
            .find(|t| t.label == HopLabel::Trans)
            .unwrap();
        let e = synthesize_event(NodeId(2), Some(NodeId(1)), Some(NodeId(3)), p, trans_t);
        assert_eq!(e.to_string(), "2-3 trans");
        let e = synthesize_event(NodeId(2), None, None, p, trans_t);
        assert_eq!(e.kind, EventKind::Trans { to: UNKNOWN_NODE });
    }
}
