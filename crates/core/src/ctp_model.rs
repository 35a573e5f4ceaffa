//! The shipped CTP/LPL inference-engine model.
//!
//! This is the concrete instantiation of Figure 2 for the CitySee stack:
//! per node-visit FSM templates for the four roles a node can play in one
//! packet's life — *source*, *forwarder*, *sink* and the *base station* —
//! plus the mapping from logged [`EventKind`]s to FSM labels and the
//! synthesis of inferred lost events back into displayable [`Event`]s.
//!
//! The templates are parameterized by a [`CtpVocabulary`]: the FSM is
//! "generated according to the log positions" (Section IV-A), so only event
//! kinds the deployment actually logs appear as states/edges — otherwise
//! REFILL would infer losses of events that never existed.

use crate::fsm::{FsmBuilder, FsmTemplate, StateId, Transition};
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

/// The four role templates plus their landmark states.
///
/// Templates are interned behind [`Arc`] so every per-packet
/// [`ConnectedNet`](crate::net::ConnectedNet) built from one model shares
/// the same immutable template storage — registering a role in a net is a
/// refcount bump, not a deep copy of its transition tables.
#[derive(Debug, Clone)]
pub struct CtpModel {
    /// FSM for the packet's origin visit.
    pub source: Arc<FsmTemplate<HopLabel>>,
    /// Landmarks of [`CtpModel::source`].
    pub source_states: RoleStates,
    /// FSM for an intermediate forwarding visit.
    pub forwarder: Arc<FsmTemplate<HopLabel>>,
    /// Landmarks of [`CtpModel::forwarder`].
    pub forwarder_states: RoleStates,
    /// FSM for the sink's visit (radio in, serial out).
    pub sink: Arc<FsmTemplate<HopLabel>>,
    /// Landmarks of [`CtpModel::sink`].
    pub sink_states: RoleStates,
    /// FSM for the base station's record.
    pub bs: Arc<FsmTemplate<HopLabel>>,
    /// Landmarks of [`CtpModel::bs`].
    pub bs_states: RoleStates,
    /// The vocabulary the model was built from.
    pub vocabulary: CtpVocabulary,
}

impl CtpModel {
    /// Build the role templates for `vocabulary`.
    pub fn new(vocabulary: CtpVocabulary) -> Self {
        let (source, source_states) = build_radio_role("source", vocabulary, RoleKind::Source);
        let (forwarder, forwarder_states) =
            build_radio_role("forwarder", vocabulary, RoleKind::Forwarder);
        let (sink, sink_states) = build_sink(vocabulary);
        let (bs, bs_states) = build_bs();
        CtpModel {
            source: Arc::new(source),
            source_states,
            forwarder: Arc::new(forwarder),
            forwarder_states,
            sink: Arc::new(sink),
            sink_states,
            bs: Arc::new(bs),
            bs_states,
            vocabulary,
        }
    }
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

fn build_sink(_vocab: CtpVocabulary) -> (FsmTemplate<HopLabel>, RoleStates) {
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
        let f = &m.forwarder;
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
        let plan = m
            .forwarder
            .plan(m.forwarder.initial(), &HopLabel::AckRecvd)
            .unwrap();
        let labels: Vec<HopLabel> = plan
            .iter()
            .map(|t| m.forwarder.transition(*t).label)
            .collect();
        assert_eq!(
            labels,
            vec![HopLabel::Recv, HopLabel::Trans, HopLabel::AckRecvd]
        );
    }

    #[test]
    fn source_without_origin_logging_starts_at_trans() {
        let m = CtpModel::new(CtpVocabulary::table2());
        let s = &m.source;
        let plan = s.plan(s.initial(), &HopLabel::Trans).unwrap();
        assert_eq!(plan.len(), 1, "normal transition, nothing inferred");
    }

    #[test]
    fn source_with_origin_logging_infers_origin() {
        let m = CtpModel::new(CtpVocabulary::citysee());
        let s = &m.source;
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
        let plan = m
            .forwarder
            .plan(m.forwarder.initial(), &HopLabel::AckRecvd)
            .unwrap();
        let labels: Vec<HopLabel> = plan
            .iter()
            .map(|t| m.forwarder.transition(*t).label)
            .collect();
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
        let got = m.sink_states.got;
        assert!(m.sink.can_process(got, &HopLabel::SerialTrans));
        // Serial trans at Init jumps over a lost recv.
        let plan = m.sink.plan(m.sink.initial(), &HopLabel::SerialTrans).unwrap();
        assert_eq!(plan.len(), 2, "one lost event inferred");
        assert_eq!(m.sink.transition(plan[0]).label, HopLabel::Recv);
    }

    #[test]
    fn bs_template_is_single_shot() {
        let m = CtpModel::new(CtpVocabulary::citysee());
        assert_eq!(m.bs.state_count(), 2);
        assert!(m.bs.can_process(m.bs.initial(), &HopLabel::BsRecv));
        assert!(!m.bs.can_process(m.bs.initial(), &HopLabel::Recv));
    }

    #[test]
    fn no_ambiguities_in_role_templates() {
        for vocab in [
            CtpVocabulary::citysee(),
            CtpVocabulary::table2(),
            CtpVocabulary::full(),
        ] {
            let m = CtpModel::new(vocab);
            for (name, t) in [
                ("source", &m.source),
                ("forwarder", &m.forwarder),
                ("sink", &m.sink),
                ("bs", &m.bs),
            ] {
                assert!(
                    t.ambiguities().is_empty(),
                    "{name} template has ambiguities under {vocab:?}: {:?}",
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
            .forwarder
            .transitions()
            .iter()
            .find(|t| t.label == HopLabel::Recv)
            .unwrap();
        let e = synthesize_event(NodeId(2), Some(NodeId(1)), Some(NodeId(3)), p, recv_t);
        assert_eq!(e.to_string(), "1-2 recv");
        let trans_t = m
            .forwarder
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
