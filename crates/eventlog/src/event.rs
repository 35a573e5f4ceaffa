//! The event model: `E = (V, L, I)`.
//!
//! `V` is the event type ([`EventKind`] variant), `L` is the recording node
//! ([`Event::node`]), and `I` is the related information — the packet
//! identity plus, for two-party operations, the peer node. This matches
//! Table I of the paper: `n1-n2 recv` becomes
//! `Event { node: n2, kind: Recv { from: n1 }, packet }`, and so on.
//!
//! Occurrence time is deliberately *not* part of the model; the simulator's
//! ground truth keeps true timestamps separately, and local logs may attach
//! skewed local timestamps, but REFILL never reads either.

use netsim::json::{expected, FromJson, Json, JsonError, ToJson};
use netsim::{json_struct, NodeId};
use std::fmt;

/// Per-origin packet sequence number.
pub type SeqNo = u32;

/// Globally unique packet identity: the originating node plus its
/// monotonically increasing sequence number. This is the paper's "related
/// packet" information `I`, present on every packet-bound event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PacketId {
    /// Node that generated the packet.
    pub origin: NodeId,
    /// Sequence number assigned by the origin.
    pub seqno: SeqNo,
}

json_struct!(PacketId { origin, seqno });

impl PacketId {
    /// Construct a packet id.
    pub fn new(origin: NodeId, seqno: SeqNo) -> Self {
        PacketId { origin, seqno }
    }
}

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.origin, self.seqno)
    }
}

/// The pseudo node id used for the base station (the PC behind the sink's
/// serial link). It keeps a reliable log of received data packets — in the
/// real deployment this is simply the collected-data database.
pub const BASE_STATION: NodeId = NodeId(u16::MAX);

/// Event types (`V`), with the peer node of two-party operations inlined as
/// the related information (`I`).
///
/// The first five variants are exactly Table I of the paper; the rest are
/// the additional kinds the CitySee evaluation needs (packet generation,
/// retransmission give-up, the sink's serial hop, and the base station's
/// receive record).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// The packet was received from `from`. Recorded on the receiver, in the
    /// network-layer receive handler (i.e. *after* the hardware ACK went
    /// out — a packet can be hardware-acked yet never reach this log
    /// statement; that is the paper's "acked loss").
    Recv {
        /// Previous-hop sender.
        from: NodeId,
    },
    /// No queue space for the packet from `from`; the packet was discarded.
    /// Recorded on the receiver.
    Overflow {
        /// Previous-hop sender.
        from: NodeId,
    },
    /// A duplicate of an already-seen packet arrived from `from` and was
    /// discarded (typically a symptom of routing loops or lost ACKs).
    /// Recorded on the receiver.
    Dup {
        /// Previous-hop sender.
        from: NodeId,
    },
    /// The packet was transmitted to `to`. Recorded on the sender; repeated
    /// for every retransmission attempt.
    Trans {
        /// Next-hop receiver.
        to: NodeId,
    },
    /// An acknowledgement for the packet sent to `to` was received.
    /// Recorded on the sender.
    AckRecvd {
        /// Next-hop receiver that acked.
        to: NodeId,
    },
    /// The packet was generated at this node (application layer).
    Origin,
    /// The packet was put into the forwarding queue.
    Enqueue,
    /// Retransmissions to `to` were exhausted and the packet was dropped.
    /// Recorded on the sender.
    Timeout {
        /// Next-hop receiver that never acked.
        to: NodeId,
    },
    /// The sink pushed the packet onto the RS232 serial link toward the
    /// backbone mesh node. Recorded on the sink.
    SerialTrans,
    /// The base station received the packet from the serial link. Recorded
    /// in the base station's (reliable) log.
    BsRecv,
    /// Application-layer delivery on a node (used by non-CTP protocols and
    /// custom FSMs).
    Deliver,
    /// An escape hatch for user-defined protocols: an opaque event type.
    Custom(u16),
}

impl EventKind {
    /// The peer node for two-party operations (`None` for local events).
    pub fn peer(&self) -> Option<NodeId> {
        match *self {
            EventKind::Recv { from }
            | EventKind::Overflow { from }
            | EventKind::Dup { from } => Some(from),
            EventKind::Trans { to }
            | EventKind::AckRecvd { to }
            | EventKind::Timeout { to } => Some(to),
            _ => None,
        }
    }

    /// True if this kind is recorded on the *receiving* side of a hop.
    pub fn is_receiver_side(&self) -> bool {
        matches!(
            self,
            EventKind::Recv { .. } | EventKind::Overflow { .. } | EventKind::Dup { .. }
        )
    }

    /// True if this kind is recorded on the *sending* side of a hop.
    pub fn is_sender_side(&self) -> bool {
        matches!(
            self,
            EventKind::Trans { .. } | EventKind::AckRecvd { .. } | EventKind::Timeout { .. }
        )
    }

    /// The hop `(sender, receiver)` this event is evidence of, given the node
    /// it was recorded on. Local events return `None`.
    pub fn hop(&self, recorded_on: NodeId) -> Option<(NodeId, NodeId)> {
        match *self {
            EventKind::Recv { from }
            | EventKind::Overflow { from }
            | EventKind::Dup { from } => Some((from, recorded_on)),
            EventKind::Trans { to }
            | EventKind::AckRecvd { to }
            | EventKind::Timeout { to } => Some((recorded_on, to)),
            _ => None,
        }
    }

    /// A dense, stable code for the event *type* with the peer information
    /// stripped — the `V` component alone. This is the signature input used
    /// by flow-shape hashing (`refill::sigcache::FlowSignature`): two events of
    /// the same kind with different peers share a code, so the peer must be
    /// folded in separately (alpha-renamed, in the signature's case).
    ///
    /// Codes are part of the signature definition: changing an existing
    /// assignment silently invalidates persisted signatures, so new kinds
    /// must take fresh codes. `const` so code-based dispatch tables (the
    /// columnar hot path) can name codes without magic numbers.
    pub const fn code(&self) -> u8 {
        match self {
            EventKind::Recv { .. } => 0,
            EventKind::Overflow { .. } => 1,
            EventKind::Dup { .. } => 2,
            EventKind::Trans { .. } => 3,
            EventKind::AckRecvd { .. } => 4,
            EventKind::Origin => 5,
            EventKind::Enqueue => 6,
            EventKind::Timeout { .. } => 7,
            EventKind::SerialTrans => 8,
            EventKind::BsRecv => 9,
            EventKind::Deliver => 10,
            EventKind::Custom(_) => 11,
        }
    }

    /// Rebuild a kind from its [`code`](Self::code), a peer, and a custom
    /// payload — the inverse of the columnar packing in
    /// `eventlog::columnar`. `peer` is ignored for kinds that carry none,
    /// `custom` for every kind but `Custom`. Returns `None` for codes no
    /// kind owns.
    pub fn from_parts(code: u8, peer: NodeId, custom: u16) -> Option<EventKind> {
        Some(match code {
            0 => EventKind::Recv { from: peer },
            1 => EventKind::Overflow { from: peer },
            2 => EventKind::Dup { from: peer },
            3 => EventKind::Trans { to: peer },
            4 => EventKind::AckRecvd { to: peer },
            5 => EventKind::Origin,
            6 => EventKind::Enqueue,
            7 => EventKind::Timeout { to: peer },
            8 => EventKind::SerialTrans,
            9 => EventKind::BsRecv,
            10 => EventKind::Deliver,
            11 => EventKind::Custom(custom),
            _ => return None,
        })
    }

    /// A short name matching the paper's notation.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Recv { .. } => "recv",
            EventKind::Overflow { .. } => "overflow",
            EventKind::Dup { .. } => "dup",
            EventKind::Trans { .. } => "trans",
            EventKind::AckRecvd { .. } => "ack recvd",
            EventKind::Origin => "origin",
            EventKind::Enqueue => "enqueue",
            EventKind::Timeout { .. } => "timeout",
            EventKind::SerialTrans => "serial trans",
            EventKind::BsRecv => "bs recv",
            EventKind::Deliver => "deliver",
            EventKind::Custom(_) => "custom",
        }
    }
}

/// Variant names by [`EventKind::code`], as a report's JSON spells them.
const VARIANT_NAMES: [&str; 12] = [
    "Recv",
    "Overflow",
    "Dup",
    "Trans",
    "AckRecvd",
    "Origin",
    "Enqueue",
    "Timeout",
    "SerialTrans",
    "BsRecv",
    "Deliver",
    "Custom",
];

/// The key a two-party kind's peer is written under.
fn peer_key(kind: &EventKind) -> &'static str {
    if kind.is_receiver_side() {
        "from"
    } else {
        "to"
    }
}

/// `"Origin"`, `{"Trans":{"to":2}}`, `{"Custom":9001}`: the variant's name,
/// alone for a local kind, else keying the peer or the payload.
impl ToJson for EventKind {
    fn to_json(&self) -> Json {
        let name = VARIANT_NAMES[usize::from(self.code())];
        match (*self, self.peer()) {
            (EventKind::Custom(payload), _) => Json::obj([(name, payload.to_json())]),
            (kind, Some(peer)) => {
                Json::obj([(name, Json::obj([(peer_key(&kind), peer.to_json())]))])
            }
            (_, None) => name.to_json(),
        }
    }
}

impl FromJson for EventKind {
    fn from_json(v: &Json) -> Result<EventKind, JsonError> {
        let bad = || expected("EventKind");
        let (name, body) = v.variant().ok_or_else(bad)?;
        let code = VARIANT_NAMES
            .iter()
            .position(|n| *n == name)
            .ok_or_else(bad)? as u8;
        // Decode with a placeholder argument to learn the variant's shape,
        // then again with the argument that shape carries.
        let arg: u16 = match EventKind::from_parts(code, NodeId(0), 0).ok_or_else(bad)? {
            EventKind::Custom(_) => u16::from_json(body)?,
            kind if kind.peer().is_some() => body.field(peer_key(&kind))?,
            kind if *body == Json::Null => return Ok(kind),
            _ => return Err(bad()),
        };
        EventKind::from_parts(code, NodeId(arg), arg).ok_or_else(bad)
    }
}

/// A recorded event: the paper's `E = (V, L, I)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Event {
    /// `L` — the node whose log contains this event.
    pub node: NodeId,
    /// `V` (+ peer part of `I`).
    pub kind: EventKind,
    /// Packet part of `I`.
    pub packet: PacketId,
}

json_struct!(Event { node, kind, packet });

impl Event {
    /// Construct an event.
    pub fn new(node: NodeId, kind: EventKind, packet: PacketId) -> Self {
        Event { node, kind, packet }
    }
}

impl fmt::Display for Event {
    /// Formats in the paper's `sender-receiver kind` notation where a hop is
    /// known, e.g. `1-2 trans`, otherwise `node kind`, e.g. `n3 origin`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind.hop(self.node) {
            Some((s, r)) => write!(f, "{}-{} {}", s.0, r.0, self.kind.name()),
            None => write!(f, "{} {}", self.node, self.kind.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid() -> PacketId {
        PacketId::new(NodeId(1), 7)
    }

    #[test]
    fn hop_orientation_receiver_side() {
        let k = EventKind::Recv { from: NodeId(1) };
        assert_eq!(k.hop(NodeId(2)), Some((NodeId(1), NodeId(2))));
        assert!(k.is_receiver_side());
        assert!(!k.is_sender_side());
    }

    #[test]
    fn hop_orientation_sender_side() {
        let k = EventKind::Trans { to: NodeId(2) };
        assert_eq!(k.hop(NodeId(1)), Some((NodeId(1), NodeId(2))));
        assert!(k.is_sender_side());
    }

    #[test]
    fn local_events_have_no_hop() {
        assert_eq!(EventKind::Origin.hop(NodeId(3)), None);
        assert_eq!(EventKind::Origin.peer(), None);
        assert_eq!(EventKind::SerialTrans.hop(NodeId(0)), None);
    }

    #[test]
    fn display_matches_paper_notation() {
        let e = Event::new(NodeId(1), EventKind::Trans { to: NodeId(2) }, pid());
        assert_eq!(e.to_string(), "1-2 trans");
        let e = Event::new(NodeId(2), EventKind::Recv { from: NodeId(1) }, pid());
        assert_eq!(e.to_string(), "1-2 recv");
        let e = Event::new(NodeId(1), EventKind::AckRecvd { to: NodeId(2) }, pid());
        assert_eq!(e.to_string(), "1-2 ack recvd");
        let e = Event::new(NodeId(3), EventKind::Origin, pid());
        assert_eq!(e.to_string(), "n3 origin");
    }

    #[test]
    fn packet_id_display_and_ordering() {
        let a = PacketId::new(NodeId(1), 1);
        let b = PacketId::new(NodeId(1), 2);
        let c = PacketId::new(NodeId(2), 0);
        assert!(a < b && b < c);
        assert_eq!(a.to_string(), "n1#1");
    }

    #[test]
    fn json_roundtrip_keeps_the_stored_report_spelling() {
        let e = Event::new(NodeId(2), EventKind::Dup { from: NodeId(9) }, pid());
        let s = e.to_json().to_compact().unwrap();
        assert_eq!(
            s,
            r#"{"node":2,"kind":{"Dup":{"from":9}},"packet":{"origin":1,"seqno":7}}"#
        );
        assert_eq!(netsim::json::decode(s.as_bytes()), Ok(e));
        for (kind, text) in [
            (EventKind::Origin, r#""Origin""#),
            (
                EventKind::Timeout { to: NodeId(3) },
                r#"{"Timeout":{"to":3}}"#,
            ),
            (EventKind::Custom(9001), r#"{"Custom":9001}"#),
        ] {
            assert_eq!(kind.to_json().to_compact().unwrap(), text);
            assert_eq!(netsim::json::decode(text.as_bytes()), Ok(kind));
        }
        // The right name over the wrong body is refused, not defaulted.
        for text in [
            r#"{"Origin":{"to":3}}"#,
            r#""Trans""#,
            r#"{"Trans":{"from":3}}"#,
            r#"{"Custom":{}}"#,
            r#""Nope""#,
        ] {
            assert!(
                netsim::json::decode::<EventKind>(text.as_bytes()).is_err(),
                "{text}"
            );
        }
    }

    #[test]
    fn base_station_is_reserved() {
        assert_eq!(BASE_STATION, NodeId(u16::MAX));
    }

    #[test]
    fn from_parts_inverts_code_for_every_kind() {
        let peer = NodeId(42);
        let kinds = [
            EventKind::Recv { from: peer },
            EventKind::Overflow { from: peer },
            EventKind::Dup { from: peer },
            EventKind::Trans { to: peer },
            EventKind::AckRecvd { to: peer },
            EventKind::Origin,
            EventKind::Enqueue,
            EventKind::Timeout { to: peer },
            EventKind::SerialTrans,
            EventKind::BsRecv,
            EventKind::Deliver,
            EventKind::Custom(9001),
        ];
        for kind in kinds {
            let custom = match kind {
                EventKind::Custom(c) => c,
                _ => 0,
            };
            let back = EventKind::from_parts(
                kind.code(),
                kind.peer().unwrap_or(NodeId(0)),
                custom,
            );
            assert_eq!(back, Some(kind));
        }
        assert_eq!(EventKind::from_parts(12, peer, 0), None);
        assert_eq!(EventKind::from_parts(u8::MAX, peer, 0), None);
    }
}
