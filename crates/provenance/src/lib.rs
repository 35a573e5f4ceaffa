//! Per-flow provenance: the evidence trail behind one reconstruction.
//!
//! REFILL's output is only as trustworthy as the inferences behind it — an
//! operator acting on "this packet died at node 14 of a queue overflow"
//! needs to know *which* of those events were actually logged and which
//! the engines synthesized, and by which rule. A report carries that trail
//! itself (one [`EntryOrigin`] per flow entry); this crate names its parts:
//!
//! * [`EntryOrigin`] — how one flow entry came to exist: observed in a
//!   log, inferred by an intra-node jump transition, or inferred while
//!   forcing an inter-node prerequisite on a peer engine.
//! * [`FlowProvenance`] — one packet's event timeline with per-event
//!   origins, and the [confidence score](FlowProvenance::confidence)
//!   derived from it.
//! * [`CacheDisposition`] — which signature-cache path produced a report,
//!   for a caller of `refill::explain` that knows it.
//!
//! The crate speaks in `eventlog` types only; the reconstructor builds a
//! [`FlowProvenance`] from a report it emitted.

use eventlog::{Event, PacketId};

/// How a flow entry came to exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntryOrigin {
    /// Present in a collected log: the entry is evidence, not inference.
    Observed,
    /// Inferred by an intra-node jump transition — the engine skipped over
    /// lost events of its *own* node's log to reach a state a later
    /// observed event required (Section IV-B derived transitions).
    IntraJump,
    /// Inferred while forcing an inter-node prerequisite — a peer engine
    /// was driven to a state some other node's evidence required (e.g. a
    /// `recv` forcing the sender's `Sending`).
    InterForced,
}

netsim::json_enum!(EntryOrigin {
    Observed,
    IntraJump,
    InterForced
});

impl EntryOrigin {
    /// Stable snake_case name used in JSON narratives.
    pub fn name(self) -> &'static str {
        match self {
            EntryOrigin::Observed => "observed",
            EntryOrigin::IntraJump => "intra_jump",
            EntryOrigin::InterForced => "inter_forced",
        }
    }
}

/// Which signature-cache path produced a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheDisposition {
    /// Reconstructed by running the engines on this group (cache miss, or
    /// no cache in the path at all).
    Direct,
    /// Rehydrated from a previously published node-abstract template.
    Rehydrated,
    /// The group was cache-ineligible (oversized or malformed) and fell
    /// back to direct reconstruction.
    Uncacheable,
}

impl CacheDisposition {
    /// Stable snake_case name used in JSON narratives.
    pub fn name(self) -> &'static str {
        match self {
            CacheDisposition::Direct => "direct",
            CacheDisposition::Rehydrated => "rehydrated",
            CacheDisposition::Uncacheable => "uncacheable",
        }
    }
}

/// One event of a flow with its origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventProvenance {
    /// The event (observed or synthesized).
    pub event: Event,
    /// How it came to exist.
    pub origin: EntryOrigin,
}

/// One packet's provenance: what its report says about where each flow
/// entry came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowProvenance {
    /// The packet.
    pub packet: PacketId,
    /// The flow's events in linearization order, each with its origin.
    pub entries: Vec<EventProvenance>,
}

impl FlowProvenance {
    /// Pair a flow's events with their origins.
    pub fn new(packet: PacketId, entries: impl IntoIterator<Item = (Event, EntryOrigin)>) -> Self {
        FlowProvenance {
            packet,
            entries: entries
                .into_iter()
                .map(|(event, origin)| EventProvenance { event, origin })
                .collect(),
        }
    }

    /// Number of observed entries.
    pub fn observed_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.origin == EntryOrigin::Observed)
            .count()
    }

    /// Number of inferred entries (intra-jump + inter-forced).
    pub fn inferred_count(&self) -> usize {
        self.entries.len() - self.observed_count()
    }

    /// Number of intra-node jump inferences.
    pub fn jump_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.origin == EntryOrigin::IntraJump)
            .count()
    }

    /// Number of inter-node forced inferences.
    pub fn forced_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.origin == EntryOrigin::InterForced)
            .count()
    }

    /// Confidence in `[0, 1]`: the observed fraction of the flow, damped
    /// by how much of it rests on inference. Intra-node jumps replay
    /// *derived* transitions of the node's own machine and are the
    /// stronger kind of inference; inter-node forcing rests on a peer's
    /// evidence and weighs double:
    ///
    /// ```text
    /// confidence = (observed / total) / (1 + (0.5·jumps + forced) / total)
    /// ```
    ///
    /// A fully observed flow scores exactly 1.0; an empty flow scores 0.0
    /// (nothing was reconstructed, so there is nothing to trust).
    pub fn confidence(&self) -> f64 {
        let total = self.entries.len();
        if total == 0 {
            return 0.0;
        }
        let observed = self.observed_count() as f64;
        let jumps = self.jump_count() as f64;
        let forced = self.forced_count() as f64;
        let total = total as f64;
        (observed / total) / (1.0 + (0.5 * jumps + forced) / total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventlog::EventKind;
    use netsim::NodeId;

    fn flow_with(origins: &[EntryOrigin]) -> FlowProvenance {
        let packet = PacketId::new(NodeId(1), 0);
        let event = Event::new(NodeId(1), EventKind::Origin, packet);
        FlowProvenance::new(packet, origins.iter().map(|&o| (event, o)))
    }

    #[test]
    fn counts_split_by_origin() {
        use EntryOrigin::*;
        let f = flow_with(&[Observed, IntraJump, InterForced, Observed, IntraJump]);
        assert_eq!(f.entries.len(), 5);
        assert_eq!(f.observed_count(), 2);
        assert_eq!(f.inferred_count(), 3);
        assert_eq!(f.jump_count(), 2);
        assert_eq!(f.forced_count(), 1);
    }

    #[test]
    fn confidence_bounds() {
        use EntryOrigin::*;
        assert_eq!(flow_with(&[]).confidence(), 0.0);
        assert_eq!(flow_with(&[Observed, Observed]).confidence(), 1.0);
        let mixed = flow_with(&[Observed, IntraJump, InterForced]).confidence();
        assert!(mixed > 0.0 && mixed < 1.0, "mixed flow in (0,1): {mixed}");
        // Forcing weighs more than jumping at the same inferred count.
        let jumpy = flow_with(&[Observed, IntraJump]).confidence();
        let forced = flow_with(&[Observed, InterForced]).confidence();
        assert!(jumpy > forced, "jump {jumpy} must outrank forced {forced}");
        // All-inferred flows score low but nonzero (they still exist).
        let blind = flow_with(&[InterForced, InterForced]).confidence();
        assert_eq!(blind, 0.0, "no observed evidence, no confidence");
    }

    /// Of this crate's types only the origin reaches a file (a stored
    /// report carries one per flow entry), under its variant name.
    #[test]
    fn provenance_serializes_roundtrip() {
        use netsim::json::{decode, ToJson};
        use EntryOrigin::*;
        let origins = vec![Observed, IntraJump, InterForced];
        let json = origins.to_json().to_compact().unwrap();
        assert_eq!(json, r#"["Observed","IntraJump","InterForced"]"#);
        assert_eq!(decode(json.as_bytes()), Ok(origins));
    }
}
