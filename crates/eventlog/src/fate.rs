//! Ground truth: what actually happened to every packet.
//!
//! The real CitySee deployment could never know this; the simulator records
//! it so the reproduction can *score* REFILL's reconstruction (precision and
//! recall of inferred events, cause-classification accuracy) in addition to
//! regenerating the paper's figures.

use crate::event::{Event, PacketId};
use crate::merge::PacketIndex;
use netsim::fx::FxHashMap;
use netsim::{NodeId, SimTime};
use std::fmt;

/// Why a packet was lost — the cause taxonomy of Section V-C / Figure 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LossCause {
    /// The packet was received (network layer logged it / would have logged
    /// it) at some node and then lost inside that node or on the sink's
    /// serial cable.
    ReceivedLoss,
    /// The hardware ACK reached the sender but the packet never made it up
    /// the receiver's stack (task-post failure, full MCU, …).
    AckedLoss,
    /// Retransmissions were exhausted without an ACK; the link dropped every
    /// attempt.
    TimeoutLoss,
    /// The packet was discarded as a duplicate (routing loop / lost-ACK
    /// retransmission collision).
    DuplicateLoss,
    /// The forwarding queue was full.
    OverflowLoss,
    /// The base-station server was down when the packet arrived over the
    /// serial link.
    ServerOutage,
}

netsim::json_enum!(LossCause {
    ReceivedLoss,
    AckedLoss,
    TimeoutLoss,
    DuplicateLoss,
    OverflowLoss,
    ServerOutage
});

impl LossCause {
    /// All causes, in the order used by the figures.
    pub const ALL: [LossCause; 6] = [
        LossCause::ReceivedLoss,
        LossCause::AckedLoss,
        LossCause::TimeoutLoss,
        LossCause::DuplicateLoss,
        LossCause::OverflowLoss,
        LossCause::ServerOutage,
    ];

    /// Short label for tables and plots.
    pub fn label(&self) -> &'static str {
        match self {
            LossCause::ReceivedLoss => "received",
            LossCause::AckedLoss => "acked",
            LossCause::TimeoutLoss => "timeout",
            LossCause::DuplicateLoss => "duplicated",
            LossCause::OverflowLoss => "overflow",
            LossCause::ServerOutage => "server outage",
        }
    }
}

impl fmt::Display for LossCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The final fate of one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketFate {
    /// Received by the base station.
    Delivered {
        /// When the base station logged it.
        at: SimTime,
    },
    /// Lost somewhere on the way.
    Lost {
        /// The node where the packet ceased to exist (for `TimeoutLoss` this
        /// is the sender that gave up; for `ServerOutage` it is the sink).
        at_node: NodeId,
        /// Why.
        cause: LossCause,
        /// When.
        at: SimTime,
    },
}

impl PacketFate {
    /// True if the packet reached the base station.
    pub fn delivered(&self) -> bool {
        matches!(self, PacketFate::Delivered { .. })
    }

    /// The loss cause, if lost.
    pub fn cause(&self) -> Option<LossCause> {
        match self {
            PacketFate::Lost { cause, .. } => Some(*cause),
            PacketFate::Delivered { .. } => None,
        }
    }

    /// The loss position, if lost.
    pub fn loss_node(&self) -> Option<NodeId> {
        match self {
            PacketFate::Lost { at_node, .. } => Some(*at_node),
            PacketFate::Delivered { .. } => None,
        }
    }
}

/// One event as it truly happened, with its true occurrence time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TruthEvent {
    /// True occurrence time.
    pub at: SimTime,
    /// The event.
    pub event: Event,
}

/// Complete ground truth of a simulation run.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    /// Every loggable event in true occurrence order (this includes events
    /// that later fail to be written to the local log).
    pub events: Vec<TruthEvent>,
    /// The fate of every packet that was generated.
    pub fates: FxHashMap<PacketId, PacketFate>,
    /// The true multi-hop path (node visit sequence) of every packet,
    /// starting at its origin.
    pub paths: FxHashMap<PacketId, Vec<NodeId>>,
}

impl GroundTruth {
    /// Record an event occurrence.
    pub fn record(&mut self, at: SimTime, event: Event) {
        debug_assert!(
            self.events.last().is_none_or(|last| last.at <= at),
            "ground-truth events must be recorded in time order"
        );
        self.events.push(TruthEvent { at, event });
    }

    /// Record a packet's fate (later records override earlier ones, so a
    /// packet that loops and is finally delivered ends up `Delivered`).
    pub fn set_fate(&mut self, packet: PacketId, fate: PacketFate) {
        self.fates.insert(packet, fate);
    }

    /// Append a node visit to a packet's true path.
    pub fn visit(&mut self, packet: PacketId, node: NodeId) {
        self.paths.entry(packet).or_default().push(node);
    }

    /// Number of generated packets.
    pub fn packet_count(&self) -> usize {
        self.fates.len()
    }

    /// Number of lost packets.
    pub fn lost_count(&self) -> usize {
        self.fates.values().filter(|f| !f.delivered()).count()
    }

    /// Delivery ratio over all packets.
    pub fn delivery_ratio(&self) -> f64 {
        if self.fates.is_empty() {
            return 1.0;
        }
        1.0 - self.lost_count() as f64 / self.fates.len() as f64
    }

    /// The true events grouped by packet, each packet's in occurrence order,
    /// as row numbers into [`GroundTruth::events`]
    /// ([`PacketIndex::group_rows`]).
    pub fn packet_rows(&self) -> PacketIndex<u32> {
        PacketIndex::group_rows(&self.events, |te| te.event.packet)
    }

    /// Count of losses per cause.
    pub fn losses_by_cause(&self) -> FxHashMap<LossCause, usize> {
        let mut out = FxHashMap::default();
        for fate in self.fates.values() {
            if let Some(cause) = fate.cause() {
                *out.entry(cause).or_insert(0) += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u16, s: u32) -> PacketId {
        PacketId::new(NodeId(n), s)
    }

    #[test]
    fn fate_accessors() {
        let d = PacketFate::Delivered {
            at: SimTime::from_secs(1),
        };
        assert!(d.delivered());
        assert_eq!(d.cause(), None);
        let l = PacketFate::Lost {
            at_node: NodeId(3),
            cause: LossCause::TimeoutLoss,
            at: SimTime::from_secs(2),
        };
        assert!(!l.delivered());
        assert_eq!(l.cause(), Some(LossCause::TimeoutLoss));
        assert_eq!(l.loss_node(), Some(NodeId(3)));
    }

    #[test]
    fn delivery_ratio_and_counts() {
        let mut gt = GroundTruth::default();
        gt.set_fate(pid(1, 0), PacketFate::Delivered { at: SimTime::ZERO });
        gt.set_fate(
            pid(1, 1),
            PacketFate::Lost {
                at_node: NodeId(2),
                cause: LossCause::OverflowLoss,
                at: SimTime::ZERO,
            },
        );
        gt.set_fate(
            pid(2, 0),
            PacketFate::Lost {
                at_node: NodeId(0),
                cause: LossCause::ReceivedLoss,
                at: SimTime::ZERO,
            },
        );
        assert_eq!(gt.packet_count(), 3);
        assert_eq!(gt.lost_count(), 2);
        assert!((gt.delivery_ratio() - 1.0 / 3.0).abs() < 1e-12);
        let by = gt.losses_by_cause();
        assert_eq!(by.get(&LossCause::OverflowLoss), Some(&1));
        assert_eq!(by.get(&LossCause::ReceivedLoss), Some(&1));
        assert_eq!(by.get(&LossCause::TimeoutLoss), None);
    }

    #[test]
    fn later_fate_overrides() {
        let mut gt = GroundTruth::default();
        gt.set_fate(
            pid(1, 0),
            PacketFate::Lost {
                at_node: NodeId(2),
                cause: LossCause::DuplicateLoss,
                at: SimTime::ZERO,
            },
        );
        gt.set_fate(pid(1, 0), PacketFate::Delivered { at: SimTime::ZERO });
        assert!(gt.fates[&pid(1, 0)].delivered());
    }

    #[test]
    fn empty_truth_has_full_delivery() {
        let gt = GroundTruth::default();
        assert_eq!(gt.delivery_ratio(), 1.0);
    }

    #[test]
    fn cause_labels_are_stable() {
        assert_eq!(LossCause::ReceivedLoss.label(), "received");
        assert_eq!(LossCause::ServerOutage.to_string(), "server outage");
        assert_eq!(LossCause::ALL.len(), 6);
    }
}
