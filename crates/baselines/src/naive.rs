//! The single-node protocol-semantics strawman (Section III).
//!
//! "If a node records a trans event and does not have an ack event for a
//! packet, this packet is considered lost on that node" — applied per node,
//! per packet, with no cross-node reasoning and no tolerance for missing
//! events. The paper's Table II cases show exactly how this goes wrong:
//! in Case 1 it declares the packet lost at node 1 even though node 3
//! provably received it.
//!
//! The rule needs nothing but one packet's events, so it is a function of
//! that slice ([`naive_claim`]): whoever already walks the log packet by
//! packet — `citysee::analyze` does — asks it there, and
//! [`naive_diagnose`] is the packet index plus that function.

use eventlog::{Event, EventKind, MergedLog, PacketId};
use netsim::NodeId;

/// The naive per-node verdict for one packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaiveDiagnosis {
    /// The packet.
    pub packet: PacketId,
    /// Whether the analysis thinks the packet was lost.
    pub lost: bool,
    /// Where (the first node whose log shows a trans without a matching
    /// ack, scanning nodes in id order).
    pub claimed_node: Option<NodeId>,
}

/// The node the naive analysis blames for losing a packet, given all of
/// that packet's events in any order.
///
/// Per node, count `trans` versus `ack recvd` events: any node with more
/// trans than acks "lost" the packet; the lowest such node id is blamed.
/// `None` means the packet is considered fine. A packet touches a handful
/// of nodes, so the per-node balances are a short list searched linearly.
pub fn naive_claim(events: &[Event]) -> Option<NodeId> {
    let mut balances: Vec<(NodeId, isize)> = Vec::new();
    for e in events {
        let delta = match e.kind {
            EventKind::Trans { .. } => 1,
            EventKind::AckRecvd { .. } => -1,
            _ => continue,
        };
        match balances.iter_mut().find(|(node, _)| *node == e.node) {
            Some((_, balance)) => *balance += delta,
            None => balances.push((e.node, delta)),
        }
    }
    balances
        .iter()
        .filter(|(_, balance)| *balance > 0)
        .map(|(node, _)| *node)
        .min()
}

/// Run the naive analysis on a merged log: one verdict per packet the log
/// mentions (a packet seen only through non-trans events is "not lost"),
/// in packet-id order.
pub fn naive_diagnose(merged: &MergedLog) -> Vec<NaiveDiagnosis> {
    merged
        .packet_index()
        .iter()
        .map(|(packet, events)| {
            let claimed_node = naive_claim(events);
            NaiveDiagnosis {
                packet,
                lost: claimed_node.is_some(),
                claimed_node,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventlog::{merge_logs, LocalLog};

    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    fn pid(s: u32) -> PacketId {
        PacketId::new(n(1), s)
    }

    #[test]
    fn trans_with_ack_is_fine() {
        let merged = merge_logs(&[LocalLog::from_events(
            n(1),
            vec![
                Event::new(n(1), EventKind::Trans { to: n(2) }, pid(0)),
                Event::new(n(1), EventKind::AckRecvd { to: n(2) }, pid(0)),
            ],
        )]);
        let v = naive_diagnose(&merged);
        assert_eq!(v.len(), 1);
        assert!(!v[0].lost);
    }

    #[test]
    fn trans_without_ack_blames_the_sender() {
        let merged = merge_logs(&[LocalLog::from_events(
            n(3),
            vec![Event::new(n(3), EventKind::Trans { to: n(2) }, pid(0))],
        )]);
        let v = naive_diagnose(&merged);
        assert!(v[0].lost);
        assert_eq!(v[0].claimed_node, Some(n(3)));
    }

    #[test]
    fn case1_misdiagnosis() {
        // Table II Case 1: node 1's ack was lost with node 2's log; node 3
        // received the packet. Naive analysis wrongly blames node 1 —
        // REFILL (see refill::trace tests) correctly continues the flow.
        let merged = merge_logs(&[
            LocalLog::from_events(
                n(1),
                vec![Event::new(n(1), EventKind::Trans { to: n(2) }, pid(0))],
            ),
            LocalLog::from_events(
                n(3),
                vec![Event::new(n(3), EventKind::Recv { from: n(2) }, pid(0))],
            ),
        ]);
        let v = naive_diagnose(&merged);
        assert!(v[0].lost, "naive wrongly declares a loss");
        assert_eq!(v[0].claimed_node, Some(n(1)), "and blames the wrong node");
    }

    #[test]
    fn retransmissions_confuse_counting() {
        // Three trans, one ack: still flagged (trans > acks), even though
        // the packet was delivered on the third attempt.
        let merged = merge_logs(&[LocalLog::from_events(
            n(1),
            vec![
                Event::new(n(1), EventKind::Trans { to: n(2) }, pid(0)),
                Event::new(n(1), EventKind::Trans { to: n(2) }, pid(0)),
                Event::new(n(1), EventKind::Trans { to: n(2) }, pid(0)),
                Event::new(n(1), EventKind::AckRecvd { to: n(2) }, pid(0)),
            ],
        )]);
        let v = naive_diagnose(&merged);
        assert!(v[0].lost, "retransmissions inflate the trans count");
    }

    #[test]
    fn lowest_node_id_blamed_deterministically() {
        let merged = merge_logs(&[
            LocalLog::from_events(
                n(5),
                vec![Event::new(n(5), EventKind::Trans { to: n(0) }, pid(0))],
            ),
            LocalLog::from_events(
                n(2),
                vec![Event::new(n(2), EventKind::Trans { to: n(5) }, pid(0))],
            ),
        ]);
        let v = naive_diagnose(&merged);
        assert_eq!(v[0].claimed_node, Some(n(2)));
    }

    /// `naive_diagnose` as it was: two hash maps over the whole log. The
    /// reference the per-packet function must agree with.
    fn naive_diagnose_two_maps(merged: &MergedLog) -> Vec<NaiveDiagnosis> {
        use netsim::fx::FxHashMap;
        // (packet, node) → (trans, acks)
        let mut counts: FxHashMap<(PacketId, NodeId), (usize, usize)> = FxHashMap::default();
        for Event { node, kind, packet } in &merged.events {
            match kind {
                EventKind::Trans { .. } => counts.entry((*packet, *node)).or_default().0 += 1,
                EventKind::AckRecvd { .. } => counts.entry((*packet, *node)).or_default().1 += 1,
                _ => {}
            }
        }
        let mut verdicts: FxHashMap<PacketId, Option<NodeId>> = FxHashMap::default();
        for ((packet, node), (trans, acks)) in counts {
            let slot = verdicts.entry(packet).or_insert(None);
            if trans > acks {
                *slot = match *slot {
                    Some(existing) if existing <= node => Some(existing),
                    _ => Some(node),
                };
            }
        }
        // Packets seen only through non-trans events still get a "not lost"
        // verdict so the output covers every packet in the log.
        for ev in &merged.events {
            verdicts.entry(ev.packet).or_insert(None);
        }

        let mut out: Vec<NaiveDiagnosis> = verdicts
            .into_iter()
            .map(|(packet, claimed_node)| NaiveDiagnosis {
                packet,
                lost: claimed_node.is_some(),
                claimed_node,
            })
            .collect();
        out.sort_unstable_by_key(|d| d.packet);
        out
    }

    #[test]
    fn per_packet_verdicts_equal_the_two_map_analysis() {
        netsim::prop::check("naive_claim_equals_two_maps", 64, &[], |rng| {
            // Few nodes and packets: retransmissions, acks without a trans,
            // several unacked senders per packet, and packets that show up
            // through a recv or an enqueue only.
            let events = netsim::prop::vec_of(rng, 0..120, |rng| {
                let peer = n(rng.gen_range(0..5u16));
                let kind = match rng.gen_range(0..6u32) {
                    0 | 1 => EventKind::Trans { to: peer },
                    2 | 3 => EventKind::AckRecvd { to: peer },
                    4 => EventKind::Recv { from: peer },
                    _ => EventKind::Enqueue,
                };
                Event::new(
                    n(rng.gen_range(0..5u16)),
                    kind,
                    pid(rng.gen_range(0..12u32)),
                )
            });
            let merged = MergedLog { events };
            assert_eq!(naive_diagnose(&merged), naive_diagnose_two_maps(&merged));
        });
    }

    #[test]
    fn packets_without_trans_events_covered() {
        let merged = merge_logs(&[LocalLog::from_events(
            n(2),
            vec![Event::new(n(2), EventKind::Recv { from: n(1) }, pid(7))],
        )]);
        let v = naive_diagnose(&merged);
        assert_eq!(v.len(), 1);
        assert!(!v[0].lost);
    }
}
