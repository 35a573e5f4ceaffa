//! Property-based tests (proptest) for the DESIGN.md invariants that hold
//! over *arbitrary* inputs, not just simulated ones.

use eventlog::logger::{LocalLog, LogEntry};
use eventlog::{merge_logs, Event, EventKind, PacketId};
use netsim::NodeId;
use proptest::prelude::*;
use refill::fsm::{FsmBuilder, StateId};
use refill::trace::{CtpVocabulary, Reconstructor};

// ---------------------------------------------------------------------
// Merge invariants
// ---------------------------------------------------------------------

/// Strategy: a set of per-node logs with optional timestamps.
fn arb_logs() -> impl Strategy<Value = Vec<LocalLog>> {
    proptest::collection::vec(
        (
            0u16..8,
            proptest::collection::vec((0u32..50, proptest::option::of(0u64..1000)), 0..20),
        ),
        0..6,
    )
    .prop_map(|nodes| {
        nodes
            .into_iter()
            .enumerate()
            .map(|(i, (origin, entries))| LocalLog {
                node: NodeId(i as u16),
                entries: entries
                    .into_iter()
                    .map(|(seq, ts)| LogEntry {
                        event: Event::new(
                            NodeId(i as u16),
                            EventKind::Origin,
                            PacketId::new(NodeId(origin), seq),
                        ),
                        local_ts: ts,
                    })
                    .collect(),
            })
            .collect()
    })
}

proptest! {
    /// The zero-copy [`eventlog::PacketIndex`] grouping is exactly the old
    /// `by_packet()` grouping: same id set (sorted), same per-packet event
    /// sequences (per-node recording order preserved), every merged event
    /// indexed exactly once.
    #[test]
    fn packet_index_equals_by_packet(logs in arb_logs()) {
        let merged = merge_logs(&logs);
        let index = merged.packet_index();
        let groups = merged.by_packet();
        let mut ids: Vec<PacketId> = groups.keys().copied().collect();
        ids.sort_unstable();
        prop_assert_eq!(index.ids(), ids.as_slice());
        prop_assert_eq!(merged.packet_ids(), ids);
        for (id, events) in index.iter() {
            prop_assert_eq!(events, groups[&id].as_slice(), "group {} differs", id);
        }
        prop_assert_eq!(index.event_count(), merged.len());
    }

    /// Invariant 1: merging preserves each node's recording order exactly.
    #[test]
    fn merge_preserves_per_node_order(logs in arb_logs()) {
        let merged = merge_logs(&logs);
        // Total count preserved.
        let total: usize = logs.iter().map(|l| l.len()).sum();
        prop_assert_eq!(merged.len(), total);
        for log in &logs {
            let sub: Vec<Event> = merged
                .events
                .iter()
                .filter(|e| e.node == log.node)
                .copied()
                .collect();
            let orig: Vec<Event> = log.events().copied().collect();
            prop_assert_eq!(sub, orig, "node {} order violated", log.node);
        }
    }
}

// ---------------------------------------------------------------------
// FSM augmentation invariants
// ---------------------------------------------------------------------

/// Strategy: a random forward-edged FSM (DAG plus optional self loops) with
/// a small label alphabet.
fn arb_fsm() -> impl Strategy<Value = Vec<(u32, u8, u32)>> {
    // Edges (from, label, to) over up to 8 states; forward or self edges
    // only, so the machine terminates. Determinism is enforced post-hoc by
    // dropping conflicting edges.
    proptest::collection::vec((0u32..8, 0u8..5, 0u32..8), 1..20).prop_map(|edges| {
        let mut seen = std::collections::HashSet::new();
        edges
            .into_iter()
            .map(|(a, l, b)| {
                let (from, to) = if a <= b { (a, b) } else { (b, a) };
                (from, l, to)
            })
            .filter(|&(from, l, _)| seen.insert((from, l)))
            .collect()
    })
}

proptest! {
    /// Invariant 2 (augmentation soundness): every derived intra-node plan
    /// walks a real normal path and ends with a real transition carrying
    /// the queried label, whose target is the unique reachable target.
    #[test]
    fn augmentation_is_sound(edges in arb_fsm()) {
        let mut b = FsmBuilder::new("random");
        let states: Vec<StateId> = (0..8).map(|i| b.state(format!("s{i}"))).collect();
        for &(from, label, to) in &edges {
            b.t(states[from as usize], label, states[to as usize]);
        }
        let t = match b.build() {
            Ok(t) => t,
            Err(_) => return Ok(()), // nondeterministic sample: skip
        };
        for ((state, label), _) in t.intra_transitions() {
            let plan = t.plan(*state, label).expect("indexed plan exists");
            // Walk the plan: each step must be a valid normal transition
            // chained from the previous state.
            let mut cur = *state;
            for (i, step) in plan.steps().iter().enumerate() {
                let trans = t.transition(*step);
                prop_assert_eq!(trans.from, cur, "broken chain at step {}", i);
                cur = trans.to;
            }
            // The final step carries the queried label.
            let last = t.transition(plan.last());
            prop_assert_eq!(&last.label, label);
            // Uniqueness: no other label-edge target is reachable from state.
            let targets: std::collections::HashSet<StateId> = t
                .transitions()
                .iter()
                .filter(|tr| tr.label == *label)
                .map(|tr| tr.to)
                .filter(|&to| t.reachable(*state, to))
                .collect();
            prop_assert_eq!(targets.len(), 1, "target not unique from {:?}", state);
        }
    }
}

// ---------------------------------------------------------------------
// Connected-net invariants over arbitrary machines, rules and events
// ---------------------------------------------------------------------

proptest! {
    /// Chaos at the net level: random forward-edged machines, random
    /// inter-node rules (including cyclic ones), random event soups. The
    /// run must terminate, conserve observed events, and produce a
    /// consistent partial order.
    #[test]
    fn random_nets_terminate_and_stay_consistent(
        edges in proptest::collection::vec((0u32..6, 0u8..4, 0u32..6), 1..12),
        n_engines in 1usize..5,
        rules in proptest::collection::vec((0usize..5, 0u8..4, 0usize..5, 0u32..6), 0..8),
        events in proptest::collection::vec((0usize..5, 0u8..4), 0..20),
    ) {
        use refill::net::{ConnectedNet, InterRule};

        // One shared deterministic forward-edged template.
        let mut b = FsmBuilder::new("rand");
        let states: Vec<StateId> = (0..6).map(|i| b.state(format!("s{i}"))).collect();
        let mut seen = std::collections::HashSet::new();
        for (a, l, t) in edges {
            let (from, to) = if a <= t { (a, t) } else { (t, a) };
            if seen.insert((from, l)) {
                b.t(states[from as usize], l, states[to as usize]);
            }
        }
        let template = match b.build() {
            Ok(t) => t,
            Err(_) => return Ok(()),
        };

        let mut net: ConnectedNet<u8, u8> = ConnectedNet::new();
        let ti = net.add_template(template);
        let engines: Vec<_> = (0..n_engines)
            .map(|_| net.add_engine(ti))
            .collect();
        for (eng, label, peer, state) in rules {
            net.add_rule(
                engines[eng % n_engines],
                label,
                InterRule::new(engines[peer % n_engines], &[StateId(state)], StateId(state)),
            );
        }
        let n_events = events.len();
        for (eng, label) in events {
            net.push_event(engines[eng % n_engines], label);
        }
        let out = net.run(|e| *e, |_, t| t.label);
        prop_assert!(out.flow.is_consistent());
        prop_assert_eq!(out.flow.observed_count() + out.omitted.len(), n_events);
    }
}

// ---------------------------------------------------------------------
// Reconstruction invariants over arbitrary event subsets
// ---------------------------------------------------------------------

/// A ground-truth 4-hop chain trace for one packet.
fn chain_truth() -> Vec<Event> {
    let p = PacketId::new(NodeId(0), 0);
    let mut events = Vec::new();
    for h in 0..4u16 {
        let (u, v) = (NodeId(h), NodeId(h + 1));
        events.push(Event::new(u, EventKind::Trans { to: v }, p));
        events.push(Event::new(v, EventKind::Recv { from: u }, p));
        events.push(Event::new(u, EventKind::AckRecvd { to: v }, p));
    }
    events
}

proptest! {
    /// Invariant 3/5: any subset of a true trace reconstructs to a
    /// consistent flow whose observed entries are exactly the surviving
    /// events (in per-node order), and inference never invents events that
    /// contradict the truth chain's vocabulary.
    #[test]
    fn arbitrary_subsets_reconstruct_consistently(mask in proptest::collection::vec(any::<bool>(), 12)) {
        let truth = chain_truth();
        let survived: Vec<Event> = truth
            .iter()
            .zip(&mask)
            .filter(|(_, keep)| **keep)
            .map(|(e, _)| *e)
            .collect();
        let p = PacketId::new(NodeId(0), 0);
        let recon = Reconstructor::new(CtpVocabulary::table2());
        let report = recon.reconstruct_packet(p, &survived);
        prop_assert!(report.flow.is_consistent());
        // Observed entries = survivors that were processable; each one is a
        // genuine input event, and none are duplicated.
        let observed: Vec<Event> = report
            .flow
            .entries
            .iter()
            .filter(|e| e.observed)
            .map(|e| e.payload)
            .collect();
        prop_assert_eq!(
            observed.len() + report.omitted.len(),
            survived.len(),
            "every surviving event is either in the flow or omitted"
        );
        for ev in &observed {
            prop_assert!(survived.contains(ev));
        }
        // Every inferred event matches some true event of the chain
        // (soundness on a loss-free truth: inference only fills holes).
        // Inferred events may carry an UNKNOWN placeholder peer when the
        // counterparty hop was never evidenced; that wildcard matches any
        // truth event of the same node and kind.
        let matches_truth = |ev: &Event| {
            truth.iter().any(|t| {
                if t == ev {
                    return true;
                }
                if t.node != ev.node {
                    return false;
                }
                use refill::ctp_model::UNKNOWN_NODE;
                match (t.kind, ev.kind) {
                    (EventKind::Recv { .. }, EventKind::Recv { from }) => from == UNKNOWN_NODE,
                    (EventKind::Trans { .. }, EventKind::Trans { to }) => to == UNKNOWN_NODE,
                    (EventKind::AckRecvd { .. }, EventKind::AckRecvd { to }) => {
                        to == UNKNOWN_NODE
                    }
                    _ => false,
                }
            })
        };
        for entry in report.flow.entries.iter().filter(|e| !e.observed) {
            prop_assert!(
                matches_truth(&entry.payload),
                "inferred {} never happened",
                entry.payload
            );
        }
    }

    /// Chaos: completely arbitrary event soups (any kinds, any nodes, any
    /// peers, duplicates, nonsense orders) must never panic or hang the
    /// reconstructor, and the output must still be a consistent flow.
    #[test]
    fn arbitrary_event_soup_never_panics(
        raw in proptest::collection::vec((0u16..6, 0u8..12, 0u16..6), 0..25)
    ) {
        let p = PacketId::new(NodeId(0), 0);
        let events: Vec<Event> = raw
            .into_iter()
            .map(|(node, kind, peer)| {
                let peer = NodeId(peer);
                let kind = match kind {
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
                    _ => EventKind::Custom(7),
                };
                Event::new(NodeId(node), kind, p)
            })
            .collect();
        let n_events = events.len();
        for vocab in [CtpVocabulary::table2(), CtpVocabulary::citysee(), CtpVocabulary::full()] {
            let recon = Reconstructor::new(vocab).with_sink(NodeId(0));
            let report = recon.reconstruct_packet(p, &events);
            prop_assert!(report.flow.is_consistent());
            // Conservation: every input event is either observed in the
            // flow or omitted.
            prop_assert_eq!(
                report.flow.observed_count() + report.omitted.len(),
                n_events
            );
        }
    }

    /// Memoized reconstruction through the signature cache is
    /// indistinguishable from the direct pipeline on arbitrary event soups,
    /// both on a cold cache and when the answer comes from a shared
    /// template (second call).
    #[test]
    fn cached_reconstruction_equals_direct(
        raw in proptest::collection::vec((0u16..6, 0u8..12, 0u16..6), 0..25)
    ) {
        use refill::sigcache::SigCache;

        let p = PacketId::new(NodeId(0), 0);
        let events: Vec<Event> = raw
            .into_iter()
            .map(|(node, kind, peer)| {
                let peer = NodeId(peer);
                let kind = match kind {
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
                    _ => EventKind::Custom(7),
                };
                Event::new(NodeId(node), kind, p)
            })
            .collect();
        for vocab in [CtpVocabulary::table2(), CtpVocabulary::citysee(), CtpVocabulary::full()] {
            let recon = Reconstructor::new(vocab).with_sink(NodeId(0));
            let direct = recon.reconstruct_packet(p, &events);
            let cache = SigCache::default();
            prop_assert_eq!(&direct, &recon.reconstruct_packet_cached(p, &events, &cache));
            prop_assert_eq!(&direct, &recon.reconstruct_packet_cached(p, &events, &cache));
        }
    }

    /// Dropping more events never increases the observed count.
    #[test]
    fn observed_count_is_monotone(mask in proptest::collection::vec(any::<bool>(), 12), drop_idx in 0usize..12) {
        let truth = chain_truth();
        let p = PacketId::new(NodeId(0), 0);
        let recon = Reconstructor::new(CtpVocabulary::table2());

        let survived: Vec<Event> = truth
            .iter()
            .zip(&mask)
            .filter(|(_, keep)| **keep)
            .map(|(e, _)| *e)
            .collect();
        let mut smaller_mask = mask.clone();
        smaller_mask[drop_idx] = false;
        let fewer: Vec<Event> = truth
            .iter()
            .zip(&smaller_mask)
            .filter(|(_, keep)| **keep)
            .map(|(e, _)| *e)
            .collect();

        let full = recon.reconstruct_packet(p, &survived);
        let less = recon.reconstruct_packet(p, &fewer);
        prop_assert!(less.flow.observed_count() <= full.flow.observed_count());
    }
}
