//! Property tests (seeded cases from `netsim::prop`) for the DESIGN.md
//! invariants that hold over *arbitrary* inputs, not just simulated ones.

use eventlog::logger::{LocalLog, LocalTs, LogEntry};
use eventlog::{merge_logs, Event, EventKind, PacketId};
use netsim::prop::{check, vec_of};
use netsim::{NodeId, Rng};
use refill::fsm::{FsmBuilder, FsmTemplate, IntraPlan, Label, StateId, TransId};
use refill::trace::{CtpVocabulary, Reconstructor};
use std::collections::HashMap;

// ---------------------------------------------------------------------
// Merge invariants
// ---------------------------------------------------------------------

/// A set of per-node logs with optional timestamps.
fn arb_logs(rng: &mut Rng) -> Vec<LocalLog> {
    let mut node = 0;
    vec_of(rng, 0..6, |rng| {
        node += 1;
        let node = NodeId(node - 1);
        let origin = NodeId(rng.gen_range(0..8));
        let entries = vec_of(rng, 0..20, |rng| LogEntry {
            event: Event::new(
                node,
                EventKind::Origin,
                PacketId::new(origin, rng.gen_range(0..50)),
            ),
            local_ts: rng
                .gen_bool(0.5)
                .then(|| rng.gen_range(0..1000))
                .and_then(LocalTs::new),
        });
        LocalLog { node, entries }
    })
}

/// The zero-copy [`eventlog::PacketIndex`] grouping is exactly the old
/// `by_packet()` grouping: same id set (sorted), same per-packet event
/// sequences (per-node recording order preserved), every merged event
/// indexed exactly once.
#[test]
fn packet_index_equals_by_packet() {
    check("packet_index_equals_by_packet", 256, &[], |rng| {
        let merged = merge_logs(&arb_logs(rng));
        let index = merged.packet_index();
        let groups = merged.by_packet();
        let mut ids: Vec<PacketId> = groups.keys().copied().collect();
        ids.sort_unstable();
        assert_eq!(index.ids(), ids.as_slice());
        for (id, events) in index.iter() {
            assert_eq!(events, groups[&id].as_slice(), "group {} differs", id);
        }
        assert_eq!(index.event_count(), merged.len());
    });
}

/// Invariant 1: merging preserves each node's recording order exactly.
#[test]
fn merge_preserves_per_node_order() {
    check("merge_preserves_per_node_order", 256, &[], |rng| {
        let logs = arb_logs(rng);
        let merged = merge_logs(&logs);
        // Total count preserved.
        let total: usize = logs.iter().map(|l| l.len()).sum();
        assert_eq!(merged.len(), total);
        for log in &logs {
            let sub: Vec<Event> = merged
                .events
                .iter()
                .filter(|e| e.node == log.node)
                .copied()
                .collect();
            let orig: Vec<Event> = log.events().copied().collect();
            assert_eq!(sub, orig, "node {} order violated", log.node);
        }
    });
}

// ---------------------------------------------------------------------
// FSM augmentation invariants
// ---------------------------------------------------------------------

/// `edges` (from, label, to) made forward or self edges only, so the
/// machine terminates, with conflicting edges dropped so it is
/// deterministic.
fn forward_edges(edges: Vec<(u32, u8, u32)>) -> Vec<(u32, u8, u32)> {
    let mut seen = std::collections::HashSet::new();
    edges
        .into_iter()
        .map(|(a, l, b)| (a.min(b), l, a.max(b)))
        .filter(|&(from, l, _)| seen.insert((from, l)))
        .collect()
}

/// Invariant 2 (augmentation soundness): every derived intra-node plan
/// walks a real normal path and ends with a real transition carrying
/// the queried label, whose target is the unique reachable target.
#[test]
fn augmentation_is_sound() {
    check("augmentation_is_sound", 256, &[], |rng| {
        // A random forward-edged FSM (DAG plus optional self loops) over up
        // to 8 states and a small label alphabet.
        let edges = forward_edges(vec_of(rng, 1..20, |rng| {
            (
                rng.gen_range(0..8),
                rng.gen_range(0..5),
                rng.gen_range(0..8),
            )
        }));
        let mut b = FsmBuilder::new("random");
        let states: Vec<StateId> = (0..8).map(|i| b.state(format!("s{i}"))).collect();
        for &(from, label, to) in &edges {
            b.t(states[from as usize], label, states[to as usize]);
        }
        let Ok(t) = b.build() else {
            return; // nondeterministic sample: skip
        };
        for ((state, label), _) in t.intra_transitions() {
            let plan = t.plan(*state, label).expect("indexed plan exists");
            // Walk the plan: each step must be a valid normal transition
            // chained from the previous state.
            let mut cur = *state;
            for (i, step) in plan.iter().enumerate() {
                let trans = t.transition(*step);
                assert_eq!(trans.from, cur, "broken chain at step {}", i);
                cur = trans.to;
            }
            // The final step carries the queried label.
            let last = t.transition(*plan.last().expect("a plan has a step"));
            assert_eq!(&last.label, label);
            // Uniqueness: no other label-edge target is reachable from state.
            let targets: std::collections::HashSet<StateId> = t
                .transitions()
                .iter()
                .filter(|tr| tr.label == *label)
                .map(|tr| tr.to)
                .filter(|&to| t.reachable(*state, to))
                .collect();
            assert_eq!(targets.len(), 1, "target not unique from {:?}", state);
        }
    });
}

// ---------------------------------------------------------------------
// The compiled plan table is the rule it was compiled from
// ---------------------------------------------------------------------

/// How `FsmTemplate::plan` answered before the table: a probe of the normal
/// transitions by `(state, label)`, then of the derived intra-node plans —
/// that lookup kept as it was, over maps rebuilt from what the template
/// lists. The reference the table is checked against; nothing else looks a
/// plan up this way any more.
struct RuleLookup<L> {
    normal: HashMap<(StateId, L), TransId>,
    intra: HashMap<(StateId, L), IntraPlan>,
}

impl<L: Label> RuleLookup<L> {
    fn of(t: &FsmTemplate<L>) -> Self {
        let normal = t
            .transitions()
            .iter()
            .enumerate()
            .map(|(i, tr)| ((tr.from, tr.label.clone()), TransId(i as u32)))
            .collect();
        let intra = t
            .intra_transitions()
            .map(|(at, plan)| (at.clone(), plan.clone()))
            .collect();
        RuleLookup { normal, intra }
    }

    fn plan(&self, state: StateId, label: &L) -> Option<Vec<TransId>> {
        if let Some(&t) = self.normal.get(&(state, label.clone())) {
            return Some(vec![t]);
        }
        self.intra.get(&(state, label.clone())).map(|p| {
            let mut steps = p.via.clone();
            steps.push(p.final_trans);
            steps
        })
    }
}

/// For every state and every label of `labels` (which should name labels
/// the machine never uses too): the table yields the steps the rule lookup
/// yields, `None` where it yields none; `can_process` agrees; and with the
/// intra-node transitions stripped, exactly the normal transitions remain.
fn table_is_the_rule<L: Label>(t: &FsmTemplate<L>, labels: &[L]) {
    let rule = RuleLookup::of(t);
    let stripped = t.strip_intra();
    assert_eq!(stripped.intra_transitions().count(), 0);
    for state in (0..t.state_count() as u32).map(StateId) {
        for label in labels {
            let planned = t.plan(state, label);
            assert_eq!(
                planned.map(<[TransId]>::to_vec),
                rule.plan(state, label),
                "{}: {state:?} on {label:?}",
                t.name()
            );
            assert_eq!(t.can_process(state, label), planned.is_some());
            assert_eq!(
                stripped.plan(state, label).map(<[TransId]>::to_vec),
                rule.normal
                    .get(&(state, label.clone()))
                    .map(|&only| vec![only]),
                "{} stripped: {state:?} on {label:?}",
                t.name()
            );
        }
    }
    // A state the machine does not have can process nothing.
    let beyond = StateId(t.state_count() as u32);
    assert!(labels.iter().all(|l| t.plan(beyond, l).is_none()));
}

#[test]
fn plan_table_is_the_rule_on_random_machines() {
    check(
        "plan_table_is_the_rule_on_random_machines",
        256,
        &[],
        |rng| {
            let edges = forward_edges(vec_of(rng, 1..20, |rng| {
                (
                    rng.gen_range(0..8),
                    rng.gen_range(0..5),
                    rng.gen_range(0..8),
                )
            }));
            let mut b = FsmBuilder::new("random");
            let states: Vec<StateId> = (0..8).map(|i| b.state(format!("s{i}"))).collect();
            for &(from, label, to) in &edges {
                b.t(states[from as usize], label, states[to as usize]);
            }
            let t = b
                .build()
                .expect("forward_edges keeps the machine deterministic");
            // Labels 5..8 are never drawn: the machine does not know them.
            table_is_the_rule(&t, &(0..8u8).collect::<Vec<_>>());
        },
    );
}

#[test]
fn plan_table_is_the_rule_on_the_shipped_machines() {
    use refill::ctp_model::{CtpModel, HopLabel, Role};
    use refill::dissemination_model::{DissLabel, DisseminationRound};

    let hop_labels = [
        HopLabel::Origin,
        HopLabel::Recv,
        HopLabel::Dup,
        HopLabel::Overflow,
        HopLabel::Enqueue,
        HopLabel::Trans,
        HopLabel::AckRecvd,
        HopLabel::Timeout,
        HopLabel::SerialTrans,
        HopLabel::BsRecv,
        HopLabel::Deliver,
        HopLabel::Custom(0),
        HopLabel::Custom(7),
    ];
    for vocabulary in [
        CtpVocabulary::citysee(),
        CtpVocabulary::table2(),
        CtpVocabulary::full(),
    ] {
        let model = CtpModel::new(vocabulary);
        for role in [Role::Source, Role::Forwarder, Role::Sink, Role::BaseStation] {
            table_is_the_rule(model.template(role), &hop_labels);
        }
    }

    let receivers = 3;
    let round = DisseminationRound::new(receivers);
    let kinds = [
        DissLabel::Broadcast,
        DissLabel::RecvUpdate,
        DissLabel::Install,
        DissLabel::SendConfirm,
        DissLabel::ConfirmFrom,
        DissLabel::Complete,
    ];
    let peer_labels: Vec<_> = kinds
        .iter()
        .flat_map(|&kind| (0..=receivers).chain([usize::MAX]).map(move |i| (kind, i)))
        .collect();
    for template in 0..=receivers {
        table_is_the_rule(round.net.template(template), &peer_labels);
    }

    // The two machines of `examples/custom_protocol.rs`.
    let mut client = FsmBuilder::new("client");
    let idle = client.state("Idle");
    let waiting = client.state("Waiting");
    let done = client.state("Done");
    client
        .t(idle, "send-request", waiting)
        .t(waiting, "recv-reply", done);
    let mut server = FsmBuilder::new("server");
    let idle = server.state("Idle");
    let got = server.state("Got");
    let worked = server.state("Worked");
    let done = server.state("Done");
    server
        .t(idle, "recv-request", got)
        .t(got, "work", worked)
        .t(worked, "send-reply", done);
    let messages = [
        "send-request",
        "recv-request",
        "work",
        "send-reply",
        "recv-reply",
        "never-sent",
    ];
    for machine in [client, server] {
        table_is_the_rule(&machine.build().expect("deterministic"), &messages);
    }
}

// ---------------------------------------------------------------------
// Connected-net invariants over arbitrary machines, rules and events
// ---------------------------------------------------------------------

/// Chaos at the net level: random forward-edged machines, random
/// inter-node rules (including cyclic ones), random event soups. The
/// run must terminate, conserve observed events, and produce a
/// consistent partial order.
#[test]
fn random_nets_terminate_and_stay_consistent() {
    use refill::net::{ConnectedNet, InterRule};

    check(
        "random_nets_terminate_and_stay_consistent",
        256,
        &[],
        |rng| {
            let edges = forward_edges(vec_of(rng, 1..12, |rng| {
                (
                    rng.gen_range(0..6),
                    rng.gen_range(0..4),
                    rng.gen_range(0..6),
                )
            }));
            let n_engines = rng.gen_range(1..5usize);
            let rules = vec_of(rng, 0..8, |rng| {
                (
                    rng.gen_range(0..5usize),
                    rng.gen_range(0..4u8),
                    rng.gen_range(0..5usize),
                    rng.gen_range(0..6u32),
                )
            });
            let events = vec_of(rng, 0..20, |rng| {
                (rng.gen_range(0..5usize), rng.gen_range(0..4u8))
            });

            // One shared deterministic forward-edged template.
            let mut b = FsmBuilder::new("rand");
            let states: Vec<StateId> = (0..6).map(|i| b.state(format!("s{i}"))).collect();
            for (from, l, to) in edges {
                b.t(states[from as usize], l, states[to as usize]);
            }
            let Ok(template) = b.build() else {
                return;
            };

            let mut net: ConnectedNet<u8, u8> = ConnectedNet::new();
            let ti = net.add_template(template);
            let engines: Vec<_> = (0..n_engines).map(|_| net.add_engine(ti)).collect();
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
            assert!(out.flow.is_consistent());
            assert_eq!(out.flow.observed_count() + out.omitted.len(), n_events);
        },
    );
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

/// The events of `truth` whose `mask` bit is set.
fn survivors(truth: &[Event], mask: &[bool]) -> Vec<Event> {
    truth
        .iter()
        .zip(mask)
        .filter(|(_, keep)| **keep)
        .map(|(e, _)| *e)
        .collect()
}

fn arb_mask(rng: &mut Rng) -> Vec<bool> {
    (0..12).map(|_| rng.gen_bool(0.5)).collect()
}

/// Invariant 3/5: any subset of a true trace reconstructs to a
/// consistent flow whose observed entries are exactly the surviving
/// events (in per-node order), and inference never invents events that
/// contradict the truth chain's vocabulary.
fn subset_reconstructs_consistently(mask: &[bool]) {
    let truth = chain_truth();
    let survived = survivors(&truth, mask);
    let p = PacketId::new(NodeId(0), 0);
    let recon = Reconstructor::new(CtpVocabulary::table2());
    let report = recon.reconstruct_packet(p, &survived);
    assert!(report.flow.is_consistent());
    // Observed entries = survivors that were processable; each one is a
    // genuine input event, and none are duplicated.
    let observed: Vec<Event> = report
        .flow
        .entries
        .iter()
        .filter(|e| e.observed)
        .map(|e| e.payload)
        .collect();
    assert_eq!(
        observed.len() + report.omitted.len(),
        survived.len(),
        "every surviving event is either in the flow or omitted"
    );
    for ev in &observed {
        assert!(survived.contains(ev));
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
                (EventKind::AckRecvd { .. }, EventKind::AckRecvd { to }) => to == UNKNOWN_NODE,
                _ => false,
            }
        })
    };
    for entry in report.flow.entries.iter().filter(|e| !e.observed) {
        assert!(
            matches_truth(&entry.payload),
            "inferred {} never happened",
            entry.payload
        );
    }
}

#[test]
fn arbitrary_subsets_reconstruct_consistently() {
    check(
        "arbitrary_subsets_reconstruct_consistently",
        256,
        &[],
        |rng| {
            subset_reconstructs_consistently(&arb_mask(rng));
        },
    );
}

/// The case proptest once shrank a failure of the property above to: only
/// the last hop's `recv` survives.
#[test]
fn a_lone_last_hop_recv_reconstructs_consistently() {
    let mut mask = [false; 12];
    mask[10] = true;
    subset_reconstructs_consistently(&mask);
}

fn arb_soup(rng: &mut Rng) -> Vec<Event> {
    let p = PacketId::new(NodeId(0), 0);
    vec_of(rng, 0..25, |rng| {
        let node = NodeId(rng.gen_range(0..6));
        let code = rng.gen_range(0..12);
        let kind =
            EventKind::from_parts(code, NodeId(rng.gen_range(0..6)), 7).expect("a code in range");
        Event::new(node, kind, p)
    })
}

/// Chaos: completely arbitrary event soups (any kinds, any nodes, any
/// peers, duplicates, nonsense orders) must never panic or hang the
/// reconstructor, and the output must still be a consistent flow.
#[test]
fn arbitrary_event_soup_never_panics() {
    check("arbitrary_event_soup_never_panics", 256, &[], |rng| {
        let p = PacketId::new(NodeId(0), 0);
        let events = arb_soup(rng);
        for vocab in [
            CtpVocabulary::table2(),
            CtpVocabulary::citysee(),
            CtpVocabulary::full(),
        ] {
            let recon = Reconstructor::new(vocab).with_sink(NodeId(0));
            let report = recon.reconstruct_packet(p, &events);
            assert!(report.flow.is_consistent());
            // Conservation: every input event is either observed in the
            // flow or omitted.
            assert_eq!(
                report.flow.observed_count() + report.omitted.len(),
                events.len()
            );
        }
    });
}

/// Memoized reconstruction through the signature cache is
/// indistinguishable from the direct pipeline on arbitrary event soups,
/// both on a cold cache and when the answer comes from a shared
/// template (second call).
#[test]
fn cached_reconstruction_equals_direct() {
    use refill::sigcache::SigCache;

    check("cached_reconstruction_equals_direct", 256, &[], |rng| {
        let p = PacketId::new(NodeId(0), 0);
        let events = arb_soup(rng);
        for vocab in [
            CtpVocabulary::table2(),
            CtpVocabulary::citysee(),
            CtpVocabulary::full(),
        ] {
            let recon = Reconstructor::new(vocab).with_sink(NodeId(0));
            let direct = recon.reconstruct_packet(p, &events);
            let cache = SigCache::default();
            assert_eq!(
                &direct,
                &recon.reconstruct_packet_cached(p, &events, &cache)
            );
            assert_eq!(
                &direct,
                &recon.reconstruct_packet_cached(p, &events, &cache)
            );
        }
    });
}

/// Dropping more events never increases the observed count.
#[test]
fn observed_count_is_monotone() {
    check("observed_count_is_monotone", 256, &[], |rng| {
        let truth = chain_truth();
        let p = PacketId::new(NodeId(0), 0);
        let recon = Reconstructor::new(CtpVocabulary::table2());

        let mask = arb_mask(rng);
        let mut smaller_mask = mask.clone();
        smaller_mask[rng.gen_range(0..12)] = false;

        let full = recon.reconstruct_packet(p, &survivors(&truth, &mask));
        let less = recon.reconstruct_packet(p, &survivors(&truth, &smaller_mask));
        assert!(less.flow.observed_count() <= full.flow.observed_count());
    });
}
