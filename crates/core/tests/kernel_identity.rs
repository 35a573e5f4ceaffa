//! The reconstruction kernel's output is pinned, not just its shape:
//!
//! * a 64-bit digest over every field of every report of the Table II cases
//!   and a few thousand generated event groups, frozen on the commit before
//!   the kernel kept its net and buffers across packets;
//! * one thread's reused buffers never leak from one packet into the next,
//!   a recycled report's vectors included;
//! * the per-group front cache of the runner does not depend on the order
//!   groups were registered in;
//! * every driver over the kernel — sequential, parallel, fused, memoised —
//!   hands back the same reports (the online path has its own pin,
//!   `crates/stream/tests/stream_identity.rs`).

use eventlog::event::BASE_STATION;
use eventlog::logger::{LocalLog, LocalTs, LogEntry};
use eventlog::{merge_logs, Event, EventKind, PacketId};
use netsim::NodeId;
use refill::ctp_model::{CtpModel, HopLabel, UNKNOWN_NODE};
use refill::fsm::{FsmBuilder, FsmTemplate, StateId};
use refill::net::{ConnectedNet, EngineId, GroupId, InterRule, NetWarning};
use refill::parallel::{reconstruct_fused, reconstruct_parallel};
use refill::provenance::EntryOrigin;
use refill::sigcache::SigCache;
use refill::trace::{CtpVocabulary, PacketReport, ReconOptions, Reconstructor, Role};

fn n(i: u16) -> NodeId {
    NodeId(i)
}

// --- deterministic input -------------------------------------------------

/// SplitMix64 (public-domain constants); both the generator of the event
/// soups and the mixing step of the digest.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// The sink every generated journey heads for.
const SINK: NodeId = NodeId(0);

/// One packet's life as the nodes would log it: a walk over a small node
/// pool (so routing loops happen), retransmissions, duplicates, overflows,
/// timeouts, the sink's serial hop and the base station's record. Events
/// are then lost with probability `loss` and the per-node logs interleaved
/// at random (per-node order kept, as the merge guarantees).
fn journey(rng: &mut SplitMix64, packet: PacketId, max_events: usize) -> Vec<Event> {
    let pool = 3 + rng.below(9) as u16;
    let max_retx = [0, 0, 2, 6, 40][rng.below(5) as usize];
    // A long journey is one that keeps wandering, not a padded short one.
    let ending = if max_events > 64 { 1 } else { 8 };
    let mut logs: Vec<(NodeId, Vec<Event>)> = Vec::new();
    let mut emitted = 0usize;
    let log = |logs: &mut Vec<(NodeId, Vec<Event>)>, node: NodeId, kind: EventKind| {
        let at = match logs.iter().position(|(who, _)| *who == node) {
            Some(at) => at,
            None => {
                logs.push((node, Vec::new()));
                logs.len() - 1
            }
        };
        logs[at].1.push(Event::new(node, kind, packet));
    };
    let mut seen = vec![packet.origin];
    let mut at = packet.origin;
    log(&mut logs, at, EventKind::Origin);
    'walk: while emitted < max_events {
        let to = if rng.chance(3 * ending) {
            SINK
        } else {
            n(1 + rng.below(u64::from(pool)) as u16)
        };
        if to == at {
            continue;
        }
        if rng.chance(20) {
            log(&mut logs, at, EventKind::Enqueue);
        }
        let attempts = 1 + rng.below(max_retx + 1);
        for _ in 0..attempts {
            log(&mut logs, at, EventKind::Trans { to });
            emitted += 1;
            // A retransmission the receiver already holds is a duplicate.
            if rng.chance(15) && seen.contains(&to) {
                log(&mut logs, to, EventKind::Dup { from: at });
            }
        }
        if rng.chance(ending) {
            log(&mut logs, at, EventKind::Timeout { to });
            break 'walk;
        }
        if rng.chance(ending) {
            log(&mut logs, to, EventKind::Overflow { from: at });
            break 'walk;
        }
        if seen.contains(&to) && rng.chance(3 * ending) {
            log(&mut logs, to, EventKind::Dup { from: at });
            log(&mut logs, at, EventKind::AckRecvd { to });
            break 'walk;
        }
        log(&mut logs, to, EventKind::Recv { from: at });
        log(&mut logs, at, EventKind::AckRecvd { to });
        emitted += 2;
        seen.push(to);
        at = to;
        if at == SINK {
            log(&mut logs, at, EventKind::SerialTrans);
            if rng.chance(90) {
                log(&mut logs, BASE_STATION, EventKind::BsRecv);
            }
            break 'walk;
        }
    }

    let loss = [0, 0, 10, 30, 60][rng.below(5) as usize];
    for (_, events) in &mut logs {
        events.retain(|_| !rng.chance(loss));
    }
    logs.retain(|(_, events)| !events.is_empty());
    let mut cursors = vec![0usize; logs.len()];
    let mut merged = Vec::new();
    while !logs.is_empty() {
        let pick = rng.below(logs.len() as u64) as usize;
        merged.push(logs[pick].1[cursors[pick]]);
        cursors[pick] += 1;
        if cursors[pick] == logs[pick].1.len() {
            logs.swap_remove(pick);
            cursors.swap_remove(pick);
        }
    }
    merged.truncate(max_events);
    merged
}

/// Events no protocol run would produce: any kind on any node with any
/// peer, the reserved ids included.
fn noise(rng: &mut SplitMix64, packet: PacketId, len: usize) -> Vec<Event> {
    let pool = 1 + rng.below(7) as u16;
    let node = |rng: &mut SplitMix64| match rng.below(40) {
        0 => BASE_STATION,
        1 => UNKNOWN_NODE,
        2 => packet.origin,
        _ => n(rng.below(u64::from(pool)) as u16),
    };
    (0..len)
        .map(|_| {
            let who = node(rng);
            let peer = node(rng);
            // The commit the digest was frozen on panicked on a radio hop
            // *to* the base station, so the frozen set has none.
            let to = if peer == BASE_STATION { who } else { peer };
            let kind = match rng.below(14) {
                0 | 1 => EventKind::Recv { from: peer },
                2 | 3 => EventKind::Trans { to },
                4 | 5 => EventKind::AckRecvd { to },
                6 => EventKind::Dup { from: peer },
                7 => EventKind::Overflow { from: peer },
                8 => EventKind::Timeout { to },
                9 => EventKind::Origin,
                10 => EventKind::SerialTrans,
                11 => EventKind::BsRecv,
                12 => EventKind::Enqueue,
                _ => [EventKind::Deliver, EventKind::Custom(rng.below(3) as u16)]
                    [rng.below(2) as usize],
            };
            Event::new(who, kind, packet)
        })
        .collect()
}

fn table2_cases() -> Vec<Vec<Event>> {
    let p = PacketId::new(n(1), 0);
    let ev = |node: u16, kind: EventKind| Event::new(n(node), kind, p);
    let trans = |a: u16, b: u16| ev(a, EventKind::Trans { to: n(b) });
    let recv = |a: u16, b: u16| ev(b, EventKind::Recv { from: n(a) });
    let ack = |a: u16, b: u16| ev(a, EventKind::AckRecvd { to: n(b) });
    vec![
        // Complete log.
        vec![
            trans(1, 2),
            recv(1, 2),
            ack(1, 2),
            trans(2, 3),
            recv(2, 3),
            ack(2, 3),
        ],
        // Case 1: node 2's log wholly lost.
        vec![trans(1, 2), recv(2, 3)],
        // Case 2: the receiver logged nothing.
        vec![trans(1, 2), ack(1, 2)],
        // Case 3: the ack precedes the trans.
        vec![ack(1, 2), trans(1, 2)],
        case4(),
    ]
}

/// Table II Case 4: the loop 1 → 2 → 3 → 1 → 2 with the second `1-2 recv`
/// lost, node by node.
fn case4() -> Vec<Event> {
    let p = PacketId::new(n(1), 0);
    let ev = |node: u16, kind: EventKind| Event::new(n(node), kind, p);
    vec![
        ev(1, EventKind::Trans { to: n(2) }),
        ev(1, EventKind::AckRecvd { to: n(2) }),
        ev(1, EventKind::Recv { from: n(3) }),
        ev(1, EventKind::Trans { to: n(2) }),
        ev(1, EventKind::AckRecvd { to: n(2) }),
        ev(2, EventKind::Recv { from: n(1) }),
        ev(2, EventKind::Trans { to: n(3) }),
        ev(2, EventKind::AckRecvd { to: n(3) }),
        ev(2, EventKind::Trans { to: n(3) }),
        ev(3, EventKind::Recv { from: n(2) }),
        ev(3, EventKind::Trans { to: n(1) }),
        ev(3, EventKind::AckRecvd { to: n(1) }),
    ]
}

const CASE4_FLOW: &str = "1-2 trans, 1-2 recv, 1-2 ack recvd, 2-3 trans, 2-3 recv, 2-3 ack recvd, \
     3-1 trans, 3-1 recv, 3-1 ack recvd, 1-2 trans, [1-2 recv], 1-2 ack recvd, 2-3 trans";

/// The reconstructors the soups are spread over: every vocabulary, pinned
/// and inferred sinks, and both ablations.
fn reconstructors() -> Vec<Reconstructor> {
    vec![
        Reconstructor::new(CtpVocabulary::citysee()).with_sink(SINK),
        Reconstructor::new(CtpVocabulary::table2()),
        Reconstructor::new(CtpVocabulary::full()),
        Reconstructor::new(CtpVocabulary::citysee()),
        Reconstructor::new(CtpVocabulary::citysee())
            .with_sink(SINK)
            .with_options(ReconOptions {
                intra_jumps: false,
                inter_rules: true,
            }),
        Reconstructor::new(CtpVocabulary::table2()).with_options(ReconOptions {
            intra_jumps: true,
            inter_rules: false,
        }),
    ]
}

/// Soup `i` of the frozen set: which reconstructor, which packet, which
/// events. Sizes run from 1 to 600 events.
fn soup(i: u64) -> (usize, PacketId, Vec<Event>) {
    let mut rng = SplitMix64(0x2015_1c99 ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let which = rng.below(6) as usize;
    let packet = PacketId::new(n(1 + rng.below(12) as u16), rng.below(1000) as u32);
    let size = match i % 16 {
        0 => 1,
        1 => 600,
        2 | 3 => 1 + rng.below(600) as usize,
        _ => 1 + rng.below(48) as usize,
    };
    let events = if rng.chance(70) {
        journey(&mut rng, packet, size)
    } else {
        noise(&mut rng, packet, size)
    };
    (which, packet, events)
}

const SOUPS: u64 = 2400;

// --- the digest ----------------------------------------------------------

struct Digest(SplitMix64);

impl Digest {
    fn word(&mut self, w: u64) {
        self.0 .0 ^= w;
        self.0 .0 = self.0.next();
    }

    fn node(&mut self, node: Option<NodeId>) {
        self.word(node.map_or(u64::MAX, |x| u64::from(x.0)));
    }

    fn index(&mut self, i: Option<usize>) {
        self.word(i.map_or(u64::MAX, |x| x as u64));
    }

    fn event(&mut self, e: &Event) {
        self.node(Some(e.node));
        self.word(u64::from(e.kind.code()));
        self.node(e.kind.peer());
        self.word(match e.kind {
            EventKind::Custom(c) => u64::from(c),
            _ => 0,
        });
        self.node(Some(e.packet.origin));
        self.word(u64::from(e.packet.seqno));
    }

    fn report(&mut self, r: &PacketReport) {
        self.node(Some(r.packet.origin));
        self.word(u64::from(r.packet.seqno));
        self.word(r.flow.len() as u64);
        for (i, entry) in r.flow.entries.iter().enumerate() {
            self.event(&entry.payload);
            self.word(u64::from(entry.engine.0));
            self.word(u64::from(entry.observed));
            let deps = r.flow.deps_of(i);
            self.word(deps.len() as u64);
            for &d in deps.iter() {
                self.word(u64::from(d));
            }
        }
        self.word(r.omitted.len() as u64);
        for e in &r.omitted {
            self.event(e);
        }
        self.word(r.warnings.len() as u64);
        for w in &r.warnings {
            match w {
                NetWarning::CyclicPrerequisite { engine } => {
                    self.word(1);
                    self.word(u64::from(engine.0));
                }
                NetWarning::Unsatisfiable { engine, canonical } => {
                    self.word(2);
                    self.word(u64::from(engine.0));
                    self.word(u64::from(canonical.0));
                }
            }
        }
        self.word(r.engines.len() as u64);
        for e in &r.engines {
            self.node(Some(e.node));
            self.word(match e.role {
                Role::Source => 0,
                Role::Forwarder => 1,
                Role::Sink => 2,
                Role::BaseStation => 3,
            });
            self.word(u64::from(e.visit));
            self.index(e.prev);
            self.index(e.next);
            self.word(e.fragment as u64);
            self.word(u64::from(e.phantom));
        }
        self.word(r.path.len() as u64);
        for &node in &r.path {
            self.node(Some(node));
        }
        self.word(u64::from(r.delivered));
        self.word(r.origins.len() as u64);
        for o in &r.origins {
            self.word(match o {
                EntryOrigin::Observed => 0,
                EntryOrigin::IntraJump => 1,
                EntryOrigin::InterForced => 2,
            });
        }
    }
}

/// Computed on the parent of the commit that introduced the reusable
/// kernel, by this very function.
const FROZEN_DIGEST: u64 = 0xe81f_8346_5327_767f;

#[test]
fn reports_match_the_frozen_digest() {
    let recons = reconstructors();
    let mut digest = Digest(SplitMix64(0));
    for events in table2_cases() {
        // The Table II vocabulary, sink inferred.
        digest.report(&recons[1].reconstruct_packet(PacketId::new(n(1), 0), &events));
    }
    // What the soups exercise, so that a generator change that stops
    // reaching the interesting paths is noticed.
    let (mut sizes, mut loops, mut inferred, mut omitted, mut warned, mut phantoms) =
        ([false; 601], 0, 0, 0, 0, 0);
    for i in 0..SOUPS {
        let (which, packet, events) = soup(i);
        let report = recons[which].reconstruct_packet(packet, &events);
        assert!(report.flow.is_consistent(), "soup {i}");
        assert_eq!(
            report.flow.observed_count() + report.omitted.len(),
            events.len(),
            "soup {i}"
        );
        sizes[events.len()] = true;
        loops += usize::from(report.has_routing_loop());
        inferred += report.flow.inferred_count();
        omitted += report.omitted.len();
        warned += usize::from(!report.warnings.is_empty());
        phantoms += report.engines.iter().filter(|e| e.phantom).count();
        digest.report(&report);
    }
    assert!(sizes[1] && sizes[600]);
    assert!(loops > 300 && inferred > 20_000 && omitted > 10_000 && phantoms > 3_000);
    assert!(warned > 200);
    assert_eq!(
        digest.0 .0, FROZEN_DIGEST,
        "the kernel's reports changed: {:#018x}",
        digest.0 .0
    );
}

/// What the frozen set leaves out (see `noise`): a sender naming the base
/// station as its radio peer used to index the base station's two-state
/// machine with a forwarder's third state.
#[test]
fn a_radio_hop_to_the_base_station_reconstructs() {
    let packet = PacketId::new(n(1), 0);
    let events = [
        Event::new(n(1), EventKind::Trans { to: BASE_STATION }, packet),
        Event::new(n(1), EventKind::AckRecvd { to: BASE_STATION }, packet),
    ];
    let report = Reconstructor::new(CtpVocabulary::table2()).reconstruct_packet(packet, &events);
    assert_eq!(
        report.flow.to_string(),
        "1-65535 trans, [n65535 bs recv], 1-65535 ack recvd"
    );
    assert!(report.warnings.is_empty());
}

// --- precomputed forcing steps -------------------------------------------

fn assert_first_steps_match_search<L: refill::fsm::Label>(t: &FsmTemplate<L>) {
    let states = || (0..t.state_count() as u32).map(StateId);
    for (from, to) in states().flat_map(|from| states().map(move |to| (from, to))) {
        let searched = t.normal_path(from, to).and_then(|p| p.first().copied());
        assert_eq!(
            t.first_step(from, to),
            searched,
            "{}: {from:?} -> {to:?}",
            t.name()
        );
    }
}

#[test]
fn first_step_tables_match_the_path_search() {
    for vocabulary in [
        CtpVocabulary::citysee(),
        CtpVocabulary::table2(),
        CtpVocabulary::full(),
    ] {
        let model = CtpModel::new(vocabulary);
        for role in [Role::Source, Role::Forwarder, Role::Sink, Role::BaseStation] {
            let t = model.template(role);
            assert_first_steps_match_search(t);
            assert_first_steps_match_search(&t.strip_intra());
        }
    }
    let round = refill::dissemination_model::DisseminationRound::new(3);
    for template in 0..=3 {
        assert_first_steps_match_search(round.net.template(template));
    }
}

// --- scratch isolation ---------------------------------------------------

fn on_fresh_thread(recon: &Reconstructor, packet: PacketId, events: &[Event]) -> PacketReport {
    std::thread::scope(|s| {
        s.spawn(|| recon.reconstruct_packet(packet, events))
            .join()
            .expect("reconstruction does not panic")
    })
}

#[test]
fn one_threads_scratch_does_not_leak_between_packets() {
    let recons = reconstructors();
    // A and B come from different reconstructors (different templates in
    // the reused net).
    let sized = |which: usize, sizes: std::ops::RangeInclusive<usize>| {
        let fits = |s: &(usize, PacketId, Vec<Event>)| s.0 == which && sizes.contains(&s.2.len());
        (0..SOUPS).map(soup).find(fits).unwrap()
    };
    let (a, b, big, one) = (
        sized(0, 9..=60),
        sized(1, 9..=60),
        sized(0, 600..=600),
        sized(2, 1..=1),
    );
    let sequence = [&a, &b, &a, &big, &one, &a];
    let reused: Vec<PacketReport> = sequence
        .iter()
        .map(|(which, packet, events)| recons[*which].reconstruct_packet(*packet, events))
        .collect();
    for ((which, packet, events), report) in sequence.iter().zip(&reused) {
        assert_eq!(*report, on_fresh_thread(&recons[*which], *packet, events));
    }
    assert_eq!(reused[0], reused[2]);
    assert_eq!(reused[0], reused[5]);

    // The same sequence with every report handed back before the next
    // packet (to another reconstructor's call as often as not): a recycled
    // report gives its vectors' capacity and never their contents, whether
    // a 600-event report precedes a one-event packet or the other way round.
    let mut previous: Option<PacketReport> = None;
    for ((which, packet, events), expected) in sequence.iter().zip(&reused) {
        if let Some(previous) = previous.take() {
            recons[*which].recycle(previous);
        }
        let report = recons[*which].reconstruct_packet(*packet, events);
        assert_eq!(report, *expected);
        previous = Some(report);
    }
}

// --- front-cache soundness -----------------------------------------------

type StrNet = ConnectedNet<&'static str, &'static str>;

fn chain(name: &str, a: &'static str, b: &'static str) -> FsmTemplate<&'static str> {
    let mut builder = FsmBuilder::new(name);
    let init = builder.state("Init");
    let mid = builder.state("Mid");
    let end = builder.state("End");
    builder.t(init, a, mid).t(mid, b, end);
    builder.build().unwrap()
}

const END: StateId = StateId(2);

const PERMUTATIONS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

/// The three-node net of Figure 3 with node `k`'s group registered
/// `order[k]`-th; engine ids stay n1 < n2 < n3.
fn fig3_net(order: [usize; 3]) -> (StrNet, [EngineId; 3]) {
    let mut net = StrNet::new();
    let groups: Vec<GroupId> = (0..3).map(|_| net.add_group()).collect();
    let mut engines = [EngineId(0); 3];
    for (k, (a, b)) in [("e1", "e2"), ("e3", "e4"), ("e5", "e6")]
        .into_iter()
        .enumerate()
    {
        let t = net.add_template(chain("n", a, b));
        engines[k] = net.add_engine_in_group(t, groups[order[k]]);
    }
    (net, engines)
}

#[test]
fn fig3_flows_do_not_depend_on_group_registration_order() {
    for order in PERMUTATIONS {
        // Figure 3(a): cascading prerequisites.
        let (mut net, [n1, n2, n3]) = fig3_net(order);
        net.add_rule(n1, "e2", InterRule::new(n2, &[END], END));
        net.add_rule(n2, "e4", InterRule::new(n3, &[END], END));
        for (e, events) in [(n3, ["e5", "e6"]), (n1, ["e1", "e2"]), (n2, ["e3", "e4"])] {
            events.into_iter().for_each(|ev| net.push_event(e, ev));
        }
        let out = net.run(|e| *e, |_, t| t.label);
        assert_eq!(out.flow.to_string(), "e1, e3, e5, e6, e4, e2", "{order:?}");

        // Figure 3(b): one-to-many.
        let (mut net, [n1, n2, n3]) = fig3_net(order);
        net.add_rule(n2, "e4", InterRule::new(n1, &[END], END));
        net.add_rule(n2, "e4", InterRule::new(n3, &[END], END));
        for (e, events) in [(n2, ["e3", "e4"]), (n3, ["e5", "e6"]), (n1, ["e1", "e2"])] {
            events.into_iter().for_each(|ev| net.push_event(e, ev));
        }
        let out = net.run(|e| *e, |_, t| t.label);
        assert_eq!(out.flow.to_string(), "e1, e2, e3, e5, e6, e4", "{order:?}");
        let deps: Vec<&[u32]> = (0..6).map(|i| out.flow.deps_of(i)).collect();
        assert_eq!(
            deps,
            [&[][..], &[0], &[], &[], &[3], &[1, 2, 4]],
            "{order:?}"
        );
    }
}

/// Table II Case 4 wired by hand the way the tracer wires it — six visits
/// over three nodes, the last one a phantom — with the three node groups
/// registered in `order`.
fn case4_net(order: [usize; 3]) -> (ConnectedNet<HopLabel, Event>, Vec<[Option<NodeId>; 3]>) {
    let model = CtpModel::new(CtpVocabulary::table2());
    let mut net = ConnectedNet::new();
    let t_src = net.add_template(model.template(Role::Source).clone());
    let t_fwd = net.add_template(model.template(Role::Forwarder).clone());
    let groups: Vec<GroupId> = (0..3).map(|_| net.add_group()).collect();
    // Visits in chain order: 1, 2, 3, 1', 2', 3' (phantom).
    let engines: Vec<EngineId> = (0..6)
        .map(|k| {
            let t = if k == 0 { t_src } else { t_fwd };
            net.add_engine_in_group(t, groups[order[k % 3]])
        })
        .collect();
    let states = |k: usize| {
        let role = if k == 0 {
            Role::Source
        } else {
            Role::Forwarder
        };
        model.landmarks(role)
    };
    for k in 0..6 {
        if k > 0 {
            let sending = states(k - 1).sending.unwrap();
            for label in [HopLabel::Recv, HopLabel::Dup] {
                net.add_rule(
                    engines[k],
                    label,
                    InterRule::new(engines[k - 1], &[sending], sending),
                );
            }
        }
        if k < 5 {
            let next = states(k + 1);
            net.add_rule(
                engines[k],
                HopLabel::AckRecvd,
                InterRule::new(
                    engines[k + 1],
                    &[next.got, next.dup_drop.unwrap()],
                    next.got,
                ),
            );
        }
    }
    // Each node's log in recording order, tagged with the visit it belongs
    // to: the first visit takes events until its machine is done.
    let visit_of = [0, 0, 3, 3, 3, 1, 1, 1, 4, 2, 2, 2];
    for (event, visit) in case4().into_iter().zip(visit_of) {
        net.push_event(engines[visit], event);
    }
    let meta = (0..6u16)
        .map(|k| {
            let node = |k: u16| n(1 + k % 3);
            [
                Some(node(k)),
                (k > 0).then(|| node(k - 1)),
                (k < 5).then(|| node(k + 1)),
            ]
        })
        .collect();
    (net, meta)
}

#[test]
fn case4_flow_does_not_depend_on_group_registration_order() {
    let packet = PacketId::new(n(1), 0);
    let traced = Reconstructor::new(CtpVocabulary::table2()).reconstruct_packet(packet, &case4());
    assert_eq!(traced.flow.to_string(), CASE4_FLOW);
    for order in PERMUTATIONS {
        let (mut net, meta) = case4_net(order);
        let out = net.run(
            |e| refill::ctp_model::label_of(&e.kind),
            |engine, trans| {
                let [node, prev, next] = meta[engine.0 as usize];
                refill::ctp_model::synthesize_event(node.unwrap(), prev, next, packet, trans)
            },
        );
        assert_eq!(out.flow, traced.flow, "{order:?}");
        assert_eq!(out.origins, traced.origins, "{order:?}");
        assert!(
            out.omitted.is_empty() && out.warnings.is_empty(),
            "{order:?}"
        );
    }
}

// --- driver identity -----------------------------------------------------

/// How a log set's entries are stamped. The merge reads no clock, so every
/// driver's reports are the same under each.
#[derive(Clone, Copy)]
enum Clock {
    /// No timestamps.
    None,
    /// One global clock ticking per event.
    Global,
    /// Each node's log lies wholly before the next node's.
    NodeByNode,
}

/// The Table II cases and the first `soups` soups as one deployment's
/// per-node logs, every group under a packet id of its own.
fn soup_logs(soups: u64, clock: Clock) -> Vec<LocalLog> {
    let groups = table2_cases()
        .into_iter()
        .chain((0..soups).map(|i| soup(i).2));
    let mut logs: Vec<LocalLog> = Vec::new();
    let mut tick = 0u64;
    for (seqno, events) in groups.enumerate() {
        for e in events {
            let packet = PacketId::new(e.packet.origin, seqno as u32);
            let at = match logs.iter().position(|log| log.node == e.node) {
                Some(at) => at,
                None => {
                    logs.push(LocalLog::new(e.node));
                    logs.len() - 1
                }
            };
            tick += 1;
            logs[at].entries.push(LogEntry {
                event: Event::new(e.node, e.kind, packet),
                local_ts: match clock {
                    Clock::None => None,
                    Clock::Global => LocalTs::new(tick),
                    Clock::NodeByNode => LocalTs::new(((at as u64) << 32) | tick),
                },
            });
        }
    }
    logs
}

#[test]
fn every_driver_returns_the_sequential_reports() {
    const DRIVER_SOUPS: u64 = 600;
    for (recon, clock) in [
        (Reconstructor::new(CtpVocabulary::table2()), Clock::None),
        (
            Reconstructor::new(CtpVocabulary::citysee()).with_sink(SINK),
            Clock::Global,
        ),
        (Reconstructor::new(CtpVocabulary::full()), Clock::NodeByNode),
    ] {
        let logs = soup_logs(DRIVER_SOUPS, clock);
        let merged = merge_logs(&logs);
        let reference = recon.reconstruct_log(&merged);
        assert_eq!(
            reference.len(),
            table2_cases().len() + DRIVER_SOUPS as usize
        );
        assert!(reference.windows(2).all(|w| w[0].packet < w[1].packet));

        for workers in [1, 2, 4, 7] {
            assert_eq!(
                reconstruct_parallel(&recon, &merged, workers),
                reference,
                "parallel, {workers} workers"
            );
        }
        for workers in [1, 2, 4] {
            assert_eq!(
                reconstruct_fused(&recon, &logs, workers),
                reference,
                "fused, {workers} workers"
            );
        }

        let cache = SigCache::default();
        let cold_reports = recon.reconstruct_log_cached(&merged, &cache);
        assert_eq!(cold_reports, reference, "cold cache");
        let cold = cache.stats();
        assert!(cold.hits > 0 && cold.inserts > 0);
        let warm_reports = recon.reconstruct_log_cached(&merged, &cache);
        assert_eq!(warm_reports, reference, "warm cache");
        assert_eq!(
            cache.stats().inserts,
            cold.inserts,
            "a warm pass publishes nothing"
        );
    }
}
