//! Per-packet event-flow reconstruction: the kernel.
//!
//! The tracing pipeline turns a merged log into one [`PacketReport`] per
//! packet. What it knows of CTP — roles, hop evidence, which neighbour
//! landmark a label needs — it asks [`crate::ctp_model`]; the memoised
//! path over it lives in [`crate::sigcache`].
//!
//! 1. **Group** the packet's events per node, in an order the kernel picks
//!    itself: the packet's origin, then the other recording nodes by id.
//!    Only each node's own recording order is read from the input, so any
//!    interleave that keeps it gives the same report.
//! 2. **Segment** each node's events into *visits*: a routing loop brings a
//!    packet back to a node, which must become a second engine instance
//!    (Table II, Case 4). Segmentation runs the node's FSM speculatively —
//!    a new visit starts when the current instance cannot process an event
//!    but a fresh instance could.
//! 3. **Link** visits into hop chains using the sender/receiver evidence
//!    carried by two-party events (`1-2 trans` names its receiver, `1-2
//!    recv` its sender). Hops referenced only from one side get *phantom*
//!    engines with empty logs — this is how a wholly lost node (Case 1)
//!    still participates in the reconstruction.
//! 4. **Run** the connected engines ([`crate::net`]) with the CTP
//!    inter-node rules (`CtpModel::add_rules`).
//!
//! The output flow contains observed events plus inferred lost events in a
//! consistent order, from which [`crate::diagnose`] derives loss positions
//! and causes.

use crate::ctp_model::{self, CtpModel, HopEvidence, HopLabel};
use crate::flow::EventFlow;
use crate::fsm::{FsmTemplate, StateId};
use crate::net::{ConnectedNet, EngineId, GroupId, NetWarning};
use eventlog::{Event, MergedLog, PacketId};
use netsim::NodeId;
use refill_provenance::{EntryOrigin, FlowProvenance};
use refill_telemetry::{Counter, Hist, NoopRecorder, Recorder, Stage, StageTimer};
use std::cell::RefCell;
use std::sync::Arc;

pub use crate::ctp_model::{CtpVocabulary, Role};

/// Metadata about one engine instance of a packet's reconstruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineInfo {
    /// The node this engine models.
    pub node: NodeId,
    /// Its role.
    pub role: Role,
    /// Visit index at this node (0 for the first visit).
    pub visit: u32,
    /// Engine index (into [`PacketReport::engines`]) of the previous hop.
    pub prev: Option<usize>,
    /// Engine index of the next hop.
    pub next: Option<usize>,
    /// Fragment id: 0 is the main chain from the packet's origin; engines
    /// not connected to it get higher ids.
    pub fragment: usize,
    /// Whether this engine was created purely from peer evidence (its own
    /// log contributed no events).
    pub phantom: bool,
}

netsim::json_struct!(write EngineInfo {
    node,
    role,
    visit,
    prev,
    next,
    fragment,
    phantom
});

/// The reconstruction result for one packet.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketReport {
    /// The packet.
    pub packet: PacketId,
    /// The reconstructed event flow (observed + inferred entries).
    pub flow: EventFlow<Event>,
    /// Observed events that had no available transition and were omitted.
    pub omitted: Vec<Event>,
    /// Diagnostics from the engine network.
    pub warnings: Vec<NetWarning>,
    /// Per-engine metadata, in engine-id order.
    pub engines: Vec<EngineInfo>,
    /// The main-chain node path, starting at the packet's earliest known
    /// position.
    pub path: Vec<NodeId>,
    /// True if the base station logged the packet.
    pub delivered: bool,
    /// Per-entry origin classification, parallel to `flow.entries`: whether
    /// each entry was observed, inferred by an intra-node jump, or inferred
    /// while forcing an inter-node prerequisite.
    pub origins: Vec<EntryOrigin>,
}

netsim::json_struct!(write PacketReport {
    packet,
    flow,
    omitted,
    warnings,
    engines,
    path,
    delivered,
    origins
});

impl PacketReport {
    /// The engine info behind a flow entry.
    pub fn engine_of_entry(&self, entry_idx: usize) -> &EngineInfo {
        &self.engines[self.flow.entries[entry_idx].engine.0 as usize]
    }

    /// True if the reconstructed path revisits a node — evidence of a
    /// routing loop (the paper's Case 4 situation).
    pub fn has_routing_loop(&self) -> bool {
        // A path is a handful of nodes: comparing each with the ones before
        // it beats building a set.
        (1..self.path.len()).any(|i| self.path[..i].contains(&self.path[i]))
    }

    /// The flow's events paired with their origins: the evidence trail
    /// `refill explain` narrates and scores.
    pub fn provenance(&self) -> FlowProvenance {
        let events = self.flow.entries.iter().map(|e| e.payload);
        FlowProvenance::new(self.packet, events.zip(self.origins.iter().copied()))
    }
}

/// Ablation switches for the reconstructor (all on by default). Turning
/// pieces off quantifies their contribution — the `ablation` bench binary
/// sweeps these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconOptions {
    /// Use derived intra-node jump transitions (Section IV-B). Off, an
    /// engine can only follow normal transitions, so any lost event stalls
    /// its machine.
    pub intra_jumps: bool,
    /// Use inter-node prerequisite rules. Off, engines never force peers,
    /// so cross-node lost events are not inferred and cross-node ordering
    /// is not recovered.
    pub inter_rules: bool,
}

impl Default for ReconOptions {
    fn default() -> Self {
        ReconOptions {
            intra_jumps: true,
            inter_rules: true,
        }
    }
}

/// The REFILL reconstructor for the CTP stack.
pub struct Reconstructor {
    model: CtpModel,
    sink: Option<NodeId>,
    options: ReconOptions,
    /// Telemetry sink; [`NoopRecorder`] by default, so the hot path pays
    /// nothing unless a recorder is attached.
    recorder: Arc<dyn Recorder>,
}

impl Reconstructor {
    /// Build with a vocabulary; the sink is inferred from `serial trans`
    /// evidence unless [`Reconstructor::with_sink`] pins it.
    pub fn new(vocabulary: CtpVocabulary) -> Self {
        Reconstructor {
            model: CtpModel::new(vocabulary),
            sink: None,
            options: ReconOptions::default(),
            recorder: Arc::new(NoopRecorder),
        }
    }

    /// Attach a telemetry recorder; every reconstruction through this
    /// instance reports counters, histograms, and stage timings into it.
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// The attached telemetry recorder (the no-op one unless
    /// [`Reconstructor::with_recorder`] was called).
    pub fn recorder(&self) -> &Arc<dyn Recorder> {
        &self.recorder
    }

    /// Apply ablation options (see [`ReconOptions`]).
    pub fn with_options(mut self, options: ReconOptions) -> Self {
        if !options.intra_jumps {
            self.model.strip_intra();
        }
        self.options = options;
        self
    }

    /// Pin the sink node (operators know it; CitySee's is node 0).
    pub fn with_sink(mut self, sink: NodeId) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Reconstruct every packet mentioned in a merged log, sorted by packet
    /// id (deterministic).
    pub fn reconstruct_log(&self, merged: &MergedLog) -> Vec<PacketReport> {
        merged
            .packet_index()
            .iter()
            .map(|(id, events)| self.reconstruct_packet(id, events))
            .collect()
    }

    /// Reconstruct one packet from its events: any interleave of the
    /// nodes' events that keeps each node's recording order, all giving the
    /// same report.
    pub fn reconstruct_packet(&self, packet: PacketId, events: &[Event]) -> PacketReport {
        let sink = self.effective_sink(events);
        let report = self.reconstruct_with_sink(packet, events, sink);
        self.record_report(&report);
        report
    }

    /// Hand back a report the caller is done with: the calling thread's next
    /// [`Reconstructor::reconstruct_packet`] builds its flow, `origins`,
    /// `engines` and `path` in this report's vectors instead of allocating
    /// five fresh ones. Buffers only, never contents — every vector is
    /// emptied first, so the next report is exactly what it would have been
    /// with nothing recycled.
    pub fn recycle(&self, report: PacketReport) {
        let PacketReport {
            flow,
            origins,
            mut engines,
            mut path,
            ..
        } = report;
        engines.clear();
        path.clear();
        SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            scratch.net.recycle(flow, origins);
            scratch.spare_engines = engines;
            scratch.spare_path = path;
        });
    }

    /// Account an emitted report: exactly one call per report handed back
    /// to a caller, whatever path produced it.
    pub(crate) fn record_report(&self, report: &PacketReport) {
        let rec = &*self.recorder;
        if rec.enabled() {
            rec.inc(Counter::PacketsReconstructed);
            rec.add(Counter::EventsObserved, report.flow.observed_count() as u64);
            rec.add(Counter::EventsInferred, report.flow.inferred_count() as u64);
            rec.add(Counter::EventsOmitted, report.omitted.len() as u64);
            rec.observe(Hist::FlowEntries, report.flow.len() as u64);
        }
    }

    /// The sink the pipeline will use for this event group: the pinned one,
    /// or the one its events name.
    pub(crate) fn effective_sink(&self, events: &[Event]) -> Option<NodeId> {
        self.sink.or_else(|| ctp_model::sink_of(events))
    }

    /// The pipeline proper, with the sink already resolved. The memoized
    /// path ([`crate::sigcache`]) calls this on alpha-renamed groups, whose
    /// sink is the renamed image of the real one — re-inferring it from the
    /// renamed events would be correct too, but resolving once keeps the
    /// direct and cached paths on the same code.
    pub(crate) fn reconstruct_with_sink(
        &self,
        packet: PacketId,
        events: &[Event],
        sink: Option<NodeId>,
    ) -> PacketReport {
        let _span = StageTimer::start(&*self.recorder, Stage::Transition);
        SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            self.segment(packet, events, sink, scratch);
            self.link(packet, &mut scratch.visits, sink);
            chain_order(packet.origin, &scratch.visits, &mut scratch.order, &mut scratch.marks);
            self.run(packet, events, scratch)
        })
    }

    /// Phase 2: split each node's events into visits.
    ///
    /// Fills `scratch.visits` plus the per-node-ordered `(visit index,
    /// event)` assignments — the run phase queues them per *node*, so a
    /// node's recording order is preserved even when visits interleave (a
    /// dup of a retransmission can land between two events of the original
    /// visit).
    fn segment(
        &self,
        packet: PacketId,
        events: &[Event],
        sink: Option<NodeId>,
        scratch: &mut Scratch,
    ) {
        let Scratch {
            nodes,
            active,
            visits,
            assignments,
            ..
        } = scratch;
        // Node by node: the origin, then the others by id — never the order
        // the input interleaves them in. A node's stream is its events picked
        // out of the input from its first one on, which keeps its recording
        // order. A packet meets a handful of nodes, so "seen before" is a
        // scan of them.
        nodes.clear();
        visits.clear();
        assignments.clear();
        for (at, e) in events.iter().enumerate() {
            if !nodes.iter().any(|&(node, _)| node == e.node) {
                nodes.push((e.node, at));
            }
        }
        nodes.sort_unstable_by_key(|&(node, _)| (node != packet.origin, node));
        for &(node, first) in nodes.iter() {
            let stream = events[first..].iter().filter(|e| e.node == node);
            // Visits at this node, in creation order; the last is "current".
            active.clear();
            for &ev in stream {
                let label = ctp_model::label_of(&ev.kind);
                // Try the active visits, most recent first: the current one
                // usually matches; earlier ones catch events of an original
                // visit interleaved behind a dup-triggered one.
                let mut assigned = false;
                for &vi in active.iter().rev() {
                    let t = self.model.template(visits[vi].role);
                    if let Some(state) = state_after(t, visits[vi].state, &label) {
                        visits[vi].state = state;
                        visits[vi].hop.accept(&ev.kind);
                        assignments.push((vi, ev));
                        assigned = true;
                        break;
                    }
                }
                if assigned {
                    continue;
                }
                // Spawn a fresh visit if a fresh instance could process it.
                let role = ctp_model::spawn_role(packet, node, sink, active.len() as u32, &ev);
                let t = self.model.template(role);
                if let Some(state) = state_after(t, t.initial(), &label) {
                    let mut v = Visit::new(node, role, active.len() as u32, state);
                    v.hop.accept(&ev.kind);
                    visits.push(v);
                    active.push(visits.len() - 1);
                    assignments.push((visits.len() - 1, ev));
                    continue;
                }
                // Unprocessable anywhere: attach to the current (or a new)
                // visit so the run reports it as omitted.
                if active.is_empty() {
                    visits.push(Visit::new(node, role, 0, t.initial()));
                    active.push(visits.len() - 1);
                }
                assignments.push((active[active.len() - 1], ev));
            }
        }
    }

    /// Phase 3: link visits into hop chains, creating phantom engines for
    /// hops evidenced from only one side.
    fn link(&self, packet: PacketId, visits: &mut Vec<Visit>, sink: Option<NodeId>) {
        // Pass 1: receivers find (or create) their senders.
        let mut i = 0;
        while i < visits.len() {
            if visits[i].prev.is_none() {
                if let Some(u) = visits[i].hop.upstream(visits[i].role, sink) {
                    let me = visits[i].node;
                    // A dup-entry visit is retransmission evidence: its
                    // sender is an existing visit at `u` (possibly already
                    // linked onward), not a fresh hop. Attach prev without
                    // stealing the sender's `next`.
                    if visits[i].hop.entry_is_dup {
                        if let Some(s) = find_retransmitter(visits, u, me, i) {
                            visits[i].prev = Some(s);
                            if visits[s].next.is_none() {
                                visits[s].next = Some(i);
                            }
                            i += 1;
                            continue;
                        }
                    }
                    let sender = find_sender(visits, u, me, i).unwrap_or_else(|| {
                        let role = ctp_model::phantom_role(u, true, packet, sink);
                        let v = self.add_phantom(visits, u, role);
                        visits[v].hop.exit_to = Some(me);
                        v
                    });
                    visits[sender].next = Some(i);
                    visits[i].prev = Some(sender);
                }
            }
            i += 1;
        }

        // Pass 2: senders find (or create) their receivers.
        let mut i = 0;
        while i < visits.len() {
            if visits[i].next.is_none() {
                if let Some(v_node) = visits[i].hop.exit_to {
                    let me = visits[i].node;
                    let receiver = find_receiver(visits, v_node, me, i).unwrap_or_else(|| {
                        let role = ctp_model::phantom_role(v_node, false, packet, sink);
                        let v = self.add_phantom(visits, v_node, role);
                        visits[v].hop.entry_from = Some(me);
                        v
                    });
                    visits[receiver].prev = Some(i);
                    visits[i].next = Some(receiver);
                }
            }
            i += 1;
        }
    }

    /// Append a phantom visit at `node` — one its own log contributed
    /// nothing to — and return its index.
    fn add_phantom(&self, visits: &mut Vec<Visit>, node: NodeId, role: Role) -> usize {
        let visit_idx = visits.iter().filter(|v| v.node == node).count() as u32;
        let mut v = Visit::new(node, role, visit_idx, self.model.template(role).initial());
        v.phantom = true;
        visits.push(v);
        visits.len() - 1
    }

    /// Phase 4: build the connected net, run it, package the report.
    fn run(&self, packet: PacketId, events: &[Event], scratch: &mut Scratch) -> PacketReport {
        let Scratch {
            net,
            visits,
            assignments,
            order,
            marks,
            engine_of_visit,
            groups,
            fragments,
            meta,
            spare_engines,
            spare_path,
            ..
        } = scratch;
        net.reset();
        self.model.register(net);

        // Create engines in chain order; map visit index → engine id. Every
        // visit of one node shares that node's group, so the node's log
        // order is consumed as one serial queue. Fragment ids: walk `order`,
        // bump the fragment id at chain heads.
        engine_of_visit.clear();
        engine_of_visit.resize(visits.len(), None);
        groups.clear();
        fragments.clear();
        fragments.resize(visits.len(), 0);
        let mut frag = 0usize;
        for (k, &vi) in order.iter().enumerate() {
            if k > 0 && visits[vi].prev.and_then(|p| engine_of_visit[p]).is_none() {
                frag += 1;
            }
            fragments[vi] = frag;
            let node = visits[vi].node;
            let group = match groups.iter().find(|(of, _)| *of == node) {
                Some(&(_, group)) => group,
                None => {
                    let group = net.add_group();
                    groups.push((node, group));
                    group
                }
            };
            let e = net.add_engine_in_group(visits[vi].role as usize, group);
            engine_of_visit[vi] = Some(e);
        }
        let engine_of = |vi: usize| engine_of_visit[vi].expect("every visit got an engine");

        // Inter-node rules.
        if self.options.inter_rules {
            for &vi in order.iter() {
                let v = &visits[vi];
                let neighbour = |w: usize| (engine_of(w), visits[w].role);
                let (prev, next) = (v.prev.map(neighbour), v.next.map(neighbour));
                self.model.add_rules(net, engine_of(vi), v.role, prev, next);
            }
        }

        // Queue events in per-node recording order, tagged with their
        // assigned engines.
        for &(vi, ev) in assignments.iter() {
            net.push_event(engine_of(vi), ev);
        }

        // Synthesis metadata: engine id → (node, prev node, next node).
        meta.clear();
        meta.resize(order.len(), (NodeId(0), None, None));
        for &vi in order.iter() {
            let v = &visits[vi];
            let prev_node = v.prev.map(|p| visits[p].node).or(v.hop.entry_from);
            let next_node = v.next.map(|n| visits[n].node).or(v.hop.exit_to);
            meta[engine_of(vi).0 as usize] = (v.node, prev_node, next_node);
        }

        let out = net.run(
            |e| ctp_model::label_of(&e.kind),
            |engine, trans| {
                let (node, prev, next) = meta[engine.0 as usize];
                ctp_model::synthesize_event(node, prev, next, packet, trans)
            },
        );
        if self.recorder.enabled() {
            self.recorder.add(Counter::FsmSteps, out.stats.steps);
            self.recorder.add(Counter::FsmJumps, out.stats.jumps);
            self.recorder.add(Counter::FsmForcedSteps, out.stats.forced_steps);
        }

        // Engine infos in engine-id order.
        let mut engines = std::mem::take(spare_engines);
        engines.reserve(order.len());
        for &vi in order.iter() {
            let v = &visits[vi];
            engines.push(EngineInfo {
                node: v.node,
                role: v.role,
                visit: v.visit,
                prev: v.prev.map(|p| engine_of(p).0 as usize),
                next: v.next.map(|n| engine_of(n).0 as usize),
                fragment: fragments[vi],
                phantom: v.phantom,
            });
        }

        // Main-chain node path. Under heavy log loss the evidence-based
        // next-links can form a cycle (a real routing loop whose distinct
        // visits collapsed into each other); guard the walk.
        let mut path = std::mem::take(spare_path);
        path.reserve(order.len());
        let walked = marks;
        walked.clear();
        walked.resize(visits.len(), false);
        let mut cur = order.first().copied();
        while let Some(vi) = cur {
            if walked[vi] {
                break;
            }
            walked[vi] = true;
            path.push(visits[vi].node);
            cur = visits[vi].next;
        }

        let delivered = ctp_model::delivered(events);

        PacketReport {
            packet,
            flow: out.flow,
            omitted: out.omitted.into_iter().map(|(_, e)| e).collect(),
            warnings: out.warnings,
            engines,
            path,
            delivered,
            origins: out.origins,
        }
    }
}

/// The state `label` takes a machine to from `state` (the target of its
/// plan's last transition), if it can be processed there.
fn state_after(t: &FsmTemplate<HopLabel>, state: StateId, label: &HopLabel) -> Option<StateId> {
    let last = *t.plan(state, label)?.last().expect("a plan has a step");
    Some(t.transition(last).to)
}

/// One thread's working set for a packet: the engine net and every buffer
/// of the segment and run phases. It is cleared, not dropped, between
/// packets, so after the largest packet a thread has met, reconstruction
/// allocates the report's own vectors and nothing else — and not those when
/// the caller recycled a report. Nothing in it outlives a call: every phase
/// clears what it fills.
#[derive(Default)]
struct Scratch {
    net: ConnectedNet<HopLabel, Event>,
    /// The packet's recording nodes, each with its first event's index: its
    /// origin, then by id.
    nodes: Vec<(NodeId, usize)>,
    /// The visits of the node being segmented.
    active: Vec<usize>,
    visits: Vec<Visit>,
    /// `(visit, event)`, node by node in recording order.
    assignments: Vec<(usize, Event)>,
    /// Visits in chain order: the order engines are created in.
    order: Vec<usize>,
    /// Per visit, "already placed" while ordering and "already walked"
    /// while reading off the path.
    marks: Vec<bool>,
    engine_of_visit: Vec<Option<EngineId>>,
    groups: Vec<(NodeId, GroupId)>,
    fragments: Vec<usize>,
    /// Engine id → (node, previous node, next node), for synthesis.
    meta: Vec<(NodeId, Option<NodeId>, Option<NodeId>)>,
    /// The `engines` and `path` vectors of a recycled report, emptied
    /// ([`Reconstructor::recycle`]; the flow's and `origins` are the net's).
    spare_engines: Vec<EngineInfo>,
    spare_path: Vec<NodeId>,
}

thread_local! {
    /// Per thread rather than per [`Reconstructor`], so `reconstruct_packet`
    /// stays `&self` and every driver — sequential, the parallel ones'
    /// workers, the incremental redo — reuses its thread's buffers.
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// A visit under construction.
#[derive(Debug, Clone, Copy)]
struct Visit {
    node: NodeId,
    role: Role,
    visit: u32,
    state: StateId,
    hop: HopEvidence,
    prev: Option<usize>,
    next: Option<usize>,
    phantom: bool,
}

impl Visit {
    fn new(node: NodeId, role: Role, visit: u32, initial: StateId) -> Self {
        Visit {
            node,
            role,
            visit,
            state: initial,
            hop: HopEvidence::default(),
            prev: None,
            next: None,
            phantom: false,
        }
    }
}

/// Find an unlinked sender visit at node `u` targeting `v_node`.
fn find_sender(visits: &[Visit], u: NodeId, v_node: NodeId, exclude: usize) -> Option<usize> {
    // Exact target match first, then senders with unknown targets.
    let candidate = |want_exact: bool| {
        visits.iter().enumerate().position(|(i, s)| {
            i != exclude
                && s.node == u
                && s.next.is_none()
                && s.role.sends()
                && if want_exact {
                    s.hop.exits_to(s.role, s.node, v_node)
                } else {
                    s.hop.exit_to.is_none()
                }
        })
    };
    candidate(true).or_else(|| candidate(false))
}

/// Find the sender visit at `u` that a duplicate arrival at `v_node` came
/// from: the latest visit at `u` whose exit targets `v_node`, linked or not
/// (a retransmission re-uses the same MAC slot the original send did).
fn find_retransmitter(
    visits: &[Visit],
    u: NodeId,
    v_node: NodeId,
    exclude: usize,
) -> Option<usize> {
    visits
        .iter()
        .enumerate()
        .filter(|(i, s)| {
            *i != exclude && s.node == u && s.hop.exit_to == Some(v_node) && s.role.transmits()
        })
        .map(|(i, _)| i)
        .next_back()
}

/// Find an unlinked receiver visit at node `v` expecting sender `u`.
fn find_receiver(visits: &[Visit], v: NodeId, u: NodeId, exclude: usize) -> Option<usize> {
    let candidate = |want_exact: bool| {
        visits.iter().enumerate().position(|(i, r)| {
            i != exclude
                && r.node == v
                && r.prev.is_none()
                && r.role.receives()
                && if want_exact {
                    r.hop.entry_from == Some(u)
                } else {
                    r.hop.entry_from.is_none()
                }
        })
    };
    candidate(true).or_else(|| candidate(false))
}

/// Order visits chain-first: walk each chain from its head (a visit with no
/// linked predecessor), the main chain first — the one headed at the
/// packet's origin, real or phantom, else the earliest-created head's —
/// then the remaining chains in head order.
fn chain_order(origin: NodeId, visits: &[Visit], order: &mut Vec<usize>, placed: &mut Vec<bool>) {
    order.clear();
    placed.clear();
    placed.resize(visits.len(), false);
    let main = (0..visits.len()).find(|&v| visits[v].node == origin && visits[v].prev.is_none());
    for head in main.into_iter().chain(0..visits.len()) {
        if placed[head] || visits[head].prev.is_some() {
            continue;
        }
        let mut cur = Some(head);
        while let Some(vi) = cur {
            if placed[vi] {
                break;
            }
            placed[vi] = true;
            order.push(vi);
            cur = visits[vi].next;
        }
    }
    // Safety: anything unplaced (cycles in prev links shouldn't happen, but
    // never drop a visit).
    for (vi, was_placed) in placed.iter().enumerate() {
        if !was_placed {
            order.push(vi);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventlog::event::BASE_STATION;
    use eventlog::{merge_logs, EventKind, LocalLog};

    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    fn pid() -> PacketId {
        PacketId::new(n(1), 0)
    }

    fn ev(node: u16, kind: EventKind) -> Event {
        Event::new(n(node), kind, pid())
    }

    fn reconstruct(logs: Vec<LocalLog>) -> PacketReport {
        let merged = merge_logs(&logs);
        let recon = Reconstructor::new(CtpVocabulary::table2());
        recon.reconstruct_packet(pid(), &merged.by_packet()[&pid()])
    }

    /// Table II, complete-log row.
    #[test]
    fn table2_complete_log() {
        let report = reconstruct(vec![
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
                ],
            ),
            LocalLog::from_events(n(3), vec![ev(3, EventKind::Recv { from: n(2) })]),
        ]);
        assert_eq!(
            report.flow.to_string(),
            "1-2 trans, 1-2 recv, 1-2 ack recvd, 2-3 trans, 2-3 recv, 2-3 ack recvd"
        );
        assert_eq!(report.flow.inferred_count(), 0);
        assert_eq!(report.path, vec![n(1), n(2), n(3)]);
        assert!(!report.delivered);
        assert!(report.omitted.is_empty());
    }

    /// Table II, Case 1: node 2's log wholly lost.
    #[test]
    fn table2_case1() {
        let report = reconstruct(vec![
            LocalLog::from_events(n(1), vec![ev(1, EventKind::Trans { to: n(2) })]),
            LocalLog::from_events(n(3), vec![ev(3, EventKind::Recv { from: n(2) })]),
        ]);
        assert_eq!(
            report.flow.to_string(),
            "1-2 trans, [1-2 recv], [2-3 trans], 2-3 recv"
        );
        assert_eq!(report.flow.inferred_count(), 2);
        assert_eq!(report.path, vec![n(1), n(2), n(3)]);
        // Node 2's engine exists but is a phantom.
        assert!(report
            .engines
            .iter()
            .any(|e| e.node == n(2) && e.phantom));
    }

    /// Table II, Case 2: sender saw trans + ack, receiver's log empty.
    #[test]
    fn table2_case2() {
        let report = reconstruct(vec![LocalLog::from_events(
            n(1),
            vec![
                ev(1, EventKind::Trans { to: n(2) }),
                ev(1, EventKind::AckRecvd { to: n(2) }),
            ],
        )]);
        assert_eq!(report.flow.to_string(), "1-2 trans, [1-2 recv], 1-2 ack recvd");
    }

    /// Table II, Case 3: ack recvd *precedes* trans in node 1's log —
    /// a retransmission whose first attempt's events were lost.
    #[test]
    fn table2_case3() {
        let report = reconstruct(vec![LocalLog::from_events(
            n(1),
            vec![
                ev(1, EventKind::AckRecvd { to: n(2) }),
                ev(1, EventKind::Trans { to: n(2) }),
            ],
        )]);
        assert_eq!(
            report.flow.to_string(),
            "[1-2 trans], [1-2 recv], 1-2 ack recvd, 1-2 trans"
        );
        // Two visits at node 1: the acked attempt and the retransmission.
        let n1_engines: Vec<_> = report.engines.iter().filter(|e| e.node == n(1)).collect();
        assert_eq!(n1_engines.len(), 2);
    }

    /// Table II, Case 4: a routing loop (1 → 2 → 3 → 1 → 2) with the second
    /// `1-2 recv` lost; the packet dies on node 2's second transmission.
    #[test]
    fn table2_case4() {
        let report = reconstruct(vec![
            LocalLog::from_events(
                n(1),
                vec![
                    ev(1, EventKind::Trans { to: n(2) }),
                    ev(1, EventKind::AckRecvd { to: n(2) }),
                    ev(1, EventKind::Recv { from: n(3) }),
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
                    ev(2, EventKind::Trans { to: n(3) }),
                ],
            ),
            LocalLog::from_events(
                n(3),
                vec![
                    ev(3, EventKind::Recv { from: n(2) }),
                    ev(3, EventKind::Trans { to: n(1) }),
                    ev(3, EventKind::AckRecvd { to: n(1) }),
                ],
            ),
        ]);
        assert_eq!(
            report.flow.to_string(),
            "1-2 trans, 1-2 recv, 1-2 ack recvd, 2-3 trans, 2-3 recv, 2-3 ack recvd, \
             3-1 trans, 3-1 recv, 3-1 ack recvd, 1-2 trans, [1-2 recv], 1-2 ack recvd, 2-3 trans"
        );
        assert_eq!(report.path, vec![n(1), n(2), n(3), n(1), n(2), n(3)]);
        // Loop: nodes 1 and 2 each have two engines.
        for node in [1u16, 2] {
            assert_eq!(
                report.engines.iter().filter(|e| e.node == n(node)).count(),
                2,
                "node {node} should have two visits"
            );
        }
    }

    #[test]
    fn sink_and_base_station_chain() {
        // 1 → 0 (sink) → base station, everything logged.
        let logs = vec![
            LocalLog::from_events(
                n(1),
                vec![
                    ev(1, EventKind::Trans { to: n(0) }),
                    ev(1, EventKind::AckRecvd { to: n(0) }),
                ],
            ),
            LocalLog::from_events(
                n(0),
                vec![
                    ev(0, EventKind::Recv { from: n(1) }),
                    ev(0, EventKind::SerialTrans),
                ],
            ),
            LocalLog::from_events(
                BASE_STATION,
                vec![Event::new(BASE_STATION, EventKind::BsRecv, pid())],
            ),
        ];
        let merged = merge_logs(&logs);
        let recon = Reconstructor::new(CtpVocabulary::table2()).with_sink(n(0));
        let report = recon.reconstruct_packet(pid(), &merged.by_packet()[&pid()]);
        assert!(report.delivered);
        assert_eq!(
            report.flow.to_string(),
            "1-0 trans, 1-0 recv, 1-0 ack recvd, n0 serial trans, n65535 bs recv"
        );
        assert_eq!(report.path, vec![n(1), n(0), BASE_STATION]);
    }

    #[test]
    fn bs_record_alone_reconstructs_the_serial_tail() {
        // Only the base station logged the packet; with a pinned sink, the
        // sink's recv and serial trans are inferred.
        let logs = vec![LocalLog::from_events(
            BASE_STATION,
            vec![Event::new(BASE_STATION, EventKind::BsRecv, pid())],
        )];
        let merged = merge_logs(&logs);
        let recon = Reconstructor::new(CtpVocabulary::table2()).with_sink(n(0));
        let report = recon.reconstruct_packet(pid(), &merged.by_packet()[&pid()]);
        assert!(report.delivered);
        assert!(report.flow.to_string().contains("[n0 serial trans]"));
        assert_eq!(report.flow.observed_count(), 1);
    }

    #[test]
    fn duplicate_drop_satisfies_ack_prerequisite() {
        // Receiver dup-dropped; the sender's ack must not force a recv.
        let report = reconstruct(vec![
            LocalLog::from_events(
                n(1),
                vec![
                    ev(1, EventKind::Trans { to: n(2) }),
                    ev(1, EventKind::AckRecvd { to: n(2) }),
                ],
            ),
            LocalLog::from_events(n(2), vec![ev(2, EventKind::Dup { from: n(1) })]),
        ]);
        assert_eq!(report.flow.to_string(), "1-2 trans, 1-2 dup, 1-2 ack recvd");
        assert_eq!(report.flow.inferred_count(), 0);
    }

    #[test]
    fn overflow_infers_lost_recv() {
        let report = reconstruct(vec![
            LocalLog::from_events(n(1), vec![ev(1, EventKind::Trans { to: n(2) })]),
            LocalLog::from_events(n(2), vec![ev(2, EventKind::Overflow { from: n(1) })]),
        ]);
        assert_eq!(report.flow.to_string(), "1-2 trans, [1-2 recv], 1-2 overflow");
    }

    #[test]
    fn origin_vocabulary_infers_lost_origin() {
        let merged = merge_logs(&[LocalLog::from_events(
            n(1),
            vec![ev(1, EventKind::Trans { to: n(2) })],
        )]);
        let recon = Reconstructor::new(CtpVocabulary::citysee());
        let report = recon.reconstruct_packet(pid(), &merged.by_packet()[&pid()]);
        assert_eq!(report.flow.to_string(), "[n1 origin], 1-2 trans");
    }

    #[test]
    fn timeout_event_closes_the_flow() {
        let report = reconstruct(vec![LocalLog::from_events(
            n(1),
            vec![
                ev(1, EventKind::Trans { to: n(2) }),
                ev(1, EventKind::Trans { to: n(2) }),
                ev(1, EventKind::Timeout { to: n(2) }),
            ],
        )]);
        assert_eq!(
            report.flow.to_string(),
            "1-2 trans, 1-2 trans, 1-2 timeout"
        );
    }

    #[test]
    fn reconstruct_log_is_sorted_and_complete() {
        let p1 = PacketId::new(n(1), 0);
        let p2 = PacketId::new(n(1), 1);
        let logs = vec![LocalLog::from_events(
            n(1),
            vec![
                Event::new(n(1), EventKind::Trans { to: n(2) }, p2),
                Event::new(n(1), EventKind::Trans { to: n(2) }, p1),
            ],
        )];
        let merged = merge_logs(&logs);
        let recon = Reconstructor::new(CtpVocabulary::table2());
        let reports = recon.reconstruct_log(&merged);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].packet, p1);
        assert_eq!(reports[1].packet, p2);
    }

    #[test]
    fn loop_detection_from_reconstructed_path() {
        // Case 4's loop revisits nodes 1 and 2.
        let report = reconstruct(vec![
            LocalLog::from_events(
                n(1),
                vec![
                    ev(1, EventKind::Trans { to: n(2) }),
                    ev(1, EventKind::AckRecvd { to: n(2) }),
                    ev(1, EventKind::Recv { from: n(3) }),
                    ev(1, EventKind::Trans { to: n(2) }),
                ],
            ),
            LocalLog::from_events(
                n(2),
                vec![
                    ev(2, EventKind::Recv { from: n(1) }),
                    ev(2, EventKind::Trans { to: n(3) }),
                    ev(2, EventKind::AckRecvd { to: n(3) }),
                ],
            ),
            LocalLog::from_events(
                n(3),
                vec![
                    ev(3, EventKind::Recv { from: n(2) }),
                    ev(3, EventKind::Trans { to: n(1) }),
                    ev(3, EventKind::AckRecvd { to: n(1) }),
                ],
            ),
        ]);
        assert!(report.has_routing_loop());
        assert!(report.path.len() >= 4, "path {:?}", report.path);

        // A straight chain has no loop.
        let straight = reconstruct(vec![
            LocalLog::from_events(n(1), vec![ev(1, EventKind::Trans { to: n(2) })]),
            LocalLog::from_events(n(3), vec![ev(3, EventKind::Recv { from: n(2) })]),
        ]);
        assert!(!straight.has_routing_loop());
        assert_eq!(straight.path, [n(1), n(2), n(3)]);
    }

    #[test]
    fn mutual_loop_evidence_terminates() {
        // Two nodes each claim to have received from and sent to the other
        // (a routing loop whose distinct visits collapsed under log loss):
        // the next-links form a cycle, which must not hang the path walk.
        let report = reconstruct(vec![
            LocalLog::from_events(
                n(1),
                vec![
                    ev(1, EventKind::Recv { from: n(2) }),
                    ev(1, EventKind::Trans { to: n(2) }),
                ],
            ),
            LocalLog::from_events(
                n(2),
                vec![
                    ev(2, EventKind::Recv { from: n(1) }),
                    ev(2, EventKind::Trans { to: n(1) }),
                ],
            ),
        ]);
        assert!(report.path.len() <= report.engines.len());
        assert!(report.flow.is_consistent());
        assert_eq!(report.flow.observed_count() + report.omitted.len(), 4);
    }

    #[test]
    fn unprocessable_event_is_omitted_not_lost() {
        // A bs-recv event recorded on an ordinary node makes no sense to the
        // forwarder machine and must surface in `omitted`.
        let report = reconstruct(vec![LocalLog::from_events(
            n(2),
            vec![
                ev(2, EventKind::Recv { from: n(1) }),
                ev(2, EventKind::BsRecv),
            ],
        )]);
        assert_eq!(report.omitted.len(), 1);
        assert!(matches!(report.omitted[0].kind, EventKind::BsRecv));
    }
}
