//! Per-packet event-flow reconstruction.
//!
//! The tracing pipeline turns a merged log into one [`PacketReport`] per
//! packet:
//!
//! 1. **Group** the packet's events per node (each node's recording order
//!    is preserved by the merge).
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
//!    inter-node rules: a `recv` requires the previous hop's `Sending`, an
//!    `ack recvd` requires the next hop to have *got* (or knowingly
//!    dropped) the packet, a `bs recv` requires the sink's `SerialSent`.
//!
//! The output flow contains observed events plus inferred lost events in a
//! consistent order, from which [`crate::diagnose`] derives loss positions
//! and causes.

use crate::ctp_model::{self, CtpModel, HopLabel, UNKNOWN_NODE};
use crate::flow::EventFlow;
use crate::fsm::{FsmTemplate, StateId};
use crate::net::{ConnectedNet, EngineId, GroupId, InterRule, NetWarning};
use crate::sigcache::SigCache;
use eventlog::event::BASE_STATION;
use eventlog::{Event, EventKind, MergedLog, PacketId};
use netsim::fx::FxHashMap;
use netsim::json::{expected, FromJson, Json, JsonError};
use netsim::NodeId;
use refill_provenance::{EntryOrigin, FlowProvenance};
use refill_telemetry::{Counter, Hist, NoopRecorder, Recorder, Stage, StageTimer};
use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

pub use crate::ctp_model::CtpVocabulary;

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

netsim::json_struct!(EngineInfo {
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

/// Reads a report back, refusing one whose parallel vectors disagree:
/// `origins` runs beside the flow's entries, and every entry names an
/// engine ([`PacketReport::engine_of_entry`] indexes by it).
impl FromJson for PacketReport {
    fn from_json(v: &Json) -> Result<PacketReport, JsonError> {
        let report = PacketReport {
            packet: v.field("packet")?,
            flow: v.field("flow")?,
            omitted: v.field("omitted")?,
            warnings: v.field("warnings")?,
            engines: v.field("engines")?,
            path: v.field("path")?,
            delivered: v.field("delivered")?,
            origins: v.field("origins")?,
        };
        if report.origins.len() != report.flow.len() {
            return Err(expected("origins"));
        }
        let engines = report.engines.len();
        if report
            .flow
            .entries
            .iter()
            .any(|e| e.engine.0 as usize >= engines)
        {
            return Err(expected("engines"));
        }
        Ok(report)
    }
}

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

    /// Number of radio hops the packet is known to have completed (nodes
    /// on the main path beyond the origin, excluding the base station).
    pub fn hops_completed(&self) -> usize {
        self.path
            .iter()
            .filter(|n| **n != BASE_STATION)
            .count()
            .saturating_sub(1)
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
            self.model.source = Arc::new(self.model.source.strip_intra());
            self.model.forwarder = Arc::new(self.model.forwarder.strip_intra());
            self.model.sink = Arc::new(self.model.sink.strip_intra());
            self.model.bs = Arc::new(self.model.bs.strip_intra());
        }
        self.options = options;
        self
    }

    /// Pin the sink node (operators know it; CitySee's is node 0).
    pub fn with_sink(mut self, sink: NodeId) -> Self {
        self.sink = Some(sink);
        self
    }

    /// The underlying model.
    pub fn model(&self) -> &CtpModel {
        &self.model
    }

    /// Reconstruct every packet mentioned in a merged log, sorted by packet
    /// id (deterministic).
    pub fn reconstruct_log(&self, merged: &MergedLog) -> Vec<PacketReport> {
        let index = merged.packet_index_recorded(&*self.recorder);
        index
            .iter()
            .map(|(id, events)| self.reconstruct_packet(id, events))
            .collect()
    }

    /// Reconstruct one packet from its events (merged order; per-node
    /// subsequences must be in recording order).
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
    fn record_report(&self, report: &PacketReport) {
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
    /// or the first `serial trans` recorder.
    fn effective_sink(&self, events: &[Event]) -> Option<NodeId> {
        self.sink.or_else(|| {
            events
                .iter()
                .find(|e| matches!(e.kind, EventKind::SerialTrans))
                .map(|e| e.node)
        })
    }

    /// The pipeline proper, with the sink already resolved. The memoized
    /// path calls this on canonicalized groups, whose sink is the
    /// alpha-renamed image of the real one — re-inferring it from the
    /// renamed events would be correct too, but resolving once keeps the
    /// direct and cached paths on the same code.
    fn reconstruct_with_sink(
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
            chain_order(&scratch.visits, &mut scratch.order, &mut scratch.marks);
            self.run(packet, events, scratch)
        })
    }

    /// Reconstruct one packet through a signature cache.
    ///
    /// The packet's event group is canonicalized (node ids alpha-renamed to
    /// first-appearance indices, packet id normalized) and hashed into a
    /// [`FlowSignature`]. On a cache hit the stored node-abstract
    /// [`ReportTemplate`] is rehydrated with this packet's real node and
    /// packet ids; on a miss the canonical group is reconstructed once and
    /// the template is published for later packets with the same flow shape.
    /// Either way the result is exactly what [`Reconstructor::reconstruct_packet`]
    /// would produce (property-tested).
    ///
    /// Cache-ineligible groups (see [`MAX_CACHEABLE_EVENTS`]) fall back to
    /// direct reconstruction.
    pub fn reconstruct_packet_cached(
        &self,
        packet: PacketId,
        events: &[Event],
        cache: &SigCache,
    ) -> PacketReport {
        let rec = &*self.recorder;
        let sink = self.effective_sink(events);
        let canon = {
            let _span = StageTimer::start(rec, Stage::Signature);
            canonicalize(packet, events, sink)
        };
        let Some(canon) = canon else {
            rec.inc(Counter::PacketsUncacheable);
            let report = self.reconstruct_with_sink(packet, events, sink);
            self.record_report(&report);
            return report;
        };
        let hit = {
            let _span = StageTimer::start(rec, Stage::Cache);
            cache.get(canon.sig)
        };
        if let Some(template) = hit {
            let report = {
                let _span = StageTimer::start(rec, Stage::Rehydrate);
                template.rehydrate(packet, &canon.nodes)
            };
            rec.inc(Counter::PacketsRehydrated);
            self.record_report(&report);
            return report;
        }
        let report = self.reconstruct_with_sink(canon.packet, &canon.events, canon.sink);
        let template = Arc::new(ReportTemplate::new(report));
        let out = {
            let _span = StageTimer::start(rec, Stage::Rehydrate);
            template.rehydrate(packet, &canon.nodes)
        };
        {
            let _span = StageTimer::start(rec, Stage::Cache);
            cache.insert(canon.sig, template);
        }
        self.record_report(&out);
        out
    }

    /// [`Reconstructor::reconstruct_log`] through a signature cache.
    pub fn reconstruct_log_cached(
        &self,
        merged: &MergedLog,
        cache: &SigCache,
    ) -> Vec<PacketReport> {
        let index = merged.packet_index_recorded(&*self.recorder);
        index
            .iter()
            .map(|(id, events)| self.reconstruct_packet_cached(id, events, cache))
            .collect()
    }

    /// The canonical flow signature of one packet's event group, or `None`
    /// if the group is cache-ineligible. Two groups share a signature
    /// exactly when they have the same flow *shape*: the same event-kind
    /// sequence over the same pattern of node appearances, regardless of
    /// which concrete nodes (or which packet) produced it.
    pub fn signature_of(&self, packet: PacketId, events: &[Event]) -> Option<FlowSignature> {
        let sink = self.effective_sink(events);
        canonicalize(packet, events, sink).map(|c| c.sig)
    }

    fn template_for(&self, role: Role) -> &FsmTemplate<HopLabel> {
        match role {
            Role::Source => &self.model.source,
            Role::Forwarder => &self.model.forwarder,
            Role::Sink => &self.model.sink,
            Role::BaseStation => &self.model.bs,
        }
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
        // Node by node, in order of first appearance; a node's stream is its
        // events picked out of the merged order, which keeps its recording
        // order. A packet meets a handful of nodes, so "seen before" is a
        // scan of them and nothing is copied or sorted.
        nodes.clear();
        visits.clear();
        assignments.clear();
        for (first, e) in events.iter().enumerate() {
            let node = e.node;
            if nodes.contains(&node) {
                continue;
            }
            nodes.push(node);
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
                    let t = self.template_for(visits[vi].role);
                    if let Some(state) = state_after(t, visits[vi].state, &label) {
                        visits[vi].state = state;
                        visits[vi].accept(ev);
                        assignments.push((vi, ev));
                        assigned = true;
                        break;
                    }
                }
                if assigned {
                    continue;
                }
                // Spawn a fresh visit if a fresh instance could process it.
                let role = self.spawn_role(packet, node, sink, active.len() as u32, &ev);
                let t = self.template_for(role);
                if let Some(state) = state_after(t, t.initial(), &label) {
                    let mut v = Visit::new(node, role, active.len() as u32, state);
                    v.accept(ev);
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

    /// Which role a freshly spawned visit should use.
    fn spawn_role(
        &self,
        packet: PacketId,
        node: NodeId,
        sink: Option<NodeId>,
        visits_so_far: u32,
        ev: &Event,
    ) -> Role {
        if node == BASE_STATION {
            return Role::BaseStation;
        }
        if Some(node) == sink {
            return Role::Sink;
        }
        if node == packet.origin {
            // First visit at the origin is the source; later visits are the
            // source again for sender-side evidence (a retransmission
            // sequence, Case 3) or a forwarder for receiver-side evidence
            // (a genuine routing loop back to the origin, Case 4).
            if visits_so_far == 0 || ev.kind.is_sender_side() {
                return Role::Source;
            }
            return Role::Forwarder;
        }
        Role::Forwarder
    }

    /// Phase 3: link visits into hop chains, creating phantom engines for
    /// hops evidenced from only one side.
    fn link(&self, packet: PacketId, visits: &mut Vec<Visit>, sink: Option<NodeId>) {
        // Pass 1: receivers find (or create) their senders.
        let mut i = 0;
        while i < visits.len() {
            if visits[i].prev.is_none() {
                let entry_from = match visits[i].role {
                    Role::Forwarder | Role::Sink => visits[i].entry_from,
                    // The base station's upstream is always the sink.
                    Role::BaseStation => sink,
                    Role::Source => None,
                };
                if let Some(u) = entry_from {
                    let me = visits[i].node;
                    // A dup-entry visit is retransmission evidence: its
                    // sender is an existing visit at `u` (possibly already
                    // linked onward), not a fresh hop. Attach prev without
                    // stealing the sender's `next`.
                    if visits[i].entry_is_dup {
                        if let Some(s) = find_retransmitter(visits, u, me, i) {
                            visits[i].prev = Some(s);
                            if visits[s].next.is_none() {
                                visits[s].next = Some(i);
                            }
                            i += 1;
                            continue;
                        }
                    }
                    let sender = find_sender(visits, u, me, i)
                        .unwrap_or_else(|| {
                            let role = if u == packet.origin {
                                Role::Source
                            } else if Some(u) == sink {
                                Role::Sink
                            } else {
                                Role::Forwarder
                            };
                            let visit_idx =
                                visits.iter().filter(|v| v.node == u).count() as u32;
                            let t = self.template_for(role);
                            let mut v = Visit::new(u, role, visit_idx, t.initial());
                            v.exit_to = Some(me);
                            v.phantom = true;
                            visits.push(v);
                            visits.len() - 1
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
                if let Some(v_node) = visits[i].exit_to {
                    let me = visits[i].node;
                    let receiver = find_receiver(visits, v_node, me, i).unwrap_or_else(|| {
                        let role = if v_node == BASE_STATION {
                            Role::BaseStation
                        } else if Some(v_node) == sink {
                            Role::Sink
                        } else {
                            Role::Forwarder
                        };
                        let visit_idx =
                            visits.iter().filter(|v| v.node == v_node).count() as u32;
                        let t = self.template_for(role);
                        let mut v = Visit::new(v_node, role, visit_idx, t.initial());
                        v.entry_from = Some(me);
                        v.phantom = true;
                        visits.push(v);
                        visits.len() - 1
                    });
                    visits[receiver].prev = Some(i);
                    visits[i].next = Some(receiver);
                }
            }
            i += 1;
        }
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
        // Registering a shared `Arc` is a refcount bump — per-packet setup
        // no longer deep-copies the four role templates.
        let t_src = net.add_template(Arc::clone(&self.model.source));
        let t_fwd = net.add_template(Arc::clone(&self.model.forwarder));
        let t_sink = net.add_template(Arc::clone(&self.model.sink));
        let t_bs = net.add_template(Arc::clone(&self.model.bs));
        let template_idx = |role: Role| match role {
            Role::Source => t_src,
            Role::Forwarder => t_fwd,
            Role::Sink => t_sink,
            Role::BaseStation => t_bs,
        };

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
            let e = net.add_engine_in_group(template_idx(visits[vi].role), group);
            engine_of_visit[vi] = Some(e);
        }
        let engine_of = |vi: usize| engine_of_visit[vi].expect("every visit got an engine");

        // Landmarks per role.
        let role_states = |role: Role| match role {
            Role::Source => &self.model.source_states,
            Role::Forwarder => &self.model.forwarder_states,
            Role::Sink => &self.model.sink_states,
            Role::BaseStation => &self.model.bs_states,
        };

        // Inter-node rules + event queues.
        for &vi in order.iter() {
            let e = engine_of(vi);
            let v = &visits[vi];
            // recv/dup require the previous hop's Sending.
            if let Some(p) = v.prev.filter(|_| self.options.inter_rules) {
                let pe = engine_of(p);
                let prev_role = visits[p].role;
                match v.role {
                    Role::Forwarder | Role::Sink => {
                        if let Some(sending) = role_states(prev_role).sending {
                            for label in [HopLabel::Recv, HopLabel::Dup] {
                                net.add_rule(e, label, InterRule::new(pe, &[sending], sending));
                            }
                        }
                    }
                    Role::BaseStation => {
                        if let Some(serial) = role_states(prev_role).serial_sent {
                            net.add_rule(
                                e,
                                HopLabel::BsRecv,
                                InterRule::new(pe, &[serial], serial),
                            );
                        }
                    }
                    Role::Source => {}
                }
            }
            // ack recvd requires the next hop to have got (or knowingly
            // dropped) the packet.
            if let Some(n) = v.next.filter(|_| self.options.inter_rules) {
                if matches!(v.role, Role::Source | Role::Forwarder) {
                    let ne = engine_of(n);
                    let ns = role_states(visits[n].role);
                    let rule = match ns.dup_drop {
                        Some(dup_drop) => InterRule::new(ne, &[ns.got, dup_drop], ns.got),
                        None => InterRule::new(ne, &[ns.got], ns.got),
                    };
                    net.add_rule(e, HopLabel::AckRecvd, rule);
                }
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
            let prev_node = v.prev.map(|p| visits[p].node).or(v.entry_from);
            let next_node = v.next.map(|n| visits[n].node).or(v.exit_to);
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

        let delivered = events
            .iter()
            .any(|e| matches!(e.kind, EventKind::BsRecv));

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
    /// The packet's recording nodes, in order of first appearance.
    nodes: Vec<NodeId>,
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

// ---------------------------------------------------------------------
// Flow signatures and memoized reconstruction (DESIGN.md §6).
//
// Reconstruction treats node ids as opaque labels: the pipeline only ever
// compares them for equality (visit streams, hop evidence, role checks
// against the origin/sink/base-station), never orders or hashes-iterates
// them. So reconstruction commutes with any injective node rename that
// fixes the reserved ids and maps origin to origin and sink to sink —
// which is exactly what lets one node-abstract template serve every
// packet with the same flow shape.
// ---------------------------------------------------------------------

/// Largest event group eligible for signature memoization. Bigger groups
/// are pathological one-offs (storm loops, heavy retransmission streaks):
/// their templates are large, their shapes near-unique, and caching them
/// would evict the small happy-path templates that actually repeat.
pub const MAX_CACHEABLE_EVENTS: usize = 512;

/// Bumped whenever the signature definition changes (event codes, packing,
/// mixer); folded into every hash so stale persisted signatures can never
/// alias fresh ones.
const SIG_VERSION: u64 = 1;

/// A 128-bit canonical flow-shape signature (see
/// [`Reconstructor::signature_of`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowSignature {
    /// High 64 bits; [`SigCache`] shards on the top bits of this word.
    pub hi: u64,
    /// Low 64 bits.
    pub lo: u64,
}

impl fmt::Display for FlowSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// SplitMix64 finalizer — the standard public-domain constants. Used as
/// the per-word mixing step of the two-lane 128-bit hash below.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Two independently-seeded SplitMix lanes over the canonical word stream.
/// Not cryptographic — it only needs to make accidental collisions between
/// distinct flow shapes vanishingly unlikely (2^-128-ish), the same job
/// xxh3-128 does for content-addressed caches.
struct Mix128 {
    hi: u64,
    lo: u64,
}

impl Mix128 {
    fn new(seed: u64) -> Self {
        Mix128 {
            hi: splitmix64(seed ^ 0x243f_6a88_85a3_08d3),
            lo: splitmix64(seed ^ 0x1319_8a2e_0370_7344),
        }
    }

    fn push(&mut self, v: u64) {
        self.hi = splitmix64(self.hi ^ v);
        self.lo = splitmix64(self.lo.rotate_left(29) ^ v ^ 0x9e37_79b9_7f4a_7c15);
    }

    fn finish(self) -> FlowSignature {
        FlowSignature {
            hi: splitmix64(self.hi ^ self.lo.rotate_left(17)),
            lo: splitmix64(self.lo ^ self.hi),
        }
    }
}

/// Alpha-renamer: maps node ids to dense first-appearance indices. The two
/// reserved ids are fixed points — [`BASE_STATION`] because `spawn_role`
/// and `link` treat it specially (renaming it would change behavior), and
/// [`UNKNOWN_NODE`] so synthesized unknown-peer events rehydrate to
/// themselves. Canonical indices stay below `2 * MAX_CACHEABLE_EVENTS + 2`,
/// far clear of both sentinels.
#[derive(Default)]
struct AlphaRenamer {
    nodes: Vec<NodeId>,
    index: FxHashMap<NodeId, u16>,
}

impl AlphaRenamer {
    fn canon(&mut self, n: NodeId) -> NodeId {
        if n == BASE_STATION || n == UNKNOWN_NODE {
            return n;
        }
        if let Some(&i) = self.index.get(&n) {
            return NodeId(i);
        }
        let i = self.nodes.len() as u16;
        self.index.insert(n, i);
        self.nodes.push(n);
        NodeId(i)
    }
}

/// Rewrite an event kind's peer through the renamer; non-peer kinds pass
/// through unchanged.
fn rename_kind(kind: EventKind, mut rename: impl FnMut(NodeId) -> NodeId) -> EventKind {
    match kind {
        EventKind::Recv { from } => EventKind::Recv { from: rename(from) },
        EventKind::Overflow { from } => EventKind::Overflow { from: rename(from) },
        EventKind::Dup { from } => EventKind::Dup { from: rename(from) },
        EventKind::Trans { to } => EventKind::Trans { to: rename(to) },
        EventKind::AckRecvd { to } => EventKind::AckRecvd { to: rename(to) },
        EventKind::Timeout { to } => EventKind::Timeout { to: rename(to) },
        other => other,
    }
}

/// One canonical word per event: recorded node, peer (+presence bit), kind
/// code, and the opaque payload of `Custom` kinds.
fn pack_event(node: NodeId, kind: &EventKind) -> u64 {
    let (peer, has_peer) = match kind.peer() {
        Some(p) => (u64::from(p.0), 1u64),
        None => (0, 0),
    };
    let custom = match kind {
        EventKind::Custom(c) => u64::from(*c),
        _ => 0,
    };
    u64::from(node.0) | (peer << 16) | (u64::from(kind.code()) << 32) | (has_peer << 40) | (custom << 41)
}

/// The node-abstract form of one packet's event group.
struct CanonicalGroup {
    /// Hash of the canonical stream.
    sig: FlowSignature,
    /// Alpha-renamed events carrying the canonical packet id.
    events: Vec<Event>,
    /// Canonical packet id: canonical origin, seqno 0.
    packet: PacketId,
    /// Alpha-renamed effective sink.
    sink: Option<NodeId>,
    /// Inverse map: canonical index → real node. Indices past the end
    /// (the fixed points) rehydrate to themselves.
    nodes: Vec<NodeId>,
}

/// Canonicalize a packet's event group, or `None` when it is
/// cache-ineligible (too many events, or a stray event of a different
/// packet mixed into the group).
///
/// Index assignment order is part of the signature definition: events in
/// merged order (recording node first, then peer), then the origin, then
/// the sink — so an origin or pinned sink that appears in no event (both
/// still steer `spawn_role`/`link`) gets a deterministic index too.
fn canonicalize(packet: PacketId, events: &[Event], sink: Option<NodeId>) -> Option<CanonicalGroup> {
    if events.len() > MAX_CACHEABLE_EVENTS || events.iter().any(|e| e.packet != packet) {
        return None;
    }
    let mut ren = AlphaRenamer::default();
    let mut shapes: Vec<(NodeId, EventKind)> = Vec::with_capacity(events.len());
    for e in events {
        let node = ren.canon(e.node);
        let kind = rename_kind(e.kind, |n| ren.canon(n));
        shapes.push((node, kind));
    }
    let origin = ren.canon(packet.origin);
    let canon_sink = sink.map(|s| ren.canon(s));
    let canon_packet = PacketId::new(origin, 0);

    let mut mix = Mix128::new(SIG_VERSION);
    mix.push(shapes.len() as u64);
    mix.push(u64::from(origin.0));
    mix.push(canon_sink.map_or(u64::MAX, |s| u64::from(s.0)));
    for (node, kind) in &shapes {
        mix.push(pack_event(*node, kind));
    }

    Some(CanonicalGroup {
        sig: mix.finish(),
        events: shapes
            .into_iter()
            .map(|(node, kind)| Event::new(node, kind, canon_packet))
            .collect(),
        packet: canon_packet,
        sink: canon_sink,
        nodes: ren.nodes,
    })
}

/// A node-abstract reconstruction result: the [`PacketReport`] of a
/// canonical event group, shared via [`SigCache`] by every packet whose
/// group has the same flow shape. [`ReportTemplate::rehydrate`] substitutes
/// a packet's real node and packet ids back in.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportTemplate {
    report: PacketReport,
}

impl ReportTemplate {
    pub(crate) fn new(report: PacketReport) -> Self {
        ReportTemplate { report }
    }

    /// Produce the concrete [`PacketReport`] for `packet`, mapping each
    /// canonical node index back through `nodes` (indices past the end —
    /// the reserved ids — map to themselves).
    pub fn rehydrate(&self, packet: PacketId, nodes: &[NodeId]) -> PacketReport {
        fn real(nodes: &[NodeId], n: NodeId) -> NodeId {
            nodes.get(usize::from(n.0)).copied().unwrap_or(n)
        }
        let real_event = |e: &Event| {
            Event::new(
                real(nodes, e.node),
                rename_kind(e.kind, |n| real(nodes, n)),
                packet,
            )
        };
        PacketReport {
            packet,
            flow: self.report.flow.map(real_event),
            omitted: self.report.omitted.iter().map(real_event).collect(),
            // `NetWarning` speaks in engine/state ids, not node ids.
            warnings: self.report.warnings.clone(),
            engines: self
                .report
                .engines
                .iter()
                .map(|e| EngineInfo {
                    node: real(nodes, e.node),
                    ..e.clone()
                })
                .collect(),
            path: self.report.path.iter().map(|&n| real(nodes, n)).collect(),
            delivered: self.report.delivered,
            // Origins are flow-shape facts (observed vs inferred and by
            // which rule), independent of the concrete node names.
            origins: self.report.origins.clone(),
        }
    }
}

/// A visit under construction.
#[derive(Debug, Clone, Copy)]
struct Visit {
    node: NodeId,
    role: Role,
    visit: u32,
    state: StateId,
    entry_from: Option<NodeId>,
    /// True when the visit's entry evidence is a `dup` — a retransmission
    /// duplicate, whose "sender" is an existing visit retransmitting, not a
    /// new hop.
    entry_is_dup: bool,
    exit_to: Option<NodeId>,
    exit_frozen: bool,
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
            entry_from: None,
            entry_is_dup: false,
            exit_to: None,
            exit_frozen: false,
            prev: None,
            next: None,
            phantom: false,
        }
    }

    /// Update hop evidence with an accepted event.
    fn accept(&mut self, ev: Event) {
        match ev.kind {
            EventKind::Recv { from } | EventKind::Dup { from } | EventKind::Overflow { from }
                if self.entry_from.is_none() => {
                    self.entry_from = Some(from);
                    self.entry_is_dup = matches!(ev.kind, EventKind::Dup { .. });
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

/// Find an unlinked sender visit at node `u` targeting `v_node`.
fn find_sender(visits: &[Visit], u: NodeId, v_node: NodeId, exclude: usize) -> Option<usize> {
    // Exact target match first, then senders with unknown targets.
    let candidate = |want_exact: bool| {
        visits.iter().enumerate().position(|(i, s)| {
            i != exclude
                && s.node == u
                && s.next.is_none()
                && matches!(s.role, Role::Source | Role::Forwarder | Role::Sink)
                && if want_exact {
                    s.exit_to == Some(v_node)
                        || (s.node != BASE_STATION
                            && v_node == BASE_STATION
                            && s.role == Role::Sink)
                } else {
                    s.exit_to.is_none()
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
            *i != exclude
                && s.node == u
                && s.exit_to == Some(v_node)
                && matches!(s.role, Role::Source | Role::Forwarder)
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
                && matches!(r.role, Role::Forwarder | Role::Sink | Role::BaseStation)
                && if want_exact {
                    r.entry_from == Some(u)
                } else {
                    r.entry_from.is_none()
                }
        })
    };
    candidate(true).or_else(|| candidate(false))
}

/// Order visits chain-first: walk each chain from its head (a visit with no
/// linked predecessor), main chain (containing the earliest-created head)
/// first, then remaining chains in head order.
fn chain_order(visits: &[Visit], order: &mut Vec<usize>, placed: &mut Vec<bool>) {
    order.clear();
    placed.clear();
    placed.resize(visits.len(), false);
    for head in 0..visits.len() {
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
    use eventlog::{merge_logs, LocalLog};

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
        assert!(report.hops_completed() >= 3);

        // A straight chain has no loop.
        let straight = reconstruct(vec![
            LocalLog::from_events(n(1), vec![ev(1, EventKind::Trans { to: n(2) })]),
            LocalLog::from_events(n(3), vec![ev(3, EventKind::Recv { from: n(2) })]),
        ]);
        assert!(!straight.has_routing_loop());
        assert_eq!(straight.hops_completed(), 2);
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

    // --- flow signatures + memoized reconstruction ---

    /// The Case 4 routing-loop event group (1 → 2 → 3 → 1 → 2).
    fn case4_events() -> Vec<Event> {
        let logs = vec![
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
        ];
        merge_logs(&logs).by_packet()[&pid()].clone()
    }

    #[test]
    fn routing_loop_and_loop_free_twin_get_different_signatures() {
        let recon = Reconstructor::new(CtpVocabulary::table2());
        // A loop 1 → 2 → 3 → 1: the final hop lands back on the origin,
        // which spawns a second visit there (Case 4). Its loop-free twin
        // has the *identical kind sequence* but the final hop lands on a
        // fresh node 4 — only the node-appearance pattern differs, which is
        // exactly what the alpha-renaming must preserve.
        let looped = vec![
            ev(1, EventKind::Trans { to: n(2) }),
            ev(2, EventKind::Recv { from: n(1) }),
            ev(2, EventKind::Trans { to: n(3) }),
            ev(3, EventKind::Recv { from: n(2) }),
            ev(3, EventKind::Trans { to: n(1) }),
            ev(1, EventKind::Recv { from: n(3) }),
        ];
        let twin = vec![
            ev(1, EventKind::Trans { to: n(2) }),
            ev(2, EventKind::Recv { from: n(1) }),
            ev(2, EventKind::Trans { to: n(3) }),
            ev(3, EventKind::Recv { from: n(2) }),
            ev(3, EventKind::Trans { to: n(4) }),
            ev(4, EventKind::Recv { from: n(3) }),
        ];
        // Sanity: the looped group really is a Case 4 revisit.
        assert!(recon.reconstruct_packet(pid(), &looped).has_routing_loop());
        assert!(!recon.reconstruct_packet(pid(), &twin).has_routing_loop());
        let s1 = recon.signature_of(pid(), &looped).unwrap();
        let s2 = recon.signature_of(pid(), &twin).unwrap();
        assert_ne!(s1, s2, "loop vs. loop-free twin must not collide");
    }

    #[test]
    fn signature_is_invariant_under_node_renaming_and_packet_identity() {
        let recon = Reconstructor::new(CtpVocabulary::table2());
        let original = case4_events();
        // Same shape on disjoint nodes and a different packet.
        let other = PacketId::new(n(11), 42);
        let renamed: Vec<Event> = original
            .iter()
            .map(|e| {
                Event::new(
                    NodeId(e.node.0 + 10),
                    rename_kind(e.kind, |x| NodeId(x.0 + 10)),
                    other,
                )
            })
            .collect();
        assert_eq!(
            recon.signature_of(pid(), &original).unwrap(),
            recon.signature_of(other, &renamed).unwrap(),
        );
    }

    #[test]
    fn signature_depends_on_pinned_sink() {
        // The sink steers spawn_role even when it logs nothing, so pinning
        // a different sink must change the signature.
        let events = vec![ev(1, EventKind::Trans { to: n(2) })];
        let free = Reconstructor::new(CtpVocabulary::table2());
        let pinned = Reconstructor::new(CtpVocabulary::table2()).with_sink(n(2));
        assert_ne!(
            free.signature_of(pid(), &events).unwrap(),
            pinned.signature_of(pid(), &events).unwrap(),
        );
    }

    #[test]
    fn oversized_groups_are_cache_ineligible() {
        let recon = Reconstructor::new(CtpVocabulary::table2());
        let events: Vec<Event> = (0..=MAX_CACHEABLE_EVENTS)
            .map(|_| ev(1, EventKind::Trans { to: n(2) }))
            .collect();
        assert!(recon.signature_of(pid(), &events).is_none());
        // Still reconstructs, just uncached.
        let cache = SigCache::new(16);
        let direct = recon.reconstruct_packet(pid(), &events);
        let cached = recon.reconstruct_packet_cached(pid(), &events, &cache);
        assert_eq!(direct, cached);
        assert_eq!(cache.stats().lookups(), 0);
    }

    #[test]
    fn cached_reconstruction_matches_direct_on_table2_cases() {
        let recon = Reconstructor::new(CtpVocabulary::table2());
        let cache = SigCache::new(1024);
        let groups: Vec<Vec<Event>> = vec![
            case4_events(),
            vec![
                ev(1, EventKind::Trans { to: n(2) }),
                ev(3, EventKind::Recv { from: n(2) }),
            ],
            vec![
                ev(1, EventKind::Trans { to: n(2) }),
                ev(1, EventKind::AckRecvd { to: n(2) }),
            ],
            vec![
                ev(1, EventKind::AckRecvd { to: n(2) }),
                ev(1, EventKind::Trans { to: n(2) }),
            ],
            vec![
                ev(1, EventKind::Trans { to: n(2) }),
                ev(2, EventKind::Dup { from: n(1) }),
            ],
        ];
        // Twice over: the second pass is all hits and must still match.
        for pass in 0..2 {
            for events in &groups {
                let direct = recon.reconstruct_packet(pid(), events);
                let cached = recon.reconstruct_packet_cached(pid(), events, &cache);
                assert_eq!(direct, cached, "pass {pass}");
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, groups.len() as u64);
        assert_eq!(stats.hits, groups.len() as u64);
        assert_eq!(stats.entries, groups.len());
    }

    #[test]
    fn cache_hit_rehydrates_real_nodes_for_a_different_packet() {
        let recon = Reconstructor::new(CtpVocabulary::table2());
        let cache = SigCache::new(64);
        // Warm the cache with the 1→2→3 shape.
        let warm = vec![
            ev(1, EventKind::Trans { to: n(2) }),
            ev(3, EventKind::Recv { from: n(2) }),
        ];
        recon.reconstruct_packet_cached(pid(), &warm, &cache);
        // Same shape on nodes 7→8→9, different packet: must hit and come
        // back with ids 7/8/9, not 1/2/3.
        let other = PacketId::new(n(7), 5);
        let events = vec![
            Event::new(n(7), EventKind::Trans { to: n(8) }, other),
            Event::new(n(9), EventKind::Recv { from: n(8) }, other),
        ];
        let report = recon.reconstruct_packet_cached(other, &events, &cache);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(report.packet, other);
        assert_eq!(
            report.flow.to_string(),
            "7-8 trans, [7-8 recv], [8-9 trans], 8-9 recv"
        );
        assert_eq!(report.path, vec![n(7), n(8), n(9)]);
        assert_eq!(report, recon.reconstruct_packet(other, &events));
    }

    #[test]
    fn base_station_survives_rehydration() {
        let p = pid();
        let logs = vec![
            LocalLog::from_events(
                n(0),
                vec![
                    ev(0, EventKind::Recv { from: n(1) }),
                    ev(0, EventKind::SerialTrans),
                ],
            ),
            LocalLog::from_events(
                BASE_STATION,
                vec![Event::new(BASE_STATION, EventKind::BsRecv, p)],
            ),
        ];
        let merged = merge_logs(&logs);
        let recon = Reconstructor::new(CtpVocabulary::table2()).with_sink(n(0));
        let cache = SigCache::new(64);
        let events = &merged.by_packet()[&p];
        let direct = recon.reconstruct_packet(p, events);
        let cached = recon.reconstruct_packet_cached(p, events, &cache);
        assert_eq!(direct, cached);
        assert!(cached.delivered);
        assert!(cached.path.contains(&BASE_STATION));
    }

    #[test]
    fn mixed_packet_group_is_cache_ineligible() {
        // Defensive: a caller handing a group with a stray foreign event
        // falls back to direct reconstruction instead of poisoning the
        // cache with an ill-defined canonical form.
        let recon = Reconstructor::new(CtpVocabulary::table2());
        let stray = Event::new(n(1), EventKind::Origin, PacketId::new(n(9), 9));
        let events = vec![ev(1, EventKind::Trans { to: n(2) }), stray];
        assert!(recon.signature_of(pid(), &events).is_none());
    }
}
