//! The event-driven network simulator.
//!
//! Drives the whole stack — application traffic, CTP routing, LPL MAC with
//! retransmissions, per-node OS behaviour, the sink's serial link and the
//! base station — over a [`netsim::Scheduler`], producing:
//!
//! * lossy per-node [`LocalLog`]s (through [`NodeLogger`]s) plus the base
//!   station's reliable log, and
//! * complete [`GroundTruth`]: every loggable event in true order, every
//!   packet's fate (delivered, or lost where and why) and true path.
//!
//! Copy accounting: a packet may briefly exist in several places (sender
//! retains its copy until acked; a receiver may already have accepted a
//! copy whose ACK was lost). A packet's *fate* is `Delivered` if any copy
//! reaches the base station; otherwise the **latest copy death** determines
//! the loss position and cause — which is also what REFILL's flow-based
//! diagnosis estimates, making truth and inference comparable.

use crate::config::SimConfig;
use crate::ctp::RoutingState;
use crate::energy::EnergyLedger;
use crate::node::{AcceptError, MacSlot, NodeState};
use crate::packet::DataPacket;
use crate::schedule::{FaultModulator, FaultSchedule};
use eventlog::clock::{ClockConfig, ClockModel};
use eventlog::event::BASE_STATION;
use eventlog::logger::{LocalLog, LocalTs, LogEntry, NodeLogger};
use eventlog::{Event, EventKind, GroundTruth, LossCause, PacketFate, PacketId};
use netsim::fx::FxHashMap;
use netsim::link::{LinkModel, LinkQualityTable};
use netsim::metrics::CounterSet;
use netsim::{NodeId, Rng, RngFactory, Scheduler, SimDuration, SimTime, Topology};

/// Everything a run produces.
#[derive(Debug)]
pub struct SimOutput {
    /// Per-node local logs (lossy at the recording layer), plus the base
    /// station's reliable log as the final element.
    pub logs: Vec<LocalLog>,
    /// Complete ground truth.
    pub truth: GroundTruth,
    /// Aggregate counters (transmissions, retries, loop rounds, …).
    pub counters: CounterSet,
    /// The clock model used for local timestamps.
    pub clocks: ClockModel,
    /// Per-node radio energy ledger.
    pub energy: EnergyLedger,
}

#[derive(Debug, Clone)]
enum Ev {
    Gen { node: NodeId },
    Serve { node: NodeId },
    Attempt { node: NodeId },
    FrameArrive { from: NodeId, to: NodeId, packet: DataPacket },
    AckArrive { node: NodeId, id: PacketId },
    RetryCheck { node: NodeId, id: PacketId, attempt: u32 },
    SerialArrive { packet: DataPacket },
    RouteUpdate,
    LogFlush,
    Reboot { node: NodeId },
}

#[derive(Debug, Default, Clone, Copy)]
struct PacketState {
    live: i32,
    delivered: Option<SimTime>,
    /// Death of the copy that progressed furthest: `(depth, at, node,
    /// cause)`, ordered lexicographically by `(depth, at)`. A sender's
    /// timeout (shallow copy) must not mask the accepted copy's later fate
    /// downstream.
    deepest_death: Option<(u8, SimTime, NodeId, LossCause)>,
}

/// The simulator.
pub struct Simulator {
    topology: Topology,
    links: LinkModel,
    faults: FaultSchedule,
    config: SimConfig,
    routing: RoutingState,
    scheduler: Scheduler<Ev>,
    nodes: Vec<NodeState>,
    loggers: Vec<NodeLogger>,
    node_rngs: Vec<Rng>,
    route_rng: Rng,
    bs_entries: Vec<LogEntry>,
    clocks: ClockModel,
    truth: GroundTruth,
    packets: FxHashMap<PacketId, PacketState>,
    next_seq: Vec<u32>,
    counters: CounterSet,
    energy: EnergyLedger,
}

impl Simulator {
    /// Build a simulator over a topology, its static link table, a fault
    /// schedule and the run configuration.
    pub fn new(
        topology: Topology,
        link_table: LinkQualityTable,
        faults: FaultSchedule,
        config: SimConfig,
    ) -> Self {
        config.validate().expect("invalid SimConfig");
        let factory = RngFactory::new(config.seed);
        let modulator = FaultModulator::new(&topology, &faults);
        let links = LinkModel::new(link_table, Box::new(modulator));
        let routing = RoutingState::converged(&topology, &links, SimTime::ZERO);
        let n = topology.len();
        let clocks = ClockModel::generate(n, &ClockConfig::default(), &factory);
        let nodes = (0..n)
            .map(|_| NodeState::new(config.queue_capacity, config.dup_cache_size))
            .collect();
        let loggers = (0..n)
            .map(|i| {
                NodeLogger::new(
                    NodeId(i as u16),
                    config.logger,
                    clocks.clock(NodeId(i as u16)),
                )
            })
            .collect();
        let node_rngs = (0..n).map(|i| factory.stream("node", i as u64)).collect();
        let route_rng = factory.stream("route", 0);
        // The delays nearly every event is scheduled at.
        let scheduler = Scheduler::with_lanes(&[
            SimDuration::ZERO,
            config.hop_delay,
            config.retry_backoff,
            config.serial_delay,
        ]);
        Simulator {
            topology,
            links,
            faults,
            config,
            routing,
            scheduler,
            nodes,
            loggers,
            node_rngs,
            route_rng,
            bs_entries: Vec::new(),
            clocks,
            truth: GroundTruth::default(),
            packets: FxHashMap::default(),
            next_seq: vec![0; n],
            counters: CounterSet::new(),
            energy: EnergyLedger::new(n),
        }
    }

    /// Run to completion (generation stops at `config.duration`; in-flight
    /// traffic drains) and return the outputs.
    pub fn run(mut self) -> SimOutput {
        // Seed the periodic processes.
        let n = self.topology.len();
        for i in 0..n {
            let node = NodeId(i as u16);
            if node == self.routing.sink() {
                continue;
            }
            let offset = self.jittered_interval(node);
            self.scheduler.schedule(SimTime::ZERO + offset, Ev::Gen { node });
        }
        self.scheduler
            .schedule(SimTime::ZERO + self.config.route_update_interval, Ev::RouteUpdate);
        self.scheduler
            .schedule(SimTime::ZERO + self.config.log_flush_interval, Ev::LogFlush);
        if self.config.reboot_mean_interval.is_some() {
            for i in 0..n {
                let node = NodeId(i as u16);
                if node == self.routing.sink() {
                    continue; // the sink's reboot story is its own fault process
                }
                let delay = self.next_reboot_delay(node);
                self.scheduler.schedule(SimTime::ZERO + delay, Ev::Reboot { node });
            }
        }

        while let Some((now, ev)) = self.scheduler.pop() {
            self.handle(now, ev);
        }
        self.finalize()
    }

    fn jittered_interval(&mut self, node: NodeId) -> SimDuration {
        let j = self.config.packet_jitter;
        let f = if j > 0.0 {
            1.0 + self.node_rngs[node.index()].gen_range(-j..j)
        } else {
            1.0
        };
        self.config.packet_interval.mul_f64(f)
    }

    fn handle(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::Gen { node } => self.on_gen(now, node),
            Ev::Serve { node } => self.on_serve(now, node),
            Ev::Attempt { node } => self.on_attempt(now, node),
            Ev::FrameArrive { from, to, packet } => self.on_frame(now, from, to, packet),
            Ev::AckArrive { node, id } => self.on_ack(now, node, id),
            Ev::RetryCheck { node, id, attempt } => self.on_retry_check(now, node, id, attempt),
            Ev::SerialArrive { packet } => self.on_serial_arrive(now, packet),
            Ev::RouteUpdate => self.on_route_update(now),
            Ev::LogFlush => self.on_log_flush(now),
            Ev::Reboot { node } => self.on_reboot(now, node),
        }
    }

    // ------------------------------------------------------------------
    // Event handlers
    // ------------------------------------------------------------------

    fn on_gen(&mut self, now: SimTime, node: NodeId) {
        if now <= self.config.duration {
            let seq = self.next_seq[node.index()];
            self.next_seq[node.index()] += 1;
            let id = PacketId::new(node, seq);
            let packet = DataPacket::new(id);
            self.packets.insert(id, PacketState::default());
            self.counters.incr("generated");
            self.truth.visit(id, node);
            if self.config.log_origin {
                self.log(now, node, EventKind::Origin, id);
            }
            // Self-enqueue.
            match self.nodes[node.index()].accept(packet) {
                Ok(()) => {
                    self.copy_gain(id);
                    if self.config.log_enqueue {
                        self.log(now, node, EventKind::Enqueue, id);
                    }
                    self.scheduler.schedule(now, Ev::Serve { node });
                }
                Err(_) => {
                    // Own queue full at generation time.
                    self.log(now, node, EventKind::Overflow { from: node }, id);
                    self.death(id, node, LossCause::OverflowLoss, now, 0);
                    self.counters.incr("overflow_drops");
                }
            }
            // Next generation.
            let next = now + self.jittered_interval(node);
            if next <= self.config.duration {
                self.scheduler.schedule(next, Ev::Gen { node });
            }
        }
    }

    fn on_serve(&mut self, now: SimTime, node: NodeId) {
        let Some(packet) = self.nodes[node.index()].next_to_serve() else {
            return;
        };
        let id = packet.id;
        // Internal task failure: the queued packet silently dies inside the
        // node (received loss — its recv *was* logged).
        if self.node_rngs[node.index()].gen::<f64>() < self.config.p_internal_drop {
            self.copy_release(id);
            self.death(id, node, LossCause::ReceivedLoss, now, packet.thl);
            self.counters.incr("internal_drops");
            self.scheduler.schedule(now, Ev::Serve { node });
            return;
        }
        let Some(target) = self.routing.parent(node) else {
            // No route: packet dies inside the node.
            self.copy_release(id);
            self.death(id, node, LossCause::ReceivedLoss, now, packet.thl);
            self.counters.incr("no_route_drops");
            self.scheduler.schedule(now, Ev::Serve { node });
            return;
        };
        self.nodes[node.index()].mac = Some(MacSlot {
            packet,
            target,
            attempts: 0,
            acked: false,
        });
        self.scheduler.schedule(now, Ev::Attempt { node });
    }

    fn on_attempt(&mut self, now: SimTime, node: NodeId) {
        let Some(slot) = self.nodes[node.index()].mac else {
            return;
        };
        if slot.acked {
            return;
        }
        let attempts = slot.attempts + 1;
        if let Some(m) = self.nodes[node.index()].mac.as_mut() {
            m.attempts = attempts;
        }
        let id = slot.packet.id;
        let target = slot.target;
        self.log(now, node, EventKind::Trans { to: target }, id);
        self.counters.incr("transmissions");
        self.energy.charge_tx(node, &self.config.energy);
        if attempts > 1 {
            self.counters.incr("retransmissions");
        }

        let frame_ok = {
            let prr = self.links.prr(node, target, now);
            self.node_rngs[node.index()].gen::<f64>() < prr
        };
        if frame_ok {
            self.scheduler.schedule(
                now + self.config.hop_delay,
                Ev::FrameArrive {
                    from: node,
                    to: target,
                    packet: slot.packet,
                },
            );
        }
        self.scheduler.schedule(
            now + self.config.retry_backoff,
            Ev::RetryCheck {
                node,
                id,
                attempt: attempts,
            },
        );
    }

    /// Send an acknowledgement from `to` back to `from` over the reverse
    /// link (short and robust: its loss probability is the reverse PRR
    /// shrunk by `ack_fragility`).
    fn send_ack(&mut self, now: SimTime, from: NodeId, to: NodeId, id: PacketId) {
        let rev = self.links.prr(to, from, now);
        let p_ack = 1.0 - (1.0 - rev) * self.config.ack_fragility;
        if self.node_rngs[to.index()].gen::<f64>() < p_ack {
            self.scheduler.schedule(
                now + self.config.hop_delay,
                Ev::AckArrive { node: from, id },
            );
        }
    }

    fn on_frame(&mut self, now: SimTime, from: NodeId, to: NodeId, packet: DataPacket) {
        self.energy.charge_rx(to, &self.config.energy);
        let id = packet.id;
        // Hardware ACK: the PHY acknowledges on CRC pass, *before* the
        // stack gets a say — the root of the paper's acked losses.
        if !self.config.software_ack {
            self.send_ack(now, from, to, id);
        }
        if to == self.routing.sink() {
            self.on_frame_at_sink(now, from, packet);
            return;
        }
        // Stack hand-off drop: hardware acked, never reached the network
        // layer — nothing logged on the receiver. (With software ACKs the
        // sender never hears back and retries instead.)
        if self.node_rngs[to.index()].gen::<f64>() < self.config.p_prelog_drop {
            self.death(id, to, LossCause::AckedLoss, now, packet.thl.saturating_add(1));
            self.counters.incr("prelog_drops");
            return;
        }
        let fwd = packet.forwarded();
        if fwd.thl >= self.config.max_thl {
            self.death(id, to, LossCause::ReceivedLoss, now, fwd.thl);
            self.counters.incr("thl_exceeded");
            return;
        }
        if self.nodes[to.index()].is_duplicate(&fwd) {
            self.log(now, to, EventKind::Dup { from }, id);
            self.death(id, to, LossCause::DuplicateLoss, now, fwd.thl);
            self.counters.incr("duplicate_drops");
            // The packet is already held: a software ACK is still in order.
            if self.config.software_ack {
                self.send_ack(now, from, to, id);
            }
            return;
        }
        self.log(now, to, EventKind::Recv { from }, id);
        match self.nodes[to.index()].accept(fwd) {
            Ok(()) => {
                if self.config.software_ack {
                    self.send_ack(now, from, to, id);
                }
                self.copy_gain(id);
                self.truth.visit(id, to);
                if self.config.log_enqueue {
                    self.log(now, to, EventKind::Enqueue, id);
                }
                self.scheduler.schedule(now, Ev::Serve { node: to });
            }
            Err(AcceptError::QueueFull) => {
                self.log(now, to, EventKind::Overflow { from }, id);
                self.death(id, to, LossCause::OverflowLoss, now, fwd.thl);
                self.counters.incr("overflow_drops");
            }
            Err(AcceptError::Duplicate) => {
                // Raced with is_duplicate above; treat identically.
                self.log(now, to, EventKind::Dup { from }, id);
                self.death(id, to, LossCause::DuplicateLoss, now, fwd.thl);
                self.counters.incr("duplicate_drops");
            }
        }
    }

    fn on_frame_at_sink(&mut self, now: SimTime, from: NodeId, packet: DataPacket) {
        let sink = self.routing.sink();
        let id = packet.id;
        // The unstable serial wiring keeps the sink MCU busy: elevated
        // pre-log drops (acked losses at the sink — the paper's 38 %).
        if self.node_rngs[sink.index()].gen::<f64>() < self.faults.sink_prelog_drop.at(now) {
            self.death(id, sink, LossCause::AckedLoss, now, packet.thl.saturating_add(1));
            self.counters.incr("sink_prelog_drops");
            return;
        }
        let fwd = packet.forwarded();
        if self.nodes[sink.index()].is_duplicate(&fwd) {
            self.log(now, sink, EventKind::Dup { from }, id);
            self.death(id, sink, LossCause::DuplicateLoss, now, fwd.thl);
            self.counters.incr("duplicate_drops");
            if self.config.software_ack {
                self.send_ack(now, from, sink, id);
            }
            return;
        }
        self.nodes[sink.index()].note_seen(&fwd);
        self.log(now, sink, EventKind::Recv { from }, id);
        self.truth.visit(id, sink);
        if self.config.software_ack {
            self.send_ack(now, from, sink, id);
        }
        // Post-recv drop before the serial write (received loss at sink).
        if self.node_rngs[sink.index()].gen::<f64>() < self.faults.sink_predrop.at(now) {
            self.death(id, sink, LossCause::ReceivedLoss, now, fwd.thl);
            self.counters.incr("sink_predrops");
            return;
        }
        self.log(now, sink, EventKind::SerialTrans, id);
        // RS232 cable loss (received loss at sink, after serial trans).
        if self.node_rngs[sink.index()].gen::<f64>() < self.faults.serial_loss.at(now) {
            self.death(id, sink, LossCause::ReceivedLoss, now, fwd.thl);
            self.counters.incr("serial_losses");
            return;
        }
        self.copy_gain(id);
        self.scheduler
            .schedule(now + self.config.serial_delay, Ev::SerialArrive { packet: fwd });
    }

    fn on_serial_arrive(&mut self, now: SimTime, packet: DataPacket) {
        let id = packet.id;
        self.copy_release(id);
        if self.faults.in_outage(now) {
            // Server down: the packet made it over the wire into nothing.
            self.death(id, self.routing.sink(), LossCause::ServerOutage, now, packet.thl.saturating_add(1));
            self.counters.incr("outage_losses");
            return;
        }
        let event = Event::new(BASE_STATION, EventKind::BsRecv, id);
        self.truth.record(now, event);
        self.bs_entries.push(LogEntry {
            event,
            local_ts: LocalTs::new(now.as_micros()),
        });
        self.truth.visit(id, BASE_STATION);
        if let Some(p) = self.packets.get_mut(&id) {
            if p.delivered.is_none() {
                p.delivered = Some(now);
            }
        }
        self.counters.incr("delivered");
    }

    fn on_ack(&mut self, now: SimTime, node: NodeId, id: PacketId) {
        let Some(slot) = self.nodes[node.index()].mac else {
            return;
        };
        if slot.packet.id != id || slot.acked {
            return;
        }
        self.log(now, node, EventKind::AckRecvd { to: slot.target }, id);
        self.nodes[node.index()].mac = None;
        self.copy_release(id);
        self.scheduler.schedule(now, Ev::Serve { node });
    }

    fn on_retry_check(&mut self, now: SimTime, node: NodeId, id: PacketId, attempt: u32) {
        let Some(slot) = self.nodes[node.index()].mac else {
            return;
        };
        if slot.packet.id != id || slot.acked || slot.attempts != attempt {
            return;
        }
        if slot.attempts >= self.config.max_retries {
            self.log(now, node, EventKind::Timeout { to: slot.target }, id);
            self.nodes[node.index()].mac = None;
            self.copy_release(id);
            self.death(id, node, LossCause::TimeoutLoss, now, slot.packet.thl);
            self.counters.incr("timeout_drops");
            self.scheduler.schedule(now, Ev::Serve { node });
        } else {
            self.scheduler.schedule(now, Ev::Attempt { node });
        }
    }

    fn on_route_update(&mut self, now: SimTime) {
        let changed = self.routing.update_round(
            &self.topology,
            &self.links,
            now,
            self.config.route_update_prob,
            &mut self.route_rng,
        );
        self.counters.add("route_changes", changed as u64);
        if !self.routing.nodes_in_loops().is_empty() {
            self.counters.incr("loop_rounds");
        }
        if now < self.config.duration {
            self.scheduler
                .schedule(now + self.config.route_update_interval, Ev::RouteUpdate);
        }
    }

    fn next_reboot_delay(&mut self, node: NodeId) -> SimDuration {
        let mean = self
            .config
            .reboot_mean_interval
            .expect("only called when reboots are enabled");
        // Uniform 0.5–1.5 × mean: jittered but bounded.
        let f = self.node_rngs[node.index()].gen_range(0.5..1.5);
        mean.mul_f64(f)
    }

    fn on_reboot(&mut self, now: SimTime, node: NodeId) {
        // Unflushed log entries are gone.
        self.loggers[node.index()].reboot();
        // Every packet the node holds dies in place.
        let held: Vec<DataPacket> = self.nodes[node.index()]
            .mac
            .iter()
            .map(|m| m.packet)
            .collect();
        for p in held {
            self.copy_release(p.id);
            self.death(p.id, node, LossCause::ReceivedLoss, now, p.thl);
        }
        self.nodes[node.index()].mac = None;
        while let Some(p) = self.nodes[node.index()].next_to_serve() {
            self.copy_release(p.id);
            self.death(p.id, node, LossCause::ReceivedLoss, now, p.thl);
        }
        self.counters.incr("reboots");
        if now < self.config.duration {
            let delay = self.next_reboot_delay(node);
            self.scheduler.schedule(now + delay, Ev::Reboot { node });
        }
    }

    fn on_log_flush(&mut self, now: SimTime) {
        for l in &mut self.loggers {
            l.flush();
        }
        if now < self.config.duration {
            self.scheduler
                .schedule(now + self.config.log_flush_interval, Ev::LogFlush);
        }
    }

    // ------------------------------------------------------------------
    // Bookkeeping
    // ------------------------------------------------------------------

    fn log(&mut self, now: SimTime, node: NodeId, kind: EventKind, id: PacketId) {
        let event = Event::new(node, kind, id);
        self.truth.record(now, event);
        self.loggers[node.index()].record(event, now, &mut self.node_rngs[node.index()]);
    }

    fn copy_gain(&mut self, id: PacketId) {
        if let Some(p) = self.packets.get_mut(&id) {
            p.live += 1;
        }
    }

    fn copy_release(&mut self, id: PacketId) {
        if let Some(p) = self.packets.get_mut(&id) {
            p.live -= 1;
        }
    }

    fn death(&mut self, id: PacketId, node: NodeId, cause: LossCause, at: SimTime, depth: u8) {
        if let Some(p) = self.packets.get_mut(&id) {
            let better = match p.deepest_death {
                None => true,
                Some((d, t, _, _)) => (depth, at) >= (d, t),
            };
            if better {
                p.deepest_death = Some((depth, at, node, cause));
            }
        }
    }

    fn finalize(mut self) -> SimOutput {
        let end = self.scheduler.now();
        // Drain: copies still sitting in queues or MAC slots die in place.
        for i in 0..self.nodes.len() {
            let node = NodeId(i as u16);
            let stuck: Vec<DataPacket> = self.nodes[i].mac.iter().map(|m| m.packet).collect();
            for p in stuck {
                self.copy_release(p.id);
                self.death(p.id, node, LossCause::ReceivedLoss, end, p.thl);
                self.counters.incr("drain_drops");
            }
            while let Some(p) = {
                self.nodes[i].mac = None;
                self.nodes[i].next_to_serve()
            } {
                self.copy_release(p.id);
                self.death(p.id, node, LossCause::ReceivedLoss, end, p.thl);
                self.counters.incr("drain_drops");
            }
        }
        // Fates.
        for (&id, st) in &self.packets {
            let fate = match st.delivered {
                Some(at) => PacketFate::Delivered { at },
                None => {
                    let (_, at, at_node, cause) = st.deepest_death.unwrap_or((
                        0,
                        end,
                        id.origin,
                        LossCause::ReceivedLoss,
                    ));
                    PacketFate::Lost { at_node, cause, at }
                }
            };
            self.truth.set_fate(id, fate);
        }
        // Logs.
        self.energy
            .charge_baseline(end.saturating_since(SimTime::ZERO), &self.config.energy);
        let mut logs: Vec<LocalLog> = self.loggers.into_iter().map(|l| l.into_log()).collect();
        logs.push(LocalLog {
            node: BASE_STATION,
            entries: self.bs_entries,
        });
        SimOutput {
            logs,
            truth: self.truth,
            counters: self.counters,
            clocks: self.clocks,
            energy: self.energy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Schedule;
    use eventlog::logger::LoggerConfig;
    use netsim::link::LinkModelConfig;
    use netsim::topology::Layout;

    fn build(
        n: usize,
        side: f64,
        seed: u64,
        faults: FaultSchedule,
        tweak: impl FnOnce(&mut SimConfig),
    ) -> SimOutput {
        let factory = RngFactory::new(seed);
        let topo = Topology::generate(n, side, Layout::JitteredGrid, &factory);
        let table = LinkModel::build_table(&topo, &LinkModelConfig::default(), &factory);
        let mut config = SimConfig {
            seed,
            duration: SimTime::from_secs(120),
            packet_interval: netsim::SimDuration::from_secs(15),
            logger: LoggerConfig::lossless(),
            ..SimConfig::default()
        };
        tweak(&mut config);
        Simulator::new(topo, table, faults, config).run()
    }

    fn clean_config(c: &mut SimConfig) {
        c.p_prelog_drop = 0.0;
        c.p_internal_drop = 0.0;
    }

    #[test]
    fn packets_flow_to_base_station() {
        let out = build(25, 250.0, 7, FaultSchedule::default(), clean_config);
        assert!(out.counters.get("generated") > 50);
        let ratio = out.truth.delivery_ratio();
        assert!(
            ratio > 0.9,
            "delivery ratio too low on a healthy network: {ratio}"
        );
    }

    #[test]
    fn truth_events_are_time_ordered() {
        let out = build(16, 200.0, 3, FaultSchedule::default(), clean_config);
        assert!(out
            .truth
            .events
            .windows(2)
            .all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn runs_are_deterministic() {
        let a = build(16, 200.0, 11, FaultSchedule::default(), |_| {});
        let b = build(16, 200.0, 11, FaultSchedule::default(), |_| {});
        assert_eq!(a.truth.events.len(), b.truth.events.len());
        for (x, y) in a.truth.events.iter().zip(&b.truth.events) {
            assert_eq!(x, y);
        }
        assert_eq!(a.counters, b.counters);
    }

    #[test]
    fn different_seeds_differ() {
        let a = build(16, 200.0, 1, FaultSchedule::default(), |_| {});
        let b = build(16, 200.0, 2, FaultSchedule::default(), |_| {});
        assert_ne!(a.truth.events, b.truth.events);
    }

    #[test]
    fn sink_prelog_faults_cause_acked_losses() {
        let faults = FaultSchedule {
            sink_prelog_drop: Schedule::constant(0.5),
            ..FaultSchedule::default()
        };
        let out = build(16, 200.0, 5, faults, clean_config);
        let by_cause = out.truth.losses_by_cause();
        assert!(
            by_cause.get(&LossCause::AckedLoss).copied().unwrap_or(0) > 0,
            "expected acked losses at the sink: {by_cause:?}"
        );
    }

    #[test]
    fn serial_faults_cause_received_losses_at_sink() {
        let faults = FaultSchedule {
            serial_loss: Schedule::constant(0.6),
            ..FaultSchedule::default()
        };
        let out = build(16, 200.0, 5, faults, clean_config);
        let sink = NodeId(0);
        let sink_received = out
            .truth
            .fates
            .values()
            .filter(|f| {
                matches!(f, PacketFate::Lost { at_node, cause, .. }
                    if *at_node == sink && *cause == LossCause::ReceivedLoss)
            })
            .count();
        assert!(sink_received > 0);
        // And the sink logged serial trans for them.
        assert!(out
            .truth
            .events
            .iter()
            .any(|te| matches!(te.event.kind, EventKind::SerialTrans)));
    }

    #[test]
    fn outages_cause_server_outage_losses() {
        let faults = FaultSchedule {
            outages: vec![(SimTime::from_secs(0), SimTime::from_secs(400))],
            ..FaultSchedule::default()
        };
        let out = build(16, 200.0, 5, faults, clean_config);
        let by_cause = out.truth.losses_by_cause();
        assert!(by_cause.get(&LossCause::ServerOutage).copied().unwrap_or(0) > 0);
        assert_eq!(out.counters.get("delivered"), 0, "server was down all run");
    }

    #[test]
    fn jammed_network_times_out() {
        // Heavy interference: links barely work (but still exist, so routes
        // form), and the retry budget is tiny.
        let faults = FaultSchedule {
            weather: Schedule::constant(0.05),
            ..FaultSchedule::default()
        };
        let out = build(9, 150.0, 5, faults, |c| {
            clean_config(c);
            c.max_retries = 2;
        });
        let by_cause = out.truth.losses_by_cause();
        assert!(
            by_cause.get(&LossCause::TimeoutLoss).copied().unwrap_or(0) > 0,
            "expected timeout losses: {by_cause:?}"
        );
        assert!(out.counters.get("retransmissions") > 0);
        assert!(
            out.truth.delivery_ratio() < 0.5,
            "a jammed network should lose most packets"
        );
    }

    #[test]
    fn internal_drops_cause_received_losses() {
        let out = build(16, 200.0, 5, FaultSchedule::default(), |c| {
            c.p_prelog_drop = 0.0;
            c.p_internal_drop = 0.5;
        });
        let by_cause = out.truth.losses_by_cause();
        assert!(by_cause.get(&LossCause::ReceivedLoss).copied().unwrap_or(0) > 0);
        assert!(out.counters.get("internal_drops") > 0);
    }

    #[test]
    fn overflow_under_pressure() {
        let out = build(25, 250.0, 5, FaultSchedule::default(), |c| {
            clean_config(c);
            c.queue_capacity = 1;
            c.packet_interval = netsim::SimDuration::from_millis(500);
        });
        assert!(out.counters.get("overflow_drops") > 0);
        let by_cause = out.truth.losses_by_cause();
        assert!(by_cause.get(&LossCause::OverflowLoss).copied().unwrap_or(0) > 0);
    }

    #[test]
    fn reboots_truncate_logs_and_drop_held_packets() {
        let with_reboots = build(16, 200.0, 5, FaultSchedule::default(), |c| {
            clean_config(c);
            c.reboot_mean_interval = Some(netsim::SimDuration::from_secs(20));
            c.log_flush_interval = netsim::SimDuration::from_secs(60);
        });
        assert!(with_reboots.counters.get("reboots") > 0);
        let without = build(16, 200.0, 5, FaultSchedule::default(), |c| {
            clean_config(c);
            c.log_flush_interval = netsim::SimDuration::from_secs(60);
        });
        // Rebooting nodes lose log entries relative to the same run without
        // reboots (same seed, infrequent flushes).
        let logged = |o: &SimOutput| o.logs.iter().map(|l| l.len()).sum::<usize>();
        assert!(
            logged(&with_reboots) < logged(&without),
            "reboots should truncate logs: {} vs {}",
            logged(&with_reboots),
            logged(&without)
        );
    }

    #[test]
    fn software_acks_eliminate_acked_losses() {
        // §V-D.5: with software ACKs, stack drops are retried instead of
        // becoming acked losses.
        let faults = FaultSchedule {
            sink_prelog_drop: Schedule::constant(0.3),
            ..FaultSchedule::default()
        };
        let hw = build(16, 200.0, 5, faults.clone(), |c| {
            c.p_internal_drop = 0.0;
        });
        let sw = build(16, 200.0, 5, faults, |c| {
            c.p_internal_drop = 0.0;
            c.software_ack = true;
        });
        let acked = |o: &SimOutput| {
            o.truth
                .losses_by_cause()
                .get(&LossCause::AckedLoss)
                .copied()
                .unwrap_or(0)
        };
        assert!(acked(&hw) > 0, "hardware acks produce acked losses");
        assert_eq!(acked(&sw), 0, "software acks retry stack drops instead");
        // The price: more transmissions for the same traffic.
        assert!(
            sw.counters.get("transmissions") > hw.counters.get("transmissions"),
            "sw {} vs hw {}",
            sw.counters.get("transmissions"),
            hw.counters.get("transmissions")
        );
        // And better delivery.
        assert!(sw.truth.delivery_ratio() >= hw.truth.delivery_ratio());
    }

    #[test]
    fn energy_concentrates_near_the_sink() {
        let out = build(25, 250.0, 7, FaultSchedule::default(), clean_config);
        // Everyone pays the same baseline.
        let base0 = out.energy.baseline_mj[1];
        assert!(out.energy.baseline_mj.iter().all(|&b| (b - base0).abs() < 1e-9));
        // The busiest forwarders burn the most TX energy, and the ranking's
        // top node beats the median by a wide margin (funnel effect).
        let hot = out.energy.hotspots();
        let median = hot[hot.len() / 2].1;
        assert!(
            hot[0].1 > median * 1.2,
            "hotspot {} vs median {median}",
            hot[0].1
        );
        assert!(out.energy.network_total_mj() > 0.0);
    }

    #[test]
    fn bs_log_is_last_and_reliable() {
        let out = build(9, 150.0, 5, FaultSchedule::default(), clean_config);
        let bs = out.logs.last().unwrap();
        assert_eq!(bs.node, BASE_STATION);
        assert_eq!(bs.len() as u64, out.counters.get("delivered"));
        assert!(bs
            .events()
            .all(|e| matches!(e.kind, EventKind::BsRecv)));
    }

    #[test]
    fn paths_start_at_origin_and_end_at_bs_when_delivered() {
        let out = build(16, 200.0, 5, FaultSchedule::default(), clean_config);
        for (id, fate) in &out.truth.fates {
            let path = &out.truth.paths[id];
            assert_eq!(path[0], id.origin, "path starts at origin");
            if fate.delivered() {
                assert_eq!(*path.last().unwrap(), BASE_STATION);
            }
        }
    }

    #[test]
    fn fates_cover_every_generated_packet() {
        let out = build(16, 200.0, 9, FaultSchedule::default(), |_| {});
        assert_eq!(out.truth.packet_count() as u64, out.counters.get("generated"));
        // live accounting: every packet is either delivered or has a death.
        for fate in out.truth.fates.values() {
            match fate {
                PacketFate::Delivered { .. } | PacketFate::Lost { .. } => {}
            }
        }
    }
}
