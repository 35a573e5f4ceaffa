//! The streaming core: per-node lanes, watermark windowing, and convergent
//! late handling over one record per packet.
//!
//! Records enter their node's lane through [`StreamReconstructor::ingest`],
//! move into the reconstruction state on [`StreamReconstructor::pump`] (or
//! when a full lane stalls), and come out as [`PacketReport`]s when
//! [`StreamReconstructor::poll`] decides their windows have closed.
//!
//! ## Windowing
//!
//! A packet's window stays open while evidence may still plausibly arrive.
//! Because node clocks are unsynchronized (offsets up to minutes), the
//! close rule never compares clocks across nodes: a window closes when
//! **each contributing node individually** has moved its own [`Mark`] far
//! enough past that node's last contribution ([`Lateness`]: a record quota
//! or a local-time bound, whichever passes first). Watermarks are purely a
//! latency heuristic — a record arriving after its window closed *reopens*
//! the window and the packet is re-reconstructed.
//!
//! A window keeps its events in [`packet_order`] — by each record's position
//! in its own node's stream, then node — the order `merge_logs` gives them
//! once the records are regrouped into per-node logs. No clock enters it. So,
//! however the stream is interleaved and whatever its timestamps read, a
//! close is the batch answer over what was absorbed and
//! [`StreamReconstructor::finish`] the batch answer over everything
//! ingested; timestamps only move *when* a window closes.
//!
//! All per-packet state lives once, in one [`PacketState`]; a window is
//! reconstructed exactly once each time it closes (open → closed → reopened
//! → closed …) and never otherwise. Logs that trickle in over hours are the
//! same thing at a slower cadence: `ingest` a log's records, `finish()`,
//! repeat — `finish()` is re-enterable.
//!
//! ## What one close costs
//!
//! One kernel call, over the window's events gathered into a per-worker
//! buffer. A re-closing window's previous report goes back to the kernel
//! first ([`Reconstructor::recycle`]), so its successor is built in the same
//! vectors; and [`StreamReconstructor::poll_with`] lends each new report to
//! the caller where it lies. Only `poll` and `finish` clone.

use eventlog::frame::NodeRecord;
use eventlog::merge::packet_order;
use eventlog::watermark::{Lateness, Mark, WatermarkTracker};
use eventlog::{Event, PacketId};
use netsim::fx::FxHashMap;
use netsim::{available_workers, NodeId};
use refill::parallel::par_map;
use refill::telemetry::{Counter, Hist, Recorder, Stage, StageTimer};
use refill::{PacketReport, Reconstructor};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

/// Records a lane holds before the next one for its node pumps every lane.
/// It decides only how many records a sweep finds absorbed, never a report.
const LANE_CAPACITY: usize = 256;

/// Rolling totals, independent of whether a telemetry recorder is attached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Records absorbed into reconstruction state.
    pub records: u64,
    /// Windows closed (a reopened window counts again when it re-closes).
    pub windows_closed: u64,
    /// Windows reopened by records that arrived after they closed.
    pub windows_reopened: u64,
    /// Records that found their node's lane full and pumped every lane.
    pub backpressure: u64,
}

/// One absorbed record as its window keeps it: the event, and the lane and
/// position in that lane's stream that place it in [`packet_order`].
struct Evidence {
    event: Event,
    node: NodeId,
    position: u64,
}

/// Everything the online path keeps about one packet.
struct PacketState {
    id: PacketId,
    /// The window's evidence in [`packet_order`] — its events are what the
    /// kernel is handed at every close. The length doubles as the window's
    /// event count.
    events: Vec<Evidence>,
    /// Each contributing node's mark at its *last* contribution; the close
    /// rule compares only a node's own marks, never across nodes. A handful
    /// per packet, so a linear search beats a map.
    contributors: Vec<(NodeId, Mark)>,
    closed: bool,
}

/// Fewer closing windows than this are reconstructed on the calling thread:
/// forking workers for a handful costs more than the reconstructions.
const PAR_MIN_WINDOWS: usize = 8;

/// Online reconstruction over a stream of per-node log records.
pub struct StreamReconstructor {
    lateness: Lateness,
    recorder: Arc<dyn Recorder>,
    recon: Reconstructor,
    /// Ingest queues, one per node; `BTreeMap` so pumping visits lanes in a
    /// deterministic node order.
    lanes: BTreeMap<NodeId, VecDeque<NodeRecord>>,
    tracker: WatermarkTracker,
    /// Where each packet's state sits in `packets`.
    slots: FxHashMap<PacketId, u32>,
    packets: Vec<PacketState>,
    /// Slots of the open windows — all a poll has to look at.
    open: Vec<u32>,
    /// Whether a record was absorbed since the last sweep. Marks move and
    /// windows open only in `absorb`, so without one a poll has nothing to
    /// close.
    absorbed_since_sweep: bool,
    /// Reports as of each packet's last close, in packet-id order; kept out
    /// of `packets` so that growing the slab moves small records only. An
    /// entry is `None` only inside a sweep, while the window's previous
    /// report is away being rebuilt.
    reports: BTreeMap<PacketId, Option<PacketReport>>,
    stats: StreamStats,
}

impl StreamReconstructor {
    /// Wrap a configured batch [`Reconstructor`], closing windows at the
    /// default [`Lateness`].
    pub fn new(recon: Reconstructor) -> Self {
        StreamReconstructor::with_lateness(recon, Lateness::default())
    }

    /// Wrap, closing a window once every contributor is `lateness` past it.
    pub fn with_lateness(recon: Reconstructor, lateness: Lateness) -> Self {
        StreamReconstructor {
            lateness,
            recorder: Arc::clone(recon.recorder()),
            recon,
            lanes: BTreeMap::new(),
            tracker: WatermarkTracker::new(),
            slots: FxHashMap::default(),
            packets: Vec::new(),
            open: Vec::new(),
            absorbed_since_sweep: false,
            reports: BTreeMap::new(),
            stats: StreamStats::default(),
        }
    }

    /// The telemetry recorder shared with the wrapped reconstructor.
    pub fn recorder(&self) -> &Arc<dyn Recorder> {
        &self.recorder
    }

    /// Rolling totals.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Windows currently open.
    pub fn open_windows(&self) -> usize {
        self.open.len()
    }

    /// Enqueue one record on its node's lane. A full lane is a backpressure
    /// stall: every lane is pumped first, so no record is ever dropped.
    pub fn ingest(&mut self, rec: NodeRecord) {
        let lane = self.lanes.entry(rec.node).or_default();
        if lane.len() < LANE_CAPACITY {
            lane.push_back(rec);
            return;
        }
        self.stats.backpressure += 1;
        self.recorder.add(Counter::StreamBackpressure, 1);
        self.pump();
        self.lanes.entry(rec.node).or_default().push_back(rec);
    }

    /// Drain every lane into the reconstruction state (lanes in node order,
    /// each lane front to back, so per-node order is preserved).
    pub fn pump(&mut self) {
        // Out of `self` while `absorb` borrows the rest; no record is copied
        // anywhere but into its packet's state.
        let mut lanes = std::mem::take(&mut self.lanes);
        for lane in lanes.values_mut() {
            for rec in lane.drain(..) {
                self.absorb(rec);
            }
        }
        self.lanes = lanes;
    }

    /// Absorb one record: advance its node's watermark and insert it into
    /// its packet's window (opening or reopening it) at its place in
    /// [`packet_order`].
    fn absorb(&mut self, rec: NodeRecord) {
        self.absorbed_since_sweep = true;
        self.stats.records += 1;
        self.recorder.add(Counter::StreamRecords, 1);
        let mark = self.tracker.advance(rec.node, rec.entry.local_ts);
        let id = rec.entry.event.packet;
        let (packets, open) = (&mut self.packets, &mut self.open);
        let slot = *self.slots.entry(id).or_insert_with(|| {
            open.push(packets.len() as u32);
            packets.push(PacketState {
                id,
                events: Vec::new(),
                contributors: Vec::new(),
                closed: false,
            });
            packets.len() as u32 - 1
        });
        let packet = &mut packets[slot as usize];
        if packet.closed {
            packet.closed = false;
            open.push(slot);
            self.stats.windows_reopened += 1;
            self.recorder.add(Counter::WindowsReopened, 1);
        }
        match packet.contributors.iter_mut().find(|(node, _)| *node == rec.node) {
            Some((_, since)) => *since = mark,
            None => packet.contributors.push((rec.node, mark)),
        }
        // From the back: records mostly arrive in their merged order.
        let events = &mut packet.events;
        let key = packet_order(mark.records, rec.node);
        let at = events
            .iter()
            .rposition(|e| packet_order(e.position, e.node) < key);
        let evidence = Evidence {
            event: rec.entry.event,
            node: rec.node,
            position: mark.records,
        };
        events.insert(at.map_or(0, |before| before + 1), evidence);
    }

    /// Sweep the open windows, close the ones every contributor has moved
    /// past, reconstruct exactly those packets, and return their reports
    /// (in packet-id order), cloned: the stream keeps its own. Returns at once
    /// when no record was absorbed since the last sweep.
    pub fn poll(&mut self) -> Vec<PacketReport> {
        let mut closed = Vec::new();
        self.poll_with(|report| closed.push(report.clone()));
        closed
    }

    /// [`StreamReconstructor::poll`] without the copies: each closed
    /// window's report is lent to `emit` (in packet-id order) where the
    /// stream keeps it.
    pub fn poll_with(&mut self, emit: impl FnMut(&PacketReport)) {
        if self.absorbed_since_sweep {
            self.sweep(false, emit);
        }
    }

    /// End of stream — or of one log in a slower feed: pump what is queued,
    /// close every open window, reconstruct those packets, and return the
    /// full converged report set (in packet-id order) — identical to a
    /// batch reconstruction of every record ever ingested. More records may
    /// follow; they reopen their windows.
    pub fn finish(&mut self) -> Vec<PacketReport> {
        self.pump();
        self.sweep(true, |_| {});
        self.reports()
    }

    /// Close the open windows every contributor has moved past — with `all`,
    /// every open window — and reconstruct each of them exactly once, in
    /// packet-id order: in parallel when there are enough to pay for the
    /// workers, each into the vectors of the window's previous report when it
    /// has one. The new reports replace the old in `reports` and are lent to
    /// `emit` in that order.
    fn sweep(&mut self, all: bool, mut emit: impl FnMut(&PacketReport)) {
        let recorder = Arc::clone(&self.recorder);
        let span = StageTimer::start(&*recorder, Stage::Window);
        self.absorbed_since_sweep = false;
        let lateness = self.lateness;
        let (tracker, packets, reports) = (&self.tracker, &mut self.packets, &mut self.reports);
        // Each closing window with its previous report, which leaves the map
        // (its entry stays) for whichever worker rebuilds it; the lock is
        // that hand-over, taken once and never contended.
        let mut closing: Vec<(u32, Mutex<Option<PacketReport>>)> = Vec::new();
        self.open.retain(|&slot| {
            let packet = &mut packets[slot as usize];
            let passed = |&(node, since): &(NodeId, Mark)| tracker.passed(node, since, lateness);
            packet.closed = all || packet.contributors.iter().all(passed);
            if packet.closed {
                let previous = reports.entry(packet.id).or_default().take();
                closing.push((slot, Mutex::new(previous)));
            }
            !packet.closed
        });
        closing.sort_unstable_by_key(|(slot, _)| packets[*slot as usize].id);
        for (slot, _) in &closing {
            recorder.observe(Hist::WindowEvents, packets[*slot as usize].events.len() as u64);
        }
        self.stats.windows_closed += closing.len() as u64;
        recorder.add(Counter::WindowsClosed, closing.len() as u64);
        // The reconstructions and `emit` are their own stages, not window time.
        drop(span);
        let workers = if closing.len() < PAR_MIN_WINDOWS {
            1
        } else {
            available_workers()
        };
        let (recon, packets) = (&self.recon, &self.packets);
        let rebuilt = par_map(
            closing.len(),
            workers,
            Vec::<Event>::new,
            |events, i| {
                let (slot, previous) = &closing[i];
                let packet = &packets[*slot as usize];
                let previous = previous
                    .lock()
                    .expect("a worker takes the report and lets go at once")
                    .take();
                if let Some(previous) = previous {
                    recon.recycle(previous);
                }
                events.clear();
                events.extend(packet.events.iter().map(|e| e.event));
                recon.reconstruct_packet(packet.id, events)
            },
        );
        for report in rebuilt {
            let kept = reports
                .get_mut(&report.packet)
                .expect("every closing window has an entry");
            emit(kept.insert(report));
        }
    }

    /// The current report for one packet (as of its last reconstruction).
    pub fn report(&self, id: PacketId) -> Option<&PacketReport> {
        self.reports.get(&id)?.as_ref()
    }

    /// Heap bytes held by the per-packet evidence — the memory a
    /// long-running stream actually retains between polls (an event with
    /// its lane and position per record, plus unamortized vector capacity).
    pub fn packed_event_bytes(&self) -> usize {
        self.packets
            .iter()
            .map(|p| p.events.capacity() * std::mem::size_of::<Evidence>())
            .sum()
    }

    /// Every current report, cloned, in packet-id order.
    pub fn reports(&self) -> Vec<PacketReport> {
        self.reports.values().flatten().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventlog::logger::{LocalLog, LocalTs, LogEntry};
    use eventlog::merge::merge_logs;
    use eventlog::EventKind;
    use refill::telemetry::AtomicRecorder;
    use refill::CtpVocabulary;

    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    fn rec(node: u16, kind: EventKind, packet: PacketId, ts: Option<u64>) -> NodeRecord {
        NodeRecord::new(
            n(node),
            LogEntry {
                event: Event::new(n(node), kind, packet),
                local_ts: ts.and_then(LocalTs::new),
            },
        )
    }

    fn recon() -> Reconstructor {
        Reconstructor::new(CtpVocabulary::table2())
    }

    /// A window closes once each contributor delivers one more record.
    fn eager(recon: Reconstructor) -> StreamReconstructor {
        StreamReconstructor::with_lateness(
            recon,
            Lateness {
                records: 1,
                micros: u64::MAX,
            },
        )
    }

    /// Two-hop delivery records for packet (1, seq).
    fn hop_records(seq: u32, ts: Option<u64>) -> Vec<NodeRecord> {
        let p = PacketId::new(n(1), seq);
        vec![
            rec(1, EventKind::Trans { to: n(2) }, p, ts),
            rec(2, EventKind::Recv { from: n(1) }, p, ts),
        ]
    }

    #[test]
    fn finish_matches_batch() {
        let mut logs: Vec<LocalLog> = vec![LocalLog::new(n(1)), LocalLog::new(n(2))];
        let mut stream = StreamReconstructor::new(recon());
        assert_eq!(stream.packed_event_bytes(), 0);
        for seq in 0..8 {
            for r in hop_records(seq, None) {
                logs[usize::from(r.node.0) - 1].entries.push(r.entry);
                stream.ingest(r);
            }
        }
        let streamed = stream.finish();
        let batch = recon().reconstruct_log(&merge_logs(&logs));
        assert_eq!(streamed, batch);
        assert_eq!(stream.stats().records, 16);
        assert_eq!(stream.open_windows(), 0);
        // 16 records are resident, each an event with its lane and position.
        assert!(stream.packed_event_bytes() >= 16 * std::mem::size_of::<Evidence>());
    }

    #[test]
    fn a_full_lane_stalls_once_and_pumps_every_lane() {
        let mut stream = StreamReconstructor::new(recon());
        stream.ingest(hop_records(0, None)[1]);
        for seq in 0..LANE_CAPACITY as u32 {
            stream.ingest(hop_records(seq, None)[0]);
        }
        assert_eq!(stream.stats().backpressure, 0);
        assert_eq!(stream.stats().records, 0, "lanes hold what they can");
        // One record more than node 1's lane holds: both lanes drain first.
        stream.ingest(hop_records(LANE_CAPACITY as u32, None)[0]);
        assert_eq!(stream.stats().backpressure, 1);
        assert_eq!(stream.stats().records, LANE_CAPACITY as u64 + 1);
        stream.finish();
        assert_eq!(stream.stats().records, LANE_CAPACITY as u64 + 2);
    }

    #[test]
    fn windows_close_by_record_quota() {
        let mut stream = eager(recon());
        let p0 = PacketId::new(n(1), 0);
        stream.ingest(rec(1, EventKind::Trans { to: n(2) }, p0, None));
        stream.pump();
        assert!(stream.poll().is_empty(), "no contributor has advanced yet");

        // One more record from node 1 (another packet) moves its mark past
        // p0's contribution; p0's window closes, the new packet's stays open.
        stream.ingest(rec(1, EventKind::Trans { to: n(2) }, PacketId::new(n(1), 1), None));
        stream.pump();
        let out = stream.poll();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].packet, p0);
        assert_eq!(stream.open_windows(), 1);
        assert_eq!(stream.stats().windows_closed, 1);
    }

    #[test]
    fn windows_close_by_local_time() {
        let lateness = Lateness {
            records: u64::MAX,
            micros: 1_000,
        };
        let mut stream = StreamReconstructor::with_lateness(recon(), lateness);
        let p0 = PacketId::new(n(1), 0);
        stream.ingest(rec(1, EventKind::Trans { to: n(2) }, p0, Some(10_000)));
        stream.pump();
        assert!(stream.poll().is_empty());
        stream.ingest(rec(
            1,
            EventKind::Trans { to: n(2) },
            PacketId::new(n(1), 1),
            Some(11_500),
        ));
        stream.pump();
        let out = stream.poll();
        assert_eq!(out.len(), 1, "node 1's clock moved 1.5ms past p0");
        assert_eq!(out[0].packet, p0);
    }

    #[test]
    fn late_arrivals_reopen_and_converge() {
        let mut stream = eager(recon());
        let p = PacketId::new(n(1), 0);
        stream.ingest(rec(1, EventKind::Trans { to: n(2) }, p, None));
        // Push node 1 past p's window and close it early.
        stream.ingest(rec(1, EventKind::Trans { to: n(2) }, PacketId::new(n(1), 9), None));
        stream.pump();
        let early = stream.poll();
        assert_eq!(early.len(), 1);
        assert_eq!(early[0].flow.to_string(), "1-2 trans");

        // Node 2's evidence for p arrives late: the window reopens and the
        // final answer includes it.
        stream.ingest(rec(2, EventKind::Recv { from: n(1) }, p, None));
        stream.pump();
        assert_eq!(stream.stats().windows_reopened, 1);
        let final_reports = stream.finish();
        let got = final_reports.iter().find(|r| r.packet == p).unwrap();
        assert_eq!(got.flow.to_string(), "1-2 trans, 1-2 recv");

        // And the whole set equals the batch answer over the same events.
        let logs = vec![
            LocalLog::from_events(
                n(1),
                vec![
                    Event::new(n(1), EventKind::Trans { to: n(2) }, p),
                    Event::new(n(1), EventKind::Trans { to: n(2) }, PacketId::new(n(1), 9)),
                ],
            ),
            LocalLog::from_events(n(2), vec![Event::new(n(2), EventKind::Recv { from: n(1) }, p)]),
        ];
        let batch = recon().reconstruct_log(&merge_logs(&logs));
        assert_eq!(final_reports, batch);
    }

    #[test]
    fn a_window_keeps_the_merged_order_whatever_the_arrival_order() {
        // Node 2's recv is the first record of its log, node 1's trans the
        // second of its own: the merge puts the recv first, though node 1's
        // clock reads earlier, and so must every window however the records
        // arrive.
        let p = PacketId::new(n(1), 0);
        let other = rec(1, EventKind::Origin, PacketId::new(n(1), 1), Some(50));
        let trans = rec(1, EventKind::Trans { to: n(2) }, p, Some(100));
        let recv = rec(2, EventKind::Recv { from: n(1) }, p, Some(500));
        let logs = vec![
            LocalLog {
                node: n(1),
                entries: vec![other.entry, trans.entry],
            },
            LocalLog {
                node: n(2),
                entries: vec![recv.entry],
            },
        ];
        let merged = merge_logs(&logs);
        assert_eq!(merged.packet_index().get(p), Some(&[recv.entry.event, trans.entry.event][..]));
        let batch = recon().reconstruct_log(&merged);
        for arrival in [[other, trans, recv], [recv, other, trans], [other, recv, trans]] {
            let mut stream = StreamReconstructor::new(recon());
            for r in arrival {
                stream.ingest(r);
                stream.pump();
            }
            assert_eq!(stream.finish(), batch);
        }
    }

    #[test]
    fn a_record_without_a_timestamp_reopens_no_window() {
        let mut stream = eager(recon());
        let mut logs = vec![LocalLog::new(n(1)), LocalLog::new(n(2))];
        let mut feed = |stream: &mut StreamReconstructor, r: NodeRecord| {
            logs[usize::from(r.node.0) - 1].entries.push(r.entry);
            stream.ingest(r);
            stream.pump();
            stream.poll();
        };
        for seq in 0..4 {
            for r in hop_records(seq, Some(1_000 * u64::from(seq))) {
                feed(&mut stream, r);
            }
        }
        let closed = stream.stats().windows_closed;
        assert_eq!(closed, 3, "every packet but the last one closed");
        // One record of a new packet without a timestamp: no window's order
        // depends on the clocks, so none is redone.
        feed(&mut stream, rec(2, EventKind::Origin, PacketId::new(n(2), 0), None));
        assert_eq!(stream.stats().windows_reopened, 0);
        assert_eq!(stream.finish(), recon().reconstruct_log(&merge_logs(&logs)));
    }

    #[test]
    fn untimestamped_windows_never_close_on_time() {
        let lateness = Lateness {
            records: u64::MAX,
            micros: 0,
        };
        let mut stream = StreamReconstructor::with_lateness(recon(), lateness);
        stream.ingest(rec(1, EventKind::Trans { to: n(2) }, PacketId::new(n(1), 0), None));
        stream.ingest(rec(1, EventKind::Trans { to: n(2) }, PacketId::new(n(1), 1), None));
        stream.pump();
        assert!(stream.poll().is_empty(), "no timestamps, no time-based close");
        assert_eq!(stream.open_windows(), 2);
    }

    #[test]
    fn telemetry_counters_cover_the_stream_path() {
        let recorder = Arc::new(AtomicRecorder::new());
        let shared: Arc<dyn Recorder> = recorder.clone();
        let mut stream = eager(recon().with_recorder(shared));
        let p = PacketId::new(n(1), 0);
        stream.ingest(rec(1, EventKind::Trans { to: n(2) }, p, None));
        stream.ingest(rec(1, EventKind::Trans { to: n(2) }, PacketId::new(n(1), 1), None));
        stream.pump();
        stream.poll();
        stream.ingest(rec(2, EventKind::Recv { from: n(1) }, p, None));
        // One record more than a lane holds, all of one packet: one stall.
        let q = PacketId::new(n(3), 0);
        for _ in 0..=LANE_CAPACITY {
            stream.ingest(rec(3, EventKind::Origin, q, None));
        }
        stream.finish();

        let snap = recorder.snapshot();
        assert_eq!(snap.counter("stream_records"), 4 + LANE_CAPACITY as u64);
        assert_eq!(snap.counter("stream_backpressure"), 1, "node 3's lane stalled once");
        assert_eq!(snap.counter("windows_closed"), 4, "p twice, the filler and q once");
        assert_eq!(snap.counter("windows_reopened"), 1);
        assert!(snap.histogram("window_events").is_some());
        assert!(snap.stage("window").is_some());
    }

    #[test]
    fn poll_emits_in_packet_id_order() {
        let mut stream = eager(recon());
        // Ingest three packets in reverse order, then advance the node far
        // enough that all three close in one sweep.
        for seq in [5u32, 3, 1] {
            stream.ingest(rec(1, EventKind::Trans { to: n(2) }, PacketId::new(n(1), seq), None));
        }
        stream.ingest(rec(1, EventKind::Trans { to: n(2) }, PacketId::new(n(1), 7), None));
        stream.pump();
        let out = stream.poll();
        let seqs: Vec<u32> = out.iter().map(|r| r.packet.seqno).collect();
        assert_eq!(seqs, vec![1, 3, 5], "sweep order is packet-id order");
    }

    /// Logs the stage of every span, in the order the spans end.
    #[derive(Default)]
    struct SpanEnds(Mutex<Vec<Stage>>);

    impl Recorder for SpanEnds {
        fn enabled(&self) -> bool {
            true
        }

        fn add(&self, _: Counter, _: u64) {}

        fn observe(&self, _: Hist, _: u64) {}

        fn record_stage(&self, stage: Stage, _: u64) {
            self.0.lock().unwrap().push(stage);
        }
    }

    #[test]
    fn a_mid_stream_sweep_times_no_reconstruction_as_window() {
        let ends = Arc::new(SpanEnds::default());
        let mut stream = eager(recon().with_recorder(ends.clone()));
        for seq in [1u32, 3, 5, 7] {
            let p = PacketId::new(n(1), seq);
            stream.ingest(rec(1, EventKind::Trans { to: n(2) }, p, None));
        }
        stream.pump();
        ends.0.lock().unwrap().clear();
        assert_eq!(stream.poll().len(), 3);
        // The window span ends before the three reconstructions begin.
        let stages = std::mem::take(&mut *ends.0.lock().unwrap());
        let (window, transition) = (Stage::Window, Stage::Transition);
        assert_eq!(stages, [window, transition, transition, transition]);
    }

    #[test]
    fn flows_grow_as_evidence_arrives() {
        let p = PacketId::new(n(1), 0);
        let mut stream = StreamReconstructor::new(recon());
        stream.ingest(rec(1, EventKind::Trans { to: n(2) }, p, None));
        stream.finish();
        assert_eq!(stream.report(p).unwrap().flow.to_string(), "1-2 trans");

        // A later log's evidence reopens the window; finish() is re-enterable.
        stream.ingest(rec(3, EventKind::Recv { from: n(2) }, p, None));
        stream.finish();
        assert_eq!(
            stream.report(p).unwrap().flow.to_string(),
            "1-2 trans, [1-2 recv], [2-3 trans], 2-3 recv"
        );
        assert!(stream.report(PacketId::new(n(9), 9)).is_none());
    }

    #[test]
    fn reports_iterate_in_packet_id_order_regardless_of_ingestion_order() {
        let mut stream = StreamReconstructor::new(recon());
        // Packets arrive in a scrambled order, across two origins.
        for (origin, seq) in [(2u16, 7u32), (1, 3), (2, 0), (1, 9), (1, 0), (2, 3)] {
            let p = PacketId::new(n(origin), seq);
            stream.ingest(rec(origin, EventKind::Trans { to: n(5) }, p, None));
        }
        stream.finish();
        let ids: Vec<PacketId> = stream.reports().iter().map(|r| r.packet).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted, "reports() must come back in packet-id order");
        assert_eq!(ids.len(), 6);
    }

    #[test]
    fn one_reconstruction_per_close_and_none_otherwise() {
        let recorder = Arc::new(AtomicRecorder::new());
        let shared: Arc<dyn Recorder> = recorder.clone();
        let lateness = Lateness {
            records: 2,
            micros: u64::MAX,
        };
        let mut stream =
            StreamReconstructor::with_lateness(recon().with_recorder(shared), lateness);
        let reconstructed = || recorder.counter_value(Counter::PacketsReconstructed);
        let in_step = |stream: &StreamReconstructor| {
            assert_eq!(reconstructed(), stream.stats().windows_closed);
        };

        // Twelve two-hop packets: node 2's half of each arrives after node
        // 1 has moved on, so early closes are reopened.
        for seq in 0..12 {
            stream.ingest(hop_records(seq, None)[0]);
            if seq % 3 == 2 {
                stream.pump();
                stream.poll();
                in_step(&stream);
            }
        }
        assert!(stream.stats().windows_closed > 0);
        for seq in 0..12 {
            stream.ingest(hop_records(seq, None)[1]);
            stream.pump();
            stream.poll();
            in_step(&stream);
        }
        assert!(stream.stats().windows_reopened > 0);

        // Nothing newly absorbed: a poll reconstructs nothing, however often,
        // and does not even walk the open windows.
        let before = reconstructed();
        let open = stream.open_windows();
        let sweeps = || recorder.snapshot().stage("window").map_or(0, |s| s.calls);
        let swept = sweeps();
        assert!(swept > 0);
        assert!(stream.poll().is_empty() && stream.poll().is_empty());
        assert_eq!(reconstructed(), before);
        assert_eq!(stream.open_windows(), open);
        assert_eq!(sweeps(), swept, "an idle poll records no window span");

        // finish() closes what is still open, once; a second has nothing left.
        assert!(open > 0);
        stream.finish();
        assert_eq!(reconstructed(), before + open as u64);
        in_step(&stream);
        stream.finish();
        assert_eq!(reconstructed(), before + open as u64);
        in_step(&stream);
    }
}
