//! The streaming core: bounded per-node lanes, watermark windowing, and
//! convergent late handling around an [`IncrementalReconstructor`].
//!
//! Records enter through [`StreamReconstructor::offer`] (refused — not
//! dropped — when the node's lane is full: that refusal *is* the
//! backpressure signal), move into the reconstruction state on
//! [`StreamReconstructor::pump`], and come out as [`PacketReport`]s when
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
//! the window (counted as a late reopen) and the packet is re-reconstructed,
//! so after [`StreamReconstructor::finish`] the reports are identical to a
//! batch reconstruction of everything ingested, however the stream was
//! interleaved or chunked.

use eventlog::frame::NodeRecord;
use eventlog::watermark::{Lateness, Mark, WatermarkTracker};
use eventlog::PacketId;
use netsim::NodeId;
use refill::telemetry::{Counter, Hist, Recorder, Stage, StageTimer};
use refill::{IncrementalReconstructor, PacketReport, Reconstructor};
use rustc_hash::FxHashMap;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Tunables for the streaming core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Per-node ingest queue bound; a full lane refuses offers until the
    /// caller pumps. Treated as at least 1.
    pub lane_capacity: usize,
    /// How far a contributing node must advance past its last contribution
    /// before a window stops waiting for it.
    pub lateness: Lateness,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            lane_capacity: 256,
            lateness: Lateness::default(),
        }
    }
}

/// Rolling totals, independent of whether a telemetry recorder is attached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Records absorbed into reconstruction state.
    pub records: u64,
    /// Windows closed (a reopened window counts again when it re-closes).
    pub windows_closed: u64,
    /// Windows reopened by evidence that arrived after they closed.
    pub windows_reopened: u64,
    /// Records that arrived for an already-closed window.
    pub late_events: u64,
    /// Offers refused because the node's lane was full.
    pub backpressure: u64,
}

/// One packet's open/closed window.
#[derive(Debug, Default)]
struct WindowState {
    /// Each contributing node's mark at its *last* contribution; the close
    /// rule compares only a node's own marks, never across nodes.
    contributors: FxHashMap<NodeId, Mark>,
    /// Events absorbed into this window (over its whole life, reopens
    /// included).
    events: u64,
    closed: bool,
}

/// Online reconstruction over a stream of per-node log records.
pub struct StreamReconstructor {
    config: StreamConfig,
    recorder: Arc<dyn Recorder>,
    /// Bounded ingest queues, one per node; `BTreeMap` so pumping visits
    /// lanes in a deterministic node order.
    lanes: BTreeMap<NodeId, VecDeque<NodeRecord>>,
    queued: usize,
    tracker: WatermarkTracker,
    /// Per-packet windows, in packet-id order for deterministic sweeps.
    windows: BTreeMap<PacketId, WindowState>,
    inc: IncrementalReconstructor,
    stats: StreamStats,
}

impl StreamReconstructor {
    /// Wrap a configured batch [`Reconstructor`] with default stream
    /// settings.
    pub fn new(recon: Reconstructor) -> Self {
        StreamReconstructor::with_config(recon, StreamConfig::default())
    }

    /// Wrap with explicit stream settings.
    pub fn with_config(recon: Reconstructor, config: StreamConfig) -> Self {
        let recorder = Arc::clone(recon.recorder());
        StreamReconstructor {
            config,
            recorder,
            lanes: BTreeMap::new(),
            queued: 0,
            tracker: WatermarkTracker::new(),
            windows: BTreeMap::new(),
            inc: IncrementalReconstructor::new(recon),
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

    /// Records sitting in lanes, not yet pumped.
    pub fn queued(&self) -> usize {
        self.queued
    }

    /// Windows currently open.
    pub fn open_windows(&self) -> usize {
        self.windows.values().filter(|w| !w.closed).count()
    }

    /// Try to enqueue one record. `false` means the node's lane is full —
    /// the backpressure signal; the record was **not** taken, call
    /// [`StreamReconstructor::pump`] and offer it again (or use
    /// [`StreamReconstructor::ingest`]).
    pub fn offer(&mut self, rec: NodeRecord) -> bool {
        let cap = self.config.lane_capacity.max(1);
        let lane = self.lanes.entry(rec.node).or_default();
        if lane.len() >= cap {
            self.stats.backpressure += 1;
            self.recorder.add(Counter::StreamBackpressure, 1);
            return false;
        }
        lane.push_back(rec);
        self.queued += 1;
        self.recorder.observe(Hist::StreamQueueDepth, lane.len() as u64);
        true
    }

    /// Enqueue one record, pumping first if its lane is full. Never drops.
    pub fn ingest(&mut self, rec: NodeRecord) {
        if !self.offer(rec) {
            self.pump();
            let taken = self.offer(rec);
            debug_assert!(taken, "a freshly pumped lane has room");
        }
    }

    /// Drain every lane into the reconstruction state (lanes in node order,
    /// each lane front to back, so per-node order is preserved). Returns
    /// the number of records absorbed.
    pub fn pump(&mut self) -> usize {
        let mut drained: Vec<NodeRecord> = Vec::with_capacity(self.queued);
        for lane in self.lanes.values_mut() {
            drained.extend(lane.drain(..));
        }
        self.queued = 0;
        let n = drained.len();
        for rec in drained {
            self.absorb(rec);
        }
        n
    }

    /// Absorb one record: advance its node's watermark, grow (or reopen)
    /// its packet's window, and hand the event to the incremental core.
    fn absorb(&mut self, rec: NodeRecord) {
        self.stats.records += 1;
        self.recorder.add(Counter::StreamRecords, 1);
        let mark = self.tracker.advance(rec.node, rec.entry.local_ts);
        let packet = rec.entry.event.packet;
        let window = self.windows.entry(packet).or_default();
        if window.closed {
            window.closed = false;
            self.stats.windows_reopened += 1;
            self.stats.late_events += 1;
            self.recorder.add(Counter::WindowsReopened, 1);
            self.recorder.add(Counter::StreamLateEvents, 1);
            // Force the redo even if the refresh filter would have seen no
            // change (belt and braces: ingest below also dirties it).
            self.inc.mark_dirty(packet);
        }
        window.contributors.insert(rec.node, mark);
        window.events += 1;
        self.inc.ingest_events([rec.entry.event]);
    }

    /// Sweep open windows, close the ones every contributor has moved past,
    /// reconstruct exactly those packets, and return their reports (in
    /// packet-id order). Cheap when nothing is ready.
    pub fn poll(&mut self) -> Vec<PacketReport> {
        let _span = StageTimer::start(&*self.recorder, Stage::Window);
        let lateness = self.config.lateness;
        let mut closing: Vec<PacketId> = Vec::new();
        for (id, window) in self.windows.iter_mut() {
            if window.closed {
                continue;
            }
            let all_passed = window
                .contributors
                .iter()
                .all(|(node, since)| self.tracker.passed(*node, *since, lateness));
            if all_passed {
                window.closed = true;
                closing.push(*id);
                self.recorder.observe(Hist::WindowEvents, window.events);
            }
        }
        if closing.is_empty() {
            return Vec::new();
        }
        self.stats.windows_closed += closing.len() as u64;
        self.recorder.add(Counter::WindowsClosed, closing.len() as u64);
        self.inc.refresh_packets(closing.iter().copied());
        closing
            .iter()
            .filter_map(|id| self.inc.report(*id).cloned())
            .collect()
    }

    /// End of stream: pump what is queued, close every open window, refresh
    /// everything still dirty, and return the full converged report set (in
    /// packet-id order) — identical to a batch reconstruction of every
    /// record ever ingested.
    pub fn finish(&mut self) -> Vec<PacketReport> {
        self.pump();
        {
            let _span = StageTimer::start(&*self.recorder, Stage::Window);
            let mut closed_now = 0u64;
            for window in self.windows.values_mut() {
                if !window.closed {
                    window.closed = true;
                    closed_now += 1;
                    self.recorder.observe(Hist::WindowEvents, window.events);
                }
            }
            self.stats.windows_closed += closed_now;
            self.recorder.add(Counter::WindowsClosed, closed_now);
        }
        self.inc.refresh();
        self.reports()
    }

    /// The current report for one packet (as of its last reconstruction).
    pub fn report(&self, id: PacketId) -> Option<&PacketReport> {
        self.inc.report(id)
    }

    /// Heap bytes held by the packed per-packet event state — the memory
    /// a long-running stream actually retains between polls (16 bytes per
    /// event, plus unamortized vector capacity).
    pub fn packed_event_bytes(&self) -> usize {
        self.inc.packed_bytes()
    }

    /// Every current report, cloned, in packet-id order.
    pub fn reports(&self) -> Vec<PacketReport> {
        self.inc.reports().into_iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventlog::logger::{LocalLog, LogEntry};
    use eventlog::merge::merge_logs;
    use eventlog::{Event, EventKind};
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
                local_ts: ts,
            },
        )
    }

    fn recon() -> Reconstructor {
        Reconstructor::new(CtpVocabulary::table2())
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
        // 16 packed events are resident at 16 bytes each.
        assert!(stream.packed_event_bytes() >= 16 * 16);
    }

    #[test]
    fn full_lane_refuses_offers_and_counts_backpressure() {
        let config = StreamConfig {
            lane_capacity: 2,
            ..StreamConfig::default()
        };
        let mut stream = StreamReconstructor::with_config(recon(), config);
        let rs = hop_records(0, None);
        assert!(stream.offer(rs[0]));
        assert!(stream.offer(rs[0]));
        assert!(!stream.offer(rs[0]), "third offer into a 2-lane must refuse");
        assert_eq!(stream.stats().backpressure, 1);
        assert_eq!(stream.queued(), 2);
        // ingest never drops: it pumps and retries.
        stream.ingest(rs[0]);
        assert_eq!(stream.queued(), 1);
        assert_eq!(stream.stats().records, 2);
    }

    #[test]
    fn windows_close_by_record_quota() {
        let config = StreamConfig {
            lane_capacity: 64,
            lateness: Lateness {
                records: 1,
                micros: u64::MAX,
            },
        };
        let mut stream = StreamReconstructor::with_config(recon(), config);
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
        let config = StreamConfig {
            lane_capacity: 64,
            lateness: Lateness {
                records: u64::MAX,
                micros: 1_000,
            },
        };
        let mut stream = StreamReconstructor::with_config(recon(), config);
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
        let config = StreamConfig {
            lane_capacity: 64,
            lateness: Lateness {
                records: 1,
                micros: u64::MAX,
            },
        };
        let mut stream = StreamReconstructor::with_config(recon(), config);
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
        assert_eq!(stream.stats().late_events, 1);
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
    fn untimestamped_windows_never_close_on_time() {
        let config = StreamConfig {
            lane_capacity: 64,
            lateness: Lateness {
                records: u64::MAX,
                micros: 0,
            },
        };
        let mut stream = StreamReconstructor::with_config(recon(), config);
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
        let config = StreamConfig {
            lane_capacity: 1,
            lateness: Lateness {
                records: 1,
                micros: u64::MAX,
            },
        };
        let mut stream =
            StreamReconstructor::with_config(recon().with_recorder(shared), config);
        let p = PacketId::new(n(1), 0);
        stream.ingest(rec(1, EventKind::Trans { to: n(2) }, p, None));
        stream.ingest(rec(1, EventKind::Trans { to: n(2) }, PacketId::new(n(1), 1), None));
        stream.pump();
        stream.poll();
        stream.ingest(rec(2, EventKind::Recv { from: n(1) }, p, None));
        stream.finish();

        let snap = recorder.snapshot();
        assert_eq!(snap.counter("stream_records"), 3);
        assert_eq!(snap.counter("stream_backpressure"), 1, "lane of 1 stalled once");
        assert_eq!(snap.counter("windows_closed"), 3, "p twice, the filler once");
        assert_eq!(snap.counter("windows_reopened"), 1);
        assert_eq!(snap.counter("stream_late_events"), 1);
        assert!(snap.histogram("stream_queue_depth").is_some());
        assert!(snap.histogram("window_events").is_some());
        assert!(snap.stage("window").is_some());
    }

    #[test]
    fn poll_emits_in_packet_id_order() {
        let config = StreamConfig {
            lane_capacity: 64,
            lateness: Lateness {
                records: 1,
                micros: u64::MAX,
            },
        };
        let mut stream = StreamReconstructor::with_config(recon(), config);
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
}
