//! The threaded ingest/reconstruction driver over the wire format.
//!
//! [`run_stream`] splits the work the way a live collector would: an
//! **ingest worker** reads raw bytes, runs the resynchronizing
//! [`FrameDecoder`], and ships decoded record batches over a *bounded*
//! channel (`std::sync::mpsc::sync_channel`); the **reconstruction worker**
//! (the calling thread) hands each record to [`StreamReconstructor::ingest`],
//! which absorbs it, and polls for closed windows after every
//! [`DriverConfig::poll_every`] records — the one cadence, so the record
//! sequence alone decides when windows close and reports emit, however the
//! bytes were chunked. The bounded channel is the backpressure: when
//! reconstruction falls behind, the ingest worker finds the channel full,
//! counts a stall and blocks on `send` instead of buffering without limit.
//! Shutdown is graceful by construction — the ingest worker drops its sender
//! at EOF (or on a read error), the batch iterator ends, and the stream is
//! flushed with [`StreamReconstructor::finish`].

use crate::reconstructor::{StreamReconstructor, StreamStats};
use eventlog::frame::{FrameDecoder, FrameStats, NodeRecord};
use refill::telemetry::{Counter, Recorder, Stage, StageTimer, TelemetrySnapshot};
use refill::PacketReport;
use std::io::Read;
use std::sync::mpsc::{sync_channel, TrySendError};
use std::sync::Arc;

/// Tunables for the threaded driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriverConfig {
    /// Read granularity in bytes (at least 64).
    pub chunk_bytes: usize,
    /// Bounded channel capacity, in decoded batches — the backpressure
    /// depth between ingest and reconstruction. Treated as at least 1.
    pub channel_batches: usize,
    /// Poll for closed windows after this many records handed to
    /// [`StreamReconstructor::ingest`]. A poll tests only the windows woken
    /// since the one before, so this decides how many records a sweep finds
    /// absorbed, never a converged report. Treated as at least 1.
    pub poll_every: usize,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            chunk_bytes: 8 * 1024,
            channel_batches: 4,
            poll_every: 1024,
        }
    }
}

/// What a finished run looked like.
#[derive(Debug, Clone)]
pub struct StreamSummary {
    /// Frame decode counters (decoded / corrupt runs skipped).
    pub frames: FrameStats,
    /// Streaming-core totals (records, closes, reopens), with the ingest
    /// worker's channel-full stalls as `backpressure`.
    pub stats: StreamStats,
    /// Reports emitted from windows that closed *before* the final flush —
    /// the rolling output a live consumer would have seen.
    pub rolling_reports: u64,
    /// The full converged report set after the final flush, in packet-id
    /// order: `reconstruct_log(merge_logs(..))` over the decoded records
    /// regrouped into per-node logs.
    pub reports: Vec<PacketReport>,
}

/// What `--metrics-every` runs per record ([`run_stream_observed`]'s
/// `on_record`): every `every` records handed to the stream, `emit`
/// receives the interval delta ([`TelemetrySnapshot::diff`]) of `recorder`
/// since the previous emission; [`MetricsCadence::finish`] emits the tail.
/// The deltas partition the run: per counter they sum to the totals.
///
/// With a `NoopRecorder` every delta is empty, so a cadence only makes sense
/// on the recorder an instrumented stream carries
/// ([`StreamReconstructor::recorder`]).
pub struct MetricsCadence<M: FnMut(&TelemetrySnapshot)> {
    recorder: Arc<dyn Recorder>,
    every: u64,
    since: u64,
    prev: TelemetrySnapshot,
    emit: M,
}

impl<M: FnMut(&TelemetrySnapshot)> MetricsCadence<M> {
    /// A cadence over `recorder`; `every` is treated as at least 1.
    pub fn new(recorder: Arc<dyn Recorder>, every: u64, emit: M) -> Self {
        MetricsCadence {
            recorder,
            every: every.max(1),
            since: 0,
            prev: TelemetrySnapshot::default(),
            emit,
        }
    }

    fn emit_delta(&mut self) {
        let snap = self.recorder.snapshot();
        (self.emit)(&snap.diff(&self.prev));
        self.prev = snap;
        self.since = 0;
    }

    /// One more record was handed to the stream.
    pub fn on_record(&mut self) {
        self.since += 1;
        if self.since >= self.every {
            self.emit_delta();
        }
    }

    /// The tail interval, for after the run: whatever accumulated since the
    /// last cadence emission, the final flush's reconstruction included (so
    /// it is never empty of work).
    pub fn finish(mut self) {
        self.emit_delta();
    }
}

/// Run framed bytes from `reader` through `stream` to completion.
///
/// `on_report` fires for every report emitted by a mid-stream window close
/// (the rolling output); the converged final set is returned in the
/// summary. Reader errors abort ingestion but still flush what was
/// decoded, so a truncated source yields its decodable prefix plus the
/// error.
pub fn run_stream<R, F>(
    reader: R,
    stream: &mut StreamReconstructor,
    config: DriverConfig,
    on_report: F,
) -> std::io::Result<StreamSummary>
where
    R: Read + Send,
    F: FnMut(&PacketReport),
{
    run_stream_observed(reader, stream, config, on_report, |_| {})
}

/// [`run_stream`] with `on_record` called on every record right after it is
/// handed to the stream, in arrival order ([`MetricsCadence::on_record`]).
pub fn run_stream_observed<R, F, G>(
    reader: R,
    stream: &mut StreamReconstructor,
    config: DriverConfig,
    mut on_report: F,
    mut on_record: G,
) -> std::io::Result<StreamSummary>
where
    R: Read + Send,
    F: FnMut(&PacketReport),
    G: FnMut(&NodeRecord),
{
    let recorder = Arc::clone(stream.recorder());
    let (tx, rx) = sync_channel::<Vec<NodeRecord>>(config.channel_batches.max(1));
    let poll_every = config.poll_every.max(1);
    let mut rolling_reports = 0u64;

    let ingested = std::thread::scope(|scope| {
        let ingest = scope.spawn(move || -> std::io::Result<(FrameStats, u64)> {
            let mut reader = reader;
            let mut stalls = 0u64;
            let mut decoder = FrameDecoder::new();
            let mut buf = vec![0u8; config.chunk_bytes.max(64)];
            let mut reported = FrameStats::default();
            let account = |decoder: &FrameDecoder, reported: &mut FrameStats| {
                let now = decoder.stats();
                recorder.add(Counter::FramesDecoded, now.decoded - reported.decoded);
                recorder.add(Counter::FramesCorrupt, now.corrupt - reported.corrupt);
                *reported = now;
            };
            loop {
                let n = {
                    let _span = StageTimer::start(&*recorder, Stage::Decode);
                    reader.read(&mut buf)?
                };
                if n == 0 {
                    break;
                }
                let batch = {
                    let _span = StageTimer::start(&*recorder, Stage::Decode);
                    decoder.push(&buf[..n]);
                    decoder.drain()
                };
                account(&decoder, &mut reported);
                if batch.is_empty() {
                    continue;
                }
                let batch = match tx.try_send(batch) {
                    Ok(()) => continue,
                    Err(TrySendError::Full(batch)) => batch,
                    Err(TrySendError::Disconnected(_)) => break,
                };
                stalls += 1;
                recorder.add(Counter::StreamBackpressure, 1);
                if tx.send(batch).is_err() {
                    break;
                }
            }
            let stats = decoder.finish();
            account(&decoder, &mut reported);
            Ok((stats, stalls))
        });

        let mut since_poll = 0usize;
        for batch in rx {
            for rec in batch {
                stream.ingest(rec);
                on_record(&rec);
                since_poll += 1;
                if since_poll < poll_every {
                    continue;
                }
                since_poll = 0;
                stream.poll_with(|report| {
                    rolling_reports += 1;
                    on_report(report);
                });
            }
        }
        ingest.join().expect("ingest worker does not panic")
    });

    let reports = stream.finish();
    let (frames, backpressure) = ingested?;
    Ok(StreamSummary {
        frames,
        stats: StreamStats {
            backpressure,
            ..stream.stats()
        },
        rolling_reports,
        reports,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventlog::frame::{encode_records, node_logs};
    use eventlog::logger::{LocalTs, LogEntry};
    use eventlog::merge::merge_logs;
    use eventlog::watermark::Lateness;
    use eventlog::{Event, EventKind, PacketId};
    use netsim::NodeId;
    use refill::{CtpVocabulary, Reconstructor};
    use std::io::Cursor;

    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    fn recon() -> Reconstructor {
        Reconstructor::new(CtpVocabulary::table2())
    }

    /// A stream of `packets` two-hop deliveries, interleaved per packet.
    fn records(packets: u32) -> Vec<NodeRecord> {
        let mut out = Vec::new();
        for seq in 0..packets {
            let p = PacketId::new(n(1), seq);
            out.push(NodeRecord::new(
                n(1),
                LogEntry {
                    event: Event::new(n(1), EventKind::Trans { to: n(2) }, p),
                    local_ts: LocalTs::new(u64::from(seq) * 1_000),
                },
            ));
            out.push(NodeRecord::new(
                n(2),
                LogEntry {
                    event: Event::new(n(2), EventKind::Recv { from: n(1) }, p),
                    local_ts: None,
                },
            ));
        }
        out
    }

    #[test]
    fn driver_converges_to_batch_over_clean_frames() {
        let recs = records(300);
        let bytes = encode_records(recs.iter());
        let mut stream = StreamReconstructor::with_lateness(
            recon(),
            Lateness {
                records: 2,
                micros: u64::MAX,
            },
        );
        let config = DriverConfig {
            chunk_bytes: 64, // tiny chunks: frames split across reads
            channel_batches: 2,
            poll_every: 3,
        };
        let mut rolling = 0u64;
        let summary =
            run_stream(Cursor::new(&bytes), &mut stream, config, |_| rolling += 1).unwrap();
        assert_eq!(summary.frames, FrameStats { decoded: 600, corrupt: 0 });
        assert_eq!(summary.stats.records, 600);
        assert_eq!(summary.rolling_reports, rolling);
        assert!(rolling > 0, "aggressive lateness must emit mid-stream");

        let batch = recon().reconstruct_log(&merge_logs(&node_logs(&recs)));
        assert_eq!(summary.reports, batch);
    }

    #[test]
    fn corrupt_bytes_are_skipped_and_counted() {
        let recs = records(10);
        let mut bytes = encode_records(recs.iter());
        // Smash four payload bytes of the 8th frame (offset derived from
        // an encoded prefix, so the damage is strictly inside one frame):
        // exactly one frame is lost, as one maximal corrupt run.
        let target = encode_records(recs.iter().take(7)).len() + 6;
        for b in &mut bytes[target..target + 4] {
            *b ^= 0xA5;
        }
        let mut stream = StreamReconstructor::new(recon());
        let summary =
            run_stream(Cursor::new(&bytes), &mut stream, DriverConfig::default(), |_| {})
                .unwrap();
        assert_eq!(summary.frames.decoded, 19, "one frame lost");
        assert_eq!(summary.frames.corrupt, 1, "one maximal corrupt run");
        // Every packet still reports; the damaged one just has less
        // evidence behind it.
        assert_eq!(summary.reports.len(), 10);
    }

    #[test]
    fn empty_input_is_an_empty_summary() {
        let mut stream = StreamReconstructor::new(recon());
        let summary = run_stream(
            Cursor::new(Vec::new()),
            &mut stream,
            DriverConfig::default(),
            |_| {},
        )
        .unwrap();
        assert_eq!(summary.frames, FrameStats::default());
        assert!(summary.reports.is_empty());
        assert_eq!(summary.rolling_reports, 0);
    }

    #[test]
    fn pure_garbage_counts_one_corrupt_run_and_no_reports() {
        let mut stream = StreamReconstructor::new(recon());
        let summary = run_stream(
            Cursor::new(vec![0u8; 4096]),
            &mut stream,
            DriverConfig::default(),
            |_| {},
        )
        .unwrap();
        assert_eq!(summary.frames.decoded, 0);
        assert_eq!(summary.frames.corrupt, 1);
        assert!(summary.reports.is_empty());
    }

    #[test]
    fn metered_run_emits_interval_deltas_that_sum_to_the_totals() {
        use refill::telemetry::AtomicRecorder;
        let recs = records(20);
        let bytes = encode_records(recs.iter());
        let recorder = Arc::new(AtomicRecorder::new());
        let shared: Arc<dyn Recorder> = recorder.clone();
        let mut stream = StreamReconstructor::new(recon().with_recorder(shared));
        let mut deltas: Vec<TelemetrySnapshot> = Vec::new();
        let mut cadence =
            MetricsCadence::new(Arc::clone(stream.recorder()), 7, |d| deltas.push(d.clone()));
        let summary = run_stream_observed(
            Cursor::new(&bytes),
            &mut stream,
            DriverConfig::default(),
            |_| {},
            |_| cadence.on_record(),
        )
        .unwrap();
        cadence.finish();
        assert_eq!(summary.stats.records, 40);
        // 40 records at a cadence of 7 → 5 cadence deltas + the final one.
        assert_eq!(deltas.len(), 40 / 7 + 1);
        // Interval deltas are a partition of the totals.
        let final_snap = recorder.snapshot();
        for c in &final_snap.counters {
            let summed: u64 = deltas.iter().map(|d| d.counter(&c.name)).sum();
            assert_eq!(summed, c.value, "deltas must sum to total for {}", c.name);
        }
        // Each delta absorbed exactly the records handed over in it, and
        // every decoded record was absorbed.
        let absorbed: Vec<u64> = deltas.iter().map(|d| d.counter("stream_records")).collect();
        assert_eq!(absorbed, [7, 7, 7, 7, 7, 5]);
        assert_eq!(final_snap.counter("frames_decoded"), 40);
    }

    #[test]
    fn a_full_channel_is_a_stall_and_a_roomy_one_is_none() {
        use refill::telemetry::AtomicRecorder;
        use std::time::{Duration, Instant};
        let bytes = encode_records(records(100).iter());
        let run = |channel_batches: usize, wait: bool| {
            let recorder = Arc::new(AtomicRecorder::new());
            let shared: Arc<dyn Recorder> = recorder.clone();
            let mut stream = StreamReconstructor::new(recon().with_recorder(shared));
            let config = DriverConfig {
                chunk_bytes: 64,
                channel_batches,
                ..DriverConfig::default()
            };
            let stalled = || recorder.counter_value(Counter::StreamBackpressure);
            let mut held = !wait;
            let summary = run_stream_observed(
                Cursor::new(&bytes),
                &mut stream,
                config,
                |_| {},
                |_| {
                    // Hold the first record until the worker has filled the
                    // channel and found it full.
                    if !held {
                        held = true;
                        let started = Instant::now();
                        while stalled() == 0 && started.elapsed() < Duration::from_secs(10) {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                },
            )
            .unwrap();
            assert_eq!(summary.stats.backpressure, stalled());
            assert_eq!(summary.stats.records, 200);
            summary.stats.backpressure
        };
        assert!(
            run(1, true) >= 1,
            "a held reader leaves the worker a full channel"
        );
        // Every read is at least one byte, so no more batches than this.
        assert_eq!(run(bytes.len() / 64 + 2, false), 0);
    }

    #[test]
    fn unmetered_run_matches_metered_reports() {
        let recs = records(12);
        let bytes = encode_records(recs.iter());
        let run = |metered: bool| {
            let mut stream = StreamReconstructor::new(recon());
            if metered {
                let mut cadence = MetricsCadence::new(Arc::clone(stream.recorder()), 5, |_| {});
                run_stream_observed(
                    Cursor::new(&bytes),
                    &mut stream,
                    DriverConfig::default(),
                    |_| {},
                    |_| cadence.on_record(),
                )
                .unwrap()
                .reports
            } else {
                run_stream(Cursor::new(&bytes), &mut stream, DriverConfig::default(), |_| {})
                    .unwrap()
                    .reports
            }
        };
        assert_eq!(run(true), run(false), "metering must not perturb output");
    }

    /// A reader that fails after a valid prefix: the decodable prefix must
    /// still be flushed, and the error surfaced.
    struct FailingReader {
        data: Vec<u8>,
        pos: usize,
    }

    impl Read for FailingReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos >= self.data.len() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionReset,
                    "link dropped",
                ));
            }
            let n = buf.len().min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn reader_errors_surface_after_flushing_the_prefix() {
        let recs = records(4);
        let reader = FailingReader {
            data: encode_records(recs.iter()),
            pos: 0,
        };
        let mut stream = StreamReconstructor::new(recon());
        let err = run_stream(reader, &mut stream, DriverConfig::default(), |_| {}).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionReset);
        // The prefix was still reconstructed before the error surfaced.
        assert_eq!(stream.stats().records, 8);
        assert_eq!(stream.reports().len(), 4);
    }
}
