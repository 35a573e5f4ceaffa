//! Per-layer measurements of the traced run: each layer's public
//! functions called in isolation on the *layer sample*, a prefix of every
//! collected log sized so that all layers fit in one run.
//!
//! Timings are medians of `reps` calls after one warm-up; counts come from
//! return values or from an `AtomicRecorder` passed through the program's
//! own `with_recorder` hook.

use crate::measure::{median, metric, quantile, time_median, time_once, Metric};
use crate::spans::Tracer;
use crate::workload::{
    analysis_tools, check_stream, frame_and_damage, stream_op, stream_reference, Framed,
};
use citysee::run::upload_order;
use citysee::{figures, Campaign};
use eventlog::columnar::ColumnarIndex;
use eventlog::frame::{self, NodeRecord};
use eventlog::{
    merge_logs, merge_logs_kway, merge_logs_partitioned, merge_logs_store, Event, LocalLog,
    PacketId,
};
use refill::parallel::{reconstruct_crossbeam, reconstruct_fused, reconstruct_rayon};
use refill::sigcache::SigCache;
use refill::telemetry::{AtomicRecorder, Counter, Recorder};
use refill::trace::{CtpVocabulary, PacketReport, Reconstructor};
use refill_stream::{DriverConfig, StreamReconstructor};
use std::collections::HashMap;
use std::hint::black_box;
use std::io::Read;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Events the layer sample aims for. At this size one pass over every
/// layer (seven reconstruction drivers and two stream paths included, four
/// calls each) takes about 8 s on the 2-core reference machine.
pub const LAYER_SAMPLE_EVENTS: usize = 100_000;

/// The first `target/total` of every log (all of it when the logs are
/// smaller than `target`): the campaign as collected up to an early cut,
/// with the workload's fan-in, loss and clock properties intact.
pub fn layer_sample(collected: &[LocalLog], target: usize) -> Vec<LocalLog> {
    let total: usize = collected.iter().map(LocalLog::len).sum();
    let keep = |len: usize| (len * target).div_ceil(total.max(1)).min(len);
    collected
        .iter()
        .map(|log| LocalLog {
            node: log.node,
            entries: log.entries[..keep(log.len())].to_vec(),
        })
        .collect()
}

/// Positions at which two report lists disagree (plus any length
/// difference).
fn mismatches(a: &[PacketReport], b: &[PacketReport]) -> usize {
    a.iter().zip(b).filter(|(x, y)| x != y).count() + a.len().abs_diff(b.len())
}

/// A reader that notes when it released each chunk of bytes, so report
/// emission can be dated against the arrival of the evidence.
struct TimedReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// `(end offset, release instant)` of every `read` call.
    released: Arc<Mutex<Vec<(u64, Instant)>>>,
}

impl Read for TimedReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.bytes.len() - self.pos);
        buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pos += n;
        if n > 0 {
            self.released
                .lock()
                .expect("the reader never panics holding the lock")
                .push((self.pos as u64, Instant::now()));
        }
        Ok(n)
    }
}

/// Milliseconds from the release of the latest frame of a report's packet
/// that had been released by then, to the report's emission.
fn report_lags_ms(
    framed: &Framed,
    released: &[(u64, Instant)],
    emitted: &[(PacketId, Instant)],
) -> Vec<f64> {
    let mut frames_of: HashMap<PacketId, Vec<u64>> = HashMap::new();
    for &(packet, end) in &framed.frame_ends {
        frames_of.entry(packet).or_default().push(end);
    }
    let mut lags = Vec::with_capacity(emitted.len());
    for &(packet, at) in emitted {
        // Bytes out of the reader by the time the report was emitted.
        let out = released.partition_point(|&(_, t)| t <= at);
        let Some(&(released_end, _)) = out.checked_sub(1).and_then(|i| released.get(i)) else {
            continue;
        };
        let ends = &frames_of[&packet];
        let Some(&frame_end) = ends[..ends.partition_point(|&e| e <= released_end)].last() else {
            continue;
        };
        let chunk = released.partition_point(|&(end, _)| end < frame_end);
        lags.push(at.duration_since(released[chunk].1).as_secs_f64() * 1e3);
    }
    lags
}

/// Measure every layer on the layer sample of `campaign.collected`.
/// `memcpy_gib_per_s` is the machine yardstick taken just before.
pub fn measure_layers(
    campaign: &mut Campaign,
    seed: u64,
    reps: usize,
    memcpy_gib_per_s: f64,
) -> Vec<Metric> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut out = Vec::new();
    let sample = layer_sample(&campaign.collected, LAYER_SAMPLE_EVENTS);
    let events: usize = sample.iter().map(LocalLog::len).sum();
    let (recon, diagnoser) = analysis_tools(campaign);

    // eventlog::frame
    let records: Vec<NodeRecord> = upload_order(&sample);
    let (clean_bytes, encode_s) = time_median(reps, || frame::encode_records(&records));
    let framed = frame_and_damage(&records, seed);
    let ((decoded, frame_stats), decode_s) = time_median(reps, || frame::decode_all(&framed.bytes));
    out.push(metric("frame.encode_s", encode_s, "s"));
    out.push(metric("frame.decode_s", decode_s, "s"));
    out.push(metric(
        "frame.bytes_per_record",
        clean_bytes.len() as f64 / records.len() as f64,
        "B",
    ));
    out.push(metric(
        "frame.corrupt_runs",
        frame_stats.corrupt as f64,
        "count",
    ));
    out.push(metric(
        "frame.decoded_ratio",
        frame_stats.decoded as f64 / records.len() as f64,
        "ratio",
    ));
    drop(clean_bytes);

    // eventlog::merge
    let (merged, merge_logs_s) = time_median(reps, || merge_logs(&sample));
    let (_, merge_kway_s) = time_median(reps, || merge_logs_kway(&sample));
    let (_, merge_partitioned_s) = time_median(reps, || merge_logs_partitioned(&sample, nproc));
    let merged_bytes_per_s = (events * std::mem::size_of::<Event>()) as f64 / merge_logs_s;
    out.push(metric("merge.logs_s", merge_logs_s, "s"));
    out.push(metric("merge.kway_s", merge_kway_s, "s"));
    out.push(metric("merge.partitioned_s", merge_partitioned_s, "s"));
    out.push(metric(
        "merge.mevents_per_s",
        events as f64 / merge_logs_s / 1e6,
        "Mevents/s",
    ));
    out.push(metric("merge.fanin", sample.len() as f64, "count"));
    out.push(metric(
        "merge.vs_memcpy",
        merged_bytes_per_s / (memcpy_gib_per_s * (1u64 << 30) as f64),
        "ratio",
    ));

    // eventlog::columnar
    let (store, merge_store_s) = time_median(reps, || merge_logs_store(&sample));
    let (_, columnar_index_s) = time_median(reps, || ColumnarIndex::build(&store));
    out.push(metric("columnar.merge_store_s", merge_store_s, "s"));
    out.push(metric("columnar.index_s", columnar_index_s, "s"));
    out.push(metric(
        "columnar.bytes_per_event",
        store.heap_bytes() as f64 / store.len().max(1) as f64,
        "B",
    ));
    drop(store);

    // eventlog packet index
    let (index, packet_index_s) = time_median(reps, || merged.packet_index());
    let (_, by_packet_s) = time_median(reps, || merged.by_packet());
    out.push(metric("index.packet_index_s", packet_index_s, "s"));
    out.push(metric("index.by_packet_s", by_packet_s, "s"));

    // refill core: the sequential reference, then every other driver
    // against it.
    let (reference, seq_s) = time_median(reps, || recon.reconstruct_log(&merged));
    let packets = reference.len().max(1) as f64;
    let mut driver_mismatches = 0usize;
    let mut driver = |name: &'static str, run: &mut dyn FnMut() -> Vec<PacketReport>| {
        let (reports, secs) = time_median(reps, run);
        driver_mismatches += mismatches(&reference, &reports);
        out.push(metric(name, secs, "s"));
        secs
    };
    driver("core.rayon_s", &mut || reconstruct_rayon(&recon, &merged));
    driver("core.crossbeam_s", &mut || {
        reconstruct_crossbeam(&recon, &merged, nproc)
    });
    driver("core.fused_w1_s", &mut || {
        reconstruct_fused(&recon, &sample, 1)
    });
    let fused_wn_s = driver("core.fused_wn_s", &mut || {
        reconstruct_fused(&recon, &sample, nproc)
    });
    let mut cold_stats = None;
    driver("core.cached_cold_s", &mut || {
        let cache = SigCache::default();
        let reports = recon.reconstruct_log_cached(&merged, &cache);
        cold_stats = Some(cache.stats());
        reports
    });
    let shared = SigCache::default();
    driver("core.cached_warm_s", &mut || {
        recon.reconstruct_log_cached(&merged, &shared)
    });
    let cold_stats = cold_stats.expect("the cold driver ran");
    out.push(metric("core.seq_s", seq_s, "s"));
    out.push(metric("core.us_per_packet", seq_s * 1e6 / packets, "us"));
    out.push(metric("core.parallel_speedup", seq_s / fused_wn_s, "ratio"));
    out.push(metric(
        "core.cache_hit_rate",
        cold_stats.hit_rate(),
        "ratio",
    ));
    out.push(metric(
        "core.unique_signatures",
        cold_stats.unique_signatures() as f64,
        "count",
    ));
    out.push(metric(
        "core.driver_mismatches",
        driver_mismatches as f64,
        "count",
    ));

    // One recorded sequential pass for the FSM counts.
    let recorder = Arc::new(AtomicRecorder::new());
    let (counting_recon, _) = analysis_tools(campaign);
    let counting_recon = counting_recon.with_recorder(Arc::clone(&recorder) as Arc<dyn Recorder>);
    black_box(counting_recon.reconstruct_log(&merged));
    for (name, counter) in [
        ("core.fsm_steps", Counter::FsmSteps),
        ("core.fsm_jumps", Counter::FsmJumps),
        ("core.fsm_forced", Counter::FsmForcedSteps),
        ("core.events_inferred", Counter::EventsInferred),
    ] {
        out.push(metric(
            name,
            recorder.counter_value(counter) as f64,
            "count",
        ));
    }

    // Point reconstruction: up to 256 packets spread over the index.
    let stride = index.len().div_ceil(256).max(1);
    let per_packet_us: Vec<f64> = (0..index.len())
        .step_by(stride)
        .map(|i| {
            let (id, group) = index.group(i);
            time_once(|| recon.reconstruct_packet(id, group)).1 * 1e6
        })
        .collect();
    out.push(metric("core.trace_packet_us", median(&per_packet_us), "us"));

    // refill::diagnose / explain
    let (_, diagnose_s) = time_median(reps, || {
        reference
            .iter()
            .map(|r| diagnoser.diagnose(r, None))
            .collect::<Vec<_>>()
    });
    let (_, explain_s) = time_median(reps, || {
        reference
            .iter()
            .map(|r| refill::explain(r, &diagnoser, None).render_text().len())
            .sum::<usize>()
    });
    out.push(metric("diagnose.s", diagnose_s, "s"));
    out.push(metric(
        "diagnose.us_per_packet",
        diagnose_s * 1e6 / packets,
        "us",
    ));
    out.push(metric(
        "explain.us_per_flow",
        explain_s * 1e6 / packets,
        "us",
    ));

    // citysee::analysis / figures, on a campaign that collected only the
    // sample (ground truth stays whole; unseen packets get empty flows).
    let full_collected = std::mem::replace(&mut campaign.collected, sample);
    campaign.merged = merged;
    let (analysis, analyze_s) = time_median(reps, || citysee::analyze(campaign));
    let (_, render_s) = time_median(reps, || {
        [
            figures::render_loss_points_csv(&figures::fig4_source_view(&analysis)),
            figures::render_loss_points_csv(&figures::fig5_loss_positions(&analysis)),
            figures::render_fig6_csv(&figures::fig6_daily_causes(campaign, &analysis)),
            figures::render_fig8_csv(&figures::fig8_spatial_received(campaign, &analysis)),
        ]
    });
    out.push(metric("analysis.analyze_s", analyze_s, "s"));
    out.push(metric("figures.render_s", render_s, "s"));
    drop(analysis);
    campaign.collected = full_collected;
    campaign.merged = Default::default();

    // refill-stream: the threaded driver over the damaged frames, then the
    // single-threaded core over the records that survive decoding.
    let sink = campaign.topology.sink();
    let quiet = Tracer::off();
    let mut first_report_ms = Vec::new();
    let mut lags_ms = Vec::new();
    let ((summary, packed_bytes), stream_run_s) = time_median(reps, || {
        let released = Arc::new(Mutex::new(Vec::new()));
        let reader = TimedReader {
            bytes: &framed.bytes,
            pos: 0,
            released: Arc::clone(&released),
        };
        let mut emitted: Vec<(PacketId, Instant)> = Vec::new();
        let t0 = Instant::now();
        let result = stream_op(reader, sink, &quiet, |report| {
            emitted.push((report.packet, Instant::now()));
        });
        // A stream too short to close a window mid-way reports only at
        // the end of the run.
        let end = Instant::now();
        let first = emitted.first().map_or(end, |&(_, at)| at);
        first_report_ms.push(first.duration_since(t0).as_secs_f64() * 1e3);
        let released = released.lock().expect("the reader thread has been joined");
        lags_ms = report_lags_ms(&framed, &released, &emitted);
        if lags_ms.is_empty() {
            lags_ms.push(end.duration_since(t0).as_secs_f64() * 1e3);
        }
        result
    });
    let (_, stream_core_s) = time_median(reps, || {
        let recon = Reconstructor::new(CtpVocabulary::citysee()).with_sink(sink);
        let mut stream = StreamReconstructor::new(recon);
        let poll_every = DriverConfig::default().poll_every;
        for (i, rec) in decoded.iter().enumerate() {
            stream.ingest(*rec);
            if (i + 1) % poll_every == 0 {
                black_box(stream.poll());
            }
        }
        stream.finish()
    });
    let (stream_tally, not_identical) =
        check_stream(&summary, &stream_reference(&framed.bytes, sink));
    assert_eq!(
        stream_tally.failed, 0,
        "the stream lost, invented or misattributed evidence on the layer sample"
    );
    let reports = summary.reports.len().max(1) as f64;
    out.push(metric("stream.run_s", stream_run_s, "s"));
    out.push(metric(
        "stream.records_per_s",
        summary.stats.records as f64 / stream_run_s,
        "1/s",
    ));
    out.push(metric("stream.core_s", stream_core_s, "s"));
    out.push(metric(
        "stream.windows_closed",
        summary.stats.windows_closed as f64,
        "count",
    ));
    out.push(metric(
        "stream.closes_per_packet",
        summary.stats.windows_closed as f64 / reports,
        "ratio",
    ));
    out.push(metric(
        "stream.windows_reopened",
        summary.stats.windows_reopened as f64,
        "count",
    ));
    out.push(metric(
        "stream.backpressure",
        summary.stats.backpressure as f64,
        "count",
    ));
    out.push(metric(
        "stream.rolling_reports",
        summary.rolling_reports as f64,
        "count",
    ));
    out.push(metric("stream.packed_bytes", packed_bytes as f64, "B"));
    out.push(metric(
        "stream.first_report_ms",
        median(&first_report_ms),
        "ms",
    ));
    out.push(metric(
        "stream.report_lag_ms_p50",
        quantile(&lags_ms, 0.50),
        "ms",
    ));
    out.push(metric(
        "stream.report_lag_ms_p99",
        quantile(&lags_ms, 0.99),
        "ms",
    ));
    out.push(metric(
        "stream.batch_mismatches",
        not_identical as f64,
        "count",
    ));
    out.push(metric(
        "stream.vs_batch_ratio",
        stream_run_s / (merge_logs_s + seq_s),
        "ratio",
    ));
    out
}
