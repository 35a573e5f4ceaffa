//! Checkpointed streaming: a `refill stream --store` run killed at any
//! record boundary resumes from the store's durable prefix and finishes
//! with reports byte-identical to an uninterrupted run (which is itself
//! byte-identical to batch reconstruction).

use eventlog::frame::{decode_all, encode_record, encode_records, NodeRecord, FRAME_HEADER_LEN};
use eventlog::logger::{LocalLog, LocalTs, LogEntry};
use eventlog::merge::merge_logs;
use eventlog::watermark::Lateness;
use eventlog::{crc32, Event, EventKind, FrameStats, PacketId};
use netsim::prop::check;
use netsim::NodeId;
use refill::{CtpVocabulary, PacketReport, Reconstructor};
use refill_store::{SegmentStore, StoreCheckpoint};
use refill_stream::{
    run_stream, run_stream_observed, DriverConfig, StreamObserver, StreamReconstructor,
};
use std::io::Cursor;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static NONCE: AtomicU64 = AtomicU64::new(0);

struct TempDir(PathBuf);

impl TempDir {
    fn new() -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "refill-store-resume-{}-{}",
            std::process::id(),
            NONCE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn n(i: u16) -> NodeId {
    NodeId(i)
}

fn recon() -> Reconstructor {
    Reconstructor::new(CtpVocabulary::table2())
}

fn lateness() -> Lateness {
    Lateness {
        records: 2,
        micros: 20_000,
    }
}

fn driver_config() -> DriverConfig {
    DriverConfig {
        chunk_bytes: 64,
        channel_batches: 2,
        poll_every: 3,
    }
}

/// A small day: packets flow 1 -> 2 -> 3, interleaved round-robin across
/// the three nodes' logs, with node 2 logging no timestamps.
fn day_records(packets: u32) -> (Vec<LocalLog>, Vec<NodeRecord>) {
    let mut logs: Vec<LocalLog> = (1u16..=3)
        .map(|i| LocalLog {
            node: n(i),
            entries: Vec::new(),
        })
        .collect();
    for seq in 0..packets {
        let p = PacketId::new(n(1), seq);
        let ts = u64::from(seq) * 10_000;
        logs[0].entries.push(LogEntry {
            event: Event::new(n(1), EventKind::Trans { to: n(2) }, p),
            local_ts: LocalTs::new(ts),
        });
        if seq % 3 != 1 {
            logs[0].entries.push(LogEntry {
                event: Event::new(n(1), EventKind::AckRecvd { to: n(2) }, p),
                local_ts: LocalTs::new(ts + 5),
            });
        }
        if seq % 4 != 2 {
            logs[1].entries.push(LogEntry {
                event: Event::new(n(2), EventKind::Recv { from: n(1) }, p),
                local_ts: None,
            });
            logs[1].entries.push(LogEntry {
                event: Event::new(n(2), EventKind::Trans { to: n(3) }, p),
                local_ts: None,
            });
            logs[2].entries.push(LogEntry {
                event: Event::new(n(3), EventKind::Recv { from: n(2) }, p),
                local_ts: LocalTs::new(ts + 777),
            });
        }
    }
    let mut records = Vec::new();
    let mut idx = [0usize; 3];
    loop {
        let mut progressed = false;
        for lane in 0..3 {
            if idx[lane] < logs[lane].entries.len() {
                records.push(NodeRecord::new(logs[lane].node, logs[lane].entries[idx[lane]]));
                idx[lane] += 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    (logs, records)
}

fn rehydrated_sorted(store: &SegmentStore) -> Vec<PacketReport> {
    store
        .latest_reports()
        .unwrap()
        .iter()
        .map(|row| row.report.clone())
        .collect()
}

fn sorted_by_packet(mut reports: Vec<PacketReport>) -> Vec<PacketReport> {
    reports.sort_by_key(|r| r.packet);
    reports
}

#[test]
fn checkpointed_run_matches_plain_run_and_store_holds_everything() {
    let (logs, records) = day_records(8);
    let bytes = encode_records(records.iter());

    let mut plain = StreamReconstructor::with_lateness(recon(), lateness());
    let plain_summary =
        run_stream(Cursor::new(&bytes), &mut plain, driver_config(), |_| {}).unwrap();

    let tmp = TempDir::new();
    let (store, _) = SegmentStore::open(&tmp.0).unwrap();
    let mut ckpt = StoreCheckpoint::new(store);
    let mut stream = StreamReconstructor::with_lateness(recon(), lateness());
    let summary = run_stream_observed(
        Cursor::new(&bytes),
        &mut stream,
        driver_config(),
        |_| {},
        &mut [&mut ckpt],
    )
    .unwrap();
    let store = ckpt.finish().unwrap();

    assert_eq!(summary.reports, plain_summary.reports);
    assert_eq!(
        summary.reports,
        recon().reconstruct_log(&merge_logs(&logs)),
        "checkpointing must not disturb the streaming/batch contract"
    );

    // The store holds the entire absorbed record sequence, in order, with
    // timestamps preserved (none for node 2's untimed entries).
    let rows = store.events().unwrap();
    assert_eq!(rows.len(), records.len());
    for (row, rec) in rows.iter().zip(&records) {
        assert_eq!(*row, rec.entry);
    }
    // And its converged report view rehydrates to the final reports.
    assert_eq!(
        rehydrated_sorted(&store),
        sorted_by_packet(summary.reports)
    );
}

/// Kill a checkpointed run after `k` absorbed records (no final
/// flush, no final sync — only what report-emission syncs made
/// durable survives), then resume over the same input. The resumed
/// run's final reports are byte-identical to an uninterrupted run.
#[test]
fn killed_run_resumes_byte_identical() {
    check("killed_run_resumes_byte_identical", 24, &[], |rng| {
        let packets = rng.gen_range(1..10u32);
        let kill_frac = rng.gen_range(0.0..=1.0);
        let cadence = rng.gen_range(1..6usize);
        let (logs, records) = day_records(packets);
        let bytes = encode_records(records.iter());
        let uninterrupted = recon().reconstruct_log(&merge_logs(&logs));
        let k = (kill_frac * records.len() as f64).round() as usize;

        let tmp = TempDir::new();

        // Phase 1: the doomed run. Mirror the driver's hook order by
        // hand so the "kill" can land between any two records.
        {
            let (store, _) = SegmentStore::open(&tmp.0).unwrap();
            let mut ckpt = StoreCheckpoint::new(store);
            let mut stream = StreamReconstructor::with_lateness(recon(), lateness());
            for (i, rec) in records[..k].iter().enumerate() {
                stream.ingest(*rec);
                ckpt.on_record(rec).unwrap();
                if (i + 1) % cadence == 0 {
                    stream.pump();
                    let mut emitted = 0;
                    stream.poll_with(|report| {
                        emitted += 1;
                        ckpt.on_report(report).unwrap();
                    });
                    if emitted > 0 {
                        ckpt.sync().unwrap();
                    }
                }
            }
            // Killed here: ckpt dropped without finish(); buffered rows
            // since the last sync are lost, as in a real crash.
        }

        // Phase 2: resume. Replay the durable prefix into a fresh
        // reconstructor, then drive the full input again.
        let (store, _) = SegmentStore::open(&tmp.0).unwrap();
        let mut ckpt = StoreCheckpoint::new(store);
        let durable = ckpt.store().total_events();
        assert!(durable <= k as u64, "store cannot hold unabsorbed records");
        let mut stream = StreamReconstructor::with_lateness(recon(), lateness());
        for rec in ckpt.resume_records().unwrap() {
            stream.ingest(rec);
        }
        let summary = run_stream_observed(
            Cursor::new(&bytes),
            &mut stream,
            driver_config(),
            |_| {},
            &mut [&mut ckpt],
        )
        .unwrap();
        let store = ckpt.finish().unwrap();

        assert_eq!(&summary.reports, &uninterrupted);
        assert_eq!(
            format!("{:#?}", &summary.reports),
            format!("{uninterrupted:#?}")
        );

        // The resumed store converges to the full record sequence too.
        let rows = store.events().unwrap();
        assert_eq!(rows.len(), records.len());
        for (row, rec) in rows.iter().zip(&records) {
            assert_eq!(*row, rec.entry);
        }
        assert_eq!(rehydrated_sorted(&store), sorted_by_packet(summary.reports));
    });
}

/// `rec`'s frame, stamped `u64::MAX` — well-formed and checksummed, but
/// the value the store spells "no timestamp" with.
fn frame_stamped_u64_max(mut rec: NodeRecord) -> Vec<u8> {
    rec.entry.local_ts = LocalTs::new(u64::MAX - 1);
    let mut frame = Vec::new();
    encode_record(&rec, &mut frame);
    // The payload's timestamp follows its 14-byte head, little-endian.
    let ts_at = FRAME_HEADER_LEN + 14;
    assert_eq!(frame[ts_at], 0xFE);
    frame[ts_at] = 0xFF;
    let crc_at = frame.len() - 4;
    let crc = crc32(&frame[2..crc_at]);
    frame[crc_at..].copy_from_slice(&crc.to_le_bytes());
    frame
}

/// A stream with a frame stamped `u64::MAX - 1` (the largest timestamp) and
/// one stamped `u64::MAX` (malformed: skipped as one corrupt run). A run
/// killed after any record and resumed from the store equals the
/// uninterrupted run; the store keeps `u64::MAX - 1` as it came.
#[test]
fn the_edge_timestamps_survive_a_kill_and_resume() {
    let (_, mut records) = day_records(6);
    let last_of_node_3 = records.iter().rposition(|r| r.node == n(3)).unwrap();
    records[last_of_node_3].entry.local_ts = LocalTs::new(u64::MAX - 1);
    let half = records.len() / 2;
    let mut bytes = encode_records(&records[..half]);
    bytes.extend_from_slice(&frame_stamped_u64_max(records[half]));
    bytes.extend_from_slice(&encode_records(&records[half..]));
    let (decoded, stats) = decode_all(&bytes);
    assert_eq!(decoded, records);
    assert_eq!(stats, FrameStats { decoded: records.len() as u64, corrupt: 1 });

    let mut plain = StreamReconstructor::with_lateness(recon(), lateness());
    let uninterrupted =
        run_stream(Cursor::new(&bytes), &mut plain, driver_config(), |_| {}).unwrap();
    assert_eq!(uninterrupted.frames, stats);

    for k in 0..=records.len() {
        let tmp = TempDir::new();
        {
            let (store, _) = SegmentStore::open(&tmp.0).unwrap();
            let mut ckpt = StoreCheckpoint::new(store);
            let mut stream = StreamReconstructor::with_lateness(recon(), lateness());
            for (i, rec) in records[..k].iter().enumerate() {
                stream.ingest(*rec);
                ckpt.on_record(rec).unwrap();
                if i % 2 == 1 {
                    stream.pump();
                    stream.poll_with(|report| ckpt.on_report(report).unwrap());
                    ckpt.sync().unwrap();
                }
            }
        }
        let (store, _) = SegmentStore::open(&tmp.0).unwrap();
        let mut ckpt = StoreCheckpoint::new(store);
        let mut stream = StreamReconstructor::with_lateness(recon(), lateness());
        for rec in ckpt.resume_records().unwrap() {
            stream.ingest(rec);
        }
        let summary = run_stream_observed(
            Cursor::new(&bytes),
            &mut stream,
            driver_config(),
            |_| {},
            &mut [&mut ckpt],
        )
        .unwrap();
        let store = ckpt.finish().unwrap();
        assert_eq!(
            format!("{:#?}", summary.reports),
            format!("{:#?}", uninterrupted.reports),
            "killed after {k} records"
        );
        let kept = store.events().unwrap();
        let absorbed: Vec<LogEntry> = records.iter().map(|r| r.entry).collect();
        assert_eq!(kept, absorbed, "killed after {k} records");
    }
}

/// Two observers on one run: a killed run resumed under a store checkpoint
/// *and* a metrics cadence still finishes byte-identical to an
/// uninterrupted run, and the cadence's deltas still partition the
/// recorder's totals — the store's own counters among them.
#[test]
fn store_checkpoint_and_metrics_cadence_compose() {
    use refill::telemetry::{AtomicRecorder, Recorder, TelemetrySnapshot};
    use refill_store::OsVfs;
    use refill_stream::MetricsCadence;
    use std::sync::Arc;

    let (logs, records) = day_records(9);
    let bytes = encode_records(records.iter());
    let uninterrupted = recon().reconstruct_log(&merge_logs(&logs));
    let tmp = TempDir::new();

    // The doomed run: killed half way, whatever its syncs made durable stays.
    {
        let (store, _) = SegmentStore::open(&tmp.0).unwrap();
        let mut ckpt = StoreCheckpoint::new(store);
        let mut stream = StreamReconstructor::with_lateness(recon(), lateness());
        for (i, rec) in records[..records.len() / 2].iter().enumerate() {
            stream.ingest(*rec);
            ckpt.on_record(rec).unwrap();
            if (i + 1) % 3 == 0 {
                stream.pump();
                let mut emitted = 0;
                stream.poll_with(|report| {
                    emitted += 1;
                    ckpt.on_report(report).unwrap();
                });
                if emitted > 0 {
                    ckpt.sync().unwrap();
                }
            }
        }
    }

    // The resumed run, store and stream under one recorder.
    let recorder = Arc::new(AtomicRecorder::new());
    let shared: Arc<dyn Recorder> = recorder.clone();
    let (store, _) =
        SegmentStore::open_with_vfs(&tmp.0, Arc::new(OsVfs), Arc::clone(&shared)).unwrap();
    let mut ckpt = StoreCheckpoint::new(store);
    assert!(ckpt.skip_records() > 0, "the kill left a durable prefix");
    let mut stream =
        StreamReconstructor::with_lateness(recon().with_recorder(shared), lateness());
    for rec in ckpt.resume_records().unwrap() {
        stream.ingest(rec);
    }
    let mut deltas: Vec<TelemetrySnapshot> = Vec::new();
    let mut cadence =
        MetricsCadence::new(Arc::clone(stream.recorder()), 4, |d| deltas.push(d.clone()));
    let summary = run_stream_observed(
        Cursor::new(&bytes),
        &mut stream,
        driver_config(),
        |_| {},
        &mut [&mut ckpt, &mut cadence],
    )
    .unwrap();
    cadence.finish();
    let store = ckpt.finish().unwrap();

    assert_eq!(
        format!("{:#?}", &summary.reports),
        format!("{uninterrupted:#?}")
    );
    assert_eq!(rehydrated_sorted(&store), sorted_by_packet(summary.reports));
    assert_eq!(store.total_events(), records.len() as u64);

    assert!(deltas.len() > 2, "{} deltas", deltas.len());
    let totals = recorder.snapshot();
    for c in &totals.counters {
        let summed: u64 = deltas.iter().map(|d| d.counter(&c.name)).sum();
        assert_eq!(summed, c.value, "deltas must sum to total for {}", c.name);
    }
    assert_eq!(totals.counter("stream_records"), records.len() as u64);
    assert!(totals.counter("store_events_appended") > 0);
    assert!(totals.counter("store_reports_appended") > 0);
}
