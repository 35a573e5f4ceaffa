//! Store fault sweeps: kill a checkpointed run at EVERY mutating
//! filesystem operation in turn (torn write, failed fsync, failed rename
//! — whatever the op happens to be) and require that a clean reopen
//! recovers a durable prefix of the absorbed sequence and resumes to
//! byte-identical reports. Plus the mid-flush ordering discipline: when a
//! reports-block write fails, every event absorbed beforehand must
//! already be on disk — evidence lands before conclusions.

use eventlog::frame::{encode_records, node_logs, NodeRecord};
use eventlog::merge::merge_logs;
use eventlog::watermark::Lateness;
use netsim::Rng;
use refill::telemetry::NoopRecorder;
use refill::{CtpVocabulary, PacketReport, Reconstructor};
use refill_store::{SegmentStore, StoreCheckpoint, Vfs};
use refill_stream::{run_stream_observed, DriverConfig, StreamObserver, StreamReconstructor};
use refill_testkit::{gen_logs, upload_interleave, FaultSpec, FaultyVfs, TempDir};
use std::io::Cursor;
use std::sync::Arc;

fn recon() -> Reconstructor {
    Reconstructor::new(CtpVocabulary::table2())
}

fn eager_stream() -> StreamReconstructor {
    StreamReconstructor::with_lateness(
        recon(),
        Lateness {
            records: 1,
            micros: 20_000,
        },
    )
}

fn driver_config() -> DriverConfig {
    DriverConfig {
        chunk_bytes: 64,
        channel_batches: 2,
        poll_every: 3,
    }
}

/// A deterministic record sequence: a faultless scenario's interleave.
fn fixture(seed: u64) -> Vec<NodeRecord> {
    let spec = FaultSpec::none();
    let mut rng = Rng::new(seed);
    let (logs, mut report) = gen_logs(&mut rng, &spec);
    upload_interleave(&mut rng, &spec, &logs, &mut report)
}

/// Drive the checkpointed hook order by hand over `records` against a
/// possibly-faulty store. Returns true when the run completed (including
/// the final flush); false means an injected fault killed it — the
/// checkpoint drops without `finish`, as a crashed process would.
fn run_doomed(records: &[NodeRecord], vfs: &Arc<FaultyVfs>, tmp: &TempDir) -> bool {
    let opened = SegmentStore::open_with_vfs(
        tmp.path(),
        Arc::clone(vfs) as Arc<dyn Vfs>,
        Arc::new(NoopRecorder),
    );
    let Ok((store, _)) = opened else {
        return false;
    };
    let mut ckpt = StoreCheckpoint::new(store);
    let mut stream = eager_stream();
    for (i, rec) in records.iter().enumerate() {
        stream.ingest(*rec);
        if ckpt.on_record(rec).is_err() {
            return false;
        }
        if (i + 1) % 3 == 0 {
            stream.pump();
            let mut emitted = 0;
            stream.poll_with(|report| {
                emitted += 1;
                ckpt.on_report(report).expect("a report row is only buffered");
            });
            if emitted > 0 && ckpt.sync().is_err() {
                return false;
            }
        }
    }
    for report in &stream.finish() {
        ckpt.on_report(report).expect("a report row is only buffered");
    }
    ckpt.sync().is_ok() && ckpt.finish().is_ok()
}

/// Reopen cleanly; the store must hold a durable prefix of `records`.
fn assert_durable_prefix(tmp: &TempDir, records: &[NodeRecord], context: &str) -> usize {
    let (store, _) = SegmentStore::open(tmp.path())
        .unwrap_or_else(|e| panic!("{context}: clean reopen failed: {e}"));
    let rows = store.events().unwrap();
    assert!(
        rows.len() <= records.len(),
        "{context}: store holds more rows than were absorbed"
    );
    for (i, (row, rec)) in rows.iter().zip(records).enumerate() {
        assert_eq!(*row, rec.entry, "{context}: row {i}");
    }
    rows.len()
}

/// Resume over the full input; the final reports must be byte-identical
/// to the batch baseline and the store must converge on every record.
fn assert_resume_converges(
    tmp: &TempDir,
    records: &[NodeRecord],
    baseline: &[PacketReport],
    context: &str,
) {
    let bytes = encode_records(records.iter());
    let (store, _) = SegmentStore::open(tmp.path()).unwrap();
    let mut ckpt = StoreCheckpoint::new(store);
    let mut stream = eager_stream();
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
    .unwrap_or_else(|e| panic!("{context}: resumed run errored: {e}"));
    let store = ckpt.finish().unwrap();
    assert_eq!(summary.reports, baseline, "{context}: resumed reports");
    assert_eq!(
        format!("{:#?}", summary.reports),
        format!("{baseline:#?}"),
        "{context}: byte identity"
    );
    assert_eq!(store.events().unwrap().len(), records.len(), "{context}: converged rows");
}

/// Kill the run at every mutating filesystem operation in turn.
#[test]
fn every_fault_point_recovers_to_a_durable_prefix() {
    let records = fixture(42);
    let baseline = recon().reconstruct_log(&merge_logs(&node_logs(&records)));

    // Count the clean run's mutating ops (the never-firing trigger).
    let probe = FaultyVfs::fail_at_op(u64::MAX);
    {
        let tmp = TempDir::new("store-faults-probe");
        assert!(run_doomed(&records, &probe, &tmp), "probe run must complete");
    }
    let ops = probe.mutating_ops();
    assert!(ops > 10, "fixture too small to exercise the store ({ops} ops)");

    for n in 0..ops {
        let tmp = TempDir::new("store-faults");
        let vfs = FaultyVfs::fail_at_op(n);
        let completed = run_doomed(&records, &vfs, &tmp);
        assert!(!completed, "op {n}: an injected fault must surface as an error");
        assert_eq!(vfs.injected(), 1, "op {n}: the fault must fire exactly once");
        let context = format!("op {n}");
        let durable = assert_durable_prefix(&tmp, &records, &context);
        assert!(durable <= records.len());
        assert_resume_converges(&tmp, &records, &baseline, &context);
    }
}

/// Mid-flush ordering: when the reports-block write fails, every event
/// absorbed so far is already durable — the events flush precedes the
/// reports write inside `sync`, and recovery proves it.
#[test]
fn mid_flush_failure_keeps_events_before_reports() {
    let mut triggered = 0u32;
    for seed in 0..20u64 {
        let records = fixture(seed);
        let tmp = TempDir::new("mid-flush");
        let vfs = FaultyVfs::fail_reports_write(0);
        let (store, _) = SegmentStore::open_with_vfs(
            tmp.path(),
            Arc::clone(&vfs) as Arc<dyn Vfs>,
            Arc::new(NoopRecorder),
        )
        .unwrap();
        let mut ckpt = StoreCheckpoint::new(store);
        let mut stream = eager_stream();
        let mut failed_at = None;
        for (i, rec) in records.iter().enumerate() {
            stream.ingest(*rec);
            ckpt.on_record(rec).unwrap();
            if (i + 1) % 3 == 0 {
                stream.pump();
                let mut emitted = 0;
                stream.poll_with(|report| {
                    emitted += 1;
                    ckpt.on_report(report).unwrap();
                });
                if emitted > 0 && ckpt.sync().is_err() {
                    failed_at = Some(i + 1);
                    break;
                }
            }
        }
        let Some(absorbed) = failed_at else {
            // No window closed before exhaustion this seed; skip.
            continue;
        };
        triggered += 1;
        assert_eq!(vfs.injected(), 1, "seed {seed}");

        // The journal shows the discipline: an events-block write lands
        // before the reports-block write that failed.
        let journal = vfs.journal();
        let fail_idx = journal
            .iter()
            .position(|e| e.contains("kind=reports") && e.contains("TORN"))
            .unwrap_or_else(|| panic!("seed {seed}: no failed reports write in {journal:?}"));
        assert!(
            journal[..fail_idx].iter().any(|e| e.contains("kind=events")),
            "seed {seed}: no events flush before the failing reports write: {journal:?}"
        );

        // Recovery: everything absorbed before the failure is durable.
        drop(ckpt);
        let (store, _) = SegmentStore::open(tmp.path()).unwrap();
        let rows = store.events().unwrap();
        assert_eq!(
            rows.len(),
            absorbed,
            "seed {seed}: every event absorbed before the failed reports write is durable"
        );
        for (row, rec) in rows.iter().zip(&records) {
            assert_eq!(*row, rec.entry);
        }
    }
    assert!(triggered >= 5, "only {triggered}/20 seeds closed a window mid-run");
}
