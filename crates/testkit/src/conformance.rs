//! The six-path conformance oracle.
//!
//! One seeded scenario is pushed through every reconstruction path the
//! workspace ships — sequential, parallel, fused-columnar, the memoised
//! path cold then warm, the streaming driver over the (possibly mangled)
//! wire bytes, and a kill-and-resume run through the durable store — and
//! every path must produce a byte-identical report set. The canonical record
//! sequence is fixed by decoding the mangled bytes **once** with
//! [`decode_all`]: whatever survived corruption is, by the CRC argument in
//! [`crate::faults`], exactly what every driver must agree on.
//!
//! Two extra lanes probe the failure edges rather than the happy path:
//!
//! * **reader faults** — an injected IO error mid-stream must surface as
//!   an error *and* leave the stream converged on the decodable prefix;
//! * **store faults** — torn writes, failed fsyncs and failed renames
//!   during a checkpointed run must either surface as typed errors or
//!   recover, on a clean reopen, to a durable prefix of the absorbed
//!   sequence — never to silently divergent state.
//!
//! Every decision derives from the [`FaultPlan`] seed, so a failure is
//! fully described by the `refill soak --seed … --faults …` line its
//! error prints.

use crate::faults::{mangle_frames, FaultyReader, FaultyVfs};
use crate::plan::{FaultPlan, FaultSpec};
use crate::scenario::{gen_logs, upload_interleave, ScenarioReport};
use eventlog::frame::{decode_all, node_logs, FrameStats};
use eventlog::merge::merge_logs;
use eventlog::watermark::Lateness;
use refill::parallel::{reconstruct_fused, reconstruct_parallel};
use refill::telemetry::{Counter, NoopRecorder, Recorder};
use refill::{CtpVocabulary, PacketReport, Reconstructor, SigCache};
use refill_store::{SegmentStore, StoreCheckpoint, Vfs};
use refill_stream::{
    run_stream, run_stream_observed, DriverConfig, StreamObserver, StreamReconstructor,
};
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A self-cleaning scratch directory for store-backed conformance phases.
pub struct TempDir(PathBuf);

static NONCE: AtomicU64 = AtomicU64::new(0);

impl TempDir {
    /// A fresh empty directory under the system temp root.
    pub fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "refill-testkit-{tag}-{}-{}",
            std::process::id(),
            NONCE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir creation");
        TempDir(dir)
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A conformance violation, carrying everything needed to replay it.
#[derive(Debug, Clone)]
pub struct ConformanceError {
    /// The plan seed.
    pub seed: u64,
    /// The fault rates in force.
    pub spec: FaultSpec,
    /// Which driver lane diverged.
    pub driver: &'static str,
    /// What diverged.
    pub detail: String,
}

impl std::fmt::Display for ConformanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "conformance failure [{}]: {}\n  reproduce with: refill soak --seed {} --cases 1 --faults {}",
            self.driver,
            self.detail,
            self.seed,
            self.spec.render()
        )
    }
}

impl std::error::Error for ConformanceError {}

/// What one conformance case did — shape and fault counts for reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CaseOutcome {
    /// Scenario shape (nodes, packets, duplicates, withheld rounds).
    pub scenario: ScenarioReport,
    /// Decode counters over the mangled wire bytes.
    pub frames: FrameStats,
    /// Records in the upload interleave, pre-mangling.
    pub records_uploaded: usize,
    /// Records that survived the wire (the canonical sequence).
    pub records_survived: usize,
    /// Converged reports every driver agreed on.
    pub reports: usize,
    /// Total faults injected across every lane.
    pub faults_injected: u64,
    /// Whether the reader-fault lane ran this case.
    pub reader_fault: bool,
    /// Store-level faults (torn writes, failed syncs/renames) injected.
    pub store_faults: u64,
}

fn recon() -> Reconstructor {
    Reconstructor::new(CtpVocabulary::table2())
}

/// `None` when `got` is byte-identical to `baseline`, else a description
/// of the first divergence.
fn diverge(baseline: &[PacketReport], got: &[PacketReport]) -> Option<String> {
    if baseline.len() != got.len() {
        return Some(format!(
            "report count diverged: {} vs baseline {}",
            got.len(),
            baseline.len()
        ));
    }
    if let Some(i) = baseline.iter().zip(got).position(|(a, b)| a != b) {
        return Some(format!(
            "first divergence at report {i} (packet {:?})",
            baseline[i].packet
        ));
    }
    // Structural equality established; seal byte-identity through the
    // Debug rendering (what the CLI and the store's sidecars print).
    let (a, b) = (format!("{baseline:#?}"), format!("{got:#?}"));
    (a != b).then(|| "Debug renderings diverge despite structural equality".to_string())
}

/// Run one full conformance case from a fault plan.
///
/// Fault counters flow into `recorder` ([`Counter::FaultsInjected`] as
/// each lane injects, [`Counter::FaultsSurvived`] once the whole case
/// converges), so a soak run's telemetry shows how much hostility the
/// pipeline absorbed.
// The error carries the whole spec by value so its message alone replays
// the case; it is built once per failed case, never on a hot path.
#[allow(clippy::result_large_err)]
pub fn run_case(
    plan: &FaultPlan,
    recorder: &dyn Recorder,
) -> Result<CaseOutcome, ConformanceError> {
    let spec = &plan.spec;
    let fail = |driver: &'static str, detail: String| ConformanceError {
        seed: plan.seed,
        spec: *spec,
        driver,
        detail,
    };

    // --- Scenario: per-node logs, skewed clocks, lossy hops ---
    let mut srng = plan.lane("scenario");
    let (logs, mut sreport) = gen_logs(&mut srng, spec);
    let uploaded = upload_interleave(&mut srng, spec, &logs, &mut sreport);

    // --- Wire: frame the upload, then corrupt it ---
    let mut frng = plan.lane("frames");
    let (bytes, mangle) = mangle_frames(&mut frng, spec, &uploaded);
    let mut injected = sreport.injected() + mangle.injected();
    recorder.add(Counter::FaultsInjected, injected);

    // The canonical surviving sequence: decode the mangled bytes exactly
    // once. Everything downstream must agree with *this*.
    let (survivors, frame_stats) = decode_all(&bytes);
    let slogs = node_logs(&survivors);
    let merged = merge_logs(&slogs);

    // --- Driver 1 (baseline): sequential batch ---
    let baseline = recon().reconstruct_log(&merged);
    let check = |driver: &'static str, got: &[PacketReport]| match diverge(&baseline, got) {
        None => Ok(()),
        Some(detail) => Err(fail(driver, detail)),
    };

    let mut drng = plan.lane("drivers");
    let workers = drng.gen_range(1..5);

    // --- Drivers 2-3: parallel, fused columnar ---
    check("parallel", &reconstruct_parallel(&recon(), &merged, workers))?;
    check("fused", &reconstruct_fused(&recon(), &slogs, workers))?;

    // --- Driver 4: the memoised path, cold and then warm on one signature
    // cache so the second run rehydrates from the first's templates ---
    let cache = SigCache::new(1024);
    check("cached-cold", &recon().reconstruct_log_cached(&merged, &cache))?;
    check("cached-warm", &recon().reconstruct_log_cached(&merged, &cache))?;

    // --- Driver 5: the streaming driver over the raw mangled bytes
    // (the decoder is chunk-boundary-insensitive, so it must land on the
    // same survivors), with seeded window/chunk settings and optional
    // pathological read sizes ---
    let lateness = Lateness {
        records: drng.gen_range(1..9),
        micros: [20_000, 1_000_000, u64::MAX][drng.gen_range(0..3)],
    };
    let driver_config = DriverConfig {
        chunk_bytes: drng.gen_range(64..513),
        channel_batches: drng.gen_range(1..5),
        poll_every: drng.gen_range(1..9),
    };
    let stall = drng.gen_bool(spec.reader_stall);
    let reader = FaultyReader::clean(bytes.clone(), stall, plan.lane("stall"));
    let mut stream = StreamReconstructor::with_lateness(recon(), lateness);
    let summary = run_stream(reader, &mut stream, driver_config, |_| {})
        .map_err(|e| fail("stream", format!("clean streaming run errored: {e}")))?;
    check("stream", &summary.reports)?;
    if summary.frames != frame_stats {
        return Err(fail(
            "stream",
            format!(
                "frame accounting diverged across chunking: {:?} vs {frame_stats:?}",
                summary.frames
            ),
        ));
    }

    // --- Reader-fault lane: die mid-read, converge on the prefix ---
    let mut rrng = plan.lane("reader");
    let reader_fault = rrng.gen_bool(spec.reader_error) && !bytes.is_empty();
    if reader_fault {
        injected += 1;
        recorder.add(Counter::FaultsInjected, 1);
        let k = rrng.gen_range(0..bytes.len());
        let reader = FaultyReader::failing(
            bytes.clone(),
            k,
            rrng.gen_bool(spec.reader_stall),
            plan.lane("reader-stall"),
        );
        let mut stream = StreamReconstructor::with_lateness(recon(), lateness);
        match run_stream(reader, &mut stream, driver_config, |_| {}) {
            Ok(_) => {
                return Err(fail(
                    "reader-error",
                    format!("injected reader fault after {k} bytes surfaced as success"),
                ))
            }
            Err(_) => {
                // The driver flushes the decoded prefix before surfacing
                // the error; the stream must hold the prefix's reports.
                let (prefix, _) = decode_all(&bytes[..k]);
                let expected = recon().reconstruct_log(&merge_logs(&node_logs(&prefix)));
                if let Some(detail) = diverge(&expected, &stream.reports()) {
                    return Err(fail(
                        "reader-error",
                        format!("prefix convergence after reader fault at {k} bytes: {detail}"),
                    ));
                }
            }
        }
    }

    // --- Driver 6: checkpointed store run killed under filesystem
    // faults, then resumed on a clean reopen ---
    let mut vrng = plan.lane("store");
    let kill_k = vrng.gen_range(0..survivors.len() + 1);
    let cadence = vrng.gen_range(1..6);
    let vfs = FaultyVfs::probabilistic(
        plan.lane("store-ops"),
        spec.store_write,
        spec.store_sync,
        spec.store_rename,
    );
    let tmp = TempDir::new("conformance");

    // Phase 1: the doomed run. The driver's hook order, by hand, so the
    // kill can land between any two records; any injected fault that
    // surfaces also ends the run — exactly what a crashed process does.
    {
        let opened = SegmentStore::open_with_vfs(
            tmp.path(),
            Arc::clone(&vfs) as Arc<dyn Vfs>,
            Arc::new(NoopRecorder),
        );
        if let Ok((store, _)) = opened {
            let mut ckpt = StoreCheckpoint::new(store);
            let mut stream = StreamReconstructor::with_lateness(recon(), lateness);
            for (i, rec) in survivors[..kill_k].iter().enumerate() {
                stream.ingest(*rec);
                if ckpt.on_record(rec).is_err() {
                    break;
                }
                if (i + 1) % cadence == 0 {
                    // Absorb first, so windows close (and syncs reach the
                    // store) well before a lane fills.
                    stream.pump();
                    let mut emitted = 0;
                    stream.poll_with(|report| {
                        emitted += 1;
                        ckpt.on_report(report).expect("a report row is only buffered");
                    });
                    if emitted > 0 && ckpt.sync().is_err() {
                        break;
                    }
                }
            }
            // Dropped without finish(): rows buffered since the last
            // sync are lost, as in a real crash.
        }
        // An open_with_vfs error is a fault landing before the first
        // record — the store never came up; recovery still must.
    }
    let store_faults = vfs.injected();
    injected += store_faults;
    recorder.add(Counter::FaultsInjected, store_faults);

    // Phase 2: clean reopen. Recovery must succeed and yield a durable
    // prefix of the absorbed sequence — *never* divergent rows.
    let (store, _recovery) = SegmentStore::open(tmp.path()).map_err(|e| {
        fail(
            "store-recovery",
            format!(
                "clean reopen after {store_faults} injected store fault(s) failed: {e}\n  vfs journal:\n    {}",
                vfs.journal().join("\n    ")
            ),
        )
    })?;
    let rows = store
        .events()
        .map_err(|e| fail("store-recovery", format!("recovered store unreadable: {e}")))?;
    if rows.len() > kill_k {
        return Err(fail(
            "store-recovery",
            format!(
                "store holds {} rows but only {kill_k} records were ever absorbed",
                rows.len()
            ),
        ));
    }
    for (i, (row, rec)) in rows.iter().zip(&survivors).enumerate() {
        if *row != rec.entry {
            return Err(fail(
                "store-recovery",
                format!(
                    "durable row {i} diverged from the absorbed sequence: {row:?} vs {:?}",
                    rec.entry
                ),
            ));
        }
    }

    // Resume: replay the durable prefix, then drive the full wire bytes
    // through the checkpointed driver (skip_records covers the replay).
    let mut ckpt = StoreCheckpoint::new(store);
    let mut stream = StreamReconstructor::with_lateness(recon(), lateness);
    for rec in ckpt
        .resume_records()
        .map_err(|e| fail("store-resume", format!("resume replay failed: {e}")))?
    {
        stream.ingest(rec);
    }
    let summary = run_stream_observed(
        Cursor::new(&bytes),
        &mut stream,
        driver_config,
        |_| {},
        &mut [&mut ckpt],
    )
    .map_err(|e| fail("store-resume", format!("resumed run errored: {e}")))?;
    let store = ckpt
        .finish()
        .map_err(|e| fail("store-resume", format!("final checkpoint flush failed: {e}")))?;
    check("store-resume", &summary.reports)?;

    // The converged store must now hold the entire survivor sequence.
    let rows = store
        .events()
        .map_err(|e| fail("store-resume", format!("converged store unreadable: {e}")))?;
    if rows.len() != survivors.len() {
        return Err(fail(
            "store-resume",
            format!(
                "converged store holds {} rows, expected {}",
                rows.len(),
                survivors.len()
            ),
        ));
    }

    recorder.add(Counter::FaultsSurvived, injected);
    Ok(CaseOutcome {
        scenario: sreport,
        frames: frame_stats,
        records_uploaded: uploaded.len(),
        records_survived: survivors.len(),
        reports: baseline.len(),
        faults_injected: injected,
        reader_fault,
        store_faults,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use refill::telemetry::AtomicRecorder;

    #[test]
    fn faultless_case_converges() {
        let plan = FaultPlan::new(1, FaultSpec::none());
        let out = run_case(&plan, &NoopRecorder).unwrap();
        assert_eq!(out.records_uploaded, out.records_survived);
        assert_eq!(out.faults_injected, 0);
        assert_eq!(out.frames.corrupt, 0);
        assert!(out.reports > 0, "a scenario always yields packets");
    }

    #[test]
    fn heavy_faults_still_converge_and_are_counted() {
        let recorder = AtomicRecorder::new();
        let mut survived = 0u64;
        for seed in 0..8 {
            let plan = FaultPlan::new(seed, FaultSpec::heavy());
            let out = run_case(&plan, &recorder).unwrap();
            survived += out.faults_injected;
        }
        assert!(survived > 0, "heavy spec must actually inject");
        let snap = recorder.snapshot();
        assert_eq!(snap.counter("faults_injected"), survived);
        assert_eq!(snap.counter("faults_survived"), survived);
    }

    #[test]
    fn outcomes_replay_from_the_seed_alone() {
        let plan = FaultPlan::new(77, FaultSpec::heavy());
        let a = run_case(&plan, &NoopRecorder).unwrap();
        let b = run_case(&plan, &NoopRecorder).unwrap();
        assert_eq!(a, b);
    }
}
