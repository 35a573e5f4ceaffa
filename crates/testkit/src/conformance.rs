//! The five-path conformance oracle.
//!
//! One seeded scenario is pushed through every reconstruction path the
//! workspace ships — sequential, parallel, fused-columnar, the memoised
//! path cold then warm, and the streaming driver over the (possibly
//! mangled) wire bytes — and every path must produce a byte-identical
//! report set. The canonical record sequence is fixed by decoding the
//! mangled bytes **once** with [`decode_all`]: whatever survived corruption
//! is, by the CRC argument in [`crate::faults`], exactly what every driver
//! must agree on.
//!
//! One extra lane probes the failure edge rather than the happy path: an
//! injected reader IO error mid-stream must surface as an error *and* leave
//! the stream converged on the decodable prefix.
//!
//! Every decision derives from the [`FaultPlan`] seed, so a failure is
//! fully described by the `refill soak --seed … --faults …` line its
//! error prints.

use crate::faults::{mangle_frames, FaultyReader};
use crate::plan::{FaultPlan, FaultSpec};
use crate::scenario::{gen_logs, upload_interleave, ScenarioReport};
use eventlog::frame::{decode_all, node_logs, FrameStats};
use eventlog::merge::merge_logs;
use eventlog::watermark::Lateness;
use refill::parallel::{reconstruct_fused, reconstruct_parallel};
use refill::telemetry::{Counter, Recorder};
use refill::{CtpVocabulary, PacketReport, Reconstructor, SigCache};
use refill_stream::{run_stream, DriverConfig, StreamReconstructor};

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
    // Debug rendering (what the CLI prints).
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

    recorder.add(Counter::FaultsSurvived, injected);
    Ok(CaseOutcome {
        scenario: sreport,
        frames: frame_stats,
        records_uploaded: uploaded.len(),
        records_survived: survivors.len(),
        reports: baseline.len(),
        faults_injected: injected,
        reader_fault,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use refill::telemetry::{AtomicRecorder, NoopRecorder};

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
