//! Seeded soak runs: many conformance cases from one master seed.
//!
//! The master seed fans out into one derived seed per case (echoed to the
//! caller before the case runs, so a crash or hang still identifies its
//! case), and every case is independently replayable: `refill soak --seed
//! <case-seed> --cases 1 --faults <spec>` reruns exactly one.

use crate::conformance::{run_case, CaseOutcome, ConformanceError};
use crate::plan::{FaultPlan, FaultSpec};
use netsim::RngFactory;
use refill::telemetry::Recorder;

/// One soak run's shape.
#[derive(Debug, Clone, Copy)]
pub struct SoakConfig {
    /// Master seed; each case's seed derives from it.
    pub seed: u64,
    /// Conformance cases to run.
    pub cases: u32,
    /// Fault rates for every case.
    pub spec: FaultSpec,
}

/// Aggregated soak totals.
#[derive(Debug, Clone, Default)]
pub struct SoakReport {
    /// Cases attempted.
    pub cases: u32,
    /// Cases where all five paths converged byte-identically.
    pub converged: u32,
    /// Every divergence, in case order (each replayable from its seed).
    pub failures: Vec<ConformanceError>,
    /// Faults injected across all cases.
    pub faults_injected: u64,
    /// Records that survived the wire, summed over cases.
    pub records_survived: u64,
    /// Converged reports, summed over cases.
    pub reports: u64,
}

/// Run `config.cases` conformance cases, calling `progress` with each
/// case's derived seed and result as it completes. Failures never stop
/// the run — a soak's job is to map the failure surface, not to flinch
/// at the first crack.
pub fn run_soak(
    config: &SoakConfig,
    recorder: &dyn Recorder,
    mut progress: impl FnMut(u64, &Result<CaseOutcome, ConformanceError>),
) -> SoakReport {
    let mut seeds = RngFactory::new(config.seed).stream("soak", 0);
    let mut report = SoakReport {
        cases: config.cases,
        ..SoakReport::default()
    };
    for _ in 0..config.cases {
        // A single-case run IS its seed — that is what makes the
        // `--seed N --cases 1` reproduction line in a failure message
        // replay the failing plan exactly. Multi-case runs fan out.
        let case_seed = if config.cases == 1 {
            config.seed
        } else {
            seeds.next_u64()
        };
        let plan = FaultPlan::new(case_seed, config.spec);
        let result = run_case(&plan, recorder);
        match &result {
            Ok(outcome) => {
                report.converged += 1;
                report.faults_injected += outcome.faults_injected;
                report.records_survived += outcome.records_survived as u64;
                report.reports += outcome.reports as u64;
            }
            Err(failure) => report.failures.push(failure.clone()),
        }
        progress(case_seed, &result);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use refill::telemetry::NoopRecorder;

    #[test]
    fn soak_echoes_one_seed_per_case_and_is_replayable() {
        let config = SoakConfig {
            seed: 5,
            cases: 4,
            spec: FaultSpec::light(),
        };
        let mut seeds_a = Vec::new();
        let a = run_soak(&config, &NoopRecorder, |s, _| seeds_a.push(s));
        let mut seeds_b = Vec::new();
        let b = run_soak(&config, &NoopRecorder, |s, _| seeds_b.push(s));
        assert_eq!(seeds_a.len(), 4);
        assert_eq!(seeds_a, seeds_b, "case seeds derive from the master seed");
        assert_eq!(a.converged, b.converged);
        assert_eq!(a.faults_injected, b.faults_injected);

        // Any single case replays standalone from its echoed seed: a
        // one-case soak runs exactly the plan the seed names.
        let plan = FaultPlan::new(seeds_a[2], config.spec);
        assert!(crate::conformance::run_case(&plan, &NoopRecorder).is_ok());
        let single = SoakConfig {
            seed: seeds_a[2],
            cases: 1,
            spec: config.spec,
        };
        let mut echoed = None;
        run_soak(&single, &NoopRecorder, |s, _| echoed = Some(s));
        assert_eq!(echoed, Some(seeds_a[2]), "cases=1 uses the seed directly");
    }

    #[test]
    fn soak_aggregates_fault_totals() {
        let config = SoakConfig {
            seed: 9,
            cases: 6,
            spec: FaultSpec::heavy(),
        };
        let report = run_soak(&config, &NoopRecorder, |_, _| {});
        assert_eq!(report.converged, 6, "failures: {:?}", report.failures);
        assert!(report.faults_injected > 0);
        assert!(report.reports > 0);
    }
}
