//! `refill soak`.

use super::{recorder_for, write_telemetry, FlagSpec, Flags};
use refill::telemetry::Recorder;

pub(super) const FLAGS: FlagSpec = FlagSpec {
    cmd: "soak",
    values: &["seed", "cases", "faults", "telemetry", "prometheus"],
    switches: &["quiet"],
};

/// `refill soak`.
pub fn soak(args: &[String]) -> Result<(), String> {
    print!("{}", soak_cmd_inner(args)?);
    Ok(())
}

/// `refill soak`, returning the printed output (testable): seeded
/// fault-injection conformance cases across all six driver paths. A
/// divergence returns `Err` (nonzero exit) carrying every failure's
/// standalone reproduction command.
pub fn soak_cmd_inner(args: &[String]) -> Result<String, String> {
    use refill_testkit::{run_soak, FaultSpec, SoakConfig};
    use std::fmt::Write as _;

    let flags = Flags::parse(args, &FLAGS)?;
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse().map_err(|_| "bad seed"))
        .transpose()?
        .unwrap_or(1);
    let cases: u32 = flags
        .get("cases")
        .map(|s| s.parse().map_err(|_| "bad cases"))
        .transpose()?
        .unwrap_or(64);
    let spec = FaultSpec::parse(flags.get("faults").unwrap_or("light"))?;
    let quiet = flags.has("quiet");
    let recorder = recorder_for(&flags);
    let noop = refill::telemetry::NoopRecorder;
    let rec: &dyn Recorder = match &recorder {
        Some(r) => &**r,
        None => &noop,
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "soak: master seed {seed}, {cases} case(s), faults {}",
        spec.render()
    );
    let config = SoakConfig { seed, cases, spec };
    let report = run_soak(&config, rec, |case_seed, result| match result {
        Ok(o) => {
            if !quiet {
                let _ = writeln!(
                    out,
                    "  seed {case_seed:>20}  converged  {:>4} records  {:>3} reports  {:>3} fault(s)",
                    o.records_survived, o.reports, o.faults_injected
                );
            }
        }
        Err(e) => {
            let _ = writeln!(out, "  seed {case_seed:>20}  DIVERGED   [{}]", e.driver);
        }
    });
    let _ = writeln!(
        out,
        "{}/{} case(s) converged, {} fault(s) injected and survived, {} record(s), {} report(s)",
        report.converged, report.cases, report.faults_injected,
        report.records_survived, report.reports
    );
    write_telemetry(&flags, recorder.as_deref())?;

    if report.failures.is_empty() {
        Ok(out)
    } else {
        for failure in &report.failures {
            let _ = writeln!(out, "\n{failure}");
        }
        Err(format!(
            "{out}\nsoak: {} of {} case(s) diverged",
            report.failures.len(),
            report.cases
        ))
    }
}
