//! `refill profile`.

use super::{build_analyzer, load_input, write_telemetry, FlagSpec, Flags};
use refill::telemetry::{AtomicRecorder, Recorder};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

pub(super) const FLAGS: FlagSpec = FlagSpec {
    cmd: "profile",
    values: &[
        "logs",
        "sink",
        "seed",
        "workers",
        "format",
        "telemetry",
        "prometheus",
    ],
    switches: &[],
};

/// `refill profile`: run the analyzer's pass with telemetry attached and
/// print the per-stage breakdown. Without `--logs`, one CitySee-like day is
/// simulated first so the command works standalone.
///
/// Single-threaded by default on purpose: stage totals then add up to
/// wall-clock time instead of summing CPU time across workers, which
/// makes the table directly readable as "where did the time go". With
/// `--workers N` the same pass runs on N threads: every per-packet stage row
/// then sums CPU time across workers, so the table reads as "where did the
/// work go".
pub fn profile(args: &[String]) -> Result<(), String> {
    print!("{}", profile_cmd_inner(args)?);
    Ok(())
}

/// `refill profile`, returning the printed output (testable). With
/// `--format json` the output is the full telemetry snapshot as JSON —
/// the same document `--telemetry FILE` writes — instead of the table.
pub fn profile_cmd_inner(args: &[String]) -> Result<String, String> {
    let flags = Flags::parse(args, &FLAGS)?;
    let format = flags.get("format").unwrap_or("table");
    if !matches!(format, "table" | "json") {
        return Err(format!(
            "unknown format '{format}' (expected table or json)"
        ));
    }
    let workers: usize = flags
        .get("workers")
        .map(|w| w.parse().map_err(|_| "bad worker count"))
        .transpose()?
        .unwrap_or(1);
    let recorder = Arc::new(AtomicRecorder::new());
    let attached = Some(Arc::clone(&recorder));
    let input = load_input(&flags, &attached)?;
    let analyzer = build_analyzer(&flags, &input, &attached)?;

    let t0 = Instant::now();
    let index = analyzer.index(&input.logs);
    let packets = analyzer.pass(&index, index.ids(), workers, |_| ()).len();
    let secs = t0.elapsed().as_secs_f64();

    let mut out = String::new();
    if format == "json" {
        // Machine-readable mode: stdout is exactly one JSON document.
        out.push_str(&recorder.snapshot().render_json());
        out.push('\n');
    } else {
        out.push_str(&recorder.snapshot().render_table());
        let throughput = if secs > 0.0 {
            packets as f64 / secs
        } else {
            0.0
        };
        let mode = if workers > 1 {
            format!("{workers} workers")
        } else {
            "single-threaded".to_owned()
        };
        let _ = writeln!(
            out,
            "\n{packets} packets in {secs:.3}s ({throughput:.0} packets/sec, {mode})"
        );
    }
    write_telemetry(&flags, Some(&recorder))?;
    Ok(out)
}
