//! `refill stream`.

use super::{
    attach_recorder, logs_bytes, open_logs, parse_sink, recorder_for, simulate_day,
    write_telemetry, FlagSpec, Flags,
};
use netsim::json::ToJson;
use refill::telemetry::AtomicRecorder;
use refill::trace::{CtpVocabulary, Reconstructor};
use std::sync::Arc;

pub(super) const FLAGS: FlagSpec = FlagSpec {
    cmd: "stream",
    values: &[
        "logs",
        "sink",
        "seed",
        "late-records",
        "late-us",
        "metrics-every",
        "telemetry",
        "prometheus",
    ],
    switches: &["quiet"],
};

/// `refill stream`: online reconstruction over framed records.
pub fn stream(args: &[String]) -> Result<(), String> {
    print!("{}", stream_cmd_inner(args)?);
    Ok(())
}

/// `refill stream`, returning the printed output (testable).
pub fn stream_cmd_inner(args: &[String]) -> Result<String, String> {
    use eventlog::watermark::Lateness;
    use refill_stream::{run_stream_observed, DriverConfig, MetricsCadence, StreamReconstructor};

    let flags = Flags::parse(args, &FLAGS)?;
    let metrics_every: Option<u64> = flags
        .get("metrics-every")
        .map(|v| v.parse().map_err(|_| "bad metrics interval"))
        .transpose()?;
    // Interval deltas need a real recorder even when no snapshot file was
    // asked for — a Noop recorder would emit all-zero deltas.
    let recorder = match recorder_for(&flags) {
        Some(r) => Some(r),
        None if metrics_every.is_some() => Some(Arc::new(AtomicRecorder::new())),
        None => None,
    };
    let mut recon = attach_recorder(Reconstructor::new(CtpVocabulary::citysee()), &recorder);
    if let Some(sink) = parse_sink(&flags)? {
        recon = recon.with_sink(sink);
    }

    let mut lateness = Lateness::default();
    if let Some(v) = flags.get("late-records") {
        lateness.records = v.parse().map_err(|_| "bad lateness record quota")?;
    }
    if let Some(v) = flags.get("late-us") {
        lateness.micros = v.parse().map_err(|_| "bad lateness microseconds")?;
    }
    let mut stream = StreamReconstructor::with_lateness(recon, lateness);

    let quiet = flags.has("quiet");
    // Two independent sinks write interleaved output (rolling reports and
    // metrics deltas), so the buffer lives behind a RefCell.
    let out = std::cell::RefCell::new(String::new());
    use std::fmt::Write as _;
    let emit = |r: &refill::PacketReport| {
        if !quiet {
            let mut o = out.borrow_mut();
            let _ = writeln!(o, "packet {} | {}", r.packet, r.flow);
        }
    };
    let mut cadence = metrics_every.map(|every| {
        MetricsCadence::new(
            Arc::clone(stream.recorder()),
            every,
            |snap: &refill::telemetry::TelemetrySnapshot| {
                if let Ok(line) = snap.to_json().to_compact() {
                    let mut o = out.borrow_mut();
                    let _ = writeln!(o, "{line}");
                }
            },
        )
    });

    let reader: Box<dyn std::io::Read + Send> = match flags.get("logs") {
        Some(path) => open_logs(path)?,
        None => {
            // No input: a simulated day's upload stream, the bytes
            // `refill simulate` writes.
            let campaign = simulate_day(&flags)?;
            Box::new(std::io::Cursor::new(logs_bytes(&campaign)))
        }
    };

    let summary = run_stream_observed(
        reader,
        &mut stream,
        DriverConfig::default(),
        emit,
        |_| {
            if let Some(cadence) = &mut cadence {
                cadence.on_record();
            }
        },
    )
    .map_err(|e| e.to_string())?;
    if let Some(cadence) = cadence {
        cadence.finish();
    }

    let mut out = out.into_inner();
    let stats = summary.stats;
    let _ = writeln!(
        out,
        "\nframes: {} decoded, {} corrupt runs skipped",
        summary.frames.decoded, summary.frames.corrupt
    );
    let _ = writeln!(
        out,
        "records: {} | windows closed: {} | late reopens: {} | backpressure stalls: {}",
        stats.records, stats.windows_closed, stats.windows_reopened, stats.backpressure
    );
    let _ = writeln!(
        out,
        "packets: {} converged ({} reports emitted mid-stream)",
        summary.reports.len(),
        summary.rolling_reports
    );
    write_telemetry(&flags, recorder.as_deref())?;
    Ok(out)
}
