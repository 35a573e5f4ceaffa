//! `refill analyze`.

use super::{build_analyzer, load_input, recorder_for, write_telemetry, FlagSpec, Flags};
use netsim::available_workers;
use refill::diagnose::{CauseBreakdown, PositionBreakdown};
use std::fmt::Write as _;
use std::time::Instant;

pub(super) const FLAGS: FlagSpec = FlagSpec {
    cmd: "analyze",
    values: &["logs", "sink", "period", "telemetry", "prometheus"],
    switches: &["stats"],
};

/// `refill analyze`, returning the printed output (testable).
pub fn analyze_cmd_inner(args: &[String]) -> Result<String, String> {
    let flags = Flags::parse(args, &FLAGS)?;
    flags.get("logs").ok_or("--logs is required")?;
    let input = load_input(&flags)?;
    let recorder = recorder_for(&flags);
    let analyzer = build_analyzer(&flags, &input, &recorder)?;

    let index = analyzer.index(&input.logs);
    let t0 = Instant::now();
    // Per packet: its diagnosis, whether its path loops, its inferred events.
    let packets = analyzer.pass(&index, index.ids(), available_workers(), |v| {
        let looped = v.report.has_routing_loop();
        (v.diagnosis, looped, v.report.flow.inferred_count())
    });
    let pass_secs = t0.elapsed().as_secs_f64();

    let breakdown = CauseBreakdown::from_diagnoses(packets.iter().map(|p| &p.0));
    let positions = PositionBreakdown::from_diagnoses(packets.iter().map(|p| &p.0));

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} packets reconstructed from {} nodes' logs ({} events)",
        packets.len(),
        input.logs.len(),
        index.event_count()
    );
    let _ = writeln!(
        out,
        "delivered: {} | lost: {}",
        breakdown.delivered_total, breakdown.lost_total
    );
    let _ = writeln!(out, "\nloss causes:");
    for cause in citysee::figures::CAUSE_ORDER {
        let pct = breakdown.percent(cause);
        if pct > 0.0 {
            let _ = writeln!(out, "  {:>14}: {:5.1}%", cause.label(), pct);
        }
    }
    let _ = writeln!(out, "\ntop loss positions:");
    for (node, count) in positions.hotspots().into_iter().take(8) {
        let mark = if Some(node) == input.sink {
            "  <- sink"
        } else {
            ""
        };
        let _ = writeln!(out, "  {node}: {count}{mark}");
    }
    let loops = packets.iter().filter(|p| p.1).count();
    let inferred: usize = packets.iter().map(|p| p.2).sum();
    let _ = writeln!(
        out,
        "\nrouting loops detected: {loops} | lost events inferred: {inferred}"
    );
    if flags.has("stats") {
        let packets = packets.len();
        let throughput = if pass_secs > 0.0 {
            packets as f64 / pass_secs
        } else {
            0.0
        };
        let _ = writeln!(out, "\nreconstruction stats:");
        let _ = writeln!(
            out,
            "  throughput: {packets} packets in {pass_secs:.3}s ({throughput:.0} packets/sec)"
        );
    }
    write_telemetry(&flags, recorder.as_deref())?;
    Ok(out)
}

/// `refill analyze`, printing.
pub fn analyze(args: &[String]) -> Result<(), String> {
    print!("{}", analyze_cmd_inner(args)?);
    Ok(())
}
