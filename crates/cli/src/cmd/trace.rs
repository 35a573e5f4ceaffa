//! `refill trace`.

use super::{
    build_analyzer, load_input, parse_packet, recorder_for, write_telemetry, FlagSpec, Flags,
};

pub(super) const FLAGS: FlagSpec = FlagSpec {
    cmd: "trace",
    values: &["logs", "packet", "sink", "telemetry", "prometheus"],
    switches: &["dot"],
};

/// `refill trace`.
pub fn trace(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &FLAGS)?;
    flags.get("logs").ok_or("--logs is required")?;
    let packet = parse_packet(flags.get("packet").ok_or("--packet is required")?)?;
    let recorder = recorder_for(&flags);
    let input = load_input(&flags, &recorder)?;
    let analyzer = build_analyzer(&flags, &input, &recorder)?;

    let (report, diag) = analyzer
        .packet(&input.logs, packet)
        .ok_or_else(|| format!("no events for packet {packet} in the logs"))?;

    if flags.has("dot") {
        print!("{}", report.flow.to_dot());
        return write_telemetry(&flags, recorder.as_deref());
    }
    println!("packet {packet}");
    println!(
        "  path : {}",
        report
            .path
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(" -> ")
    );
    println!("  flow : {}", report.flow);
    println!(
        "  {} observed, {} inferred, {} omitted, delivered: {}",
        report.flow.observed_count(),
        report.flow.inferred_count(),
        report.omitted.len(),
        report.delivered,
    );
    if let Some(cause) = diag.cause {
        println!(
            "  verdict: {} at {}",
            cause.label(),
            diag.loss_node.map(|n| n.to_string()).unwrap_or_default()
        );
    }
    write_telemetry(&flags, recorder.as_deref())
}
