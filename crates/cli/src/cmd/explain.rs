//! `refill explain`.

use super::{build_analyzer, load_input, parse_packet, FlagSpec, Flags};
use refill::provenance::CacheDisposition;

pub(super) const FLAGS: FlagSpec = FlagSpec {
    cmd: "explain",
    values: &["packet", "logs", "sink", "seed", "format"],
    switches: &[],
};

/// `refill explain`, printing.
pub fn explain(args: &[String]) -> Result<(), String> {
    print!("{}", explain_cmd_inner(args)?);
    Ok(())
}

/// `refill explain`, returning the printed output (testable): a provenance
/// narrative for one packet — observed vs inferred events, the FSM rule
/// behind each inference, loss position and cause, and the confidence
/// score.
pub fn explain_cmd_inner(args: &[String]) -> Result<String, String> {
    // The packet may be given positionally (`refill explain 17:4`) or via
    // `--packet`, matching `refill trace`.
    let (positional, rest) = match args.first() {
        Some(a) if !a.starts_with("--") => (Some(a.as_str()), &args[1..]),
        _ => (None, args),
    };
    let flags = Flags::parse(rest, &FLAGS)?;
    let spec = positional
        .or_else(|| flags.get("packet"))
        .ok_or("explain needs a packet: `refill explain ORIGIN:SEQNO` (or --packet)")?;
    let packet = parse_packet(spec)?;

    let input = load_input(&flags, &None)?;
    let analyzer = build_analyzer(&flags, &input, &None)?;
    let (report, _) = analyzer
        .packet(&input.logs, packet)
        .ok_or_else(|| format!("no events for packet {packet} in the logs"))?;

    // The point lookup runs the kernel on the packet's own events: no cache
    // is in its path.
    let explanation = refill::explain(
        &report,
        analyzer.diagnoser(),
        Some(CacheDisposition::Direct),
    );
    match flags.get("format").unwrap_or("text") {
        "text" => Ok(explanation.render_text()),
        "json" => {
            let mut s = explanation.render_json();
            s.push('\n');
            Ok(s)
        }
        other => Err(format!("unknown format '{other}' (expected text or json)")),
    }
}
