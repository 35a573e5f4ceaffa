//! `refill` — the command-line interface.
//!
//! ```text
//! refill simulate [--scale small|standard|paper] [--seed N] [--out DIR]
//!     Run a CitySee-like campaign and write the collected logs as the
//!     frames their upload stream would arrive in (logs.frames), the
//!     scenario (scenario.json) and a truth summary.
//!
//! refill analyze --logs LOGS [--sink N] [--period SECS]
//!     Group the logs by packet where they lie, reconstruct and diagnose
//!     every packet in one parallel pass, print the loss-cause breakdown,
//!     the loss hotspots and the loop / inferred-event counts.
//!
//! refill trace --logs LOGS --packet ORIGIN:SEQNO [--sink N] [--dot]
//!     Print one packet's reconstructed event flow (optionally as
//!     Graphviz DOT) and its verdict.
//!
//! refill explain ORIGIN:SEQNO [--logs LOGS] [--format text|json]
//!     Narrate one packet's provenance: observed vs inferred events, the
//!     FSM rule behind each inference, the loss position and cause, and
//!     the confidence score.
//!
//! refill profile [--logs LOGS] [--workers N] [--telemetry FILE]
//!     Run the same pass with telemetry attached and print the per-stage
//!     time/counter breakdown — on one thread by default, on N with
//!     --workers (simulates one CitySee-like day when no logs are given).
//!
//! refill stream [--logs LOGS] [--metrics-every N]
//!     Online reconstruction: decode the records of LOGS as they arrive
//!     (or of a simulated CitySee-like day when no input is given), print
//!     rolling packet reports as windows close — plus a JSON-lines
//!     telemetry delta every N records with --metrics-every — then the
//!     converged summary. A killed run is re-run over the same LOGS.
//!
//! refill soak [--seed N] [--cases N] [--faults SPEC]
//!     Seeded fault-injection conformance: push synthetic scenarios
//!     through all five driver paths under injected frame corruption and
//!     reader failures, asserting byte-identical reports everywhere. Every
//!     case seed is echoed and every failure prints a standalone
//!     reproduction command.
//! ```
//!
//! LOGS is the one log file format, the CRC-checked `eventlog::frame`
//! records: a file, a directory holding `logs.frames`, or `-` for stdin.
//! Logs produced by any recorder that writes them — not just the bundled
//! simulator — can be analyzed; corrupt runs are skipped and counted.
//! Every command that goes from logs to diagnosed reports does so
//! through `citysee::analysis::Analyzer`, the pass `citysee::analyze` (and
//! the benchmark) runs; a flag a command does not declare is an error.

use std::process::ExitCode;

mod cmd;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{}", cmd::USAGE);
        return ExitCode::from(2);
    };
    match cmd::run(cmd, rest) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
