//! Regenerates **Figure 9 / Section V-C**: the overall breakdown of loss
//! causes, with the sink/off-sink splits the paper reports:
//!
//! > server outage 22.6 %; received 32.2 % (20.0 % sink + 12.2 % other);
//! > acked 38.6 % (38.0 % sink + 0.6 % other); duplicated 0.3 %;
//! > timeout 0.8 %; overflow 1.1 %.

use citysee::figures::{fig9_breakdown, render_fig9_ascii, CAUSE_ORDER};
use eventlog::LossCause;
use netsim::json::ToJson;
use refill::DiagnosedCause;

const PAPER: &[(&str, f64)] = &[
    ("acked", 38.6),
    ("received", 32.2),
    ("server outage", 22.6),
    ("overflow", 1.1),
    ("timeout", 0.8),
    ("duplicated", 0.3),
];

fn main() {
    let (campaign, analysis) = bench::run_and_analyze();
    let b = fig9_breakdown(&campaign, &analysis);
    println!("Figure 9 — REFILL loss-cause breakdown (this run):");
    print!("{}", render_fig9_ascii(&b));

    println!("\npaper-vs-measured (percent of losses):");
    println!("{:>14} {:>8} {:>9}", "cause", "paper", "measured");
    for (label, paper_pct) in PAPER {
        let idx = CAUSE_ORDER
            .iter()
            .position(|c| c.label() == *label)
            .expect("known cause");
        println!("{:>14} {:>7.1}% {:>8.1}%", label, paper_pct, b.percent[idx]);
    }
    println!(
        "{:>14} {:>7.1}% {:>8.1}%",
        "received@sink", 20.0, b.received_sink_pct
    );
    println!(
        "{:>14} {:>7.1}% {:>8.1}%",
        "received@other", 12.2, b.received_other_pct
    );
    println!(
        "{:>14} {:>7.1}% {:>8.1}%",
        "acked@sink", 38.0, b.acked_sink_pct
    );
    println!(
        "{:>14} {:>7.1}% {:>8.1}%",
        "acked@other", 0.6, b.acked_other_pct
    );

    // Also report the breakdown against *truth* for calibration visibility.
    let truth = analysis.truth_cause_counts();
    let total: usize = truth.values().sum();
    println!("\nground-truth composition (calibration reference):");
    for cause in LossCause::ALL {
        let c = truth.get(&cause).copied().unwrap_or(0);
        println!(
            "{:>14} {:>8.1}%",
            cause.label(),
            100.0 * c as f64 / total.max(1) as f64
        );
    }
    let unknown = analysis
        .diagnosed_cause_counts()
        .get(&DiagnosedCause::Unknown)
        .copied()
        .unwrap_or(0);
    println!(
        "\nREFILL found causes for {:.1}% of losses ({unknown} unknown) — \
         \"REFILL finds the causes for most lost packets\"",
        100.0 * (b.lost_total.saturating_sub(unknown)) as f64 / b.lost_total.max(1) as f64
    );

    let json = b.to_json().to_pretty().expect("percentages are finite");
    bench::write_artifact("fig9_breakdown.json", &json);
}
