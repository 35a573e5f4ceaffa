//! Ablation study: what each piece of REFILL contributes.
//!
//! DESIGN.md calls out the two derived mechanisms — *intra-node jump
//! transitions* and *inter-node prerequisite rules* — as the paper's core
//! contributions over a plain per-node FSM replay. This binary re-analyzes
//! one campaign with each mechanism disabled and reports the damage, plus
//! the Wit merge outcome (Section VI's motivating comparison).

use baselines::wit::wit_merge;
use bench::ablate;
use citysee::run_scenario;
use refill::trace::ReconOptions;

fn main() {
    let mut scenario = bench::scenario_from_env().unwrap_or_else(|e| bench::exit_with(&e));
    if std::env::var("REFILL_DAYS").is_err() {
        scenario.days = scenario.days.min(10);
    }
    let campaign = run_scenario(&scenario);

    let variants = [
        ("full REFILL", ReconOptions { intra_jumps: true, inter_rules: true }),
        ("no inter-node rules", ReconOptions { intra_jumps: true, inter_rules: false }),
        ("no intra-node jumps", ReconOptions { intra_jumps: false, inter_rules: true }),
        ("plain FSM replay", ReconOptions { intra_jumps: false, inter_rules: false }),
    ];

    let mut csv = String::from(
        "variant,inferred,recall,precision,cause_acc,position_acc,omitted\n",
    );
    println!(
        "{:<22} {:>9} {:>7} {:>9} {:>9} {:>9} {:>8}",
        "variant", "inferred", "recall", "precision", "cause", "position", "omitted"
    );
    for (name, options) in variants {
        let bench::Ablation { flow, cause, omitted } = ablate(&campaign, options);
        println!(
            "{:<22} {:>9} {:>7.3} {:>9.3} {:>9.3} {:>9.3} {:>8}",
            name,
            flow.inferred,
            flow.recall(),
            flow.precision(),
            cause.cause_accuracy(),
            cause.position_accuracy(),
            omitted,
        );
        csv.push_str(&format!(
            "{name},{},{:.4},{:.4},{:.4},{:.4},{}\n",
            flow.inferred,
            flow.recall(),
            flow.precision(),
            cause.cause_accuracy(),
            cause.position_accuracy(),
            omitted,
        ));
    }
    bench::write_artifact("ablation.csv", &csv);

    // Wit comparison (Section VI): local logs share no common events.
    let wit = wit_merge(&campaign.collected);
    println!(
        "\nWit-style merge: {} logs → {} components ({} mergeable pairs) — \
         local logs cannot be combined by common events",
        wit.log_count,
        wit.components.len(),
        wit.merged_pair_fraction()
    );
}
