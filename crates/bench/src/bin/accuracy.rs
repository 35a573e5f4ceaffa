//! Accuracy sweep (extension experiment): how REFILL's inference and
//! diagnosis degrade with log loss, against the baselines.
//!
//! The paper could not score itself (no ground truth in a real deployment);
//! the simulation substrate can. We sweep the collection chunk-loss
//! probability and report, per level: inferred-event precision/recall,
//! cause and position accuracy, and the baselines' accuracy on the same
//! inputs.

use citysee::{analyze, run_scenario, Scenario};
use eventlog::collect::CollectionConfig;

fn main() {
    let mut scenario = bench::scenario_from_env().unwrap_or_else(|e| bench::exit_with(&e));
    // Accuracy sweeps are heavy; default to fewer days unless pinned.
    if std::env::var("REFILL_DAYS").is_err() {
        scenario.days = scenario.days.min(10);
    }
    let levels = [0.0, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8];
    let mut csv = String::from(
        "chunk_loss,precision,recall,cause_acc,position_acc,delivery_acc,path_prefix,\
         naive_position_acc,correlation_cause_acc\n",
    );
    println!(
        "{:>10} {:>9} {:>7} {:>9} {:>9} {:>9} {:>9} {:>11} {:>11}",
        "chunk_loss",
        "precision",
        "recall",
        "cause",
        "position",
        "delivery",
        "path",
        "naive(pos)",
        "corr(cause)"
    );
    for &loss in &levels {
        let s = Scenario {
            collection: CollectionConfig {
                whole_log_loss_prob: 0.01,
                chunk_entries: 8,
                chunk_loss_prob: loss,
            },
            ..scenario.clone()
        };
        let campaign = run_scenario(&s);
        let a = analyze(&campaign);
        let naive_acc = if a.naive.true_losses == 0 {
            1.0
        } else {
            a.naive.position_correct as f64 / a.naive.true_losses as f64
        };
        let corr_acc = if a.correlation.total == 0 {
            1.0
        } else {
            a.correlation.cause_correct as f64 / a.correlation.total as f64
        };
        println!(
            "{:>10.2} {:>9.3} {:>7.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>11.3} {:>11.3}",
            loss,
            a.flow_score.precision(),
            a.flow_score.recall(),
            a.cause_score.cause_accuracy(),
            a.cause_score.position_accuracy(),
            a.cause_score.delivery_accuracy(),
            a.path_score.prefix_coverage(),
            naive_acc,
            corr_acc,
        );
        csv.push_str(&format!(
            "{:.2},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4}\n",
            loss,
            a.flow_score.precision(),
            a.flow_score.recall(),
            a.cause_score.cause_accuracy(),
            a.cause_score.position_accuracy(),
            a.cause_score.delivery_accuracy(),
            a.path_score.prefix_coverage(),
            naive_acc,
            corr_acc,
        ));
    }
    bench::write_artifact("accuracy_sweep.csv", &csv);
    println!("\nWit-style merging on local logs is always fully disconnected (see `ablation`).");
}
