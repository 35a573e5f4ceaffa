//! Shared plumbing for the figure-regeneration binaries and benches.
//!
//! Every `figN`/`tableN` binary runs a CitySee campaign, applies REFILL,
//! prints the figure's data (ASCII summary to stdout) and writes CSVs under
//! `results/`. The campaign scale is controlled by environment variables so
//! the same binaries serve quick checks and paper-scale runs:
//!
//! * `REFILL_SCALE` — `small` | `standard` (default) | `paper`
//! * `REFILL_SEED` — override the master seed
//! * `REFILL_NODES`, `REFILL_DAYS` — override individual dimensions

use citysee::{analyze, run_scenario, Analysis, Campaign, Scenario};
use std::path::PathBuf;

/// Resolve the scenario from the environment (see module docs).
pub fn scenario_from_env() -> Scenario {
    let mut s = match std::env::var("REFILL_SCALE").as_deref() {
        Ok("small") => Scenario::small(),
        Ok("paper") => Scenario::paper(),
        _ => Scenario::standard(),
    };
    if let Ok(seed) = std::env::var("REFILL_SEED") {
        if let Ok(v) = seed.parse() {
            s.seed = v;
        }
    }
    if let Ok(nodes) = std::env::var("REFILL_NODES") {
        if let Ok(v) = nodes.parse::<usize>() {
            // Keep density constant when resizing.
            let density_side = s.side_m / (s.nodes as f64).sqrt();
            s.nodes = v;
            s.side_m = density_side * (v as f64).sqrt();
        }
    }
    if let Ok(days) = std::env::var("REFILL_DAYS") {
        if let Ok(v) = days.parse() {
            s.days = v;
        }
    }
    s
}

/// Run and analyze the environment-selected scenario, logging progress.
pub fn run_and_analyze() -> (Campaign, Analysis) {
    let scenario = scenario_from_env();
    eprintln!(
        "[bench] running scenario '{}': {} nodes, {} days (set REFILL_SCALE=small|standard|paper)",
        scenario.name, scenario.nodes, scenario.days
    );
    let t0 = std::time::Instant::now();
    let campaign = run_scenario(&scenario);
    eprintln!(
        "[bench] simulated {} packets, {} events in {:.1?}",
        campaign.sim.counters.get("generated"),
        campaign.sim.truth.events.len(),
        t0.elapsed()
    );
    let t1 = std::time::Instant::now();
    let analysis = analyze(&campaign);
    eprintln!(
        "[bench] analyzed {} packets in {:.1?}",
        analysis.records.len(),
        t1.elapsed()
    );
    (campaign, analysis)
}

/// The output directory for CSV artifacts (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("REFILL_RESULTS").unwrap_or_else(|_| "results".into());
    let p = PathBuf::from(dir);
    std::fs::create_dir_all(&p).expect("create results dir");
    p
}

/// Write a text artifact and echo its path.
pub fn write_artifact(name: &str, contents: &str) -> PathBuf {
    let path = results_dir().join(name);
    std::fs::write(&path, contents).expect("write artifact");
    eprintln!("[bench] wrote {}", path.display());
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scenario_is_standard() {
        // Only valid when env overrides are absent; guard accordingly.
        if std::env::var("REFILL_SCALE").is_err() && std::env::var("REFILL_NODES").is_err() {
            let s = scenario_from_env();
            assert_eq!(s.name, "citysee-standard");
        }
    }

    #[test]
    fn artifacts_roundtrip() {
        std::env::set_var("REFILL_RESULTS", std::env::temp_dir().join("refill-test-results"));
        let p = write_artifact("probe.txt", "hello");
        assert!(p.is_file());
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "hello");
    }
}
