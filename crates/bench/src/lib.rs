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

use citysee::analysis::{campaign_packets, score_visit};
use citysee::{analyze, run_scenario, Analysis, Analyzer, Campaign, Scenario};
use netsim::available_workers;
use refill::score::{CauseScore, FlowScore};
use refill::trace::ReconOptions;
use std::path::PathBuf;

/// Resolve the scenario from the environment (see module docs); an error
/// names the variable whose value is not one the module docs allow.
pub fn scenario_from_env() -> Result<Scenario, String> {
    scenario_from(|name| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned()))
}

/// [`scenario_from_env`] over the variables `var` looks up.
pub fn scenario_from(var: impl Fn(&str) -> Option<String>) -> Result<Scenario, String> {
    fn parsed<T: std::str::FromStr>(name: &str, value: &str) -> Result<T, String> {
        value
            .parse()
            .map_err(|_| format!("{name}={value:?} is not a non-negative integer"))
    }
    let mut s = match var("REFILL_SCALE").as_deref() {
        None | Some("standard") => Scenario::standard(),
        Some("small") => Scenario::small(),
        Some("paper") => Scenario::paper(),
        Some(other) => {
            return Err(format!(
                "REFILL_SCALE={other:?} is none of small, standard, paper"
            ))
        }
    };
    if let Some(seed) = var("REFILL_SEED") {
        s.seed = parsed("REFILL_SEED", &seed)?;
    }
    if let Some(nodes) = var("REFILL_NODES") {
        let v: usize = parsed("REFILL_NODES", &nodes)?;
        // Keep density constant when resizing.
        let density_side = s.side_m / (s.nodes as f64).sqrt();
        s.nodes = v;
        s.side_m = density_side * (v as f64).sqrt();
        s.validate().map_err(|e| format!("REFILL_NODES={nodes:?}: {e}"))?;
    }
    if let Some(days) = var("REFILL_DAYS") {
        s.days = parsed("REFILL_DAYS", &days)?;
        s.validate().map_err(|e| format!("REFILL_DAYS={days:?}: {e}"))?;
    }
    Ok(s)
}

/// Print `error` and end the process with status 2.
pub fn exit_with(error: &str) -> ! {
    eprintln!("[bench] {error}");
    std::process::exit(2)
}

/// One ablation variant's scores on a campaign.
#[derive(Debug, Clone, Copy)]
pub struct Ablation {
    /// Inference quality against the truth.
    pub flow: FlowScore,
    /// Diagnosis quality against the truth.
    pub cause: CauseScore,
    /// Events no transition could place, dropped from the flows.
    pub omitted: usize,
}

/// The campaign analyzed with `options`, every packet scored as
/// [`citysee::analyze`] scores it: the packets the logs mention and those
/// only the truth knows, each against its truth fate.
pub fn ablate(campaign: &Campaign, options: ReconOptions) -> Ablation {
    let truth = &campaign.sim.truth;
    let truth_rows = truth.packet_rows();
    let analyzer = Analyzer::for_campaign(campaign).with_options(options);
    let index = analyzer.index(&campaign.collected);
    let ids = campaign_packets(&index, truth);
    let scores = analyzer.pass(&index, &ids, available_workers(), |v| {
        let (flow, cause) = score_visit(truth, &truth_rows, &v);
        (flow, cause, v.report.omitted.len())
    });
    let mut out = Ablation {
        flow: FlowScore::default(),
        cause: CauseScore::default(),
        omitted: 0,
    };
    for (flow, cause, omitted) in &scores {
        out.flow.merge(flow);
        out.cause.merge(cause);
        out.omitted += omitted;
    }
    out
}

/// Run and analyze the environment-selected scenario, logging progress.
pub fn run_and_analyze() -> (Campaign, Analysis) {
    let scenario = scenario_from_env().unwrap_or_else(|e| exit_with(&e));
    run_and_analyze_scenario(&scenario)
}

/// Run and analyze `scenario`, logging progress: the campaign and analysis
/// every figure is drawn from.
pub fn run_and_analyze_scenario(scenario: &Scenario) -> (Campaign, Analysis) {
    eprintln!(
        "[bench] running scenario '{}': {} nodes, {} days (set REFILL_SCALE=small|standard|paper)",
        scenario.name, scenario.nodes, scenario.days
    );
    let t0 = std::time::Instant::now();
    let campaign = run_scenario(scenario);
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
        let s = scenario_from(|_| None).unwrap();
        assert_eq!(s.name, "citysee-standard");
    }

    /// The scenario `vars` select, or the error.
    fn from_vars(vars: &[(&str, &str)]) -> Result<Scenario, String> {
        scenario_from(|name| {
            vars.iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn every_variable_is_read_or_refused_by_name() {
        let s = from_vars(&[
            ("REFILL_SCALE", "small"),
            ("REFILL_SEED", "7"),
            ("REFILL_NODES", "30"),
            ("REFILL_DAYS", "2"),
        ])
        .unwrap();
        assert_eq!(
            (s.name.as_str(), s.seed, s.nodes, s.days),
            ("citysee-small", 7, 30, 2)
        );
        for (name, value) in [
            ("REFILL_SCALE", "huge"),
            ("REFILL_SEED", "x"),
            ("REFILL_NODES", "-3"),
            ("REFILL_NODES", "0"),
            ("REFILL_NODES", "70000"),
            ("REFILL_DAYS", "1O"),
            ("REFILL_DAYS", "0"),
        ] {
            let error = from_vars(&[(name, value)]).unwrap_err();
            assert!(error.starts_with(name), "{name}={value}: {error}");
        }
    }

    /// The ablation's full row is the analysis: same packets, same scores.
    #[test]
    fn the_full_ablation_row_is_the_analysis() {
        // Lossy enough that some packets reach no collected log.
        let mut scenario = Scenario::small();
        scenario.collection.chunk_loss_prob = 0.30;
        scenario.collection.whole_log_loss_prob = 0.05;
        let campaign = run_scenario(&scenario);
        let analysis = analyze(&campaign);
        let full = ablate(&campaign, ReconOptions::default());
        assert_eq!(full.flow, analysis.flow_score);
        assert_eq!(full.cause, analysis.cause_score);
    }

    #[test]
    fn artifacts_roundtrip() {
        std::env::set_var("REFILL_RESULTS", std::env::temp_dir().join("refill-test-results"));
        let p = write_artifact("probe.txt", "hello");
        assert!(p.is_file());
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "hello");
    }
}
