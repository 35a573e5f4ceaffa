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
use eventlog::logger::{LocalLog, LogEntry};
use eventlog::{Event, EventKind, PacketId};
use netsim::NodeId;
use std::path::{Path, PathBuf};

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

/// K sorted per-node logs totalling ~`total` events — the merge fan-in
/// shape of a CitySee deployment (K nodes reporting one interleaved day).
/// Each log is sorted by `local_ts` with a deterministic per-node phase,
/// so timestamps interleave densely across logs and collide across nodes,
/// which is the worst case for merge tie-breaking and the intended case
/// for time partitioning.
pub fn synth_merge_logs(k: usize, total: usize) -> Vec<LocalLog> {
    let per = total / k.max(1);
    (0..k)
        .map(|i| {
            let node = NodeId(i as u16 + 1);
            LocalLog {
                node,
                entries: (0..per)
                    .map(|j| LogEntry {
                        event: Event::new(node, EventKind::Origin, PacketId::new(node, j as u32)),
                        local_ts: Some(j as u64 * 1_000 + (i as u64 * 37) % 1_000),
                    })
                    .collect(),
            }
        })
        .collect()
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

/// True when a file exists (test helper).
pub fn artifact_exists(path: &Path) -> bool {
    path.is_file()
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
    fn synth_merge_logs_are_sorted_and_merge_identically() {
        let logs = synth_merge_logs(7, 700);
        assert_eq!(logs.len(), 7);
        for l in &logs {
            assert!(l.entries.windows(2).all(|w| w[0].local_ts <= w[1].local_ts));
        }
        let seq = eventlog::merge_logs_kway(&logs).events;
        assert_eq!(eventlog::merge_logs(&logs).events, seq);
        assert_eq!(eventlog::merge_logs_partitioned(&logs, 4).events, seq);
    }

    #[test]
    fn artifacts_roundtrip() {
        std::env::set_var("REFILL_RESULTS", std::env::temp_dir().join("refill-test-results"));
        let p = write_artifact("probe.txt", "hello");
        assert!(artifact_exists(&p));
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "hello");
    }
}
