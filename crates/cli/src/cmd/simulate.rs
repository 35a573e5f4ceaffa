//! `refill simulate`.

use super::{scenario_from_flags, write_logs, FlagSpec, Flags};
use citysee::figures::{fig9_breakdown, render_fig9_ascii};
use citysee::{analyze, run_scenario};
use netsim::json::{Json, ToJson};
use std::path::PathBuf;

pub(super) const FLAGS: FlagSpec = FlagSpec {
    cmd: "simulate",
    values: &["scale", "seed", "out"],
    switches: &[],
};

/// `refill simulate`.
pub fn simulate(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &FLAGS)?;
    let scenario = scenario_from_flags(&flags)?;
    let out = PathBuf::from(flags.get("out").unwrap_or("refill-run"));
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;

    eprintln!(
        "simulating '{}' ({} nodes, {} days, seed {})…",
        scenario.name, scenario.nodes, scenario.days, scenario.seed
    );
    let campaign = run_scenario(&scenario);

    // The collected logs, as the base station would receive them.
    let logs_path = write_logs(&out, &campaign)?;

    // Scenario (for reproducibility) and a truth summary (for reference).
    std::fs::write(
        out.join("scenario.json"),
        scenario.to_json().to_pretty().map_err(|e| e.to_string())?,
    )
    .map_err(|e| e.to_string())?;
    let losses_by_cause: std::collections::BTreeMap<_, _> = campaign
        .sim
        .truth
        .losses_by_cause()
        .into_iter()
        .map(|(k, v)| (k.label(), v))
        .collect();
    let summary = Json::obj([
        ("generated", campaign.sim.truth.packet_count().to_json()),
        (
            "delivered",
            campaign.sim.counters.get("delivered").to_json(),
        ),
        (
            "delivery_ratio",
            campaign.sim.truth.delivery_ratio().to_json(),
        ),
        (
            "losses_by_cause",
            Json::Obj(
                losses_by_cause
                    .into_iter()
                    .map(|(k, v)| (k.into(), v.to_json()))
                    .collect(),
            ),
        ),
        ("sink", campaign.topology.sink().to_json()),
        (
            "packet_period_secs",
            scenario.packet_interval().as_secs().to_json(),
        ),
    ]);
    std::fs::write(
        out.join("truth_summary.json"),
        summary.to_pretty().map_err(|e| e.to_string())?,
    )
    .map_err(|e| e.to_string())?;

    println!(
        "wrote {} ({} log entries from {} nodes), scenario.json, truth_summary.json",
        logs_path.display(),
        campaign.collected.iter().map(|l| l.len()).sum::<usize>(),
        campaign.collected.len(),
    );
    println!(
        "next: refill analyze --logs {} --sink {} --period {}",
        logs_path.display(),
        campaign.topology.sink().0,
        scenario.packet_interval().as_secs()
    );

    // Also run the built-in analysis so the user sees the headline.
    let analysis = analyze(&campaign);
    println!();
    print!("{}", render_fig9_ascii(&fig9_breakdown(&campaign, &analysis)));
    Ok(())
}
