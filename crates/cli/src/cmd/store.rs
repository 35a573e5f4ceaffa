//! `refill store`.

use super::{build_analyzer, load_input, scenario_from_flags, FlagSpec, Flags};
use citysee::analysis::{campaign_packets, truth_fate, Analyzer};
use citysee::run_scenario;
use netsim::available_workers;
use netsim::json::ToJson;
use refill_store::{ReportRow, SegmentStore, Sidecar};
use std::fmt::Write as _;
use std::path::PathBuf;

pub(super) const FLAGS: FlagSpec = FlagSpec {
    cmd: "store",
    values: &["out", "scale", "seed", "logs", "sink", "period"],
    switches: &["compact"],
};

/// `refill store`, printing.
pub fn store(args: &[String]) -> Result<(), String> {
    print!("{}", store_cmd_inner(args)?);
    Ok(())
}

/// `refill store`, returning the printed output (testable): persist a
/// run's merged events and reconstructed reports (with diagnosis
/// sidecars) into a durable segment store. Without `--logs` a scenario is
/// simulated first and the sidecars carry ground-truth fates; with
/// `--logs` an archive is reconstructed and diagnosed (no truth).
pub fn store_cmd_inner(args: &[String]) -> Result<String, String> {
    let flags = Flags::parse(args, &FLAGS)?;
    let out_dir = PathBuf::from(flags.get("out").ok_or("--out is required")?);

    // What the two modes differ in: whose logs, which analyzer, and
    // whether there is a truth to take packets and fates from.
    let (logs, analyzer, truth, scenario_json) = if flags.get("logs").is_some() {
        let input = load_input(&flags)?;
        let analyzer = build_analyzer(&flags, &input, &None)?;
        (input.logs, analyzer, None, None)
    } else {
        // Simulation mode: scenario.json rides along so
        // `query --fig fig8` can rebuild the topology.
        let scenario = scenario_from_flags(&flags)?;
        eprintln!(
            "simulating and analyzing '{}' (seed {})…",
            scenario.name, scenario.seed
        );
        let campaign = run_scenario(&scenario);
        let analyzer = Analyzer::for_campaign(&campaign);
        let json = scenario.to_json().to_pretty().map_err(|e| e.to_string())?;
        (
            campaign.collected,
            analyzer,
            Some(campaign.sim.truth),
            Some(json),
        )
    };
    let index = analyzer.index(&logs);
    let ids = match &truth {
        Some(truth) => campaign_packets(&index, truth),
        None => index.ids().to_vec(),
    };
    let report_rows = analyzer.pass(&index, &ids, available_workers(), |v| {
        let sidecar = Sidecar {
            est_time: v.est_time,
            diagnosis: v.diagnosis,
            fate: truth.as_ref().map(|truth| truth_fate(truth, v.report.packet)),
        };
        ReportRow::from_report(v.report, Some(sidecar))
    });

    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let (st, recovery) = SegmentStore::open(&out_dir).map_err(|e| e.to_string())?;
    let mut st = st;
    // The event rows are appended in the merge's order: the segments' bytes
    // and row order stay what earlier builds wrote.
    let event_rows = eventlog::merge_logs_store(&logs);
    for chunk in event_rows.entries().chunks(4096) {
        st.append_events(chunk).map_err(|e| e.to_string())?;
    }
    for chunk in report_rows.chunks(512) {
        st.append_reports(chunk).map_err(|e| e.to_string())?;
    }
    st.sync().map_err(|e| e.to_string())?;
    if let Some(json) = scenario_json {
        std::fs::write(out_dir.join("scenario.json"), json).map_err(|e| e.to_string())?;
    }

    let mut out = String::new();
    if recovery.torn_bytes > 0 || recovery.pruned_files > 0 {
        let _ = writeln!(
            out,
            "recovered existing store ({} torn bytes truncated, {} stray files pruned)",
            recovery.torn_bytes, recovery.pruned_files
        );
    }
    let _ = writeln!(
        out,
        "store {} holds {} event rows and {} report rows in {} segments",
        out_dir.display(),
        st.total_events(),
        st.total_reports(),
        st.segments().len()
    );
    if flags.has("compact") {
        let report = st.compact().map_err(|e| e.to_string())?;
        let _ = writeln!(
            out,
            "compacted {} segments into 1 ({} superseded reports dropped)",
            report.merged_segments, report.dropped_reports
        );
    }
    let _ = writeln!(
        out,
        "next: refill query --store {} [--fig fig4|fig5|fig8]",
        out_dir.display()
    );
    Ok(out)
}
