//! `refill store`.

use super::{build_analyzer, load_input, scenario_from_flags, FlagSpec, Flags};
use citysee::analysis::{campaign_packets, truth_fate, Analyzer, Visit};
use citysee::run_scenario;
use eventlog::{EventStore, PackedEvent, PacketFate};
use netsim::json::ToJson;
use refill::parallel::available_workers;
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

/// One visited packet as a stored report row with its diagnosis sidecar.
fn report_row(v: Visit<'_>, fate: Option<PacketFate>) -> ReportRow {
    let sidecar = Sidecar {
        est_time: v.est_time,
        diagnosis: v.diagnosis,
        fate,
    };
    ReportRow::from_report(v.report, Some(sidecar))
}

/// The packed, time-merged event rows of a run.
fn event_rows(columns: &EventStore) -> Vec<(PackedEvent, u64)> {
    let timestamps = columns.ts_column().iter().copied();
    columns.records().iter().copied().zip(timestamps).collect()
}

/// `refill store`, returning the printed output (testable): persist a
/// run's merged events and reconstructed reports (with diagnosis
/// sidecars) into a durable segment store. Without `--logs` a scenario is
/// simulated first and the sidecars carry ground-truth fates; with
/// `--logs` an archive is reconstructed and diagnosed (no truth).
pub fn store_cmd_inner(args: &[String]) -> Result<String, String> {
    let flags = Flags::parse(args, &FLAGS)?;
    let out_dir = PathBuf::from(flags.get("out").ok_or("--out is required")?);

    let (event_rows, report_rows, scenario_json) = if flags.get("logs").is_some() {
        let input = load_input(&flags)?;
        let analyzer = build_analyzer(&flags, &input, &None)?;
        let columns = eventlog::merge_logs_store(&input.logs);
        let index = columns.to_merged().packet_index();
        let rows = analyzer.pass(&index, index.ids(), available_workers(), |v| {
            report_row(v, None)
        });
        (event_rows(&columns), rows, None)
    } else {
        // Simulation mode: scenario.json rides along so
        // `query --fig fig8` can rebuild the topology.
        let scenario = scenario_from_flags(&flags)?;
        eprintln!(
            "simulating and analyzing '{}' (seed {})…",
            scenario.name, scenario.seed
        );
        let campaign = run_scenario(&scenario);
        let truth = &campaign.sim.truth;
        let analyzer = Analyzer::for_campaign(&campaign);
        let index = campaign.merged.packet_index();
        let ids = campaign_packets(&index, truth);
        let rows = analyzer.pass(&index, &ids, available_workers(), |v| {
            let fate = truth_fate(truth, v.report.packet);
            report_row(v, Some(fate))
        });
        let columns = eventlog::merge_logs_store(&campaign.collected);
        let json = scenario.to_json().to_pretty().map_err(|e| e.to_string())?;
        (event_rows(&columns), rows, Some(json))
    };

    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let (st, recovery) = SegmentStore::open(&out_dir).map_err(|e| e.to_string())?;
    let mut st = st;
    for chunk in event_rows.chunks(4096) {
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
