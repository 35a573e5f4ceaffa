//! A stored report row is the report: over a CitySee campaign, every row
//! read back from a reopened store equals the row it was appended as, and
//! the report in it the report reconstruction returned.

use citysee::{run_scenario, Analyzer, Scenario};
use refill::parallel::available_workers;
use refill::PacketReport;
use refill_store::{segment, ReportRow, SegmentStore, Sidecar};

#[test]
fn every_row_read_back_equals_the_report_it_was_built_from() {
    let campaign = run_scenario(&Scenario::small());
    let analyzer = Analyzer::for_campaign(&campaign);
    let index = campaign.merged.packet_rows();
    let events = &campaign.merged.events;
    let visited: Vec<(PacketReport, Sidecar)> =
        analyzer.pass(events, &index, index.ids(), available_workers(), |v| {
            let sidecar = Sidecar {
                est_time: v.est_time,
                diagnosis: v.diagnosis,
                fate: None,
            };
            (v.report.clone(), sidecar)
        });
    assert!(visited.len() > 1_000, "{} packets", visited.len());
    let rows: Vec<ReportRow> = visited
        .iter()
        .map(|(report, sidecar)| ReportRow::from_report(report, Some(sidecar.clone())))
        .collect();

    let dir = std::env::temp_dir().join(format!("refill-store-rows-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let (mut store, _) = SegmentStore::open(&dir).unwrap();
        for chunk in rows.chunks(512) {
            store.append_reports(chunk).unwrap();
        }
        store.sync().unwrap();
    }
    let (store, recovery) = SegmentStore::open(&dir).unwrap();
    assert_eq!(recovery.torn_bytes, 0);
    let stored = store.reports().unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(stored.len(), visited.len());
    for (row, (report, sidecar)) in stored.iter().zip(&visited) {
        assert_eq!(&row.report, report);
        assert_eq!(row.sidecar.as_ref(), Some(sidecar));
    }
    // What the rows cost on disk (results/bench/PR-24.md quotes it).
    let payload: usize = rows
        .chunks(512)
        .map(|chunk| segment::encode_reports(chunk).unwrap().len())
        .sum();
    println!("{} report rows, {payload} bytes of report blocks", rows.len());
}
