//! End-to-end figure identity: persist a CitySee campaign's events and
//! reports (with diagnosis sidecars) into a segment store, reopen it, and
//! rebuild Figures 4, 5 and 8 purely from the stored rows — the CSVs must
//! be byte-for-byte identical to the ones computed from the in-memory
//! analysis. Also pins the template round trip on real reconstructed
//! flows: every stored report rehydrates to exactly the report it came
//! from.

use citysee::figures::{
    fig4_from_records, fig4_source_view, fig5_from_records, fig5_loss_positions,
    fig8_from_records, fig8_spatial_received, render_fig8_csv, render_loss_points_csv,
};
use citysee::{analyze, run_scenario, PacketRecord, Scenario};
use eventlog::merge::merge_logs_store;
use eventlog::PacketFate;
use netsim::SimTime;
use refill::{CtpVocabulary, Reconstructor};
use refill_store::{ReportRow, SegmentStore, Sidecar};
use std::path::PathBuf;

struct TempDir(PathBuf);

impl TempDir {
    fn new() -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "refill-store-figures-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn figures_from_store_match_in_memory_analysis_byte_for_byte() {
    let scenario = Scenario::small();
    let campaign = run_scenario(&scenario);
    let analysis = analyze(&campaign);

    // Rebuild each record's report the same way the analysis did (same
    // vocabulary, same sink), and persist it with its diagnosis sidecar.
    let (_, _, _, config) = scenario.build();
    let recon = Reconstructor::new(CtpVocabulary {
        log_origin: config.log_origin,
        log_enqueue: config.log_enqueue,
    })
    .with_sink(campaign.topology.sink());
    let index = campaign.merged.packet_index();
    let rows: Vec<ReportRow> = analysis
        .records
        .iter()
        .map(|r| {
            let events = index.get(r.packet).unwrap_or(&[]);
            let report = recon.reconstruct_packet(r.packet, events);
            let row = ReportRow::from_report(
                &report,
                Some(Sidecar {
                    est_time: r.est_time,
                    diagnosis: r.diagnosis.clone(),
                    fate: Some(r.fate),
                }),
            );
            assert_eq!(
                row.report,
                report,
                "a row holds the report it was built from"
            );
            row
        })
        .collect();

    let columns = merge_logs_store(&campaign.collected);
    let event_rows = columns.entries();

    let tmp = TempDir::new();
    let (store, _) = SegmentStore::open(&tmp.0).unwrap();
    let mut store = store;
    store.append_events(event_rows).unwrap();
    store.append_reports(&rows).unwrap();
    store.sync().unwrap();
    drop(store);

    // Reopen cold, as `refill query` would, and rebuild the per-packet
    // records from sidecars alone.
    let (store, _) = SegmentStore::open(&tmp.0).unwrap();
    let stored: Vec<PacketRecord> = store
        .latest_reports()
        .unwrap()
        .into_iter()
        .map(|row| {
            let sidecar = row.sidecar.expect("rows were stored with sidecars");
            PacketRecord {
                packet: row.report.packet,
                est_time: sidecar.est_time,
                diagnosis: sidecar.diagnosis,
                fate: sidecar
                    .fate
                    .unwrap_or(PacketFate::Delivered { at: SimTime::ZERO }),
            }
        })
        .collect();

    assert_eq!(
        render_loss_points_csv(&fig4_from_records(&stored)),
        render_loss_points_csv(&fig4_source_view(&analysis)),
        "Figure 4 from the store must match the in-memory analysis"
    );
    assert_eq!(
        render_loss_points_csv(&fig5_from_records(&stored)),
        render_loss_points_csv(&fig5_loss_positions(&analysis)),
        "Figure 5 from the store must match the in-memory analysis"
    );
    assert_eq!(
        render_fig8_csv(&fig8_from_records(&stored, &campaign.topology)),
        render_fig8_csv(&fig8_spatial_received(&campaign, &analysis)),
        "Figure 8 from the store must match the in-memory analysis"
    );

    // The stored event rows survive byte-identically too.
    assert_eq!(store.events().unwrap(), event_rows);
}
