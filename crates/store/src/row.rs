//! The persisted report form.
//!
//! A [`ReportRow`] is the report itself, written with the JSON
//! [`PacketReport`] already has and read back through its validating
//! `FromJson`: what a row holds after a round trip equals what it was built
//! from.
//!
//! The optional [`Sidecar`] carries the analysis-side context a CitySee
//! `PacketRecord` adds on top of the report — the source-view time
//! estimate, the diagnosis, and (when the store was built from a
//! simulation) the ground-truth fate — which is exactly what the figure
//! extractors need, so `refill query --fig N` reproduces the analysis
//! tables byte-for-byte without re-running reconstruction.

use eventlog::PacketFate;
use netsim::SimTime;
use refill::diagnose::Diagnosis;
use refill::PacketReport;
use std::collections::BTreeMap;

/// Analysis context persisted next to a report.
#[derive(Debug, Clone, PartialEq)]
pub struct Sidecar {
    /// Source-view time estimate (back-dated from sequence gaps).
    pub est_time: Option<SimTime>,
    /// REFILL's diagnosis of the packet.
    pub diagnosis: Diagnosis,
    /// Ground truth, when the store was built from a simulation. Stores
    /// built from collected logs alone cannot know this.
    pub fate: Option<PacketFate>,
}

netsim::json_struct!(Sidecar {
    est_time,
    diagnosis,
    fate
});

/// One persisted report.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportRow {
    /// The report, as reconstruction returned it.
    pub report: PacketReport,
    /// Optional analysis context.
    pub sidecar: Option<Sidecar>,
}

netsim::json_struct!(ReportRow { report, sidecar });

impl ReportRow {
    /// A row holding a copy of `report`.
    pub fn from_report(report: &PacketReport, sidecar: Option<Sidecar>) -> ReportRow {
        ReportRow {
            report: report.clone(),
            sidecar,
        }
    }
}

/// The latest of `rows` per packet (append order is emission order, so the
/// last wins), sorted by packet id — the converged view a completed run
/// leaves behind.
pub fn latest_per_packet(rows: impl IntoIterator<Item = ReportRow>) -> Vec<ReportRow> {
    let mut latest = BTreeMap::new();
    for row in rows {
        latest.insert(row.report.packet, row);
    }
    latest.into_values().collect()
}
