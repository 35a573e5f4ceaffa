//! The persisted report form.
//!
//! A [`ReportRow`] stores a report the way the signature cache holds one:
//! as a node-abstract [`ReportTemplate`] plus the rename vector mapping
//! canonical node indices back to real node ids. Rehydration is exact —
//! [`ReportRow::report`] returns a [`PacketReport`] equal to the one the
//! row was built from (property-tested in `crates/core`), so persisting
//! reports loses nothing while deduplicating the heavy per-flow structure
//! across packets that share a flow shape.
//!
//! The optional [`Sidecar`] carries the analysis-side context a CitySee
//! `PacketRecord` adds on top of the report — the source-view time
//! estimate, the diagnosis, and (when the store was built from a
//! simulation) the ground-truth fate — which is exactly what the figure
//! extractors need, so `refill query --fig N` reproduces the analysis
//! tables byte-for-byte without re-running reconstruction.

use eventlog::{PacketFate, PacketId};
use netsim::{NodeId, SimTime};
use refill::diagnose::Diagnosis;
use refill::{PacketReport, ReportTemplate};

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
    /// The packet the report describes.
    pub packet: PacketId,
    /// Rename vector: canonical node index → real node id.
    pub nodes: Vec<NodeId>,
    /// The node-abstract report body.
    pub template: ReportTemplate,
    /// Optional analysis context.
    pub sidecar: Option<Sidecar>,
}

netsim::json_struct!(ReportRow {
    packet,
    nodes,
    template,
    sidecar
});

impl ReportRow {
    /// Abstract `report` into its persisted form.
    pub fn from_report(report: &PacketReport, sidecar: Option<Sidecar>) -> ReportRow {
        let (template, nodes) = ReportTemplate::abstract_report(report);
        ReportRow {
            packet: report.packet,
            nodes,
            template,
            sidecar,
        }
    }

    /// Rehydrate the exact original report.
    pub fn report(&self) -> PacketReport {
        self.template.rehydrate(self.packet, &self.nodes)
    }
}
