//! # citysee — the CitySee-like deployment scenario
//!
//! Reconstructs the evaluation environment of Section V: an urban
//! CO₂-monitoring network (1,200 nodes in the paper; scale is a knob here)
//! running for 30 days with the named fault processes —
//!
//! * the sink's unstable RS232 wiring (elevated acked/received losses at
//!   the sink) **fixed on day 23**,
//! * **snow on days 9–10** degrading link quality network-wide,
//! * **base-station server outages** (22.6 % of the paper's losses),
//! * localized interference bursts (the bursty timeout/duplicate ellipses
//!   of Figure 5).
//!
//! [`scenario`] builds the simulator inputs, [`run`] executes a campaign
//! (simulate → lossy log collection → merge), [`analysis`] holds the one
//! analyzer every path from logs to diagnosed reports runs and applies it and
//! the baselines to a campaign, and [`figures`] extracts the data series
//! behind every figure of the paper.

pub mod analysis;
pub mod figures;
pub mod report;
pub mod run;
pub mod scenario;

pub use analysis::{analyze, Analysis, Analyzer, PacketRecord};
pub use report::render_management_report;
pub use run::{run_scenario, Campaign};
pub use scenario::Scenario;
