//! # refill-stream — online ingestion for REFILL
//!
//! The paper's pipeline is batch: collect every log, merge, reconstruct.
//! This crate makes it *online*, in three layers:
//!
//! 1. **Wire codec** (in `eventlog::frame`, consumed here): per-node log
//!    records travel as versioned, length-prefixed, CRC-checked frames; a
//!    resynchronizing decoder survives garbage, bit rot and mid-stream
//!    joins, counting each maximal corrupt run once.
//! 2. **[`StreamReconstructor`]**: each record absorbed as it is ingested,
//!    per-node low-watermarks over the nodes' *own* clocks, and packet
//!    windows that close when every contributing node has moved past its
//!    last contribution and every peer the window's events name has moved
//!    past the moment it was named (in its own clock, through pairwise
//!    offsets learned from the flows), so a packet is closed about once. A
//!    sweep tests only the windows whose one watched condition can have
//!    come true since — per-node wake-up queues in the node table, not a
//!    scan of every open window. A window keeps its events in arrival
//!    order, which keeps each node's order — all the kernel reads — and a
//!    record for a closed window reopens it,
//!    so every close is the batch answer over what was absorbed and
//!    `finish()` is the batch answer over everything ingested, however it
//!    was interleaved (one record per packet, one reconstruction per close;
//!    `finish()` is re-enterable).
//! 3. **The driver**: [`run_stream`] pairs an ingest worker (decode) with
//!    the reconstruction loop over a bounded `std::sync::mpsc` channel;
//!    [`run_stream_observed`] is the same loop with a hook called record by
//!    record (a [`MetricsCadence`]). Its one cadence is
//!    [`DriverConfig::poll_every`]: a sweep after that many records.
//!
//! Everything is observable through the shared telemetry recorder: frames
//! decoded/corrupt, records, channel-full stalls, windows closed, late
//! reopens, and the decode/window stage timings.

pub mod driver;
pub mod reconstructor;

/// The record streams `tests/stream_identity.rs` pins, for the unit tests
/// that check every sweep against a scan.
#[cfg(test)]
#[path = "../tests/soup/mod.rs"]
mod soup;

pub use driver::{run_stream, run_stream_observed, DriverConfig, MetricsCadence, StreamSummary};
pub use reconstructor::{StreamReconstructor, StreamStats};
