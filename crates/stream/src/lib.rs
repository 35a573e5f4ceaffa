//! # refill-stream — online ingestion for REFILL
//!
//! The paper's pipeline is batch: collect every log, merge, reconstruct.
//! This crate makes it *online*, in three layers:
//!
//! 1. **Wire codec** (in `eventlog::frame`, consumed here): per-node log
//!    records travel as versioned, length-prefixed, CRC-checked frames; a
//!    resynchronizing decoder survives garbage, bit rot and mid-stream
//!    joins, counting each maximal corrupt run once.
//! 2. **[`StreamReconstructor`]**: per-node lanes that batch absorption
//!    (a full lane stalls and pumps them all), per-node low-watermarks over
//!    the nodes' *own* clocks, and packet windows that close when every
//!    contributing node has moved past its last contribution and every
//!    peer the window's events name has moved past the moment it was named
//!    (in its own clock, through pairwise offsets learned from the flows),
//!    so a packet is closed about once. A window
//!    keeps its events in arrival order, which keeps each node's order —
//!    all the kernel reads — and a record for a closed window reopens it,
//!    so every close is the batch answer over what was absorbed and
//!    `finish()` is the batch answer over everything ingested, however it
//!    was interleaved (one record per packet, one reconstruction per close;
//!    `finish()` is re-enterable).
//! 3. **The driver**: [`run_stream`] pairs an ingest worker (decode) with
//!    the reconstruction loop over a bounded `std::sync::mpsc` channel;
//!    [`run_stream_observed`] is the same loop with a hook called record by
//!    record (a [`MetricsCadence`]).
//!
//! Everything is observable through the shared telemetry recorder: frames
//! decoded/corrupt, records, backpressure stalls, windows closed, late
//! reopens, and the decode/window stage timings.

pub mod driver;
pub mod reconstructor;

pub use driver::{run_stream, run_stream_observed, DriverConfig, MetricsCadence, StreamSummary};
pub use reconstructor::{StreamReconstructor, StreamStats};
