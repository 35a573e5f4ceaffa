//! # eventlog — events, lossy local logs, and log collection
//!
//! This crate implements the paper's data model: an event is a tuple
//! `E = (V, L, I)` — an event *type*, the *location* (node) where it was
//! recorded, and *related information* (here: the packet identity and the
//! peer node for two-party operations). Events are recorded into per-node
//! local logs whose only guaranteed property is that **each node's own
//! ordering is preserved**; timestamps are optional, unsynchronized, and
//! never relied upon by REFILL itself: the analysis groups the logs by packet
//! where they lie ([`PacketIndex::group_logs`]). [`merge_logs`] (position in
//! its own log, then node — never a clock) is the reference order for tests,
//! the conformance harness and the benchmark.
//!
//! The crate also models everything that makes real logs hard to use:
//! bounded log buffers, write failures, node reboots that truncate logs,
//! lossy in-network collection, and per-node clock skew.

pub mod checksum;
pub mod clock;
pub mod collect;
pub mod columnar;
pub mod event;
pub mod fate;
pub mod frame;
pub mod logger;
pub mod merge;
pub mod watermark;

pub use checksum::crc32;
pub use clock::ClockModel;
pub use collect::{CollectionConfig, LossyCollector};
pub use columnar::{encode_row, ColumnarIndex, EventStore};
pub use event::{Event, EventKind, PacketId, SeqNo};
pub use fate::{GroundTruth, LossCause, PacketFate, TruthEvent};
pub use frame::{FrameDecoder, FrameStats, NodeRecord};
pub use logger::{LocalLog, LocalTs, LogEntry, LoggerConfig, NodeLogger};
pub use merge::{
    merge_logs, merge_logs_kway, merge_logs_partitioned, merge_logs_store, MergedLog,
    PacketIndex,
};
pub use watermark::{Lateness, Mark};

pub use netsim::{NodeId, SimTime};
