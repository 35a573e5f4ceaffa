//! # netsim — discrete-event simulation substrate
//!
//! A deterministic discrete-event simulation kernel plus the physical-world
//! models (node placement, radio link quality, temporal fault processes) that
//! the REFILL reproduction uses to stand in for the CitySee deployment.
//!
//! The crate is deliberately independent of any particular protocol stack:
//! it provides *time*, *randomness*, *geometry*, *links* and an *event
//! queue*; the `protocols` crate builds the 802.15.4/LPL/CTP stack on top.
//!
//! Everything is reproducible: all randomness flows from a single master
//! seed through labelled [`rng::RngFactory`] streams, and the scheduler
//! breaks ties deterministically by insertion sequence.
//!
//! As the root of the workspace's dependency graph it also holds the
//! std-only pieces every other crate would otherwise take from a registry:
//! the generator ([`rng`]), the hasher ([`fx`]), the JSON codec ([`json`]),
//! the property runner ([`prop`]) and counting allocator ([`alloc`]) the
//! tests share, and the one answer to how many threads a parallel pass may
//! use ([`available_workers`]).

pub mod alloc;
pub mod engine;
pub mod fx;
pub mod json;
pub mod link;
pub mod metrics;
pub mod prop;
pub mod rng;
pub mod time;
pub mod topology;

pub use engine::Scheduler;
pub use link::{LinkModel, LinkModelConfig, LinkQualityTable};
pub use rng::{Rng, RngFactory};
pub use time::{SimDuration, SimTime};
pub use topology::{NodeId, Position, Topology};

/// Worker threads a parallel pass uses when the caller has no count of its
/// own: the machine's available parallelism (1 if it cannot be determined).
///
/// The answer is the process's at first use: the standard library reads the
/// cgroup files and the affinity mask on every call, and the stream asks
/// once per sweep, so it is asked once and remembered. Every crate asks
/// here, `eventlog`'s merge among them.
pub fn available_workers() -> usize {
    static WORKERS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *WORKERS.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}
