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
//! and the property runner ([`prop`]) and counting allocator ([`alloc`]) the
//! tests share.

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
