//! The pieces of the REFILL benchmark harness; `main.rs` drives them.
//!
//! * [`workload`] — the four workloads: input generation from a seed, the
//!   timed operations, the references their answers are checked against,
//!   and scoring against ground truth.
//! * [`layers`] — the traced run's isolated per-layer measurements.
//! * [`spans`] — the in-memory span recorder.
//! * [`measure`] — clocks, order statistics, machine yardsticks.

pub mod layers;
pub mod measure;
pub mod spans;
pub mod workload;
