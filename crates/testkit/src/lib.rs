//! # refill-testkit — deterministic fault injection and conformance
//!
//! The paper's pipeline claims one invariant above all others: however
//! the evidence arrives — interleaved, corrupted, truncated, stalled,
//! checkpointed through a store that tears its writes — every driver
//! converges on the *same* reports for whatever records survived. This
//! crate turns that claim into a machine-checkable oracle:
//!
//! * [`FaultPlan`] — one printable seed split into independent
//!   per-boundary lanes of [`netsim::Rng`] (`RngFactory` streams labelled by
//!   boundary), so every fault decision is a pure function of that seed;
//! * [`FaultSpec`] — per-boundary fault rates, parseable from the CLI's
//!   `--faults` string and rendered back for reproduction lines;
//! * [`faults`] — the injectors: [`mangle_frames`] (CRC-detectable XOR
//!   bursts, garbage runs, mid-record truncation — each also a byte-level
//!   mangler of its own for other parsers' never-panic tests), [`FaultyReader`]
//!   (IO errors and pathological chunking), [`FaultyVfs`] (torn writes,
//!   failed fsyncs, failed renames behind the store's [`refill_store::Vfs`]
//!   seam);
//! * [`scenario`] — seeded multi-hop traffic with clock skew, dead RTCs,
//!   duplicate entries and late uploads;
//! * [`conformance::run_case`] — one scenario through all six driver
//!   paths, asserting byte-identical reports and durable-prefix store
//!   recovery;
//! * [`soak::run_soak`] — many cases from one master seed, for the CLI's
//!   `refill soak` and the nightly CI sweep.
//!
//! Fault counts flow through [`refill::telemetry`] as `faults_injected` /
//! `faults_survived`, so a soak's hostility is visible in the same
//! exposition as everything else.

pub mod conformance;
pub mod faults;
pub mod plan;
pub mod scenario;
pub mod soak;

pub use conformance::{run_case, CaseOutcome, ConformanceError, TempDir};
pub use faults::{
    garbage_run, mangle_frames, truncate_tail, xor_burst, FaultyReader, FaultyVfs, MangleReport,
};
pub use plan::{FaultPlan, FaultSpec};
pub use scenario::{gen_logs, upload_interleave, ScenarioReport};
pub use soak::{run_soak, SoakConfig, SoakReport};
