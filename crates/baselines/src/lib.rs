//! # baselines — the analyses REFILL is compared against
//!
//! Four comparison points from the paper:
//!
//! * [`source_view`] — what the operators could already do *without* local
//!   logs: detect losses as sequence-number gaps in the base station's
//!   collected data and back-date them from the sending period. This is
//!   the methodology behind Figure 4 ("whose packets are lost"), which
//!   shows losses spread evenly over sources — and hides *where* they die.
//! * [`naive`] — the Section III strawman: per-node protocol semantics on a
//!   single log ("a trans without an ack means the packet was lost here"),
//!   which mis-diagnoses as soon as events are missing.
//! * [`time_correlation`] — cause attribution by correlating losses with
//!   concurrently logged events in a time window (\[15\], critiqued in
//!   Section V-D.2): mixed causes in one window are indistinguishable and
//!   rare causes are drowned out — and skewed clocks shift the windows.
//! * [`wit`] — Wit's merge-by-common-events: works for overhearing sniffers
//!   that record the *same* frames, degenerates to disconnected per-node
//!   islands on CitySee-style local logs, which share no common events.

pub mod naive;
pub mod source_view;
pub mod time_correlation;
pub mod wit;

pub use naive::{naive_claim, naive_diagnose, NaiveDiagnosis};
pub use source_view::{SourceView, SourceViewLoss};
pub use time_correlation::{correlate_causes, CorrelationConfig, CorrelatedCause};
pub use wit::{wit_merge, WitMerge};
