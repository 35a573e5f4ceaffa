//! Pipeline telemetry: counters, log2 histograms, and stage timers.
//!
//! REFILL's reconstruction pipeline is otherwise a black box — the only
//! visibility used to be ad-hoc `println!` in the CLI and the signature
//! cache's private counters. This crate provides the one instrumentation
//! surface every stage reports into:
//!
//! * [`Recorder`] — the trait the pipeline calls. Implementations must be
//!   cheap enough to invoke from the per-packet hot path.
//! * [`NoopRecorder`] — the default. Every method is an empty body on a
//!   zero-sized type, so instrumentation behind it compiles to nothing;
//!   timers guard their `Instant::now()` calls on [`Recorder::enabled`], so
//!   the disabled hot path performs no clock reads and no allocations.
//! * [`AtomicRecorder`] — fixed-size arrays of relaxed atomics, one slot
//!   per [`Counter`] / [`Stage`] / [`Hist`]. No locks, no allocation after
//!   construction, safe to share across worker threads.
//! * [`TelemetrySnapshot`] — a point-in-time copy of everything recorded,
//!   serializable to JSON (`refill profile --telemetry out.json`) and
//!   renderable as a human table (`refill profile`).
//!
//! The metric namespace is closed (enums, not strings) on purpose: recording
//! is an array index plus a relaxed `fetch_add`, and a typo in a metric name
//! is a compile error, not a silently empty series.

use netsim::json::ToJson;
use netsim::json_struct;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Monotonic event counters, one per instrumented fact.
///
/// Naming convention: `<subsystem><what>` reading as "number of …".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Signature-cache lookups answered from a published template.
    CacheHits,
    /// Signature-cache lookups that missed.
    CacheMisses,
    /// Templates actually published (first-publication-wins; duplicate
    /// publications are not counted).
    CacheInserts,
    /// Templates evicted by the clock sweep to make room.
    CacheEvictions,
    /// Packet reports emitted (one per packet, regardless of how the
    /// report was produced).
    PacketsReconstructed,
    /// Reports produced by rehydrating a cached template (cache hits).
    PacketsRehydrated,
    /// Packets that fell back to direct reconstruction because their
    /// group was not cacheable (oversized or malformed).
    PacketsUncacheable,
    /// Flow entries backed by a logged event.
    EventsObserved,
    /// Flow entries inferred for lost events.
    EventsInferred,
    /// Events with no available transition, dropped from the flow.
    EventsOmitted,
    /// Normal transition steps taken by the engine network.
    FsmSteps,
    /// Intra-node jump transitions taken (a multi-step inferred prefix).
    FsmJumps,
    /// Steps taken while forcing a peer toward an inter-node prerequisite.
    FsmForcedSteps,
    /// Packet groups produced by the analyzer's `PacketIndex` builds.
    IndexedPackets,
    /// Wire frames decoded successfully by the streaming ingest path.
    FramesDecoded,
    /// Wire frames skipped as corrupt (bad magic run, bad checksum,
    /// unknown version, or undecodable payload).
    FramesCorrupt,
    /// Event records absorbed into the stream reconstructor's packet
    /// windows (counted when a pump drains them from their lane, not when
    /// they enter it).
    StreamRecords,
    /// Records that found their node's lane full: each pumps every lane
    /// before it is queued, so no record is refused or dropped.
    StreamBackpressure,
    /// Packet windows closed (watermark passage or lateness timeout).
    WindowsClosed,
    /// Closed windows reopened by a late arrival (one per late record).
    WindowsReopened,
    /// Faults the testkit harness injected into a pipeline run (frame
    /// corruption, reader errors, clock skew, duplicates, …).
    FaultsInjected,
    /// Injected faults the pipeline tolerated: the run either converged
    /// byte-identically across drivers or surfaced a typed error after
    /// converging on the decodable prefix.
    FaultsSurvived,
}

impl Counter {
    /// Every counter, in declaration order (the array layout of
    /// [`AtomicRecorder`]).
    pub const ALL: [Counter; 22] = [
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::CacheInserts,
        Counter::CacheEvictions,
        Counter::PacketsReconstructed,
        Counter::PacketsRehydrated,
        Counter::PacketsUncacheable,
        Counter::EventsObserved,
        Counter::EventsInferred,
        Counter::EventsOmitted,
        Counter::FsmSteps,
        Counter::FsmJumps,
        Counter::FsmForcedSteps,
        Counter::IndexedPackets,
        Counter::FramesDecoded,
        Counter::FramesCorrupt,
        Counter::StreamRecords,
        Counter::StreamBackpressure,
        Counter::WindowsClosed,
        Counter::WindowsReopened,
        Counter::FaultsInjected,
        Counter::FaultsSurvived,
    ];

    /// Number of counters.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snake_case name used in snapshots and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Counter::CacheHits => "cache_hits",
            Counter::CacheMisses => "cache_misses",
            Counter::CacheInserts => "cache_inserts",
            Counter::CacheEvictions => "cache_evictions",
            Counter::PacketsReconstructed => "packets_reconstructed",
            Counter::PacketsRehydrated => "packets_rehydrated",
            Counter::PacketsUncacheable => "packets_uncacheable",
            Counter::EventsObserved => "events_observed",
            Counter::EventsInferred => "events_inferred",
            Counter::EventsOmitted => "events_omitted",
            Counter::FsmSteps => "fsm_steps",
            Counter::FsmJumps => "fsm_jump_transitions",
            Counter::FsmForcedSteps => "fsm_forced_steps",
            Counter::IndexedPackets => "indexed_packets",
            Counter::FramesDecoded => "frames_decoded",
            Counter::FramesCorrupt => "frames_corrupt",
            Counter::StreamRecords => "stream_records",
            Counter::StreamBackpressure => "stream_backpressure",
            Counter::WindowsClosed => "windows_closed",
            Counter::WindowsReopened => "windows_reopened",
            Counter::FaultsInjected => "faults_injected",
            Counter::FaultsSurvived => "faults_survived",
        }
    }

    fn idx(self) -> usize {
        self as usize
    }
}

/// Pipeline stages with wall-time accounting.
///
/// A stage accumulates `(total nanoseconds, number of spans)`. Spans from
/// concurrent workers sum, so under a parallel driver a stage total is CPU
/// time across workers, not elapsed wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Stage {
    /// The analyzer's grouping of the logs by packet (`PacketIndex`), or
    /// its point lookup's walk over them.
    Index,
    /// Canonical flow-signature computation (alpha-renaming + hashing).
    Signature,
    /// Signature-cache lookups and template publications.
    Cache,
    /// The transition-engine run (segmentation, linking, and the connected
    /// FSM drive).
    Transition,
    /// Template rehydration back into concrete packet reports.
    Rehydrate,
    /// Per-packet loss diagnosis.
    Diagnose,
    /// Wire-frame decoding (scan, checksum, payload decode) on the
    /// streaming ingest path.
    Decode,
    /// Stream close sweeps: finding the windows every contributor has
    /// moved past. Excludes the reconstructions the sweep triggers and the
    /// reports it hands out; pumping lanes is not timed.
    Window,
}

impl Stage {
    /// Every stage, in declaration order.
    pub const ALL: [Stage; 8] = [
        Stage::Index,
        Stage::Signature,
        Stage::Cache,
        Stage::Transition,
        Stage::Rehydrate,
        Stage::Diagnose,
        Stage::Decode,
        Stage::Window,
    ];

    /// Number of stages.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snake_case name used in snapshots and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Index => "index",
            Stage::Signature => "signature",
            Stage::Cache => "cache",
            Stage::Transition => "transition",
            Stage::Rehydrate => "rehydrate",
            Stage::Diagnose => "diagnose",
            Stage::Decode => "decode",
            Stage::Window => "window",
        }
    }

    fn idx(self) -> usize {
        self as usize
    }
}

/// Value distributions tracked as log2-bucketed histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Hist {
    /// Events per packet group in the index.
    GroupEvents,
    /// Flow entries per emitted report.
    FlowEntries,
    /// Events per node log fed into the analyzer's grouping.
    NodeLogEvents,
    /// Events a packet window held when it closed.
    WindowEvents,
}

impl Hist {
    /// Every histogram, in declaration order.
    pub const ALL: [Hist; 4] = [
        Hist::GroupEvents,
        Hist::FlowEntries,
        Hist::NodeLogEvents,
        Hist::WindowEvents,
    ];

    /// Number of histograms.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snake_case name used in snapshots and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Hist::GroupEvents => "group_events",
            Hist::FlowEntries => "flow_entries",
            Hist::NodeLogEvents => "node_log_events",
            Hist::WindowEvents => "window_events",
        }
    }

    fn idx(self) -> usize {
        self as usize
    }
}

/// Number of log2 buckets: bucket 0 holds zeros; bucket `i` (1..=64) holds
/// values in `[2^(i-1), 2^i - 1]` (bucket 64's upper bound saturates at
/// `u64::MAX`).
pub const HIST_BUCKETS: usize = 65;

/// The log2 bucket a value falls into.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive upper bound of a bucket (its `le` in the snapshot).
pub fn bucket_upper_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        1..=63 => (1u64 << index) - 1,
        _ => u64::MAX,
    }
}

/// The sink every instrumentation point reports into.
///
/// All methods take `&self`: implementations are expected to be internally
/// atomic so one recorder can be shared across workers. The default for
/// every pipeline object is [`NoopRecorder`]; attach an [`AtomicRecorder`]
/// to turn collection on.
pub trait Recorder: Send + Sync {
    /// True if this recorder actually stores anything. Instrumentation
    /// with a per-call setup cost (clock reads, per-item loops) checks
    /// this first; plain counter bumps may skip the check since a no-op
    /// `add` is already free.
    fn enabled(&self) -> bool;

    /// Add `n` to a counter.
    fn add(&self, counter: Counter, n: u64);

    /// Record one observation of `value` into a histogram.
    fn observe(&self, hist: Hist, value: u64);

    /// Record one completed span of `nanos` wall-nanoseconds in a stage.
    fn record_stage(&self, stage: Stage, nanos: u64);

    /// Increment a counter by one.
    fn inc(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Current value of a counter (zero for recorders that store nothing).
    fn counter_value(&self, _counter: Counter) -> u64 {
        0
    }

    /// Snapshot everything recorded so far (empty for recorders that
    /// store nothing).
    fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot::default()
    }
}

/// The zero-cost default: stores nothing, reports `enabled() == false`.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn add(&self, _counter: Counter, _n: u64) {}

    fn observe(&self, _hist: Hist, _value: u64) {}

    fn record_stage(&self, _stage: Stage, _nanos: u64) {}
}

/// One log2-bucketed histogram backed by atomics.
#[derive(Debug)]
struct AtomicHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl AtomicHistogram {
    fn new() -> Self {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn observe(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    fn snapshot(&self, name: &'static str) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut count = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            count += c;
            if c > 0 {
                buckets.push(BucketSnapshot {
                    le: bucket_upper_bound(i),
                    count: c,
                });
            }
        }
        HistogramSnapshot {
            name: name.to_string(),
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A lock-free recorder: fixed arrays of relaxed atomics, one slot per
/// metric. Allocation happens only at construction; recording is an array
/// index plus `fetch_add`.
#[derive(Debug)]
pub struct AtomicRecorder {
    counters: [AtomicU64; Counter::COUNT],
    stage_ns: [AtomicU64; Stage::COUNT],
    stage_calls: [AtomicU64; Stage::COUNT],
    hists: [AtomicHistogram; Hist::COUNT],
}

impl AtomicRecorder {
    /// A recorder with every metric at zero.
    pub fn new() -> Self {
        AtomicRecorder {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            stage_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            stage_calls: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: std::array::from_fn(|_| AtomicHistogram::new()),
        }
    }
}

impl Default for AtomicRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder for AtomicRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn add(&self, counter: Counter, n: u64) {
        self.counters[counter.idx()].fetch_add(n, Ordering::Relaxed);
    }

    fn observe(&self, hist: Hist, value: u64) {
        self.hists[hist.idx()].observe(value);
    }

    fn record_stage(&self, stage: Stage, nanos: u64) {
        self.stage_ns[stage.idx()].fetch_add(nanos, Ordering::Relaxed);
        self.stage_calls[stage.idx()].fetch_add(1, Ordering::Relaxed);
    }

    fn counter_value(&self, counter: Counter) -> u64 {
        self.counters[counter.idx()].load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> TelemetrySnapshot {
        let counters = Counter::ALL
            .iter()
            .map(|&c| CounterSnapshot {
                name: c.name().to_string(),
                value: self.counter_value(c),
            })
            .collect();
        let stages = Stage::ALL
            .iter()
            .map(|&s| StageSnapshot {
                name: s.name().to_string(),
                calls: self.stage_calls[s.idx()].load(Ordering::Relaxed),
                total_ns: self.stage_ns[s.idx()].load(Ordering::Relaxed),
            })
            .collect();
        let histograms = Hist::ALL
            .iter()
            .map(|&h| self.hists[h.idx()].snapshot(h.name()))
            .collect();
        TelemetrySnapshot {
            counters,
            stages,
            histograms,
        }
    }
}

/// RAII span: measures from construction to drop and records into a stage.
///
/// When the recorder is disabled no clock is read at either end — the
/// timer is an `Option<Instant>` that stays `None`.
pub struct StageTimer<'a> {
    recorder: &'a dyn Recorder,
    stage: Stage,
    started: Option<Instant>,
}

impl<'a> StageTimer<'a> {
    /// Start a span (a no-op against a disabled recorder).
    pub fn start(recorder: &'a dyn Recorder, stage: Stage) -> Self {
        StageTimer {
            recorder,
            stage,
            started: recorder.enabled().then(Instant::now),
        }
    }
}

impl Drop for StageTimer<'_> {
    fn drop(&mut self) {
        if let Some(t0) = self.started {
            let nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.recorder.record_stage(self.stage, nanos);
        }
    }
}

/// One counter in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Stable snake_case metric name.
    pub name: String,
    /// Counter value at snapshot time.
    pub value: u64,
}

/// One stage's accumulated timing in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSnapshot {
    /// Stable snake_case stage name.
    pub name: String,
    /// Number of completed spans.
    pub calls: u64,
    /// Total nanoseconds across all spans (CPU time under parallel
    /// drivers).
    pub total_ns: u64,
}

impl StageSnapshot {
    /// Mean span duration in nanoseconds (zero when no spans completed).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.calls).unwrap_or(0)
    }
}

/// One populated bucket of a histogram snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketSnapshot {
    /// Inclusive upper bound of the bucket.
    pub le: u64,
    /// Observations that fell into the bucket.
    pub count: u64,
}

/// One histogram in a snapshot (only populated buckets are kept).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Stable snake_case metric name.
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (wrapping on overflow).
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// Populated buckets in ascending `le` order.
    pub buckets: Vec<BucketSnapshot>,
}

impl HistogramSnapshot {
    /// Mean observed value (zero when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A point-in-time copy of everything a recorder collected.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// All counters, including zeros (stable set, stable order).
    pub counters: Vec<CounterSnapshot>,
    /// All stages, including never-entered ones.
    pub stages: Vec<StageSnapshot>,
    /// All histograms, including empty ones.
    pub histograms: Vec<HistogramSnapshot>,
}

json_struct!(CounterSnapshot { name, value });
json_struct!(StageSnapshot {
    name,
    calls,
    total_ns
});
json_struct!(BucketSnapshot { le, count });
json_struct!(HistogramSnapshot {
    name,
    count,
    sum,
    max,
    buckets
});
json_struct!(TelemetrySnapshot {
    counters,
    stages,
    histograms
});

impl TelemetrySnapshot {
    /// Value of a counter by name (zero if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// A stage's timing by name, if any spans completed.
    pub fn stage(&self, name: &str) -> Option<&StageSnapshot> {
        self.stages.iter().find(|s| s.name == name && s.calls > 0)
    }

    /// A histogram by name, if it has observations.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|h| h.name == name && h.count > 0)
    }

    /// Pretty-printed JSON (trailing newline included).
    pub fn render_json(&self) -> String {
        let mut body = self
            .to_json()
            .to_pretty()
            .expect("a snapshot holds no floats");
        body.push('\n');
        body
    }

    /// Human-readable report: stage-timing table, nonzero counters, and
    /// histogram summaries.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "stage timings:");
        let _ = writeln!(
            out,
            "  {:<12} {:>10} {:>12} {:>12}",
            "stage", "spans", "total", "mean"
        );
        let mut any_stage = false;
        for s in &self.stages {
            if s.calls == 0 {
                continue;
            }
            any_stage = true;
            let _ = writeln!(
                out,
                "  {:<12} {:>10} {:>12} {:>12}",
                s.name,
                s.calls,
                fmt_ns(s.total_ns),
                fmt_ns(s.mean_ns())
            );
        }
        if !any_stage {
            let _ = writeln!(out, "  (no spans recorded)");
        }
        let _ = writeln!(out, "counters:");
        let mut any_counter = false;
        for c in &self.counters {
            if c.value == 0 {
                continue;
            }
            any_counter = true;
            let _ = writeln!(out, "  {:<24} {:>12}", c.name, c.value);
        }
        if !any_counter {
            let _ = writeln!(out, "  (all zero)");
        }
        let _ = writeln!(out, "histograms:");
        let mut any_hist = false;
        for h in &self.histograms {
            if h.count == 0 {
                continue;
            }
            any_hist = true;
            let _ = writeln!(
                out,
                "  {:<24} count={} mean={:.1} max={}",
                h.name,
                h.count,
                h.mean(),
                h.max
            );
        }
        if !any_hist {
            let _ = writeln!(out, "  (no observations)");
        }
        out
    }

    /// The interval delta `self - prev`, for periodic export: counters
    /// subtract by name, stages subtract calls and totals, histograms
    /// subtract per bucket (zero-count buckets are dropped, matching the
    /// populated-buckets-only snapshot invariant). Names absent from `prev`
    /// — a counter that first moved during the interval, or a snapshot from
    /// an older build — subtract from zero. A histogram's `max` is a
    /// high-water mark, not a sum, so the delta keeps `self`'s value.
    ///
    /// All subtraction saturates: a `prev` taken *after* `self` (caller
    /// bug) yields zeros, never wrapped garbage.
    pub fn diff(&self, prev: &TelemetrySnapshot) -> TelemetrySnapshot {
        let counters = self
            .counters
            .iter()
            .map(|c| CounterSnapshot {
                name: c.name.clone(),
                value: c.value.saturating_sub(prev.counter(&c.name)),
            })
            .collect();
        let stages = self
            .stages
            .iter()
            .map(|s| {
                // Direct lookup, not `stage()`: that accessor filters out
                // zero-call stages, which here would misread "present but
                // idle" as "absent".
                let p = prev.stages.iter().find(|p| p.name == s.name);
                StageSnapshot {
                    name: s.name.clone(),
                    calls: s.calls.saturating_sub(p.map_or(0, |p| p.calls)),
                    total_ns: s.total_ns.saturating_sub(p.map_or(0, |p| p.total_ns)),
                }
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|h| {
                let p = prev.histograms.iter().find(|p| p.name == h.name);
                let buckets = h
                    .buckets
                    .iter()
                    .map(|b| {
                        let prev_count = p
                            .and_then(|p| p.buckets.iter().find(|pb| pb.le == b.le))
                            .map_or(0, |pb| pb.count);
                        BucketSnapshot {
                            le: b.le,
                            count: b.count.saturating_sub(prev_count),
                        }
                    })
                    .filter(|b| b.count > 0)
                    .collect();
                HistogramSnapshot {
                    name: h.name.clone(),
                    count: h.count.saturating_sub(p.map_or(0, |p| p.count)),
                    sum: h.sum.wrapping_sub(p.map_or(0, |p| p.sum)),
                    max: h.max,
                    buckets,
                }
            })
            .collect();
        TelemetrySnapshot {
            counters,
            stages,
            histograms,
        }
    }

    /// Render in the Prometheus text exposition format (version 0.0.4).
    /// Counters become `refill_<name>`, stage timings the pair
    /// `refill_stage_<name>_calls` / `refill_stage_<name>_ns_total`, and
    /// histograms the standard cumulative `_bucket{le=...}` / `_sum` /
    /// `_count` families. The overflow bucket is rendered only as
    /// `le="+Inf"`, never as its internal `u64::MAX` bound.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for c in &self.counters {
            let _ = writeln!(out, "# TYPE refill_{} counter", c.name);
            let _ = writeln!(out, "refill_{} {}", c.name, c.value);
        }
        for s in &self.stages {
            let _ = writeln!(out, "# TYPE refill_stage_{}_calls counter", s.name);
            let _ = writeln!(out, "refill_stage_{}_calls {}", s.name, s.calls);
            let _ = writeln!(out, "# TYPE refill_stage_{}_ns_total counter", s.name);
            let _ = writeln!(out, "refill_stage_{}_ns_total {}", s.name, s.total_ns);
        }
        for h in &self.histograms {
            let _ = writeln!(out, "# TYPE refill_{} histogram", h.name);
            let mut cum = 0u64;
            for b in &h.buckets {
                cum += b.count;
                if b.le < u64::MAX {
                    let _ = writeln!(out, "refill_{}_bucket{{le=\"{}\"}} {}", h.name, b.le, cum);
                }
            }
            let _ = writeln!(out, "refill_{}_bucket{{le=\"+Inf\"}} {}", h.name, h.count);
            let _ = writeln!(out, "refill_{}_sum {}", h.name, h.sum);
            let _ = writeln!(out, "refill_{}_count {}", h.name, h.count);
        }
        out
    }
}

/// Render nanoseconds with a readable unit.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bucket_index_edge_cases() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(u64::MAX), 64);
        // Boundaries: 2^k opens bucket k+1; 2^k - 1 closes bucket k.
        for k in 1..64 {
            let pow = 1u64 << k;
            assert_eq!(bucket_index(pow), k + 1, "2^{k} opens bucket {}", k + 1);
            assert_eq!(bucket_index(pow - 1), k, "2^{k} - 1 closes bucket {k}");
        }
        assert_eq!(bucket_index(1u64 << 63), 64);
    }

    #[test]
    fn bucket_upper_bounds_are_inclusive_and_consistent() {
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        for i in 0..HIST_BUCKETS {
            let le = bucket_upper_bound(i);
            assert_eq!(bucket_index(le), i, "upper bound of bucket {i} maps back");
            if le < u64::MAX {
                assert_eq!(bucket_index(le + 1), i + 1, "le+1 spills into bucket {}", i + 1);
            }
        }
    }

    #[test]
    fn histogram_records_extremes() {
        let rec = AtomicRecorder::new();
        rec.observe(Hist::GroupEvents, 0);
        rec.observe(Hist::GroupEvents, 1);
        rec.observe(Hist::GroupEvents, u64::MAX);
        let snap = rec.snapshot();
        let h = snap.histogram("group_events").expect("populated");
        assert_eq!(h.count, 3);
        assert_eq!(h.max, u64::MAX);
        assert_eq!(h.sum, u64::MAX.wrapping_add(1), "sum wraps on overflow");
        assert_eq!(
            h.buckets,
            vec![
                BucketSnapshot { le: 0, count: 1 },
                BucketSnapshot { le: 1, count: 1 },
                BucketSnapshot {
                    le: u64::MAX,
                    count: 1
                },
            ]
        );
    }

    #[test]
    fn noop_recorder_is_disabled_and_empty() {
        let rec = NoopRecorder;
        assert!(!rec.enabled());
        rec.add(Counter::CacheHits, 5);
        rec.observe(Hist::FlowEntries, 5);
        rec.record_stage(Stage::Index, 5);
        assert_eq!(rec.counter_value(Counter::CacheHits), 0);
        let snap = rec.snapshot();
        assert_eq!(snap, TelemetrySnapshot::default());
        assert_eq!(snap.counter("cache_hits"), 0);
        assert!(snap.stage("index").is_none());
    }

    #[test]
    fn stage_timer_records_only_when_enabled() {
        let rec = AtomicRecorder::new();
        {
            let _t = StageTimer::start(&rec, Stage::Signature);
        }
        let snap = rec.snapshot();
        let s = snap.stage("signature").expect("one span");
        assert_eq!(s.calls, 1);

        let noop = NoopRecorder;
        {
            let _t = StageTimer::start(&noop, Stage::Signature);
        }
        assert!(noop.snapshot().stage("signature").is_none());
    }

    #[test]
    fn concurrent_counter_totals_match_single_threaded() {
        const TASKS: u64 = 64;
        const PER_TASK: u64 = 1000;

        let single = AtomicRecorder::new();
        for _ in 0..TASKS * PER_TASK {
            single.inc(Counter::FsmSteps);
            single.add(Counter::EventsObserved, 3);
            single.observe(Hist::FlowEntries, 7);
        }

        let shared = Arc::new(AtomicRecorder::new());
        std::thread::scope(|scope| {
            for _ in 0..TASKS {
                scope.spawn(|| {
                    for _ in 0..PER_TASK {
                        shared.inc(Counter::FsmSteps);
                        shared.add(Counter::EventsObserved, 3);
                        shared.observe(Hist::FlowEntries, 7);
                    }
                });
            }
        });

        assert_eq!(
            shared.counter_value(Counter::FsmSteps),
            single.counter_value(Counter::FsmSteps)
        );
        assert_eq!(
            shared.counter_value(Counter::EventsObserved),
            single.counter_value(Counter::EventsObserved)
        );
        assert_eq!(shared.snapshot(), single.snapshot());
    }

    #[test]
    fn snapshot_json_roundtrip() {
        let rec = AtomicRecorder::new();
        rec.add(Counter::CacheHits, 42);
        rec.record_stage(Stage::Transition, 1_500_000);
        rec.observe(Hist::GroupEvents, 9);
        let snap = rec.snapshot();
        let back: TelemetrySnapshot =
            netsim::json::decode(snap.render_json().as_bytes()).expect("a snapshot, in valid JSON");
        assert_eq!(back, snap);
        assert_eq!(back.counter("cache_hits"), 42);
        assert_eq!(back.stage("transition").map(|s| s.total_ns), Some(1_500_000));
    }

    #[test]
    fn render_table_mentions_recorded_metrics() {
        let rec = AtomicRecorder::new();
        rec.record_stage(Stage::Index, 2_000_000);
        rec.record_stage(Stage::Transition, 10_000);
        rec.add(Counter::PacketsReconstructed, 7);
        rec.observe(Hist::GroupEvents, 4);
        let table = rec.snapshot().render_table();
        assert!(table.contains("index"));
        assert!(table.contains("transition"));
        assert!(table.contains("packets_reconstructed"));
        assert!(table.contains("group_events"));
        // Empty metrics are elided, not printed as zero rows.
        assert!(!table.contains("diagnose"));
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(7), "7ns");
        assert_eq!(fmt_ns(1_500), "1.50us");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_200_000_000), "3.20s");
    }

    #[test]
    fn diff_of_identical_snapshots_is_all_zero() {
        let rec = AtomicRecorder::new();
        rec.add(Counter::CacheHits, 42);
        rec.record_stage(Stage::Index, 1_000);
        rec.observe(Hist::FlowEntries, 5);
        let snap = rec.snapshot();
        let delta = snap.diff(&snap);
        assert!(delta.counters.iter().all(|c| c.value == 0));
        assert!(delta.stages.iter().all(|s| s.calls == 0 && s.total_ns == 0));
        for h in &delta.histograms {
            assert_eq!(h.count, 0);
            assert_eq!(h.sum, 0);
            assert!(h.buckets.is_empty(), "zero-delta buckets are dropped");
        }
        // The name sets survive intact — an exporter can rely on them.
        assert_eq!(delta.counters.len(), snap.counters.len());
        assert_eq!(delta.stages.len(), snap.stages.len());
        assert_eq!(delta.histograms.len(), snap.histograms.len());
    }

    #[test]
    fn diff_against_empty_prev_returns_full_values() {
        // The fresh-counter case: a counter (or the whole snapshot) that
        // first moved during the interval subtracts from zero.
        let rec = AtomicRecorder::new();
        rec.add(Counter::EventsInferred, 7);
        rec.record_stage(Stage::Transition, 2_500);
        rec.observe(Hist::GroupEvents, 3);
        let snap = rec.snapshot();
        let delta = snap.diff(&TelemetrySnapshot::default());
        assert_eq!(delta.counter("events_inferred"), 7);
        assert_eq!(delta.stage("transition").map(|s| s.total_ns), Some(2_500));
        let h = delta.histogram("group_events").expect("populated");
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 3);
        assert_eq!(h.buckets, vec![BucketSnapshot { le: 3, count: 1 }]);
    }

    #[test]
    fn diff_subtracts_interval_activity() {
        let rec = AtomicRecorder::new();
        rec.add(Counter::CacheHits, 10);
        rec.record_stage(Stage::Index, 1_000);
        rec.observe(Hist::FlowEntries, 2);
        let before = rec.snapshot();
        rec.add(Counter::CacheHits, 5);
        rec.add(Counter::CacheMisses, 1);
        rec.record_stage(Stage::Index, 500);
        rec.observe(Hist::FlowEntries, 2);
        rec.observe(Hist::FlowEntries, 9);
        let after = rec.snapshot();
        let delta = after.diff(&before);
        assert_eq!(delta.counter("cache_hits"), 5);
        assert_eq!(delta.counter("cache_misses"), 1, "fresh counter");
        let s = delta.stage("index").expect("one new span");
        assert_eq!(s.calls, 1);
        assert_eq!(s.total_ns, 500);
        let h = delta.histogram("flow_entries").expect("two new obs");
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 11);
        assert_eq!(
            h.buckets,
            vec![
                BucketSnapshot { le: 3, count: 1 },
                BucketSnapshot { le: 15, count: 1 },
            ]
        );
    }

    #[test]
    fn prometheus_exposition_shape() {
        let rec = AtomicRecorder::new();
        rec.add(Counter::CacheHits, 3);
        rec.record_stage(Stage::Index, 1_500);
        rec.observe(Hist::FlowEntries, 0);
        rec.observe(Hist::FlowEntries, 3);
        rec.observe(Hist::FlowEntries, 9);
        let text = rec.snapshot().render_prometheus();
        assert!(text.contains("# TYPE refill_cache_hits counter\nrefill_cache_hits 3\n"));
        assert!(text.contains("refill_stage_index_calls 1\n"));
        assert!(text.contains("refill_stage_index_ns_total 1500\n"));
        assert!(text.contains("# TYPE refill_flow_entries histogram\n"));
        // Buckets are cumulative: le=0 holds 1, le=3 holds 2, le=15 holds 3.
        assert!(text.contains("refill_flow_entries_bucket{le=\"0\"} 1\n"));
        assert!(text.contains("refill_flow_entries_bucket{le=\"3\"} 2\n"));
        assert!(text.contains("refill_flow_entries_bucket{le=\"15\"} 3\n"));
        assert!(text.contains("refill_flow_entries_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("refill_flow_entries_sum 12\n"));
        assert!(text.contains("refill_flow_entries_count 3\n"));
        // The overflow bucket's internal u64::MAX bound must never leak.
        assert!(!text.contains(&u64::MAX.to_string()));
        // Every line is either a comment or `name value`.
        for line in text.lines() {
            assert!(
                line.starts_with("# TYPE refill_")
                    || line
                        .split_once(' ')
                        .is_some_and(|(name, v)| {
                            name.starts_with("refill_") && v.parse::<u64>().is_ok()
                        }),
                "malformed exposition line: {line}"
            );
        }
    }
}
