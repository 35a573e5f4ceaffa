//! Flow-signature memoization: a packet's event group in canonical form,
//! its 128-bit signature, the node-abstract [`ReportTemplate`] its
//! reconstruction leaves, and the sharded cache mapping one to the other.
//!
//! The kernel compares node ids for equality (visit streams, hop evidence,
//! role checks against the origin/sink/base station) and for order (it
//! segments a packet's nodes by id), so reconstruction commutes with any
//! order-preserving node rename that fixes the reserved ids and maps origin
//! to origin and sink to sink: one template serves every packet with the
//! same flow shape. Since the table-driven
//! kernel made a packet cost ≈10 µs, canonicalise + hash + clone-a-template
//! no longer beats reconstructing (DESIGN.md §6): no production path uses
//! the memo, the kernel does not know it, and it stays for its equivalence
//! tests and the benchmark's `core.cached_*` probes.
//!
//! Each lookup locks one shard, picked by the signature's high bits. Each
//! shard runs a second-chance (clock) policy: a FIFO of resident signatures
//! plus a referenced bit that a hit sets and an eviction scan clears, so
//! one-hit wonders leave on the first pass and repeating shapes survive,
//! and a 30-day CitySee run stays memory-flat. Hit/miss/insert/eviction
//! counts go to a [`Recorder`], bumped outside the shard lock: a private
//! [`AtomicRecorder`] by default ([`SigCache::stats`]), or a pipeline-wide
//! one through [`SigCache::with_recorder`].

use crate::ctp_model::UNKNOWN_NODE;
use crate::trace::{EngineInfo, PacketReport, Reconstructor};
use eventlog::event::BASE_STATION;
use eventlog::{Event, EventKind, MergedLog, PacketId};
use netsim::fx::FxHashMap;
use netsim::NodeId;
use refill_telemetry::{AtomicRecorder, Counter, Recorder, Stage, StageTimer};
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

/// Largest event group eligible for signature memoization. Bigger groups
/// are pathological one-offs (storm loops, heavy retransmission streaks):
/// their templates are large, their shapes near-unique, and caching them
/// would evict the small happy-path templates that actually repeat.
pub const MAX_CACHEABLE_EVENTS: usize = 512;

/// Bumped whenever the signature definition changes (event codes, packing,
/// mixer, renaming); folded into every hash so stale persisted signatures
/// can never alias fresh ones.
const SIG_VERSION: u64 = 2;

/// A 128-bit canonical flow-shape signature (see
/// [`Reconstructor::signature_of`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowSignature {
    /// High 64 bits; [`SigCache`] shards on the top bits of this word.
    pub hi: u64,
    /// Low 64 bits.
    pub lo: u64,
}

impl fmt::Display for FlowSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// SplitMix64 finalizer — the standard public-domain constants. Used as
/// the per-word mixing step of the two-lane 128-bit hash below.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Two independently-seeded SplitMix lanes over the canonical word stream.
/// Not cryptographic — it only needs to make accidental collisions between
/// distinct flow shapes vanishingly unlikely (2^-128-ish), the same job
/// xxh3-128 does for content-addressed caches.
struct Mix128 {
    hi: u64,
    lo: u64,
}

impl Mix128 {
    fn new(seed: u64) -> Self {
        Mix128 {
            hi: splitmix64(seed ^ 0x243f_6a88_85a3_08d3),
            lo: splitmix64(seed ^ 0x1319_8a2e_0370_7344),
        }
    }

    fn push(&mut self, v: u64) {
        self.hi = splitmix64(self.hi ^ v);
        self.lo = splitmix64(self.lo.rotate_left(29) ^ v ^ 0x9e37_79b9_7f4a_7c15);
    }

    fn finish(self) -> FlowSignature {
        FlowSignature {
            hi: splitmix64(self.hi ^ self.lo.rotate_left(17)),
            lo: splitmix64(self.lo ^ self.hi),
        }
    }
}

/// Rewrite an event kind's peer through a rename; non-peer kinds pass
/// through unchanged.
fn rename_kind(kind: EventKind, mut rename: impl FnMut(NodeId) -> NodeId) -> EventKind {
    match kind {
        EventKind::Recv { from } => EventKind::Recv { from: rename(from) },
        EventKind::Overflow { from } => EventKind::Overflow { from: rename(from) },
        EventKind::Dup { from } => EventKind::Dup { from: rename(from) },
        EventKind::Trans { to } => EventKind::Trans { to: rename(to) },
        EventKind::AckRecvd { to } => EventKind::AckRecvd { to: rename(to) },
        EventKind::Timeout { to } => EventKind::Timeout { to: rename(to) },
        other => other,
    }
}

/// One canonical word per event: recorded node, peer (+presence bit), kind
/// code, and the opaque payload of `Custom` kinds.
fn pack_event(node: NodeId, kind: &EventKind) -> u64 {
    let (peer, has_peer) = match kind.peer() {
        Some(p) => (u64::from(p.0), 1u64),
        None => (0, 0),
    };
    let custom = match kind {
        EventKind::Custom(c) => u64::from(*c),
        _ => 0,
    };
    u64::from(node.0) | (peer << 16) | (u64::from(kind.code()) << 32) | (has_peer << 40) | (custom << 41)
}

/// The node-abstract form of one packet's event group.
struct CanonicalGroup {
    /// Hash of the canonical stream.
    sig: FlowSignature,
    /// Alpha-renamed events carrying the canonical packet id.
    events: Vec<Event>,
    /// Canonical packet id: canonical origin, seqno 0.
    packet: PacketId,
    /// Alpha-renamed effective sink.
    sink: Option<NodeId>,
    /// Inverse map: canonical rank → real node. Ids past the end (the
    /// fixed points) rehydrate to themselves.
    nodes: Vec<NodeId>,
}

/// Canonicalize a packet's event group, or `None` when it is
/// cache-ineligible (too many events, or a stray event of a different
/// packet mixed into the group).
///
/// The alpha-rename maps each node id to its rank among the ids the group
/// names — every recording node and peer, the origin and the sink, so an
/// origin or pinned sink that appears in no event (both still steer
/// `spawn_role`/`link`) gets a rank too — so it keeps their order. The two
/// reserved ids are fixed points: [`BASE_STATION`] because `spawn_role` and
/// `link` treat it specially, and [`UNKNOWN_NODE`] so synthesized
/// unknown-peer events rehydrate to themselves. Both lie above every other
/// id and every rank stays below `2 * MAX_CACHEABLE_EVENTS + 2`, so the
/// order holds across them too.
fn canonicalize(packet: PacketId, events: &[Event], sink: Option<NodeId>) -> Option<CanonicalGroup> {
    if events.len() > MAX_CACHEABLE_EVENTS || events.iter().any(|e| e.packet != packet) {
        return None;
    }
    let named = events.iter().flat_map(|e| [Some(e.node), e.kind.peer()]);
    let mut nodes: Vec<NodeId> = named.chain([Some(packet.origin), sink]).flatten().collect();
    nodes.retain(|&n| n != BASE_STATION && n != UNKNOWN_NODE);
    nodes.sort_unstable();
    nodes.dedup();
    let canon = |n: NodeId| nodes.binary_search(&n).map_or(n, |rank| NodeId(rank as u16));
    let mut shapes: Vec<(NodeId, EventKind)> = Vec::with_capacity(events.len());
    for e in events {
        shapes.push((canon(e.node), rename_kind(e.kind, canon)));
    }
    let origin = canon(packet.origin);
    let canon_sink = sink.map(canon);
    let canon_packet = PacketId::new(origin, 0);

    let mut mix = Mix128::new(SIG_VERSION);
    mix.push(shapes.len() as u64);
    mix.push(u64::from(origin.0));
    mix.push(canon_sink.map_or(u64::MAX, |s| u64::from(s.0)));
    for (node, kind) in &shapes {
        mix.push(pack_event(*node, kind));
    }

    Some(CanonicalGroup {
        sig: mix.finish(),
        events: shapes
            .into_iter()
            .map(|(node, kind)| Event::new(node, kind, canon_packet))
            .collect(),
        packet: canon_packet,
        sink: canon_sink,
        nodes,
    })
}

/// A node-abstract reconstruction result: the [`PacketReport`] of a
/// canonical event group, shared via [`SigCache`] by every packet whose
/// group has the same flow shape. [`ReportTemplate::rehydrate`] substitutes
/// a packet's real node and packet ids back in.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportTemplate {
    report: PacketReport,
}

impl ReportTemplate {
    /// Produce the concrete [`PacketReport`] for `packet`, mapping each
    /// canonical node index back through `nodes` (indices past the end —
    /// the reserved ids — map to themselves).
    pub fn rehydrate(&self, packet: PacketId, nodes: &[NodeId]) -> PacketReport {
        fn real(nodes: &[NodeId], n: NodeId) -> NodeId {
            nodes.get(usize::from(n.0)).copied().unwrap_or(n)
        }
        let real_event = |e: &Event| {
            Event::new(
                real(nodes, e.node),
                rename_kind(e.kind, |n| real(nodes, n)),
                packet,
            )
        };
        PacketReport {
            packet,
            flow: self.report.flow.map(real_event),
            omitted: self.report.omitted.iter().map(real_event).collect(),
            // `NetWarning` speaks in engine/state ids, not node ids.
            warnings: self.report.warnings.clone(),
            engines: self
                .report
                .engines
                .iter()
                .map(|e| EngineInfo {
                    node: real(nodes, e.node),
                    ..e.clone()
                })
                .collect(),
            path: self.report.path.iter().map(|&n| real(nodes, n)).collect(),
            delivered: self.report.delivered,
            // Origins are flow-shape facts (observed vs inferred and by
            // which rule), independent of the concrete node names.
            origins: self.report.origins.clone(),
        }
    }
}

/// The memoised path over the kernel.
impl Reconstructor {
    /// Reconstruct one packet through a signature cache.
    ///
    /// The packet's event group is canonicalized (node ids alpha-renamed to
    /// their ranks, packet id normalized) and hashed into a
    /// [`FlowSignature`]. On a cache hit the stored node-abstract
    /// [`ReportTemplate`] is rehydrated with this packet's real node and
    /// packet ids; on a miss the canonical group is reconstructed once and
    /// the template is published for later packets with the same flow shape.
    /// Either way the result is exactly what [`Reconstructor::reconstruct_packet`]
    /// would produce (property-tested).
    ///
    /// Cache-ineligible groups (see [`MAX_CACHEABLE_EVENTS`]) fall back to
    /// direct reconstruction.
    pub fn reconstruct_packet_cached(
        &self,
        packet: PacketId,
        events: &[Event],
        cache: &SigCache,
    ) -> PacketReport {
        let rec = &**self.recorder();
        let sink = self.effective_sink(events);
        let canon = {
            let _span = StageTimer::start(rec, Stage::Signature);
            canonicalize(packet, events, sink)
        };
        let Some(canon) = canon else {
            rec.inc(Counter::PacketsUncacheable);
            let report = self.reconstruct_with_sink(packet, events, sink);
            self.record_report(&report);
            return report;
        };
        let hit = {
            let _span = StageTimer::start(rec, Stage::Cache);
            cache.get(canon.sig)
        };
        if let Some(template) = hit {
            let report = {
                let _span = StageTimer::start(rec, Stage::Rehydrate);
                template.rehydrate(packet, &canon.nodes)
            };
            rec.inc(Counter::PacketsRehydrated);
            self.record_report(&report);
            return report;
        }
        let report = self.reconstruct_with_sink(canon.packet, &canon.events, canon.sink);
        let template = Arc::new(ReportTemplate { report });
        let out = {
            let _span = StageTimer::start(rec, Stage::Rehydrate);
            template.rehydrate(packet, &canon.nodes)
        };
        {
            let _span = StageTimer::start(rec, Stage::Cache);
            cache.insert(canon.sig, template);
        }
        self.record_report(&out);
        out
    }

    /// [`Reconstructor::reconstruct_log`] through a signature cache.
    pub fn reconstruct_log_cached(
        &self,
        merged: &MergedLog,
        cache: &SigCache,
    ) -> Vec<PacketReport> {
        merged
            .packet_index()
            .iter()
            .map(|(id, events)| self.reconstruct_packet_cached(id, events, cache))
            .collect()
    }

    /// The canonical flow signature of one packet's event group, or `None`
    /// if the group is cache-ineligible. Two groups share a signature
    /// exactly when they have the same flow *shape*: the same event-kind
    /// sequence over the same pattern of node appearances, regardless of
    /// which concrete nodes (or which packet) produced it.
    pub fn signature_of(&self, packet: PacketId, events: &[Event]) -> Option<FlowSignature> {
        let sink = self.effective_sink(events);
        canonicalize(packet, events, sink).map(|c| c.sig)
    }
}

/// Default total template capacity. Templates are small (a few hundred
/// bytes for a happy-path flow), so even the full default is a few tens of
/// MiB in the worst case, while CitySee-like workloads use a few thousand
/// unique shapes.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Default shard count; a power of two so shard selection is a shift.
const DEFAULT_SHARDS: usize = 16;

/// A bounded, sharded `signature → Arc<ReportTemplate>` cache.
pub struct SigCache {
    shards: Vec<Shard>,
    shard_bits: u32,
    per_shard_cap: usize,
    /// Where hit/miss/insert/eviction counters go. Private by default so
    /// per-cache stats keep working; shared when the cache participates in
    /// pipeline-wide telemetry.
    recorder: Arc<dyn Recorder>,
}

#[derive(Default)]
struct Shard {
    inner: Mutex<ShardMap>,
}

impl Shard {
    fn lock(&self) -> MutexGuard<'_, ShardMap> {
        self.inner
            .lock()
            .expect("no thread panicked while holding a shard lock")
    }
}

#[derive(Default)]
struct ShardMap {
    map: FxHashMap<FlowSignature, CacheEntry>,
    /// Clock queue for second-chance eviction, in insertion order.
    clock: VecDeque<FlowSignature>,
}

struct CacheEntry {
    template: Arc<ReportTemplate>,
    /// Set on hit, cleared (once) by an eviction scan before the entry is
    /// actually dropped — the "second chance".
    referenced: bool,
}

/// A point-in-time summary of the cache counters.
///
/// Since the counters migrated onto the telemetry [`Recorder`], this is a
/// snapshot adapter over [`SigCache::stats`] rather than the storage
/// itself — existing callers and tests see the same numbers as before.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a template.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Templates published (one per unique signature reconstructed, minus
    /// insert races that another thread won).
    pub inserts: u64,
    /// Templates dropped by the second-chance policy.
    pub evictions: u64,
    /// Templates currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from the cache (0.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }

    /// Unique flow shapes seen (as counted by template publications; exact
    /// while nothing has been evicted, a slight overcount after).
    pub fn unique_signatures(&self) -> u64 {
        self.inserts
    }
}

impl SigCache {
    /// A cache holding at most `capacity` templates, with the default
    /// shard count.
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, DEFAULT_SHARDS)
    }

    /// A cache with an explicit shard count (rounded up to a power of two,
    /// clamped to 1..=256). Capacity is divided evenly across shards, at
    /// least one template per shard.
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        let shards = shards.clamp(1, 256).next_power_of_two();
        SigCache {
            shards: (0..shards).map(|_| Shard::default()).collect(),
            shard_bits: shards.trailing_zeros(),
            per_shard_cap: capacity.div_ceil(shards).max(1),
            recorder: Arc::new(AtomicRecorder::new()),
        }
    }

    /// Send this cache's counters to a shared recorder instead of the
    /// private per-cache one, so cache activity appears in the same
    /// telemetry snapshot as the rest of the pipeline.
    ///
    /// Note that [`SigCache::stats`] reads whatever recorder is attached:
    /// with a shared recorder it reflects every cache-counter increment on
    /// that recorder; with a [`refill_telemetry::NoopRecorder`] it reads
    /// all-zero.
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// The recorder cache counters are sent to.
    pub fn recorder(&self) -> &Arc<dyn Recorder> {
        &self.recorder
    }

    fn shard(&self, sig: FlowSignature) -> &Shard {
        let i = if self.shard_bits == 0 {
            0
        } else {
            (sig.hi >> (64 - self.shard_bits)) as usize
        };
        &self.shards[i]
    }

    /// Look up a template, marking it recently-used on a hit.
    pub fn get(&self, sig: FlowSignature) -> Option<Arc<ReportTemplate>> {
        let shard = self.shard(sig);
        let found = {
            let mut inner = shard.lock();
            inner.map.get_mut(&sig).map(|entry| {
                entry.referenced = true;
                Arc::clone(&entry.template)
            })
        };
        match found {
            Some(template) => {
                self.recorder.inc(Counter::CacheHits);
                Some(template)
            }
            None => {
                self.recorder.inc(Counter::CacheMisses);
                None
            }
        }
    }

    /// Publish a template, evicting second-chance victims if the shard is
    /// full. If another thread already published this signature the
    /// existing template wins (both are equivalent by construction).
    pub fn insert(&self, sig: FlowSignature, template: Arc<ReportTemplate>) {
        let shard = self.shard(sig);
        let mut evicted = 0u64;
        {
            let mut guard = shard.lock();
            let inner = &mut *guard;
            if inner.map.contains_key(&sig) {
                return;
            }
            while inner.map.len() >= self.per_shard_cap {
                let Some(candidate) = inner.clock.pop_front() else {
                    break;
                };
                match inner.map.get_mut(&candidate) {
                    Some(entry) if entry.referenced => {
                        entry.referenced = false;
                        inner.clock.push_back(candidate);
                    }
                    Some(_) => {
                        inner.map.remove(&candidate);
                        evicted += 1;
                    }
                    // Defensive: a stale clock slot costs one pop.
                    None => {}
                }
            }
            inner.clock.push_back(sig);
            inner.map.insert(
                sig,
                CacheEntry {
                    template,
                    referenced: false,
                },
            );
        }
        self.recorder.inc(Counter::CacheInserts);
        if evicted > 0 {
            self.recorder.add(Counter::CacheEvictions, evicted);
        }
    }

    /// Counter totals as seen by the attached recorder, plus the current
    /// resident count.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.recorder.counter_value(Counter::CacheHits),
            misses: self.recorder.counter_value(Counter::CacheMisses),
            inserts: self.recorder.counter_value(Counter::CacheInserts),
            evictions: self.recorder.counter_value(Counter::CacheEvictions),
            entries: self.len(),
        }
    }

    /// Templates currently resident.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// True if no template is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total template capacity (per-shard capacity × shard count).
    pub fn capacity(&self) -> usize {
        self.per_shard_cap * self.shards.len()
    }

    /// Drop every template; counters are preserved.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut inner = shard.lock();
            inner.map.clear();
            inner.clock.clear();
        }
    }
}

impl Default for SigCache {
    fn default() -> Self {
        Self::new(DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::EventFlow;
    use crate::trace::CtpVocabulary;
    use eventlog::{merge_logs, LocalLog};
    use refill_telemetry::NoopRecorder;

    fn sig(hi: u64, lo: u64) -> FlowSignature {
        FlowSignature { hi, lo }
    }

    fn template() -> Arc<ReportTemplate> {
        Arc::new(ReportTemplate {
            report: PacketReport {
                packet: PacketId::new(NodeId(0), 0),
                flow: EventFlow::default(),
                omitted: Vec::new(),
                warnings: Vec::new(),
                engines: Vec::new(),
                path: Vec::new(),
                delivered: false,
                origins: Vec::new(),
            },
        })
    }

    #[test]
    fn get_and_insert_count_hits_and_misses() {
        let cache = SigCache::new(64);
        let s = sig(1, 2);
        assert!(cache.get(s).is_none());
        cache.insert(s, template());
        assert!(cache.get(s).is_some());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.inserts, 1);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.unique_signatures(), 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn duplicate_insert_keeps_first_template() {
        let cache = SigCache::new(64);
        let s = sig(3, 4);
        let first = template();
        cache.insert(s, Arc::clone(&first));
        cache.insert(s, template());
        assert!(Arc::ptr_eq(&cache.get(s).unwrap(), &first));
        assert_eq!(cache.stats().inserts, 1);
    }

    #[test]
    fn capacity_is_bounded_per_shard() {
        // One shard so the bound is exact.
        let cache = SigCache::with_shards(8, 1);
        for i in 0..100u64 {
            cache.insert(sig(i, i), template());
        }
        assert!(cache.len() <= 8);
        let stats = cache.stats();
        assert_eq!(stats.inserts, 100);
        assert_eq!(stats.evictions, 100 - cache.len() as u64);
    }

    #[test]
    fn second_chance_protects_recently_hit_entries() {
        let cache = SigCache::with_shards(4, 1);
        let hot = sig(0, 0);
        cache.insert(hot, template());
        for i in 1..4u64 {
            cache.insert(sig(i, i), template());
        }
        // Mark the oldest entry referenced; the next insert must evict one
        // of the cold entries instead.
        assert!(cache.get(hot).is_some());
        cache.insert(sig(9, 9), template());
        assert!(cache.get(hot).is_some(), "referenced entry survived");
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let cache = SigCache::with_shards(100, 10);
        assert_eq!(cache.shards.len(), 16);
        assert_eq!(cache.capacity(), 16 * 7);
        assert!(SigCache::with_shards(10, 0).shards.len() == 1);
    }

    #[test]
    fn clear_preserves_counters() {
        let cache = SigCache::new(64);
        cache.insert(sig(5, 6), template());
        assert!(cache.get(sig(5, 6)).is_some());
        cache.clear();
        assert!(cache.is_empty());
        assert!(cache.get(sig(5, 6)).is_none());
        let stats = cache.stats();
        assert_eq!(stats.inserts, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn concurrent_use_is_consistent() {
        // Four threads race get/insert over the same 64 signatures; insert
        // races are resolved by first-publication-wins, counters stay
        // coherent, and the per-shard bound holds throughout.
        let cache = SigCache::new(256);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..64u64 {
                        let s = sig(i << 32, i);
                        if cache.get(s).is_none() {
                            cache.insert(s, template());
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.lookups(), 4 * 64);
        assert!(stats.inserts >= 64, "every signature is published at least once");
        assert!(stats.entries <= cache.capacity());
        assert!(stats.inserts >= stats.entries as u64);
    }

    #[test]
    fn shared_recorder_receives_cache_counters() {
        let rec = Arc::new(AtomicRecorder::new());
        let cache = SigCache::new(64).with_recorder(rec.clone());
        let s = sig(7, 8);
        assert!(cache.get(s).is_none());
        cache.insert(s, template());
        assert!(cache.get(s).is_some());
        assert_eq!(rec.counter_value(Counter::CacheHits), 1);
        assert_eq!(rec.counter_value(Counter::CacheMisses), 1);
        assert_eq!(rec.counter_value(Counter::CacheInserts), 1);
        // The stats adapter reads the very same recorder.
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn noop_recorder_disables_stats() {
        let cache = SigCache::new(64).with_recorder(Arc::new(NoopRecorder));
        let s = sig(9, 10);
        assert!(cache.get(s).is_none());
        cache.insert(s, template());
        assert!(cache.get(s).is_some(), "caching itself still works");
        let stats = cache.stats();
        assert_eq!(stats.lookups(), 0, "noop recorder stores no counters");
        assert_eq!(stats.entries, 1, "resident count is read from the shards");
    }

    // --- flow signatures + memoized reconstruction ---

    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    fn pid() -> PacketId {
        PacketId::new(n(1), 0)
    }

    fn ev(node: u16, kind: EventKind) -> Event {
        Event::new(n(node), kind, pid())
    }

    /// The Case 4 routing-loop event group (1 → 2 → 3 → 1 → 2).
    fn case4_events() -> Vec<Event> {
        let logs = vec![
            LocalLog::from_events(
                n(1),
                vec![
                    ev(1, EventKind::Trans { to: n(2) }),
                    ev(1, EventKind::AckRecvd { to: n(2) }),
                    ev(1, EventKind::Recv { from: n(3) }),
                    ev(1, EventKind::Trans { to: n(2) }),
                    ev(1, EventKind::AckRecvd { to: n(2) }),
                ],
            ),
            LocalLog::from_events(
                n(2),
                vec![
                    ev(2, EventKind::Recv { from: n(1) }),
                    ev(2, EventKind::Trans { to: n(3) }),
                    ev(2, EventKind::AckRecvd { to: n(3) }),
                    ev(2, EventKind::Trans { to: n(3) }),
                ],
            ),
            LocalLog::from_events(
                n(3),
                vec![
                    ev(3, EventKind::Recv { from: n(2) }),
                    ev(3, EventKind::Trans { to: n(1) }),
                    ev(3, EventKind::AckRecvd { to: n(1) }),
                ],
            ),
        ];
        merge_logs(&logs).by_packet()[&pid()].clone()
    }

    #[test]
    fn routing_loop_and_loop_free_twin_get_different_signatures() {
        let recon = Reconstructor::new(CtpVocabulary::table2());
        // A loop 1 → 2 → 3 → 1: the final hop lands back on the origin,
        // which spawns a second visit there (Case 4). Its loop-free twin
        // has the *identical kind sequence* but the final hop lands on a
        // fresh node 4 — only the node-appearance pattern differs, which is
        // exactly what the alpha-renaming must preserve.
        let looped = vec![
            ev(1, EventKind::Trans { to: n(2) }),
            ev(2, EventKind::Recv { from: n(1) }),
            ev(2, EventKind::Trans { to: n(3) }),
            ev(3, EventKind::Recv { from: n(2) }),
            ev(3, EventKind::Trans { to: n(1) }),
            ev(1, EventKind::Recv { from: n(3) }),
        ];
        let twin = vec![
            ev(1, EventKind::Trans { to: n(2) }),
            ev(2, EventKind::Recv { from: n(1) }),
            ev(2, EventKind::Trans { to: n(3) }),
            ev(3, EventKind::Recv { from: n(2) }),
            ev(3, EventKind::Trans { to: n(4) }),
            ev(4, EventKind::Recv { from: n(3) }),
        ];
        // Sanity: the looped group really is a Case 4 revisit.
        assert!(recon.reconstruct_packet(pid(), &looped).has_routing_loop());
        assert!(!recon.reconstruct_packet(pid(), &twin).has_routing_loop());
        let s1 = recon.signature_of(pid(), &looped).unwrap();
        let s2 = recon.signature_of(pid(), &twin).unwrap();
        assert_ne!(s1, s2, "loop vs. loop-free twin must not collide");
    }

    #[test]
    fn signature_is_invariant_under_node_renaming_and_packet_identity() {
        let recon = Reconstructor::new(CtpVocabulary::table2());
        let original = case4_events();
        // Same shape on disjoint nodes and a different packet.
        let other = PacketId::new(n(11), 42);
        let renamed: Vec<Event> = original
            .iter()
            .map(|e| {
                Event::new(
                    NodeId(e.node.0 + 10),
                    rename_kind(e.kind, |x| NodeId(x.0 + 10)),
                    other,
                )
            })
            .collect();
        assert_eq!(
            recon.signature_of(pid(), &original).unwrap(),
            recon.signature_of(other, &renamed).unwrap(),
        );
    }

    #[test]
    fn signature_depends_on_pinned_sink() {
        // The sink steers spawn_role even when it logs nothing, so pinning
        // a different sink must change the signature.
        let events = vec![ev(1, EventKind::Trans { to: n(2) })];
        let free = Reconstructor::new(CtpVocabulary::table2());
        let pinned = Reconstructor::new(CtpVocabulary::table2()).with_sink(n(2));
        assert_ne!(
            free.signature_of(pid(), &events).unwrap(),
            pinned.signature_of(pid(), &events).unwrap(),
        );
    }

    #[test]
    fn oversized_groups_are_cache_ineligible() {
        let recon = Reconstructor::new(CtpVocabulary::table2());
        let events: Vec<Event> = (0..=MAX_CACHEABLE_EVENTS)
            .map(|_| ev(1, EventKind::Trans { to: n(2) }))
            .collect();
        assert!(recon.signature_of(pid(), &events).is_none());
        // Still reconstructs, just uncached.
        let cache = SigCache::new(16);
        let direct = recon.reconstruct_packet(pid(), &events);
        let cached = recon.reconstruct_packet_cached(pid(), &events, &cache);
        assert_eq!(direct, cached);
        assert_eq!(cache.stats().lookups(), 0);
    }

    #[test]
    fn cached_reconstruction_matches_direct_on_table2_cases() {
        let recon = Reconstructor::new(CtpVocabulary::table2());
        let cache = SigCache::new(1024);
        let groups: Vec<Vec<Event>> = vec![
            case4_events(),
            vec![
                ev(1, EventKind::Trans { to: n(2) }),
                ev(3, EventKind::Recv { from: n(2) }),
            ],
            vec![
                ev(1, EventKind::Trans { to: n(2) }),
                ev(1, EventKind::AckRecvd { to: n(2) }),
            ],
            vec![
                ev(1, EventKind::AckRecvd { to: n(2) }),
                ev(1, EventKind::Trans { to: n(2) }),
            ],
            vec![
                ev(1, EventKind::Trans { to: n(2) }),
                ev(2, EventKind::Dup { from: n(1) }),
            ],
        ];
        // Twice over: the second pass is all hits and must still match.
        for pass in 0..2 {
            for events in &groups {
                let direct = recon.reconstruct_packet(pid(), events);
                let cached = recon.reconstruct_packet_cached(pid(), events, &cache);
                assert_eq!(direct, cached, "pass {pass}");
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, groups.len() as u64);
        assert_eq!(stats.hits, groups.len() as u64);
        assert_eq!(stats.entries, groups.len());
    }

    #[test]
    fn cache_hit_rehydrates_real_nodes_for_a_different_packet() {
        let recon = Reconstructor::new(CtpVocabulary::table2());
        let cache = SigCache::new(64);
        // Warm the cache with the 1→2→3 shape.
        let warm = vec![
            ev(1, EventKind::Trans { to: n(2) }),
            ev(3, EventKind::Recv { from: n(2) }),
        ];
        recon.reconstruct_packet_cached(pid(), &warm, &cache);
        // Same shape on nodes 7→8→9, different packet: must hit and come
        // back with ids 7/8/9, not 1/2/3.
        let other = PacketId::new(n(7), 5);
        let events = vec![
            Event::new(n(7), EventKind::Trans { to: n(8) }, other),
            Event::new(n(9), EventKind::Recv { from: n(8) }, other),
        ];
        let report = recon.reconstruct_packet_cached(other, &events, &cache);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(report.packet, other);
        assert_eq!(
            report.flow.to_string(),
            "7-8 trans, [7-8 recv], [8-9 trans], 8-9 recv"
        );
        assert_eq!(report.path, vec![n(7), n(8), n(9)]);
        assert_eq!(report, recon.reconstruct_packet(other, &events));
    }

    #[test]
    fn base_station_survives_rehydration() {
        let p = pid();
        let logs = vec![
            LocalLog::from_events(
                n(0),
                vec![
                    ev(0, EventKind::Recv { from: n(1) }),
                    ev(0, EventKind::SerialTrans),
                ],
            ),
            LocalLog::from_events(
                BASE_STATION,
                vec![Event::new(BASE_STATION, EventKind::BsRecv, p)],
            ),
        ];
        let merged = merge_logs(&logs);
        let recon = Reconstructor::new(CtpVocabulary::table2()).with_sink(n(0));
        let cache = SigCache::new(64);
        let events = &merged.by_packet()[&p];
        let direct = recon.reconstruct_packet(p, events);
        let cached = recon.reconstruct_packet_cached(p, events, &cache);
        assert_eq!(direct, cached);
        assert!(cached.delivered);
        assert!(cached.path.contains(&BASE_STATION));
    }

    #[test]
    fn mixed_packet_group_is_cache_ineligible() {
        // Defensive: a caller handing a group with a stray foreign event
        // falls back to direct reconstruction instead of poisoning the
        // cache with an ill-defined canonical form.
        let recon = Reconstructor::new(CtpVocabulary::table2());
        let stray = Event::new(n(1), EventKind::Origin, PacketId::new(n(9), 9));
        let events = vec![ev(1, EventKind::Trans { to: n(2) }), stray];
        assert!(recon.signature_of(pid(), &events).is_none());
    }
}
