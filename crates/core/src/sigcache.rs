//! Sharded concurrent memoization cache for reconstruction templates.
//!
//! Keys are canonical flow-shape signatures ([`crate::trace::FlowSignature`]),
//! values are node-abstract [`ReportTemplate`]s shared behind `Arc`. The
//! cache is safe to share by reference across threads: each lookup locks
//! exactly one shard (selected by the signature's high bits, which the
//! two-lane mixer distributes uniformly), so under N shards, N threads
//! rarely contend.
//!
//! Since the table-driven kernel made a packet cost ≈10 µs, canonicalise +
//! hash + clone-a-template no longer beats reconstructing (DESIGN.md §6):
//! no production path uses the cache. It stays as the one memoised path
//! ([`crate::trace::Reconstructor::reconstruct_packet_cached`]) for its
//! equivalence tests and the benchmark's `core.cached_*` probes.
//!
//! Capacity is bounded. Each shard runs a second-chance (clock) policy: a
//! FIFO queue of resident signatures plus a per-entry referenced bit that a
//! hit sets and an eviction scan clears — one-hit wonders leave on the
//! first pass, repeating happy-path shapes survive. This keeps a CitySee
//! 30-day run memory-flat no matter how many rare shapes drift through.
//!
//! Hit/miss/insert/eviction accounting lives on a [`Recorder`] rather than
//! bespoke per-shard atomics: by default each cache owns a private
//! [`AtomicRecorder`] (so [`SigCache::stats`] works exactly as before),
//! and [`SigCache::with_recorder`] points the cache at a pipeline-wide
//! recorder so its counters land in the same [`TelemetrySnapshot`] as
//! every other stage. Counters are still bumped outside the shard lock.
//!
//! [`TelemetrySnapshot`]: refill_telemetry::TelemetrySnapshot

use crate::trace::{FlowSignature, ReportTemplate};
use netsim::fx::FxHashMap;
use refill_telemetry::{AtomicRecorder, Counter, Recorder};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

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
    use crate::trace::PacketReport;
    use eventlog::PacketId;
    use netsim::NodeId;
    use refill_telemetry::NoopRecorder;

    fn sig(hi: u64, lo: u64) -> FlowSignature {
        FlowSignature { hi, lo }
    }

    fn template() -> Arc<ReportTemplate> {
        Arc::new(ReportTemplate::new(PacketReport {
            packet: PacketId::new(NodeId(0), 0),
            flow: EventFlow::default(),
            omitted: Vec::new(),
            warnings: Vec::new(),
            engines: Vec::new(),
            path: Vec::new(),
            delivered: false,
            origins: Vec::new(),
        }))
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
}
