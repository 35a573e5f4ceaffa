//! The one parallel loop, and the reconstruction drivers built on it.
//!
//! Packets are independent: each reconstruction touches only that packet's
//! events (§IV-B). Every parallel pass over packets in the workspace — the
//! batch drivers here, `refill_stream::StreamReconstructor`'s window closes
//! and `citysee::analyze` — is therefore the same thing: an ordered map over
//! an index range with some per-worker scratch. [`par_map`] is that map,
//! written once on `std`; `netsim::available_workers` is how many workers a
//! caller without a count of its own asks for.
//!
//! * [`reconstruct_parallel`] groups a merged log through one shared
//!   [`eventlog::PacketIndex`] and maps the kernel over the groups;
//! * [`reconstruct_fused`] merges the local logs straight into a packed
//!   [`eventlog::EventStore`] (no intermediate merged `Vec<Event>`), indexes
//!   it, and maps the kernel over groups unpacked through a per-worker
//!   [`ScratchArena`].
//!
//! Both produce output identical to the sequential
//! [`Reconstructor::reconstruct_log`] (packets sorted by id) for any worker
//! count, which `tests/kernel_identity.rs` verifies — determinism is a core
//! invariant (DESIGN.md §5).

use crate::trace::{PacketReport, Reconstructor};
use eventlog::columnar::{ColumnarIndex, ScratchArena};
use eventlog::{merge_logs_store, LocalLog, MergedLog};
use netsim::available_workers;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Batches per worker: enough that one slow batch (a storm-loop packet)
/// cannot leave the other workers idle for long, few enough that cursor
/// traffic stays negligible.
const BATCHES_PER_WORKER: usize = 8;

/// Ordered parallel map over `0..n`: `f(state, i)` for every index, results
/// in index order.
///
/// Up to `workers` scoped threads (the caller's included) claim fixed-size
/// index batches from one atomic cursor; each builds its own state with
/// `init` once and threads it through its calls of `f`. Runs inline, on the
/// calling thread, when `workers <= 1` or `n <= 1`. A panic in `init` or
/// `f` propagates to the caller.
pub fn par_map<S, T, I, F>(n: usize, workers: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let workers = workers.min(n);
    if workers <= 1 {
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }
    let batch = n.div_ceil(workers * BATCHES_PER_WORKER);
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut state = init();
        let mut parts: Vec<(usize, Vec<T>)> = Vec::new();
        loop {
            // Relaxed: the cursor only hands out disjoint index ranges; the
            // joins below publish the results.
            let start = cursor.fetch_add(batch, Ordering::Relaxed);
            if start >= n {
                break;
            }
            let end = (start + batch).min(n);
            parts.push((start, (start..end).map(|i| f(&mut state, i)).collect()));
        }
        parts
    };
    let mut parts = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut parts = work();
        for handle in spawned {
            match handle.join() {
                Ok(more) => parts.extend(more),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        parts
    });
    parts.sort_unstable_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(n);
    for (_, part) in parts {
        out.extend(part);
    }
    out
}

/// Reconstruct every packet of a merged log on `workers` threads.
pub fn reconstruct_parallel(
    recon: &Reconstructor,
    merged: &MergedLog,
    workers: usize,
) -> Vec<PacketReport> {
    let index = merged.packet_index();
    par_map(
        index.len(),
        workers,
        || (),
        |_, i| {
            let (id, events) = index.group(i);
            recon.reconstruct_packet(id, events)
        },
    )
}

/// The fused columnar pipeline, end to end: merge the local logs straight
/// into a packed [`eventlog::EventStore`], build the permutation index over
/// it, and reconstruct each group from a per-worker [`ScratchArena`].
/// Output is identical to `reconstruct_log(&merge_logs(logs))`.
pub fn reconstruct_fused(
    recon: &Reconstructor,
    logs: &[LocalLog],
    workers: usize,
) -> Vec<PacketReport> {
    let store = merge_logs_store(logs);
    let index = ColumnarIndex::build(&store);
    par_map(index.len(), workers, ScratchArena::new, |scratch, i| {
        let (id, positions) = index.group(i);
        recon.reconstruct_packet(id, scratch.unpack(&store, positions))
    })
}

// The two names below exist only because `benchmark/src/layers.rs`, frozen
// for the PR that introduced `reconstruct_parallel`, still calls them; they
// go when a benchmark change drops `core.rayon_s` / `core.crossbeam_s`.

#[doc(hidden)]
pub fn reconstruct_rayon(recon: &Reconstructor, merged: &MergedLog) -> Vec<PacketReport> {
    reconstruct_parallel(recon, merged, available_workers())
}

#[doc(hidden)]
pub fn reconstruct_crossbeam(
    recon: &Reconstructor,
    merged: &MergedLog,
    workers: usize,
) -> Vec<PacketReport> {
    reconstruct_parallel(recon, merged, workers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::CtpVocabulary;
    use eventlog::merge_logs;

    #[test]
    fn par_map_returns_results_in_index_order() {
        for n in [0usize, 1, 7, 1000] {
            for workers in [1usize, 2, 4, 7, n + 3] {
                let out = par_map(n, workers, || (), |_, i| i * i);
                let expected: Vec<usize> = (0..n).map(|i| i * i).collect();
                assert_eq!(out, expected, "n={n} workers={workers}");
            }
        }
    }

    #[test]
    fn par_map_builds_state_at_most_once_per_worker() {
        for n in [0usize, 1, 7, 1000] {
            for workers in [1usize, 2, 4, 7, n + 3] {
                let inits = AtomicUsize::new(0);
                let out = par_map(
                    n,
                    workers,
                    || {
                        inits.fetch_add(1, Ordering::Relaxed);
                        0usize
                    },
                    |calls, _| {
                        *calls += 1;
                        *calls
                    },
                );
                let inits = inits.load(Ordering::Relaxed);
                assert!(
                    inits <= workers,
                    "n={n} workers={workers}: {inits} states built"
                );
                // Each state counts the calls it served, so a count of 1
                // marks a state's first use (a worker that claimed no batch
                // built a state and never used it).
                let first_uses = out.iter().filter(|&&calls| calls == 1).count();
                assert!(first_uses <= inits, "n={n} workers={workers}");
                assert_eq!(first_uses == 0, n == 0, "n={n} workers={workers}");
            }
        }
    }

    #[test]
    fn par_map_propagates_a_panicking_item() {
        for workers in [1usize, 4] {
            let caught = std::panic::catch_unwind(|| {
                par_map(
                    100,
                    workers,
                    || (),
                    |_, i| {
                        assert_ne!(i, 63, "item 63 fails");
                        i
                    },
                )
            });
            let payload = caught.expect_err("the panic must reach the caller");
            let message = payload
                .downcast_ref::<String>()
                .expect("assert_ne! panics with a String");
            assert!(
                message.contains("item 63 fails"),
                "workers={workers}: {message}"
            );
        }
    }

    #[test]
    fn empty_inputs_yield_no_reports() {
        let recon = Reconstructor::new(CtpVocabulary::table2());
        let merged = merge_logs(&[]);
        assert!(reconstruct_parallel(&recon, &merged, 4).is_empty());
        assert!(reconstruct_fused(&recon, &[], 4).is_empty());
        assert!(reconstruct_rayon(&recon, &merged).is_empty());
        assert!(reconstruct_crossbeam(&recon, &merged, 4).is_empty());
    }
}
