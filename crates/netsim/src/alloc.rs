//! The counting allocator the allocation tests share.
//!
//! A test binary that measures what code asks of the allocator installs
//! [`Counting`] with one line,
//!
//! ```
//! #[global_allocator]
//! static GLOBAL: netsim::alloc::Counting = netsim::alloc::Counting;
//! # fn main() {
//! # let (v, asked) = netsim::alloc::requested_by(|| vec![0u8; 64]);
//! # assert_eq!((asked.calls, asked.bytes), (1, 64));
//! # assert!(netsim::alloc::peak_bytes() >= netsim::alloc::live_bytes());
//! # drop(v);
//! # }
//! ```
//!
//! and reads three things: what a call requested on this thread — fresh or
//! larger memory, and the bytes asked for ([`requested_by`]) — the number of
//! such requests on every thread ([`requests`]), and the heap bytes live in
//! the whole process with their high-water mark ([`live_bytes`],
//! [`peak_bytes`], [`reset_peak`]). In a binary without that line every
//! reading stays 0.
//!
//! Per-thread counts suit binaries whose tests run beside each other; the
//! process-wide ones a binary of one test that counts the threads it starts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Requests for fresh or larger memory, and the bytes they asked for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Requests {
    /// `alloc`, `alloc_zeroed` and `realloc` calls.
    pub calls: usize,
    /// The sizes those calls asked for (a `realloc`'s new size).
    pub bytes: usize,
}

thread_local! {
    static THREAD: Cell<Requests> = const { Cell::new(Requests { calls: 0, bytes: 0 }) };
}

// Statistics only: no other data is published through them, so `Relaxed`.
static CALLS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counted.
pub struct Counting;

fn note_request(bytes: usize) {
    CALLS.fetch_add(1, Relaxed);
    // A thread being torn down has no counter left; nothing measures there.
    let _ = THREAD.try_with(|t| {
        let r = t.get();
        t.set(Requests {
            calls: r.calls + 1,
            bytes: r.bytes + bytes,
        });
    });
}

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract, and returns what `System` returned. The
// counters are atomics and a const-initialised thread-local `Cell` without a
// destructor: touching them neither allocates nor reads memory the allocator
// hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_request(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_request(layout.size());
        // SAFETY: as above.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_request(new_size);
        // SAFETY: as above.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        // On failure the old block stays allocated, at its old size.
        if !moved.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        moved
    }
}

/// What `f` requested on this thread (threads it starts are not counted).
pub fn requested_by<T>(f: impl FnOnce() -> T) -> (T, Requests) {
    let before = THREAD.with(Cell::get);
    let out = f();
    let after = THREAD.with(Cell::get);
    (
        out,
        Requests {
            calls: after.calls - before.calls,
            bytes: after.bytes - before.bytes,
        },
    )
}

/// Requests so far on every thread.
pub fn requests() -> usize {
    CALLS.load(Relaxed)
}

/// Heap bytes allocated and not yet freed, process-wide.
pub fn live_bytes() -> usize {
    LIVE.load(Relaxed)
}

/// The most [`live_bytes`] has been since the start or the last
/// [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Relaxed)
}

/// Start a new high-water mark at the bytes live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}
