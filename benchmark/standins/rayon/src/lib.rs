//! Std-only stand-in for the part of `rayon` the REFILL crates use:
//! `(0..n).into_par_iter()` / `slice.par_iter()` followed by `map` or
//! `map_init` and then `collect` or `for_each`, plus
//! `current_num_threads`.
//!
//! There is no global pool and no work stealing. Each `collect` /
//! `for_each` opens a `std::thread::scope`, and its workers claim
//! fixed-size index batches from one atomic cursor (ROADMAP item 1's
//! replacement), so per-call cost includes spawning
//! `current_num_threads()` threads. Output order is index order, as with
//! rayon's indexed iterators.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker threads a parallel call uses: the machine's available
/// parallelism (1 if it cannot be determined).
pub fn current_num_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Batches per worker: enough that a slow batch cannot leave the other
/// workers idle for long, few enough that cursor traffic stays
/// negligible.
const BATCHES_PER_WORKER: usize = 8;

/// An indexed parallel pipeline: `len` items, item `i` produced on
/// whichever worker claims it, with per-worker state threaded through.
pub trait ParallelIterator: Sized + Sync {
    /// What the pipeline yields.
    type Item: Send;
    /// Per-worker state (`()` unless `map_init` is in the chain).
    type State;

    /// Number of items.
    fn length(&self) -> usize;
    /// Fresh state for one worker.
    fn init_state(&self) -> Self::State;
    /// Produce item `index`.
    fn produce(&self, state: &mut Self::State, index: usize) -> Self::Item;

    /// Apply `f` to every item.
    fn map<F, T>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Item) -> T + Sync,
        T: Send,
    {
        Map { base: self, f }
    }

    /// Apply `f` to every item with a per-worker scratch value made by
    /// `init` (once per worker per call).
    fn map_init<I, S, F, T>(self, init: I, f: F) -> MapInit<Self, I, F>
    where
        I: Fn() -> S + Sync,
        F: Fn(&mut S, Self::Item) -> T + Sync,
        T: Send,
    {
        MapInit {
            base: self,
            init,
            f,
        }
    }

    /// Run `f` on every item for its side effects.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync,
    {
        drive(&self.map(f), |_, _: Vec<()>| {});
    }

    /// Gather every item, in index order.
    fn collect<C: FromIterator<Self::Item>>(self) -> C {
        let parts = Mutex::new(Vec::new());
        drive(&self, |start, items| {
            parts
                .lock()
                .expect("no worker panicked holding the lock")
                .push((start, items));
        });
        let mut parts = parts
            .into_inner()
            .expect("no worker panicked holding the lock");
        parts.sort_unstable_by_key(|&(start, _)| start);
        parts.into_iter().flat_map(|(_, items)| items).collect()
    }
}

/// Run the pipeline: workers claim `[start, end)` batches from a shared
/// cursor and hand each finished batch to `sink`.
fn drive<P, K>(pipeline: &P, sink: K)
where
    P: ParallelIterator,
    K: Fn(usize, Vec<P::Item>) + Sync,
{
    let len = pipeline.length();
    let workers = current_num_threads().min(len);
    let batch = len.div_ceil((workers * BATCHES_PER_WORKER).max(1)).max(1);
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut state = pipeline.init_state();
        loop {
            // Relaxed: the cursor only hands out disjoint index ranges; the
            // scope's join publishes the results.
            let start = cursor.fetch_add(batch, Ordering::Relaxed);
            if start >= len {
                break;
            }
            let end = (start + batch).min(len);
            let items = (start..end)
                .map(|i| pipeline.produce(&mut state, i))
                .collect();
            sink(start, items);
        }
    };
    if workers <= 1 {
        work();
    } else {
        std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(work);
            }
            work();
        });
    }
}

/// Pipeline source over an index range.
pub struct RangeIter {
    range: Range<usize>,
}

impl ParallelIterator for RangeIter {
    type Item = usize;
    type State = ();

    fn length(&self) -> usize {
        self.range.len()
    }

    fn init_state(&self) {}

    fn produce(&self, _: &mut (), index: usize) -> usize {
        self.range.start + index
    }
}

/// Pipeline source over a borrowed slice.
pub struct SliceIter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for SliceIter<'a, T> {
    type Item = &'a T;
    type State = ();

    fn length(&self) -> usize {
        self.slice.len()
    }

    fn init_state(&self) {}

    fn produce(&self, _: &mut (), index: usize) -> &'a T {
        &self.slice[index]
    }
}

/// See [`ParallelIterator::map`].
pub struct Map<P, F> {
    base: P,
    f: F,
}

impl<P, F, T> ParallelIterator for Map<P, F>
where
    P: ParallelIterator,
    F: Fn(P::Item) -> T + Sync,
    T: Send,
{
    type Item = T;
    type State = P::State;

    fn length(&self) -> usize {
        self.base.length()
    }

    fn init_state(&self) -> P::State {
        self.base.init_state()
    }

    fn produce(&self, state: &mut P::State, index: usize) -> T {
        (self.f)(self.base.produce(state, index))
    }
}

/// See [`ParallelIterator::map_init`].
pub struct MapInit<P, I, F> {
    base: P,
    init: I,
    f: F,
}

impl<P, I, S, F, T> ParallelIterator for MapInit<P, I, F>
where
    P: ParallelIterator,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, P::Item) -> T + Sync,
    T: Send,
{
    type Item = T;
    type State = (P::State, S);

    fn length(&self) -> usize {
        self.base.length()
    }

    fn init_state(&self) -> (P::State, S) {
        (self.base.init_state(), (self.init)())
    }

    fn produce(&self, state: &mut (P::State, S), index: usize) -> T {
        let item = self.base.produce(&mut state.0, index);
        (self.f)(&mut state.1, item)
    }
}

/// `into_par_iter()` on owned sources.
pub trait IntoParallelIterator {
    /// The pipeline source this converts into.
    type Iter: ParallelIterator;
    /// Start a parallel pipeline.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for Range<usize> {
    type Iter = RangeIter;
    fn into_par_iter(self) -> RangeIter {
        RangeIter { range: self }
    }
}

/// `par_iter()` on borrowed slices (and, through deref, `Vec`s).
pub trait IntoParallelRefIterator<'a> {
    /// The pipeline source this borrows as.
    type Iter: ParallelIterator;
    /// Start a parallel pipeline over references.
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Iter = SliceIter<'a, T>;
    fn par_iter(&'a self) -> SliceIter<'a, T> {
        SliceIter { slice: self }
    }
}

/// The traits a `use rayon::prelude::*` is expected to bring in.
pub mod prelude {
    pub use super::{IntoParallelIterator, IntoParallelRefIterator, ParallelIterator};
}
