//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no network access to a crate registry, so this
//! crate vendors the subset of the `rayon` API the workspace uses. Unlike a
//! sequential shim, `map` stages genuinely run in parallel: base items are
//! split into one group per configured thread and executed under
//! [`std::thread::scope`], with item order preserved. "Thread pools" are
//! modelled as a thread-local parallelism degree consulted by
//! [`current_num_threads`]; work is spawned on demand rather than kept on
//! persistent workers, which preserves rayon's observable semantics
//! (determinism, ordering, pool-size reporting) at the cost of spawn overhead:
//! a stage over two or more items spawns scoped threads each time it runs
//! (36–53 µs for two threads on a 2-CPU VM). Outside an installed pool the
//! width is the hardware default, resolved once per process as real rayon's
//! global pool does — `available_parallelism` reads cgroup files on Linux
//! and costs tens of microseconds per call.

use std::cell::Cell;
use std::fmt;
use std::sync::OnceLock;

thread_local! {
    static POOL_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

#[cfg(test)]
static DEFAULT_RESOLVED: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// The hardware default width, resolved on first use and cached for the
/// life of the process.
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        #[cfg(test)]
        DEFAULT_RESOLVED.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Number of threads the current "pool" is configured with.
pub fn current_num_threads() -> usize {
    POOL_THREADS
        .with(|t| t.get())
        .unwrap_or_else(default_threads)
}

/// Error building a thread pool. The stand-in never fails to build, but the
/// type is kept so `Result`-based callers compile unchanged.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("failed to build thread pool")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// New builder with the default thread count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the pool size; `0` means the hardware default.
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Builds the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = if self.num_threads == 0 {
            default_threads()
        } else {
            self.num_threads
        };
        Ok(ThreadPool { num_threads: n })
    }
}

/// A scoped parallelism degree, mirroring `rayon::ThreadPool`.
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `op` with [`current_num_threads`] reporting this pool's size.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        POOL_THREADS.with(|t| {
            let previous = t.get();
            t.set(Some(self.num_threads));
            let result = op();
            t.set(previous);
            result
        })
    }
}

/// Applies `f` to every item on up to [`current_num_threads`] scoped threads,
/// preserving input order in the output.
///
/// Worker threads run with a parallelism degree of 1: a nested parallel
/// stage inside `f` executes sequentially on its worker instead of spawning
/// further threads. This keeps the total thread count bounded by the outer
/// pool size (real rayon achieves the same by making nested work share one
/// pool) and makes `ThreadPoolBuilder::num_threads(n)` an actual cap rather
/// than a per-level multiplier.
fn par_apply<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let threads = current_num_threads().max(1);
    if threads == 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let group_size = items.len().div_ceil(threads);
    let mut groups: Vec<Vec<T>> = Vec::with_capacity(threads);
    let mut items = items.into_iter();
    loop {
        let group: Vec<T> = items.by_ref().take(group_size).collect();
        if group.is_empty() {
            break;
        }
        groups.push(group);
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = groups
            .into_iter()
            .map(|group| {
                scope.spawn(move || {
                    POOL_THREADS.with(|t| t.set(Some(1)));
                    group.into_iter().map(f).collect::<Vec<R>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    })
}

/// An eager "parallel iterator": a materialized list of items whose `map`
/// stage executes across threads.
pub trait ParallelIterator: Sized {
    /// The element type.
    type Item: Send;

    /// Materializes the items (running any pending parallel stages).
    fn items(self) -> Vec<Self::Item>;

    /// Parallel map: `f` runs across threads, order preserved.
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync + Send,
    {
        Map { base: self, f }
    }

    /// Groups items into `Vec`s of at most `size` elements.
    fn chunks(self, size: usize) -> Chunks<Self> {
        assert!(size > 0, "chunk size must be positive");
        Chunks { base: self, size }
    }

    /// Collects the items into `C`.
    fn collect<C: FromIterator<Self::Item>>(self) -> C {
        self.items().into_iter().collect()
    }

    /// Sums the items.
    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item>,
    {
        self.items().into_iter().sum()
    }
}

/// A parallel `map` stage. See [`ParallelIterator::map`].
pub struct Map<I, F> {
    base: I,
    f: F,
}

impl<I, F, R> ParallelIterator for Map<I, F>
where
    I: ParallelIterator,
    F: Fn(I::Item) -> R + Sync + Send,
    R: Send,
{
    type Item = R;

    fn items(self) -> Vec<R> {
        par_apply(self.base.items(), self.f)
    }
}

/// A grouping stage. See [`ParallelIterator::chunks`].
pub struct Chunks<I> {
    base: I,
    size: usize,
}

impl<I: ParallelIterator> ParallelIterator for Chunks<I> {
    type Item = Vec<I::Item>;

    fn items(self) -> Vec<Vec<I::Item>> {
        let mut out = Vec::new();
        let mut items = self.base.items().into_iter();
        loop {
            let group: Vec<I::Item> = items.by_ref().take(self.size).collect();
            if group.is_empty() {
                break out;
            }
            out.push(group);
        }
    }
}

/// Parallel iterator over borrowed chunks of a slice.
pub struct ParChunks<'a, T> {
    slice: &'a [T],
    size: usize,
}

impl<'a, T: Sync> ParallelIterator for ParChunks<'a, T> {
    type Item = &'a [T];

    fn items(self) -> Vec<&'a [T]> {
        self.slice.chunks(self.size).collect()
    }
}

/// Parallel iterator over borrowed elements of a slice.
pub struct ParIter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for ParIter<'a, T> {
    type Item = &'a T;

    fn items(self) -> Vec<&'a T> {
        self.slice.iter().collect()
    }
}

/// Parallel iterator over owned elements of a `Vec`.
pub struct IntoParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParallelIterator for IntoParIter<T> {
    type Item = T;

    fn items(self) -> Vec<T> {
        self.items
    }
}

/// `par_chunks` / `par_iter` on slices, mirroring `rayon::slice::ParallelSlice`.
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over `size`-element chunks.
    fn par_chunks(&self, size: usize) -> ParChunks<'_, T>;

    /// Parallel iterator over borrowed elements.
    fn par_iter(&self) -> ParIter<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, size: usize) -> ParChunks<'_, T> {
        assert!(size > 0, "chunk size must be positive");
        ParChunks { slice: self, size }
    }

    fn par_iter(&self) -> ParIter<'_, T> {
        ParIter { slice: self }
    }
}

/// `into_par_iter`, mirroring `rayon::iter::IntoParallelIterator`.
pub trait IntoParallelIterator {
    /// The element type.
    type Item: Send;
    /// The iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;

    /// Converts `self` into a parallel iterator over owned items.
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = IntoParIter<T>;

    fn into_par_iter(self) -> IntoParIter<T> {
        IntoParIter { items: self }
    }
}

pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelIterator, ParallelSlice};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn install_scopes_the_reported_thread_count() {
        let outer = current_num_threads();
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        assert_eq!(pool.install(current_num_threads), 3);
        assert_eq!(current_num_threads(), outer);
    }

    #[test]
    fn default_width_is_resolved_once_per_process() {
        let hardware = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        for _ in 0..100 {
            assert_eq!(current_num_threads(), hardware);
        }
        std::thread::spawn(move || assert_eq!(current_num_threads(), hardware))
            .join()
            .unwrap();
        let pool = ThreadPoolBuilder::new().build().unwrap();
        assert_eq!(pool.install(current_num_threads), hardware);
        assert_eq!(
            DEFAULT_RESOLVED.load(std::sync::atomic::Ordering::Relaxed),
            1
        );
    }

    #[test]
    fn par_chunks_map_collect_preserves_order() {
        let items: Vec<u64> = (0..10_000).collect();
        let sums: Vec<u64> = items.par_chunks(100).map(|c| c.iter().sum()).collect();
        assert_eq!(sums.len(), 100);
        assert_eq!(sums.iter().sum::<u64>(), items.iter().sum::<u64>());
        let sequential: Vec<u64> = items.chunks(100).map(|c| c.iter().sum()).collect();
        assert_eq!(sums, sequential);
    }

    #[test]
    fn par_iter_map_sum_matches_sequential() {
        let items: Vec<u64> = (0..1_000).collect();
        let total: u64 = items.par_iter().map(|&x| x * 2).sum();
        assert_eq!(total, items.iter().map(|&x| x * 2).sum::<u64>());
    }

    #[test]
    fn into_par_iter_chunks_groups_in_order() {
        let groups: Vec<Vec<u32>> = (0..7)
            .collect::<Vec<u32>>()
            .into_par_iter()
            .chunks(2)
            .collect();
        assert_eq!(groups, vec![vec![0, 1], vec![2, 3], vec![4, 5], vec![6]]);
    }

    #[test]
    fn nested_parallel_stages_do_not_multiply_threads() {
        // Workers report a parallelism degree of 1, so a nested map inside a
        // 4-thread outer map runs sequentially per worker instead of
        // spawning 4 threads each.
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let nested_degrees: Vec<usize> = pool.install(|| {
            (0..8u32)
                .collect::<Vec<_>>()
                .par_iter()
                .map(|_| current_num_threads())
                .collect()
        });
        assert_eq!(nested_degrees, vec![1; 8]);
    }

    #[test]
    fn map_runs_under_a_sized_pool() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let total: u64 =
            pool.install(|| (0..100u64).collect::<Vec<_>>().par_iter().map(|&x| x).sum());
        assert_eq!(total, 4950);
    }
}
