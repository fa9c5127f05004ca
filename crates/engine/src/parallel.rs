//! Rayon helpers for the sharded runtime and the scaling experiments.
//!
//! The paper's joins run across MPI ranks; here shards, trials and exchange
//! merges run as rayon jobs. The helpers in this module keep the algorithm
//! code free of thread-pool plumbing:
//!
//! * [`run_with_threads`] executes a closure inside a dedicated rayon pool of
//!   a given size — used by the strong/weak scaling experiments (Figures 12
//!   and 13) to sweep the degree of parallelism,
//! * [`parallel_indexed`] maps an expensive function over `0..count` with
//!   per-item granularity (shard solves, owner merges, trials).

use rayon::prelude::*;

/// Runs `f` on a dedicated rayon thread pool with `num_threads` threads.
///
/// # Panics
/// Panics if the pool cannot be built (e.g. `num_threads == 0`).
pub fn run_with_threads<R: Send>(num_threads: usize, f: impl FnOnce() -> R + Send) -> R {
    assert!(num_threads > 0, "need at least one thread");
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(num_threads)
        .build()
        .expect("failed to build rayon thread pool");
    pool.install(f)
}

/// Maps `f` over `0..count` in parallel with *per-item* granularity,
/// returning the results in index order.
///
/// Each item is assumed expensive (an entire counting trial, one shard's
/// block solve), so two or more items go parallel whenever the pool has
/// more than one thread. A count of one runs inline on the calling thread
/// and reads nothing, not even the pool width, so a one-shard block step
/// pays only for its solve. Results are deterministic: item `i`'s output
/// depends only on `i`, never on the thread layout.
pub fn parallel_indexed<R: Send>(count: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    if count <= 1 {
        return (0..count).map(f).collect();
    }
    let threads = rayon::current_num_threads().max(1);
    if threads == 1 {
        return (0..count).map(f).collect();
    }
    let indices: Vec<usize> = (0..count).collect();
    let chunk_size = count.div_ceil(threads);
    indices
        .par_chunks(chunk_size)
        .map(|chunk| chunk.iter().map(|&i| f(i)).collect::<Vec<R>>())
        .collect::<Vec<_>>()
        .into_iter()
        .flatten()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_with_threads_controls_pool_size() {
        let observed = run_with_threads(3, rayon::current_num_threads);
        assert_eq!(observed, 3);
        let observed = run_with_threads(1, rayon::current_num_threads);
        assert_eq!(observed, 1);
    }

    #[test]
    #[should_panic]
    fn zero_threads_panics() {
        run_with_threads(0, || ());
    }

    #[test]
    fn parallel_indexed_is_ordered_and_thread_invariant() {
        let f = |i: usize| (i * i) as u64;
        let expected: Vec<u64> = (0..37).map(f).collect();
        for threads in [1, 2, 5] {
            let got = run_with_threads(threads, || parallel_indexed(37, f));
            assert_eq!(got, expected, "threads = {threads}");
        }
        assert!(parallel_indexed(0, f).is_empty());
        assert_eq!(parallel_indexed(1, f), vec![0]);
    }

    #[test]
    fn one_item_runs_inline_on_the_calling_thread() {
        let check = || {
            let caller = std::thread::current().id();
            assert_eq!(
                parallel_indexed(1, |i| (i, std::thread::current().id())),
                vec![(0, caller)]
            );
            let calls = std::sync::atomic::AtomicUsize::new(0);
            let none: Vec<()> = parallel_indexed(0, |_| {
                calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            });
            assert!(none.is_empty());
            assert_eq!(calls.into_inner(), 0);
        };
        check();
        for threads in [1, 3] {
            run_with_threads(threads, check);
        }
    }
}
