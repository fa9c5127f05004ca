//! The workspace's fan-out: shard solves, exchange owners and trials.
//!
//! The paper's joins run across MPI ranks; here shards, trials and exchange
//! merges run on scoped threads spawned per fan-out. The width — how many
//! threads a fan-out may use — is a thread-local degree:
//!
//! * [`run_with_threads`] sets it for the duration of a closure — used by
//!   the strong/weak scaling experiments (Figures 12 and 13) to sweep the
//!   degree of parallelism,
//! * [`parallel_indexed`] maps an expensive function over `0..count` with
//!   per-item granularity (shard solves, owner merges, trials).
//!
//! Outside `run_with_threads` the width is the hardware default, resolved
//! once per process (`available_parallelism` reads cgroup files on Linux
//! and costs tens of microseconds per call). A worker thread starts at
//! width 1, so a nested fan-out runs inline on its worker and the thread
//! count stays bounded by the outer width, and with its caller's span
//! suspension, so an `.obs(false)` request records no span on any thread.
//! Threads are spawned per fan-out, not kept: a fan-out over two or more
//! items pays for its spawns each time it runs (36–53 µs for two threads on
//! a 2-CPU VM).

use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    /// The width set by the innermost [`run_with_threads`] on this thread,
    /// or 1 on a worker; `None` means the hardware default.
    static WIDTH: Cell<Option<usize>> = const { Cell::new(None) };
}

#[cfg(test)]
static DEFAULT_RESOLVED: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// The number of threads a fan-out on this thread may use.
fn width() -> usize {
    WIDTH.with(Cell::get).unwrap_or_else(|| {
        static DEFAULT: OnceLock<usize> = OnceLock::new();
        *DEFAULT.get_or_init(|| {
            #[cfg(test)]
            DEFAULT_RESOLVED.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            std::thread::available_parallelism().map_or(1, |n| n.get())
        })
    })
}

/// Runs `f` on the calling thread with fan-outs inside it `num_threads`
/// wide. The caller's width is restored when `f` returns or panics.
///
/// # Panics
/// Panics if `num_threads == 0`.
pub fn run_with_threads<R: Send>(num_threads: usize, f: impl FnOnce() -> R + Send) -> R {
    assert!(num_threads > 0, "need at least one thread");
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            WIDTH.with(|width| width.set(self.0));
        }
    }
    let _restore = Restore(WIDTH.with(|width| width.replace(Some(num_threads))));
    f()
}

/// Maps `f` over `0..count` in parallel with *per-item* granularity,
/// returning the results in index order.
///
/// Each item is assumed expensive (an entire counting trial, one shard's
/// block solve), so two or more items go parallel whenever the width is
/// more than one: contiguous chunks of `ceil(count / width)` items, one
/// scoped thread each. A count of one runs inline on the calling thread
/// and reads nothing, not even the width, so a one-shard block step pays
/// only for its solve. Results are deterministic: item `i`'s output
/// depends only on `i`, never on the thread layout.
pub fn parallel_indexed<R: Send>(count: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    if count <= 1 {
        return (0..count).map(f).collect();
    }
    let width = width();
    if width == 1 {
        return (0..count).map(f).collect();
    }
    let chunk = count.div_ceil(width);
    let suspended = !sgc_obs::enabled();
    let f = &f;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..count)
            .step_by(chunk)
            .map(|start| {
                scope.spawn(move || {
                    WIDTH.with(|width| width.set(Some(1)));
                    let _pause = suspended.then(sgc_obs::suspend);
                    (start..count.min(start + chunk)).map(f).collect::<Vec<R>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|worker| worker.join().expect("parallel worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_with_threads_controls_pool_size() {
        assert_eq!(run_with_threads(3, width), 3);
        assert_eq!(run_with_threads(1, width), 1);
    }

    #[test]
    #[should_panic]
    fn zero_threads_panics() {
        run_with_threads(0, || ());
    }

    #[test]
    fn run_with_threads_restores_the_callers_width() {
        let outer = width();
        assert_eq!(run_with_threads(3, || run_with_threads(2, width)), 2);
        assert_eq!(width(), outer);
        let caught = std::panic::catch_unwind(|| run_with_threads(3, || panic!("inside")));
        assert!(caught.is_err());
        assert_eq!(width(), outer, "a panic leaves the caller's width");
    }

    #[test]
    fn default_width_is_resolved_once_per_process() {
        let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
        for _ in 0..100 {
            assert_eq!(width(), hardware);
        }
        std::thread::spawn(move || assert_eq!(width(), hardware))
            .join()
            .unwrap();
        assert_eq!(
            DEFAULT_RESOLVED.load(std::sync::atomic::Ordering::Relaxed),
            1
        );
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

    #[test]
    fn workers_inherit_the_callers_span_suspension() {
        let fan_out = || run_with_threads(2, || parallel_indexed(4, |_| sgc_obs::enabled()));
        let _pause = sgc_obs::suspend();
        assert_eq!(fan_out(), vec![false; 4]);
        drop(_pause);
        assert_eq!(fan_out(), vec![true; 4]);
    }

    #[test]
    fn nested_fan_outs_do_not_multiply_threads() {
        // Workers start at width 1, so a nested fan-out inside a 4-wide
        // outer one runs inline on its worker instead of spawning 4
        // threads each.
        let nested: Vec<usize> = run_with_threads(4, || parallel_indexed(8, |_| width()));
        assert_eq!(nested, vec![1; 8]);
    }
}
