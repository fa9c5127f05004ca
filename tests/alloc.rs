//! A warm trial allocates no table memory.
//!
//! `kernel.arena_grown_bytes == 0` says the arenas did not grow; it cannot say
//! that nothing was allocated *beside* them. This test counts what the
//! allocator is asked for while a warm trial runs: the tables a trial builds
//! (partials, owner slices, path tables) must all come out of buffers the
//! trial before left in the arenas, so the bytes requested stay a small
//! fraction of what the cold trial requested. (One test in this file: the
//! counter is process-wide.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use subgraph_counting::core::Engine;
use subgraph_counting::engine::parallel::run_with_threads;
use subgraph_counting::gen::{chung_lu, power_law_degrees};
use subgraph_counting::graph::Coloring;
use subgraph_counting::query::Registry;

/// Bytes requested from the allocator so far (frees are not subtracted).
static REQUESTED: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the counter is the
// only addition.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.fetch_add(new_size.saturating_sub(layout.size()), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_warm_trial_requests_a_sliver_of_what_its_tables_hold() {
    let degrees: Vec<f64> = power_law_degrees(600, 1.6)
        .iter()
        .map(|d| d * 2.0)
        .collect();
    let graph = chung_lu(&degrees, 5);
    for entry in Registry::builtin().entries() {
        let (name, query) = (entry.name(), entry.query());
        let coloring = Coloring::random(graph.num_vertices(), query.num_nodes(), 7);
        for shards in [None, Some(3)] {
            // A pool of its own, so every first trial starts cold.
            let engine = Engine::new(&graph);
            let run = || {
                let request = engine.count(query).coloring(&coloring);
                let request = match shards {
                    Some(n) => request.sharded(n),
                    None => request,
                };
                // One pool thread: every lane gets its own arena back.
                run_with_threads(1, || request.run().unwrap().metrics.kernel)
            };
            let cold_from = REQUESTED.load(Ordering::Relaxed);
            // The largest lane's arena: less than what the run's tables hold.
            let held = run().arena_bytes as usize;
            let cold = REQUESTED.load(Ordering::Relaxed) - cold_from;
            assert!(cold >= held, "{name} {shards:?}: the counter counts");
            run();
            let warm_from = REQUESTED.load(Ordering::Relaxed);
            run();
            let warm = REQUESTED.load(Ordering::Relaxed) - warm_from;
            assert!(
                warm * 10 < cold,
                "{name} {shards:?}: a warm trial requested {warm} B, the cold one {cold} B"
            );
        }
    }
}
