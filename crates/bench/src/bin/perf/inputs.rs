//! Everything a workload feeds the program, generated from `--seed`: sizes,
//! seed streams, the open-loop arrival schedule and the edge-delta stream.
//! The program only ever sees the generated inputs.

use std::collections::BTreeSet;

use subgraph_counting::graph::{CsrGraph, EdgeDelta, GraphBuilder};

/// SplitMix64 step: decorrelates `(seed, stream, index)` triples into seeds.
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(index.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A tiny deterministic generator for schedules and deltas.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix(seed, stream, 0))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0, 0, 0)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Input sizes: the defaults the numbers in `BENCHMARK.json` were taken at,
/// or the tiny smoke sizes the unit tests and `--smoke` run.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// `condMat` scale of sweep-skew (1.0 = the paper's 23k vertices).
    pub skew_scale: f64,
    /// `roadNetCA` scale of shard-road (0.05 = 100k vertices).
    pub road_scale: f64,
    /// `condMat` scale behind the server.
    pub serve_scale: f64,
    /// Lattice side of the dynamic graph (`side²` vertices).
    pub dyn_side: usize,
    /// Set-ups per run, by workload in table order; `setup_s` is their
    /// median. A cheap set-up is repeated more often, so that every
    /// workload spends about a second and a half on them at the seed commit
    /// and a cheap one's median is as steady as a costly one's. The counts
    /// are fixed, so the state the timed section starts from — the
    /// allocator's above all — does not depend on how fast the set-ups went.
    pub setup_reps: [usize; 4],
    /// Distinct colorings per query the timed trials cycle through. A
    /// query's cost differs from coloring to coloring, and the colorings are
    /// drawn from `--seed`: over two of them a class median sat on the gap
    /// between their two costs and moved with the draw.
    pub colorings: usize,
    /// Jobs in the hot set of serve-mix: the last so many jobs the
    /// back-to-back phase completed, which the repeat phase asks for again.
    pub hot_jobs: usize,
    /// Every how many deltas a dynamic count is checked against a fresh
    /// build of the mirrored edge set.
    pub check_every: usize,
    /// Watched deltas after which dyn-stream reads its peak memory: a third
    /// of what the seed commit completes in a run on a quiet 2-core box, so
    /// that a run three times slower still gets there (one that does not
    /// reports the peak of the whole section, half as much again).
    pub rss_deltas: usize,
    /// Rows of the large synthetic table of the engine micro-measurement,
    /// as a multiple of L2 (the small one is a quarter of L2).
    pub table_l2_multiple: usize,
}

impl Sizes {
    pub const DEFAULT: Sizes = Sizes {
        skew_scale: 0.6,
        road_scale: 0.03,
        serve_scale: 0.05,
        dyn_side: 128,
        setup_reps: [3, 3, 15, 5],
        colorings: 4,
        hot_jobs: 40,
        check_every: 24,
        rss_deltas: 32,
        table_l2_multiple: 4,
    };

    pub const SMOKE: Sizes = Sizes {
        skew_scale: 0.01,
        road_scale: 0.0003,
        serve_scale: 0.01,
        dyn_side: 20,
        setup_reps: [1; 4],
        colorings: 2,
        hot_jobs: 10,
        check_every: 2,
        rss_deltas: 8,
        table_l2_multiple: 1,
    };
}

/// The seed of the data graphs (the `condMat` analog behind sweep-skew and
/// the server, the `roadNetCA` analog behind shard-road, the lattice the
/// dynamic workloads start from). They are datasets, as the paper's graphs
/// are: between two Chung–Lu instances the hub degrees, and with them every
/// cost, move by a quarter, and even between two road lattices by a tenth,
/// which would drown the regressions the bounds are there to catch. `--seed`
/// drives everything random about the run instead — the colorings, the job
/// seeds, the arrival order, the delta stream.
pub const DATASET_SEED: u64 = 0x5eed;

/// Trials per job over the wire and through the service.
pub const JOB_BUDGET: usize = 4;

/// Open-loop arrival rate of serve-mix in requests per second: about 40 %
/// of the rate at which the seed commit's server saturated on the box the
/// baseline in `BENCHMARK.json` was taken on. Frozen: later commits are
/// measured at the same offered load.
pub const OPEN_LOOP_RATE: f64 = 16.0;

/// The patterns the server is asked for, as text.
pub const SERVE_PATTERNS: [&str; 5] = ["path(4)", "glet1", "youtube", "wiki", "cycle(5)"];

/// One open-loop request: when it is due, which pattern, and the job's seed.
#[derive(Clone, Debug, PartialEq)]
pub struct Arrival {
    pub due_s: f64,
    pub pattern: usize,
    pub seed: u64,
}

/// An arrival schedule of `rate` evenly spaced requests per second lasting
/// `seconds`. (Poisson gaps were tried first: with one worker the bursts alone
/// moved the median by a quarter between runs of one seed.) The patterns come
/// in seeded order, every block of `patterns` arrivals a permutation of them,
/// so each pattern is asked for equally often whatever the seed: the tail of
/// the pooled latencies sits in the costliest pattern, and how far into it
/// depends on that pattern's share. Pattern `p`'s `j`-th request asks for seed
/// `first_seed + j`: every request is a distinct job (a cache miss), and
/// consecutive seeds let one reference run of `j + budget` trials check all
/// of them.
pub fn open_loop_schedule(
    seed: u64,
    rate: f64,
    seconds: f64,
    patterns: usize,
    first_seed: u64,
) -> Vec<Arrival> {
    let mut rng = Rng::new(seed, 0x5C4E);
    let mut next = vec![first_seed; patterns];
    let mut block: Vec<usize> = Vec::new();
    let mut due_s = 0.0;
    let mut out = Vec::new();
    loop {
        due_s += 1.0 / rate;
        if due_s >= seconds {
            return out;
        }
        if block.is_empty() {
            block = (0..patterns).collect();
            for i in (1..patterns).rev() {
                block.swap(i, rng.below(i + 1));
            }
        }
        let pattern = block.pop().expect("refilled above");
        out.push(Arrival {
            due_s,
            pattern,
            seed: next[pattern],
        });
        next[pattern] += 1;
    }
}

/// The edge-delta stream of the dynamic workloads: each delta flips four
/// lattice edges (present → delete, absent → insert) inside a small window
/// that walks across the `side × side` lattice, so consecutive deltas dirty
/// different shards. Keeps a mirror of the edge set, which is what a fresh
/// build for the correctness check is made from.
pub struct DeltaStream {
    side: usize,
    rng: Rng,
    step: usize,
    edges: BTreeSet<(u32, u32)>,
}

const WINDOW: usize = 6;
const FLIPS: usize = 4;

impl DeltaStream {
    pub fn new(graph: &CsrGraph, side: usize, seed: u64) -> Self {
        assert!(side > WINDOW + 1, "lattice too small for the delta window");
        DeltaStream {
            side,
            rng: Rng::new(seed, 0xDE17A),
            step: 0,
            edges: graph.edges().collect(),
        }
    }

    /// The next delta; the mirror already reflects it.
    pub fn next_delta(&mut self) -> EdgeDelta {
        let span = self.side - WINDOW - 1;
        // A diagonal-ish walk with coprime strides covers the lattice.
        let (row0, col0) = ((self.step * 7) % span, (self.step * 11) % span);
        self.step += 1;
        let mut chosen: Vec<(u32, u32)> = Vec::with_capacity(FLIPS);
        while chosen.len() < FLIPS {
            let (r, c) = (row0 + self.rng.below(WINDOW), col0 + self.rng.below(WINDOW));
            let u = (r * self.side + c) as u32;
            let v = if self.rng.below(2) == 0 {
                u + 1
            } else {
                u + self.side as u32
            };
            if !chosen.contains(&(u, v)) {
                chosen.push((u, v));
            }
        }
        let (mut inserts, mut deletes) = (Vec::new(), Vec::new());
        for edge in chosen {
            if self.edges.remove(&edge) {
                deletes.push(edge);
            } else {
                self.edges.insert(edge);
                inserts.push(edge);
            }
        }
        EdgeDelta::new(inserts, deletes).expect("flips are distinct, loop-free edges")
    }

    #[cfg(test)]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// A from-scratch build of the mirrored edge set.
    pub fn build_graph(&self) -> CsrGraph {
        let mut builder = GraphBuilder::new(self.side * self.side);
        builder.extend_edges(self.edges.iter().copied());
        builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subgraph_counting::gen::road_like;
    use subgraph_counting::graph::SegmentedSnapshot;

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let a = open_loop_schedule(7, 50.0, 4.0, 5, 100);
        assert_eq!(a.len(), 199);
        assert_eq!(a, open_loop_schedule(7, 50.0, 4.0, 5, 100));
        assert_ne!(a, open_loop_schedule(8, 50.0, 4.0, 5, 100));
        assert!(a.windows(2).all(|w| w[0].due_s < w[1].due_s));
        assert!(a.last().unwrap().due_s < 4.0);
        // Every pattern equally often, to within the last block.
        let count = |p| a.iter().filter(|r| r.pattern == p).count();
        assert!((0..5).all(|p| (39..=40).contains(&count(p))));
        // All of them distinct jobs.
        let mut jobs: Vec<(usize, u64)> = a.iter().map(|r| (r.pattern, r.seed)).collect();
        jobs.sort_unstable();
        jobs.dedup();
        assert_eq!(jobs.len(), a.len());
    }

    #[test]
    fn delta_stream_is_seeded_valid_and_mirrored() {
        let side = 16;
        let graph = road_like(side, 0.65, 0.02, 3);
        let digests = |seed| {
            let mut stream = DeltaStream::new(&graph, side, seed);
            (0..12)
                .map(|_| stream.next_delta().digest())
                .collect::<Vec<_>>()
        };
        assert_eq!(digests(5), digests(5));
        assert_ne!(digests(5), digests(6));

        let mut stream = DeltaStream::new(&graph, side, 5);
        let mut snapshot = SegmentedSnapshot::new(&graph);
        for _ in 0..40 {
            let delta = stream.next_delta();
            assert_eq!(delta.len(), FLIPS);
            snapshot = snapshot
                .apply(&delta)
                .expect("every delta fits the current graph");
        }
        let rebuilt = stream.build_graph();
        assert_eq!(rebuilt.num_edges(), stream.num_edges());
        assert_eq!(snapshot.materialize().fingerprint(), rebuilt.fingerprint());
    }

    #[test]
    fn mix_separates_streams() {
        assert_ne!(mix(1, 0, 0), mix(1, 1, 0));
        assert_ne!(mix(1, 0, 0), mix(1, 0, 1));
        assert_ne!(mix(1, 0, 0), mix(2, 0, 0));
        let mut rng = Rng::new(1, 2);
        assert!((0..100).all(|_| rng.below(7) < 7));
    }
}
