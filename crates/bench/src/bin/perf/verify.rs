//! The correctness gate: a tally of checked operations, the cross-path
//! identity check every workload runs on its own inputs after timing, and
//! the committed checksums of the reference counts at the default seed.

use std::sync::Arc;

use subgraph_counting::engine::parallel::run_with_threads;
use subgraph_counting::graph::{Coloring, CsrGraph};
use subgraph_counting::query::{heuristic_plan, DecompositionTree, Pattern, QueryGraph};
use subgraph_counting::{CountJob, Engine, Service, ServiceConfig};

use crate::names::Workload;

/// Operations attempted and failed. An operation fails when the program
/// reports an error or refuses it, or when its counts differ from the
/// reference.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub messages: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(what());
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for message in other.messages {
            if self.messages.len() < 8 {
                self.messages.push(message);
            }
        }
    }
}

/// FNV-1a over a sequence of counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Checksum {
    pub hash: u64,
    pub counts: u64,
}

impl Default for Checksum {
    fn default() -> Self {
        Checksum {
            hash: 0xCBF2_9CE4_8422_2325,
            counts: 0,
        }
    }
}

impl Checksum {
    pub fn push(&mut self, count: u64) {
        for byte in count.to_le_bytes() {
            self.hash = (self.hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        self.counts += 1;
    }

    pub fn extend(&mut self, counts: &[u64]) {
        counts.iter().for_each(|&c| self.push(c));
    }
}

/// The seed the committed checksums were taken at.
pub const DEFAULT_SEED: u64 = 1;

/// `workload <tab> size <tab> seed <tab> counts <tab> fnv1a-hex` per line.
const EXPECTED: &str = include_str!("expected.tsv");

/// The committed checksum for `(workload, size, seed)`, if there is one.
pub fn expected(workload: Workload, size: &str, seed: u64) -> Option<Checksum> {
    EXPECTED
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|line| {
            let f: Vec<&str> = line.split('\t').collect();
            (f.len() == 5 && f[0] == workload.name() && f[1] == size && f[2].parse() == Ok(seed))
                .then(|| Checksum {
                    counts: f[3].parse().expect("expected.tsv: count column"),
                    hash: u64::from_str_radix(f[4], 16).expect("expected.tsv: hash column"),
                })
        })
}

pub fn expected_line(workload: Workload, size: &str, seed: u64, sum: Checksum) -> String {
    format!(
        "{}\t{size}\t{seed}\t{}\t{:016x}",
        workload.name(),
        sum.counts,
        sum.hash
    )
}

/// One query of a workload with its plan.
pub struct PlannedQuery {
    pub name: &'static str,
    pub query: QueryGraph,
    pub plan: DecompositionTree,
}

impl PlannedQuery {
    /// Parses `text` (a catalog name or any pattern) and plans it.
    pub fn parse(text: &'static str) -> Self {
        let query = Pattern::parse(text)
            .expect("benchmark patterns parse")
            .into_query();
        let plan = heuristic_plan(&query).expect("benchmark patterns are plannable");
        PlannedQuery {
            name: text,
            query,
            plan,
        }
    }
}

/// The coloring trial `seed` of an `estimate()` draws: what makes an
/// explicit-coloring `run()` comparable with every seeded path.
pub fn coloring_for(graph: &CsrGraph, query: &QueryGraph, seed: u64) -> Coloring {
    Coloring::random(graph.num_vertices(), query.num_nodes(), seed)
}

/// The in-process paths a count can take, asserted identical on one
/// coloring seed per query: serial `run()` ≡ `.sharded(nproc).run()` for
/// every query, and for the first `light` queries also ≡ `count_batch` ≡
/// `Service::run` (each of those costs another full trial, so the heavy
/// queries skip them at benchmark size; the smoke size checks all).
/// Returns the serial counts.
pub fn cross_path(
    graph: &Arc<CsrGraph>,
    engine: &Engine<'_>,
    queries: &[PlannedQuery],
    seed: u64,
    nproc: usize,
    light: usize,
    tally: &mut Tally,
) -> Vec<u64> {
    let mut serial = Vec::with_capacity(queries.len());
    for q in queries {
        let coloring = coloring_for(graph, &q.query, seed);
        let base = engine.count(&q.query).plan(&q.plan).coloring(&coloring);
        let one = base.run().map(|r| r.colorful_matches);
        let base = engine.count(&q.query).plan(&q.plan).coloring(&coloring);
        let many =
            run_with_threads(nproc, || base.sharded(nproc).run()).map(|r| r.colorful_matches);
        tally.check(one.is_ok() && one == many, || {
            format!("{}: serial {one:?} != sharded({nproc}) {many:?}", q.name)
        });
        serial.push(one.unwrap_or(u64::MAX));
    }

    let light = &queries[..light.min(queries.len())];
    let requests: Vec<_> = light
        .iter()
        .map(|q| engine.count(&q.query).seed(seed).trials(1).parallel(false))
        .collect();
    let batch = engine.count_batch(&requests);
    let service = Service::with_config(
        Arc::clone(graph),
        ServiceConfig {
            workers: 1,
            ..Default::default()
        },
    );
    for (i, q) in light.iter().enumerate() {
        let batched = batch
            .as_ref()
            .ok()
            .map(|b| b.estimates[i].per_trial.clone());
        tally.check(batched.as_deref() == Some(&serial[i..=i]), || {
            format!(
                "{}: count_batch {batched:?} != serial {}",
                q.name, serial[i]
            )
        });
        let served = service
            .run(CountJob::new(q.query.clone()).seed(seed).budget(1))
            .map(|out| out.estimate.per_trial);
        tally.check(served.as_deref().ok() == Some(&serial[i..=i]), || {
            format!(
                "{}: Service::run {served:?} != serial {}",
                q.name, serial[i]
            )
        });
    }
    service.shutdown();
    serial
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_counts_and_keeps_first_messages() {
        let mut t = Tally::default();
        t.check(true, || unreachable!());
        for i in 0..20 {
            t.check(false, || format!("failure {i}"));
        }
        assert_eq!((t.attempted, t.failed, t.messages.len()), (21, 20, 8));
        let mut outer = Tally::default();
        outer.absorb(t);
        assert_eq!((outer.attempted, outer.failed), (21, 20));
    }

    #[test]
    fn checksum_depends_on_order_and_value() {
        let sum = |v: &[u64]| {
            let mut c = Checksum::default();
            c.extend(v);
            c
        };
        assert_eq!(sum(&[1, 2, 3]), sum(&[1, 2, 3]));
        assert_ne!(sum(&[1, 2, 3]).hash, sum(&[3, 2, 1]).hash);
        assert_ne!(sum(&[1, 2, 3]).hash, sum(&[1, 2, 4]).hash);
        assert_eq!(sum(&[1, 2, 3]).counts, 3);
    }

    #[test]
    fn expected_file_has_every_workload_at_both_sizes() {
        for w in Workload::ALL {
            for size in ["default", "smoke"] {
                let found = expected(w, size, DEFAULT_SEED);
                assert!(found.is_some(), "no checksum for {} at {size}", w.name());
                let line = expected_line(w, size, DEFAULT_SEED, found.unwrap());
                assert!(EXPECTED.lines().any(|l| l == line));
            }
        }
        assert!(expected(Workload::SweepSkew, "default", 424_242).is_none());
    }
}
