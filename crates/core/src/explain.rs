//! The library-level `EXPLAIN` API: what would the engine do with a pattern?
//!
//! A query engine serving arbitrary patterns owes its callers a plan report
//! *before* they pay for execution: which decomposition trees exist, which
//! one the plan heuristic picks and why, and how much table state a run
//! is bounded by. [`Engine::explain`](crate::Engine::explain) returns that as
//! a structured [`PlanReport`] (the data the `plan_explorer` example used to
//! compute inline), and the report's `Display` renders the familiar explain
//! text.

use crate::config::Algorithm;
use crate::error::SgcError;
use crate::paths::PathProgram;
use sgc_query::automorphism::count_automorphisms;
use sgc_query::treewidth::is_tree;
use sgc_query::{enumerate_plans, DecompositionTree, PlanCost, QueryGraph};

/// The planner's structural verdict on a query (queries that exceed
/// treewidth 2 never get a report — they are rejected with
/// [`SgcError::Query`] instead).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TreewidthVerdict {
    /// The query is a tree (treewidth 1): every block is a leaf edge and
    /// the linear-time FASCIA-style DP applies.
    Tree,
    /// The query has cycles but treewidth ≤ 2: the paper's cycle-block
    /// machinery is needed.
    AtMostTwo,
}

impl std::fmt::Display for TreewidthVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreewidthVerdict::Tree => f.write_str("tree (treewidth 1)"),
            TreewidthVerdict::AtMostTwo => f.write_str("cyclic, treewidth <= 2"),
        }
    }
}

/// One block of a candidate plan, with its predicted table bound.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockReport {
    /// Kind and member nodes, e.g. `C(0,1,2)` or `L(0,3)`.
    pub kind: String,
    /// Cycle length (0 for a leaf edge).
    pub cycle_length: usize,
    /// Number of boundary nodes (0, 1 or 2).
    pub boundary_nodes: usize,
    /// Nodes of the subquery `SQ(B)` the block's table summarises.
    pub subquery_nodes: usize,
    /// Upper bound on the block's projection-table rows (see
    /// [`PlanCandidate::predicted_rows`]).
    pub predicted_rows: u64,
    /// Path steps one start-vertex tile runs under the report's algorithm:
    /// the block's path program (`PathProgram`) builds each distinct step once.
    pub distinct_steps: usize,
    /// Path steps the written algorithm runs per tile (`P+` and `P-` of
    /// every split, or a leaf edge's one chain).
    pub written_steps: u64,
    /// Merges one tile runs (zero for a leaf edge): each distinct split
    /// once, with its multiplicity.
    pub distinct_merges: usize,
    /// Merges the written algorithm runs per tile: one per split.
    pub written_merges: u64,
    /// Semi steps one tile runs: the join mapping the end of an uneven
    /// split's longer path, which stores only the rows whose endpoints the
    /// shorter path has.
    pub distinct_semi_steps: usize,
    /// Semi steps the written algorithm runs per tile: one per split whose
    /// two paths differ in length (zero for an even cycle).
    pub written_semi_steps: u64,
}

/// One candidate decomposition tree, costed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanCandidate {
    /// The cost vector (longest cycle, folded nodes, boundary nodes,
    /// annotations) the heuristic compares lexicographically.
    pub cost: PlanCost,
    /// Per-block structure and table bounds.
    pub blocks: Vec<BlockReport>,
    /// The tree's canonical signature (the dedup identity).
    pub signature: String,
    /// Sum of the per-block [`BlockReport::predicted_rows`]: an upper bound
    /// on the projection-table rows a run of this plan can materialise. Each
    /// block with subquery size `s` and `b` boundary nodes is bounded by
    /// `C(k, s) · n^b` rows — one per (signature, boundary image) pair —
    /// with `k` colors and `n` data-graph vertices; only non-zero rows are
    /// ever stored, so real tables are far smaller.
    pub predicted_rows: u64,
    /// Whether this is the plan the heuristic (and therefore
    /// [`CountRequest::run`](crate::CountRequest::run)) would use.
    pub chosen: bool,
}

/// The structured result of [`Engine::explain`](crate::Engine::explain).
///
/// `Display` renders the explain text; the fields are the machine-readable
/// version. See `DESIGN.md` ("Pattern language & explain") for how each
/// field maps to the paper's decomposition and cost notions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanReport {
    /// The query in canonical pattern-language form (re-parseable).
    pub pattern: String,
    /// Number of query nodes `k`.
    pub num_nodes: usize,
    /// Number of query edges.
    pub num_edges: usize,
    /// Vertices in the engine's bound data graph (the `n` of the table
    /// bounds).
    pub graph_vertices: usize,
    /// Structural verdict (tree vs general treewidth-2).
    pub verdict: TreewidthVerdict,
    /// `|Aut(Q)|`, the divisor that turns match counts into subgraph counts.
    pub automorphisms: u64,
    /// The cycle-solving algorithm a request runs with by default (Degree
    /// Based; per-request overrides don't change the plan).
    pub algorithm: Algorithm,
    /// Every distinct decomposition tree, in enumeration order.
    pub candidates: Vec<PlanCandidate>,
    /// Index into [`candidates`](PlanReport::candidates) of the heuristic
    /// choice.
    pub chosen: usize,
}

impl PlanReport {
    /// The candidate the heuristic selected (what
    /// [`Engine::plan`](crate::Engine::plan) caches and every request
    /// without an explicit plan runs).
    pub fn chosen_candidate(&self) -> &PlanCandidate {
        &self.candidates[self.chosen]
    }
}

impl std::fmt::Display for PlanReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "pattern: {} ({} nodes, {} edges; {}; {} automorphisms)",
            self.pattern, self.num_nodes, self.num_edges, self.verdict, self.automorphisms
        )?;
        writeln!(
            f,
            "algorithm: {} on a {}-vertex graph",
            self.algorithm, self.graph_vertices
        )?;
        writeln!(f, "{} candidate decomposition(s):", self.candidates.len())?;
        for (i, plan) in self.candidates.iter().enumerate() {
            writeln!(
                f,
                "  plan {i:>2}: blocks={:<2} longest cycle={:<2} folded nodes={:<2} \
                 boundary nodes={:<2} annotations={:<2} predicted rows <= {}{}",
                plan.blocks.len(),
                plan.cost.longest_cycle,
                plan.cost.folded_nodes,
                plan.cost.boundary_nodes,
                plan.cost.annotations,
                plan.predicted_rows,
                if plan.chosen { "  <-- chosen" } else { "" }
            )?;
        }
        writeln!(f, "chosen plan blocks:")?;
        for (i, block) in self.chosen_candidate().blocks.iter().enumerate() {
            write!(
                f,
                "  block {i}: {} boundary={} subquery nodes={} predicted rows <= {}",
                block.kind, block.boundary_nodes, block.subquery_nodes, block.predicted_rows
            )?;
            if block.cycle_length > 0 {
                write!(
                    f,
                    "  path steps {}/{}, merges {}/{}, semi-joined {}/{}",
                    block.distinct_steps,
                    block.written_steps,
                    block.distinct_merges,
                    block.written_merges,
                    block.distinct_semi_steps,
                    block.written_semi_steps
                )?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Saturating `C(n, r)`: exact up to `u64::MAX`, which it returns for
/// larger values (query nodes go up to 128, and `C(128, 64)` is ≈ 2.4e37).
fn binomial(n: usize, r: usize) -> u64 {
    if r > n {
        return 0;
    }
    let r = r.min(n - r);
    let mut out: u128 = 1;
    for i in 0..r {
        // out * (n - i) is always divisible by i + 1: it equals C(n, i+1)
        // times (i + 1). Once out passes u64::MAX every later C(n, i+1) is
        // larger still (i + 1 ≤ r ≤ n / 2), so the answer saturates.
        out = out * (n - i) as u128 / (i + 1) as u128;
        if out > u64::MAX as u128 {
            return u64::MAX;
        }
    }
    out as u64
}

/// Saturating `n^b` for the boundary-image factor (`b` is 0, 1 or 2).
fn power(n: u64, b: usize) -> u64 {
    (0..b).fold(1u64, |acc, _| acc.saturating_mul(n))
}

fn block_report(
    tree: &DecompositionTree,
    block: sgc_query::BlockId,
    k: usize,
    graph_vertices: usize,
    algorithm: Algorithm,
) -> BlockReport {
    let b = &tree.blocks[block];
    // The program the kernel would run: the same compiler, not a model.
    let program = PathProgram::compile(tree, b, algorithm);
    let subquery = tree.subquery_nodes(block).len();
    let boundary = b.boundary.len();
    let predicted = binomial(k, subquery).saturating_mul(power(graph_vertices as u64, boundary));
    let kind = match &b.kind {
        sgc_query::BlockKind::LeafEdge { boundary, leaf } => format!("L({boundary},{leaf})"),
        sgc_query::BlockKind::Cycle { nodes } => format!(
            "C({})",
            nodes
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join(",")
        ),
    };
    BlockReport {
        kind,
        cycle_length: b.cycle_length(),
        boundary_nodes: boundary,
        subquery_nodes: subquery,
        predicted_rows: predicted,
        distinct_steps: program.distinct_steps(),
        written_steps: program.written_steps(),
        distinct_merges: program.distinct_merges(),
        written_merges: program.written_merges(),
        distinct_semi_steps: program.distinct_semi_steps(),
        written_semi_steps: program.written_semi_steps(),
    }
}

/// Builds the report; the engine half lives in
/// [`Engine::explain`](crate::Engine::explain).
pub(crate) fn build_report(
    graph_vertices: usize,
    query: &QueryGraph,
    algorithm: Algorithm,
) -> Result<PlanReport, SgcError> {
    let plans = enumerate_plans(query)?;
    let k = query.num_nodes();
    // The chosen candidate is identified by asking the heuristic itself, so
    // the report can never desynchronize from the plan the engine caches
    // and runs, whatever selection key `heuristic_plan` uses.
    let heuristic_signature = sgc_query::heuristic_plan(query)?.signature();
    let chosen = plans
        .iter()
        .position(|t| t.signature() == heuristic_signature)
        .expect("the heuristic plan is one of the enumerated plans");
    let candidates: Vec<PlanCandidate> = plans
        .iter()
        .enumerate()
        .map(|(i, tree)| {
            let blocks: Vec<BlockReport> = (0..tree.blocks.len())
                .map(|b| block_report(tree, b, k, graph_vertices, algorithm))
                .collect();
            let predicted_rows = blocks
                .iter()
                .fold(0u64, |acc, b| acc.saturating_add(b.predicted_rows));
            PlanCandidate {
                cost: PlanCost::of(tree),
                blocks,
                signature: tree.signature(),
                predicted_rows,
                chosen: i == chosen,
            }
        })
        .collect();
    let verdict = if is_tree(query) {
        TreewidthVerdict::Tree
    } else {
        TreewidthVerdict::AtMostTwo
    };
    Ok(PlanReport {
        pattern: query.to_string(),
        num_nodes: k,
        num_edges: query.num_edges(),
        graph_vertices,
        verdict,
        automorphisms: count_automorphisms(query),
        algorithm,
        candidates,
        chosen,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_and_power_basics() {
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(5, 5), 1);
        assert_eq!(binomial(3, 4), 0);
        assert_eq!(binomial(32, 16), 601_080_390);
        assert_eq!(binomial(67, 33), 14_226_520_737_620_288_370);
        // C(70, 35) ≈ 1.1e20 and C(127, 63) ≈ 1.2e37 exceed u64::MAX.
        assert_eq!(binomial(70, 35), u64::MAX);
        assert_eq!(binomial(127, 63), u64::MAX);
        assert_eq!(binomial(127, 126), 127);
        assert_eq!(power(10, 0), 1);
        assert_eq!(power(10, 2), 100);
        assert_eq!(power(u64::MAX, 2), u64::MAX);
    }

    /// The report shows the program the kernel runs: a bare 5-cycle under
    /// DB builds 3 of its 25 written path steps and merges once, five times
    /// over, its one semi step standing for every split's; under PS its one
    /// split shares two of five steps. An even cycle's paths are equally
    /// long, so nothing is semi-joined.
    #[test]
    fn explain_shows_the_path_program_of_each_cycle_block() {
        let query = sgc_query::catalog::cycle(5);
        let db = build_report(10, &query, Algorithm::DegreeBased).unwrap();
        let block = &db.chosen_candidate().blocks[0];
        let program = (block.distinct_steps, block.written_steps);
        assert_eq!(program, (3, 25));
        assert_eq!((block.distinct_merges, block.written_merges), (1, 5));
        assert_eq!(
            (block.distinct_semi_steps, block.written_semi_steps),
            (1, 5)
        );
        let text = db.to_string();
        assert!(text.contains("path steps 3/25, merges 1/5, semi-joined 1/5"));
        let ps = build_report(10, &query, Algorithm::PathSplitting).unwrap();
        let text = ps.to_string();
        assert!(text.contains("path steps 3/5, merges 1/1, semi-joined 1/1"));
        for algorithm in [Algorithm::DegreeBased, Algorithm::PathSplitting] {
            let even = build_report(10, &sgc_query::catalog::cycle(4), algorithm).unwrap();
            assert!(
                even.to_string().contains(", semi-joined 0/0"),
                "{algorithm}"
            );
        }
        // Leaf-edge blocks print no program line.
        let path = build_report(10, &sgc_query::catalog::path(3), Algorithm::DegreeBased);
        assert!(!path.unwrap().to_string().contains("path steps"));
    }

    /// Subquery sizes near half of a large query's nodes have binomials past
    /// `u64::MAX`; in a debug build an unchecked product would panic here.
    #[test]
    fn explaining_a_path_of_more_than_64_nodes_saturates_instead_of_overflowing() {
        let query = sgc_query::catalog::path(70);
        let report = build_report(1, &query, Algorithm::DegreeBased).unwrap();
        let chosen = report.chosen_candidate();
        let rows = chosen.blocks.iter().map(|b| b.predicted_rows);
        assert_eq!(rows.max(), Some(u64::MAX));
        assert_eq!(chosen.predicted_rows, u64::MAX);
        let text = report.to_string();
        assert!(text.contains(&format!("predicted rows <= {}", u64::MAX)));
    }
}
