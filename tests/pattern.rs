//! The pattern front door, end to end.
//!
//! * parse/render round trip: `render(q).parse() == q`, property-tested on
//!   random connected query graphs (and graphs with isolated nodes),
//! * text path ≡ constructor path: counting a parsed pattern is
//!   bit-identical to counting the equivalent catalog constructor, for
//!   every registered query, through both the `Engine` and the `Service`
//!   (where the two paths also share one result-cache entry),
//! * `explain` agrees with the planner: the chosen candidate is exactly the
//!   heuristic plan the engine caches,
//! * malformed patterns surface as spanned typed errors at every layer,
//!   never as panics.

use proptest::prelude::*;
use std::sync::Arc;
use subgraph_counting::gen::erdos_renyi::gnp;
use subgraph_counting::query::{catalog, heuristic_plan, PlanCost};
use subgraph_counting::{
    CountJob, Engine, Pattern, PatternErrorKind, QueryGraph, Registry, Service, ServiceConfig,
    SgcError,
};

/// A connected query on `n` nodes: a spanning path plus whatever extra
/// simple edges the selectors produce.
fn connected_query(n: usize, extras: &[(u8, u8)]) -> QueryGraph {
    let mut q = QueryGraph::new(n);
    for i in 1..n {
        q.add_edge((i - 1) as u8, i as u8).unwrap();
    }
    for &(a, b) in extras {
        let a = (a as usize % n) as u8;
        let b = (b as usize % n) as u8;
        if a != b && !q.has_edge(a, b) {
            q.add_edge(a, b).unwrap();
        }
    }
    q
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `parse(render(q)) == q` on random connected query graphs.
    #[test]
    fn parse_render_round_trip_on_connected_queries(
        n in 2usize..13,
        extras in proptest::collection::vec((0u8..13, 0u8..13), 0..24),
    ) {
        let q = connected_query(n, &extras);
        prop_assert!(q.is_connected());
        let rendered = q.to_string();
        let reparsed: QueryGraph = rendered.parse().unwrap();
        prop_assert_eq!(&reparsed, &q, "round trip through {}", rendered);
        // The rendered form is also what Pattern::from_query carries.
        let wrapped = Pattern::from_query(q.clone());
        prop_assert_eq!(wrapped.text(), rendered.as_str());
    }

    /// The round trip also preserves isolated nodes (no spanning path).
    #[test]
    fn parse_render_round_trip_with_isolated_nodes(
        n in 1usize..13,
        extras in proptest::collection::vec((0u8..13, 0u8..13), 0..16),
    ) {
        let mut q = QueryGraph::new(n);
        for &(a, b) in &extras {
            let a = (a as usize % n) as u8;
            let b = (b as usize % n) as u8;
            if a != b && !q.has_edge(a, b) {
                q.add_edge(a, b).unwrap();
            }
        }
        let reparsed: QueryGraph = q.to_string().parse().unwrap();
        prop_assert_eq!(reparsed, q);
    }
}

#[test]
fn every_catalog_query_is_expressible_and_counts_bit_identically() {
    let graph = gnp(40, 0.2, 11);
    let engine = Engine::new(&graph);
    for name in catalog::names() {
        let built = catalog::query_by_name(name).unwrap();
        let by_ctor = engine
            .count(&built)
            .trials(3)
            .seed(99)
            .estimate()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        // Three equivalent texts: the registered name, the canonical
        // numeric render, and (via Pattern) the parsed wrapper.
        for text in [name.to_string(), built.to_string()] {
            let by_text = engine
                .count_str(&text)
                .unwrap_or_else(|e| panic!("{name} as {text:?}: {e}"))
                .trials(3)
                .seed(99)
                .estimate()
                .unwrap();
            assert_eq!(by_text.per_trial, by_ctor.per_trial, "{name} via {text:?}");
            assert_eq!(
                by_text.estimated_matches.to_bits(),
                by_ctor.estimated_matches.to_bits(),
                "{name} via {text:?}"
            );
        }
        let pattern = Pattern::parse(name).unwrap();
        let via_pattern = engine
            .count(&pattern)
            .trials(3)
            .seed(99)
            .estimate()
            .unwrap();
        assert_eq!(via_pattern.per_trial, by_ctor.per_trial);
    }
    // The text and constructor paths also share plan-cache entries: 11
    // catalog queries counted 4 ways each is still 11 cached plans.
    assert_eq!(engine.cached_plans(), catalog::names().len());
}

#[test]
fn generator_texts_match_their_constructors_through_the_engine() {
    let graph = gnp(32, 0.2, 3);
    let engine = Engine::new(&graph);
    for (text, query) in [
        ("cycle(5)", catalog::cycle(5)),
        ("path(4)", catalog::path(4)),
        ("star(6)", catalog::star(6)),
        ("clique(3)", catalog::clique(3)),
        ("binary_tree(3)", catalog::binary_tree(3)),
        ("a-b, b-c, c-a", catalog::triangle()),
    ] {
        let by_text = engine
            .count_str(text)
            .unwrap()
            .trials(4)
            .seed(5)
            .estimate()
            .unwrap();
        let by_ctor = engine.count(&query).trials(4).seed(5).estimate().unwrap();
        assert_eq!(by_text.per_trial, by_ctor.per_trial, "{text}");
    }
}

#[test]
fn text_and_constructor_jobs_share_one_service_cache_entry() {
    let graph = Arc::new(gnp(32, 0.2, 7));
    let service = Service::with_config(
        graph,
        ServiceConfig {
            workers: 1,
            queue_capacity: 16,
            chunk_trials: 4,
            ..ServiceConfig::default()
        },
    );
    let by_text = service
        .run(CountJob::from_pattern_str("glet1").unwrap().budget(8))
        .unwrap();
    let by_ctor = service
        .run(CountJob::new(catalog::glet1()).budget(8))
        .unwrap();
    assert!(!by_text.from_cache);
    assert!(by_ctor.from_cache, "identical canonical key: must be a hit");
    assert_eq!(by_text.estimate.per_trial, by_ctor.estimate.per_trial);
    assert_eq!(
        by_text.estimate.estimated_matches.to_bits(),
        by_ctor.estimate.estimated_matches.to_bits()
    );
    let metrics = service.metrics();
    assert_eq!(metrics.cache_misses, 1);
    assert_eq!(metrics.cache_hits, 1);
    // An equivalent edge-list text joins the same entry too.
    let by_render = service
        .run(
            CountJob::from_pattern_str(&catalog::glet1().to_string())
                .unwrap()
                .budget(8),
        )
        .unwrap();
    assert!(by_render.from_cache);
}

#[test]
fn explain_reports_the_exact_plan_the_engine_runs() {
    let graph = gnp(32, 0.2, 1);
    let engine = Engine::new(&graph);
    for name in catalog::names() {
        let query = catalog::query_by_name(name).unwrap();
        let report = engine.explain(&query).unwrap();
        let heuristic = heuristic_plan(&query).unwrap();
        assert_eq!(
            report.chosen_candidate().signature,
            heuristic.signature(),
            "{name}: explain must pick what the engine caches"
        );
        assert_eq!(report.chosen_candidate().cost, PlanCost::of(&heuristic));
        assert!(report.chosen_candidate().chosen);
        assert_eq!(report.num_nodes, query.num_nodes());
        assert_eq!(report.graph_vertices, graph.num_vertices());
        // explain_str over the name agrees with explain over the query.
        assert_eq!(engine.explain_str(name).unwrap(), report, "{name}");
        // The report's pattern field re-parses to the same query.
        assert_eq!(report.pattern.parse::<QueryGraph>().unwrap(), query);
        // The rendered text mentions every candidate.
        let text = report.to_string();
        assert!(text.contains("<-- chosen"), "{name}: {text}");
        assert!(text.contains(&format!(
            "{} candidate decomposition(s)",
            report.candidates.len()
        )));
    }
}

#[test]
fn malformed_patterns_are_spanned_errors_at_every_layer() {
    let graph = gnp(16, 0.2, 0);
    let engine = Engine::new(&graph);
    for bad in [
        "", "a-a", "a--b", "cycle()", "cycle(2)", "glet99", "0-199", "a b", "a-b,,c",
    ] {
        // Engine layer.
        match engine.count_str(bad).err() {
            Some(SgcError::Pattern(e)) => {
                assert!(e.span().end <= bad.len().max(1), "{bad}: {e:?}");
                assert!(!e.diagnostic().is_empty());
            }
            other => panic!("{bad}: expected SgcError::Pattern, got {other:?}"),
        }
        assert!(matches!(engine.explain_str(bad), Err(SgcError::Pattern(_))));
        // Service layer (rejected before submission).
        assert!(CountJob::from_pattern_str(bad).is_err(), "{bad}");
        // Query layer.
        assert!(bad.parse::<QueryGraph>().is_err(), "{bad}");
    }
    // Well-formed but unplannable: typed Query errors, not Pattern ones.
    assert!(matches!(
        engine.count_str("clique(4)").unwrap().run(),
        Err(SgcError::Query(_))
    ));
    assert!(matches!(
        engine.explain_str("a-b, c-d"),
        Err(SgcError::Query(_))
    ));
}

#[test]
fn runtime_registered_patterns_flow_through_parse_with() {
    let mut registry = Registry::with_catalog();
    let bowtie: QueryGraph = "a-b-c-a, c-d-e-c".parse().unwrap();
    registry
        .register("bowtie", "two triangles sharing a node", bowtie.clone())
        .unwrap();
    let pattern = Pattern::parse_with(&registry, "bowtie").unwrap();
    assert_eq!(*pattern, bowtie);
    // Unknown in the builtin registry, with the known-name list in the error.
    match Pattern::parse("bowtie").unwrap_err().kind() {
        PatternErrorKind::UnknownName { known, .. } => {
            assert!(known.iter().any(|n| n == "satellite"));
        }
        other => panic!("expected UnknownName, got {other:?}"),
    }
    // The registered pattern counts like its edge-list text.
    let graph = gnp(24, 0.25, 2);
    let engine = Engine::new(&graph);
    let via_registry = engine.count(&pattern).trials(3).seed(1).estimate().unwrap();
    let via_text = engine
        .count_str("a-b-c-a, c-d-e-c")
        .unwrap()
        .trials(3)
        .seed(1)
        .estimate()
        .unwrap();
    assert_eq!(via_registry.per_trial, via_text.per_trial);
}
