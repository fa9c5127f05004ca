//! Explain any pattern: a thin CLI over `engine.explain_str()`.
//!
//! Pass one or more patterns in the pattern language — edge lists
//! (`"a-b, b-c, c-a"`), generator macros (`cycle(5)`, `star(6)`), or
//! registered names (`glet1`, `brain2`, `satellite`) — and the explorer
//! prints each pattern's explain report (candidate decomposition trees with
//! their plan-cost vectors, the heuristic's choice, treewidth verdict,
//! automorphisms, predicted table bounds) and then counts it, demonstrating
//! the text front door end to end. With no arguments it walks the whole
//! built-in registry.
//!
//! Run with:
//! ```text
//! cargo run --release --example plan_explorer -- "a-b, b-c, c-a" "cycle(5)" brain1
//! cargo run --release --example plan_explorer            # the catalog suite
//! ```
//!
//! Malformed patterns exit with a caret diagnostic instead of a panic:
//! ```text
//! error: self loop on node `b`
//!   |
//!   | a-b, b-b
//!   |      ^^^
//! ```

use std::process::ExitCode;
use subgraph_counting::{Engine, Registry, SgcError};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let patterns: Vec<String> = if args.is_empty() {
        println!("no patterns given; exploring the built-in registry\n");
        Registry::builtin()
            .names()
            .iter()
            .map(|n| n.to_string())
            .collect()
    } else {
        args
    };

    // A small Erdős–Rényi demo graph makes the predicted table bounds and
    // the final counts concrete.
    let graph = subgraph_counting::gen::erdos_renyi::gnp(48, 0.25, 5);
    let engine = Engine::new(&graph);

    for pattern in &patterns {
        let report = match engine.explain_str(pattern) {
            Ok(report) => report,
            Err(SgcError::Pattern(parse_error)) => {
                // The spanned caret diagnostic, straight from the error.
                eprintln!("{parse_error}");
                return ExitCode::FAILURE;
            }
            Err(other) => {
                eprintln!("error: `{pattern}` cannot be planned: {other}");
                return ExitCode::FAILURE;
            }
        };
        print!("{report}");

        // The same front door counts it: text in, estimate out.
        let estimate = engine
            .count_str(pattern)
            .expect("explained patterns always parse")
            .trials(8)
            .seed(7)
            .estimate()
            .expect("explained patterns always count");
        println!(
            "counted on G(48, 0.25): ~{:.1} matches (~{:.1} subgraphs) over {} trials\n",
            estimate.estimated_matches,
            estimate.estimated_subgraphs,
            estimate.per_trial.len()
        );
    }
    println!(
        "engine plan cache holds {} quer{} (explain does not populate it; counting does)",
        engine.cached_plans(),
        if engine.cached_plans() == 1 {
            "y"
        } else {
            "ies"
        }
    );
    ExitCode::SUCCESS
}
