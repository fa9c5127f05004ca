//! A standalone counting server: bind a graph, serve it over TCP.
//!
//! Run with:
//! ```text
//! cargo run --release --example sgc_server -- [--addr HOST:PORT] \
//!     [--graph NAME] [--scale F] [--seed N] [--workers N]
//! ```
//!
//! `--addr` defaults to `127.0.0.1:0` (ephemeral port; the bound address is
//! printed as `listening on ADDR` once the server is ready). `--graph`
//! accepts `karate` (default, Zachary's karate club) or any Table 1 analog
//! from the generator catalog (`enron`, `astroph`, …), sized by `--scale`.
//!
//! The process serves until stdin reaches EOF or a line reading `stop`
//! arrives — which is how the CI smoke job drives a clean shutdown — then
//! drains in-flight jobs and prints the end-of-run metrics exposition to
//! stderr: the same `name value` lines the `stats` wire verb returns.

use std::io::BufRead;
use std::process::ExitCode;
use std::sync::Arc;
use subgraph_counting::gen::catalog::spec_by_name;
use subgraph_counting::gen::small::karate_club;
use subgraph_counting::graph::CsrGraph;
use subgraph_counting::net::{Server, ServerConfig};

struct Options {
    addr: String,
    graph: String,
    scale: f64,
    seed: u64,
    workers: Option<usize>,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        addr: "127.0.0.1:0".to_string(),
        graph: "karate".to_string(),
        scale: 1.0 / 64.0,
        seed: 1,
        workers: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--addr" => options.addr = value("--addr")?,
            "--graph" => options.graph = value("--graph")?,
            "--scale" => {
                options.scale = value("--scale")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?
            }
            "--seed" => {
                options.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--workers" => {
                options.workers = Some(
                    value("--workers")?
                        .parse()
                        .map_err(|e| format!("--workers: {e}"))?,
                )
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(options)
}

fn build_graph(options: &Options) -> Result<CsrGraph, String> {
    if options.graph == "karate" {
        return Ok(karate_club());
    }
    match spec_by_name(&options.graph) {
        Some(spec) => Ok(spec.generate(options.scale, options.seed)),
        None => Err(format!(
            "unknown graph {:?} (try `karate` or a Table 1 name like `enron`)",
            options.graph
        )),
    }
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    let graph = match build_graph(&options) {
        Ok(graph) => graph,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "graph: {} ({} vertices, {} edges)",
        options.graph,
        graph.num_vertices(),
        graph.num_edges()
    );
    let mut config = ServerConfig::default();
    if let Some(workers) = options.workers {
        config.service.workers = workers;
    }
    let mut server = match Server::bind(&options.addr, Arc::new(graph), config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: failed to bind {}: {e}", options.addr);
            return ExitCode::FAILURE;
        }
    };
    // The readiness line scripts wait for; everything else goes to stderr.
    println!("listening on {}", server.local_addr());

    // Serve until EOF or an explicit `stop` line on stdin.
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(line) if line.trim() == "stop" => break,
            Ok(_) => continue,
            Err(_) => break,
        }
    }
    eprintln!("shutting down");
    let exposition = server.exposition();
    server.shutdown();
    eprintln!("{exposition}");
    ExitCode::SUCCESS
}
