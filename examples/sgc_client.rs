//! A command-line client for a running `sgc_server`.
//!
//! Run with:
//! ```text
//! cargo run --release --example sgc_client -- --addr HOST:PORT count 'cycle(5)' \
//!     [--seed N] [--budget N] [--precision F] [--algorithm db|ps]
//! cargo run --release --example sgc_client -- --addr HOST:PORT explain 'brain1'
//! cargo run --release --example sgc_client -- --addr HOST:PORT stats
//! cargo run --release --example sgc_client -- --addr HOST:PORT trace
//! cargo run --release --example sgc_client -- --addr HOST:PORT delta \
//!     [--insert U-V,U-V,...] [--delete U-V,U-V,...]
//! cargo run --release --example sgc_client -- --addr HOST:PORT watch 'cycle(5)' \
//!     [--seed N] [--budget N] [--frames N]
//! ```
//!
//! `count` prints one progress line per streamed estimate chunk to stderr
//! and the final result to stdout; it always answers on the graph the
//! server was started with (the root version), whatever deltas have landed
//! since. `delta` mutates the server's graph and prints the new version id;
//! `watch` is the verb that follows the head: it subscribes and prints one
//! version-tagged line per emission (the immediate one, then one per
//! delta, or one at the newest version when deltas outpace the count),
//! exiting after `--frames` emissions. Typed server errors (including spanned
//! pattern parse errors with their caret diagnostic) are printed to stderr
//! and exit nonzero — which is what the CI smoke job asserts.

use std::process::ExitCode;
use subgraph_counting::net::{Client, ClientError, StreamEvent};
use subgraph_counting::{Algorithm, Precision, StopReason};

struct Options {
    addr: String,
    verb: String,
    pattern: Option<String>,
    seed: u64,
    budget: u64,
    precision: Option<f64>,
    algorithm: Algorithm,
    inserts: Vec<(u32, u32)>,
    deletes: Vec<(u32, u32)>,
    frames: usize,
}

/// Parses a comma-separated edge list like `0-40,1-2`.
fn parse_edges(text: &str) -> Result<Vec<(u32, u32)>, String> {
    text.split(',')
        .filter(|pair| !pair.trim().is_empty())
        .map(|pair| {
            let (u, v) = pair
                .trim()
                .split_once('-')
                .ok_or_else(|| format!("expected U-V, got {pair:?}"))?;
            let u = u.trim().parse().map_err(|e| format!("{pair:?}: {e}"))?;
            let v = v.trim().parse().map_err(|e| format!("{pair:?}: {e}"))?;
            Ok((u, v))
        })
        .collect()
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        addr: String::new(),
        verb: String::new(),
        pattern: None,
        seed: 0x5eed,
        budget: 64,
        precision: None,
        algorithm: Algorithm::DegreeBased,
        inserts: Vec::new(),
        deletes: Vec::new(),
        frames: 0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} expects a value"));
        match arg.as_str() {
            "--addr" => options.addr = value("--addr")?,
            "--seed" => {
                options.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--budget" => {
                options.budget = value("--budget")?
                    .parse()
                    .map_err(|e| format!("--budget: {e}"))?
            }
            "--precision" => {
                options.precision = Some(
                    value("--precision")?
                        .parse()
                        .map_err(|e| format!("--precision: {e}"))?,
                )
            }
            "--insert" => options
                .inserts
                .extend(parse_edges(&value("--insert")?).map_err(|e| format!("--insert: {e}"))?),
            "--delete" => options
                .deletes
                .extend(parse_edges(&value("--delete")?).map_err(|e| format!("--delete: {e}"))?),
            "--frames" => {
                options.frames = value("--frames")?
                    .parse()
                    .map_err(|e| format!("--frames: {e}"))?
            }
            "--algorithm" => {
                options.algorithm = match value("--algorithm")?.as_str() {
                    "db" => Algorithm::DegreeBased,
                    "ps" => Algorithm::PathSplitting,
                    other => return Err(format!("--algorithm: expected db or ps, got {other}")),
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            positional if options.verb.is_empty() => options.verb = positional.to_string(),
            positional if options.pattern.is_none() => {
                options.pattern = Some(positional.to_string())
            }
            positional => return Err(format!("unexpected argument {positional}")),
        }
    }
    if options.addr.is_empty() {
        return Err("--addr HOST:PORT is required".to_string());
    }
    // Checked before `run` connects, so a mistyped command costs the server
    // nothing.
    const VERBS: [&str; 6] = ["count", "explain", "stats", "trace", "delta", "watch"];
    if !VERBS.contains(&options.verb.as_str()) {
        return Err(format!(
            "expected a verb (count, explain, stats, trace, delta, or watch), got {:?}",
            options.verb
        ));
    }
    if options.verb == "delta" && options.inserts.is_empty() && options.deletes.is_empty() {
        return Err("delta expects --insert and/or --delete edge lists".to_string());
    }
    Ok(options)
}

fn run(options: Options) -> Result<(), ClientError> {
    let mut client = Client::connect(&*options.addr)?;
    match options.verb.as_str() {
        "count" => {
            let pattern = options.pattern.as_deref().unwrap_or_default();
            let mut builder = client
                .count(pattern)
                .algorithm(options.algorithm)
                .seed(options.seed)
                .budget(options.budget);
            if let Some(target) = options.precision {
                builder = builder.precision(Precision::within(target));
            }
            let stream = builder.stream()?;
            let mut chunks = 0usize;
            for event in stream {
                match event? {
                    StreamEvent::Chunk(chunk) => {
                        chunks += 1;
                        eprintln!(
                            "chunk {:>3}: {:>5}/{} trials, estimate {:>14.2}, ±{:.2}%",
                            chunks,
                            chunk.trials_run,
                            chunk.budget,
                            chunk.estimated_subgraphs,
                            100.0 * chunk.relative_half_width
                        );
                    }
                    StreamEvent::Final(output) => {
                        let stop = match output.stop {
                            StopReason::BudgetExhausted => "budget exhausted",
                            StopReason::PrecisionMet => "precision met",
                            StopReason::Cancelled => "cancelled",
                        };
                        println!(
                            "pattern      {pattern}\n\
                             subgraphs    {:.2}\n\
                             matches      {:.2}\n\
                             trials       {}/{}\n\
                             stop         {stop}\n\
                             from_cache   {}",
                            output.estimate.estimated_subgraphs,
                            output.estimate.estimated_matches,
                            output.trials_run,
                            output.budget,
                            output.from_cache,
                        );
                    }
                }
            }
        }
        "watch" => {
            let pattern = options.pattern.as_deref().unwrap_or_default();
            let mut builder = client
                .count(pattern)
                .algorithm(options.algorithm)
                .seed(options.seed)
                .budget(options.budget);
            if let Some(target) = options.precision {
                builder = builder.precision(Precision::within(target));
            }
            let mut stream = builder.watch()?;
            let mut seen = 0usize;
            while let Some(frame) = stream.next() {
                let frame = frame?;
                println!(
                    "watch v{:016x}: {:>5}/{} trials, estimate {:>14.2}, ±{:.2}%",
                    frame.version,
                    frame.trials_run,
                    frame.budget,
                    frame.estimated_subgraphs,
                    100.0 * frame.relative_half_width
                );
                seen += 1;
                if options.frames > 0 && seen >= options.frames {
                    stream.cancel()?;
                }
            }
        }
        "delta" => {
            let version = client.apply_delta(&options.inserts, &options.deletes)?;
            println!("version {version:016x}");
        }
        "explain" => {
            let pattern = options.pattern.as_deref().unwrap_or_default();
            println!("{}", client.explain(pattern)?);
        }
        "stats" => {
            println!("{}", client.stats()?);
        }
        "trace" => {
            println!("{}", client.trace_log()?);
        }
        other => unreachable!("parse_args accepts no verb {other}"),
    }
    client.bye()
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    match run(options) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // `Display` on a remote parse error renders the caret
            // diagnostic the server forwarded from the pattern parser.
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
