//! `perf` — the repository's benchmark.
//!
//! One harness, four named workloads, five end-to-end metrics every workload
//! reports, and a traced run that adds the per-layer metrics by timing calls
//! into each crate's public functions from outside. See `README.md` beside
//! this file for what each workload and metric means and how they interact.
//!
//! ```text
//! perf --workload sweep-skew --seed 1 --seconds 26 --trace 0   # one run, result on the last line
//! perf --workload serve-mix --trace 1                          # the traced run: per-layer metrics
//! perf                                                         # every workload, each in a child process
//! perf --repeat 10 --check                                     # ten sets of one seed: spreads against the bounds
//! perf --smoke                                                 # tiny inputs, every workload, in-process
//! ```
//!
//! The harness only calls API that no open ROADMAP item plans to remove (no
//! `KernelKind`, `EstimateConfig`, deprecated shims, scalar tables,
//! `sgc_dyn::run_trials` or `sgc_bench` helpers), builds config structs with
//! `..Default::default()`, and reads the exposition by name.

mod envinfo;
mod inputs;
mod json;
mod micro;
mod names;
mod stats;
mod trace;
mod verify;
mod wl_dynamic;
mod wl_serve;
mod wl_trials;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant;

use envinfo::Environment;
use inputs::Sizes;
use names::{Workload, END_TO_END, PER_LAYER};
use stats::LatencySummary;
use trace::Tracer;
use verify::{Checksum, Tally, DEFAULT_SEED};

/// What one run is asked to do.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed section.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics) or the plain one
    /// (end-to-end metrics, recorder off).
    pub trace: bool,
    pub sizes: Sizes,
    pub smoke: bool,
}

impl RunConfig {
    pub fn size_name(&self) -> &'static str {
        if self.smoke {
            "smoke"
        } else {
            "default"
        }
    }
}

/// What a workload hands back: enough to derive every end-to-end metric,
/// plus whatever per-layer values it measured.
#[derive(Default)]
pub struct Outcome {
    pub tally: Tally,
    /// One entry per set-up repetition.
    pub setup_s: Vec<f64>,
    /// Operations completed in the throughput section and the wall time of
    /// that section, start to end.
    pub ops: u64,
    pub ops_wall_s: f64,
    /// The latency section's samples, in ms.
    pub latency: LatencySummary,
    /// `VmHWM` as read right after the timed section.
    pub peak_rss_mb: f64,
    /// Per-layer values (traced run); names from [`names::PER_LAYER`].
    pub layers: BTreeMap<&'static str, f64>,
    /// Facts for the report: input sizes, sample counts, constants.
    pub notes: Vec<(&'static str, String)>,
    /// Checksum of the reference counts the run was checked against.
    pub checksum: Checksum,
}

impl Outcome {
    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.notes.push((key, value.to_string()));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        self.layers.insert(name, value);
    }

    /// Call right before the timed section: from here on the kernel's
    /// high-water mark is the section's own.
    pub fn timed_section_starts(&mut self) {
        let scope = if envinfo::reset_peak_rss() {
            "of the timed section (high-water mark reset before it)"
        } else {
            "of the whole process (the high-water mark could not be reset)"
        };
        self.note(
            "peak_rss",
            format!("{scope}; {:.1} MB resident at its start", envinfo::rss_mb()),
        );
    }

    /// Call right after the timed section, before anything is computed from
    /// its samples.
    pub fn timed_section_ended(&mut self) {
        self.peak_rss_mb = envinfo::peak_rss_mb();
    }
}

/// Runs `f` and returns its result with the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed().as_secs_f64())
}

/// The run's first set-up, the one the timed section runs on.
pub fn first_set_up<B>(outcome: &mut Outcome, set_up: impl FnOnce() -> B) -> B {
    let (bound, s) = timed(set_up);
    outcome.setup_s.push(s);
    bound
}

/// The rest of the set-ups the workload's size asks for, each dropped before
/// the next is built; `setup_s` is the median over all of them, and `each`
/// sees every one, for the per-layer timings it carries. They come after the
/// timed section, once its set-up is dropped: a dozen servers or bound graphs
/// built and torn down before it left the allocator's arenas in a state that
/// differed from run to run, and `peak_rss_mb` with it.
pub fn more_set_ups<B>(
    cfg: &RunConfig,
    outcome: &mut Outcome,
    mut set_up: impl FnMut() -> B,
    mut each: impl FnMut(&B),
) {
    let position = Workload::ALL.iter().position(|w| *w == cfg.workload);
    let reps = cfg.sizes.setup_reps[position.expect("a listed workload")];
    for _ in 1..reps {
        let (bound, s) = timed(&mut set_up);
        outcome.setup_s.push(s);
        each(&bound);
    }
}

/// The size line of a data graph, for the report.
pub fn graph_note(graph: &subgraph_counting::graph::CsrGraph) -> String {
    format!(
        "{} vertices, {} edges, max degree {}",
        graph.num_vertices(),
        graph.num_edges(),
        graph.max_degree()
    )
}

/// `span_<stage>_total_ns` of every stage, read from the program's own
/// exposition by name; unknown lines are ignored.
pub fn stage_totals_ns() -> BTreeMap<String, u64> {
    let exposition = subgraph_counting::obs::global().render();
    exposition
        .lines()
        .filter_map(|line| {
            let (name, value) = line.split_once(' ')?;
            let stage = name.strip_prefix("span_")?.strip_suffix("_total_ns")?;
            Some((stage.to_string(), value.trim().parse().ok()?))
        })
        .collect()
}

/// Fills `obs.stage_ms.<stage>` with the growth of each stage's total
/// between two exposition readings, per completed operation. The exposition
/// has a line for every stage the program knows, busy or not, so a stage
/// without one is gone or renamed: it stays unmeasured and the report says so.
pub fn record_stage_ms(
    outcome: &mut Outcome,
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
    ops: u64,
) {
    for (stage, metric) in names::OBS_STAGES.iter().zip(
        PER_LAYER
            .iter()
            .filter(|m| m.name.starts_with("obs.stage_ms.")),
    ) {
        match (before.get(*stage), after.get(*stage)) {
            (Some(b), Some(a)) => {
                let delta = a.saturating_sub(*b) as f64;
                outcome.layer(metric.name, delta / 1e6 / ops.max(1) as f64);
            }
            _ => outcome.note("stage_absent_from_exposition", stage),
        }
    }
}

/// Where the traced run writes its spans: the build directory, which is
/// inside the checkout and ignored by git.
fn trace_path(workload: Workload) -> std::path::PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    std::path::Path::new(&target)
        .join("perf")
        .join(format!("trace-{}.jsonl", workload.name()))
}

/// A finished run: the metric values by name, and the report around them.
pub struct Record {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in table order; `None` for a per-layer metric
    /// the workload did not measure.
    pub metrics: Vec<(&'static str, Option<f64>, &'static str)>,
    pub report: String,
}

impl Record {
    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    /// The line's contract wants every metric of the run's table with a
    /// number, so an unmeasured per-layer metric is written as 0 here; the
    /// report above the line is where it reads `not measured`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json::num(value.unwrap_or(0.0))
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs one workload in this process and turns its outcome into a record.
pub fn run_workload(cfg: &RunConfig, env: &Environment) -> Record {
    let tracer = Tracer::new(cfg.trace);
    let wall = Instant::now();
    let mut outcome = match cfg.workload {
        Workload::SweepSkew | Workload::ShardRoad => wl_trials::run(cfg, env, &tracer),
        Workload::ServeMix => wl_serve::run(cfg, env, &tracer),
        Workload::DynStream => wl_dynamic::run(cfg, env, &tracer),
    };
    if cfg.trace {
        micro::run(cfg, env, &mut outcome);
        let spans = tracer.snapshot();
        let by_layer = trace::self_time_ms_by_layer(&spans);
        let total: f64 = by_layer.values().sum();
        let bench = by_layer.get("bench").copied().unwrap_or(0.0);
        outcome.layer(
            "bench.harness_share_pct",
            if total > 0.0 {
                100.0 * bench / total
            } else {
                0.0
            },
        );
        let self_times: Vec<String> = by_layer
            .iter()
            .map(|(layer, ms)| format!("{layer}={ms:.1}"))
            .collect();
        outcome.note("trace_self_ms_by_layer", self_times.join(" "));
        outcome.note("trace_spans", spans.len());
        let path = trace_path(cfg.workload);
        match tracer.write_jsonl(&path, cfg.workload.name()) {
            Ok(()) => outcome.note("trace_file", path.display()),
            Err(e) => outcome.note("trace_file", format!("not written: {e}")),
        }
    }

    // The committed checksum pins the reference counts at the default seed;
    // at any other seed the cross-path identity check is the oracle.
    let expected = verify::expected(cfg.workload, cfg.size_name(), cfg.seed);
    if let Some(expected) = expected {
        let line = |sum| verify::expected_line(cfg.workload, cfg.size_name(), cfg.seed, sum);
        outcome.tally.check(expected == outcome.checksum, || {
            format!(
                "reference counts changed: expected.tsv has `{}`, this run `{}`",
                line(expected),
                line(outcome.checksum)
            )
        });
    }

    let metrics: Vec<(&'static str, Option<f64>, &'static str)> = if cfg.trace {
        PER_LAYER
            .iter()
            .map(|m| (m.name, outcome.layers.get(m.name).copied(), m.unit))
            .collect()
    } else {
        let value = |name: &str| match name {
            "setup_s" => stats::median(&outcome.setup_s),
            "ops_per_s" => outcome.ops as f64 / outcome.ops_wall_s,
            "op_ms_p50" => outcome.latency.typical_ms,
            "op_ms_p90" => outcome.latency.tail_ms,
            "peak_rss_mb" => outcome.peak_rss_mb,
            other => unreachable!("no rule for end-to-end metric {other}"),
        };
        END_TO_END
            .iter()
            .map(|m| (m.name, Some(value(m.name)), m.unit))
            .collect()
    };
    // An end-to-end metric is a positive number or the run is void; a
    // per-layer metric may be 0, negative (an overhead within noise) or
    // unmeasured.
    let unsound: Vec<&str> = metrics
        .iter()
        .filter(|(_, value, _)| match value {
            Some(v) if cfg.trace => !v.is_finite(),
            Some(v) => !(v.is_finite() && *v > 0.0),
            None => false,
        })
        .map(|(name, _, _)| *name)
        .collect();

    let mut report = String::new();
    let mut line = |s: String| {
        report.push_str(&s);
        report.push('\n');
    };
    line(format!(
        "== {} ({}) seed {} size {} ==",
        cfg.workload.name(),
        if cfg.trace { "traced" } else { "end to end" },
        cfg.seed,
        cfg.size_name()
    ));
    line(format!(
        "env: nproc {} | L2 {} KiB | L3 {} KiB | {} | commit {}",
        env.nproc, env.l2_kib, env.l3_kib, env.rustc, env.commit
    ));
    for (key, value) in &outcome.notes {
        line(format!("  {key}: {value}"));
    }
    let set_ups: Vec<String> = outcome.setup_s.iter().map(|s| format!("{s:.4}")).collect();
    line(format!("  set-ups (s): {}", set_ups.join(" ")));
    line(format!(
        "  samples: {} set-ups, {} latency samples, {} throughput ops in {:.2} s, run wall {:.1} s",
        outcome.setup_s.len(),
        outcome.latency.samples,
        outcome.ops,
        outcome.ops_wall_s,
        wall.elapsed().as_secs_f64()
    ));
    let classes: Vec<String> = outcome
        .latency
        .class_medians
        .iter()
        .map(|(n, ms)| format!("{ms:.3} ms (n={n})"))
        .collect();
    line(format!(
        "  latency medians by class: {}",
        classes.join(", ")
    ));
    line(format!(
        "  reference: {}",
        verify::expected_line(cfg.workload, cfg.size_name(), cfg.seed, outcome.checksum)
    ));
    for (name, value, unit) in &metrics {
        let better = END_TO_END
            .iter()
            .map(|m| (m.name, m.better))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.better)))
            .find(|(n, _)| n == name)
            .map_or("", |(_, better)| better);
        let value = value.map_or("not measured".to_string(), |v| format!("{v:.4}"));
        line(format!(
            "  {name:<40} {value:>16} {unit:<6} ({better} is better)"
        ));
    }
    for message in &outcome.tally.messages {
        line(format!("  FAILED: {message}"));
    }
    for name in &unsound {
        line(format!("  FAILED: {name} is not a measurement"));
    }
    let failed_share = outcome.tally.failed as f64 / outcome.tally.attempted.max(1) as f64;
    line(format!(
        "  failed_share {failed_share} ({} of {} checked operations)",
        outcome.tally.failed, outcome.tally.attempted
    ));

    Record {
        correct: outcome.tally.failed == 0 && unsound.is_empty(),
        attempted: outcome.tally.attempted.max(1),
        failed: outcome.tally.failed,
        metrics,
        report,
    }
}

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: usize,
    check: bool,
}

const USAGE: &str = "usage: perf [--workload NAME] [--seed N] [--seconds N] [--trace [0|1]] \
                     [--smoke] [--repeat N [--check]]";

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 26.0,
        trace: false,
        smoke: false,
        repeat: 0,
        check: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                cli.workload = Some(Workload::by_name(name).ok_or_else(|| {
                    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 3600.0)
                    .ok_or("--seconds: a positive number of seconds")?
            }
            "--repeat" => {
                cli.repeat = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--trace" => {
                // `--trace 0|1` as the driver passes it; a bare `--trace` is 1.
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => cli.smoke = true,
            "--check" => cli.check = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(cli)
}

/// Runs one workload in a fresh child process of this binary and returns
/// its parsed result line (the child's report is forwarded).
fn run_child(cli: &Cli, workload: Workload) -> Result<json::Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if cli.trace { "1" } else { "0" }]);
    if cli.smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, last) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", &stdout));
    println!("{report}");
    if !output.status.success() {
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        return Err(format!("{} exited with {}", workload.name(), output.status));
    }
    json::parse(last.trim())
}

fn metric_value(result: &json::Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Every workload, each in a fresh child process; with `repeat`, that many
/// sets of the same seed — the same inputs, so what differs between sets is
/// the machine's noise and nothing else — then median, quartiles and spread
/// per (metric, workload), and with `check` a non-zero exit when the spread
/// of an end-to-end metric exceeds its bound.
fn run_all(cli: &Cli) -> ExitCode {
    let sets = cli.repeat.max(1);
    let names: Vec<&'static str> = if cli.trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let mut all_ok = true;
    // values[workload][metric] = one value per set
    let mut values: Vec<BTreeMap<&'static str, Vec<f64>>> =
        vec![BTreeMap::new(); Workload::ALL.len()];
    for _ in 0..sets {
        for (w, workload) in Workload::ALL.into_iter().enumerate() {
            match run_child(cli, workload) {
                Ok(result) => {
                    all_ok &= result.get("correct") == Some(&json::Value::Bool(true));
                    for &name in &names {
                        if let Some(v) = metric_value(&result, name) {
                            values[w].entry(name).or_default().push(v);
                        }
                    }
                }
                Err(e) => {
                    eprintln!("perf: {e}");
                    all_ok = false;
                }
            }
        }
    }
    if sets > 1 {
        println!("== {sets} sets: median [q1, q3] spread (bound) ==");
        for (w, workload) in Workload::ALL.into_iter().enumerate() {
            for (name, v) in &values[w] {
                if v.len() < 2 {
                    continue;
                }
                let (q1, q3) = stats::quartiles_exclusive(v);
                let spread = stats::spread(v);
                let bound = END_TO_END.iter().find(|m| m.name == *name).map(|m| m.bound);
                let over = cli.check && bound.is_some_and(|b| spread.abs() > b);
                all_ok &= !over;
                println!(
                    "{:<12} {:<36} {:>14.4} [{:.4}, {:.4}] {:>6.1}%{}{}",
                    workload.name(),
                    name,
                    stats::median(v),
                    q1,
                    q3,
                    100.0 * spread,
                    bound.map_or(String::new(), |b| format!(" ({:.0}%)", 100.0 * b)),
                    if over { "  OVER BOUND" } else { "" }
                );
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("perf: {message}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = cli.workload else {
        return run_all(&cli);
    };
    let cfg = RunConfig {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        sizes: if cli.smoke {
            Sizes::SMOKE
        } else {
            Sizes::DEFAULT
        },
        smoke: cli.smoke,
    };
    let record = run_workload(&cfg, &Environment::detect());
    print!("{}", record.report);
    println!("{}", record.result_line());
    // A wrong count is reported in the result line (`correct: false`), not
    // by the exit code: the line is what the caller judges.
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn cli_takes_the_drivers_flags() {
        let cli = parse_cli(&args(
            "--workload dyn-stream --seed 9 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(cli.workload, Some(Workload::DynStream));
        assert_eq!((cli.seed, cli.seconds, cli.trace), (9, 3.0, true));
        assert!(!parse_cli(&args("--trace 0 --seed 2")).unwrap().trace);
        assert!(parse_cli(&args("--trace --smoke")).unwrap().trace);
        assert!(parse_cli(&args("--workload nope")).is_err());
        assert!(parse_cli(&args("--seconds 0")).is_err());
        assert!(parse_cli(&args("--frobnicate")).is_err());
    }

    /// The committed `BENCHMARK.json` and the tables in `names.rs` say the
    /// same thing, and the file keeps to the limits it is checked against.
    #[test]
    fn benchmark_json_matches_the_harness() {
        let text = include_str!("../../../../../BENCHMARK.json");
        assert!(text.len() <= 64 * 1024);
        let doc = json::parse(text).expect("BENCHMARK.json parses");
        let json::Value::Obj(top) = &doc else {
            panic!("BENCHMARK.json is not an object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let str_of =
            |v: &json::Value, k: &str| v.get(k).and_then(json::Value::as_str).unwrap().to_string();

        let workloads = doc.get("workloads").unwrap().as_array();
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (entry, w) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(str_of(entry, "name"), w.name());
            assert_eq!(str_of(entry, "why"), w.why());
        }
        let e2e = doc.get("end_to_end").unwrap().as_array();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(str_of(entry, "name"), m.name);
            assert_eq!(str_of(entry, "unit"), m.unit);
            assert_eq!(str_of(entry, "better"), m.better);
            assert_eq!(
                entry.get("bound").and_then(json::Value::as_f64),
                Some(m.bound)
            );
            assert!(m.bound <= 0.25);
        }
        let layers = doc.get("per_layer").unwrap().as_array();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(str_of(entry, "name"), m.name);
            assert_eq!(str_of(entry, "unit"), m.unit);
            assert_eq!(str_of(entry, "better"), m.better);
        }
        let seconds = doc
            .get("run_seconds")
            .and_then(json::Value::as_f64)
            .unwrap();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
        let paths = doc.get("paths").unwrap().as_array();
        assert_eq!(paths.len(), 1);
        let path = paths[0].as_str().unwrap();
        for part in doc.get("command").unwrap().as_array() {
            let part = part.as_str().unwrap();
            assert!(!part.starts_with('/') && !part.contains(".."));
            assert!(!part.contains('/') || part.starts_with(path));
        }
    }

    /// Every workload at the smoke size, plain and traced: the result line
    /// parses, carries exactly the metric names of its table once each, and
    /// every operation checks out.
    #[test]
    fn smoke_runs_carry_every_metric_exactly_once() {
        let env = Environment::detect();
        for workload in Workload::ALL {
            for trace in [false, true] {
                let cfg = RunConfig {
                    workload,
                    seed: DEFAULT_SEED,
                    seconds: 0.3,
                    trace,
                    sizes: Sizes::SMOKE,
                    smoke: true,
                };
                let record = run_workload(&cfg, &env);
                let line = record.result_line();
                // The parser rejects duplicate keys, so "once" is checked here.
                let doc = json::parse(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
                let json::Value::Obj(top) = &doc else {
                    panic!()
                };
                let keys: Vec<&str> = top.keys().map(String::as_str).collect();
                assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
                assert!(record.correct, "{}:\n{}", workload.name(), record.report);
                assert_eq!(record.failed, 0);
                assert!(record.attempted >= 1);
                let json::Value::Obj(metrics) = doc.get("metrics").unwrap() else {
                    panic!()
                };
                let got: Vec<&str> = metrics.keys().map(String::as_str).collect();
                let mut want: Vec<&str> = if trace {
                    PER_LAYER.iter().map(|m| m.name).collect()
                } else {
                    END_TO_END.iter().map(|m| m.name).collect()
                };
                want.sort_unstable();
                assert_eq!(got, want, "{} trace={trace}", workload.name());
                if !trace {
                    for (name, value, _) in &record.metrics {
                        let positive = value.is_some_and(|v| v > 0.0);
                        assert!(positive, "{name} is {value:?} on {}", workload.name());
                    }
                }
            }
        }
    }
}
