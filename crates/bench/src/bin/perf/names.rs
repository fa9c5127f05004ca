//! The benchmark's fixed vocabulary: workload names and every metric with
//! its unit and direction. `BENCHMARK.json` at the repository root repeats
//! these tables; a unit test keeps the two identical.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SweepSkew,
    ShardRoad,
    ServeMix,
    DynStream,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SweepSkew,
        Workload::ShardRoad,
        Workload::ServeMix,
        Workload::DynStream,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepSkew => "sweep-skew",
            Workload::ShardRoad => "shard-road",
            Workload::ServeMix => "serve-mix",
            Workload::DynStream => "dyn-stream",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (the `why` of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::SweepSkew => "serial Engine trials of five motifs on a skewed 14k-vertex graph whose DP tables leave L2: the paper's Fig. 9 case; only core and engine work",
            Workload::ShardRoad => "the same trials sharded over nproc threads on a low-skew 60k-vertex road graph: many rows per op, so exchange, table export and coloring carry the cost",
            Workload::ServeMix => "count jobs over TCP: distinct jobs at a fixed arrival rate, then back to back (cache misses through decode, queue, DP, socket), then repeats of cached jobs (net and cache only)",
            Workload::DynStream => "edge deltas on a live Service: first with two watchers re-counting on the mutator's thread, then unwatched with an incremental recount at each new head",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms_p90",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "higher",
    }
}

/// Every per-layer metric, `<crate>.<what>`. A traced run of any workload
/// prints all of them; one the workload does not measure reads `not measured`
/// in the report and 0 in the result line.
pub const PER_LAYER: [PerLayer; 83] = [
    lower("gen.generate_ms", "ms"),
    lower("graph.build_ms", "ms"),
    lower("graph.coloring_us", "us"),
    lower("graph.snapshot_apply_us", "us"),
    lower("graph.materialize_ms", "ms"),
    higher("graph.segments_shared_share", "ratio"),
    lower("query.parse_us", "us"),
    lower("query.canonical_key_us", "us"),
    lower("query.plan_us", "us"),
    lower("engine.add_ns", "ns"),
    lower("engine.get_ns", "ns"),
    lower("engine.groups_build_ns", "ns"),
    lower("engine.add_ns_small", "ns"),
    lower("engine.get_ns_small", "ns"),
    lower("engine.groups_build_ns_small", "ns"),
    lower("engine.bytes_per_row", "B"),
    lower("core.bind_ms", "ms"),
    lower("core.trial_ms.youtube", "ms"),
    lower("core.trial_ms.glet1", "ms"),
    lower("core.trial_ms.ecoli1", "ms"),
    lower("core.trial_ms.wiki", "ms"),
    lower("core.trial_ms.dros", "ms"),
    lower("core.trial_ms.brain1", "ms"),
    lower("core.ops_per_trial", "count"),
    lower("core.entries_per_trial", "count"),
    lower("core.peak_table_entries", "count"),
    lower("core.peak_table_mb", "MB"),
    lower("core.ns_per_op", "ns"),
    lower("core.arena_grown_mb", "MB"),
    lower("core.ps_over_db", "ratio"),
    lower("core.shard_over_serial", "ratio"),
    higher("core.shard_speedup", "ratio"),
    lower("core.shard_imbalance", "ratio"),
    lower("core.entries_exchanged_per_trial", "count"),
    lower("core.exchange_rounds_per_trial", "count"),
    higher("core.batch_speedup", "ratio"),
    higher("core.batch_colorings_shared_share", "ratio"),
    higher("core.batch_dp_shared_share", "ratio"),
    higher("core.estimate_par_speedup", "ratio"),
    lower("core.rel_halfwidth_pct", "%"),
    lower("dyn.apply_to_head_us", "us"),
    lower("dyn.data_at_ms", "ms"),
    lower("dyn.recount_over_scratch", "ratio"),
    lower("dyn.rss_kb_per_delta", "kB"),
    lower("service.submit_us", "us"),
    lower("service.hit_us", "us"),
    lower("service.cold_job_ms", "ms"),
    lower("service.first_chunk_ms", "ms"),
    lower("service.overhead_pct", "%"),
    higher("service.cache_hit_share", "ratio"),
    lower("service.jobs_rejected", "count"),
    lower("service.queue_depth_max", "count"),
    lower("service.delta_ack_w0_us", "us"),
    lower("service.ack_ms_per_watcher", "ms"),
    lower("service.watch_register_ms", "ms"),
    lower("net.encode_req_ns", "ns"),
    lower("net.decode_req_ns", "ns"),
    lower("net.encode_final_ns", "ns"),
    lower("net.decode_final_ns", "ns"),
    lower("net.final_frame_bytes", "B"),
    lower("net.ping_us", "us"),
    lower("net.connect_us", "us"),
    lower("net.wire_over_service_us", "us"),
    lower("net.frames_per_job", "count"),
    lower("net.hit_us_p99", "us"),
    lower("obs.overhead_pct", "%"),
    lower("obs.span_enabled_ns", "ns"),
    lower("obs.span_disabled_ns", "ns"),
    lower("obs.render_us", "us"),
    lower("obs.stage_ms.bind", "ms"),
    lower("obs.stage_ms.plan", "ms"),
    lower("obs.stage_ms.coloring", "ms"),
    lower("obs.stage_ms.dp_block_columnar", "ms"),
    lower("obs.stage_ms.exchange", "ms"),
    lower("obs.stage_ms.estimator_chunk", "ms"),
    lower("obs.stage_ms.cache", "ms"),
    lower("obs.stage_ms.net_encode", "ms"),
    lower("obs.stage_ms.net_write", "ms"),
    lower("obs.stage_ms.delta_apply", "ms"),
    lower("obs.stage_ms.dp_recount_replay", "ms"),
    lower("bench.late_ms_p95", "ms"),
    lower("bench.trace_overhead_pct", "%"),
    lower("bench.harness_share_pct", "%"),
];

/// The stages whose `span_<stage>_total_ns` exposition lines feed
/// `obs.stage_ms.<stage>`.
pub const OBS_STAGES: [&str; 11] = [
    "bind",
    "plan",
    "coloring",
    "dp_block_columnar",
    "exchange",
    "estimator_chunk",
    "cache",
    "net_encode",
    "net_write",
    "delta_apply",
    "dp_recount_replay",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        all.extend(PER_LAYER.iter().map(|m| m.name));
        all.extend(Workload::ALL.iter().map(|w| w.name()));
        let ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.as_bytes()[0].is_ascii_alphanumeric()
                && s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
        };
        assert!(all.iter().all(|n| ok(n)), "a name breaks the naming rule");
        let count = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), count, "a name is used twice");
        for stage in OBS_STAGES {
            let name = format!("obs.stage_ms.{stage}");
            assert!(PER_LAYER.iter().any(|m| m.name == name));
        }
        assert!(Workload::ALL
            .iter()
            .all(|w| Workload::by_name(w.name()) == Some(*w) && w.why().len() <= 200));
    }
}
