//! The process-wide metrics registry and its text exposition.
//!
//! A [`Registry`] holds named counters and gauges published by the other
//! crates (engine run/shard/kernel counters, service counters, server
//! counters) and renders them — together with the per-stage span histograms
//! of [`crate::span`](mod@crate::span) — as one stable text exposition: one metric per line,
//! `name value`, names unique and sorted. New metrics are only ever added,
//! never renamed, so the line set is append-only across releases; the CI
//! `obs` job pins the current name list against a checked-in snapshot.
//!
//! Publication happens at job/run granularity (a mutex-guarded map update),
//! never inside kernel loops — the hot path only touches the static stage
//! histograms, which render here but live in `span`.

use crate::span::Stage;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

enum Metric {
    Counter(u64),
    Gauge(u64),
}

impl Metric {
    fn value(&self) -> u64 {
        match self {
            Metric::Counter(v) | Metric::Gauge(v) => *v,
        }
    }
}

/// A registry of named counters and gauges, rendered together with the
/// stage histograms as a `name value` text exposition.
///
/// Most callers want the process-wide [`global`] registry; independent
/// instances exist for tests.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<&'static str, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<&'static str, Metric>> {
        // The map only ever holds plain integers; a panicking publisher
        // cannot leave it torn, so poisoning is recovered from.
        self.metrics
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Adds `delta` to the named monotonic counter (created at zero).
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        let mut map = self.lock();
        match map.entry(name).or_insert(Metric::Counter(0)) {
            Metric::Counter(v) | Metric::Gauge(v) => *v = v.saturating_add(delta),
        }
    }

    /// Sets the named gauge to `value` (last write wins).
    pub fn gauge_set(&self, name: &'static str, value: u64) {
        self.lock().insert(name, Metric::Gauge(value));
    }

    /// Raises the named gauge to `value` if it is higher (high-water marks).
    pub fn gauge_max(&self, name: &'static str, value: u64) {
        let mut map = self.lock();
        match map.entry(name).or_insert(Metric::Gauge(0)) {
            Metric::Counter(v) | Metric::Gauge(v) => *v = (*v).max(value),
        }
    }

    /// Reads a metric's current value (`None` if never published).
    pub fn get(&self, name: &str) -> Option<u64> {
        self.lock().get(name).map(Metric::value)
    }

    /// Renders the full exposition: every registered counter/gauge plus the
    /// six derived lines of every stage histogram (`_count`, `_total_ns`,
    /// `_p50_ns`, `_p95_ns`, `_p99_ns`, `_max_ns`), one `name value` line
    /// each, sorted by name, no trailing newline.
    pub fn render(&self) -> String {
        self.render_with(&[])
    }

    /// [`render`](Registry::render) with the caller's `instance` lines,
    /// whose names are never registered ones, merged in. They are stored
    /// nowhere, so two servers in one process never read each other's
    /// numbers.
    pub fn render_with(&self, instance: &[(&'static str, u64)]) -> String {
        let mut lines: Vec<(String, u64)> = Vec::new();
        for stage in Stage::ALL {
            let prefix = stage.metric_prefix();
            let snap = stage.histogram().snapshot();
            lines.push((format!("{prefix}_count"), snap.count));
            lines.push((format!("{prefix}_total_ns"), snap.sum));
            lines.push((format!("{prefix}_p50_ns"), snap.p50()));
            lines.push((format!("{prefix}_p95_ns"), snap.p95()));
            lines.push((format!("{prefix}_p99_ns"), snap.p99()));
            lines.push((format!("{prefix}_max_ns"), snap.max));
        }
        for (name, metric) in self.lock().iter() {
            lines.push((name.to_string(), metric.value()));
        }
        for &(name, value) in instance {
            lines.push((name.to_string(), value));
        }
        lines.sort();
        let rendered: Vec<String> = lines
            .into_iter()
            .map(|(name, value)| format!("{name} {value}"))
            .collect();
        rendered.join("\n")
    }
}

/// The process-wide registry every crate publishes into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let r = Registry::new();
        r.counter_add("test_ops", 3);
        r.counter_add("test_ops", 4);
        assert_eq!(r.get("test_ops"), Some(7));
        r.gauge_set("test_depth", 9);
        r.gauge_set("test_depth", 2);
        assert_eq!(r.get("test_depth"), Some(2));
        r.gauge_max("test_peak", 5);
        r.gauge_max("test_peak", 3);
        assert_eq!(r.get("test_peak"), Some(5));
        assert_eq!(r.get("missing"), None);
    }

    #[test]
    fn exposition_lines_are_sorted_unique_name_value_pairs() {
        let r = Registry::new();
        r.counter_add("zz_last", 1);
        r.counter_add("aa_first", 2);
        let text = r.render();
        let mut names = Vec::new();
        for line in text.lines() {
            let mut parts = line.split_whitespace();
            let name = parts.next().expect("every line has a name");
            let value = parts.next().expect("every line has a value");
            assert!(parts.next().is_none(), "exactly two fields per line");
            value.parse::<u64>().expect("values are u64");
            names.push(name.to_string());
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(names, sorted, "names sorted and unique");
        // The stage histograms are always present, even before any span.
        assert!(names.iter().any(|n| n == "span_bind_count"));
        assert!(names.iter().any(|n| n == "span_net_write_p99_ns"));
        assert!(names.iter().any(|n| n == "aa_first"));
        assert!(names.iter().any(|n| n == "zz_last"));
    }

    #[test]
    fn instance_lines_merge_into_one_render_and_are_not_stored() {
        let r = Registry::new();
        r.counter_add("mm_shared", 4);
        let instance = [("zz_own", 7), ("aa_own", 3)];
        // Other tests record into the process-wide stage histograms at the
        // same time, so a span line is compared by name only.
        let lines = |text: String| -> Vec<String> {
            text.lines()
                .map(|l| match l.split_once(' ') {
                    Some((name, _)) if name.starts_with("span_") => name.to_string(),
                    _ => l.to_string(),
                })
                .collect()
        };
        let mut expected = lines(r.render());
        expected.extend(["zz_own 7".to_string(), "aa_own 3".to_string()]);
        expected.sort();
        assert_eq!(lines(r.render_with(&instance)), expected);
        assert_eq!(r.get("zz_own"), None);
        assert_eq!(r.get("aa_own"), None);
    }

    #[test]
    fn global_registry_is_one_instance() {
        global().counter_add("test_global_probe", 1);
        assert!(global().get("test_global_probe").unwrap() >= 1);
    }
}
