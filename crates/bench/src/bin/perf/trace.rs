//! The benchmark's own span recorder: one span per call from the harness
//! into a layer of the program, kept in memory and written out at exit.
//!
//! Spans are recorded from outside the program (around its public calls);
//! spans inside the program are `sgc-obs`'s job and are read through the
//! exposition instead. End-to-end metrics are measured with the recorder
//! off; the traced run turns it on.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    /// Shared by every span of one operation (trial, request, delta).
    pub request: u64,
    pub name: &'static str,
    /// The crate the call went into, or `bench` for the harness itself.
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans kept per run; a workload with more operations than this (cache
/// hits at tens of thousands per second) is traced for its first stretch.
const MAX_SPANS: u64 = 60_000;

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; closing it (or dropping it) records it.
pub struct Open<'t> {
    tracer: &'t Tracer,
    span: Option<Span>,
}

impl Open<'_> {
    /// The id children name as their parent (0 when not recording).
    pub fn id(&self) -> u64 {
        self.span.as_ref().map_or(0, |s| s.id)
    }
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        if let Some(mut span) = self.span.take() {
            span.end_ns = self.tracer.now_ns();
            self.tracer
                .spans
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .push(span);
        }
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn span(
        &self,
        name: &'static str,
        layer: &'static str,
        request: u64,
        parent: u64,
    ) -> Open<'_> {
        let id = if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            u64::MAX
        };
        let span = (id <= MAX_SPANS).then(|| Span {
            id,
            parent,
            request,
            name,
            layer,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        Open { tracer: self, span }
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// Durations in the given unit (1e3 = µs, 1e6 = ms) of every span named
    /// `name`.
    pub fn durations(&self, name: &str, ns_per_unit: f64) -> Vec<f64> {
        self.snapshot()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / ns_per_unit)
            .collect()
    }

    /// Writes one JSON object per span to `path`, creating its directory.
    pub fn write_jsonl(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.snapshot() {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"layer\":\"{}\",\"workload\":\"{workload}\",\"request\":{},\
                 \"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.layer, s.request, s.id, s.parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time per layer in milliseconds: each span's duration minus the part
/// of it its direct children cover.
pub fn self_time_ms_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(*child_ns.get(&s.id).unwrap_or(&0));
        *by_layer.entry(s.layer).or_default() += own as f64 / 1e6;
    }
    by_layer
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let open = t.span("trial", "bench", 1, 0);
        assert_eq!(open.id(), 0);
        drop(open);
        assert!(t.snapshot().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mk = |id, parent, layer, start_ns, end_ns| Span {
            id,
            parent,
            request: 1,
            name: "x",
            layer,
            start_ns,
            end_ns,
        };
        let spans = vec![
            mk(1, 0, "bench", 0, 10_000_000),
            mk(2, 1, "graph", 0, 2_000_000),
            mk(3, 1, "core", 2_000_000, 9_000_000),
        ];
        let by = self_time_ms_by_layer(&spans);
        assert_eq!(by["bench"], 1.0);
        assert_eq!(by["graph"], 2.0);
        assert_eq!(by["core"], 7.0);
    }

    #[test]
    fn spans_nest_by_parent_id_and_share_the_request() {
        let t = Tracer::new(true);
        {
            let root = t.span("trial", "bench", 7, 0);
            let _child = t.span("core.run", "core", 7, root.id());
        }
        let spans = t.snapshot();
        assert_eq!(spans.len(), 2);
        let child = spans.iter().find(|s| s.name == "core.run").unwrap();
        let root = spans.iter().find(|s| s.name == "trial").unwrap();
        assert_eq!(child.parent, root.id);
        assert_eq!(child.request, root.request);
        assert!(root.end_ns >= child.end_ns);
        assert_eq!(t.durations("core.run", 1e3).len(), 1);
    }
}
