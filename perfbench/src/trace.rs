//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around each public layer call; the
//! program itself is not instrumented. A span's name is `<layer>` or
//! `<layer>.<call>`, and its `key` names the variant or job it belongs to.
//! Spans stay in memory and are written out once, at the end of the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    key: String,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

/// Records spans when enabled; a disabled tracer runs the wrapped calls
/// directly and records nothing.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            spans: enabled.then(|| Mutex::new(Vec::new())),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives the
    /// new span's id to parent its own spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        key: &str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        let Some(spans) = &self.spans else {
            return f(None);
        };
        let id = {
            let mut spans = spans.lock().expect("span recorder poisoned");
            spans.push(Span {
                name,
                key: key.to_string(),
                parent,
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            spans.len() - 1
        };
        let value = f(Some(id));
        let end = self.now_ns();
        spans.lock().expect("span recorder poisoned")[id].end_ns = end;
        value
    }

    /// Records a span whose start and end were observed elsewhere (service
    /// events), as offsets from `origin` of the given instants.
    pub fn record(
        &self,
        name: &'static str,
        key: &str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        let spans = self.spans.as_ref()?;
        let offset = |at: Instant| {
            u64::try_from(at.saturating_duration_since(self.origin).as_nanos())
                .expect("run shorter than 584 years")
        };
        let mut spans = spans.lock().expect("span recorder poisoned");
        spans.push(Span {
            name,
            key: key.to_string(),
            parent,
            start_ns: offset(start),
            end_ns: offset(end),
        });
        Some(spans.len() - 1)
    }

    fn snapshot(&self) -> Vec<Span> {
        self.spans
            .as_ref()
            .map(|spans| spans.lock().expect("span recorder poisoned").clone())
            .unwrap_or_default()
    }

    /// Self time per span name, in seconds: each span's duration minus the
    /// part of its interval that its children cover (children of one parent
    /// may overlap when they ran on parallel threads).
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.snapshot();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for span in &spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        let mut totals = BTreeMap::new();
        for (span, mut covered) in spans.iter().zip(children) {
            covered.sort_unstable();
            let (mut union, mut reach) = (0, span.start_ns);
            for (start, end) in covered {
                let (start, end) = (start.max(reach), end.min(span.end_ns));
                if end > start {
                    union += end - start;
                    reach = end;
                }
            }
            let own = span
                .end_ns
                .saturating_sub(span.start_ns)
                .saturating_sub(union);
            *totals.entry(span.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        totals
    }

    /// Self time per layer (the span-name prefix before the first `.`).
    pub fn layer_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut layers = BTreeMap::new();
        for (name, seconds) in self.self_seconds() {
            let layer = name.split('.').next().expect("split yields one piece");
            *layers.entry(layer).or_insert(0.0) += seconds;
        }
        layers
    }

    /// Writes every span as one JSON array.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("[\n");
        for (id, span) in self.snapshot().iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"key\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                if id == 0 { " " } else { "," },
                span.name,
                span.key,
                span.start_ns,
                span.end_ns
            );
        }
        out.push_str("]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let tracer = Tracer::new(true);
        let t0 = tracer.origin;
        let at = |ms| t0 + std::time::Duration::from_millis(ms);
        let root = tracer.record("flow", "", None, at(0), at(100));
        tracer.record("route", "a", root, at(10), at(60));
        tracer.record("route", "b", root, at(40), at(80));
        let own = tracer.self_seconds();
        assert!((own["flow"] - 0.030).abs() < 1e-9, "{own:?}");
        assert!((own["route"] - 0.090).abs() < 1e-9, "{own:?}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("route", "", None, |id| id), None);
        assert!(tracer.self_seconds().is_empty());
    }
}
