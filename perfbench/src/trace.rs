//! In-memory span recorder for the traced run.
//!
//! Every span wraps one public call the benchmark makes into a layer. A
//! span's self time is its duration minus the durations of the spans that
//! name it as parent. Calls that cover several layers (`CellExecution::step`,
//! `scan_campaign`, …) get their inner layers' entry points re-timed on the
//! same inputs right after the call; those re-timed spans are recorded as
//! children, so the covering call's self time is what is left for its own
//! layer. Spans are kept in memory and written out once, at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    op: u64,
}

/// The span store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    op: u64,
    counters: BTreeMap<&'static str, usize>,
    gauges: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            op: 0,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
        }
    }

    /// Adds `n` to a named count (work done, failures, …).
    pub fn count(&mut self, name: &'static str, n: usize) {
        *self.counters.entry(name).or_default() += n;
    }

    /// A named count; 0 if never counted.
    pub fn counter(&self, name: &str) -> usize {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Raises a named gauge to `value` if it is higher.
    pub fn gauge_max(&mut self, name: &'static str, value: f64) {
        let g = self.gauges.entry(name).or_insert(value);
        *g = g.max(value);
    }

    /// A named gauge; 0 if never set.
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }

    /// Sets the operation id stamped on subsequent spans.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Records a span measured by the caller.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
    ) -> SpanId {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name: name.into(),
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            op: self.op,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span named `name` under `parent`.
    pub fn time<R>(
        &mut self,
        name: impl Into<String>,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> (R, SpanId) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        (out, self.record(name, start, end, parent))
    }

    /// Self times in milliseconds, grouped by span name.
    pub fn self_times_ms(&self) -> BTreeMap<String, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(children);
            out.entry(s.name.clone())
                .or_default()
                .push(own as f64 / 1e6);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let t0 = t.epoch;
        let ms = |n: u64| t0 + Duration::from_millis(n);
        let root = t.record("root", ms(0), ms(10), None);
        t.record("child", ms(20), ms(23), Some(root));
        t.record("child", ms(30), ms(34), Some(root));
        let times = t.self_times_ms();
        assert_eq!(times["root"], vec![3.0]);
        assert_eq!(times["child"], vec![3.0, 4.0]);
    }
}
