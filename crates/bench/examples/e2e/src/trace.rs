//! In-memory span recorder for the traced run.
//!
//! A span brackets one call into a layer's public API, timed from the
//! benchmark's side: name, id, parent span, request id, start and end.
//! Each thread records into its own [`Recorder`] (no locking on the hot
//! path) and hands its spans to the shared [`Tracer`] when dropped. With
//! tracing off, [`Recorder::span`] only runs the closure.
//!
//! A layer's self time is its spans' duration minus the part of each
//! span's interval that its child spans cover; overlapping children are
//! merged and a child that overruns its parent is clipped to it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call. Times are nanoseconds since the tracer's origin;
/// `parent == 0` marks a root span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn recorder(&self) -> Recorder<'_> {
        Recorder { tracer: self, spans: Vec::new(), stack: Vec::new() }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every span flushed so far, ordered by start time then id.
    pub fn spans(&self) -> Vec<Span> {
        let mut all =
            self.spans.lock().expect("span sink poisoned by a panicking recorder").clone();
        all.sort_by_key(|s| (s.start_ns, s.id));
        all
    }
}

/// A per-thread span buffer; flushes into its [`Tracer`] on drop.
pub struct Recorder<'t> {
    tracer: &'t Tracer,
    spans: Vec<Span>,
    stack: Vec<u64>,
}

impl Recorder<'_> {
    /// Run `f` inside a span named `name`; spans opened inside `f` through
    /// the recorder it receives become its children.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.tracer.on {
            return f(self);
        }
        let id = self.tracer.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.stack.last().copied().unwrap_or(0);
        self.stack.push(id);
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        self.stack.pop();
        let (start_ns, end_ns) = (self.tracer.ns(start), self.tracer.ns(end));
        self.spans.push(Span { name, id, parent, req, start_ns, end_ns });
        out
    }
}

impl Drop for Recorder<'_> {
    fn drop(&mut self) {
        if self.spans.is_empty() {
            return;
        }
        if let Ok(mut sink) = self.tracer.spans.lock() {
            sink.append(&mut self.spans);
        }
    }
}

/// Per-name totals: span count, summed duration and summed self time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// [`self_times`] summed by span name.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += own;
    }
    out
}

/// Durations (µs) of every span called `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / 1e3).collect()
}

/// The trace file: spans as compact arrays plus the per-name self-time
/// table. The schema is documented in the README.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 * spans.len() + 256);
    let _ = write!(out, "{{\"workload\":\"{workload}\",\"seed\":{seed},");
    out.push_str("\"span_fields\":[\"name\",\"id\",\"parent\",\"req\",\"start_ns\",\"end_ns\"],");
    out.push_str("\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "[\"{}\",{},{},{},{},{}]",
            s.name, s.id, s.parent, s.req, s.start_ns, s.end_ns
        );
    }
    out.push_str("],\"layers\":{");
    for (i, (name, t)) in layer_times(spans).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
            t.count, t.total_ns, t.self_ns
        );
    }
    out.push_str("}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span { name, id, parent, req: 0, start_ns, end_ns }
    }

    #[test]
    fn nested_spans_subtract_only_their_direct_children() {
        let spans = [span("a", 1, 0, 0, 100), span("b", 2, 1, 10, 30), span("c", 3, 2, 15, 20)];
        assert_eq!(self_times(&spans), vec![80, 15, 5]);
    }

    #[test]
    fn overlapping_children_are_merged() {
        let spans = [span("a", 1, 0, 0, 100), span("b", 2, 1, 10, 40), span("b", 3, 1, 30, 60)];
        assert_eq!(self_times(&spans), vec![50, 30, 30]);
        let layers = layer_times(&spans);
        assert_eq!(layers["b"], LayerTime { count: 2, total_ns: 60, self_ns: 60 });
    }

    #[test]
    fn a_child_overrunning_its_parent_is_clipped() {
        let spans = [span("a", 1, 0, 0, 100), span("b", 2, 1, 90, 150), span("b", 3, 1, 120, 130)];
        assert_eq!(self_times(&spans), vec![90, 60, 10]);
    }

    #[test]
    fn recorder_links_children_to_the_open_span() {
        let tracer = Tracer::new(true);
        {
            let mut rec = tracer.recorder();
            rec.span("outer", 7, |rec| {
                rec.span("inner", 7, |rec| rec.span("leaf", 7, |_| ()));
                rec.span("inner", 7, |_| ());
            });
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        let self_ns = self_times(&spans);
        assert!(spans.iter().zip(&self_ns).all(|(s, own)| *own <= s.dur_ns()));
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer span");
        assert_eq!(outer.parent, 0);
        for s in spans.iter().filter(|s| s.name == "inner") {
            assert_eq!(s.parent, outer.id);
            assert_eq!(s.req, 7);
        }
        let leaf = spans.iter().find(|s| s.name == "leaf").expect("leaf span");
        let first_inner = spans.iter().find(|s| s.name == "inner").expect("inner span");
        assert_eq!(leaf.parent, first_inner.id);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        {
            let mut rec = tracer.recorder();
            assert_eq!(rec.span("x", 0, |_| 3), 3);
        }
        assert!(tracer.spans().is_empty());
    }
}
