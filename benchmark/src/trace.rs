//! Spans the benchmark records around its calls into each layer.
//!
//! A span is a name, an optional tag (the simulated system, for simulator
//! calls), start and end times and the span that was open when it began.
//! Spans stay in memory and go into the result file when the run ends. A
//! disabled tracer runs the wrapped call and records nothing, so the same
//! workload code serves the untraced and the traced run.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`, e.g. `sim.run` or `journal.commit`.
    pub name: &'static str,
    /// Extra label (the simulated system of a simulator call), or empty.
    pub tag: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall time inside the span.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer: the span name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans when enabled; a pass-through when not.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.tagged(name, "", f)
    }

    /// Runs `f` inside a span called `name` carrying `tag`.
    pub fn tagged<R>(&self, name: &'static str, tag: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let parent = self.open.borrow().last().copied();
        let id = {
            let mut spans = self.spans.borrow_mut();
            let now = self.now_ns();
            spans.push(Span {
                name,
                tag,
                start_ns: now,
                end_ns: now,
                parent,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let r = f();
        self.open.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[id].end_ns = end;
        r
    }

    /// The recorded spans, parents before their children.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Self time of every span: its duration minus the time its direct
/// children cover. Spans come from one thread, so children never overlap.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut in_children = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            in_children[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(in_children)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Total self time per layer, in seconds.
pub fn layer_self_s(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.layer()).or_insert(0.0) += ns as f64 / 1e9;
    }
    out
}

/// Seconds spent in spans called `name` (and tagged `tag`, if given).
pub fn total_s(spans: &[Span], name: &str, tag: Option<&str>) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name && tag.is_none_or(|t| s.tag == t))
        .map(|s| s.dur_ns() as f64 / 1e9)
        .sum()
}

/// Seconds spent in spans called `name` (and tagged `tag`, if given) under
/// each root span called `root`, one entry per root in order.
pub fn per_root_s(spans: &[Span], root: &str, name: &str, tag: Option<&str>) -> Vec<f64> {
    let mut root_of: Vec<usize> = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        root_of.push(s.parent.map_or(i, |p| root_of[p]));
    }
    let roots: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].parent.is_none() && spans[i].name == root)
        .collect();
    roots
        .iter()
        .map(|&r| {
            spans
                .iter()
                .enumerate()
                .filter(|&(i, s)| {
                    root_of[i] == r && s.name == name && tag.is_none_or(|t| s.tag == t)
                })
                .map(|(_, s)| s.dur_ns() as f64 / 1e9)
                .sum()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-15
    }

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            tag: "",
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("bench.pass", 0, 100, None),
            span("sim.run", 10, 50, Some(0)),
            span("sim.new", 50, 60, Some(0)),
            span("cache.probe", 20, 30, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 30, 10, 10]);
        let layers = layer_self_s(&spans);
        assert!(close(layers["bench"], 50e-9));
        assert!(close(layers["sim"], 40e-9));
        assert!(close(layers["cache"], 10e-9));
    }

    #[test]
    fn nested_calls_record_parents_and_tags() {
        let t = Tracer::on();
        let v = t.span("bench.pass", || t.tagged("sim.run", "sel-ptm", || 7));
        assert_eq!(v, 7);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].tag, "sel-ptm");
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::off();
        assert_eq!(t.span("sim.run", || 3), 3);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn totals_group_by_root_and_tag() {
        let mut spans = vec![
            span("bench.pass", 0, 100, None),
            span("bench.cell", 0, 100, Some(0)),
            span("sim.run", 0, 40, Some(1)),
            span("bench.pass", 100, 200, None),
            span("sim.run", 100, 130, Some(3)),
        ];
        spans[2].tag = "vtm";
        let all = per_root_s(&spans, "bench.pass", "sim.run", None);
        assert!(all.len() == 2 && close(all[0], 40e-9) && close(all[1], 30e-9));
        let vtm = per_root_s(&spans, "bench.pass", "sim.run", Some("vtm"));
        assert!(vtm.len() == 2 && close(vtm[0], 40e-9) && vtm[1] == 0.0);
        assert!(close(total_s(&spans, "sim.run", None), 70e-9));
    }
}
