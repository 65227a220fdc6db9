//! Spans recorded around calls into the repository's layers, and the
//! per-layer self-time attribution computed from them.
//!
//! Every span carries the operation (request, fleet or suite) it belongs
//! to and the span that caused it. A layer's self time is its span's
//! duration minus the time its child spans account for. Children that
//! were replayed on a mirror (the inner layers of a server request) ran
//! outside the parent's interval, so attribution works on durations: when
//! a parent's children add up to more than the parent, they are scaled
//! down to fit it.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// The repository's layers, one per crate, named after its module.
pub const LAYERS: [&str; 9] =
    ["server", "json", "store", "power", "core", "cluster", "harness", "kernels", "suite"];

#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub op: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub dur_s: f64,
}

/// In-memory span sink shared by the threads of one traced run.
#[derive(Default)]
pub struct Tracer {
    spans: Mutex<Vec<Span>>,
    off: bool,
}

impl Tracer {
    /// A tracer that records nothing: the same code path with spans off,
    /// for the untraced reference phase of a traced run.
    pub fn off() -> Self {
        Tracer { off: true, ..Tracer::default() }
    }

    /// Times `f` as one span and returns its value and the span id.
    pub fn span<T>(
        &self,
        op: u64,
        parent: Option<usize>,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        self.span_with(op, parent, layer, name, |_| f())
    }

    /// As [`Tracer::span`], passing the span's id to `f` so the calls it
    /// makes can record child spans.
    pub fn span_with<T>(
        &self,
        op: u64,
        parent: Option<usize>,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(usize) -> T,
    ) -> (T, usize) {
        if self.off {
            return (f(0), 0);
        }
        let id = self.record(op, parent, layer, name, 0.0);
        let start = Instant::now();
        let value = f(id);
        let dur_s = start.elapsed().as_secs_f64();
        self.spans.lock().expect("span sink poisoned")[id].dur_s = dur_s;
        (value, id)
    }

    /// Records a span whose duration was measured by the caller.
    pub fn record(
        &self,
        op: u64,
        parent: Option<usize>,
        layer: &'static str,
        name: &'static str,
        dur_s: f64,
    ) -> usize {
        if self.off {
            return 0;
        }
        let mut spans = self.spans.lock().expect("span sink poisoned");
        let id = spans.len();
        spans.push(Span { id, parent, op, layer, name, dur_s });
        id
    }

    /// A copy of the spans recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span sink poisoned").clone()
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span sink poisoned")
    }
}

/// Runs `f` under a span when `trace` names a tracer and an operation,
/// and plainly otherwise; returns its value and the span id, if any.
pub fn maybe_span<T>(
    trace: Option<(&Tracer, u64)>,
    layer: &'static str,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, Option<usize>) {
    match trace {
        Some((tracer, op)) => {
            let (value, id) = tracer.span(op, None, layer, name, f);
            (value, Some(id))
        }
        None => (f(), None),
    }
}

/// Durations (seconds) of every span with this name.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.dur_s).collect()
}

/// Self time per layer (seconds, summed over all spans), keyed by layer.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push(s.id);
        }
    }
    let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
    // Roots first, then children with their scaled durations.
    let mut stack: Vec<(usize, f64)> =
        spans.iter().filter(|s| s.parent.is_none()).map(|s| (s.id, s.dur_s)).collect();
    while let Some((id, effective)) = stack.pop() {
        let raw: f64 = children[id].iter().map(|&c| spans[c].dur_s).sum();
        let scale = if raw > effective && raw > 0.0 { effective / raw } else { 1.0 };
        for &c in &children[id] {
            stack.push((c, spans[c].dur_s * scale));
        }
        *out.entry(spans[id].layer).or_insert(0.0) += effective - raw * scale;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_scales_overlong_ones() {
        let t = Tracer::default();
        let root = t.record(0, None, "server", "handle", 10.0);
        t.record(0, Some(root), "json", "decode", 2.0);
        let store = t.record(0, Some(root), "store", "append", 3.0);
        t.record(0, Some(store), "power", "detector", 1.0);
        let other = t.record(1, None, "harness", "run", 4.0);
        t.record(1, Some(other), "core", "eval", 6.0);
        t.record(1, Some(other), "cluster", "sim", 2.0);
        let by_layer = self_time_by_layer(&t.into_spans());
        assert_eq!(by_layer["server"], 5.0);
        assert_eq!(by_layer["json"], 2.0);
        assert_eq!(by_layer["store"], 2.0);
        assert_eq!(by_layer["power"], 1.0);
        assert_eq!(by_layer["harness"], 0.0);
        assert_eq!(by_layer["core"], 3.0);
        assert_eq!(by_layer["cluster"], 1.0);
        let total: f64 = by_layer.values().sum();
        assert_eq!(total, 14.0, "self times add up to the root spans");
    }
}
