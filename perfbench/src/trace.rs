//! Spans the benchmark records around its own calls into each layer.
//!
//! Each thread owns a [`Tracer`]; spans stay in memory until the run
//! ends, when [`merge`] joins the threads' buffers and [`self_times`]
//! splits every span into the part its children cover and the part
//! they do not (its self time). A span's layer is its name up to the
//! first dot, so `store.install` counts towards `store`.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.call`, e.g. `serve.apply_delta`.
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same buffer.
    pub parent: Option<usize>,
    /// Shared by every span of one request, install or cycle.
    pub op: u64,
    /// The recording thread.
    pub thread: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Handle of an open span; inert when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

const OFF: SpanId = SpanId(usize::MAX);

/// A per-thread span recorder. While disabled, `begin` and `end` only
/// test a flag.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    thread: u32,
    next_op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder for `thread`, timing against the shared `epoch`.
    pub fn new(on: bool, epoch: Instant, thread: u32) -> Self {
        Self { on, epoch, thread, next_op: 0, spans: Vec::new(), open: Vec::new() }
    }

    /// Starts or stops recording; spans still open stay valid.
    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    /// A fresh operation id, unique across threads.
    pub fn new_op(&mut self) -> u64 {
        self.next_op += 1;
        (u64::from(self.thread) << 40) | self.next_op
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.on {
            return OFF;
        }
        let start_ns = self.ns(Instant::now());
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
            thread: self.thread,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id` and any span opened inside it and left open.
    pub fn end(&mut self, id: SpanId) {
        if id.0 == OFF.0 {
            return;
        }
        let now = self.ns(Instant::now());
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id.0 {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, op);
        let out = f();
        self.end(id);
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Joins per-thread buffers into one, re-basing parent indices.
pub fn merge(buffers: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::with_capacity(buffers.iter().map(Vec::len).sum());
    for buf in buffers {
        let base = out.len();
        out.extend(buf.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur) = (0u64, lo);
    for (s, e) in intervals {
        let (s, e) = (s.max(cur), e.min(hi));
        if e > s {
            total += e - s;
            cur = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of it that
/// its child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.dur_ns() - covered(kids, s.start_ns, s.end_ns))
        .collect()
}

/// Self time summed per layer, in nanoseconds.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer()).or_insert(0) += own;
    }
    out
}

/// Share of `thread`'s window `[lo, hi)` that its outermost spans
/// cover.
pub fn coverage(spans: &[Span], thread: u32, lo: u64, hi: u64) -> f64 {
    if hi <= lo {
        return 0.0;
    }
    let roots = spans
        .iter()
        .filter(|s| s.thread == thread && s.parent.is_none())
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    covered(roots, lo, hi) as f64 / (hi - lo) as f64
}

/// Durations of the spans named `name`, in microseconds.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / 1e3).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, op: 1, thread: 0 }
    }

    /// A hand-built tree:
    ///
    /// ```text
    /// 0 harvest.call   [0, 100)
    /// ├─ 1 store.create [10, 40)
    /// │  └─ 2 store.sync [20, 30)
    /// └─ 3 query.exec   [40, 60)
    /// 4 ned.build      [100, 130)  second root
    /// ```
    fn tree() -> Vec<Span> {
        vec![
            span("harvest.call", 0, 100, None),
            span("store.create", 10, 40, Some(0)),
            span("store.sync", 20, 30, Some(1)),
            span("query.exec", 40, 60, Some(0)),
            span("ned.build", 100, 130, None),
        ]
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_times(&tree()), vec![50, 20, 10, 20, 30]);
        let layers = layer_self_ns(&tree());
        assert_eq!(layers["harvest"], 50);
        assert_eq!(layers["store"], 30);
        assert_eq!(layers["query"], 20);
        assert_eq!(layers["ned"], 30);
        // Self times partition the roots' wall time.
        assert_eq!(layers.values().sum::<u64>(), 130);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = vec![
            span("a.x", 0, 100, None),
            span("b.y", 10, 40, Some(0)),
            span("b.z", 30, 50, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 60);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("a.x", 10, 20, None), span("b.y", 5, 25, Some(0))];
        assert_eq!(self_times(&spans), vec![0, 20]);
    }

    #[test]
    fn coverage_counts_roots_inside_the_window() {
        let spans = tree();
        assert_eq!(coverage(&spans, 0, 0, 200), 130.0 / 200.0);
        assert_eq!(coverage(&spans, 0, 50, 150), 80.0 / 100.0);
        assert_eq!(coverage(&spans, 7, 0, 200), 0.0);
    }

    #[test]
    fn recorder_nests_and_merges() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch, 0);
        let op = a.new_op();
        let outer = a.begin("serve.query", op);
        a.span("query.exec", op, || ());
        a.end(outer);
        let mut b = Tracer::new(true, epoch, 1);
        let op_b = b.new_op();
        b.span("store.install", op_b, || ());
        let mut off = Tracer::new(false, epoch, 2);
        off.span("store.install", 9, || ());
        let spans = merge(vec![b.into_spans(), a.into_spans(), off.into_spans()]);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].op, spans[1].op);
        assert_ne!(op, op_b);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
