//! In-memory spans for the traced run. Spans are recorded only here in
//! the benchmark, around calls into the layers' public functions; the
//! program under test is not instrumented. Each thread that records
//! owns a [`Tracer`]; they are merged when the workload ends.

use crate::json::Json;
use std::time::Instant;

/// No parent: a root span.
pub const ROOT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`ROOT`].
    pub parent: u32,
    /// Spans of one operation (request, MD step, stage) share it.
    pub op_id: u64,
}

/// Handle returned by [`Tracer::begin`].
#[derive(Clone, Copy)]
pub struct Open(u32);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices of the open spans, innermost last.
    stack: Vec<u32>,
    dropped: u64,
}

impl Tracer {
    /// A tracer whose clock starts at `epoch`. A disabled tracer
    /// records nothing and allocates nothing.
    pub fn new(enabled: bool, epoch: Instant, capacity: usize) -> Self {
        Tracer {
            enabled,
            epoch,
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
            stack: Vec::with_capacity(if enabled { 16 } else { 0 }),
            dropped: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one. When the
    /// pre-sized buffer is full the span is counted and dropped rather
    /// than reallocating inside the timed window.
    pub fn begin(&mut self, name: &'static str, op_id: u64) -> Open {
        if !self.enabled {
            return Open(ROOT);
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return Open(ROOT);
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id,
        });
        self.stack.push(idx);
        Open(idx)
    }

    /// Close a span opened by [`Tracer::begin`] (innermost first).
    pub fn end(&mut self, open: Open) {
        if open.0 == ROOT {
            return;
        }
        let end_ns = self.now_ns();
        self.spans[open.0 as usize].end_ns = end_ns;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans must close innermost first");
    }

    /// Record a span whose times were taken elsewhere (a stage span
    /// rebuilt from the program's own report).
    pub fn record(&mut self, name: &'static str, op_id: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return;
        }
        let rel = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        self.spans.push(Span {
            name,
            start_ns: rel(start),
            end_ns: rel(end),
            parent,
            op_id,
        });
    }

    /// Append another thread's spans. Its roots stay roots.
    pub fn merge(&mut self, other: Tracer) {
        let offset = self.spans.len() as u32;
        self.dropped += other.dropped;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += offset;
            }
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Cost of one begin/end pair on this machine, ns (median of many
    /// on a scratch tracer). Times the traced run's span count it gives
    /// the time the trace added to the measured window.
    pub fn span_cost_ns() -> f64 {
        let mut costs = Vec::with_capacity(9);
        for _ in 0..9 {
            let mut t = Tracer::new(true, Instant::now(), 4096);
            let t0 = Instant::now();
            for i in 0..4096u64 {
                let s = t.begin("probe", i);
                t.end(s);
            }
            costs.push(t0.elapsed().as_nanos() as f64 / 4096.0);
            std::hint::black_box(&t);
        }
        crate::recorder::median(&costs)
    }
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.clamp(reach, s.end_ns);
                let end = end.clamp(start, s.end_ns);
                covered += end - start;
                reach = reach.max(end);
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Totals per span name.
pub struct NameTotal {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per-name count, total and self time, in first-seen order.
pub fn totals_by_name(spans: &[Span]) -> Vec<NameTotal> {
    let selfs = self_times(spans);
    let mut out: Vec<NameTotal> = Vec::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let dur = s.end_ns - s.start_ns;
        match out.iter_mut().find(|t| t.name == s.name) {
            Some(t) => {
                t.count += 1;
                t.total_ns += dur;
                t.self_ns += self_ns;
            }
            None => out.push(NameTotal {
                name: s.name,
                count: 1,
                total_ns: dur,
                self_ns,
            }),
        }
    }
    out
}

/// Mean duration of the spans called `name`, ns (0 when none).
pub fn mean_ns(totals: &[NameTotal], name: &str) -> f64 {
    totals
        .iter()
        .find(|t| t.name == name)
        .map_or(0.0, |t| t.total_ns as f64 / t.count.max(1) as f64)
}

/// Share of the span called `root` that its descendants account for:
/// 1 − (root self time / root duration).
pub fn coverage(totals: &[NameTotal], root: &str) -> f64 {
    totals
        .iter()
        .find(|t| t.name == root && t.total_ns > 0)
        .map_or(0.0, |t| 1.0 - t.self_ns as f64 / t.total_ns as f64)
}

/// The trace file: per-name totals, then every span.
pub fn to_json(workload: &str, spans: &[Span], dropped: u64) -> Json {
    let totals = totals_by_name(spans);
    Json::Object(vec![
        ("workload".into(), Json::String(workload.into())),
        ("dropped_spans".into(), Json::Number(dropped as f64)),
        (
            "by_name".into(),
            Json::Array(
                totals
                    .iter()
                    .map(|t| {
                        Json::Object(vec![
                            ("name".into(), Json::String(t.name.into())),
                            ("count".into(), Json::Number(t.count as f64)),
                            ("total_ns".into(), Json::Number(t.total_ns as f64)),
                            ("self_ns".into(), Json::Number(t.self_ns as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "spans".into(),
            Json::Array(
                spans
                    .iter()
                    .map(|s| {
                        Json::Object(vec![
                            ("name".into(), Json::String(s.name.into())),
                            ("start_ns".into(), Json::Number(s.start_ns as f64)),
                            ("end_ns".into(), Json::Number(s.end_ns as f64)),
                            (
                                "parent".into(),
                                if s.parent == ROOT {
                                    Json::Null
                                } else {
                                    Json::Number(f64::from(s.parent))
                                },
                            ),
                            ("op_id".into(), Json::Number(s.op_id as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("step", 0, 100, ROOT),
            span("call", 10, 40, 0),
            // Overlaps "call" by 10 ns and pokes 5 ns past the parent.
            span("build", 30, 105, 0),
            span("encode", 12, 20, 1),
        ];
        let selfs = self_times(&spans);
        // Children cover [10, 100] of the parent -> 10 ns of self time.
        assert_eq!(selfs[0], 10);
        assert_eq!(selfs[1], 30 - 8);
        assert_eq!(selfs[2], 75);
        assert_eq!(selfs[3], 8);
        let totals = totals_by_name(&spans);
        assert_eq!(totals[0].name, "step");
        assert!((coverage(&totals, "step") - 0.9).abs() < 1e-12);
        assert_eq!(mean_ns(&totals, "call"), 30.0);
        assert_eq!(mean_ns(&totals, "absent"), 0.0);
    }

    #[test]
    fn tracer_nests_merges_and_stops_at_capacity() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch, 3);
        let outer = a.begin("outer", 7);
        let inner = a.begin("inner", 7);
        a.end(inner);
        a.end(outer);
        assert_eq!(a.spans()[1].parent, 0);
        assert_eq!(a.spans()[0].parent, ROOT);
        assert!(a.spans()[0].end_ns >= a.spans()[1].end_ns);

        let mut b = Tracer::new(true, epoch, 2);
        let o = b.begin("other", 9);
        let i = b.begin("leaf", 9);
        let lost = b.begin("lost", 9);
        b.end(lost);
        b.end(i);
        b.end(o);
        assert_eq!(b.dropped(), 1);
        a.merge(b);
        assert_eq!(a.spans().len(), 4);
        assert_eq!(a.spans()[3].parent, 2);
        assert_eq!(a.dropped(), 1);

        let mut off = Tracer::new(false, epoch, 8);
        let s = off.begin("x", 0);
        off.end(s);
        assert!(off.spans().is_empty());
    }
}
