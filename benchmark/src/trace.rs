//! Outside-in span recorder for the traced pass: one span around each
//! call into a layer's public function, kept in memory and written out
//! when the run ends. Spans inside `crates/` are a later issue.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval. Times are microseconds since the run's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.function`, e.g. `exec.execute`.
    pub name: &'static str,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Generation (request) id shared by all spans of one checkpoint.
    pub gen: u64,
    /// Recording thread (0 = driver; tenants and ranks count up).
    pub thread: u32,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// A per-thread recorder. Disabled (the untraced pass) it records
/// nothing and allocates nothing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant, thread: u32) -> Tracer {
        Tracer {
            enabled: false,
            epoch,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggle tracing between generations");
        self.enabled = on;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn us(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Open a span that later spans on this thread nest under.
    pub fn enter(&mut self, name: &'static str, gen: u64) {
        if !self.enabled {
            return;
        }
        let now = self.us(Instant::now());
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            gen,
            thread: self.thread,
            start_us: now,
            end_us: now,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let i = self.open.pop().expect("exit without enter");
        self.spans[i].end_us = self.us(Instant::now());
    }

    /// Run `f` as a leaf span and return its result with its wall time
    /// in seconds. The time is taken in both passes (the end-to-end
    /// metrics need it); only the traced pass keeps the span.
    pub fn timed<T>(&mut self, name: &'static str, gen: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.record(name, gen, self.thread, t0, t1);
        (out, (t1 - t0).as_secs_f64())
    }

    /// Record an interval measured elsewhere (rank threads time their
    /// own call and hand the instants back) under the innermost open
    /// span.
    pub fn record(&mut self, name: &'static str, gen: u64, thread: u32, t0: Instant, t1: Instant) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            gen,
            thread,
            start_us: self.us(t0),
            end_us: self.us(t1),
        });
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us() / 1e3)
            .collect()
    }

    /// For each parent span, the longest (ms) of its children called one
    /// of `names` — the slowest rank of each generation.
    pub fn max_per_parent_ms(&self, names: &[&str]) -> Vec<f64> {
        let mut by_parent: BTreeMap<Option<usize>, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| names.contains(&s.name)) {
            let slot = by_parent.entry(s.parent).or_insert(0.0);
            *slot = slot.max(s.dur_us() / 1e3);
        }
        by_parent.into_values().collect()
    }

    /// Append another thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover. Children may overlap each other (rank
/// threads run side by side), so coverage is the union of their
/// intervals clipped to the parent, not their sum.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (
                s.start_us.max(spans[p].start_us),
                s.end_us.min(spans[p].end_us),
            );
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.dur_us() - covered
        })
        .collect()
}

/// Per-name totals: `(count, total ms, self ms)`.
pub fn summary(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let selfs = self_times_us(spans);
    let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for (s, self_us) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_us() / 1e3;
        e.2 += self_us / 1e3;
    }
    out
}

/// The trace file body: every span plus the per-name self-time table.
pub fn to_json(workload: &str, spans: &[Span]) -> String {
    let mut s = format!("{{\"workload\":\"{workload}\",\"unit\":\"us\",\"summary\":[");
    for (i, (name, (count, total, self_ms))) in summary(spans).iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n{{\"name\":\"{name}\",\"count\":{count},\"total_ms\":{total:.3},\"self_ms\":{self_ms:.3}}}"
        ));
    }
    s.push_str("],\"spans\":[");
    for (i, sp) in spans.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let parent = sp
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        s.push_str(&format!(
            "\n{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"gen\":{},\"thread\":{},\"start\":{:.1},\"end\":{:.1}}}",
            sp.name, sp.gen, sp.thread, sp.start_us, sp.end_us
        ));
    }
    s.push_str("]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name,
            parent,
            gen: 0,
            thread: 0,
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn self_time_subtracts_sequential_children() {
        let spans = [
            span("gen", None, 0.0, 100.0),
            span("plan", Some(0), 0.0, 10.0),
            span("execute", Some(0), 20.0, 90.0),
        ];
        assert_eq!(self_times_us(&spans), vec![20.0, 10.0, 70.0]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped_to_the_parent() {
        let spans = [
            span("run", None, 10.0, 110.0),
            span("rank", Some(0), 20.0, 60.0),
            span("rank", Some(0), 40.0, 80.0), // overlaps the first
            span("rank", Some(0), 30.0, 50.0), // inside the first
            span("rank", Some(0), 100.0, 150.0), // runs past the parent
        ];
        // Covered: [20,80] ∪ [100,110] = 70 of 100.
        let selfs = self_times_us(&spans);
        assert_eq!(selfs[0], 30.0);
        assert_eq!(selfs[1], 40.0);
        let sum = summary(&spans);
        assert_eq!(sum["rank"].0, 4);
        assert_eq!(sum["run"], (1, 0.1, 0.03));
    }

    #[test]
    fn grandchildren_reduce_only_their_own_parent() {
        let spans = [
            span("a", None, 0.0, 100.0),
            span("b", Some(0), 0.0, 50.0),
            span("c", Some(1), 10.0, 20.0),
        ];
        assert_eq!(self_times_us(&spans), vec![50.0, 40.0, 10.0]);
    }

    #[test]
    fn recorder_nests_and_disabled_recorder_keeps_nothing() {
        let mut t = Tracer::new(Instant::now(), 0);
        t.enter("off", 1);
        let ((), secs) = t.timed("leaf", 1, || ());
        t.exit();
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());

        t.set_enabled(true);
        t.enter("gen", 2);
        t.timed("leaf", 2, || ());
        t.exit();
        t.timed("top", 3, || ());
        let parents: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            vec![("gen", None), ("leaf", Some(0)), ("top", None)]
        );
        assert!(t.spans()[0].end_us >= t.spans()[1].end_us);
        assert_eq!(t.durations_ms("leaf").len(), 1);
        assert_eq!(t.max_per_parent_ms(&["leaf", "top"]).len(), 2);

        let mut other = Tracer::new(Instant::now(), 1);
        other.set_enabled(true);
        other.enter("gen", 9);
        other.timed("leaf", 9, || ());
        other.exit();
        t.absorb(other);
        assert_eq!(t.spans()[4].parent, Some(3));
        assert!(to_json("w", t.spans()).contains("\"name\":\"leaf\""));
    }
}
