//! The benchmark's spans. Each span records name, start, end, its parent
//! and — for a replayed request — the request's id; spans stay in memory
//! and are written out as JSON lines when the run ends. A layer's self time
//! is its spans' durations minus what their children cover, so the layer
//! times of a run never add up to more than its root span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Unique id within the run.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// `layer.what`, e.g. `core.find_similar_batch`.
    pub name: String,
    /// Replayed request this span belongs to.
    pub req: Option<u64>,
    /// Start, microseconds since the tracer was created.
    pub start_us: f64,
    /// End, microseconds.
    pub end_us: f64,
}

/// Time the program's own instruments attribute to a layer inside one of
/// the benchmark's spans (e.g. Σ `lda.gibbs.sweep_seconds` inside the span
/// around `fit_lda_resilient`). It moves that much self time from the span
/// to the named layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Attributed {
    /// Span the time was spent inside.
    pub parent: u64,
    /// Layer metric it is attributed to, e.g. `lda.gibbs.sweep_seconds`.
    pub name: String,
    /// Milliseconds.
    pub ms: f64,
}

/// In-memory span recorder. Disabled tracers record nothing but still
/// time, so the untraced run uses the same code path.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
    attributed: Mutex<Vec<Attributed>>,
}

/// Layer of a span or attributed name: the text before the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

impl Tracer {
    /// A tracer; `enabled` decides whether spans are kept.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            attributed: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Microseconds since the tracer was created.
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// A fresh span id.
    pub fn id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span.
    pub fn record(&self, rec: SpanRec) {
        if self.enabled {
            self.spans.lock().expect("span list lock").push(rec);
        }
    }

    /// Runs `f` inside a span `name` under `parent` and returns its result
    /// with the elapsed milliseconds (measured whether or not tracing is on).
    pub fn span<T>(
        &self,
        name: &str,
        parent: Option<u64>,
        req: Option<u64>,
        f: impl FnOnce(u64) -> T,
    ) -> (T, f64) {
        let id = self.id();
        let start_us = self.now_us();
        let out = f(id);
        let end_us = self.now_us();
        self.record(SpanRec {
            id,
            parent,
            name: name.to_string(),
            req,
            start_us,
            end_us,
        });
        (out, (end_us - start_us) / 1e3)
    }

    /// Attributes `ms` inside span `parent` to the layer metric `name`.
    pub fn attribute(&self, parent: u64, name: &str, ms: f64) {
        if self.enabled && ms > 0.0 {
            self.attributed
                .lock()
                .expect("attribution lock")
                .push(Attributed {
                    parent,
                    name: name.to_string(),
                    ms,
                });
        }
    }

    /// All finished spans, by start time.
    pub fn spans(&self) -> Vec<SpanRec> {
        let mut s = self.spans.lock().expect("span list lock").clone();
        s.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        s
    }

    /// Self time per layer, ms: each span's duration minus the union of its
    /// children's intervals and minus what is attributed inside it, summed
    /// by [`layer_of`]; attributed time is added to its own layer.
    /// Children that overlap (requests in flight on two threads) split each
    /// shared instant evenly, so the layers of a run add up to exactly its
    /// root spans.
    pub fn self_ms_by_layer(&self) -> BTreeMap<String, f64> {
        let spans = self.spans();
        let attributed = self.attributed.lock().expect("attribution lock").clone();
        let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push(i);
            }
        }
        let mut moved: BTreeMap<u64, Vec<&Attributed>> = BTreeMap::new();
        for a in &attributed {
            moved.entry(a.parent).or_default().push(a);
        }
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        // Roots first, each span weighted by its parent's share.
        let mut stack: Vec<(usize, f64)> = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent.is_none())
            .map(|(i, _)| (i, 1.0))
            .collect();
        while let Some((i, weight)) = stack.pop() {
            let s = &spans[i];
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            let intervals: Vec<(f64, f64)> = kids
                .iter()
                .map(|&k| (spans[k].start_us, spans[k].end_us))
                .collect();
            let covered = union_us(&intervals, s.start_us, s.end_us);
            let shares = shared_fractions(&intervals);
            stack.extend(kids.iter().zip(shares).map(|(&k, f)| (k, weight * f)));
            let mut own = (s.end_us - s.start_us - covered) / 1e3;
            for a in moved.get(&s.id).into_iter().flatten() {
                own -= a.ms;
                *out.entry(layer_of(&a.name).to_string()).or_default() += weight * a.ms;
            }
            *out.entry(layer_of(&s.name).to_string()).or_default() += weight * own;
        }
        out
    }

    /// Spans and attributions as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.req.map_or("null".to_string(), |r| r.to_string()),
                s.start_us,
                s.end_us
            );
        }
        for a in self.attributed.lock().expect("attribution lock").iter() {
            let _ = writeln!(
                out,
                "{{\"attributed\":\"{}\",\"parent\":{},\"ms\":{}}}",
                a.name, a.parent, a.ms
            );
        }
        out
    }
}

/// For each interval, the fraction of its length it holds when every
/// instant is split evenly among the intervals covering it.
fn shared_fractions(intervals: &[(f64, f64)]) -> Vec<f64> {
    // Sweep the start and end events in time order (ends before starts at
    // the same instant), holding the set of intervals currently open.
    let mut events: Vec<(f64, bool, usize)> = intervals
        .iter()
        .enumerate()
        .flat_map(|(i, &(a, b))| [(a, true, i), (b, false, i)])
        .collect();
    events.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
    let mut held = vec![0.0; intervals.len()];
    let mut open: Vec<usize> = Vec::new();
    let mut last = f64::NEG_INFINITY;
    for (t, starts, i) in events {
        if !open.is_empty() && t > last {
            let each = (t - last) / open.len() as f64;
            for &j in &open {
                held[j] += each;
            }
        }
        last = t;
        if starts {
            open.push(i);
        } else if let Some(pos) = open.iter().position(|&j| j == i) {
            open.swap_remove(pos);
        }
    }
    intervals
        .iter()
        .zip(held)
        .map(|(&(a, b), h)| if b > a { h / (b - a) } else { 1.0 })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_us(intervals: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    let mut iv: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((a, b)) = cur {
        total += b - a;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start: f64, end: f64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name: name.into(),
            req: None,
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn overlapping_children_are_not_counted_twice() {
        assert_eq!(
            union_us(&[(0.0, 10.0), (5.0, 15.0), (20.0, 30.0)], 0.0, 100.0),
            25.0
        );
        assert_eq!(union_us(&[(-5.0, 10.0)], 0.0, 8.0), 8.0);
    }

    #[test]
    fn layer_self_times_sum_to_the_root() {
        let t = Tracer::new(true);
        t.record(span(1, None, "bench.run", 0.0, 10_000.0));
        t.record(span(2, Some(1), "engine.fit", 1_000.0, 6_000.0));
        t.record(span(3, Some(1), "serve.http", 5_000.0, 9_000.0));
        t.record(span(4, Some(1), "serve.http", 6_000.0, 9_500.0));
        t.attribute(2, "lda.gibbs.sweep_seconds", 3.0);
        let by = t.self_ms_by_layer();
        // Overlapping instants are split evenly: the fit holds 4.5 of its
        // 5 ms (3 of them attributed to lda), the two requests 4 ms of the
        // 7.5 ms their durations add up to.
        assert!((by["engine"] - 1.8).abs() < 1e-9);
        assert!((by["lda"] - 2.7).abs() < 1e-9);
        assert!((by["serve"] - 4.0).abs() < 1e-9);
        // Root self time is what no layer explains.
        assert!((by["bench"] - 1.5).abs() < 1e-9);
        let total: f64 = by.values().sum();
        assert!((total - 10.0).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_still_times() {
        let t = Tracer::new(false);
        let (v, ms) = t.span("core.x", None, None, |_| 7);
        assert_eq!(v, 7);
        assert!(ms >= 0.0);
        assert!(t.spans().is_empty());
    }
}
