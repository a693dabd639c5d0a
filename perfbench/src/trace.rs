//! In-memory span recorder for the traced replay, and the self-time
//! rule that splits each replayed request's wall time across layers.
//!
//! Spans are kept in memory while the replay runs and written out once
//! it ends, so recording costs one clock read and one short lock per
//! boundary. A disabled tracer records nothing and reads no clock: the
//! untraced replay runs the same code, and the difference between the
//! two runs is the tracing overhead.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span: a call into a layer, or the whole request.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name (`"request"` for the root of a replayed operation).
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// The replayed operation this span belongs to.
    pub request: u64,
}

/// Where a new span attaches: its parent span (if recorded) and the
/// operation it belongs to.
#[derive(Debug, Clone, Copy)]
pub struct Scope {
    span: Option<usize>,
    request: u64,
}

impl Scope {
    /// The scope of a new root span for operation `request`.
    pub fn request(request: u64) -> Scope {
        Scope {
            span: None,
            request,
        }
    }
}

/// The root span's name; its self time is the replay's residual.
pub const ROOT: &str = "request";

/// Span recorder shared by the replay and its fan-out threads.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `enabled == false` makes every span a no-op.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` under `scope`; `f` receives
    /// the scope its own children attach to.
    pub fn span<T>(&self, scope: Scope, name: &'static str, f: impl FnOnce(Scope) -> T) -> T {
        if !self.enabled {
            return f(scope);
        }
        let start_ns = self.now_ns();
        let idx = {
            let mut spans = self.spans.lock().expect("span lock poisoned by a panicking leg");
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: scope.span,
                request: scope.request,
            });
            spans.len() - 1
        };
        let out = f(Scope {
            span: Some(idx),
            request: scope.request,
        });
        let end_ns = self.now_ns();
        self.spans.lock().expect("span lock poisoned by a panicking leg")[idx].end_ns = end_ns;
        out
    }

    /// The recorded spans, in opening order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .expect("span lock poisoned by a panicking leg")
    }
}

/// Self time of every span, in nanoseconds. At each instant of a
/// request the time goes to the innermost spans open at that instant,
/// split evenly when several are open at once (concurrent fan-out
/// legs). So the self times of one request's spans sum to its root
/// span's duration, and without concurrency a span's self time is its
/// duration minus the part its children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut by_request: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        by_request.entry(s.request).or_default().push(i);
    }
    let mut out = vec![0.0; spans.len()];
    for members in by_request.values() {
        let mut bounds: Vec<u64> = members
            .iter()
            .flat_map(|&i| [spans[i].start_ns, spans[i].end_ns])
            .collect();
        bounds.sort_unstable();
        bounds.dedup();
        for w in bounds.windows(2) {
            let (a, b) = (w[0], w[1]);
            let open = |i: usize| spans[i].start_ns <= a && spans[i].end_ns >= b;
            let innermost: Vec<usize> = members
                .iter()
                .copied()
                .filter(|&i| open(i))
                .filter(|&i| {
                    !members
                        .iter()
                        .any(|&c| spans[c].parent == Some(i) && open(c))
                })
                .collect();
            let share = (b - a) as f64 / innermost.len().max(1) as f64;
            for i in innermost {
                out[i] += share;
            }
        }
    }
    out
}

/// Per-layer totals over a whole replay.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerStat {
    /// Spans recorded for the layer.
    pub calls: u64,
    /// Summed span durations, nanoseconds.
    pub total_ns: f64,
    /// Summed self times, nanoseconds.
    pub self_ns: f64,
}

impl LayerStat {
    /// Mean duration of one call, nanoseconds (0 when never called).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns / self.calls as f64
        }
    }
}

/// Totals per span name. The [`ROOT`] entry holds the requests: its
/// `total_ns` is the traced request time and its `self_ns` the
/// residual no layer span covers.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, LayerStat> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerStat> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.total_ns += (s.end_ns - s.start_ns) as f64;
        e.self_ns += self_ns;
    }
    out
}

/// Writes the spans as JSON lines: name, start, end, parent, request.
pub fn write_spans(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            s.name, s.start_ns, s.end_ns, s.request
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    fn assert_sums_to_root(spans: &[Span]) {
        let layers = summarize(spans);
        let root = &layers[ROOT];
        let layer_sum: f64 = layers
            .iter()
            .filter(|(name, _)| **name != ROOT)
            .map(|(_, l)| l.self_ns)
            .sum();
        assert!(
            (layer_sum + root.self_ns - root.total_ns).abs() < 1e-6,
            "layers {layer_sum} + residual {} != request {}",
            root.self_ns,
            root.total_ns
        );
    }

    #[test]
    fn nested_layers_and_residual_sum_to_the_request() {
        // request [0,100): parse [5,10), fingerprint [10,80) holding
        // concat [12,20) and fold [20,70), select [80,95).
        let spans = vec![
            span(ROOT, 0, 100, None),
            span("protocol.parse", 5, 10, Some(0)),
            span("registry.fingerprint", 10, 80, Some(0)),
            span("data.concat", 12, 20, Some(2)),
            span("minhash.fold", 20, 70, Some(2)),
            span("dispersion.select", 80, 95, Some(0)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![10.0, 5.0, 12.0, 8.0, 50.0, 15.0]);
        assert_sums_to_root(&spans);
    }

    #[test]
    fn concurrent_legs_split_shared_time_and_still_sum() {
        // A fan-out [10,90) with two overlapping legs on two threads:
        // leg A [10,60), leg B [30,90); each leg holds a fold.
        let spans = vec![
            span(ROOT, 0, 100, None),
            span("cluster.fanout", 10, 90, Some(0)),
            span("cluster.worker_fold", 10, 60, Some(1)),
            span("cluster.worker_fold", 30, 90, Some(1)),
            span("minhash.fold", 15, 55, Some(2)),
            span("minhash.fold", 35, 85, Some(3)),
        ];
        let selfs = self_times(&spans);
        // Fold A runs alone for [15,30), beside leg B's own time for
        // [30,35), and beside fold B for [35,55).
        assert_eq!(selfs[0], 20.0);
        assert_eq!(selfs[1], 0.0);
        assert_eq!(selfs[4], 15.0 + 5.0 / 2.0 + 20.0 / 2.0);
        assert_sums_to_root(&spans);
    }

    #[test]
    fn recorder_nests_scopes_and_disabled_records_nothing() {
        let tr = Tracer::new(true);
        tr.span(Scope::request(7), ROOT, |root| {
            tr.span(root, "protocol.parse", |_| ());
            tr.span(root, "registry.fingerprint", |fp| {
                tr.span(fp, "minhash.fold", |_| ());
            });
        });
        let spans = tr.into_spans();
        let shape: Vec<(&str, Option<usize>, u64)> =
            spans.iter().map(|s| (s.name, s.parent, s.request)).collect();
        assert_eq!(
            shape,
            vec![
                (ROOT, None, 7),
                ("protocol.parse", Some(0), 7),
                ("registry.fingerprint", Some(0), 7),
                ("minhash.fold", Some(2), 7),
            ]
        );
        assert_sums_to_root(&spans);

        let off = Tracer::new(false);
        let v = off.span(Scope::request(1), ROOT, |root| off.span(root, "x", |_| 42));
        assert_eq!(v, 42);
        assert!(off.into_spans().is_empty());
    }
}
