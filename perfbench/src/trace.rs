//! In-memory span tracing around calls into the program's layers.
//!
//! Spans carry a name, a layer, start and end, the span that caused them
//! and an optional request id. They stay in memory while the benchmark
//! runs and are written once at the end as Chrome `trace_event` JSON
//! (opens in Perfetto). With tracing off every call is a no-op.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use smache_sim::Json;

/// Index of a recorded span; [`NO_SPAN`] when tracing is off.
pub type SpanId = usize;

/// The id handed out while tracing is off.
pub const NO_SPAN: SpanId = usize::MAX;

/// Layer label of spans that only group others (their uncovered time is
/// the unattributed remainder).
pub const GROUP: &str = "-";

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called.
    pub name: String,
    /// Which layer of the program the call belongs to.
    pub layer: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start: u64,
    /// End, ns since the tracer's epoch.
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request id shared by one request's spans.
    pub req: Option<u64>,
    /// Recording thread.
    pub tid: u64,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// The span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// `t` in ns since the epoch.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span timed by the caller.
    pub fn record(
        &self,
        name: &str,
        layer: &'static str,
        parent: SpanId,
        req: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        let span = Span {
            name: name.to_string(),
            layer,
            start: self.ns(start),
            end: self.ns(end),
            parent: (parent != NO_SPAN).then_some(parent),
            req,
            tid: TID.with(|t| *t),
        };
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Opens a span now; [`close`](Self::close) sets its end.
    pub fn open(&self, name: &str, layer: &'static str, parent: SpanId) -> SpanId {
        let now = Instant::now();
        self.record(name, layer, parent, None, now, now)
    }

    /// Ends a span opened with [`open`](Self::open).
    pub fn close(&self, id: SpanId) {
        if id != NO_SPAN {
            let end = self.ns(Instant::now());
            self.spans.lock().expect("span list poisoned")[id].end = end;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &self,
        name: &str,
        layer: &'static str,
        parent: SpanId,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = self.open(name, layer, parent);
        let out = f(id);
        self.close(id);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// Children of every span, by index.
fn children(spans: &[Span]) -> Vec<Vec<usize>> {
    let mut kids = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            kids[p].push(i);
        }
    }
    kids
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur) = (0, lo);
    for (a, b) in intervals {
        let (a, b) = (a.max(cur), b.min(hi));
        if b > a {
            total += b - a;
            cur = b;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let kids = children(spans);
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let iv = kids[i]
                .iter()
                .map(|&c| (spans[c].start, spans[c].end))
                .collect();
            (s.end - s.start) - covered(iv, s.start, s.end)
        })
        .collect()
}

/// Splits the wall time of `root` among layers along its blocking path:
/// each instant goes to the deepest spans covering it, shared equally
/// among children that overlap at that instant. The shares add up to the
/// root's duration exactly; [`GROUP`] collects the instants no layer
/// covers (the unattributed remainder).
pub fn blocking_path(spans: &[Span], root: SpanId) -> BTreeMap<&'static str, f64> {
    let kids = children(spans);
    let mut out = BTreeMap::new();
    let r = &spans[root];
    attribute(spans, &kids, root, r.start, r.end, 1.0, &mut out);
    out
}

fn attribute(
    spans: &[Span],
    kids: &[Vec<usize>],
    span: usize,
    lo: u64,
    hi: u64,
    weight: f64,
    out: &mut BTreeMap<&'static str, f64>,
) {
    let inside: Vec<usize> = kids[span]
        .iter()
        .copied()
        .filter(|&c| spans[c].start < hi && spans[c].end > lo)
        .collect();
    let mut cuts: Vec<u64> = vec![lo, hi];
    for &c in &inside {
        cuts.push(spans[c].start.clamp(lo, hi));
        cuts.push(spans[c].end.clamp(lo, hi));
    }
    cuts.sort_unstable();
    cuts.dedup();
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        let active: Vec<usize> = inside
            .iter()
            .copied()
            .filter(|&c| spans[c].start <= a && spans[c].end >= b)
            .collect();
        if active.is_empty() {
            *out.entry(spans[span].layer).or_insert(0.0) += weight * (b - a) as f64;
        } else {
            let share = weight / active.len() as f64;
            for c in active {
                attribute(spans, kids, c, a, b, share, out);
            }
        }
    }
}

/// Self time summed per layer.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer).or_insert(0) += t;
    }
    out
}

/// The spans as Chrome `trace_event` JSON.
pub fn chrome_json(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut args = vec![("span", Json::Int(i as i64))];
            if let Some(p) = s.parent {
                args.push(("parent", Json::Int(p as i64)));
            }
            if let Some(r) = s.req {
                args.push(("req", Json::Int(r as i64)));
            }
            Json::obj(vec![
                ("name", Json::str(s.name.as_str())),
                ("cat", Json::str(s.layer)),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start as f64 / 1e3)),
                ("dur", Json::Num((s.end - s.start) as f64 / 1e3)),
                ("pid", Json::Int(1)),
                ("tid", Json::Int(s.tid as i64)),
                ("args", Json::obj(args)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: layer.to_string(),
            layer,
            start,
            end,
            parent,
            req: None,
            tid: 1,
        }
    }

    #[test]
    fn overlapping_children_count_once_in_self_time() {
        let spans = vec![
            span(GROUP, 0, 100, None),
            span("replay", 10, 50, Some(0)),
            span("system", 30, 70, Some(0)),
            span("store", 20, 40, Some(1)),
        ];
        // Root: children cover [10, 70] once, so 40 ns are its own.
        assert_eq!(self_times(&spans), vec![40, 20, 40, 20]);
        let by_layer = layer_self_times(&spans);
        assert_eq!(by_layer[GROUP], 40);
        assert_eq!(by_layer["replay"], 20);
    }

    #[test]
    fn blocking_path_shares_overlap_and_sums_to_wall() {
        let spans = vec![
            span(GROUP, 0, 100, None),
            span("replay", 10, 50, Some(0)),
            span("system", 30, 70, Some(0)),
            span("store", 20, 40, Some(1)),
        ];
        let path = blocking_path(&spans, 0);
        // [0,10) and [70,100): root alone; [10,20): replay; [20,30):
        // store; [30,40): store and system share; [40,50): replay and
        // system share; [50,70): system.
        assert_eq!(path[GROUP], 40.0);
        assert_eq!(path["replay"], 10.0 + 5.0);
        assert_eq!(path["store"], 10.0 + 5.0);
        assert_eq!(path["system"], 5.0 + 5.0 + 20.0);
        assert_eq!(path.values().sum::<f64>(), 100.0);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span(GROUP, 10, 20, None), span("cache", 0, 15, Some(0))];
        assert_eq!(self_times(&spans)[0], 5);
        assert_eq!(blocking_path(&spans, 0).values().sum::<f64>(), 10.0);
    }

    #[test]
    fn tracer_off_records_nothing_and_chrome_export_parses() {
        let off = Tracer::new(false);
        assert_eq!(off.span("x", "system", NO_SPAN, |id| id), NO_SPAN);
        assert!(off.spans().is_empty());

        let on = Tracer::new(true);
        let root = on.open("root", GROUP, NO_SPAN);
        on.span("child", "replay", root, |_| ());
        on.close(root);
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let text = chrome_json(&spans).compact();
        let back = Json::parse(&text).expect("trace JSON parses");
        assert_eq!(
            back.get("traceEvents")
                .and_then(Json::as_arr)
                .map(|a| a.len()),
            Some(2)
        );
    }
}
