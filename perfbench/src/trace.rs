//! A zero-dependency span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's calls into each layer's
//! public functions, into a per-thread in-memory buffer (no locking on
//! the hot path), and merged when the run ends. Spans nest strictly on
//! one thread, so each span's *self time* (its duration minus the time
//! its children cover) is computed as it closes. The merged buffer is
//! written out as Chrome trace-event JSON, which Perfetto opens as is.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name: `layer.stage`, or a root kind (`op`, `ref`).
    pub name: &'static str,
    /// Name of the depth-0 span this span ran under.
    pub root: &'static str,
    /// Identifier shared by every span of one op.
    pub op: u64,
    /// Recording thread (Chrome `tid`).
    pub tid: u32,
    /// Nesting depth (0 = root).
    pub depth: u32,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Duration minus the time covered by child spans.
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

struct Recorder {
    epoch: Instant,
    tid: u32,
    op: u64,
    root: &'static str,
    stack: Vec<Open>,
    spans: Vec<Span>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on the calling thread. Spans opened on a thread
/// that never called `start` cost nothing and record nothing.
pub fn start(epoch: Instant, tid: u32) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch,
            tid,
            op: 0,
            root: "",
            stack: Vec::new(),
            spans: Vec::new(),
        })
    });
}

/// Stops recording on the calling thread and returns its spans.
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| r.borrow_mut().take().map(|r| r.spans).unwrap_or_default())
}

/// Sets the op identifier stamped on the spans that follow.
pub fn set_op(op: u64) {
    RECORDER.with(|r| {
        if let Some(r) = r.borrow_mut().as_mut() {
            r.op = op;
        }
    });
}

/// Runs `f` inside a span named `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let recording = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let Some(r) = r.as_mut() else { return false };
        if r.stack.is_empty() {
            r.root = name;
        }
        r.stack.push(Open {
            name,
            start: Instant::now(),
            child_ns: 0,
        });
        true
    });
    if !recording {
        return f();
    }
    let out = f();
    let end = Instant::now();
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let r = r
            .as_mut()
            .expect("recorder stays installed while a span is open");
        let open = r.stack.pop().expect("span stack balanced");
        let dur_ns = end.duration_since(open.start).as_nanos() as u64;
        if let Some(parent) = r.stack.last_mut() {
            parent.child_ns += dur_ns;
        }
        r.spans.push(Span {
            name: open.name,
            root: r.root,
            op: r.op,
            tid: r.tid,
            depth: r.stack.len() as u32,
            start_ns: open.start.duration_since(r.epoch).as_nanos() as u64,
            dur_ns,
            self_ns: dur_ns.saturating_sub(open.child_ns),
        });
    });
    out
}

/// Per-layer totals of a span set.
#[derive(Debug, Default)]
pub struct Totals {
    /// Summed self time in seconds, by span name (roots excluded).
    pub self_s: BTreeMap<&'static str, f64>,
    /// Root spans of each kind, and their summed wall-clock in seconds.
    pub roots: BTreeMap<&'static str, (usize, f64)>,
    /// Summed self time of every non-root span, by root kind.
    pub covered_s: BTreeMap<&'static str, f64>,
}

impl Totals {
    /// Aggregates `spans`.
    pub fn of(spans: &[Span]) -> Totals {
        let mut t = Totals::default();
        for s in spans {
            let secs = s.self_ns as f64 * 1e-9;
            if s.depth == 0 {
                let e = t.roots.entry(s.name).or_insert((0, 0.0));
                e.0 += 1;
                e.1 += s.dur_ns as f64 * 1e-9;
            } else {
                *t.self_s.entry(s.name).or_insert(0.0) += secs;
                *t.covered_s.entry(s.root).or_insert(0.0) += secs;
            }
        }
        t
    }

    /// Mean self time of span `name` per root span of kind `root`, in
    /// seconds (0 when the layer did no work).
    pub fn per_root(&self, name: &str, root: &str) -> f64 {
        let roots = self.roots.get(root).map_or(0, |r| r.0);
        if roots == 0 {
            return 0.0;
        }
        self.self_s.get(name).copied().unwrap_or(0.0) / roots as f64
    }

    /// Share of the wall-clock of `root` spans covered by layer self time.
    pub fn coverage(&self, root: &str) -> f64 {
        let wall = self.roots.get(root).map_or(0.0, |r| r.1);
        if wall <= 0.0 {
            return 0.0;
        }
        self.covered_s.get(root).copied().unwrap_or(0.0) / wall
    }
}

/// Renders spans as Chrome trace-event JSON (complete `X` events, µs).
/// At most `cap` events are written; the metadata records how many
/// were left out.
pub fn chrome_json(spans: &[Span], cap: usize) -> String {
    let mut out = String::with_capacity(spans.len().min(cap) * 96 + 128);
    out.push_str("{\"traceEvents\":[");
    for (i, s) in spans.iter().take(cap).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let layer = s.name.split('.').next().unwrap_or(s.name);
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"self_us\":{:.3}}}}}",
            s.name,
            layer,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            s.op,
            s.self_ns as f64 / 1e3
        );
    }
    let _ = write!(
        out,
        "\n],\"displayTimeUnit\":\"ms\",\"metadata\":{{\"spans\":{},\"omitted\":{}}}}}\n",
        spans.len(),
        spans.len().saturating_sub(cap)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_roots_are_counted() {
        start(Instant::now(), 7);
        set_op(3);
        span("op", || {
            span("a.outer", || {
                span("b.inner", || {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
        });
        let spans = finish();
        assert_eq!(spans.len(), 3);
        let inner = spans.iter().find(|s| s.name == "b.inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "a.outer").unwrap();
        assert_eq!(outer.self_ns, outer.dur_ns - inner.dur_ns);
        assert!(spans
            .iter()
            .all(|s| s.op == 3 && s.tid == 7 && s.root == "op"));
        let totals = Totals::of(&spans);
        assert_eq!(totals.roots["op"].0, 1);
        assert!(totals.coverage("op") > 0.9 && totals.coverage("op") <= 1.0);
        assert!(chrome_json(&spans, 10).contains("\"name\":\"b.inner\""));
    }

    #[test]
    fn spans_cost_nothing_when_not_recording() {
        assert_eq!(span("x.y", || 5), 5);
        assert!(finish().is_empty());
    }
}
