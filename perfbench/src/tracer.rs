//! In-memory span recorder for the traced run.
//!
//! The benchmark records one span around each call it makes into a crate's
//! public functions: the layer (crate) called, a label, start and end, and the
//! span that was open when the call began.  Spans stay in memory and are
//! written out once, when the run ends.  With tracing off, [`Tracer::span`]
//! only calls the closure, so the untraced run pays one branch per call.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = usize;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer the call went into (`sim`, `isa`, `workloads`, `sweep`, `mem`,
    /// `bpred`), or `bench` for the benchmark's own grouping spans.
    pub layer: &'static str,
    /// What was called, with its subject.
    pub name: String,
    /// Seconds since the tracer started.
    pub start: f64,
    /// Seconds since the tracer started; equals `start` while still open.
    pub end: f64,
    /// The span open when this one began.
    pub parent: Option<SpanId>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Single-threaded span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: Cell<bool>,
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<SpanId>>,
}

impl Tracer {
    /// A tracer that records only while enabled.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled: Cell::new(enabled),
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Turns recording on or off.  Spans already open still close.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    /// Runs `f`, recording it as a span of `layer` when enabled.
    pub fn span<R>(
        &self,
        layer: &'static str,
        name: impl FnOnce() -> String,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled.get() {
            return f();
        }
        let id = self.open(layer, name());
        let r = f();
        self.close(id);
        r
    }

    /// Opens a span and makes it the parent of spans opened until
    /// [`Tracer::close_root`].  Returns `None` when disabled.
    pub fn open_root(&self, layer: &'static str, name: String) -> Option<SpanId> {
        self.enabled.get().then(|| self.open(layer, name))
    }

    /// Closes a span opened by [`Tracer::open_root`].
    pub fn close_root(&self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.close(id);
        }
    }

    fn open(&self, layer: &'static str, name: String) -> SpanId {
        let now = self.t0.elapsed().as_secs_f64();
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        spans.push(Span {
            layer,
            name,
            start: now,
            end: now,
            parent: self.stack.borrow().last().copied(),
        });
        self.stack.borrow_mut().push(id);
        id
    }

    fn close(&self, id: SpanId) {
        let now = self.t0.elapsed().as_secs_f64();
        self.spans.borrow_mut()[id].end = now;
        let popped = self.stack.borrow_mut().pop();
        debug_assert_eq!(popped, Some(id), "spans close in reverse order");
    }

    /// Duration of span `id` in seconds.
    pub fn secs(&self, id: SpanId) -> f64 {
        self.spans.borrow()[id].secs()
    }

    /// Self time per layer over `root` and all its descendants: each span's
    /// duration minus the time its direct children cover.  Children run one
    /// after another on this thread, so their durations never overlap and the
    /// self times add up to the root's duration exactly.
    pub fn self_times(&self, root: SpanId) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut child_secs = vec![0.0; spans.len()];
        let mut inside = vec![false; spans.len()];
        inside[root] = true;
        // Parents always precede their children, so one forward sweep marks
        // every descendant of `root`.
        for (id, s) in spans.iter().enumerate().skip(root + 1) {
            if let Some(p) = s.parent {
                if inside[p] {
                    inside[id] = true;
                    child_secs[p] += s.secs();
                }
            }
        }
        let mut out = BTreeMap::new();
        for (id, s) in spans.iter().enumerate() {
            if inside[id] {
                *out.entry(s.layer).or_insert(0.0) += s.secs() - child_secs[id];
            }
        }
        out
    }

    /// Total seconds and call count per span label prefix (the text before
    /// the first space) under `root`, e.g. `sim.run` or `isa.open`.
    pub fn calls(&self, root: SpanId) -> BTreeMap<String, (f64, u64)> {
        let spans = self.spans.borrow();
        let mut inside = vec![false; spans.len()];
        inside[root] = true;
        let mut out = BTreeMap::new();
        for (id, s) in spans.iter().enumerate().skip(root + 1) {
            if let Some(p) = s.parent {
                if inside[p] {
                    inside[id] = true;
                    let key = s.name.split(' ').next().unwrap_or("").to_string();
                    let e = out.entry(key).or_insert((0.0, 0));
                    e.0 += s.secs();
                    e.1 += 1;
                }
            }
        }
        out
    }

    /// Every span as a JSON array of `{id, layer, name, start, end, parent}`.
    pub fn to_json(&self) -> String {
        let spans = self.spans.borrow();
        let mut out = String::from("[");
        for (id, s) in spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{id},\"layer\":\"{}\",\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent}}}",
                s.layer,
                s.name.replace('"', "'"),
                s.start,
                s.end
            );
        }
        out.push_str("\n]");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root() {
        let t = Tracer::new(true);
        let root = t.open_root("bench", "loop".into());
        t.span(
            "sim",
            || "sim.run a".into(),
            || {
                t.span(
                    "isa",
                    || "isa.open".into(),
                    || std::thread::sleep(std::time::Duration::from_millis(2)),
                );
                std::thread::sleep(std::time::Duration::from_millis(2));
            },
        );
        t.close_root(root);
        let root = root.expect("enabled");
        let selfs = t.self_times(root);
        let sum: f64 = selfs.values().sum();
        assert!((sum - t.secs(root)).abs() < 1e-9);
        assert!(selfs["isa"] >= 0.002 && selfs["sim"] >= 0.002);
        assert_eq!(t.calls(root)["sim.run"].1, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("sim", || "x".into(), || 7), 7);
        assert!(t.open_root("bench", "loop".into()).is_none());
        assert_eq!(t.to_json(), "[\n]");
    }
}
