//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded by the benchmark around each call it makes into
//! a workspace crate (the crate is the span's *layer*), nested through
//! an explicit stack so each span knows the span that caused it. The
//! per-job spans of the real-time runtimes are reconstructed afterwards
//! from `RtJobRecord`s. Nothing is written until the pass ends; then
//! the spans become a Chrome trace (`chrome://tracing`, Perfetto) and a
//! per-layer self-time table.
//!
//! With tracing off every call still returns its own duration (the
//! workloads need those figures either way) but no span is stored.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The layers spans are attributed to: the workspace crates, plus
/// `app` for task bodies and `bench` for the benchmark's own loop.
pub const LAYERS: [&str; 10] = [
    "core",
    "taskgen",
    "analysis",
    "sched",
    "sync",
    "rt",
    "sim",
    "baselines",
    "app",
    "bench",
];

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub job: Option<u64>,
    /// 0 = the benchmark's main thread, `1 + w` = runtime worker `w`.
    pub tid: u32,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Handle of an open span (inert when tracing is off).
#[derive(Clone, Copy, Debug)]
pub struct Open {
    idx: Option<usize>,
    start: Instant,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn begin(&mut self, layer: &'static str, name: &'static str, job: Option<u64>) -> Open {
        let start = Instant::now();
        if !self.enabled {
            return Open { idx: None, start };
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start: self.ns(start),
            end: self.ns(start),
            parent: self.stack.last().copied(),
            job,
            tid: 0,
        });
        self.stack.push(idx);
        Open {
            idx: Some(idx),
            start,
        }
    }

    /// Closes `open` and returns its duration.
    pub fn end(&mut self, open: Open) -> Duration {
        let now = Instant::now();
        if let Some(idx) = open.idx {
            self.spans[idx].end = self.ns(now);
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
        }
        now - open.start
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn timed<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let open = self.begin(layer, name, None);
        let r = f();
        (r, self.end(open))
    }

    /// Adds an already-finished span (reconstructed from runtime
    /// records); returns its index for use as a parent.
    pub fn record(&mut self, span: Span) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Self time per layer in nanoseconds: each span's duration minus
    /// the part of it its direct children cover (children of one
    /// parent never overlap: they run on the parent's thread, or are
    /// the single body span of a job).
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end.saturating_sub(s.start);
            }
        }
        let mut out: BTreeMap<&'static str, u64> = LAYERS.iter().map(|&l| (l, 0)).collect();
        for (s, c) in self.spans.iter().zip(covered) {
            *out.entry(s.layer).or_default() += s.end.saturating_sub(s.start).saturating_sub(c);
        }
        out
    }

    /// The spans as a Chrome trace-event JSON document.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i}",
                s.name,
                s.layer,
                s.tid,
                s.start as f64 / 1e3,
                s.end.saturating_sub(s.start) as f64 / 1e3
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(j) = s.job {
                let _ = write!(out, ",\"job\":{j}");
            }
            out.push_str("}}");
        }
        out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now());
        let root = t
            .record(Span {
                name: "root",
                layer: "bench",
                start: 0,
                end: 100,
                parent: None,
                job: None,
                tid: 0,
            })
            .unwrap();
        t.record(Span {
            name: "child",
            layer: "rt",
            start: 10,
            end: 40,
            parent: Some(root),
            job: Some(7),
            tid: 0,
        });
        let st = t.self_time_by_layer();
        assert_eq!(st["bench"], 70);
        assert_eq!(st["rt"], 30);
        assert_eq!(st["sim"], 0);
        let doc = t.chrome_trace();
        assert!(doc.contains("\"parent\":0") && doc.contains("\"job\":7"));
    }

    #[test]
    fn disabled_tracer_still_times_but_stores_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let ((), d) = t.timed("sim", "x", || std::thread::sleep(Duration::from_millis(1)));
        assert!(d >= Duration::from_millis(1));
        assert!(t.spans.is_empty());
    }
}
