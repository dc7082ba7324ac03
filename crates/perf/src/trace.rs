//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call it
//! makes into a layer's public API; nothing inside the layers is
//! instrumented. They are kept in memory and written out once, at exit,
//! as a Chrome trace whose timestamps are integer nanoseconds of host
//! wall-clock time since the recorder was created.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `redmule.plan`.
    pub name: &'static str,
    /// Traced request the span belongs to.
    pub req: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
}

impl Span {
    /// Wall-clock duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name span totals: how often, how long, and how long excluding the
/// time covered by child spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus children), ns.
    pub self_ns: u64,
}

/// Records nested spans. A disabled recorder runs the wrapped closures
/// without reading the clock, so the untraced path pays only a branch.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    req: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that keeps spans.
    pub fn enabled() -> Recorder {
        Recorder {
            enabled: true,
            origin: Instant::now(),
            req: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A recorder that keeps nothing.
    pub fn disabled() -> Recorder {
        Recorder {
            enabled: false,
            ..Recorder::enabled()
        }
    }

    /// Tags the spans opened from now on with request id `req`.
    pub fn set_request(&mut self, req: u64) {
        self.req = req;
    }

    /// Runs `f` inside a span called `name` and returns its result with
    /// the span's duration in ns (0 when disabled). Spans opened inside
    /// `f` become its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> (T, u64) {
        if !self.enabled {
            return (f(self), 0);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            req: self.req,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        let out = f(self);
        let end_ns = self.now_ns();
        self.stack.pop();
        self.spans[id].end_ns = end_ns;
        (out, end_ns - start_ns)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Totals per span name, with self time = duration minus the summed
    /// durations of direct children.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += s.dur_ns().saturating_sub(children);
        }
        out
    }

    /// Renders the spans of the first requests, whole requests only and
    /// at most `max_spans` of them, as a Chrome trace (complete `X`
    /// events on one host thread; `ts`/`dur` in integer ns; request id,
    /// span id and parent id in `args`). Returns the JSON and the number
    /// of spans it holds.
    pub fn chrome_json(&self, workload: &str, max_spans: usize) -> (String, usize) {
        let kept = match self.spans.get(max_spans) {
            Some(first_cut) => self.spans.partition_point(|s| s.req < first_cut.req),
            None => self.spans.len(),
        };
        let mut out = String::with_capacity(64 + kept * 140);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{{\"name\":\"perf {workload}\"}}}}"
        );
        for (id, s) in self.spans[..kept].iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"cat\":\"host\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":0,\
                 \"args\":{{\"req\":{},\"span\":{id},\"parent\":{parent}}}}}",
                s.name,
                s.start_ns,
                s.dur_ns(),
                s.req,
            );
        }
        out.push_str("]}");
        (out, kept)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redmule::obs::validate_chrome_trace;

    #[test]
    fn children_nest_and_self_time_excludes_them() {
        let mut rec = Recorder::enabled();
        rec.set_request(3);
        let ((), outer) = rec.span("outer", |rec| {
            rec.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            rec.span("inner", |_| ());
        });
        let spans = &rec.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.req == 3));
        let totals = rec.totals();
        let o = totals["outer"];
        let i = totals["inner"];
        assert_eq!(o.count, 1);
        assert_eq!(i.count, 2);
        assert_eq!(o.total_ns, outer);
        assert_eq!(o.self_ns, o.total_ns - i.total_ns);
        assert_eq!(i.self_ns, i.total_ns, "leaf self time is its duration");
        assert!(i.total_ns >= 2_000_000);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut rec = Recorder::disabled();
        let (v, ns) = rec.span("x", |rec| rec.span("y", |_| 7).0);
        assert_eq!((v, ns), (7, 0));
        assert!(rec.spans.is_empty());
    }

    #[test]
    fn chrome_export_validates() {
        let mut rec = Recorder::enabled();
        for req in 0..3 {
            rec.set_request(req);
            rec.span("request", |rec| rec.span("layer", |_| ()));
        }
        let (json, kept) = rec.chrome_json("unit", 100);
        let summary = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!((summary.events, kept), (6, 6));
        assert_eq!(summary.lanes, 1);
        // A cap keeps whole requests only: 3 spans would split request 1.
        let (json, kept) = rec.chrome_json("unit", 3);
        assert_eq!(kept, 2);
        assert_eq!(validate_chrome_trace(&json).expect("valid trace").events, 2);
    }
}
