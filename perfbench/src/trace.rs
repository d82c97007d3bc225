//! Spans recorded from outside the program, around each call into a
//! layer's public functions.
//!
//! A span is a name, a start, an end, the span that caused it and the op
//! it belongs to. Spans live in memory and are written out when the run
//! ends. A layer's self time is its spans' durations minus the part their
//! child spans cover; the layer is the span name up to its first dot.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `ssb.query.aware`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Op the span belongs to (0 = set-up or probe work outside any op).
    pub op: u64,
}

/// Times every call; records spans only when enabled.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A tracer that records spans when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Start numbering spans as part of a new op; returns its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// Leave the current op: later spans belong to no op.
    pub fn end_op(&mut self) {
        self.op = 0;
    }

    /// Open a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = now;
        }
    }

    /// Run `f` inside a span named `name` and return its result with the
    /// host seconds it took. The time is measured whether or not spans
    /// are recorded.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        self.enter(name);
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        self.exit();
        (out, secs)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self and total time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, seconds.
    pub total_s: f64,
    /// Sum of their durations minus their children's, seconds.
    pub self_s: f64,
}

/// Self time per span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child_ns[p] += span.end_ns - span.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        let dur = span.end_ns - span.start_ns;
        let entry = out.entry(span.name).or_default();
        entry.count += 1;
        entry.total_s += dur as f64 * 1e-9;
        entry.self_s += dur.saturating_sub(children) as f64 * 1e-9;
    }
    out
}

/// Self seconds summed per layer (the span name up to its first dot).
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (name, t) in self_times(spans) {
        let layer = name.split('.').next().unwrap_or(name);
        *out.entry(layer).or_insert(0.0) += t.self_s;
    }
    out
}

/// The spans as Chrome trace-event JSON (loads in Perfetto or
/// `chrome://tracing`): one complete event per span, the op and parent
/// in its args.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            "{}{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
             \"dur\": {:.3}, \"args\": {{\"span\": {i}, \"parent\": {parent}, \"op\": {}}}}}",
            if i == 0 { "" } else { ",\n" },
            s.name,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.op,
        );
    }
    out.push_str("\n]}\n");
    out
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
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("bench.data_set", 0, 100, None),
            span("ssb.load.aware", 10, 40, Some(0)),
            span("ssb.query.aware", 40, 90, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["bench.data_set"].count, 1);
        assert!((t["bench.data_set"].self_s - 20e-9).abs() < 1e-15);
        assert!((t["ssb.query.aware"].self_s - 50e-9).abs() < 1e-15);
        let layers = layer_self_times(&spans);
        assert!((layers["ssb"] - 80e-9).abs() < 1e-15);
        assert!((layers["bench"] - 20e-9).abs() < 1e-15);
    }

    #[test]
    fn a_disabled_tracer_still_times_but_records_nothing() {
        let mut off = Tracer::new(false);
        let (v, secs) = off.timed("ssb.datagen", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(off.spans().is_empty());

        let mut on = Tracer::new(true);
        on.enter("bench.cycle");
        let op = on.next_op();
        on.timed("serve.run", || ());
        on.end_op();
        on.exit();
        assert_eq!(on.spans().len(), 2);
        assert_eq!(on.spans()[1].parent, Some(0));
        assert_eq!(on.spans()[1].op, op);
        assert!(chrome_json(on.spans()).contains("\"name\": \"serve.run\""));
    }
}
