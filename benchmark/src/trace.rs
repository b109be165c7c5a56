//! Spans around the benchmark's own calls into the system under test.
//! Kept in memory while the run lasts, written as JSON lines at exit.

use std::fmt::Write as _;
use std::time::Instant;

pub type SpanId = usize;

pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    /// Which run of the process the span belongs to.
    pub run: u32,
    /// Host nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Public counters sampled when the span closed.
    pub counters: Vec<(&'static str, u64)>,
}

pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    pub fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    /// Host nanoseconds from the tracer's creation to `t`.
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.duration_since(self.t0).as_nanos() as u64
    }

    /// Opens a span that starts now.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, run: u32) -> SpanId {
        let start_ns = self.now_ns();
        self.record(name, parent, run, start_ns, start_ns)
    }

    /// Closes `id` now, attaching `counters`.
    pub fn close(&mut self, id: SpanId, counters: Vec<(&'static str, u64)>) {
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].counters = counters;
    }

    /// Records a span whose interval was measured elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        run: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            parent,
            run,
            start_ns,
            end_ns,
            counters: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Host milliseconds `id` lasted.
    pub fn ms(&self, id: SpanId) -> f64 {
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64 / 1e6
    }

    /// One JSON object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"run\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}",
                s.run, s.name, s.start_ns, s.end_ns
            );
            for (k, v) in &s.counters {
                let _ = write!(out, ", \"{k}\": {v}");
            }
            out.push_str("}\n");
        }
        out
    }
}
