//! In-memory span recorder around the public calls the benchmark makes.
//!
//! Every call the benchmark times goes through [`Tracer::begin`] and
//! [`Tracer::end`]. The elapsed time is always accumulated per span name,
//! so every round yields the per-layer host times. The span itself (name,
//! start, end, parent, op id, round) is kept only while recording is on,
//! and written out as JSON lines when the benchmark ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
    pub round: u32,
}

/// A span that has begun and not yet ended.
#[must_use]
pub struct Open {
    name: &'static str,
    start: Instant,
    idx: Option<usize>,
}

pub struct Tracer {
    on: bool,
    round: u32,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    totals: BTreeMap<&'static str, Duration>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            round: 0,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    /// Turns span recording on or off for the next round, and clears the
    /// per-name totals.
    pub fn start_round(&mut self, round: u32, on: bool) {
        self.on = on;
        self.round = round;
        self.totals.clear();
    }

    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        let start = Instant::now();
        let idx = self.on.then(|| {
            let idx = self.spans.len();
            self.spans.push(Span {
                name,
                start_ns: nanos(start - self.origin),
                end_ns: 0,
                parent: self.stack.last().copied(),
                op,
                round: self.round,
            });
            self.stack.push(idx);
            idx
        });
        Open { name, start, idx }
    }

    pub fn end(&mut self, open: Open) -> Duration {
        let now = Instant::now();
        let took = now - open.start;
        if let Some(idx) = open.idx {
            self.spans[idx].end_ns = nanos(now - self.origin);
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans must nest");
        }
        *self.totals.entry(open.name).or_default() += took;
        took
    }

    /// Times `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, op);
        let out = f();
        self.end(open);
        out
    }

    /// Host time spent in spans called `name` during the current round.
    pub fn total(&self, name: &str) -> Duration {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Per span name: (count, total ns, self ns), where self time is a
    /// span's duration minus the time its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(child[i]);
        }
        out
    }

    /// All recorded spans as JSON lines.
    pub fn json_lines(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"round\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op, s.round
            );
        }
        out
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
