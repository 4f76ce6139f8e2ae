//! In-memory spans around the benchmark's calls into each layer.
//!
//! One producer thread drives every rep, so open spans form a stack: a
//! span's parent is whatever was open when it began. A handle measures
//! wall time whether or not recording is on, so the headline numbers and
//! the traced per-layer numbers come from the same two clock reads; the
//! only thing tracing adds is the record pushed at `end`.

use ckpt_telemetry::JsonWriter;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Correlation id shared by the spans of one checkpoint's journey.
/// `rank`/`ckpt` are `None` on spans that cover a whole phase or rep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Corr {
    pub rep: u32,
    pub rank: Option<u32>,
    pub ckpt: Option<u32>,
}

impl Corr {
    pub fn rep(rep: u32) -> Self {
        Corr {
            rep,
            rank: None,
            ckpt: None,
        }
    }

    pub fn object(rep: u32, rank: u32, ckpt: u32) -> Self {
        Corr {
            rep,
            rank: Some(rank),
            ckpt: Some(ckpt),
        }
    }
}

/// One closed span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub corr: Corr,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span; hand it back to [`Tracer::end`].
#[must_use = "a span measures nothing until it is ended"]
pub struct Open {
    started: Instant,
    index: Option<usize>,
}

/// Per-name totals of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerRow {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part covered by child spans.
    pub self_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    recording: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            recording: false,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turn span recording on or off; only legal between spans.
    pub fn set_recording(&mut self, on: bool) {
        assert!(self.open.is_empty(), "recording toggled inside a span");
        self.recording = on;
    }

    pub fn begin(&mut self, name: &'static str, corr: Corr) -> Open {
        let started = Instant::now();
        let index = self.recording.then(|| {
            let start_ns = (started - self.origin).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
                corr,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { started, index }
    }

    /// Close `open` and return its wall time.
    pub fn end(&mut self, open: Open) -> Duration {
        let dur = open.started.elapsed();
        if let Some(i) = open.index {
            assert_eq!(self.open.pop(), Some(i), "spans must close innermost first");
            self.spans[i].end_ns = self.spans[i].start_ns + dur.as_nanos() as u64;
        }
        dur
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
    /// event per span, `pid` = rep, `tid` = rank (0 for phase spans), the
    /// parent index and checkpoint id under `args`.
    pub fn chrome_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("displayTimeUnit").string("ms");
        w.key("traceEvents").begin_array();
        for (i, s) in self.spans.iter().enumerate() {
            w.begin_object();
            w.key("name").string(s.name);
            w.key("ph").string("X");
            w.key("ts").f64(s.start_ns as f64 / 1e3);
            w.key("dur").f64(s.dur_ns() as f64 / 1e3);
            w.key("pid").u64(s.corr.rep as u64);
            w.key("tid").u64(s.corr.rank.unwrap_or(0) as u64);
            w.key("args").begin_object();
            w.key("id").u64(i as u64);
            if let Some(p) = s.parent {
                w.key("parent").u64(p as u64);
            }
            if let Some(k) = s.corr.ckpt {
                w.key("ckpt").u64(k as u64);
            }
            w.end_object();
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover. Children of one parent never overlap (one
/// thread, stack discipline), so their durations simply add.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Count, total and self time per span name.
pub fn layer_table(spans: &[Span]) -> BTreeMap<&'static str, LayerRow> {
    let mut table: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let row = table.entry(s.name).or_default();
        row.count += 1;
        row.total_ns += s.dur_ns();
        row.self_ns += self_ns;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            corr: Corr::default(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("rep", 0, 100, None),
            span("ckpt", 10, 60, Some(0)),
            span("checkpoint", 10, 40, Some(1)),
            span("encode", 40, 55, Some(1)),
            span("restore", 60, 90, Some(0)),
        ];
        // rep: 100 - (50 + 30); ckpt: 50 - (30 + 15); leaves keep it all.
        assert_eq!(self_times_ns(&spans), vec![20, 5, 30, 15, 30]);
        let t = layer_table(&spans);
        assert_eq!(
            t["ckpt"],
            LayerRow {
                count: 1,
                total_ns: 50,
                self_ns: 5
            }
        );
        // Self times tile the root: nothing is counted twice or lost.
        assert_eq!(t.values().map(|r| r.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_by_open_stack_and_skips_when_off() {
        let mut tr = Tracer::new();
        let a = tr.begin("quiet", Corr::rep(0));
        tr.end(a);
        assert!(tr.spans().is_empty());

        tr.set_recording(true);
        let outer = tr.begin("outer", Corr::rep(1));
        let inner = tr.begin("inner", Corr::object(1, 2, 3));
        tr.end(inner);
        tr.end(outer);
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.spans()[0].parent, None);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert!(tr.spans()[1].end_ns <= tr.spans()[0].end_ns);
        let json = tr.chrome_json();
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"name\":\"inner\""));
        assert!(json.contains("\"ckpt\":3"));
    }
}
