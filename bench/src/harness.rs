//! The measuring loop of one run and the reports built from its samples.

use crate::env;
use crate::layers::Micro;
use crate::run::{merge, set_up, Samples, Tally, BLOCKING_PATH};
use crate::spec::{Workload, END_TO_END, EXACT_COUNTS, MICRO_EVERY, PER_LAYER, SETUP_ROUNDS};
use crate::stats::{median, spread, summarize, worse_by};
use crate::trace::{layer_table, Tracer};
use ckpt_telemetry::JsonWriter;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A timed run always has at least this many reps, however slow the host.
const MIN_REPS: u32 = 3;

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Measure until this much time has passed …
    pub seconds: f64,
    /// … or, when set, for exactly this many reps.
    pub reps: Option<u32>,
    /// Record spans on every other rep and run the layer micro-measurements.
    pub trace: bool,
    /// Where a traced run writes its Chrome trace-event JSON.
    pub trace_out: Option<PathBuf>,
    pub setup_rounds: usize,
}

impl Options {
    pub fn new(workload: Workload, seed: u64, seconds: f64) -> Self {
        Options {
            workload,
            seed,
            seconds,
            reps: None,
            trace: false,
            trace_out: None,
            setup_rounds: SETUP_ROUNDS,
        }
    }
}

/// One metric's value with the samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Vec<f64>,
}

pub struct RunResult {
    pub workload: Workload,
    pub seed: u64,
    pub traced: bool,
    pub reps: u32,
    pub tally: Tally,
    /// Every `end_to_end` metric of an untraced run, every `per_layer`
    /// metric of a traced one. Empty when no rep passed its checks.
    pub metrics: Vec<Metric>,
    /// All samples of the run, whichever list they belong to.
    pub samples: Samples,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && !self.metrics.is_empty()
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The result line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("correct").bool(self.correct());
        w.key("attempted").u64(self.tally.attempted);
        w.key("failed").u64(self.tally.failed);
        w.key("metrics").begin_object();
        for m in &self.metrics {
            w.key(m.name).begin_object();
            w.key("value").f64(m.value);
            w.key("unit").string(m.unit);
            w.end_object();
        }
        w.end_object();
        w.end_object();
        w.finish()
    }

    /// Every metric by name with unit, median, quartiles and sample count.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let s = summarize(&m.samples);
            let tail = s
                .tail
                .map_or(String::new(), |(p, v)| format!("  p{p}={v:.4}"));
            out.push_str(&format!(
                "{:<34} {:>14.4} {:<6} q1={:<12.4} q3={:<12.4} n={}{tail}\n",
                m.name, m.value, m.unit, s.q1, s.q3, s.n
            ));
        }
        out
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// `stat` of the three blocking-path layers, summed, over `stat` of the
/// headline blocked time.
fn blocking_path_share(s: &Samples, stat: fn(&[f64]) -> f64) -> f64 {
    let [blocked, layers @ ..] =
        BLOCKING_PATH.map(|name| s.get(name).map_or(f64::NAN, |v| stat(v)));
    layers.iter().sum::<f64>() / blocked
}

pub fn run(opts: &Options) -> RunResult {
    let threads = env::pool_threads();
    rayon::set_active_threads(threads);
    let mut tally = Tally::default();

    let mut setup_secs = Vec::new();
    let mut bench = None;
    for _ in 0..opts.setup_rounds.max(1) {
        drop(bench.take());
        let done = set_up(opts.workload, opts.seed);
        setup_secs.push(done.secs);
        tally.add(done.warmup);
        bench = Some(done.bench);
    }
    let mut bench = bench.expect("at least one set-up");

    let mut tracer = Tracer::new();
    let mut micro = opts.trace.then(|| Micro::new(&bench, threads));
    let mut samples = Samples::new();
    let (mut recorded, mut unrecorded) = (Vec::new(), Vec::new());
    let budget = Duration::from_secs_f64(opts.seconds);
    let started = Instant::now();
    let mut reps = 0u32;
    loop {
        let done = match opts.reps {
            Some(n) => reps >= n,
            None => reps >= MIN_REPS && started.elapsed() >= budget,
        };
        if done {
            break;
        }
        reps += 1;
        // A traced run records spans on every other rep, so recorded and
        // unrecorded reps see the same host conditions.
        let record = opts.trace && reps.is_multiple_of(2);
        // From rep 2 on, so that a two-rep `--quick` run gets one round.
        let with_micro = opts.trace && reps % MICRO_EVERY == 2;
        tracer.set_recording(record);
        let (rep_samples, rep_tally) = bench.rep(reps, &mut tracer, with_micro);
        tally.add(rep_tally);
        let Some(rep_samples) = rep_samples else {
            continue;
        };
        if opts.trace {
            let blocked = median(&rep_samples["ckpt_blocked_ms"]);
            if record {
                &mut recorded
            } else {
                &mut unrecorded
            }
            .push(blocked);
        }
        merge(&mut samples, rep_samples);
        if let (true, Some(micro)) = (with_micro, micro.as_mut()) {
            tally.add(micro.round(&bench, &mut samples));
        }
    }
    tracer.set_recording(false);

    let metrics = if !samples.contains_key("ckpt_blocked_ms") {
        Vec::new()
    } else if opts.trace {
        // Means add, so this is exactly the `ckpt` span's mean self time.
        let unattributed = 100.0 * (1.0 - blocking_path_share(&samples, mean));
        samples.insert("blocked.unattributed_pct", vec![unattributed]);
        // Each recorded rep against the unrecorded rep just before it: the
        // pair shares the host's conditions of that moment.
        let overheads: Vec<f64> = unrecorded
            .iter()
            .zip(&recorded)
            .map(|(plain, traced)| 100.0 * (traced - plain) / plain)
            .collect();
        samples.insert("trace.overhead_pct", vec![median(&overheads)]);
        PER_LAYER
            .iter()
            .map(|m| metric(m.name, m.unit, &samples))
            .collect()
    } else {
        samples.insert("peak_rss_mib", vec![env::peak_rss_mib()]);
        samples.insert("setup_s", setup_secs);
        END_TO_END
            .iter()
            .map(|m| metric(m.name, m.unit, &samples))
            .collect()
    };

    if let Some(path) = &opts.trace_out {
        match std::fs::write(path, tracer.chrome_json()) {
            Ok(()) => eprintln!(
                "trace: {} spans -> {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("trace: cannot write {}: {e}", path.display()),
        }
    }
    if opts.trace {
        eprint!("{}", self_time_table(&tracer));
    }
    RunResult {
        workload: opts.workload,
        seed: opts.seed,
        traced: opts.trace,
        reps,
        tally,
        metrics,
        samples,
    }
}

/// The median of a metric's samples. Only a per-layer metric can lack
/// samples — its layer is off in this workload — and then reads 0.
fn metric(name: &'static str, unit: &'static str, s: &Samples) -> Metric {
    let samples = s.get(name).cloned().unwrap_or_default();
    Metric {
        name,
        unit,
        value: if samples.is_empty() {
            0.0
        } else {
            median(&samples)
        },
        samples,
    }
}

fn self_time_table(tracer: &Tracer) -> String {
    let mut out = format!(
        "{:<26} {:>8} {:>14} {:>14}\n",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, row) in layer_table(tracer.spans()) {
        out.push_str(&format!(
            "{:<26} {:>8} {:>14.3} {:>14.3}\n",
            name,
            row.count,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6
        ));
    }
    out
}

/// Host, build and run parameters, one `key: value` per line.
pub fn header(r: &RunResult) -> String {
    let w = r.workload;
    let mut lines = env::fingerprint();
    lines.push(("workload", w.name.to_string()));
    lines.push((
        "parameters",
        format!(
            "ranks={} checkpoints={} method={:?} stack={:?} graph={:?} order={:?} vertices={} tail_vertices={} chunk={}",
            w.ranks, w.checkpoints, w.method, w.stack, w.graph, w.order, w.vertices,
            w.tail_vertices, crate::spec::CHUNK
        ),
    ));
    lines.push(("seed", r.seed.to_string()));
    lines.push(("traced", r.traced.to_string()));
    lines.push(("reps", r.reps.to_string()));
    lines.push((
        "operations",
        format!("{} attempted, {} failed", r.tally.attempted, r.tally.failed),
    ));
    if let Some(v) = r.samples.get("host.memcpy_gbps") {
        lines.push(("host.memcpy_gbps", format!("{:.3}", median(v))));
    }
    lines.iter().map(|(k, v)| format!("{k}: {v}\n")).collect()
}

/// A/A comparison of two untraced runs of one workload: every end-to-end
/// median within its bound, every exact count identical, the blocking path
/// reconciled. Returns the report and whether it passed.
pub fn compare_a_a(a: &RunResult, b: &RunResult) -> (String, bool) {
    let mut out = String::new();
    let mut ok = a.correct() && b.correct();
    if !ok {
        out.push_str("a run failed its correctness checks\n");
    }
    for m in END_TO_END {
        // The high-water mark of one process only ever grows, so the
        // second run's reading is not comparable with the first's.
        if m.name == "peak_rss_mib" {
            continue;
        }
        let (Some(ma), Some(mb)) = (a.metric(m.name), b.metric(m.name)) else {
            continue;
        };
        let worse = worse_by(m.better, ma.value, mb.value).abs();
        let pass = worse <= m.bound;
        ok &= pass;
        out.push_str(&format!(
            "{:<28} A={:<12.5} B={:<12.5} |A-B|/A={:>7.3}% bound={:>5.1}% spread(A)={:>7.3}% spread(B)={:>7.3}% {}\n",
            m.name,
            ma.value,
            mb.value,
            100.0 * worse,
            100.0 * m.bound,
            100.0 * spread(&ma.samples),
            100.0 * spread(&mb.samples),
            if pass { "ok" } else { "OUT OF BOUND" }
        ));
    }
    for name in EXACT_COUNTS {
        let first = |r: &RunResult| r.samples.get(name).and_then(|v| v.first().copied());
        let (va, vb) = (first(a), first(b));
        ok &= va == vb;
        if va != vb {
            out.push_str(&format!("{name}: count differs: {va:?} vs {vb:?}\n"));
        }
    }
    for (label, r) in [("A", a), ("B", b)] {
        let ratio = blocking_path_share(&r.samples, median);
        let pass = (ratio - 1.0).abs() <= 0.05;
        ok &= pass;
        out.push_str(&format!(
            "{label}: checkpoint + encode + submit = {:.2}% of ckpt_blocked_ms {}\n",
            100.0 * ratio,
            if pass { "ok" } else { "NOT RECONCILED" }
        ));
    }
    (out, ok)
}
