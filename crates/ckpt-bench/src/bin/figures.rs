//! Regenerate the paper's tables and figures.
//!
//! ```text
//! figures <experiment> [--scale N] [--rank-scale N] [--seed N]
//!
//! experiments:
//!   table1            input-graph inventory
//!   fig2              compact-metadata worked example
//!   fig4              chunk-size sweep (ratio + throughput)
//!   fig5              checkpoint-frequency sweep incl. compressors
//!   fig6              strong scaling 1..64 ranks, Tree vs Full
//!   hybrid            E1: Tree records through flush-stage compression (§5)
//!   highfreq          E2: producer stall under storage backpressure (§1)
//!   streaming         E3: checkpoint-level compute/transfer pipelining (§5)
//!   adjoint           E5: adjoint reversal, revolve vs dedup store (§5)
//!   host_scaling      scale x thread-count sweep of the persistent host
//!                     pool (writes BENCH_host_scaling.json; see --scales)
//!   restart_latency   sequential replay vs single-pass parallel restart,
//!                     chain length x method x threads (writes
//!                     BENCH_restart_latency.json; see --chain-lens)
//!   flush_pipeline    compressed-tier flush sweep, method x compression
//!                     policy x threads (writes BENCH_flush_pipeline.json;
//!                     see --scales / --threads)
//!   redundancy        cross-rank redundancy groups: throughput overhead
//!                     and rank-loss restore latency vs PFS-only recovery,
//!                     method x policy (writes BENCH_redundancy.json)
//!   rank_dedup        cluster-wide dedup index: stored bytes and restore
//!                     digests, policy x rank-dedup on/off over 4 ranks
//!                     with overlapping working sets (writes
//!                     BENCH_rank_dedup.json)
//!   ablation-hash     A1: Murmur3 vs MD5 and SHA-256
//!   ablation-metadata A2: Tree vs List metadata
//!   ablation-waves    A3: two-stage vs naive wave ordering
//!   ablation-gorder   A4: Gorder on/off
//!   ablation-fusion   A5: one fused kernel vs per-pass launches
//!   all               everything above
//! ```

use ckpt_bench::experiments::{self as e, ExpConfig};
use ckpt_bench::report::{render_json, render_table, Report};

/// A usage error: name what was wrong, print the synopsis, exit 2.
fn usage(problem: &str) -> ! {
    eprintln!(
        "figures: {problem}\n\
         usage: figures <table1|fig2|fig4|fig5|fig6|hybrid|highfreq|streaming|adjoint|host_scaling|restart_latency|\
         flush_pipeline|redundancy|rank_dedup|ablation-hash|ablation-metadata|ablation-waves|ablation-gorder|ablation-fusion|all> \
         [--scale N] [--scales A,B,C] [--threads A,B,C] [--chain-lens A,B] [--rank-scale N] [--coverage F] \
         [--seed N] [--json-out PATH]"
    );
    std::process::exit(2);
}

/// Parsed flags; each experiment reads the ones it sweeps.
struct Args {
    cfg: ExpConfig,
    rank_scale: usize,
    coverage: f64,
    scales: Option<Vec<usize>>,
    threads: Vec<usize>,
    chain_lens: Vec<usize>,
}

impl Args {
    fn scales(&self, default: &[usize]) -> Vec<usize> {
        self.scales.clone().unwrap_or_else(|| default.to_vec())
    }
}

/// Where an experiment's JSON goes.
enum Json {
    No,
    /// Printed after the table (Fig. 4's per-stage breakdown).
    Inline,
    /// Written to `--json-out`, or to `BENCH_<name>.json` by default.
    File,
}

type Run = fn(&Args) -> Box<dyn Report>;

/// Every experiment: name, how to run it, where its JSON goes. `all` runs
/// them in this order.
const EXPERIMENTS: [(&str, Run, Json); 19] = [
    ("table1", |a| Box::new(e::table1(a.cfg)), Json::No),
    ("fig2", |_| Box::new(e::fig2_demo()), Json::No),
    ("fig4", |a| Box::new(e::fig4(a.cfg)), Json::Inline),
    ("fig5", |a| Box::new(e::fig5(a.cfg)), Json::File),
    ("fig6", fig6, Json::No),
    ("hybrid", |a| Box::new(e::hybrid(a.cfg)), Json::No),
    ("highfreq", |a| Box::new(e::highfreq(a.cfg)), Json::No),
    ("streaming", |a| Box::new(e::streaming(a.cfg)), Json::No),
    ("adjoint", |a| Box::new(e::adjoint(a.cfg)), Json::No),
    ("host_scaling", host_scaling, Json::File),
    ("restart_latency", restart_latency, Json::File),
    ("flush_pipeline", flush_pipeline, Json::File),
    ("redundancy", redundancy, Json::File),
    ("rank_dedup", rank_dedup, Json::File),
    (
        "ablation-hash",
        |a| Box::new(e::ablation_hash(a.cfg)),
        Json::No,
    ),
    (
        "ablation-metadata",
        |a| Box::new(e::ablation_metadata(a.cfg)),
        Json::No,
    ),
    (
        "ablation-waves",
        |a| Box::new(e::ablation_waves(a.cfg)),
        Json::No,
    ),
    (
        "ablation-gorder",
        |a| Box::new(e::ablation_gorder(a.cfg)),
        Json::No,
    ),
    (
        "ablation-fusion",
        |a| Box::new(e::ablation_fusion(a.cfg)),
        Json::No,
    ),
];

fn fig6(a: &Args) -> Box<dyn Report> {
    let points = e::fig6_with_ranks(a.rank_scale, a.cfg.seed, &e::FIG6_RANKS, a.coverage);
    Box::new(points)
}

fn host_scaling(a: &Args) -> Box<dyn Report> {
    let scales = a.scales(&e::HOST_SCALING_SCALES);
    Box::new(e::host_scaling_at(&scales, a.cfg.seed))
}

fn restart_latency(a: &Args) -> Box<dyn Report> {
    Box::new(e::restart_latency_at(
        &a.chain_lens,
        a.cfg.scale,
        a.cfg.seed,
    ))
}

fn flush_pipeline(a: &Args) -> Box<dyn Report> {
    let scales = a.scales(&e::FLUSH_PIPELINE_SCALES);
    Box::new(e::flush_pipeline_at(&scales, a.cfg.seed, &a.threads))
}

fn redundancy(a: &Args) -> Box<dyn Report> {
    let scale = a.scales(&[e::REDUNDANCY_SCALE])[0];
    Box::new(e::redundancy_at(scale, a.cfg.seed))
}

fn rank_dedup(a: &Args) -> Box<dyn Report> {
    let scale = a.scales(&[e::RANK_DEDUP_SCALE])[0];
    Box::new(e::rank_dedup_at(scale, a.cfg.seed))
}

/// The experiments that consume one scale of `--scales`, not a sweep.
const ONE_SCALE: [&str; 2] = ["redundancy", "rank_dedup"];

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(what) = argv.first() else {
        usage("no experiment named")
    };
    let wanted = |(name, ..): &&(&str, Run, Json)| what == "all" || what == name;
    let selected: Vec<_> = EXPERIMENTS.iter().filter(wanted).collect();
    if selected.is_empty() {
        usage(&format!("unknown experiment {what}"));
    }
    let one_scale = selected.iter().any(|(name, ..)| ONE_SCALE.contains(name));

    let mut args = Args {
        cfg: ExpConfig::default(),
        rank_scale: 4_000,
        coverage: ckpt_bench::workload::SCALING_COVERAGE,
        scales: None,
        threads: e::FLUSH_PIPELINE_THREADS.to_vec(),
        chain_lens: e::RESTART_CHAIN_LENS.to_vec(),
    };
    let mut json_out: Option<&String> = None;
    let mut flags = argv[1..].iter();
    while let Some(flag) = flags.next() {
        let Some(value) = flags.next() else {
            usage(&format!("{flag} needs a value"))
        };
        fn one<T: std::str::FromStr>(flag: &str, value: &str) -> T {
            let parsed = value.trim().parse();
            parsed.unwrap_or_else(|_| usage(&format!("{flag}: cannot parse {value}")))
        }
        // The one list parser: comma-separated, at most `max` values.
        let list = |max: usize| -> Vec<usize> {
            let values: Vec<usize> = value.split(',').map(|v| one(flag, v)).collect();
            if values.len() > max {
                usage(&format!("{flag} {value}: {what} consumes only {max} value"));
            }
            values
        };
        match flag.as_str() {
            "--scale" => args.cfg.scale = one(flag, value),
            "--seed" => args.cfg.seed = one(flag, value),
            "--rank-scale" => args.rank_scale = one(flag, value),
            "--coverage" => args.coverage = one(flag, value),
            "--scales" => args.scales = Some(list(if one_scale { 1 } else { usize::MAX })),
            "--threads" => args.threads = list(usize::MAX),
            "--chain-lens" => args.chain_lens = list(usize::MAX),
            "--json-out" => json_out = Some(value),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let files = selected
        .iter()
        .filter(|(.., json)| matches!(json, Json::File));
    if json_out.is_some() && files.count() > 1 {
        usage(&format!(
            "--json-out names one file but {what} writes several"
        ));
    }

    let t0 = std::time::Instant::now();
    let mut violations = 0;
    for (name, run, json) in selected {
        println!("==== {name} ====");
        let report = run(&args);
        let body = report.body();
        println!("{}", render_table(report.title(), &body));
        match json {
            Json::No => {}
            Json::Inline => println!(
                "per-stage breakdown (JSON):\n{}\n",
                render_json(name, &body)
            ),
            Json::File => {
                let default = format!("BENCH_{name}.json");
                let out = json_out.unwrap_or(&default);
                let written = std::fs::write(out, render_json(name, &body));
                written.unwrap_or_else(|e| panic!("write {out}: {e}"));
                println!("wrote {out}\n");
            }
        }
        for v in report.gate() {
            eprintln!("[figures] {name}: gate violation: {v}");
            violations += 1;
        }
    }
    eprintln!("[figures] completed in {:.1}s", t0.elapsed().as_secs_f64());
    if violations > 0 {
        std::process::exit(1);
    }
}
