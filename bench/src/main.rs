//! `ckpt-e2e` command line. The driver's form is
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>`; the last line
//! of standard output is then the result object, everything else goes to
//! standard error.

use ckpt_e2e::harness::{compare_a_a, header, run, Options};
use ckpt_e2e::spec::{self, Workload, DEFAULT_SEED, RUN_SECONDS, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: ckpt-e2e --workload <name> [--seed N] [--seconds S | --reps N] [--trace 0|1]
                [--trace-out FILE] [--quick]
       ckpt-e2e --all [--seed N] [--seconds S] [--quick]
       ckpt-e2e --self-check [--seed N] [--seconds S] [--quick]
       ckpt-e2e --print-benchmark-json | --describe
workloads: sparse_tree dense_tree cluster_tree cluster_full
--quick runs the same shapes at 2 k vertices for 2 reps (correctness only)";

enum Mode {
    One(String),
    All,
    SelfCheck,
    PrintBenchmarkJson,
    Describe,
}

struct Cli {
    seed: u64,
    seconds: f64,
    reps: Option<u32>,
    trace: bool,
    trace_out: Option<PathBuf>,
    quick: bool,
}

fn parse(args: &[String]) -> Result<(Mode, Cli), String> {
    let mut cli = Cli {
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        reps: None,
        trace: false,
        trace_out: None,
        quick: false,
    };
    let mut mode = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let bad = |v: &str| format!("{flag}: cannot read `{v}`");
        match flag.as_str() {
            "--workload" => mode = Some(Mode::One(value()?)),
            "--all" => mode = Some(Mode::All),
            "--self-check" => mode = Some(Mode::SelfCheck),
            "--print-benchmark-json" => mode = Some(Mode::PrintBenchmarkJson),
            "--describe" => mode = Some(Mode::Describe),
            "--quick" => cli.quick = true,
            "--seed" => {
                let v = value()?;
                cli.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                cli.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0 && *s <= 3600.0)
                    .ok_or_else(|| bad(&v))?;
            }
            "--reps" => {
                let v = value()?;
                cli.reps = Some(v.parse().ok().filter(|n| *n >= 1).ok_or_else(|| bad(&v))?);
            }
            "--trace" => {
                let v = value()?;
                cli.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            "--trace-out" => cli.trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let mode = mode.ok_or("one of --workload, --all, --self-check is required")?;
    if cli.quick && cli.reps.is_none() {
        cli.reps = Some(2);
    }
    Ok((mode, cli))
}

fn options(cli: &Cli, w: Workload, trace: bool) -> Options {
    let mut o = Options::new(if cli.quick { w.quick() } else { w }, cli.seed, cli.seconds);
    o.reps = cli.reps;
    o.trace = trace;
    o.trace_out = cli.trace_out.clone().filter(|_| trace);
    // `setup_s` is an end-to-end metric: only an untraced full-size run
    // needs the repeated set-ups behind its median.
    if cli.quick || trace {
        o.setup_rounds = 1;
    }
    o
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, cli) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("ckpt-e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &mode {
        Mode::PrintBenchmarkJson => {
            print!("{}", spec::benchmark_json());
            ExitCode::SUCCESS
        }
        Mode::Describe => {
            print!("{}", spec::describe());
            ExitCode::SUCCESS
        }
        Mode::One(name) => {
            let Some(w) = spec::workload(name) else {
                eprintln!("ckpt-e2e: unknown workload `{name}`\n{USAGE}");
                return ExitCode::from(2);
            };
            let r = run(&options(&cli, w, cli.trace));
            eprint!("{}{}", header(&r), r.table());
            if r.metrics.is_empty() {
                eprintln!("ckpt-e2e: no rep passed its checks; no result");
                return ExitCode::FAILURE;
            }
            println!("{}", r.result_json());
            exit_code(r.correct())
        }
        Mode::All => {
            let mut ok = true;
            for w in WORKLOADS {
                for trace in [false, true] {
                    let r = run(&options(&cli, w, trace));
                    ok &= r.correct();
                    println!("{}{}", header(&r), r.table());
                }
            }
            exit_code(ok)
        }
        Mode::SelfCheck => {
            let mut ok = true;
            for w in WORKLOADS {
                let a = run(&options(&cli, w, false));
                let b = run(&options(&cli, w, false));
                let (text, pass) = compare_a_a(&a, &b);
                ok &= pass;
                println!(
                    "== {} seed {} ({} + {} reps): {}\n{text}",
                    w.name,
                    cli.seed,
                    a.reps,
                    b.reps,
                    if pass { "PASS" } else { "FAIL" }
                );
            }
            exit_code(ok)
        }
    }
}
