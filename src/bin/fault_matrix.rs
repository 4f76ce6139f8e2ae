//! `fault_matrix` — the CI entry point for the crash-consistency harness.
//!
//! Runs one deterministic fault-injection schedule, derived entirely from
//! `--seed`: a multi-rank checkpoint workload drains through a faulted
//! tier chain, the runtime is killed at a seed-chosen point, and recovery
//! is audited against the ground-truth snapshots. Violations (a durable
//! prefix that does not restore bit-exact, or accounting that does not
//! reconcile with telemetry) fail the process with exit code 1.
//!
//! ```text
//! fault_matrix --seed S [--ranks N] [--ckpts K] [--len BYTES] [--json-out PATH]
//! ```
//!
//! The JSON report (stdout line `fault-matrix: {...}`, and `--json-out`)
//! carries the seed, the derived configuration, the full `RecoveryReport`,
//! the fired-fault log and the telemetry snapshot — the artifact the CI
//! `fault-matrix` job uploads per seed.

use gpu_dedup_ckpt::dedup::prelude::*;
use gpu_dedup_ckpt::dedup::Diff;
use gpu_dedup_ckpt::gpu_sim::Device;
use gpu_dedup_ckpt::runtime::{
    AsyncRuntime, FaultPlan, ObjectStatus, RuntimeConfig, SplitMix64, TierChain,
};
use gpu_dedup_ckpt::telemetry::JsonWriter;
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> ExitCode {
    eprintln!(
        "usage: fault_matrix --seed S [--ranks N] [--ckpts K] [--len BYTES] [--json-out PATH]"
    );
    ExitCode::from(2)
}

fn rank_snapshots(rank: u32, len: usize, data_seed: u64, count: usize) -> Vec<Vec<u8>> {
    let mut rng = SplitMix64::new(data_seed ^ (rank as u64).wrapping_mul(0x9e37_79b9));
    let mut data: Vec<u8> = (0..len).map(|_| (rng.next() & 0xff) as u8).collect();
    let mut out = vec![data.clone()];
    for _ in 1..count {
        let edits = 1 + (rng.next() % 32) as usize;
        for _ in 0..edits {
            let at = (rng.next() as usize) % len;
            data[at] = (rng.next() & 0xff) as u8;
        }
        out.push(data.clone());
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed: Option<u64> = None;
    let mut ranks = 3u32;
    let mut ckpts = 5u32;
    let mut len = 2048usize;
    let mut json_out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let need = |i: usize| args.get(i + 1).cloned().ok_or(());
        match args[i].as_str() {
            "--seed" => match need(i).and_then(|v| v.parse().map_err(|_| ())) {
                Ok(v) => seed = Some(v),
                Err(()) => return usage(),
            },
            "--ranks" => match need(i).and_then(|v| v.parse().map_err(|_| ())) {
                Ok(v) => ranks = v,
                Err(()) => return usage(),
            },
            "--ckpts" => match need(i).and_then(|v| v.parse().map_err(|_| ())) {
                Ok(v) => ckpts = v,
                Err(()) => return usage(),
            },
            "--len" => match need(i).and_then(|v| v.parse().map_err(|_| ())) {
                Ok(v) => len = v,
                Err(()) => return usage(),
            },
            "--json-out" => match need(i) {
                Ok(v) => json_out = Some(v),
                Err(()) => return usage(),
            },
            _ => return usage(),
        }
        i += 2;
    }
    let Some(seed) = seed else { return usage() };

    // Everything below is a pure function of the seed + knobs.
    let mut rng = SplitMix64::new(seed);
    let total = (ranks * ckpts) as usize;
    let method_name = ["tree", "list", "basic"][(rng.next() % 3) as usize];
    let kind = MethodKind::from_name(method_name).expect("named above");
    let fault_count = 4 + (rng.next() % 8) as usize;
    let kill_after = (rng.next() as usize) % (total + 1);
    let horizon = (total * 4) as u64;
    let plan = FaultPlan::from_seed(rng.next(), fault_count, horizon);

    // Ground truth + the exact bytes handed to the runtime.
    let mut snapshots: Vec<Vec<Vec<u8>>> = Vec::new();
    let mut diffs: Vec<Vec<Vec<u8>>> = Vec::new();
    for r in 0..ranks {
        let snaps = rank_snapshots(r, len, seed, ckpts as usize);
        let mut m = new_checkpointer(kind, Device::a100(), TreeConfig::new(64));
        diffs.push(
            snaps
                .iter()
                .map(|s| m.checkpoint(s).diff.encode())
                .collect(),
        );
        snapshots.push(snaps);
    }

    // Drive the schedule: submit rank-interleaved, crash at the kill point.
    let rt = AsyncRuntime::start(RuntimeConfig {
        tiers: TierChain::with_faults(Arc::clone(&plan)),
        ..Default::default()
    });
    let mut submitted_ok = Vec::new();
    let mut n = 0usize;
    let mut killed = false;
    for k in 0..ckpts {
        for r in 0..ranks {
            if n == kill_after && !killed {
                rt.wait_durable(&submitted_ok);
                rt.kill();
                killed = true;
            }
            n += 1;
            if rt
                .submit(r, k, diffs[r as usize][k as usize].clone())
                .is_ok()
            {
                submitted_ok.push((r, k));
            }
        }
    }
    if !killed {
        rt.wait_durable(&submitted_ok);
        rt.kill();
    }

    let report = rt.recover_report();
    let reg = rt.telemetry();
    let mut violations: Vec<String> = Vec::new();

    // Accounting: every accepted object classified exactly once.
    if report.total_objects() != submitted_ok.len() {
        violations.push(format!(
            "report covers {} objects but {} were submitted",
            report.total_objects(),
            submitted_ok.len()
        ));
    }
    // Reconciliation with telemetry (read faults can only make recovery
    // *more* conservative, never claim extra durability).
    let durable = reg.counter("runtime/durable").get();
    let pfs_classified = (report.total_verified()
        + report.total_repaired()
        + report.total(ObjectStatus::LostCorrupt)) as u64;
    if pfs_classified > durable {
        violations.push(format!(
            "recovery classified {pfs_classified} durable objects but only {durable} drained"
        ));
    }
    if durable - pfs_classified.min(durable) > fault_count as u64 {
        violations.push(format!(
            "durable counter {durable} vs classified {pfs_classified}: gap exceeds fault budget"
        ));
    }
    // Bit-exactness of every durable prefix.
    for rr in &report.ranks {
        let r = rr.rank as usize;
        for (k, payload) in rr.payloads.iter().enumerate() {
            if payload != &diffs[r][k] {
                violations.push(format!("rank {r} ckpt {k}: recovered payload differs"));
            }
        }
        if rr.prefix_len == 0 {
            continue;
        }
        let decoded: Result<Vec<Diff>, _> = rr.payloads.iter().map(|b| Diff::decode(b)).collect();
        match decoded.map(|d| restore_record(&d)) {
            Ok(Ok(versions)) => {
                for (k, v) in versions.iter().enumerate() {
                    if v != &snapshots[r][k] {
                        violations.push(format!("rank {r} version {k} not bit-exact"));
                    }
                }
            }
            other => violations.push(format!(
                "rank {r}: durable prefix failed to replay: {other:?}"
            )),
        }
    }

    // Render the artifact.
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("seed").u64(seed);
    w.key("ok").bool(violations.is_empty());
    w.key("config").begin_object();
    w.key("ranks").u64(ranks as u64);
    w.key("ckpts").u64(ckpts as u64);
    w.key("len").u64(len as u64);
    w.key("method").string(method_name);
    w.key("fault_count").u64(fault_count as u64);
    w.key("kill_after").u64(kill_after as u64);
    w.end_object();
    w.key("fired_faults").begin_array();
    for f in plan.fired() {
        w.begin_object();
        w.key("tier").string(f.tier);
        w.key("op").string(match f.op {
            gpu_dedup_ckpt::runtime::OpKind::Put => "put",
            gpu_dedup_ckpt::runtime::OpKind::Get => "get",
        });
        w.key("ordinal").u64(f.ordinal);
        w.key("kind").string(&format!("{:?}", f.kind));
        w.end_object();
    }
    w.end_array();
    w.key("violations").begin_array();
    for v in &violations {
        w.begin_object();
        w.key("violation").string(v);
        w.end_object();
    }
    w.end_array();
    w.key("report");
    report.write_json(&mut w);
    w.key("metrics");
    reg.write_json(&mut w);
    w.end_object();
    let json = w.finish();
    println!("fault-matrix: {json}");
    if let Some(path) = json_out {
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("fault_matrix: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    if violations.is_empty() {
        eprintln!(
            "seed {seed}: ok — {} submitted, {} verified, {} repaired, {} lost, prefix {}",
            submitted_ok.len(),
            report.total_verified(),
            report.total_repaired(),
            report.total_lost(),
            report.total_durable_prefix(),
        );
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("seed {seed}: VIOLATION: {v}");
        }
        ExitCode::FAILURE
    }
}
