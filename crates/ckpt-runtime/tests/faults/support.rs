//! The harness's scaffolding, defined once: the workload builder, the
//! submit–kill–recover runner and the audit of invariants 1–3.

use ckpt_bench::oracle::restore_record_from;
use ckpt_dedup::prelude::*;
use ckpt_dedup::Diff;
use ckpt_runtime::tier::ObjectId;
use ckpt_runtime::{
    AsyncRuntime, FaultKind, FaultPlan, FiredFault, ObjectStatus, RecoveryReport, RuntimeConfig,
    SplitMix64, TierChain,
};
use gpu_sim::Device;
use std::collections::HashSet;
use std::ops::Range;
use std::sync::Arc;

/// Chunk size of every workload's checkpointer.
pub const CHUNK: usize = 64;

/// The methods a schedule's `method_idx` picks from.
pub const METHODS: [MethodKind; 3] = [MethodKind::Tree, MethodKind::List, MethodKind::Basic];

/// How a workload's snapshot sequences are drawn. Every later version of
/// a seeded sequence writes `1 + rng % edits` seeded bytes.
#[derive(Clone, Copy, Debug)]
pub enum Snapshots {
    /// Each rank draws its own seeded base buffer.
    PerRank {
        ranks: u32,
        ckpts: u32,
        len: usize,
        seed: u64,
        edits: u64,
    },
    /// Every rank starts from one seeded base buffer — version 0 is the
    /// same on all of them, the working set the cluster dedup index finds —
    /// and drifts by its own seeded edits.
    Shared {
        ranks: u32,
        ckpts: u32,
        len: usize,
        seed: u64,
        edits: u64,
    },
    /// `ranks × ckpts` checkpoints over as many seeded `block`-byte
    /// blocks, one block new per checkpoint: checkpoint `n`
    /// (checkpoint-major) holds block `n`, then blocks `0..n`, then zeros.
    /// With rank-dedup on, its record references every record before it.
    Mosaic {
        ranks: u32,
        ckpts: u32,
        block: usize,
        seed: u64,
    },
    /// One rank over a fixed ramp; version `k` flips 48 bytes on a stride
    /// from `k * 769`, so every record is a few scattered regions.
    Striped { ckpts: u32, len: usize },
}

fn seeded_bytes(len: usize, rng: &mut SplitMix64) -> Vec<u8> {
    (0..len).map(|_| (rng.next() & 0xff) as u8).collect()
}

/// `ckpts` versions from `data`, each after seeded edits.
fn drift(mut data: Vec<u8>, rng: &mut SplitMix64, ckpts: u32, edits: u64) -> Vec<Vec<u8>> {
    let mut out = vec![data.clone()];
    for _ in 1..ckpts {
        for _ in 0..1 + rng.next() % edits {
            let at = (rng.next() as usize) % data.len();
            data[at] = (rng.next() & 0xff) as u8;
        }
        out.push(data.clone());
    }
    out
}

impl Snapshots {
    /// `[rank][ckpt]` snapshot bytes.
    fn draw(self) -> Vec<Vec<Vec<u8>>> {
        match self {
            Snapshots::PerRank {
                ranks,
                ckpts,
                len,
                seed,
                edits,
            } => (0..ranks)
                .map(|r| {
                    let mut rng = SplitMix64::new(seed ^ (r as u64).wrapping_mul(0x9e37_79b9));
                    let base = seeded_bytes(len, &mut rng);
                    drift(base, &mut rng, ckpts, edits)
                })
                .collect(),
            Snapshots::Shared {
                ranks,
                ckpts,
                len,
                seed,
                edits,
            } => {
                let base = seeded_bytes(len, &mut SplitMix64::new(seed));
                (0..ranks)
                    .map(|r| {
                        let mut rng =
                            SplitMix64::new(seed ^ (r as u64 + 1).wrapping_mul(0x9e37_79b9));
                        drift(base.clone(), &mut rng, ckpts, edits)
                    })
                    .collect()
            }
            Snapshots::Mosaic {
                ranks,
                ckpts,
                block,
                seed,
            } => {
                let total = (ranks * ckpts) as usize;
                let mut rng = SplitMix64::new(seed);
                let blocks: Vec<Vec<u8>> =
                    (0..total).map(|_| seeded_bytes(block, &mut rng)).collect();
                let snapshot = |n: usize| {
                    let mut data = blocks[n].clone();
                    data.extend(blocks[..n].iter().flatten());
                    data.resize(total * block, 0);
                    data
                };
                (0..ranks as usize)
                    .map(|r| {
                        (0..ckpts as usize)
                            .map(|k| snapshot(k * ranks as usize + r))
                            .collect()
                    })
                    .collect()
            }
            Snapshots::Striped { ckpts, len } => {
                let mut data: Vec<u8> = (0..len as u32).map(|i| ((i * 37) % 251) as u8).collect();
                let mut out = Vec::new();
                for k in 0..ckpts as usize {
                    if k > 0 {
                        for j in 0..48 {
                            data[(k * 769 + j * 31) % len] ^= 0x3c;
                        }
                    }
                    out.push(data.clone());
                }
                vec![out]
            }
        }
    }
}

/// A schedule's ground truth and the exact bytes handed to the runtime.
pub struct Workload {
    pub ranks: u32,
    pub ckpts: u32,
    /// `[rank][ckpt]` original snapshots.
    pub snapshots: Vec<Vec<Vec<u8>>>,
    /// `[rank][ckpt]` encoded records.
    pub records: Vec<Vec<Vec<u8>>>,
}

impl Workload {
    /// Draw `snapshots` and checkpoint each rank's sequence with a
    /// `method` checkpointer of its own; checkpoint `rebase_at` is emitted
    /// as a self-contained rebase record (the chain-compaction head).
    pub fn build(snapshots: Snapshots, method: MethodKind, rebase_at: Option<u32>) -> Workload {
        let snapshots = snapshots.draw();
        let records = snapshots
            .iter()
            .map(|snaps| {
                let mut ckpt = new_checkpointer(method, Device::a100(), TreeConfig::new(CHUNK));
                snaps
                    .iter()
                    .enumerate()
                    .map(|(k, s)| {
                        if rebase_at == Some(k as u32) {
                            ckpt.rebase_checkpoint(s).diff.encode()
                        } else {
                            ckpt.checkpoint(s).diff.encode()
                        }
                    })
                    .collect()
            })
            .collect();
        Workload {
            ranks: snapshots.len() as u32,
            ckpts: snapshots[0].len() as u32,
            snapshots,
            records,
        }
    }

    /// Every object, checkpoint-major (the order schedules submit in).
    pub fn ids(&self) -> Vec<ObjectId> {
        self.ids_of(0..self.ckpts)
    }

    fn ids_of(&self, ckpts: Range<u32>) -> Vec<ObjectId> {
        let ranks = self.ranks;
        ckpts
            .flat_map(|k| (0..ranks).map(move |r| (r, k)))
            .collect()
    }

    pub fn record(&self, (rank, ckpt): ObjectId) -> Vec<u8> {
        self.records[rank as usize][ckpt as usize].clone()
    }

    /// Rank `rank`'s last snapshot.
    pub fn latest(&self, rank: u32) -> &[u8] {
        self.snapshots[rank as usize].last().expect("a version")
    }

    /// Submit every rank's checkpoints `ckpts`, checkpoint-major; each
    /// must be accepted.
    pub fn submit_ckpts(&self, rt: &AsyncRuntime, ckpts: Range<u32>) {
        for id in self.ids_of(ckpts) {
            rt.submit(id.0, id.1, self.record(id))
                .unwrap_or_else(|e| panic!("{id:?} refused: {e:?}"));
        }
    }

    /// Submit the whole workload and wait until every object and its
    /// redundancy encoding are durable. The runtime stays up.
    pub fn submit_all(&self, rt: &AsyncRuntime) {
        self.submit_ckpts(rt, 0..self.ckpts);
        rt.wait_durable(&self.ids());
        rt.wait_redundancy_durable(&self.ids());
    }
}

/// A proptest's kill point: `kill_frac` in `0..120` spread over the
/// `total` submissions and one past them (no crash until all settled).
pub fn kill_point(kill_frac: u32, total: usize) -> usize {
    (kill_frac as usize * (total + 1)) / 120
}

/// What a run leaves for its assertions.
pub struct Outcome {
    /// The killed runtime; its tiers stay readable.
    pub rt: AsyncRuntime,
    /// Recovery's report, taken right after the kill.
    pub report: RecoveryReport,
    /// The objects the host tier accepted, in submission order. A refused
    /// submission was never the runtime's, and no invariant counts it.
    pub accepted: Vec<ObjectId>,
    plan: Arc<FaultPlan>,
}

impl Outcome {
    /// The faults that fired, recovery's reads included.
    pub fn fired(&self) -> Vec<FiredFault> {
        self.plan.fired()
    }
}

/// Run one schedule against a runtime built from `config` over a tier
/// chain that consults `plan`: submit `w` checkpoint-major, crash before
/// the `kill_at`-th submission (at or past the end: after the last), then
/// recover. Before the crash every accepted object settles — durable or
/// abandoned — so the flusher's operation sequence, and with it the fault
/// schedule, is a pure function of the parameters. A durable object's
/// redundancy encoding has landed too: the flusher encodes a member
/// before its first hop.
pub fn run(w: &Workload, config: RuntimeConfig, plan: Arc<FaultPlan>, kill_at: usize) -> Outcome {
    let rt = AsyncRuntime::start(RuntimeConfig {
        tiers: TierChain::with_faults(Arc::clone(&plan)),
        ..config
    });
    let crash = |accepted: &[ObjectId]| {
        rt.wait_durable(accepted);
        rt.kill();
    };
    let ids = w.ids();
    let mut accepted = Vec::new();
    for (n, &id) in ids.iter().enumerate() {
        if n == kill_at {
            crash(&accepted);
        }
        if rt.submit(id.0, id.1, w.record(id)).is_ok() {
            accepted.push(id);
        }
    }
    if kill_at >= ids.len() {
        crash(&accepted);
    }
    let report = rt.recover_report();
    Outcome {
        rt,
        report,
        accepted,
        plan,
    }
}

/// Invariant 1 over a report: every recovered payload is the submitted
/// record, and every usable chain replays from its base to the original
/// snapshots. One line per violation.
pub fn replay_violations(w: &Workload, report: &RecoveryReport) -> Vec<String> {
    let mut violations = Vec::new();
    for rr in &report.ranks {
        let (r, base) = (rr.rank as usize, rr.base as usize);
        if base + rr.prefix_len.max(rr.payloads.len()) > w.ckpts as usize {
            violations.push(format!(
                "rank {r}: prefix {base}+{} exceeds the schedule",
                rr.prefix_len.max(rr.payloads.len())
            ));
            continue;
        }
        for (i, payload) in rr.payloads.iter().enumerate() {
            if payload != &w.records[r][base + i] {
                violations.push(format!(
                    "rank {r} ckpt {}: recovered payload differs",
                    base + i
                ));
            }
        }
        if rr.prefix_len == 0 {
            continue;
        }
        let decoded: Result<Vec<Diff>, _> = rr.payloads.iter().map(|b| Diff::decode(b)).collect();
        match decoded.map(|d| restore_record_from(rr.base, &d)) {
            Ok(Ok(versions)) => {
                if versions.len() != rr.prefix_len {
                    violations.push(format!(
                        "rank {r}: {} versions replayed from a prefix of {}",
                        versions.len(),
                        rr.prefix_len
                    ));
                }
                for (i, v) in versions.iter().enumerate() {
                    if v != &w.snapshots[r][base + i] {
                        violations.push(format!("rank {r} version {} not bit-exact", base + i));
                    }
                }
            }
            other => violations.push(format!(
                "rank {r}: durable prefix failed to replay: {other:?}"
            )),
        }
    }
    violations
}

/// The audit: invariants 1–3 over a run, one line per violation.
/// `fault_budget` bounds how many drained objects injected faults may hide
/// from recovery's classification.
pub fn audit(w: &Workload, out: &Outcome, fault_budget: usize) -> Vec<String> {
    let report = &out.report;
    let mut violations = replay_violations(w, report);

    // 2: a rank no fired `RankLoss` took accounts for each of its accepted
    // objects exactly once; nothing is reported that was never accepted.
    let lost: HashSet<u32> = out
        .fired()
        .iter()
        .filter_map(|f| match f.kind {
            FaultKind::RankLoss { rank } => Some(rank),
            _ => None,
        })
        .collect();
    let accepted = out
        .accepted
        .iter()
        .filter(|id| !lost.contains(&id.0))
        .count();
    let reported: usize = report
        .ranks
        .iter()
        .filter(|rr| !lost.contains(&rr.rank))
        .map(|rr| rr.objects.len())
        .sum();
    if reported != accepted {
        violations.push(format!(
            "report covers {reported} objects of surviving ranks but {accepted} were accepted"
        ));
    }
    if report.total_objects() > out.accepted.len() {
        violations.push(format!(
            "report covers {} objects but only {} were accepted",
            report.total_objects(),
            out.accepted.len()
        ));
    }
    let reg = out.rt.telemetry();
    let submitted = reg.counter("runtime/submitted").get();
    if submitted != out.accepted.len() as u64 {
        violations.push(format!(
            "runtime/submitted {submitted} vs {} accepted",
            out.accepted.len()
        ));
    }
    if out.rt.tiers().redundancy().is_none() && report.total_restored_from_group() > 0 {
        violations.push("an object restored from a group that does not exist".into());
    }

    // 3: the objects recovery classifies from the PFS reconcile with the
    // durable counter. Read faults can only hide drained objects (recovery
    // then reads them as lost), never add any; a rank loss wipes drained
    // objects wholesale, so the gap is bounded only without one.
    let durable = reg.counter("runtime/durable").get();
    let classified = (report.total_verified()
        + report.total_repaired()
        + report.total(ObjectStatus::LostCorrupt)) as u64;
    if classified > durable {
        violations.push(format!(
            "recovery classified {classified} durable objects but only {durable} drained"
        ));
    }
    if lost.is_empty() && durable - classified.min(durable) > fault_budget as u64 {
        violations.push(format!(
            "durable counter {durable} vs classified {classified}: gap exceeds fault budget {fault_budget}"
        ));
    }
    violations
}

/// Panic with every violation, one per line.
pub fn holds(violations: Vec<String>) {
    assert!(violations.is_empty(), "{}", violations.join("\n"));
}
