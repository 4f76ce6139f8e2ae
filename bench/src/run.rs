//! Set-up and one rep of a workload: write phase → read phase → loss phase.
//!
//! Closed loop, one client: a single producer thread walks checkpoints in
//! checkpoint-major, rank-minor order. Every layer is measured from outside,
//! by timing calls into public functions and reading what they return.

use crate::spec::{Method, Stack, Workload, CHUNK, LOST_RANK, WITNESS_RANK};
use crate::trace::{Corr, Tracer};
use ckpt_bench::workload::{gdv_snapshots, gdv_snapshots_ordered};
use ckpt_dedup::{Checkpointer, FullCheckpointer, TreeCheckpointer, TreeConfig};
use ckpt_hash::{Digest128, Hasher128, Murmur3};
use ckpt_runtime::{
    resolve_record, restore_rank_latest_parallel, AsyncRuntime, CompressionPolicy, LineageError,
    ParallelRestoreOutcome, RankDedupConfig, RankDedupEngine, RankDedupMetrics, RedundancyPolicy,
    TierChain,
};
use ckpt_telemetry::Registry;
use gpu_sim::Device;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Samples per metric name. A timing metric's value is the median of its
/// samples; an exact count pushes the same value every rep.
pub type Samples = BTreeMap<&'static str, Vec<f64>>;

pub fn push(s: &mut Samples, name: &'static str, v: f64) {
    s.entry(name).or_default().push(v);
}

pub fn merge(into: &mut Samples, from: Samples) {
    for (name, mut v) in from {
        into.entry(name).or_default().append(&mut v);
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Operations attempted and failed; a failed operation is a refused submit,
/// an object that never became durable, a restore that errored or returned
/// the wrong bytes, or a rep whose exact counts differ from the first rep's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }
}

/// The generated inputs of one workload: what the program under test sees.
pub struct Inputs {
    /// `snapshots[rank][ckpt]`.
    pub snapshots: Vec<Vec<Vec<u8>>>,
    /// Murmur3 digest of every snapshot, same indexing.
    pub digests: Vec<Vec<Digest128>>,
    /// Bytes the application handed over in one record set.
    pub user_bytes: u64,
}

/// Build the snapshots of `w` from `seed`. Cluster workloads give every
/// rank the same shared region (padded to the chunk grid so shared chunks
/// hash identically on all ranks) followed by a seed-perturbed private tail.
pub fn generate(w: &Workload, seed: u64) -> Inputs {
    let shared = gdv_snapshots_ordered(w.graph, w.vertices, w.checkpoints, seed, w.order);
    let snapshots: Vec<Vec<Vec<u8>>> = if w.ranks == 1 {
        vec![shared.snapshots]
    } else {
        (0..w.ranks as u64)
            .map(|r| {
                let tail = gdv_snapshots(
                    w.graph,
                    w.tail_vertices,
                    w.checkpoints,
                    seed + 101 * (r + 1),
                    true,
                );
                shared
                    .snapshots
                    .iter()
                    .zip(&tail.snapshots)
                    .map(|(s, t)| {
                        let mut v = s.clone();
                        v.resize(v.len().div_ceil(CHUNK) * CHUNK, 0);
                        v.extend_from_slice(t);
                        v
                    })
                    .collect()
            })
            .collect()
    };
    let digests = snapshots
        .iter()
        .map(|rank| rank.iter().map(|s| Murmur3.hash(s)).collect())
        .collect();
    let user_bytes = snapshots.iter().flatten().map(|s| s.len() as u64).sum();
    Inputs {
        snapshots,
        digests,
        user_bytes,
    }
}

pub fn new_checkpointer(method: Method, device: Device) -> Box<dyn Checkpointer> {
    match method {
        Method::Tree => Box::new(TreeCheckpointer::new(device, TreeConfig::new(CHUNK))),
        Method::Full => Box::new(FullCheckpointer::new(device, CHUNK)),
    }
}

/// Counts that must repeat exactly from rep to rep.
pub type Counts = BTreeMap<&'static str, u64>;

pub struct Bench {
    pub w: Workload,
    pub inputs: Inputs,
    /// One checkpointer per rank, each on its own device (one GPU per rank).
    ckpts: Vec<Box<dyn Checkpointer>>,
    /// Warm device the read phase restores on.
    restore_device: Device,
    /// The first rep's exact counts; every later rep must match them.
    first_counts: Option<Counts>,
}

/// What one set-up produced.
pub struct SetUp {
    pub bench: Bench,
    pub secs: f64,
    pub warmup: Tally,
}

/// Generation + construction + one untimed warm-up rep (arenas, maps and
/// the pool reach steady state before anything is measured).
pub fn set_up(w: Workload, seed: u64) -> SetUp {
    let t0 = Instant::now();
    let inputs = generate(&w, seed);
    let ckpts = (0..w.ranks)
        .map(|_| new_checkpointer(w.method, Device::a100()))
        .collect();
    let mut bench = Bench {
        w,
        inputs,
        ckpts,
        restore_device: Device::a100(),
        first_counts: None,
    };
    let (_, warmup) = bench.rep(0, &mut Tracer::new(), false);
    SetUp {
        bench,
        secs: t0.elapsed().as_secs_f64(),
        warmup,
    }
}

impl Bench {
    /// (arena misses, map rebuilds) summed over every device in use.
    fn memory(&self) -> (u64, u64) {
        let restore = self.restore_device.arena().stats().misses;
        self.ckpts
            .iter()
            .fold((restore, 0), |(misses, rebuilds), c| {
                let m = c.memory_stats();
                (misses + m.arena_misses, rebuilds + m.map_rehash_rebuilds)
            })
    }

    fn ids(&self) -> Vec<(u32, u32)> {
        (0..self.w.checkpoints as u32)
            .flat_map(|k| (0..self.w.ranks).map(move |r| (r, k)))
            .collect()
    }

    fn check_restore(
        &self,
        tally: &mut Tally,
        what: &str,
        rank: u32,
        res: &Result<ParallelRestoreOutcome, LineageError>,
    ) {
        let want = self.inputs.digests[rank as usize]
            .last()
            .expect("a workload has checkpoints");
        let ok = res.as_ref().is_ok_and(|o| {
            o.version as usize + 1 == self.w.checkpoints && Murmur3.hash(&o.data) == *want
        });
        tally.check(ok, || match res {
            Ok(o) => format!(
                "{what}: rank {rank} restored v{} with a wrong digest",
                o.version
            ),
            Err(e) => format!("{what}: rank {rank}: {e}"),
        });
    }

    /// One rep. Returns its samples — `None` when any operation failed, so
    /// no metric is ever computed from an unchecked rep — and its tally.
    /// `micro` adds the layer measurements that need the rep's live tiers
    /// (after every headline phase, so they perturb none of them).
    pub fn rep(&mut self, rep: u32, tr: &mut Tracer, micro: bool) -> (Option<Samples>, Tally) {
        let w = self.w;
        let cluster = w.ranks > 1;
        let mut s = Samples::new();
        let mut tally = Tally::default();
        let mut counts = Counts::new();

        let registry = Arc::new(Registry::new());
        let (compression, redundancy, engine) = match w.stack {
            Stack::Plain => (CompressionPolicy::Off, RedundancyPolicy::Off, None),
            Stack::Production => (
                CompressionPolicy::Adaptive,
                RedundancyPolicy::Xor { group_size: 4 },
                // Inline claim exchange: counts repeat exactly.
                Some(RankDedupEngine::new(
                    RankDedupConfig {
                        ranks: w.ranks,
                        chunk_len: CHUNK,
                    },
                    RankDedupMetrics::bound(Arc::clone(&registry)),
                )),
            ),
        };
        let rt = AsyncRuntime::with_rank_dedup(
            TierChain::new(),
            0.0,
            Arc::clone(&registry),
            compression,
            redundancy,
            engine,
        );
        for c in &mut self.ckpts {
            c.reset_record();
        }
        let ids = self.ids();
        let memory_before = self.memory();
        let whole_rep = tr.begin("rep", Corr::rep(rep));

        // ---- write phase: snapshot -> durable ----
        let write = tr.begin("phase.write", Corr::rep(rep));
        let t_first = Instant::now();
        let (mut diff_bytes, mut metadata_bytes) = (0u64, 0u64);
        // Sums over the incremental checkpoints (k >= 1) of this rep. Their
        // cost falls steeply with k as the run's updates thin out, so a rep
        // contributes its mean per checkpoint and the metric is the median
        // of those means across reps.
        let mut sums = [Duration::ZERO; 4];
        let mut stage_secs = [0.0f64; STAGES.len()];
        for &(r, k) in &ids {
            let corr = Corr::object(rep, r, k);
            let snapshot = &self.inputs.snapshots[r as usize][k as usize];
            let blocked = tr.begin("ckpt", corr);
            let span = tr.begin("dedup.checkpoint", corr);
            let out = self.ckpts[r as usize].checkpoint(snapshot);
            let d_checkpoint = tr.end(span);
            let span = tr.begin("dedup.encode", corr);
            let bytes = out.diff.encode();
            let d_encode = tr.end(span);
            let encoded_len = bytes.len() as u64;
            let span = tr.begin("runtime.submit", corr);
            let accepted = rt.submit(r, k, bytes).is_ok();
            let d_submit = tr.end(span);
            let d_blocked = tr.end(blocked);

            tally.check(accepted, || format!("submit of ({r},{k}) refused"));
            if k == 0 {
                push(&mut s, "dedup.first_checkpoint_ms", ms(d_checkpoint));
                continue;
            }
            for (sum, d) in sums
                .iter_mut()
                .zip([d_blocked, d_checkpoint, d_encode, d_submit])
            {
                *sum += d;
            }
            for (sum, (stage, _)) in stage_secs.iter_mut().zip(STAGES) {
                // Program-reported: copied from the returned breakdown.
                *sum += out.breakdown.stage(stage).map_or(0.0, |x| x.measured_sec);
            }
            diff_bytes += encoded_len;
            metadata_bytes += out.diff.metadata_bytes() as u64;
        }
        let span = tr.begin("runtime.wait_durable", Corr::rep(rep));
        rt.wait_durable(&ids);
        push(&mut s, "runtime.drain_tail_ms", ms(tr.end(span)));
        let span = tr.begin("redundancy.wait", Corr::rep(rep));
        rt.wait_redundancy_durable(&ids);
        if let Some(e) = rt.rank_dedup() {
            e.quiesce();
        }
        push(&mut s, "redundancy.tail_ms", ms(tr.end(span)));
        let durable_wall = t_first.elapsed();
        tr.end(write);
        let incremental = w.incremental() as u64;
        for (name, sum) in BLOCKING_PATH.into_iter().zip(sums) {
            push(&mut s, name, ms(sum) / incremental as f64);
        }
        for ((_, name), secs) in STAGES.into_iter().zip(stage_secs) {
            push(&mut s, name, secs * 1e3 / incremental as f64);
        }
        push(
            &mut s,
            "durable_mbps",
            self.inputs.user_bytes as f64 / 1e6 / durable_wall.as_secs_f64(),
        );

        let undrainable = rt.undrainable();
        let mut pfs_bytes = 0u64;
        for &id in &ids {
            let stored = rt.tiers().pfs.inspect_object(id).into_object();
            tally.check(stored.is_some() && !undrainable.contains(&id), || {
                format!("object {id:?} never became durable")
            });
            pfs_bytes += stored.map_or(0, |o| o.stored_len());
        }
        let group_bytes = rt
            .tiers()
            .redundancy()
            .map_or(0, |red| red.group_tier().used_bytes());
        counts.insert("dedup.diff_bytes_per_ckpt", diff_bytes / incremental);
        counts.insert(
            "dedup.metadata_bytes_per_ckpt",
            metadata_bytes / incremental,
        );
        counts.insert("tier.pfs_stored_bytes", pfs_bytes);
        counts.insert("redundancy.group_bytes", group_bytes);
        push(
            &mut s,
            "stored_bytes_per_user_byte",
            (pfs_bytes + group_bytes) as f64 / self.inputs.user_bytes as f64,
        );
        let device_state: usize = self.ckpts.iter().map(|c| c.device_state_bytes()).sum();
        push(
            &mut s,
            "dedup.device_state_mib",
            device_state as f64 / (1 << 20) as f64,
        );
        let counter = |name: &str| registry.counter(name).get();
        for (metric, counter_name) in WRITE_COUNTERS {
            counts.insert(metric, counter(counter_name));
        }

        // ---- read phase: durable -> restored, every copy present ----
        let survivor = w.survivor();
        let span = tr.begin("phase.read", Corr::rep(rep));
        let restored = restore_rank_latest_parallel(
            rt.tiers(),
            &self.restore_device,
            survivor,
            Some(&registry),
        );
        push(&mut s, "restore_ms", ms(tr.end(span)));
        self.check_restore(&mut tally, "read phase", survivor, &restored);
        if let Ok(o) = &restored {
            counts.insert("restart.regions_copied", o.stats.regions_copied);
            counts.insert("restart.bytes_copied", o.stats.bytes_copied);
        }
        counts.insert("restore.records_read", counter("restore/records_read"));
        counts.insert("restore.bytes_read", counter("restore/bytes_read"));
        push(
            &mut s,
            "restore.fetch_wait_ms",
            counter("restore/fetch_wait_ns") as f64 / 1e6,
        );
        drop(restored);

        // ---- loss phase: rank 0's node is gone; a cold replacement
        // device restores it (cluster: through the group tier, plus the
        // witness whose records point into the lost rank) ----
        rt.tiers().host.wipe_rank(LOST_RANK);
        rt.tiers().ssd.wipe_rank(LOST_RANK);
        if cluster {
            rt.tiers().pfs.wipe_rank(LOST_RANK);
        }
        let cold = Device::a100();
        let span = tr.begin("phase.loss", Corr::rep(rep));
        let lost = restore_rank_latest_parallel(rt.tiers(), &cold, LOST_RANK, None);
        let witness =
            cluster.then(|| restore_rank_latest_parallel(rt.tiers(), &cold, WITNESS_RANK, None));
        push(&mut s, "restore_after_loss_ms", ms(tr.end(span)));
        self.check_restore(&mut tally, "loss phase", LOST_RANK, &lost);
        if let Some(witness) = &witness {
            self.check_restore(&mut tally, "loss phase", WITNESS_RANK, witness);
        }
        drop((lost, witness));
        for (metric, counter_name) in END_COUNTERS {
            counts.insert(metric, counter(counter_name));
        }

        if micro {
            self.live_tier_measurements(rep, tr, &rt, &mut s);
        }
        tr.end(whole_rep);
        rt.shutdown();

        // What this rep allocated on the warm devices (the loss phase's
        // cold device is not one of them): 0 once steady state is reached.
        let (misses, rebuilds) = self.memory();
        push(
            &mut s,
            "gpusim.arena_misses_steady",
            (misses - memory_before.0) as f64,
        );
        push(
            &mut s,
            "gpusim.map_rebuilds_steady",
            (rebuilds - memory_before.1) as f64,
        );
        for (&name, &v) in &counts {
            push(&mut s, name, v as f64);
        }
        match &self.first_counts {
            None => self.first_counts = Some(counts),
            Some(first) => tally.check(*first == counts, || {
                format!("rep {rep}: counts differ from the first rep: {counts:?} vs {first:?}")
            }),
        }
        ((tally.failed == 0).then_some(s), tally)
    }

    /// Direct calls into the read-path layers against this rep's tiers; each
    /// metric gets the round's mean per record.
    fn live_tier_measurements(
        &self,
        rep: u32,
        tr: &mut Tracer,
        rt: &AsyncRuntime,
        s: &mut Samples,
    ) {
        let tiers = rt.tiers();
        let survivor = self.w.survivor();
        let n = self.w.checkpoints as f64;
        let (mut locate, mut resolve, mut reconstruct) =
            (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        for k in (0..self.w.checkpoints as u32).rev() {
            let id = (survivor, k);
            let span = tr.begin("restore.locate", Corr::object(rep, survivor, k));
            let located = tiers.locate(id);
            locate += tr.end(span);
            std::hint::black_box(located);
            if self.w.stack == Stack::Production {
                let record = tiers.pfs.get(id).expect("durable record of the survivor");
                let span = tr.begin("rankdedup.resolve", Corr::object(rep, survivor, k));
                let resolved = resolve_record(id, &record, &|target| tiers.pfs.get(target));
                resolve += tr.end(span);
                std::hint::black_box(resolved.is_ok());
            }
        }
        push(s, "restore.locate_ms", ms(locate) / n);
        if self.w.stack == Stack::Production {
            push(s, "rankdedup.resolve_ms", ms(resolve) / n);
        }
        if self.w.ranks > 1 {
            // A second, so far untouched rank loses every copy: each
            // `locate` now rebuilds the object from its parity group.
            let victim = 1;
            for tier in [&tiers.host, &tiers.ssd, &tiers.pfs] {
                tier.wipe_rank(victim);
            }
            for k in 0..self.w.checkpoints as u32 {
                let span = tr.begin("redundancy.reconstruct", Corr::object(rep, victim, k));
                let rebuilt = tiers.locate((victim, k));
                reconstruct += tr.end(span);
                std::hint::black_box(rebuilt);
            }
            push(s, "redundancy.reconstruct_ms", ms(reconstruct) / n);
        }
    }
}

/// The headline blocked time and the three layer calls that tile it.
pub const BLOCKING_PATH: [&str; 4] = [
    "ckpt_blocked_ms",
    "dedup.checkpoint_ms",
    "dedup.encode_ms",
    "runtime.submit_ms",
];

/// `CheckpointOutput.breakdown` stage → metric name.
const STAGES: [(&str, &str); 6] = [
    ("leaf_hash", "dedup.stage.leaf_hash_ms"),
    ("first_ocur_wave", "dedup.stage.first_ocur_wave_ms"),
    ("shift_dupl_wave", "dedup.stage.shift_dupl_wave_ms"),
    ("metadata_compact", "dedup.stage.metadata_compact_ms"),
    ("gather_serialize", "dedup.stage.gather_serialize_ms"),
    ("d2h", "dedup.stage.d2h_ms"),
];

/// Registry counters read once the record set is durable.
const WRITE_COUNTERS: [(&str, &str); 3] = [
    ("rankdedup.claims", "rankdedup/claims"),
    ("rankdedup.remote_refs", "rankdedup/remote_refs"),
    (
        "rankdedup.remote_bytes_saved",
        "rankdedup/remote_bytes_saved",
    ),
];

/// Registry counters read after the last headline phase; all must be 0.
const END_COUNTERS: [(&str, &str); 4] = [
    ("runtime.retries", "runtime/retries"),
    ("runtime.degraded_flushes", "runtime/degraded_flushes"),
    ("integrity.frames_corrupt", "integrity/frames_corrupt"),
    ("rankdedup.orphans", "rankdedup/orphans"),
];
