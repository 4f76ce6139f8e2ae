//! Layer micro-measurements of a traced run: direct calls into each layer
//! on the same payloads the reps move, kept out of the reps themselves so
//! they cannot perturb a headline number.

use crate::run::{ms, new_checkpointer, push, Bench, Samples, Tally};
use crate::spec::{Stack, CHUNK};
use ckpt_dedup::{encode_frame, restore_latest_single_pass, verify_frame, Checkpointer, Diff};
use ckpt_hash::{Digest128, Hasher128, Murmur3};
use ckpt_runtime::{
    CompressMetrics, CompressionEngine, CompressionPolicy, RankDedupConfig, RankDedupEngine,
    RankDedupMetrics, Tier, TierConfig,
};
use ckpt_telemetry::Registry;
use gpu_sim::{Device, DistinctMap, MapEntry};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn gbps(bytes: u64, wall: Duration) -> f64 {
    bytes as f64 / 1e9 / wall.as_secs_f64()
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

pub struct Micro {
    /// Checkpointers of their own, so the reps' warm state stays untouched.
    ckpts: Vec<Box<dyn Checkpointer>>,
    device: Device,
    pool_threads: usize,
    memcpy_dst: Vec<u8>,
    map: DistinctMap,
    /// One distinct digest per chunk of a snapshot.
    digests: Vec<Digest128>,
}

impl Micro {
    pub fn new(bench: &Bench, pool_threads: usize) -> Self {
        let snapshot_len = bench.inputs.snapshots[0][0].len();
        let n_chunks = snapshot_len / CHUNK;
        Micro {
            ckpts: (0..bench.w.ranks)
                .map(|_| new_checkpointer(bench.w.method, Device::a100()))
                .collect(),
            device: Device::a100(),
            pool_threads,
            memcpy_dst: vec![0; snapshot_len],
            map: DistinctMap::with_capacity(n_chunks),
            digests: (0..n_chunks as u64)
                .map(|i| Murmur3.hash(&i.to_le_bytes()))
                .collect(),
        }
    }

    /// One round of every measurement; returns the operations checked.
    pub fn round(&mut self, bench: &Bench, s: &mut Samples) -> Tally {
        let mut tally = Tally::default();
        let w = bench.w;
        let survivor = w.survivor() as usize;

        // The record set again on one thread — the plain single-thread
        // baseline — which also yields the payloads everything below uses.
        rayon::set_active_threads(1);
        for c in &mut self.ckpts {
            c.reset_record();
        }
        let mut payloads: Vec<Vec<Vec<u8>>> = vec![Vec::new(); w.ranks as usize];
        let mut single_thread = Duration::ZERO;
        for k in 0..w.checkpoints {
            for (r, rank_payloads) in payloads.iter_mut().enumerate() {
                let snapshot = &bench.inputs.snapshots[r][k];
                let (out, wall) = timed(|| self.ckpts[r].checkpoint(snapshot));
                if k > 0 {
                    single_thread += wall;
                }
                rank_payloads.push(out.diff.encode());
            }
        }
        push(
            s,
            "dedup.checkpoint_1t_ms",
            ms(single_thread) / w.incremental() as f64,
        );
        rayon::set_active_threads(self.pool_threads);

        // ckpt-hash: chunk hashing against this host's copy bandwidth, on
        // one snapshot-sized buffer each, in the same run.
        let snapshot = bench.inputs.snapshots[0].last().expect("checkpoints");
        let ((), wall) = timed(|| {
            for chunk in snapshot.chunks(CHUNK) {
                black_box(Murmur3.hash(black_box(chunk)));
            }
        });
        let hash_gbps = gbps(snapshot.len() as u64, wall);
        let ((), wall) = timed(|| self.memcpy_dst.copy_from_slice(black_box(snapshot)));
        black_box(&self.memcpy_dst);
        let memcpy_gbps = gbps(snapshot.len() as u64, wall);
        push(s, "hash.murmur3_chunk_gbps", hash_gbps);
        push(s, "host.memcpy_gbps", memcpy_gbps);
        push(s, "hash.roofline_frac", hash_gbps / memcpy_gbps);

        // gpu-sim: first-occurrence inserts into a reset (warm) map.
        self.map.reset();
        let ((), wall) = timed(|| {
            let mut batch = self.map.batch();
            for (i, d) in self.digests.iter().enumerate() {
                black_box(batch.insert(d, MapEntry::new(i as u32, 0)));
            }
        });
        push(
            s,
            "gpusim.map_insert_mops",
            self.digests.len() as f64 / 1e6 / wall.as_secs_f64(),
        );

        // ckpt-dedup: frame codec, diff decode and the single-pass restore
        // engine on in-memory diffs of the surviving rank.
        let record = &payloads[survivor];
        let record_bytes: u64 = record.iter().map(|p| p.len() as u64).sum();
        let (framed, wall) = timed(|| {
            record
                .iter()
                .enumerate()
                .map(|(k, p)| encode_frame(survivor as u32, k as u32, p))
                .collect::<Vec<_>>()
        });
        push(s, "frame.encode_gbps", gbps(record_bytes, wall));
        let (verified, wall) = timed(|| framed.iter().all(|f| verify_frame(f, None).is_ok()));
        push(s, "frame.verify_gbps", gbps(record_bytes, wall));
        tally.check(verified, || {
            "a freshly encoded frame failed to verify".into()
        });
        drop(framed);
        let (diffs, wall) = timed(|| {
            record
                .iter()
                .map(|p| Diff::decode(p).expect("decode of a diff this run encoded"))
                .collect::<Vec<Diff>>()
        });
        push(s, "dedup.decode_ms", ms(wall) / record.len() as f64);
        let (restored, wall) = timed(|| restore_latest_single_pass(&self.device, 0, &diffs));
        push(s, "restart.single_pass_ms", ms(wall));
        let want = bench.inputs.digests[survivor].last().expect("checkpoints");
        tally.check(
            restored.is_ok_and(|(data, _)| Murmur3.hash(&data) == *want),
            || "single-pass restore of in-memory diffs returned wrong bytes".into(),
        );
        drop(diffs);

        // ckpt-runtime: tier put/get on the same record.
        let tier = Tier::new(TierConfig::pfs());
        let copies: Vec<Vec<u8>> = record.clone();
        let (stored, wall) = timed(|| {
            copies
                .into_iter()
                .enumerate()
                .all(|(k, p)| tier.put((0, k as u32), p).is_ok())
        });
        push(s, "tier.put_gbps", gbps(record_bytes, wall));
        let (read, wall) = timed(|| {
            (0..record.len() as u32)
                .map(|k| tier.get((0, k)).map_or(0, |p| p.len() as u64))
                .sum::<u64>()
        });
        push(s, "tier.get_gbps", gbps(record_bytes, wall));
        tally.check(stored && read == record_bytes, || {
            "tier put/get lost bytes".into()
        });
        drop(tier);

        if w.stack == Stack::Production {
            self.production_layers(bench, payloads, s, &mut tally);
        }
        tally
    }

    /// The cluster dedup index and the compression stage, called directly in
    /// the order the runtime calls them: rank-dedup encode at `submit`, then
    /// the flusher's compression of what that produced.
    fn production_layers(
        &self,
        bench: &Bench,
        payloads: Vec<Vec<Vec<u8>>>,
        s: &mut Samples,
        tally: &mut Tally,
    ) {
        let w = bench.w;
        let engine = RankDedupEngine::new(
            RankDedupConfig {
                ranks: w.ranks,
                chunk_len: CHUNK,
            },
            RankDedupMetrics::detached(),
        );
        let mut payloads: Vec<_> = payloads.into_iter().map(|r| r.into_iter()).collect();
        let mut records = Vec::new();
        let mut encode = Duration::ZERO;
        for k in 0..w.checkpoints as u32 {
            for (r, rank) in payloads.iter_mut().enumerate() {
                let payload = rank.next().expect("one payload per checkpoint");
                let (record, wall) = timed(|| engine.encode((r as u32, k), payload));
                if k > 0 {
                    encode += wall;
                }
                records.push(record);
            }
        }
        push(
            s,
            "rankdedup.encode_ms",
            ms(encode) / w.incremental() as f64,
        );
        engine.quiesce();

        let registry = Arc::new(Registry::new());
        let compressor = CompressionEngine::new(
            CompressionPolicy::Adaptive,
            Arc::new(CompressMetrics::bound(Arc::clone(&registry))),
        );
        let n_objects = records.len() as f64;
        let raw_bytes: u64 = records.iter().map(|r| r.len() as u64).sum();
        let (objects, wall) = timed(|| {
            records
                .into_iter()
                .map(|r| compressor.encode(r))
                .collect::<Vec<_>>()
        });
        let stored_bytes: u64 = objects.iter().map(|o| o.stored_len()).sum();
        push(
            s,
            "compress.encode_mbps",
            raw_bytes as f64 / 1e6 / wall.as_secs_f64(),
        );
        push(s, "compress.ratio", stored_bytes as f64 / raw_bytes as f64);
        push(
            s,
            "compress.select_ms",
            registry.counter("compress/select_ns").get() as f64 / 1e6 / n_objects,
        );
        let (decoded, wall) = timed(|| {
            objects
                .into_iter()
                .map(|o| o.decode().map_or(0, |p| p.len() as u64))
                .sum::<u64>()
        });
        push(
            s,
            "compress.decode_mbps",
            raw_bytes as f64 / 1e6 / wall.as_secs_f64(),
        );
        tally.check(decoded == raw_bytes, || {
            "compression round trip lost bytes".into()
        });
    }
}
