//! The asynchronous multi-level checkpointing runtime (Fig. 3).
//!
//! Application processes hand their consolidated diffs to
//! [`AsyncRuntime::submit`]
//! (synchronous only up to the host-memory write — the application resumes
//! immediately, like VeloC's async mode) and a background flusher drains
//! host → SSD → PFS, evicting from the upper tier once the object is safe
//! one level down. A checkpoint is *durable* once it reaches the PFS.
//!
//! A runtime is assembled in exactly one place, [`AsyncRuntime::start`],
//! from one [`RuntimeConfig`]: every level of the stack — throttling,
//! compression, the redundancy group, the cluster dedup index — is switched
//! by a field of that object.
//!
//! # Failure model
//!
//! Every stored object is integrity-framed (see [`crate::tier`]); the
//! drain loop verifies frames on read, retries transient tier errors with
//! bounded exponential backoff, and *degrades* past a tier that refuses an
//! object after retry exhaustion (host → PFS directly, skipping a failed
//! SSD). [`AsyncRuntime::kill`] simulates a node crash: it halts the
//! flusher and joins it, so when `kill` returns the tiers are in a
//! well-defined state (no write is ever half-applied; see the torn-write
//! contract on [`Tier::put`](crate::tier::Tier::put)).
//! [`AsyncRuntime::recover`] / [`TierChain::recover_report`] then
//! enumerate, per rank, which objects verified, which were repaired from a
//! redundant copy, and which are lost — instead of silently returning a
//! partial chain.

use crate::chain::TierChain;
use crate::compress::{CompressMetrics, CompressionEngine, CompressionPolicy};
use crate::flusher::{Flusher, Job, Shared};
use crate::integrity::RecoveryReport;
use crate::rankdedup::RankDedupEngine;
use crate::redundancy::{RedundancyMetrics, RedundancyPolicy, RedundancyStore};
use crate::tier::{ObjectId, StoreErrorKind, StoredObject, TierFull};
use ckpt_dedup::Bytes;
use ckpt_telemetry::Registry;
use crossbeam::channel::{unbounded, Sender};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything that distinguishes one runtime from another. The default is
/// the plain Fig. 3 runtime: default tiers, unthrottled, a private
/// registry, no compression, no redundancy group, no cluster dedup index.
pub struct RuntimeConfig {
    /// The tier chain to drain through (capacities, bandwidths, fault
    /// plan).
    pub tiers: TierChain,
    /// Real seconds the flusher sleeps per *modeled* second of tier
    /// bandwidth (e.g. `1e-3` makes one modeled second cost one real
    /// millisecond); 0 never sleeps. With a non-zero scale, finite tier
    /// capacities produce genuine backpressure: producers that emit
    /// checkpoints faster than the chain drains stall in
    /// [`submit_blocking`](AsyncRuntime::submit_blocking) — the §1
    /// high-frequency limitation this runtime exists to study.
    pub time_scale: f64,
    /// Where the runtime records its metrics; share one registry to get
    /// several subsystems into one report.
    pub registry: Arc<Registry>,
    /// How the flusher compresses each object on its way off the host
    /// tier. `Off` is the pre-compression runtime byte for byte (and,
    /// thanks to lazy `compress/*` metrics, report for report).
    pub compression: CompressionPolicy,
    /// The cross-rank redundancy group. With `Off` no store is attached,
    /// no `redundancy/*` metric registers, and the runtime is the
    /// pre-redundancy one byte for byte.
    pub redundancy: RedundancyPolicy,
    /// The cluster-wide dedup engine, shared: every rank's runtime in a
    /// group holds the same `Arc` (one index, one claim exchange). With
    /// `None` no index attaches, no `rankdedup/*` metric registers, and
    /// the runtime is the per-rank one byte for byte.
    pub rank_dedup: Option<Arc<RankDedupEngine>>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            tiers: TierChain::new(),
            time_scale: 0.0,
            registry: Arc::new(Registry::new()),
            compression: CompressionPolicy::Off,
            redundancy: RedundancyPolicy::Off,
            rank_dedup: None,
        }
    }
}

/// Asynchronous checkpoint flusher over a [`TierChain`].
pub struct AsyncRuntime {
    shared: Arc<Shared>,
    tx: Sender<Job>,
    worker: Mutex<Option<JoinHandle<()>>>,
    /// Cluster-wide dedup engine; when set, every submission is rewritten
    /// against the shared index before it is staged.
    rank_dedup: Option<Arc<RankDedupEngine>>,
}

impl AsyncRuntime {
    pub fn new() -> Self {
        Self::start(RuntimeConfig::default())
    }

    /// Assemble a runtime and start its flusher: attach the redundancy
    /// group and the dedup index to the chain, route the chain's telemetry
    /// into the registry, and hand the flusher its compression stage.
    pub fn start(config: RuntimeConfig) -> Self {
        let RuntimeConfig {
            mut tiers,
            time_scale,
            registry,
            compression,
            redundancy,
            rank_dedup,
        } = config;
        if let Some(engine) = &rank_dedup {
            tiers.attach_rank_dedup(Arc::clone(engine.index()));
        }
        if redundancy != RedundancyPolicy::Off {
            let metrics = RedundancyMetrics::bound(Arc::clone(&registry));
            tiers.attach_redundancy(Arc::new(RedundancyStore::new(redundancy, metrics)));
        }
        tiers.bind_telemetry(Arc::clone(&registry));
        let cmetrics = Arc::new(CompressMetrics::bound(Arc::clone(&registry)));
        tiers.bind_compress_metrics(&cmetrics);
        let shared = Arc::new(Shared::new(tiers, registry));
        let flusher = Flusher {
            shared: Arc::clone(&shared),
            engine: CompressionEngine::new(compression, cmetrics),
            time_scale,
        };
        let (tx, rx) = unbounded();
        #[expect(
            clippy::disallowed_methods,
            reason = "the flusher, one of the runtime's two threads"
        )]
        let worker = std::thread::spawn(move || flusher.run(rx));
        AsyncRuntime {
            shared,
            tx,
            worker: Mutex::new(Some(worker)),
            rank_dedup,
        }
    }

    /// [`start`](Self::start) with the six [`RuntimeConfig`] fields as
    /// positional arguments. Kept, under this name and signature, only
    /// because the frozen `bench/` package calls it; everything else calls
    /// `start`.
    pub fn with_rank_dedup(
        tiers: TierChain,
        time_scale: f64,
        registry: Arc<Registry>,
        compression: CompressionPolicy,
        redundancy: RedundancyPolicy,
        rank_dedup: Option<Arc<RankDedupEngine>>,
    ) -> Self {
        Self::start(RuntimeConfig {
            tiers,
            time_scale,
            registry,
            compression,
            redundancy,
            rank_dedup,
        })
    }

    /// The shared cluster dedup engine, if any.
    pub fn rank_dedup(&self) -> Option<&Arc<RankDedupEngine>> {
        self.rank_dedup.as_ref()
    }

    pub fn tiers(&self) -> &TierChain {
        &self.shared.tiers
    }

    /// The registry this runtime records into; snapshot with
    /// [`Registry::snapshot_json`] for the `ckpt stats` report.
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.shared.m.registry
    }

    /// Objects the flusher has given up on (corrupt with no redundant
    /// copy, or every lower tier refused them through retries and
    /// degradation). Sorted for deterministic assertions.
    pub fn undrainable(&self) -> Vec<ObjectId> {
        let mut ids: Vec<ObjectId> = self.shared.undrainable.lock().iter().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Stage a checkpoint diff in host memory and schedule its background
    /// drain. Returns once the host write completes (the application's
    /// blocking time). One attempt: any refusal is a [`TierFull`].
    pub fn submit(&self, rank: u32, ckpt_id: u32, bytes: Vec<u8>) -> Result<(), TierFull> {
        self.stage((rank, ckpt_id), bytes, false).map(|_| ())
    }

    /// Stage a checkpoint, blocking while the host tier is full — the
    /// application-visible stall of a producer outrunning the flusher (§1:
    /// "the HPC workflow may be delayed if it produces new checkpoints
    /// faster than they can be flushed to slower memory tiers"). A
    /// transient host error is not a stall: it goes through the tier's
    /// bounded retry and counts in `runtime/retries`. Returns the time
    /// spent in the call. Errors if the runtime died while waiting or the
    /// host tier kept erroring past the retry budget.
    pub fn submit_blocking(
        &self,
        rank: u32,
        ckpt_id: u32,
        bytes: Vec<u8>,
    ) -> Result<Duration, TierFull> {
        self.stage((rank, ckpt_id), bytes, true)
    }

    /// The one staging body, and the only place that writes the host tier:
    /// rewrite against the cluster dedup index, store, account, queue the
    /// drain. `blocking` waits out a full host tier (retrying transient
    /// errors); otherwise the store is attempted once. A refused submission
    /// is retracted from the index: it claimed chunks of an object no tier
    /// holds.
    fn stage(&self, id: ObjectId, bytes: Vec<u8>, blocking: bool) -> Result<Duration, TierFull> {
        #[expect(
            clippy::disallowed_methods,
            reason = "times a submission's staging into the blocked time it reports"
        )]
        let start = Instant::now();
        let (host, m) = (&self.shared.tiers.host, &self.shared.m);
        let mut object = StoredObject::raw(self.dedup_transform(id, bytes));
        let len = object.payload().len();
        let mut stalled = false;
        loop {
            let seen = self.shared.progress.generation();
            let stored = if blocking {
                host.store_object_with_retry(id, object, || m.retries.inc())
            } else {
                host.store_object(id, object)
            };
            let Err(refused) = stored else { break };
            let wait = blocking
                && refused.kind == StoreErrorKind::Full
                && !self.shared.killed.load(Ordering::Relaxed);
            if !wait {
                if let Some(e) = &self.rank_dedup {
                    e.retract(id);
                }
                return Err(TierFull { tier: host.name() });
            }
            stalled = true;
            object = refused.object;
            // Only the flusher frees host space, and it bumps the signal
            // each time it does (and when it stops for good).
            self.shared.progress.wait_past(seen);
        }
        // Only submissions that found the host tier full count as stalls —
        // an unthrottled chain must report exactly zero.
        m.on_submitted(len, host.used_bytes(), stalled.then(|| start.elapsed()));
        // The send only fails after shutdown/kill; the object stays staged.
        let _ = self.tx.send(Job::Flush(id));
        Ok(start.elapsed())
    }

    /// Sleep until every given id is `settled`, abandoned by the flusher
    /// (see [`undrainable`](Self::undrainable)), or the runtime is killed —
    /// a failure after which nothing progresses further. Every one of
    /// those events is followed by a bump of the progress signal.
    fn wait_settled(&self, ids: &[ObjectId], settled: impl Fn(ObjectId) -> bool) {
        loop {
            let seen = self.shared.progress.generation();
            let all_settled = {
                let undrainable = self.shared.undrainable.lock();
                ids.iter()
                    .all(|&id| settled(id) || undrainable.contains(&id))
            };
            if all_settled || self.shared.killed.load(Ordering::Relaxed) {
                return;
            }
            self.shared.progress.wait_past(seen);
        }
    }

    /// Block until every given checkpoint has either drained to the PFS or
    /// been abandoned by the flusher (see [`undrainable`](Self::undrainable)),
    /// then return.
    pub fn wait_durable(&self, ids: &[ObjectId]) {
        self.wait_settled(ids, |id| self.shared.tiers.pfs.contains(id));
    }

    /// Block until every given checkpoint's redundancy encoding is
    /// durable in the group tier (or the object was abandoned, or the
    /// runtime killed). Immediate without a redundancy group. A caller of
    /// [`compact_below`](crate::compact_below) waits here first so a rebase
    /// record's group encoding is never outrun by the eviction of the
    /// history it replaces.
    pub fn wait_redundancy_durable(&self, ids: &[ObjectId]) {
        if let Some(red) = self.shared.tiers.redundancy() {
            self.wait_settled(ids, |id| red.is_encoded(id));
        }
    }

    /// The one stop path: tell the flusher to finish (it drains what is
    /// queued ahead of the message unless `killed` is set) and join it.
    fn stop(&self) {
        let _ = self.tx.send(Job::Shutdown);
        if let Some(w) = self.worker.lock().take() {
            let _ = w.join();
        }
    }

    /// Simulate a crash: the flusher stops mid-stream; staged objects above
    /// the PFS are lost (host/SSD contents are considered volatile).
    ///
    /// `kill` *joins* the flusher before returning, so afterwards the tiers
    /// are in a well-defined state: no further mutations happen, and since
    /// every tier write is atomic (the torn-write contract on
    /// [`Tier::put`](crate::tier::Tier::put)), each object is either fully
    /// present in a tier or absent — any partial frame observed later was
    /// injected by a [`FaultPlan`](crate::fault::FaultPlan), never left by
    /// a half-applied write.
    pub fn kill(&self) {
        self.shared.killed.store(true, Ordering::Relaxed);
        self.stop();
        // The flusher bumps as it exits; bump here too, so waiters see
        // `killed` even when it was already gone.
        self.shared.progress.bump();
        // The crash takes the claim-exchange stage with it: queued claims
        // are dropped as typed orphans, never committed past this point.
        if let Some(e) = &self.rank_dedup {
            e.kill();
        }
    }

    /// Rewrite a submission against the cluster dedup index (identity
    /// without an engine).
    fn dedup_transform(&self, id: ObjectId, bytes: Vec<u8>) -> Vec<u8> {
        match &self.rank_dedup {
            Some(e) => e.encode(id, bytes),
            None => bytes,
        }
    }

    /// After a crash: the durable record per rank — the longest prefix
    /// `0..=k` of checkpoint ids fully present (and verified) on the PFS.
    /// Restart must resume from these (later diffs may exist but are
    /// unusable without their predecessors). See
    /// [`recover_report`](Self::recover_report) for per-object accounting.
    pub fn recover(&self) -> HashMap<u32, Vec<Bytes>> {
        self.recover_report().into_prefixes()
    }

    /// Post-crash recovery with per-object verified/repaired/lost
    /// accounting (see [`RecoveryReport`]).
    pub fn recover_report(&self) -> RecoveryReport {
        self.shared.tiers.recover_report()
    }

    /// Graceful shutdown: drain everything, then join the worker.
    pub fn shutdown(self) {
        self.stop();
    }
}

impl Default for AsyncRuntime {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for AsyncRuntime {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan};
    use crate::integrity::ObjectStatus;
    use crate::tier::TierConfig;

    #[test]
    fn submit_drains_to_pfs_and_evicts_above() {
        let rt = AsyncRuntime::new();
        rt.submit(0, 0, vec![1; 100]).unwrap();
        rt.submit(0, 1, vec![2; 100]).unwrap();
        rt.wait_durable(&[(0, 0), (0, 1)]);
        assert_eq!(rt.tiers().pfs.get((0, 0)), Some(vec![1; 100].into()));
        assert_eq!(rt.tiers().pfs.get((0, 1)), Some(vec![2; 100].into()));
        assert!(!rt.tiers().host.contains((0, 0)));
        assert!(!rt.tiers().ssd.contains((0, 0)));
        rt.shutdown();
    }

    #[test]
    fn locate_prefers_durable_copy() {
        let rt = AsyncRuntime::new();
        rt.submit(3, 0, vec![7; 10]).unwrap();
        rt.wait_durable(&[(3, 0)]);
        assert_eq!(rt.tiers().locate((3, 0)), Some(vec![7; 10].into()));
        assert_eq!(rt.tiers().locate((9, 9)), None);
    }

    #[test]
    fn modeled_time_accumulates_down_the_chain() {
        let rt = AsyncRuntime::new();
        rt.submit(0, 0, vec![0; 1 << 20]).unwrap();
        rt.wait_durable(&[(0, 0)]);
        assert!(rt.tiers().host.modeled_busy_sec() > 0.0);
        assert!(rt.tiers().ssd.modeled_busy_sec() > rt.tiers().pfs.modeled_busy_sec());
        rt.shutdown();
    }

    #[test]
    fn kill_then_recover_returns_durable_prefix() {
        let rt = AsyncRuntime::new();
        // Make several checkpoints durable, then crash and submit more.
        for k in 0..3 {
            rt.submit(0, k, vec![k as u8; 50]).unwrap();
        }
        rt.wait_durable(&[(0, 0), (0, 1), (0, 2)]);
        rt.kill();
        // Post-crash submissions stage to host but never become durable.
        rt.submit(0, 3, vec![9; 50]).unwrap();
        let rec = rt.recover();
        assert_eq!(rec[&0].len(), 3);
        assert_eq!(rec[&0][2], vec![2u8; 50]);
    }

    #[test]
    fn recover_stops_at_gaps() {
        // A rank whose ckpt 1 never landed: only ckpt 0 is usable.
        let rt = AsyncRuntime::new();
        rt.tiers().pfs.put((5, 0), vec![1]).unwrap();
        rt.tiers().pfs.put((5, 2), vec![3]).unwrap();
        let rec = rt.recover();
        assert_eq!(rec[&5], vec![vec![1u8]]);
    }

    #[test]
    fn backpressure_stalls_then_completes() {
        // Host tier holds two 100-byte checkpoints; the SSD drains at a
        // throttled pace, so a burst of 8 must stall the producer — and
        // every byte still lands durably.
        let tiers = TierChain::with_configs(
            TierConfig {
                name: "host",
                bandwidth_bps: 25.0e9,
                capacity: 220,
            },
            TierConfig {
                name: "ssd",
                bandwidth_bps: 1e6,
                capacity: u64::MAX,
            },
            TierConfig::pfs(),
        );
        // 100 bytes at 1 MB/s modeled = 0.1 ms real per hop at scale 1.0.
        let rt = AsyncRuntime::start(RuntimeConfig {
            tiers,
            time_scale: 1.0,
            ..Default::default()
        });
        let mut total_stall = Duration::ZERO;
        for k in 0..8u32 {
            total_stall += rt.submit_blocking(0, k, vec![k as u8; 100]).unwrap();
        }
        assert!(total_stall > Duration::ZERO, "burst must have stalled");
        let ids: Vec<_> = (0..8u32).map(|k| (0, k)).collect();
        rt.wait_durable(&ids);
        for &id in &ids {
            assert_eq!(rt.tiers().pfs.get(id), Some(vec![id.1 as u8; 100].into()));
        }
        rt.shutdown();
    }

    #[test]
    fn submit_blocking_without_pressure_is_instant() {
        let rt = AsyncRuntime::new();
        let stall = rt.submit_blocking(0, 0, vec![1; 64]).unwrap();
        assert!(stall < Duration::from_millis(50));
        rt.wait_durable(&[(0, 0)]);
    }

    #[test]
    fn submit_blocking_errors_after_kill() {
        let tiers = TierChain::with_configs(
            TierConfig {
                name: "host",
                bandwidth_bps: 25.0e9,
                capacity: 50,
            },
            TierConfig::ssd(),
            TierConfig::pfs(),
        );
        let rt = AsyncRuntime::start(RuntimeConfig {
            tiers,
            ..Default::default()
        });
        // Kill first so the flusher deterministically never drains: ckpt 0
        // stays staged in host memory.
        rt.kill();
        rt.submit(0, 0, vec![0; 40]).unwrap();
        // The host is full and nothing will free it: must error, not spin.
        assert!(rt.submit_blocking(0, 1, vec![0; 40]).is_err());
    }

    #[test]
    fn telemetry_tracks_submissions_through_durability() {
        let rt = AsyncRuntime::new();
        for k in 0..3u32 {
            rt.submit(0, k, vec![k as u8; 4096]).unwrap();
        }
        rt.wait_durable(&[(0, 0), (0, 1), (0, 2)]);
        let reg = Arc::clone(rt.telemetry());
        rt.shutdown(); // joins the flusher: all metric updates are visible
        assert_eq!(reg.counter("runtime/submitted").get(), 3);
        assert_eq!(reg.counter("runtime/durable").get(), 3);
        assert_eq!(reg.gauge("runtime/durable_lag").get(), 0);
        assert_eq!(reg.gauge("runtime/queue_depth").get(), 0);
        assert_eq!(reg.counter("tier/host/evictions").get(), 3);
        assert_eq!(reg.counter("tier/ssd/evictions").get(), 3);
        assert_eq!(reg.gauge("tier/host/used_bytes").get(), 0);
        assert_eq!(reg.histogram("tier/host/object_bytes").snapshot().count, 3);
        assert_eq!(reg.histogram("tier/pfs/flush_ns").snapshot().count, 3);
        // Unthrottled fast-path submissions never stall.
        assert_eq!(reg.counter("runtime/producer_stalls").get(), 0);
        assert_eq!(reg.counter("runtime/producer_stall_ns").get(), 0);
        // Fault-free runs never retry or degrade.
        assert_eq!(reg.counter("runtime/retries").get(), 0);
        assert_eq!(reg.counter("runtime/degraded_flushes").get(), 0);
    }

    #[test]
    fn many_ranks_interleaved() {
        let rt = AsyncRuntime::new();
        let mut ids = Vec::new();
        for rank in 0..8u32 {
            for k in 0..5u32 {
                rt.submit(rank, k, vec![rank as u8; 64]).unwrap();
                ids.push((rank, k));
            }
        }
        rt.wait_durable(&ids);
        for &id in &ids {
            assert!(rt.tiers().pfs.contains(id));
        }
        rt.shutdown();
    }

    #[test]
    fn transient_put_errors_are_retried_to_durability() {
        // The first two SSD puts and the first PFS put fail transiently;
        // the drain must still land everything, with retries counted.
        let plan = FaultPlan::builder()
            .on_put("ssd", 0, FaultKind::TransientIo)
            .on_put("ssd", 1, FaultKind::TransientIo)
            .on_put("pfs", 0, FaultKind::TransientIo)
            .build();
        let rt = AsyncRuntime::start(RuntimeConfig {
            tiers: TierChain::with_faults(plan),
            ..Default::default()
        });
        for k in 0..3u32 {
            rt.submit(0, k, vec![k as u8; 128]).unwrap();
        }
        let ids = [(0, 0), (0, 1), (0, 2)];
        rt.wait_durable(&ids);
        for id in ids {
            assert_eq!(rt.tiers().pfs.get(id), Some(vec![id.1 as u8; 128].into()));
        }
        let reg = Arc::clone(rt.telemetry());
        assert!(rt.undrainable().is_empty());
        rt.shutdown();
        assert_eq!(reg.counter("runtime/retries").get(), 3);
        assert_eq!(reg.counter("runtime/durable").get(), 3);
        assert_eq!(reg.counter("runtime/degraded_flushes").get(), 0);
    }

    #[test]
    fn exhausted_ssd_degrades_to_pfs() {
        // Every SSD put fails: after retry exhaustion the flusher must
        // degrade host → PFS directly, and the object still becomes durable.
        let mut b = FaultPlan::builder();
        for op in 0..64 {
            b = b.on_put("ssd", op, FaultKind::TransientIo);
        }
        let rt = AsyncRuntime::start(RuntimeConfig {
            tiers: TierChain::with_faults(b.build()),
            ..Default::default()
        });
        rt.submit(0, 0, vec![5; 256]).unwrap();
        rt.wait_durable(&[(0, 0)]);
        assert_eq!(rt.tiers().pfs.get((0, 0)), Some(vec![5; 256].into()));
        assert!(!rt.tiers().ssd.contains((0, 0)));
        assert!(!rt.tiers().host.contains((0, 0)));
        let reg = Arc::clone(rt.telemetry());
        rt.shutdown();
        assert_eq!(reg.counter("runtime/degraded_flushes").get(), 1);
        assert_eq!(reg.counter("runtime/durable").get(), 1);
        assert!(reg.counter("runtime/retries").get() >= 3);
    }

    #[test]
    fn full_ssd_degrades_without_retrying() {
        // A zero-capacity SSD refuses everything; objects must reach the
        // PFS via degradation with no pointless retries.
        let tiers = TierChain::with_configs(
            TierConfig::host(),
            TierConfig {
                name: "ssd",
                bandwidth_bps: 2.0e9,
                capacity: 0,
            },
            TierConfig::pfs(),
        );
        let rt = AsyncRuntime::start(RuntimeConfig {
            tiers,
            ..Default::default()
        });
        rt.submit(0, 0, vec![1; 64]).unwrap();
        rt.wait_durable(&[(0, 0)]);
        assert_eq!(rt.tiers().pfs.get((0, 0)), Some(vec![1; 64].into()));
        let reg = Arc::clone(rt.telemetry());
        rt.shutdown();
        assert_eq!(reg.counter("runtime/degraded_flushes").get(), 1);
        assert_eq!(reg.counter("runtime/retries").get(), 0);
    }

    #[test]
    fn corrupt_staged_copy_is_quarantined_and_reported() {
        // A torn host write can never drain: the flusher must quarantine
        // it, mark it undrainable (so wait_durable terminates), and the
        // recovery report must call it lost.
        let plan = FaultPlan::builder()
            .on_put("host", 0, FaultKind::TornWrite { keep_bytes: 8 })
            .build();
        let rt = AsyncRuntime::start(RuntimeConfig {
            tiers: TierChain::with_faults(plan),
            ..Default::default()
        });
        rt.submit(0, 0, vec![9; 512]).unwrap();
        rt.submit(0, 1, vec![8; 512]).unwrap();
        rt.wait_durable(&[(0, 0), (0, 1)]);
        assert_eq!(rt.undrainable(), vec![(0, 0)]);
        assert_eq!(rt.tiers().pfs.get((0, 1)), Some(vec![8; 512].into()));
        let report = rt.recover_report();
        assert_eq!(report.total(ObjectStatus::LostVolatile), 1);
        // ckpt 0 lost ⇒ the durable prefix is empty even though ckpt 1
        // itself is durable and verified.
        assert_eq!(report.ranks[0].prefix_len, 0);
        assert_eq!(report.total_verified(), 1);
        let reg = Arc::clone(rt.telemetry());
        assert!(reg.counter("integrity/frames_corrupt").get() >= 1);
        rt.shutdown();
    }

    #[test]
    fn locate_skips_corrupt_copy_and_repairs_it() {
        // Bit-flip the SSD copy of an object that also exists (valid) on
        // the host: locate must return the good host bytes, quarantine the
        // flipped SSD copy, and repair the SSD from the host copy.
        let plan = FaultPlan::builder()
            .on_put("ssd", 0, FaultKind::BitFlip { bit: 321 })
            .build();
        let tiers = TierChain::with_faults(plan);
        tiers.host.put((0, 0), vec![3; 128]).unwrap();
        tiers.ssd.put((0, 0), vec![3; 128]).unwrap(); // corrupted by the plan
        assert_eq!(tiers.locate((0, 0)), Some(vec![3; 128].into()));
        assert_eq!(tiers.integrity().corrupt_count(), 1);
        assert_eq!(tiers.integrity().repaired_count(), 1);
        // The repaired SSD copy now verifies.
        assert_eq!(tiers.ssd.get((0, 0)), Some(vec![3; 128].into()));
        assert_eq!(tiers.ssd.quarantined(), vec![(0, 0)]);
    }

    #[test]
    fn recover_repairs_corrupt_pfs_copy_from_higher_tier() {
        // The PFS copy is bit-flipped but the SSD still holds a valid
        // copy: recovery must repair the durable copy and report it.
        let plan = FaultPlan::builder()
            .on_put("pfs", 0, FaultKind::BitFlip { bit: 100 })
            .build();
        let tiers = TierChain::with_faults(plan);
        tiers.pfs.put((2, 0), vec![6; 200]).unwrap(); // corrupted
        tiers.ssd.put((2, 0), vec![6; 200]).unwrap(); // redundant good copy
        let report = tiers.recover_report();
        assert_eq!(report.total_repaired(), 1);
        assert_eq!(report.total_lost(), 0);
        assert_eq!(report.ranks[0].prefix_len, 1);
        assert_eq!(report.ranks[0].payloads[0], vec![6; 200]);
        // The PFS copy has been rewritten and now verifies.
        assert_eq!(tiers.pfs.get((2, 0)), Some(vec![6; 200].into()));
        assert_eq!(tiers.integrity().repaired_count(), 1);
    }

    #[test]
    fn corrupt_pfs_copy_without_redundancy_is_lost() {
        let plan = FaultPlan::builder()
            .on_put("pfs", 0, FaultKind::BitFlip { bit: 7 })
            .build();
        let tiers = TierChain::with_faults(plan);
        tiers.pfs.put((0, 0), vec![1; 64]).unwrap();
        let report = tiers.recover_report();
        assert_eq!(report.total(ObjectStatus::LostCorrupt), 1);
        assert_eq!(report.total_durable_prefix(), 0);
        assert_eq!(tiers.pfs.quarantined(), vec![(0, 0)]);
        // The legacy view simply has no usable prefix.
        assert_eq!(
            tiers.recover_report().into_prefixes()[&0],
            Vec::<Vec<u8>>::new()
        );
    }

    fn compressible_payload(len_u32s: u32) -> Vec<u8> {
        (0..len_u32s).flat_map(|i| (i / 7).to_le_bytes()).collect()
    }

    fn zstd_object(payload: &[u8]) -> StoredObject {
        let codec = ckpt_compress::codec_by_id(6).unwrap();
        let container = ckpt_compress::blocks::compress_blocks(
            &*codec,
            payload,
            ckpt_compress::blocks::DEFAULT_BLOCK_SIZE,
        );
        StoredObject::encoded(6, payload.len() as u64, container)
    }

    #[test]
    fn compressed_flush_round_trips_and_shrinks_lower_tiers() {
        let reg = Arc::new(Registry::new());
        let rt = AsyncRuntime::start(RuntimeConfig {
            registry: Arc::clone(&reg),
            compression: CompressionPolicy::Adaptive,
            ..Default::default()
        });
        let payload = compressible_payload(100_000);
        rt.submit(0, 0, payload.clone()).unwrap();
        rt.wait_durable(&[(0, 0)]);

        // Transparent reads return the original bytes; the durable copy is
        // stored compressed and charged at its compressed size.
        assert_eq!(rt.tiers().pfs.get((0, 0)), Some(payload.clone().into()));
        let durable = rt.tiers().pfs.inspect_object((0, 0)).into_object().unwrap();
        assert_ne!(durable.codec(), 0);
        assert_eq!(durable.uncompressed_len(), payload.len() as u64);
        assert!(rt.tiers().pfs.used_bytes() < payload.len() as u64 / 2);
        assert_eq!(rt.tiers().locate((0, 0)), Some(payload.clone().into()));

        rt.shutdown();
        // Size histograms stay in payload units regardless of policy
        // (PR-1 invariant: host/ssd/pfs object_bytes are comparable).
        for tier in ["host", "ssd", "pfs"] {
            let snap = reg
                .histogram(&format!("tier/{tier}/object_bytes"))
                .snapshot();
            assert_eq!(snap.sum, payload.len() as u64, "{tier} histogram");
        }
        let json = reg.snapshot_json();
        assert!(
            json.contains("compress/bytes_in"),
            "missing metrics: {json}"
        );
        assert!(reg.gauge("compress/ratio_pct").get() < 100);
        assert!(reg.counter("compress/decode_ns").get() > 0);
    }

    #[test]
    fn production_read_path_counts_its_decodes() {
        // Restore and recovery decompress through the chain, never through
        // `Tier::get`; `compress/decode_ns` must see them all the same.
        let dev = gpu_sim::Device::a100();
        let mut ckpt = ckpt_dedup::new_checkpointer(
            ckpt_dedup::MethodKind::Tree,
            dev.clone(),
            ckpt_dedup::TreeConfig::new(64),
        );
        let reg = Arc::new(Registry::new());
        let rt = AsyncRuntime::start(RuntimeConfig {
            registry: Arc::clone(&reg),
            compression: CompressionPolicy::Adaptive,
            ..Default::default()
        });
        let mut data = compressible_payload(50_000);
        for k in 0..3u32 {
            data[k as usize * 4001] ^= 0x5a;
            rt.submit(0, k, ckpt.checkpoint(&data).diff.encode())
                .unwrap();
        }
        rt.wait_durable(&[(0, 0), (0, 1), (0, 2)]);
        let durable = rt.tiers().pfs.inspect_object((0, 0)).into_object().unwrap();
        assert!(durable.is_compressed(), "the stack must compress this");

        let decode_ns = || reg.counter("compress/decode_ns").get();
        assert_eq!(decode_ns(), 0);
        let restored = rt.restore_latest_parallel(&dev, 0).unwrap();
        assert_eq!((restored.version, &restored.data), (2, &data));
        let after_restore = decode_ns();
        assert!(after_restore > 0, "restore decoded nothing it counted");
        assert_eq!(rt.recover_report().ranks[0].prefix_len, 3);
        assert!(decode_ns() > after_restore, "recovery decodes uncounted");
        rt.shutdown();
    }

    #[test]
    fn transient_host_error_under_submit_blocking_is_a_retry_not_a_stall() {
        let plan = FaultPlan::builder()
            .on_put("host", 0, FaultKind::TransientIo)
            .build();
        let rt = AsyncRuntime::start(RuntimeConfig {
            tiers: TierChain::with_faults(plan),
            ..Default::default()
        });
        rt.submit_blocking(0, 0, vec![7; 256]).unwrap();
        rt.wait_durable(&[(0, 0)]);
        assert_eq!(rt.tiers().pfs.get((0, 0)), Some(vec![7; 256].into()));
        let reg = Arc::clone(rt.telemetry());
        rt.shutdown();
        // The host tier had room all along.
        assert_eq!(reg.counter("runtime/producer_stalls").get(), 0);
        assert_eq!(reg.counter("runtime/producer_stall_ns").get(), 0);
        assert_eq!(reg.counter("runtime/retries").get(), 1);
    }

    #[test]
    fn off_policy_exports_the_pre_compression_schema() {
        let rt = AsyncRuntime::new();
        rt.submit(0, 0, compressible_payload(50_000)).unwrap();
        rt.wait_durable(&[(0, 0)]);
        let reg = Arc::clone(rt.telemetry());
        rt.shutdown();
        assert!(!reg.snapshot_json().contains("compress/"));
    }

    #[test]
    fn degraded_flush_of_compressed_object_skips_ssd_but_stays_compressed() {
        let tiers = TierChain::with_configs(
            TierConfig::host(),
            TierConfig {
                name: "ssd",
                bandwidth_bps: 2.0e9,
                capacity: 0,
            },
            TierConfig::pfs(),
        );
        let reg = Arc::new(Registry::new());
        let rt = AsyncRuntime::start(RuntimeConfig {
            tiers,
            registry: Arc::clone(&reg),
            compression: CompressionPolicy::Fixed(6),
            ..Default::default()
        });
        let payload = compressible_payload(60_000);
        rt.submit(0, 0, payload.clone()).unwrap();
        rt.wait_durable(&[(0, 0)]);
        assert_eq!(rt.tiers().pfs.get((0, 0)), Some(payload.into()));
        let durable = rt.tiers().pfs.inspect_object((0, 0)).into_object().unwrap();
        assert_eq!(durable.codec(), 6);
        rt.shutdown();
        assert_eq!(reg.counter("runtime/degraded_flushes").get(), 1);
        // Encoded exactly once: the degraded PFS retry reuses the object.
        assert_eq!(reg.counter("compress/objects/zstd").get(), 1);
    }

    #[test]
    fn recover_repairs_corrupt_compressed_pfs_copy_without_transcoding() {
        // The PFS copy of a *compressed* object is bit-flipped; the SSD
        // holds a clean compressed copy. Recovery must quarantine the bad
        // copy, verify the compressed checksum of the good one, and repair
        // the PFS with the encoded bytes verbatim.
        let plan = FaultPlan::builder()
            .on_put("pfs", 0, FaultKind::BitFlip { bit: 555 })
            .build();
        let tiers = TierChain::with_faults(plan);
        let payload = compressible_payload(80_000);
        let obj = zstd_object(&payload);
        tiers.pfs.store_object((2, 0), obj.clone()).unwrap(); // corrupted
        tiers.ssd.store_object((2, 0), obj.clone()).unwrap(); // good copy
        let report = tiers.recover_report();
        assert_eq!(report.total_repaired(), 1);
        assert_eq!(report.ranks[0].payloads[0], payload);
        // The repaired durable copy is still the same encoded object.
        assert_eq!(tiers.pfs.inspect_object((2, 0)).into_object(), Some(obj));
        assert_eq!(tiers.pfs.quarantined(), vec![(2, 0)]);
    }

    #[test]
    fn locate_repairs_with_encoded_bytes() {
        let plan = FaultPlan::builder()
            .on_put("ssd", 0, FaultKind::BitFlip { bit: 222 })
            .build();
        let tiers = TierChain::with_faults(plan);
        let payload = compressible_payload(70_000);
        let obj = zstd_object(&payload);
        tiers.ssd.store_object((0, 0), obj.clone()).unwrap(); // corrupted
        tiers.host.store_object((0, 0), obj.clone()).unwrap(); // good copy
        assert_eq!(tiers.locate((0, 0)), Some(payload.into()));
        assert_eq!(tiers.integrity().repaired_count(), 1);
        // The repaired SSD copy verifies and is still compressed.
        assert_eq!(tiers.ssd.inspect_object((0, 0)).into_object(), Some(obj));
    }

    #[test]
    fn undecompressible_durable_copy_counts_as_corrupt_and_lost() {
        // A frame that verifies but whose payload is garbage to the codec:
        // recovery must classify it lost-corrupt, not crash or return junk.
        let tiers = TierChain::new();
        tiers
            .pfs
            .store_object((0, 0), StoredObject::encoded(6, 4096, vec![0x5A; 99]))
            .unwrap();
        let report = tiers.recover_report();
        assert_eq!(report.total(ObjectStatus::LostCorrupt), 1);
        assert_eq!(tiers.pfs.quarantined(), vec![(0, 0)]);
    }

    #[test]
    fn stalled_producer_returns_once_the_slowed_eviction_lands() {
        // The host holds one object; its only way out is an SSD put that
        // takes 30 ms. The second submission finds the host full and has
        // nothing to wake it but the bump after that hop.
        let plan = FaultPlan::builder()
            .on_put("ssd", 0, FaultKind::LatencySpike { micros: 30_000 })
            .build();
        let mut tiers = TierChain::with_faults(plan);
        tiers.host = crate::tier::Tier::new(TierConfig {
            capacity: 150,
            ..TierConfig::host()
        });
        let rt = AsyncRuntime::start(RuntimeConfig {
            tiers,
            ..Default::default()
        });
        rt.submit_blocking(0, 0, vec![1; 100]).unwrap();
        rt.submit_blocking(0, 1, vec![2; 100]).unwrap();
        rt.wait_durable(&[(0, 0), (0, 1)]);
        assert_eq!(rt.tiers().pfs.get((0, 1)), Some(vec![2; 100].into()));
        let reg = Arc::clone(rt.telemetry());
        rt.shutdown();
        // (A producer descheduled for the whole 30 ms never saw it full.)
        assert!(reg.counter("runtime/producer_stalls").get() <= 1);
        assert_eq!(reg.counter("runtime/durable").get(), 2);
    }

    #[test]
    fn wait_durable_returns_for_each_terminal_event_with_the_flusher_idle() {
        // ckpt 0 lands torn on the host and strands there; ckpt 1 drains.
        let plan = FaultPlan::builder()
            .on_put("host", 0, FaultKind::TornWrite { keep_bytes: 8 })
            .build();
        let rt = AsyncRuntime::start(RuntimeConfig {
            tiers: TierChain::with_faults(plan),
            ..Default::default()
        });
        rt.submit(0, 0, vec![9; 512]).unwrap();
        rt.submit(0, 1, vec![8; 512]).unwrap();
        // The flusher takes jobs in order: once ckpt 1 is durable it has
        // nothing left to do, and no later bump will come.
        rt.wait_durable(&[(0, 1)]);
        rt.wait_durable(&[(0, 0)]); // undrainable
        rt.wait_durable(&[(0, 1)]); // durable
        assert_eq!(rt.undrainable(), vec![(0, 0)]);
        // Nobody submitted (9,9): only the kill ends this wait, whether
        // the waiter was already asleep or arrives after it.
        std::thread::scope(|s| {
            let waiter = s.spawn(|| rt.wait_durable(&[(9, 9)]));
            rt.kill();
            waiter.join().expect("waiter");
        });
        rt.wait_durable(&[(9, 9)]);
    }

    #[test]
    fn kill_joins_the_flusher() {
        let rt = AsyncRuntime::new();
        rt.submit(0, 0, vec![1; 64]).unwrap();
        rt.kill();
        // After kill() the worker is joined: no handle remains.
        assert!(rt.worker.lock().is_none());
        // Tier state is frozen now; recover sees a consistent snapshot.
        let before = rt.recover_report().total_objects();
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(rt.recover_report().total_objects(), before);
    }
}
