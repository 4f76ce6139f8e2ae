//! The asynchronous multi-level checkpointing runtime (Fig. 3).
//!
//! Application processes hand their consolidated diffs to
//! [`AsyncRuntime::submit`]
//! (synchronous only up to the host-memory write — the application resumes
//! immediately, like VeloC's async mode) and a background flusher drains
//! host → SSD → PFS, evicting from the upper tier once the object is safe
//! one level down. A checkpoint is *durable* once it reaches the PFS.
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
//! contract on [`Tier::put`]). [`AsyncRuntime::recover`] /
//! [`TierChain::recover_report`] then enumerate, per rank, which objects
//! verified, which were repaired from a redundant copy, and which are lost
//! — instead of silently returning a partial chain.

use crate::compress::{CompressMetrics, CompressionEngine, CompressionPolicy};
use crate::fault::FaultPlan;
use crate::integrity::{
    group_by_rank, IntegrityCounters, ObjectStatus, RankRecovery, RecoveredObject, RecoveryReport,
};
use crate::rankdedup::{RankDedupEngine, RankDedupIndex, Resolver};
use crate::redundancy::{RedundancyMetrics, RedundancyPolicy, RedundancyStore};
use crate::tier::{
    ObjectId, ObjectState, StoreErrorKind, StoredObject, Tier, TierConfig, TierFull,
};
use ckpt_telemetry::{Counter, Gauge, Histogram, Registry};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Max attempts for a tier write before the flusher gives up on that tier
/// (1 initial try + 3 retries).
const MAX_STORE_ATTEMPTS: u32 = 4;
/// Max attempts for a tier read (transient errors only).
const MAX_READ_ATTEMPTS: u32 = 3;
/// Base backoff between retries; doubles per attempt (50 µs, 100 µs, …) so
/// retry exhaustion stays well under a millisecond in tests.
const RETRY_BACKOFF: Duration = Duration::from_micros(50);

/// The three-tier hierarchy under the GPU.
pub struct TierChain {
    pub host: Tier,
    pub ssd: Tier,
    pub pfs: Tier,
    integrity: IntegrityCounters,
    /// Cross-rank redundancy level (`None` = the pre-redundancy chain,
    /// byte for byte).
    redundancy: Option<Arc<RedundancyStore>>,
    /// Cluster-wide dedup index (`None` = no rank-dedup resolution on the
    /// read path, byte for byte the pre-index chain).
    rank_dedup: Option<Arc<RankDedupIndex>>,
    /// Ranks named by fired `RankLoss` faults, wiped at the next
    /// deterministic poll point (flush start, locate, recovery).
    loss_sink: Arc<Mutex<Vec<u32>>>,
}

impl TierChain {
    pub fn new() -> Self {
        Self::with_configs(TierConfig::host(), TierConfig::ssd(), TierConfig::pfs())
    }

    fn assemble(host: Tier, ssd: Tier, pfs: Tier) -> Self {
        let loss_sink: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
        for tier in [&host, &ssd, &pfs] {
            tier.bind_loss_sink(Arc::clone(&loss_sink));
        }
        TierChain {
            host,
            ssd,
            pfs,
            integrity: IntegrityCounters::detached(),
            redundancy: None,
            rank_dedup: None,
            loss_sink,
        }
    }

    pub fn with_configs(host: TierConfig, ssd: TierConfig, pfs: TierConfig) -> Self {
        Self::assemble(Tier::new(host), Tier::new(ssd), Tier::new(pfs))
    }

    /// Default-configured chain whose tiers all consult `plan` (the
    /// fault-injection hook; specs are keyed by tier name).
    pub fn with_faults(plan: Arc<FaultPlan>) -> Self {
        Self::assemble(
            Tier::with_faults(TierConfig::host(), Arc::clone(&plan)),
            Tier::with_faults(TierConfig::ssd(), Arc::clone(&plan)),
            Tier::with_faults(TierConfig::pfs(), plan),
        )
    }

    /// Attach the cross-rank redundancy level. The group tier joins the
    /// chain's rank-loss sink so `RankLoss` faults scheduled against
    /// `"group"` are observed too.
    pub fn attach_redundancy(&mut self, store: Arc<RedundancyStore>) {
        store
            .group_tier()
            .bind_loss_sink(Arc::clone(&self.loss_sink));
        self.redundancy = Some(store);
    }

    /// The attached redundancy store, if any.
    pub fn redundancy(&self) -> Option<&Arc<RedundancyStore>> {
        self.redundancy.as_ref()
    }

    /// Attach the cluster-wide dedup index: the read path resolves
    /// `CKPR` records through it (and types dangling references).
    pub fn attach_rank_dedup(&mut self, index: Arc<RankDedupIndex>) {
        self.rank_dedup = Some(index);
    }

    /// The attached cluster dedup index, if any.
    pub fn rank_dedup_index(&self) -> Option<&Arc<RankDedupIndex>> {
        self.rank_dedup.as_ref()
    }

    /// Member ids the redundancy group knows about (empty without one) —
    /// recovery enumerates these so an object whose every local copy was
    /// wiped is still *seen*.
    pub fn redundancy_member_ids(&self) -> Vec<ObjectId> {
        self.redundancy
            .as_ref()
            .map(|r| r.member_ids())
            .unwrap_or_default()
    }

    /// Hand one post-compression object to the redundancy level (no-op
    /// without one; idempotent).
    pub(crate) fn encode_redundancy(&self, id: ObjectId, object: &StoredObject) {
        if let Some(red) = &self.redundancy {
            red.encode_member(id, object);
        }
    }

    /// Apply any pending `RankLoss` faults: wipe the lost ranks' volatile
    /// tiers (host, SSD — never the PFS) and the group objects they
    /// hosted. Returns the ids wiped from the volatile tiers (sorted) so
    /// the flusher can mark non-durable ones undrainable. Deterministic:
    /// losses are queued by the fault hook at exact op ordinals and applied
    /// here, at the chain's fixed poll points.
    pub fn poll_rank_loss(&self) -> Vec<ObjectId> {
        let pending: Vec<u32> = std::mem::take(&mut *self.loss_sink.lock());
        if pending.is_empty() {
            return Vec::new();
        }
        let mut seen = HashSet::new();
        let mut wiped = Vec::new();
        for rank in pending {
            if !seen.insert(rank) {
                continue;
            }
            wiped.extend(self.host.wipe_rank(rank));
            wiped.extend(self.ssd.wipe_rank(rank));
            if let Some(red) = &self.redundancy {
                red.apply_rank_loss(rank);
                red.metrics().on_rank_loss();
            }
        }
        wiped.sort_unstable();
        wiped.dedup();
        wiped
    }

    /// Rebuild an object from its redundancy group, re-storing the result
    /// on the PFS so later reads find it durably. Returns `None` without a
    /// group, for unknown members, and for failed rebuilds (counted).
    fn reconstruct_from_group(&self, id: ObjectId) -> Option<StoredObject> {
        let red = self.redundancy.as_ref()?;
        let fetch = |mid: ObjectId| -> Option<StoredObject> {
            for tier in [&self.pfs, &self.ssd, &self.host] {
                if let ObjectState::Valid(obj) = Self::inspect_object_retry(tier, mid) {
                    return Some(obj);
                }
            }
            None
        };
        match red.reconstruct(id, &fetch) {
            Ok(obj) => {
                red.metrics().on_restored();
                let _ = self.pfs.store_object(id, obj.clone());
                Some(obj)
            }
            Err(_) => {
                if red.knows_member(id) {
                    red.metrics().on_restore_failure();
                }
                None
            }
        }
    }

    /// Route integrity counters into `registry` (done by the runtime at
    /// construction so `integrity/frames_*` land in its report).
    pub fn bind_telemetry(&mut self, registry: Arc<Registry>) {
        self.integrity = IntegrityCounters::bound(registry);
    }

    /// Route decode-time accounting from every tier's transparent read
    /// path into the given compression metric sink.
    pub fn bind_compress_metrics(&self, metrics: &Arc<CompressMetrics>) {
        for tier in [&self.host, &self.ssd, &self.pfs] {
            tier.bind_compress_metrics(Arc::clone(metrics));
        }
    }

    /// Integrity counters for this chain (verified / corrupt / repaired).
    pub fn integrity(&self) -> &IntegrityCounters {
        &self.integrity
    }

    /// Read-and-verify (without decoding) with bounded retry of injected
    /// transient errors.
    fn inspect_object_retry(tier: &Tier, id: ObjectId) -> ObjectState {
        for attempt in 0..MAX_READ_ATTEMPTS {
            match tier.inspect_object(id) {
                ObjectState::TransientIo if attempt + 1 < MAX_READ_ATTEMPTS => {
                    std::thread::sleep(RETRY_BACKOFF * (1 << attempt));
                }
                state => return state,
            }
        }
        ObjectState::TransientIo
    }

    /// Find a *verified* copy of an object in the deepest tier holding one
    /// (PFS preferred: it is the durable copy). Copies whose frame fails
    /// verification — or whose compressed payload fails to decode — are
    /// skipped (a bit-flipped host copy can never shadow a good SSD copy),
    /// then quarantined, and transparently repaired from the surviving
    /// valid copy when one exists. Repairs re-store the *encoded* bytes,
    /// so a compressed object stays compressed (and its compressed-payload
    /// checksum is what the repaired copy re-verifies against).
    ///
    /// One-shot: a call that reads several objects opens one
    /// [`reader`](Self::reader) instead, so the records they reference are
    /// fetched once for the whole call.
    pub fn locate(&self, id: ObjectId) -> Option<Vec<u8>> {
        self.reader().locate(id)
    }

    /// A read session over this chain for one restore / record collection /
    /// recovery call. See [`ChainReader`].
    pub fn reader(&self) -> ChainReader<'_> {
        ChainReader {
            tiers: self,
            resolver: Resolver::new(Box::new(move |target| self.locate_stored(target))),
        }
    }

    /// `locate` minus rank-dedup resolution: the stored payload verbatim
    /// (a `CKPR` record when the object was submitted with rank-dedup on).
    /// Resolution fetches *referenced* records through this, so a remote
    /// chunk on a lost rank still reconstructs from its parity group — and
    /// resolution never recurses.
    fn locate_stored(&self, id: ObjectId) -> Option<Vec<u8>> {
        self.poll_rank_loss();
        let order = [&self.pfs, &self.ssd, &self.host];
        let mut decoded: Option<Vec<u8>> = None;
        let mut encoded: Option<StoredObject> = None;
        let mut corrupt: Vec<&Tier> = Vec::new();
        for tier in order {
            match Self::inspect_object_retry(tier, id) {
                ObjectState::Valid(obj) => {
                    if decoded.is_some() {
                        // A redundant valid copy; no need to decode it too.
                        self.integrity.on_verified();
                        continue;
                    }
                    match obj.clone().decode() {
                        Ok(p) => {
                            self.integrity.on_verified();
                            decoded = Some(p);
                            encoded = Some(obj);
                        }
                        Err(_) => {
                            self.integrity.on_corrupt();
                            tier.quarantine(id);
                            corrupt.push(tier);
                        }
                    }
                }
                ObjectState::Corrupt(_) => {
                    self.integrity.on_corrupt();
                    tier.quarantine(id);
                    corrupt.push(tier);
                }
                ObjectState::Missing | ObjectState::TransientIo => {}
            }
        }
        if decoded.is_none() {
            // Every local copy is gone or corrupt: last resort before the
            // caller sees a hole is a bit-identical rebuild from the
            // object's redundancy group.
            if let Some(obj) = self.reconstruct_from_group(id) {
                if let Ok(p) = obj.clone().decode() {
                    decoded = Some(p);
                    encoded = Some(obj);
                }
            }
        }
        if let Some(obj) = &encoded {
            for tier in corrupt {
                if tier.store_object(id, obj.clone()).is_ok() {
                    self.integrity.on_repaired();
                }
            }
        }
        decoded
    }

    /// Classify one object for recovery; returns its status and, when
    /// durable, the verified (decoded) payload.
    fn recover_object(
        &self,
        reader: &mut ChainReader<'_>,
        id: ObjectId,
    ) -> (ObjectStatus, Option<Vec<u8>>) {
        let (status, payload) = self.recover_object_stored(id);
        match payload {
            Some(p) => match reader.resolve(id, p) {
                Some(resolved) => (status, Some(resolved)),
                // The record itself is durable but a cross-rank reference
                // dangles (referenced rank lost beyond its group's reach):
                // typed loss, never a wrong payload.
                None => (ObjectStatus::LostCorrupt, None),
            },
            None => (status, None),
        }
    }

    /// Tier/group classification of one object, pre-resolution.
    fn recover_object_stored(&self, id: ObjectId) -> (ObjectStatus, Option<Vec<u8>>) {
        match Self::inspect_object_retry(&self.pfs, id) {
            ObjectState::Valid(obj) => match obj.decode() {
                Ok(p) => {
                    self.integrity.on_verified();
                    (ObjectStatus::Verified, Some(p))
                }
                Err(_) => {
                    self.integrity.on_corrupt();
                    self.pfs.quarantine(id);
                    self.repair_pfs_from_upper(id)
                }
            },
            ObjectState::Corrupt(_) => {
                self.integrity.on_corrupt();
                self.pfs.quarantine(id);
                self.repair_pfs_from_upper(id)
            }
            ObjectState::Missing | ObjectState::TransientIo => {
                if let Some(p) = self.recover_from_group(id) {
                    return (ObjectStatus::RestoredFromGroup, Some(p));
                }
                if self.redundancy.as_ref().is_some_and(|r| r.knows_member(id)) {
                    // The group knew this object but could not rebuild it
                    // (e.g. two losses in one XOR group): typed loss, never
                    // a wrong payload.
                    (ObjectStatus::LostCorrupt, None)
                } else {
                    // Never durable: copies above the PFS are volatile.
                    (ObjectStatus::LostVolatile, None)
                }
            }
        }
    }

    /// Group-rebuild step of recovery: returns the decoded payload when
    /// the redundancy group reconstructed the object bit-identically.
    fn recover_from_group(&self, id: ObjectId) -> Option<Vec<u8>> {
        let obj = self.reconstruct_from_group(id)?;
        obj.decode().ok()
    }

    /// Repair the durable copy from a redundant valid copy in a higher
    /// tier, moving the encoded bytes verbatim (no transcode). When no
    /// local tier holds a usable copy, the object's redundancy group is
    /// the final source before declaring it lost.
    fn repair_pfs_from_upper(&self, id: ObjectId) -> (ObjectStatus, Option<Vec<u8>>) {
        for tier in [&self.ssd, &self.host] {
            if let ObjectState::Valid(obj) = Self::inspect_object_retry(tier, id) {
                if let Ok(p) = obj.clone().decode() {
                    self.integrity.on_verified();
                    if self.pfs.store_object(id, obj).is_ok() {
                        self.integrity.on_repaired();
                        return (ObjectStatus::Repaired, Some(p));
                    }
                }
            }
        }
        if let Some(p) = self.recover_from_group(id) {
            return (ObjectStatus::RestoredFromGroup, Some(p));
        }
        (ObjectStatus::LostCorrupt, None)
    }

    /// Post-crash recovery with full accounting: every object known to any
    /// tier (including quarantined ones) is classified as verified,
    /// repaired, or lost, and each rank's contiguous durable prefix is
    /// extracted. See [`RecoveryReport`].
    pub fn recover_report(&self) -> RecoveryReport {
        self.poll_rank_loss();
        let mut ids: Vec<ObjectId> = Vec::new();
        for tier in [&self.pfs, &self.ssd, &self.host] {
            ids.extend(tier.resident());
            ids.extend(tier.quarantined());
        }
        // Objects whose every local copy a rank loss wiped are invisible
        // to the tier scan; the group's member table still names them, so
        // cluster-scope recovery classifies them too (restored or typed
        // lost — never silently absent).
        ids.extend(self.redundancy_member_ids());
        // Ranks ascend (a `BTreeMap`): the PFS re-stores recovery performs
        // and the reader's fetch order repeat from run to run.
        let mut reader = self.reader();
        let ranks = group_by_rank(ids)
            .into_iter()
            .map(|(rank, ckpts)| {
                let mut objects = Vec::with_capacity(ckpts.len());
                let mut durable: BTreeMap<u32, Vec<u8>> = BTreeMap::new();
                for ckpt_id in ckpts {
                    let (status, payload) = self.recover_object(&mut reader, (rank, ckpt_id));
                    if status.is_durable() {
                        durable.insert(ckpt_id, payload.expect("durable object carries payload"));
                    }
                    objects.push(RecoveredObject { ckpt_id, status });
                }
                let (base, payloads) = usable_chain(&mut durable);
                RankRecovery {
                    rank,
                    objects,
                    base,
                    prefix_len: payloads.len(),
                    payloads,
                }
            })
            .collect();
        RecoveryReport { ranks }
    }
}

/// Fetch closure of a [`ChainReader`]: the chain's `locate_stored`.
type StoredFetch<'a> = Box<dyn Fn(ObjectId) -> Option<Vec<u8>> + Send + 'a>;

/// [`TierChain::locate`] for the span of one read call. Rank-dedup records
/// resolve through a single [`Resolver`], so a referenced object shared by
/// several records of the call is located, frame-verified, decompressed and
/// indexed once — and dropped with the reader, so no copy can go stale.
pub struct ChainReader<'a> {
    tiers: &'a TierChain,
    resolver: Resolver<StoredFetch<'a>>,
}

impl ChainReader<'_> {
    /// See [`TierChain::locate`].
    pub fn locate(&mut self, id: ObjectId) -> Option<Vec<u8>> {
        let bytes = self.tiers.locate_stored(id)?;
        self.resolve(id, bytes)
    }

    /// Resolve a rank-dedup record back to the originally submitted
    /// payload; anything else passes through untouched. A reference that
    /// cannot be resolved — target gone from every tier *and* its group,
    /// or failing the recorded checksum — yields `None` (a typed hole),
    /// never a wrong payload.
    fn resolve(&mut self, id: ObjectId, bytes: Vec<u8>) -> Option<Vec<u8>> {
        if !ckpt_dedup::frame::looks_rankdedup(&bytes) {
            return Some(bytes);
        }
        let metrics = self.tiers.rank_dedup.as_ref().map(|ix| ix.metrics());
        let t0 = Instant::now();
        let resolved = self.resolver.resolve(id, &bytes);
        if let Some(m) = metrics {
            m.on_fetch(t0.elapsed());
            if resolved.is_err() {
                m.on_orphans(1);
            }
        }
        resolved.ok()
    }
}

/// The newest restorable chain among a rank's durable objects: the
/// contiguous run with the greatest top id whose first record either is
/// checkpoint 0 or is structurally self-contained (a rebase record, the
/// legal chain head after compaction garbage-collected its predecessors).
/// An incremental run stranded above a hole is skipped in favor of an
/// older replayable run; with none, the chain is empty.
fn usable_chain(durable: &mut BTreeMap<u32, Vec<u8>>) -> (u32, Vec<Vec<u8>>) {
    let ids: Vec<u32> = durable.keys().copied().collect();
    // Contiguous runs, newest first.
    let mut runs: Vec<(u32, u32)> = Vec::new();
    for &id in &ids {
        match runs.last_mut() {
            Some((_, hi)) if *hi + 1 == id => *hi = id,
            _ => runs.push((id, id)),
        }
    }
    for &(lo, hi) in runs.iter().rev() {
        // A run reaching checkpoint 0 replays whole; otherwise it replays
        // from its lowest self-contained rebase record, if any.
        let head = if lo == 0 {
            Some(0)
        } else {
            (lo..=hi).find(|k| {
                ckpt_dedup::Diff::decode(&durable[k])
                    .map(|d| ckpt_dedup::is_self_contained(&d))
                    .unwrap_or(false)
            })
        };
        if let Some(head) = head {
            let payloads = (head..=hi).map(|k| durable.remove(&k).unwrap()).collect();
            return (head, payloads);
        }
    }
    (0, Vec::new())
}

impl Default for TierChain {
    fn default() -> Self {
        Self::new()
    }
}

enum Job {
    Flush(ObjectId),
    Shutdown,
}

/// Pre-resolved telemetry handles for the runtime's hot paths, shared
/// between producers and the flusher thread so neither ever touches the
/// registry lock after construction.
///
/// Metric inventory (all names are stable JSON keys):
///
/// | metric | kind | meaning |
/// |---|---|---|
/// | `runtime/submitted` | counter | checkpoints accepted into host staging |
/// | `runtime/durable` | counter | checkpoints that reached the PFS |
/// | `runtime/producer_stalls` | counter | blocking submissions that had to wait |
/// | `runtime/producer_stall_ns` | counter | total wall time producers spent stalled |
/// | `runtime/retries` | counter | flusher retries after transient tier errors (lazy) |
/// | `runtime/degraded_flushes` | counter | flushes that skipped a failed tier (lazy) |
/// | `runtime/queue_depth` | gauge | flush jobs enqueued but not yet picked up |
/// | `runtime/durable_lag` | gauge | submitted minus durable (in-flight objects) |
/// | `tier/host/used_bytes` | gauge | host staging occupancy |
/// | `tier/host/evictions`, `tier/ssd/evictions` | counter | drains that freed the tier above |
/// | `tier/<t>/object_bytes` | histogram | *payload* sizes written to tier `<t>` (pre-frame, pre-compression) |
/// | `tier/ssd/flush_ns`, `tier/pfs/flush_ns` | histogram | per-hop flush latency |
/// | `compress/*` | mixed | see [`crate::compress`] (lazy) |
/// | `integrity/frames_*` | counter | see [`crate::integrity`] (lazy) |
/// | `restore/chains_restored` | counter | parallel restarts completed (lazy) |
/// | `restore/records_read` | counter | encoded diffs restart walks consumed (lazy) |
/// | `restore/records_fetched` | counter | records restart walks started a `locate` for (lazy) |
/// | `restore/bytes_read` | counter | encoded bytes fetched by restart walks (lazy) |
/// | `restore/regions_copied` | counter | copy regions materialized by restarts (lazy) |
/// | `restore/bytes_copied` | counter | payload bytes gathered by restarts (lazy) |
/// | `restore/fetch_wait_ns` | counter | restart time blocked on tier prefetch (lazy) |
///
/// Lazy counters only register on their first event so fault-free runs
/// export exactly the pre-existing metric schema.
struct RuntimeMetrics {
    registry: Arc<Registry>,
    submitted: Arc<Counter>,
    durable: Arc<Counter>,
    producer_stalls: Arc<Counter>,
    producer_stall_ns: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    durable_lag: Arc<Gauge>,
    host_used_bytes: Arc<Gauge>,
    host_evictions: Arc<Counter>,
    ssd_evictions: Arc<Counter>,
    host_object_bytes: Arc<Histogram>,
    ssd_object_bytes: Arc<Histogram>,
    pfs_object_bytes: Arc<Histogram>,
    ssd_flush_ns: Arc<Histogram>,
    pfs_flush_ns: Arc<Histogram>,
    retries: OnceLock<Arc<Counter>>,
    degraded_flushes: OnceLock<Arc<Counter>>,
}

impl RuntimeMetrics {
    fn new(registry: Arc<Registry>) -> Self {
        RuntimeMetrics {
            submitted: registry.counter("runtime/submitted"),
            durable: registry.counter("runtime/durable"),
            producer_stalls: registry.counter("runtime/producer_stalls"),
            producer_stall_ns: registry.counter("runtime/producer_stall_ns"),
            queue_depth: registry.gauge("runtime/queue_depth"),
            durable_lag: registry.gauge("runtime/durable_lag"),
            host_used_bytes: registry.gauge("tier/host/used_bytes"),
            host_evictions: registry.counter("tier/host/evictions"),
            ssd_evictions: registry.counter("tier/ssd/evictions"),
            host_object_bytes: registry.histogram("tier/host/object_bytes"),
            ssd_object_bytes: registry.histogram("tier/ssd/object_bytes"),
            pfs_object_bytes: registry.histogram("tier/pfs/object_bytes"),
            ssd_flush_ns: registry.histogram("tier/ssd/flush_ns"),
            pfs_flush_ns: registry.histogram("tier/pfs/flush_ns"),
            retries: OnceLock::new(),
            degraded_flushes: OnceLock::new(),
            registry,
        }
    }

    /// Book-keeping for one accepted submission of `len` bytes.
    fn on_submitted(&self, len: usize, host_used: u64) {
        self.submitted.inc();
        self.durable_lag.add(1);
        self.queue_depth.add(1);
        self.host_object_bytes.record(len as u64);
        self.host_used_bytes.set(host_used as i64);
    }

    fn on_retry(&self) {
        self.retries
            .get_or_init(|| self.registry.counter("runtime/retries"))
            .inc();
    }

    fn on_degraded_flush(&self) {
        self.degraded_flushes
            .get_or_init(|| self.registry.counter("runtime/degraded_flushes"))
            .inc();
    }
}

/// The flusher thread's working set.
struct Flusher {
    tiers: Arc<TierChain>,
    m: Arc<RuntimeMetrics>,
    /// Post-dedup compression stage: raw staged payloads are encoded here,
    /// on the shared pool, before their first hop off the host tier — off
    /// the producer's critical path.
    engine: CompressionEngine,
    killed: Arc<AtomicBool>,
    space_freed: Arc<(Mutex<u64>, Condvar)>,
    /// Objects the flusher has given up on (never durable without outside
    /// help); lets `wait_durable` terminate instead of spinning forever.
    undrainable: Arc<Mutex<HashSet<ObjectId>>>,
    time_scale: f64,
}

impl Flusher {
    fn throttle(&self, bytes: u64, bw: f64) {
        if self.time_scale > 0.0 {
            let sec = bytes as f64 / bw * self.time_scale;
            std::thread::sleep(Duration::from_secs_f64(sec));
        }
    }

    /// Write with bounded retry + exponential backoff for transient
    /// errors. A full tier fails fast (retrying cannot free space — the
    /// caller degrades instead). Returns the object on failure, encoded
    /// exactly as handed in, so no retry or degradation ever re-encodes.
    fn store_object_with_retry(
        &self,
        tier: &Tier,
        id: ObjectId,
        object: StoredObject,
    ) -> Result<(), StoredObject> {
        let mut object = object;
        for attempt in 0..MAX_STORE_ATTEMPTS {
            match tier.store_object(id, object) {
                Ok(()) => return Ok(()),
                Err(e) => {
                    if e.kind == StoreErrorKind::Full || attempt + 1 == MAX_STORE_ATTEMPTS {
                        return Err(e.object);
                    }
                    self.m.on_retry();
                    std::thread::sleep(RETRY_BACKOFF * (1 << attempt));
                    object = e.object;
                }
            }
        }
        unreachable!("loop returns on last attempt")
    }

    /// Read (without decoding) with bounded retry of transient errors,
    /// counting retries.
    fn read_object_with_retry(&self, tier: &Tier, id: ObjectId) -> ObjectState {
        for attempt in 0..MAX_READ_ATTEMPTS {
            match tier.inspect_object(id) {
                ObjectState::TransientIo if attempt + 1 < MAX_READ_ATTEMPTS => {
                    self.m.on_retry();
                    std::thread::sleep(RETRY_BACKOFF * (1 << attempt));
                }
                state => return state,
            }
        }
        ObjectState::TransientIo
    }

    /// Evict the host copy once the object is safe below, then wake any
    /// producers stalled on host capacity.
    fn free_host(&self, id: ObjectId) {
        if self.tiers.host.evict(id) {
            self.m.host_evictions.inc();
        }
        self.m
            .host_used_bytes
            .set(self.tiers.host.used_bytes() as i64);
        let (gen, cv) = &*self.space_freed;
        *gen.lock() += 1;
        cv.notify_all();
    }

    fn mark_undrainable(&self, id: ObjectId) {
        self.undrainable.lock().insert(id);
    }

    fn on_durable(&self) {
        self.m.durable.inc();
        self.m.durable_lag.sub(1);
    }

    /// Drain one object host → SSD → PFS, with retry, degradation and
    /// integrity handling at every hop.
    ///
    /// Compression happens exactly once, on the first hop off the host
    /// tier: the staged raw payload is encoded per the policy, and from
    /// then on the encoded object moves verbatim (hop 2 and degraded
    /// paths never transcode). Throttling and tier accounting charge the
    /// encoded size — what actually crosses the link — while
    /// `tier/<t>/object_bytes` records the original payload size so size
    /// distributions stay comparable across compression policies.
    fn flush(&self, id: ObjectId) {
        let t = &self.tiers;
        // Apply any rank loss queued by the fault hook before touching the
        // tiers; in-flight objects the wipe took (and that never reached
        // the PFS) can only come back via their redundancy group at
        // recovery, so `wait_durable` must not spin on them.
        for wiped in t.poll_rank_loss() {
            if !t.pfs.contains(wiped) {
                self.mark_undrainable(wiped);
            }
        }
        // Hop 1: host → SSD, degrading host → PFS if the SSD refuses the
        // object after retry exhaustion (full or persistently erroring).
        match self.read_object_with_retry(&t.host, id) {
            ObjectState::Valid(staged) => {
                // Host staging holds raw objects; anything already encoded
                // (a re-flush of a repaired copy) passes through untouched.
                let object = if staged.codec == 0 {
                    self.engine.encode(staged.payload)
                } else {
                    staged
                };
                // Redundancy-encode the framed (post-compression) object
                // across its parity group, off the producer's critical
                // path and overlapped with the drain — idempotent, so a
                // degraded re-flush never double-XORs.
                t.encode_redundancy(id, &object);
                let raw_len = object.uncompressed_len;
                let wire_len = object.stored_len();
                let hop = Instant::now();
                match self.store_object_with_retry(&t.ssd, id, object) {
                    Ok(()) => {
                        self.throttle(wire_len, t.ssd.config().bandwidth_bps);
                        self.m.ssd_flush_ns.record_duration(hop.elapsed());
                        self.m.ssd_object_bytes.record(raw_len);
                        self.free_host(id);
                    }
                    Err(object) => {
                        self.m.on_degraded_flush();
                        let hop = Instant::now();
                        match self.store_object_with_retry(&t.pfs, id, object) {
                            Ok(()) => {
                                self.throttle(wire_len, t.pfs.config().bandwidth_bps);
                                self.m.pfs_flush_ns.record_duration(hop.elapsed());
                                self.m.pfs_object_bytes.record(raw_len);
                                self.on_durable();
                                self.free_host(id);
                            }
                            Err(_) => self.mark_undrainable(id),
                        }
                        return; // degraded objects skip the SSD hop
                    }
                }
            }
            ObjectState::Corrupt(_) => {
                // A corrupt staged copy can never drain; only a deeper copy
                // can still make this object durable.
                t.integrity.on_corrupt();
                t.host.quarantine(id);
                if !t.ssd.contains(id) && !t.pfs.contains(id) {
                    self.mark_undrainable(id);
                    return;
                }
            }
            ObjectState::TransientIo => {
                if !t.ssd.contains(id) && !t.pfs.contains(id) {
                    self.mark_undrainable(id);
                    return;
                }
            }
            ObjectState::Missing => {}
        }
        if self.killed.load(Ordering::Relaxed) {
            return;
        }
        // Hop 2: SSD → PFS. The encoded object moves verbatim.
        match self.read_object_with_retry(&t.ssd, id) {
            ObjectState::Valid(object) => {
                let raw_len = object.uncompressed_len;
                let wire_len = object.stored_len();
                let hop = Instant::now();
                match self.store_object_with_retry(&t.pfs, id, object) {
                    Ok(()) => {
                        self.throttle(wire_len, t.pfs.config().bandwidth_bps);
                        self.m.pfs_flush_ns.record_duration(hop.elapsed());
                        self.m.pfs_object_bytes.record(raw_len);
                        self.on_durable();
                        if t.ssd.evict(id) {
                            self.m.ssd_evictions.inc();
                        }
                    }
                    Err(_) => self.mark_undrainable(id),
                }
            }
            ObjectState::Corrupt(_) => {
                t.integrity.on_corrupt();
                t.ssd.quarantine(id);
                if !t.pfs.contains(id) {
                    self.mark_undrainable(id);
                }
            }
            ObjectState::TransientIo => {
                if !t.pfs.contains(id) {
                    self.mark_undrainable(id);
                }
            }
            ObjectState::Missing => {}
        }
    }

    fn run(&self, rx: Receiver<Job>) {
        for job in rx.iter() {
            match job {
                Job::Shutdown => break,
                Job::Flush(id) => {
                    self.m.queue_depth.sub(1);
                    if self.killed.load(Ordering::Relaxed) {
                        // Simulated node failure: stop draining.
                        break;
                    }
                    self.flush(id);
                }
            }
        }
        // Unblock any stalled producers on exit.
        let (gen, cv) = &*self.space_freed;
        *gen.lock() += 1;
        cv.notify_all();
    }
}

/// Asynchronous checkpoint flusher over a [`TierChain`].
pub struct AsyncRuntime {
    tiers: Arc<TierChain>,
    metrics: Arc<RuntimeMetrics>,
    tx: Sender<Job>,
    worker: Mutex<Option<JoinHandle<()>>>,
    killed: Arc<AtomicBool>,
    /// Signaled after the flusher evicts from the host tier, unblocking
    /// producers stalled in [`submit_blocking`](Self::submit_blocking).
    space_freed: Arc<(Mutex<u64>, Condvar)>,
    undrainable: Arc<Mutex<HashSet<ObjectId>>>,
    /// Cluster-wide dedup engine; when set, every submission is rewritten
    /// against the shared index before it is staged.
    rank_dedup: Option<Arc<RankDedupEngine>>,
}

impl AsyncRuntime {
    pub fn new() -> Self {
        Self::with_tiers(TierChain::new())
    }

    pub fn with_tiers(tiers: TierChain) -> Self {
        Self::with_tiers_throttled(tiers, 0.0)
    }

    /// A runtime whose flusher paces itself in *real* time to the tiers'
    /// modeled bandwidths, scaled by `time_scale` (e.g. `1e-3` makes one
    /// modeled second cost one real millisecond). With a non-zero scale,
    /// finite tier capacities produce genuine backpressure: producers that
    /// emit checkpoints faster than the chain drains will stall in
    /// [`submit_blocking`](Self::submit_blocking) — the §1 high-frequency
    /// limitation this runtime exists to study.
    pub fn with_tiers_throttled(tiers: TierChain, time_scale: f64) -> Self {
        Self::with_compression(
            tiers,
            time_scale,
            Arc::new(Registry::new()),
            CompressionPolicy::Off,
        )
    }

    /// A throttled runtime recording into a caller-provided registry (so
    /// several subsystems can share one report), whose
    /// flusher compresses every object per `policy` on its first hop off
    /// the host tier. `CompressionPolicy::Off` reproduces the
    /// pre-compression runtime byte for byte (and, thanks to lazy
    /// `compress/*` metrics, report for report).
    pub fn with_compression(
        mut tiers: TierChain,
        time_scale: f64,
        registry: Arc<Registry>,
        policy: CompressionPolicy,
    ) -> Self {
        tiers.bind_telemetry(Arc::clone(&registry));
        let cmetrics = Arc::new(CompressMetrics::bound(Arc::clone(&registry)));
        tiers.bind_compress_metrics(&cmetrics);
        let tiers = Arc::new(tiers);
        let metrics = Arc::new(RuntimeMetrics::new(registry));
        let (tx, rx): (Sender<Job>, Receiver<Job>) = unbounded();
        let killed = Arc::new(AtomicBool::new(false));
        let space_freed: Arc<(Mutex<u64>, Condvar)> = Arc::new((Mutex::new(0), Condvar::new()));
        let undrainable: Arc<Mutex<HashSet<ObjectId>>> = Arc::new(Mutex::new(HashSet::new()));
        let flusher = Flusher {
            tiers: Arc::clone(&tiers),
            m: Arc::clone(&metrics),
            engine: CompressionEngine::new(policy, cmetrics),
            killed: Arc::clone(&killed),
            space_freed: Arc::clone(&space_freed),
            undrainable: Arc::clone(&undrainable),
            time_scale,
        };
        let worker = std::thread::spawn(move || flusher.run(rx));
        AsyncRuntime {
            tiers,
            metrics,
            tx,
            worker: Mutex::new(Some(worker)),
            killed,
            space_freed,
            undrainable,
            rank_dedup: None,
        }
    }

    /// The fullest constructor: [`with_compression`](Self::with_compression)
    /// plus a cross-rank redundancy group. With
    /// [`RedundancyPolicy::Off`] this delegates directly — no store is
    /// attached, no `redundancy/*` metric registers, and the runtime is
    /// the pre-redundancy one byte for byte.
    pub fn with_redundancy(
        mut tiers: TierChain,
        time_scale: f64,
        registry: Arc<Registry>,
        policy: CompressionPolicy,
        redundancy: RedundancyPolicy,
    ) -> Self {
        if redundancy != RedundancyPolicy::Off {
            let store = Arc::new(RedundancyStore::new(
                redundancy,
                RedundancyMetrics::bound(Arc::clone(&registry)),
            ));
            tiers.attach_redundancy(store);
        }
        Self::with_compression(tiers, time_scale, registry, policy)
    }

    /// [`with_redundancy`](Self::with_redundancy) plus the cluster-wide
    /// dedup engine. The engine is shared: every rank's runtime in a group
    /// holds the same `Arc` (one index, one claim exchange). With `None`
    /// this delegates directly — no index attaches, no `rankdedup/*`
    /// metric registers, and the runtime is the per-rank one byte for
    /// byte.
    pub fn with_rank_dedup(
        mut tiers: TierChain,
        time_scale: f64,
        registry: Arc<Registry>,
        policy: CompressionPolicy,
        redundancy: RedundancyPolicy,
        engine: Option<Arc<RankDedupEngine>>,
    ) -> Self {
        if let Some(e) = &engine {
            tiers.attach_rank_dedup(Arc::clone(e.index()));
        }
        let mut rt = Self::with_redundancy(tiers, time_scale, registry, policy, redundancy);
        rt.rank_dedup = engine;
        rt
    }

    /// The shared cluster dedup engine, if any.
    pub fn rank_dedup(&self) -> Option<&Arc<RankDedupEngine>> {
        self.rank_dedup.as_ref()
    }

    pub fn tiers(&self) -> &TierChain {
        &self.tiers
    }

    /// The registry this runtime records into; snapshot with
    /// [`Registry::snapshot_json`] for the `ckpt stats` report.
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.metrics.registry
    }

    /// Objects the flusher has given up on (corrupt with no redundant
    /// copy, or every lower tier refused them through retries and
    /// degradation). Sorted for deterministic assertions.
    pub fn undrainable(&self) -> Vec<ObjectId> {
        let mut ids: Vec<ObjectId> = self.undrainable.lock().iter().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Stage a checkpoint diff in host memory and schedule its background
    /// drain. Returns once the host write completes (the application's
    /// blocking time).
    pub fn submit(&self, rank: u32, ckpt_id: u32, bytes: Vec<u8>) -> Result<(), TierFull> {
        let id = (rank, ckpt_id);
        let bytes = self.dedup_transform(id, bytes);
        let len = bytes.len();
        self.tiers.host.put(id, bytes)?;
        self.metrics.on_submitted(len, self.tiers.host.used_bytes());
        // The send only fails after shutdown/kill; the object stays staged.
        let _ = self.tx.send(Job::Flush(id));
        Ok(())
    }

    /// Stage a checkpoint, blocking while the host tier is full — the
    /// application-visible stall of a producer outrunning the flusher (§1:
    /// "the HPC workflow may be delayed if it produces new checkpoints
    /// faster than they can be flushed to slower memory tiers").
    /// Returns the time spent stalled. Errors if the runtime died while
    /// waiting.
    pub fn submit_blocking(
        &self,
        rank: u32,
        ckpt_id: u32,
        bytes: Vec<u8>,
    ) -> Result<Duration, TierFull> {
        let start = Instant::now();
        let id = (rank, ckpt_id);
        let mut bytes = self.dedup_transform(id, bytes);
        let mut stalled = false;
        loop {
            let len = bytes.len();
            match self.tiers.host.try_put(id, bytes) {
                Ok(()) => {
                    self.metrics.on_submitted(len, self.tiers.host.used_bytes());
                    // Only submissions that found the host tier full count as
                    // stalls — an unthrottled chain must report exactly zero.
                    if stalled {
                        let waited = start.elapsed();
                        self.metrics.producer_stalls.inc();
                        self.metrics
                            .producer_stall_ns
                            .add(waited.as_nanos().min(u64::MAX as u128) as u64);
                    }
                    let _ = self.tx.send(Job::Flush(id));
                    return Ok(start.elapsed());
                }
                Err(returned) => {
                    stalled = true;
                    if self.killed.load(Ordering::Relaxed) {
                        return Err(TierFull {
                            tier: self.tiers.host.name(),
                        });
                    }
                    bytes = returned;
                    // Wait for the flusher to evict something (bounded nap to
                    // stay robust against missed wakeups).
                    let (gen, cv) = &*self.space_freed;
                    let mut g = gen.lock();
                    cv.wait_for(&mut g, Duration::from_millis(20));
                }
            }
        }
    }

    /// Block until every given checkpoint has either drained to the PFS or
    /// been abandoned by the flusher (see [`undrainable`](Self::undrainable)),
    /// then return. (Polling keeps the flusher honest about ordering.)
    pub fn wait_durable(&self, ids: &[ObjectId]) {
        loop {
            let settled = {
                let undrainable = self.undrainable.lock();
                ids.iter()
                    .all(|id| self.tiers.pfs.contains(*id) || undrainable.contains(id))
            };
            if settled {
                return;
            }
            if self.killed.load(Ordering::Relaxed) {
                return; // failure: durability will not progress further
            }
            std::thread::yield_now();
        }
    }

    /// Block until every given checkpoint's redundancy encoding is
    /// durable in the group tier (or the object was abandoned, or the
    /// runtime killed). Immediate without a redundancy group. GC calls
    /// this before `compact_below` so a rebase record's group encoding is
    /// never outrun by the eviction of the history it replaces.
    pub fn wait_redundancy_durable(&self, ids: &[ObjectId]) {
        let Some(red) = self.tiers.redundancy() else {
            return;
        };
        loop {
            let settled = {
                let undrainable = self.undrainable.lock();
                ids.iter()
                    .all(|id| red.is_encoded(*id) || undrainable.contains(id))
            };
            if settled {
                return;
            }
            if self.killed.load(Ordering::Relaxed) {
                return;
            }
            std::thread::yield_now();
        }
    }

    fn join_worker(&self) {
        let handle = self.worker.lock().take();
        if let Some(w) = handle {
            let _ = w.join();
        }
    }

    /// Simulate a crash: the flusher stops mid-stream; staged objects above
    /// the PFS are lost (host/SSD contents are considered volatile).
    ///
    /// `kill` *joins* the flusher before returning, so afterwards the tiers
    /// are in a well-defined state: no further mutations happen, and since
    /// every tier write is atomic (the torn-write contract on
    /// [`Tier::put`]), each object is either fully present in a tier or
    /// absent — any partial frame observed later was injected by a
    /// [`FaultPlan`], never left by a half-applied `try_put`.
    pub fn kill(&self) {
        self.killed.store(true, Ordering::Relaxed);
        let _ = self.tx.send(Job::Shutdown);
        self.join_worker();
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
    pub fn recover(&self) -> HashMap<u32, Vec<Vec<u8>>> {
        self.recover_report().into_prefixes()
    }

    /// Post-crash recovery with per-object verified/repaired/lost
    /// accounting (see [`RecoveryReport`]).
    pub fn recover_report(&self) -> RecoveryReport {
        self.tiers.recover_report()
    }

    /// Graceful shutdown: drain everything, then join the worker.
    pub fn shutdown(self) {
        let _ = self.tx.send(Job::Shutdown);
        self.join_worker();
    }
}

impl Default for AsyncRuntime {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for AsyncRuntime {
    fn drop(&mut self) {
        let _ = self.tx.send(Job::Shutdown);
        self.join_worker();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan};

    #[test]
    fn submit_drains_to_pfs_and_evicts_above() {
        let rt = AsyncRuntime::new();
        rt.submit(0, 0, vec![1; 100]).unwrap();
        rt.submit(0, 1, vec![2; 100]).unwrap();
        rt.wait_durable(&[(0, 0), (0, 1)]);
        assert_eq!(rt.tiers().pfs.get((0, 0)), Some(vec![1; 100]));
        assert_eq!(rt.tiers().pfs.get((0, 1)), Some(vec![2; 100]));
        assert!(!rt.tiers().host.contains((0, 0)));
        assert!(!rt.tiers().ssd.contains((0, 0)));
        rt.shutdown();
    }

    #[test]
    fn locate_prefers_durable_copy() {
        let rt = AsyncRuntime::new();
        rt.submit(3, 0, vec![7; 10]).unwrap();
        rt.wait_durable(&[(3, 0)]);
        assert_eq!(rt.tiers().locate((3, 0)), Some(vec![7; 10]));
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
        let rt = AsyncRuntime::with_tiers_throttled(tiers, 1.0);
        let mut total_stall = Duration::ZERO;
        for k in 0..8u32 {
            total_stall += rt.submit_blocking(0, k, vec![k as u8; 100]).unwrap();
        }
        assert!(total_stall > Duration::ZERO, "burst must have stalled");
        let ids: Vec<_> = (0..8u32).map(|k| (0, k)).collect();
        rt.wait_durable(&ids);
        for &id in &ids {
            assert_eq!(rt.tiers().pfs.get(id), Some(vec![id.1 as u8; 100]));
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
        let rt = AsyncRuntime::with_tiers(tiers);
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
        let rt = AsyncRuntime::with_tiers(TierChain::with_faults(plan));
        for k in 0..3u32 {
            rt.submit(0, k, vec![k as u8; 128]).unwrap();
        }
        let ids = [(0, 0), (0, 1), (0, 2)];
        rt.wait_durable(&ids);
        for id in ids {
            assert_eq!(rt.tiers().pfs.get(id), Some(vec![id.1 as u8; 128]));
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
        let rt = AsyncRuntime::with_tiers(TierChain::with_faults(b.build()));
        rt.submit(0, 0, vec![5; 256]).unwrap();
        rt.wait_durable(&[(0, 0)]);
        assert_eq!(rt.tiers().pfs.get((0, 0)), Some(vec![5; 256]));
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
        let rt = AsyncRuntime::with_tiers(tiers);
        rt.submit(0, 0, vec![1; 64]).unwrap();
        rt.wait_durable(&[(0, 0)]);
        assert_eq!(rt.tiers().pfs.get((0, 0)), Some(vec![1; 64]));
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
        let rt = AsyncRuntime::with_tiers(TierChain::with_faults(plan));
        rt.submit(0, 0, vec![9; 512]).unwrap();
        rt.submit(0, 1, vec![8; 512]).unwrap();
        rt.wait_durable(&[(0, 0), (0, 1)]);
        assert_eq!(rt.undrainable(), vec![(0, 0)]);
        assert_eq!(rt.tiers().pfs.get((0, 1)), Some(vec![8; 512]));
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
        assert_eq!(tiers.locate((0, 0)), Some(vec![3; 128]));
        assert_eq!(tiers.integrity().corrupt_count(), 1);
        assert_eq!(tiers.integrity().repaired_count(), 1);
        // The repaired SSD copy now verifies.
        assert_eq!(tiers.ssd.get((0, 0)), Some(vec![3; 128]));
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
        assert_eq!(tiers.pfs.get((2, 0)), Some(vec![6; 200]));
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
        let rt = AsyncRuntime::with_compression(
            TierChain::new(),
            0.0,
            Arc::clone(&reg),
            CompressionPolicy::Adaptive,
        );
        let payload = compressible_payload(100_000);
        rt.submit(0, 0, payload.clone()).unwrap();
        rt.wait_durable(&[(0, 0)]);

        // Transparent reads return the original bytes; the durable copy is
        // stored compressed and charged at its compressed size.
        assert_eq!(rt.tiers().pfs.get((0, 0)), Some(payload.clone()));
        let durable = rt.tiers().pfs.inspect_object((0, 0)).into_object().unwrap();
        assert_ne!(durable.codec, 0);
        assert_eq!(durable.uncompressed_len, payload.len() as u64);
        assert!(rt.tiers().pfs.used_bytes() < payload.len() as u64 / 2);
        assert_eq!(rt.tiers().locate((0, 0)), Some(payload.clone()));

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
        let rt = AsyncRuntime::with_compression(
            tiers,
            0.0,
            Arc::clone(&reg),
            CompressionPolicy::Fixed(6),
        );
        let payload = compressible_payload(60_000);
        rt.submit(0, 0, payload.clone()).unwrap();
        rt.wait_durable(&[(0, 0)]);
        assert_eq!(rt.tiers().pfs.get((0, 0)), Some(payload));
        let durable = rt.tiers().pfs.inspect_object((0, 0)).into_object().unwrap();
        assert_eq!(durable.codec, 6);
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
        assert_eq!(tiers.locate((0, 0)), Some(payload));
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
