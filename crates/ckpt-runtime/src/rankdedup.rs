//! Cluster-wide content-addressed dedup index across the ranks of a
//! redundancy group.
//!
//! Per-rank de-duplication (the paper's Fig. 7 weak-scaling setup) hashes
//! each GPU's state independently, so regions replicated *across* ranks —
//! ghost zones, replicated model/optimizer state — are stored once per
//! rank. This module closes that gap: the 128-bit chunk-hash space is
//! sharded across the ranks of the group (`owner_of`), each rank publishes
//! **first-occurrence claims** for the chunks it stores, and later
//! occurrences anywhere in the cluster are rewritten to
//! [`RemoteRef`]`{owner_rank, ckpt_id, chunk}` entries of a
//! [`RankDedupRecord`] — a chunk first seen by any rank is stored exactly
//! once cluster-wide.
//!
//! # Claim exchange
//!
//! Claims travel through a [`ClaimExchange`] stage in the
//! [`CheckpointPipeline`](crate::pipeline::CheckpointPipeline) shape: a
//! bounded hand-off to a dedicated worker, overlapped with the producer's
//! hashing of the next checkpoint. The stage is deterministic and
//! adversarially schedulable: a seeded reorder window commits claims out of
//! arrival order (so "who wins a race" is reproducible from the seed), and
//! the existing [`FaultPlan`] machinery injects latency (defer until the
//! next flush), drops, and rank loss against the virtual `"exchange"` tier.
//! A claim that loses its race — or is dropped by a fault or a crash — is
//! an **orphan**: the claimant keeps its local copy, the duplicate bytes
//! are simply not saved, and the `rankdedup/orphans` counter types the
//! event. Orphans never dangle: every committed claim points at bytes its
//! claimant stored locally *before* publishing.
//!
//! With no window and no fault plan the exchange is **inline**: claims
//! commit synchronously in the claimant, which makes stored-byte totals
//! bit-reproducible (the idealized interconnect the benchmarks measure
//! against).
//!
//! # Chunk-grid alignment
//!
//! Payload chunking starts at [`Diff::payload_offset`], with the diff
//! metadata prefix carried as a single variable-length local entry —
//! per-rank metadata differs in length, but the first-occurrence payload
//! bytes of replicated regions land on the same grid and dedup across
//! ranks.
//!
//! # GC floors
//!
//! A remotely-referenced object must outlive its referers:
//! [`RankDedupIndex::compact_below`] returns the set of ids *pinned* by
//! inbound references from live objects, and
//! [`coordinator::compact_below`](crate::coordinator::compact_below) keeps
//! those resident past the rank's rebase floor. Claims pointing into
//! evicted (unpinned) objects are retired so no future checkpoint can
//! acquire a dangling reference.
//!
//! # Resolution
//!
//! A [`Resolver`] reassembles original payloads, fetching referenced
//! records through a caller-supplied closure (the tier chain's read path,
//! including group-tier reconstruction — so a remote chunk on a lost rank
//! rebuilds from its parity group before restore proceeds). It lives for
//! one read call and fetches each distinct referenced object once in that
//! call; [`resolve_record`] is the one-record form. The reassembly is
//! verified against the original payload's checksum recorded at encode
//! time: a dangling or wrong reference is a typed [`RankDedupError`], never
//! a silently wrong payload. References are depth-1 by construction (claims
//! only ever name *local* entries), so resolution never recurses.

use crate::fault::{FaultKind, FaultPlan, OpKind, SplitMix64};
use crate::tier::ObjectId;
use ckpt_dedup::diff::Diff;
use ckpt_dedup::frame::{self, RankDedupEntry, RankDedupRecord, RemoteRef};
use ckpt_dedup::Bytes;
use ckpt_hash::{Digest128, Hasher128, Murmur3};
use ckpt_telemetry::{LazyCounter, Registry};
use crossbeam::channel::{unbounded, Receiver, Sender};
use gpu_sim::TILE;
use parking_lot::{Condvar, Mutex};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Seed for the 128-bit content hashes the index is keyed by (distinct
/// from every integrity-checksum seed).
const CHUNK_HASH_SEED: u32 = 0x5244_4858;

/// `rankdedup/*` telemetry. Every metric registers lazily on first event,
/// so runs with rank-dedup off export exactly the pre-existing schema.
///
/// | metric | kind | meaning |
/// |---|---|---|
/// | `rankdedup/claims` | counter | first-occurrence claims committed to the index |
/// | `rankdedup/remote_refs` | counter | chunks rewritten to cross-rank references |
/// | `rankdedup/remote_bytes_saved` | counter | payload bytes not stored thanks to remote refs |
/// | `rankdedup/fetch_ns` | counter | nanoseconds spent resolving remote refs on reads |
/// | `rankdedup/orphans` | counter | claims that lost a race or were dropped/killed in the exchange |
pub struct RankDedupMetrics {
    claims: LazyCounter,
    remote_refs: LazyCounter,
    remote_bytes_saved: LazyCounter,
    fetch_ns: LazyCounter,
    orphans: LazyCounter,
}

impl RankDedupMetrics {
    pub fn bound(registry: Arc<Registry>) -> Self {
        Self::over(Some(&registry))
    }

    /// A sink that counts nothing (indexes built without telemetry).
    pub fn detached() -> Self {
        Self::over(None)
    }

    fn over(registry: Option<&Arc<Registry>>) -> Self {
        let lazy = |name| LazyCounter::new(registry, name);
        RankDedupMetrics {
            claims: lazy("rankdedup/claims"),
            remote_refs: lazy("rankdedup/remote_refs"),
            remote_bytes_saved: lazy("rankdedup/remote_bytes_saved"),
            fetch_ns: lazy("rankdedup/fetch_ns"),
            orphans: lazy("rankdedup/orphans"),
        }
    }

    pub fn on_claims(&self, n: u64) {
        if n > 0 {
            self.claims.add(n);
        }
    }

    pub fn on_remote_refs(&self, n: u64, bytes_saved: u64) {
        if n > 0 {
            self.remote_refs.add(n);
            self.remote_bytes_saved.add(bytes_saved);
        }
    }

    pub fn on_fetch(&self, elapsed: Duration) {
        self.fetch_ns
            .add(elapsed.as_nanos().min(u64::MAX as u128) as u64);
    }

    pub fn on_orphans(&self, n: u64) {
        if n > 0 {
            self.orphans.add(n);
        }
    }
}

/// A 128-bit content hash of one grid chunk.
pub type ChunkHash = (u64, u64);

/// Hash one grid chunk for the cluster index.
#[inline]
pub fn chunk_hash(chunk: &[u8]) -> ChunkHash {
    let d = Murmur3.hash_seeded(chunk, CHUNK_HASH_SEED);
    (d.h1, d.h2)
}

/// Which rank's shard of the hash space a chunk hash belongs to.
#[inline]
pub fn owner_of(hash: ChunkHash, ranks: u32) -> u32 {
    ((hash.0 ^ hash.1) % ranks.max(1) as u64) as u32
}

/// Where a committed first-occurrence claim's bytes live: local entry
/// `chunk` of the rank-dedup record stored as `(rank, ckpt_id)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClaimLoc {
    pub rank: u32,
    pub ckpt_id: u32,
    pub chunk: u32,
}

impl ClaimLoc {
    fn object(&self) -> ObjectId {
        (self.rank, self.ckpt_id)
    }

    fn reference(&self) -> RemoteRef {
        RemoteRef {
            owner_rank: self.rank,
            ckpt_id: self.ckpt_id,
            chunk: self.chunk,
        }
    }
}

/// Why rank-dedup configuration or resolution failed. Every resolution
/// variant maps to a typed loss at the recovery layer — never a wrong
/// payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankDedupError {
    /// The record (or a referenced record) failed structural verification.
    Decode(frame::FrameError),
    /// A referenced object is gone from every tier and its group.
    DanglingRef { reference: RemoteRef },
    /// A reference names an entry that is not local in its record (encoder
    /// bug or cross-version confusion; depth-1 resolution refuses it).
    NotLocal { reference: RemoteRef },
    /// The reassembled payload has the wrong length.
    LengthMismatch { expected: u64, got: u64 },
    /// The reassembled payload failed the original checksum recorded at
    /// encode time.
    ChecksumMismatch,
}

impl std::fmt::Display for RankDedupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RankDedupError::Decode(e) => write!(f, "rank-dedup record invalid: {e}"),
            RankDedupError::DanglingRef { reference } => write!(
                f,
                "dangling remote ref to rank {} ckpt {} chunk {}",
                reference.owner_rank, reference.ckpt_id, reference.chunk
            ),
            RankDedupError::NotLocal { reference } => write!(
                f,
                "remote ref to rank {} ckpt {} chunk {} is not a local entry there",
                reference.owner_rank, reference.ckpt_id, reference.chunk
            ),
            RankDedupError::LengthMismatch { expected, got } => {
                write!(f, "resolved payload length {got}, recorded {expected}")
            }
            RankDedupError::ChecksumMismatch => {
                write!(f, "resolved payload failed the recorded checksum")
            }
        }
    }
}

impl std::error::Error for RankDedupError {}

/// The shared cluster index: committed first-occurrence claims plus the
/// cross-rank reference edges that pin remotely-referenced objects past GC
/// floors.
pub struct RankDedupIndex {
    ranks: u32,
    claims: Mutex<HashMap<ChunkHash, ClaimLoc>>,
    /// referenced object -> referencing objects (self-references excluded).
    inbound: Mutex<HashMap<ObjectId, HashSet<ObjectId>>>,
    /// referencing object -> referenced objects (self-references excluded).
    outbound: Mutex<HashMap<ObjectId, HashSet<ObjectId>>>,
    metrics: RankDedupMetrics,
}

impl RankDedupIndex {
    pub fn new(ranks: u32, metrics: RankDedupMetrics) -> Self {
        RankDedupIndex {
            ranks: ranks.max(1),
            claims: Mutex::new(HashMap::new()),
            inbound: Mutex::new(HashMap::new()),
            outbound: Mutex::new(HashMap::new()),
            metrics,
        }
    }

    /// Ranks the hash space is sharded across.
    pub fn ranks(&self) -> u32 {
        self.ranks
    }

    pub fn metrics(&self) -> &RankDedupMetrics {
        &self.metrics
    }

    /// The shard owner of a chunk hash.
    pub fn owner_of(&self, hash: ChunkHash) -> u32 {
        owner_of(hash, self.ranks)
    }

    /// The committed first-occurrence location for a hash, if any.
    pub fn lookup(&self, hash: ChunkHash) -> Option<ClaimLoc> {
        self.claims.lock().get(&hash).copied()
    }

    /// Commit a first-occurrence claim. First writer wins; a losing claim
    /// is an orphan (typed, counted — its bytes stay stored locally by the
    /// claimant, they are simply not advertised).
    pub fn commit_claim(&self, hash: ChunkHash, loc: ClaimLoc) -> bool {
        match self.claims.lock().entry(hash) {
            Entry::Vacant(v) => {
                v.insert(loc);
                self.metrics.on_claims(1);
                true
            }
            Entry::Occupied(_) => {
                self.metrics.on_orphans(1);
                false
            }
        }
    }

    /// Record that object `from` carries remote references into `to`
    /// (pinning `to` past GC floors until `from` is itself compacted).
    pub fn add_ref(&self, from: ObjectId, to: ObjectId) {
        if from == to {
            return;
        }
        self.inbound.lock().entry(to).or_default().insert(from);
        self.outbound.lock().entry(from).or_default().insert(to);
    }

    /// Whether any live object still references `id` remotely.
    pub fn is_pinned(&self, id: ObjectId) -> bool {
        self.inbound.lock().get(&id).is_some_and(|s| !s.is_empty())
    }

    /// Total committed claims (test/stats helper).
    pub fn claim_count(&self) -> usize {
        self.claims.lock().len()
    }

    /// GC hook for `rank` advancing its rebase floor to `below`: releases
    /// the outbound reference edges of this rank's objects under the floor
    /// (they are about to be evicted), retires claims pointing into
    /// evicted objects, and returns the ids `(rank, c < below)` that must
    /// be **kept** because live objects elsewhere still reference them.
    ///
    /// Conservative by design: a pinned object stays resident until a
    /// *later* floor advance of its rank finds it unpinned.
    pub fn compact_below(&self, rank: u32, below: u32) -> HashSet<ObjectId> {
        let under = |id: &ObjectId| id.0 == rank && id.1 < below;
        // Release outbound edges of the objects being evicted.
        {
            let mut outbound = self.outbound.lock();
            let mut inbound = self.inbound.lock();
            let evicted: Vec<ObjectId> = outbound.keys().copied().filter(under).collect();
            for from in evicted {
                if let Some(tos) = outbound.remove(&from) {
                    for to in tos {
                        if let Some(set) = inbound.get_mut(&to) {
                            set.remove(&from);
                            if set.is_empty() {
                                inbound.remove(&to);
                            }
                        }
                    }
                }
            }
        }
        // Everything under the floor still referenced from outside stays.
        let keep: HashSet<ObjectId> = self
            .inbound
            .lock()
            .iter()
            .filter(|(id, refs)| under(id) && !refs.is_empty())
            .map(|(id, _)| *id)
            .collect();
        // Claims into objects about to be evicted would hand out dangling
        // references; retire them.
        self.claims
            .lock()
            .retain(|_, loc| !under(&loc.object()) || keep.contains(&loc.object()));
        keep
    }
}

/// One rank's published claims for one checkpoint object.
pub struct ClaimBatch {
    pub claimant: ObjectId,
    pub claims: Vec<(ChunkHash, ClaimLoc)>,
}

enum Msg {
    Batch(ClaimBatch),
    Flush,
}

struct ExchangeShared {
    published: AtomicU64,
    /// Batches committed *or* dropped — quiesce waits for this to catch
    /// `published`.
    settled: AtomicU64,
    signal: (Mutex<()>, Condvar),
}

impl ExchangeShared {
    fn settle(&self) {
        self.settled.fetch_add(1, Ordering::Release);
        let _g = self.signal.0.lock();
        self.signal.1.notify_all();
    }
}

/// The asynchronous claim-publication stage (see the module docs). Inline
/// when built with no reorder window and no fault plan.
pub struct ClaimExchange {
    index: Arc<RankDedupIndex>,
    tx: Mutex<Option<Sender<Msg>>>,
    worker: Mutex<Option<JoinHandle<()>>>,
    shared: Arc<ExchangeShared>,
    killed: Arc<AtomicBool>,
    inline: bool,
}

impl ClaimExchange {
    /// An inline exchange: claims commit synchronously in the claimant.
    pub fn inline(index: Arc<RankDedupIndex>) -> Self {
        Self::build(index, 0, 0, None, true)
    }

    /// An asynchronous exchange with a seeded reorder window of `window`
    /// batches and optional fault injection against the `"exchange"` tier
    /// (`LatencySpike` defers a batch to the next flush/quiesce;
    /// `TransientIo`/`TornWrite`/`BitFlip` drop it; `RankLoss{rank}` drops
    /// it when the claimant is that rank).
    pub fn with_schedule(
        index: Arc<RankDedupIndex>,
        seed: u64,
        window: usize,
        plan: Option<Arc<FaultPlan>>,
    ) -> Self {
        Self::build(index, seed, window, plan, false)
    }

    fn build(
        index: Arc<RankDedupIndex>,
        seed: u64,
        window: usize,
        plan: Option<Arc<FaultPlan>>,
        inline: bool,
    ) -> Self {
        let shared = Arc::new(ExchangeShared {
            published: AtomicU64::new(0),
            settled: AtomicU64::new(0),
            signal: (Mutex::new(()), Condvar::new()),
        });
        let killed = Arc::new(AtomicBool::new(false));
        let (tx, worker) = if inline {
            (None, None)
        } else {
            let (tx, rx): (Sender<Msg>, Receiver<Msg>) = unbounded();
            let w = {
                let index = Arc::clone(&index);
                let shared = Arc::clone(&shared);
                let killed = Arc::clone(&killed);
                std::thread::spawn(move || {
                    exchange_loop(rx, index, shared, killed, seed, window, plan)
                })
            };
            (Some(tx), Some(w))
        };
        ClaimExchange {
            index,
            tx: Mutex::new(tx),
            worker: Mutex::new(worker),
            shared,
            killed,
            inline,
        }
    }

    /// Hand one checkpoint's claims to the exchange. Inline mode commits
    /// before returning; otherwise the batch is queued for the worker and
    /// this returns immediately (the PR 4 pipeline hand-off shape). After
    /// a [`kill`](Self::kill) the claims are dropped and counted as
    /// orphans.
    pub fn publish(&self, batch: ClaimBatch) {
        if batch.claims.is_empty() {
            return;
        }
        self.shared.published.fetch_add(1, Ordering::Release);
        if self.inline {
            commit_batch(&self.index, batch);
            self.shared.settle();
            return;
        }
        let sent = {
            let tx = self.tx.lock();
            match tx.as_ref() {
                Some(tx) => tx.send(Msg::Batch(batch)).is_ok(),
                None => false,
            }
        };
        if !sent {
            // Exchange gone (killed): the claims die with it — typed, not
            // silently re-queued. Recompute nothing; the claimant's local
            // copies remain authoritative.
            self.index.metrics().on_orphans(1);
            self.shared.settle();
        }
    }

    /// Block until every published batch has settled (committed or
    /// dropped), flushing deferred batches first. Between checkpoint
    /// rounds this makes cross-rank claim visibility — and therefore
    /// stored-byte totals — deterministic.
    pub fn quiesce(&self) {
        if !self.inline {
            let tx = self.tx.lock();
            if let Some(tx) = tx.as_ref() {
                let _ = tx.send(Msg::Flush);
            }
        }
        loop {
            if self.shared.settled.load(Ordering::Acquire)
                >= self.shared.published.load(Ordering::Acquire)
            {
                return;
            }
            let mut g = self.shared.signal.0.lock();
            self.shared
                .signal
                .1
                .wait_for(&mut g, Duration::from_millis(1));
        }
    }

    /// Crash the exchange: in-flight and queued batches are *dropped* and
    /// counted as orphans — never committed after the kill point, never
    /// silently re-stored.
    pub fn kill(&self) {
        self.killed.store(true, Ordering::SeqCst);
        drop(self.tx.lock().take());
        if let Some(w) = self.worker.lock().take() {
            let _ = w.join();
        }
    }

    /// Graceful close: drain and commit everything still queued.
    pub fn close(&self) {
        drop(self.tx.lock().take());
        if let Some(w) = self.worker.lock().take() {
            let _ = w.join();
        }
    }
}

impl Drop for ClaimExchange {
    fn drop(&mut self) {
        self.close();
    }
}

fn commit_batch(index: &RankDedupIndex, batch: ClaimBatch) {
    for (hash, loc) in batch.claims {
        index.commit_claim(hash, loc);
    }
}

fn exchange_loop(
    rx: Receiver<Msg>,
    index: Arc<RankDedupIndex>,
    shared: Arc<ExchangeShared>,
    killed: Arc<AtomicBool>,
    seed: u64,
    window: usize,
    plan: Option<Arc<FaultPlan>>,
) {
    let mut rng = SplitMix64::new(seed ^ 0x0063_6c61_696d_7321);
    let mut held: Vec<ClaimBatch> = Vec::new();
    let mut deferred: Vec<ClaimBatch> = Vec::new();
    let commit = |b: ClaimBatch| {
        commit_batch(&index, b);
        shared.settle();
    };
    let drop_batch = |b: ClaimBatch| {
        index.metrics().on_orphans(b.claims.len() as u64);
        drop(b);
        shared.settle();
    };
    while let Ok(msg) = rx.recv() {
        match msg {
            Msg::Batch(b) => {
                let fault = plan
                    .as_ref()
                    .and_then(|p| p.next_op("exchange", OpKind::Put));
                match fault {
                    Some(FaultKind::LatencySpike { .. }) => deferred.push(b),
                    Some(FaultKind::RankLoss { rank }) if b.claimant.0 == rank => drop_batch(b),
                    Some(FaultKind::TransientIo)
                    | Some(FaultKind::TornWrite { .. })
                    | Some(FaultKind::BitFlip { .. }) => drop_batch(b),
                    _ => {
                        held.push(b);
                        while held.len() > window {
                            let i = (rng.next() % held.len() as u64) as usize;
                            let b = held.swap_remove(i);
                            commit(b);
                        }
                    }
                }
            }
            Msg::Flush => {
                while !held.is_empty() {
                    let i = (rng.next() % held.len() as u64) as usize;
                    let b = held.swap_remove(i);
                    commit(b);
                }
                for b in deferred.drain(..) {
                    commit(b);
                }
            }
        }
    }
    // Disconnected. A crash discards everything still held (typed orphans,
    // never committed past the kill point); a graceful close drains it.
    if killed.load(Ordering::SeqCst) {
        for b in held.drain(..).chain(deferred.drain(..)) {
            drop_batch(b);
        }
    } else {
        while !held.is_empty() {
            let i = (rng.next() % held.len() as u64) as usize;
            let b = held.swap_remove(i);
            commit(b);
        }
        for b in deferred.drain(..) {
            commit(b);
        }
    }
}

/// Configuration of the producer-side dedup transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankDedupConfig {
    /// Ranks sharing the index (the hash space is sharded across these).
    pub ranks: u32,
    /// Grid chunk length. For grid alignment across ranks this should
    /// equal the diff chunk size the checkpointer uses.
    pub chunk_len: usize,
}

/// The per-cluster dedup engine: the shared [`RankDedupIndex`], the
/// [`ClaimExchange`] stage, and the payload transform that rewrites
/// submitted diffs into [`RankDedupRecord`]s.
pub struct RankDedupEngine {
    cfg: RankDedupConfig,
    index: Arc<RankDedupIndex>,
    exchange: ClaimExchange,
}

impl RankDedupEngine {
    /// An engine with an inline exchange (deterministic stored bytes).
    pub fn new(cfg: RankDedupConfig, metrics: RankDedupMetrics) -> Arc<Self> {
        let index = Arc::new(RankDedupIndex::new(cfg.ranks, metrics));
        let exchange = ClaimExchange::inline(Arc::clone(&index));
        Arc::new(RankDedupEngine {
            cfg,
            index,
            exchange,
        })
    }

    /// An engine whose exchange reorders/faults claims per the seed and
    /// plan (see [`ClaimExchange::with_schedule`]).
    pub fn with_exchange(
        cfg: RankDedupConfig,
        metrics: RankDedupMetrics,
        seed: u64,
        window: usize,
        plan: Option<Arc<FaultPlan>>,
    ) -> Arc<Self> {
        let index = Arc::new(RankDedupIndex::new(cfg.ranks, metrics));
        let exchange = ClaimExchange::with_schedule(Arc::clone(&index), seed, window, plan);
        Arc::new(RankDedupEngine {
            cfg,
            index,
            exchange,
        })
    }

    pub fn config(&self) -> RankDedupConfig {
        self.cfg
    }

    pub fn index(&self) -> &Arc<RankDedupIndex> {
        &self.index
    }

    pub fn exchange(&self) -> &ClaimExchange {
        &self.exchange
    }

    /// Barrier: wait until every published claim batch settled.
    pub fn quiesce(&self) {
        self.exchange.quiesce();
    }

    /// Crash the exchange stage (see [`ClaimExchange::kill`]).
    pub fn kill(&self) {
        self.exchange.kill();
    }

    /// Rewrite one submitted payload against the cluster index: cut it on
    /// the chunk grid (metadata prefix as one variable-length local
    /// entry), replace chunks whose hash has a committed claim with
    /// [`RemoteRef`]s, store first occurrences locally, and publish claims
    /// for them. Always returns a [`RankDedupRecord`] payload, so the
    /// on/off switch is uniform per runtime.
    pub fn encode(&self, id: ObjectId, bytes: Vec<u8>) -> Vec<u8> {
        let chunk_len = self.cfg.chunk_len.max(1);
        let off = Diff::payload_offset(&bytes).unwrap_or(0).min(bytes.len());
        let orig_checksum = frame::checksum64(id.0, id.1, &bytes);
        let mut entries: Vec<RankDedupEntry> = Vec::new();
        let mut local: Vec<u8> = Vec::new();
        // Hashes already claimed by *this* object (self-dedup): entry
        // index of their local copy.
        let mut pending: HashMap<ChunkHash, u32> = HashMap::new();
        let mut claims: Vec<(ChunkHash, ClaimLoc)> = Vec::new();
        let mut refs: HashSet<ObjectId> = HashSet::new();
        let mut remote_refs = 0u64;
        let mut bytes_saved = 0u64;
        if off > 0 {
            entries.push(RankDedupEntry::Local { len: off as u32 });
            local.extend_from_slice(&bytes[..off]);
        }
        // The grid is hashed a tile at a time through the batch kernel
        // (digests of `chunk_hash`), then walked chunk by chunk.
        let mut digests = [Digest128::ZERO; TILE];
        for tile in bytes[off..].chunks(TILE.saturating_mul(chunk_len)) {
            let digests = &mut digests[..tile.len().div_ceil(chunk_len)];
            Murmur3.hash_chunks(tile, chunk_len, CHUNK_HASH_SEED, digests);
            for (chunk, digest) in tile.chunks(chunk_len).zip(digests.iter()) {
                let idx = entries.len() as u32;
                let hash = (digest.h1, digest.h2);
                if let Some(&at) = pending.get(&hash) {
                    entries.push(RankDedupEntry::Remote(RemoteRef {
                        owner_rank: id.0,
                        ckpt_id: id.1,
                        chunk: at,
                    }));
                    remote_refs += 1;
                    bytes_saved += chunk.len() as u64;
                    continue;
                }
                if let Some(loc) = self.index.lookup(hash) {
                    entries.push(RankDedupEntry::Remote(loc.reference()));
                    refs.insert(loc.object());
                    remote_refs += 1;
                    bytes_saved += chunk.len() as u64;
                    continue;
                }
                entries.push(RankDedupEntry::Local {
                    len: chunk.len() as u32,
                });
                local.extend_from_slice(chunk);
                pending.insert(hash, idx);
                claims.push((
                    hash,
                    ClaimLoc {
                        rank: id.0,
                        ckpt_id: id.1,
                        chunk: idx,
                    },
                ));
            }
        }
        // Pin referenced objects *before* this object becomes visible, so
        // a GC floor can never outrun a reference.
        for to in refs {
            self.index.add_ref(id, to);
        }
        self.index
            .metrics()
            .on_remote_refs(remote_refs, bytes_saved);
        // Claims for hashes this rank's shard owns commit locally; the
        // rest go through the exchange (the cross-rank publication).
        let (own, cross): (Vec<_>, Vec<_>) = claims
            .into_iter()
            .partition(|(h, _)| self.index.owner_of(*h) == id.0);
        for (hash, loc) in own {
            self.index.commit_claim(hash, loc);
        }
        self.exchange.publish(ClaimBatch {
            claimant: id,
            claims: cross,
        });
        RankDedupRecord::new(
            id.0,
            id.1,
            chunk_len as u32,
            bytes.len() as u64,
            orig_checksum,
            entries,
            local,
        )
        .encode()
    }
}

/// Remote-reference resolution for the span of **one read call** (a
/// restore, a [`collect_record`](crate::lineage::collect_record), a
/// [`recover_report`](crate::chain::TierChain::recover_report)): the
/// fetch closure plus every referenced record fetched so far, decoded
/// (record checksum verified) and indexed.
///
/// `fetch` returns the *stored payload bytes* of a referenced object
/// (themselves a serialized record), through whatever read path the caller
/// has — the tier chain's `locate` (including group-tier reconstruction for
/// lost ranks) at runtime, a plain map in tests. Each distinct referenced
/// object is fetched once per `Resolver`, in first-reference order — one at
/// a time, so a [`FaultPlan`]'s op ordinals replay. Nothing outlives the
/// call, so there is nothing to invalidate; the memory bound is one indexed
/// copy per distinct referenced object. A failed fetch is not remembered:
/// the next record naming that object asks again.
pub struct Resolver<F> {
    fetch: F,
    targets: HashMap<ObjectId, RankDedupRecord>,
}

impl<F: Fn(ObjectId) -> Option<Bytes>> Resolver<F> {
    pub fn new(fetch: F) -> Self {
        Resolver {
            fetch,
            targets: HashMap::new(),
        }
    }

    /// Reassemble the original payload of the record `bytes` stored as
    /// object `id`. Depth-1: referenced entries must be local in their
    /// record. The reassembly is verified against the recorded original
    /// length and checksum before it is returned.
    pub fn resolve(&mut self, id: ObjectId, bytes: &[u8]) -> Result<Bytes, RankDedupError> {
        let rec = RankDedupRecord::decode(bytes).map_err(RankDedupError::Decode)?;
        if (rec.rank, rec.ckpt_id) != id {
            return Err(RankDedupError::Decode(frame::FrameError::IdMismatch {
                expected: id,
                got: (rec.rank, rec.ckpt_id),
            }));
        }
        // References come in runs into one object: remember the last one
        // looked at, here and below, and skip the map for the rest of a run.
        let mut last = id;
        for r in rec.remote_refs() {
            let target = (r.owner_rank, r.ckpt_id);
            if target == last {
                continue;
            }
            last = target;
            if target == id {
                continue;
            }
            if let Entry::Vacant(slot) = self.targets.entry(target) {
                let raw =
                    (self.fetch)(target).ok_or(RankDedupError::DanglingRef { reference: r })?;
                slot.insert(RankDedupRecord::decode(&raw).map_err(RankDedupError::Decode)?);
            }
        }
        // Every cell is now one table lookup away; sizing the output from
        // the cells themselves means a forged `orig_len` is a typed
        // mismatch, never an allocation.
        let mut cells: Vec<&[u8]> = Vec::with_capacity(rec.entries().len());
        let mut from = (id, &rec);
        for (i, entry) in rec.entries().iter().enumerate() {
            cells.push(match entry {
                RankDedupEntry::Local { len } => rec.local_slice(i as u32).ok_or(
                    RankDedupError::Decode(frame::FrameError::LengthMismatch {
                        expected: *len as u64,
                        got: 0,
                    }),
                )?,
                RankDedupEntry::Remote(r) => {
                    let not_local = RankDedupError::NotLocal { reference: *r };
                    let target = (r.owner_rank, r.ckpt_id);
                    if target != from.0 {
                        let source = if target == id {
                            &rec
                        } else {
                            self.targets.get(&target).ok_or(not_local)?
                        };
                        from = (target, source);
                    }
                    from.1.local_slice(r.chunk).ok_or(not_local)?
                }
            });
        }
        let got: u64 = cells.iter().map(|c| c.len() as u64).sum();
        if got != rec.orig_len {
            return Err(RankDedupError::LengthMismatch {
                expected: rec.orig_len,
                got,
            });
        }
        let mut out: Vec<u8> = Vec::with_capacity(got as usize);
        for cell in cells {
            out.extend_from_slice(cell);
        }
        if frame::checksum64(rec.rank, rec.ckpt_id, &out) != rec.orig_checksum {
            return Err(RankDedupError::ChecksumMismatch);
        }
        Ok(out.into())
    }
}

/// Resolve one rank-dedup record back to its original payload with a
/// one-shot [`Resolver`]: every object the record references is fetched
/// once for this call.
pub fn resolve_record(
    id: ObjectId,
    bytes: &[u8],
    fetch: &dyn Fn(ObjectId) -> Option<Bytes>,
) -> Result<Bytes, RankDedupError> {
    Resolver::new(fetch).resolve(id, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    fn engine(ranks: u32, chunk: usize) -> Arc<RankDedupEngine> {
        RankDedupEngine::new(
            RankDedupConfig {
                ranks,
                chunk_len: chunk,
            },
            RankDedupMetrics::detached(),
        )
    }

    fn payload(tag: u8, len: usize) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(31) ^ tag).collect()
    }

    #[test]
    fn identical_payloads_dedup_across_ranks() {
        let e = engine(4, 64);
        let shared = payload(7, 64 * 8);
        let first = e.encode((0, 0), shared.clone());
        let second = e.encode((1, 0), shared.clone());
        assert!(
            second.len() < first.len() / 2,
            "duplicate rank must store mostly references: {} vs {}",
            second.len(),
            first.len()
        );
        let store: HashMap<ObjectId, Vec<u8>> =
            [((0, 0), first.clone()), ((1, 0), second.clone())].into();
        let fetch = |id: ObjectId| store.get(&id).cloned().map(Bytes::from);
        assert_eq!(resolve_record((0, 0), &first, &fetch).unwrap(), shared);
        assert_eq!(resolve_record((1, 0), &second, &fetch).unwrap(), shared);
    }

    #[test]
    fn self_references_resolve_without_fetch() {
        let e = engine(2, 32);
        // A payload that repeats one 32-byte chunk: later occurrences must
        // self-reference the first, with no cross-object fetch.
        let chunk = payload(3, 32);
        let bytes: Vec<u8> = chunk.iter().copied().cycle().take(32 * 6).collect();
        let enc = e.encode((0, 0), bytes.clone());
        let rec = RankDedupRecord::decode(&enc).unwrap();
        assert!(rec
            .remote_refs()
            .all(|r| (r.owner_rank, r.ckpt_id) == (0, 0)));
        let fetch = |_: ObjectId| -> Option<Bytes> { panic!("self refs must not fetch") };
        assert_eq!(resolve_record((0, 0), &enc, &fetch).unwrap(), bytes);
    }

    #[test]
    fn dangling_reference_is_typed_never_wrong_payload() {
        let e = engine(2, 64);
        let shared = payload(9, 64 * 4);
        let first = e.encode((0, 0), shared.clone());
        let second = e.encode((1, 0), shared.clone());
        let fetch_gone = |_: ObjectId| -> Option<Bytes> { None };
        match resolve_record((1, 0), &second, &fetch_gone) {
            Err(RankDedupError::DanglingRef { .. }) => {}
            other => panic!("expected DanglingRef, got {other:?}"),
        }
        // A wrong referenced payload fails the checksum, typed.
        let decoy = e.encode((0, 1), payload(250, 64 * 4));
        let fetch_wrong = move |_: ObjectId| Some(decoy.clone().into());
        assert!(matches!(
            resolve_record((1, 0), &second, &fetch_wrong),
            Err(RankDedupError::ChecksumMismatch) | Err(RankDedupError::NotLocal { .. })
        ));
        let fetch_ok = move |_: ObjectId| Some(first.clone().into());
        assert_eq!(resolve_record((1, 0), &second, &fetch_ok).unwrap(), shared);
    }

    #[test]
    fn resolver_fetches_each_target_once_resolve_record_once_per_call() {
        use std::cell::RefCell;
        // Two pools first stored on ranks 0 and 1; twelve records on rank
        // 2 each carry both pools plus a tail of their own, so every one
        // of them references the same two objects.
        let e = engine(4, 64);
        let pools = [payload(1, 64 * 6), payload(2, 64 * 6)];
        let mut store: HashMap<ObjectId, Vec<u8>> = HashMap::new();
        store.insert((0, 0), e.encode((0, 0), pools[0].clone()));
        store.insert((1, 0), e.encode((1, 0), pools[1].clone()));
        let originals: Vec<Vec<u8>> = (0..12u8)
            .map(|k| [&pools[0][..], &pools[1][..], &payload(100 + k, 64 * 2)[..]].concat())
            .collect();
        for (k, original) in originals.iter().enumerate() {
            let id = (2, k as u32);
            store.insert(id, e.encode(id, original.clone()));
        }
        let fetched = RefCell::new(Vec::new());
        let fetch = |id: ObjectId| {
            fetched.borrow_mut().push(id);
            store.get(&id).cloned().map(Bytes::from)
        };

        let mut resolver = Resolver::new(&fetch);
        for (k, original) in originals.iter().enumerate() {
            let id = (2, k as u32);
            assert_eq!(&resolver.resolve(id, &store[&id]).unwrap(), original);
        }
        // One fetch per distinct target for the whole chain, in
        // first-reference order.
        assert_eq!(*fetched.borrow(), [(0, 0), (1, 0)]);

        fetched.borrow_mut().clear();
        for (k, original) in originals.iter().enumerate() {
            let id = (2, k as u32);
            assert_eq!(&resolve_record(id, &store[&id], &fetch).unwrap(), original);
        }
        assert_eq!(*fetched.borrow(), [(0, 0), (1, 0)].repeat(12));
    }

    #[test]
    fn failed_fetch_is_typed_and_asked_again() {
        use std::cell::Cell;
        let e = engine(2, 64);
        let shared = payload(9, 64 * 4);
        let first = e.encode((0, 0), shared.clone());
        let second = e.encode((1, 0), shared.clone());
        let present = Cell::new(false);
        let mut resolver = Resolver::new(|_: ObjectId| present.get().then(|| first.clone().into()));
        assert!(matches!(
            resolver.resolve((1, 0), &second),
            Err(RankDedupError::DanglingRef { .. })
        ));
        present.set(true);
        assert_eq!(resolver.resolve((1, 0), &second).unwrap(), shared);
    }

    #[test]
    fn compact_below_pins_referenced_objects_and_retires_claims() {
        let e = engine(2, 64);
        let shared = payload(1, 64 * 4);
        let _first = e.encode((0, 0), shared.clone());
        let _second = e.encode((1, 3), shared.clone());
        let ix = e.index();
        assert!(ix.is_pinned((0, 0)));
        // Rank 0 advances its floor: (0,0) is pinned by (1,3)'s refs.
        let keep = ix.compact_below(0, 2);
        assert!(keep.contains(&(0, 0)));
        // Rank 1 compacts its referer away; a later rank-0 floor advance
        // releases (0,0) and retires the claims into it.
        let before = ix.claim_count();
        ix.compact_below(1, 4);
        assert!(!ix.is_pinned((0, 0)));
        let keep = ix.compact_below(0, 2);
        assert!(keep.is_empty());
        assert!(
            ix.claim_count() < before,
            "claims into evicted objects retire"
        );
        // New occurrences of the same content re-claim instead of dangling.
        let third = e.encode((1, 5), shared.clone());
        let rec = RankDedupRecord::decode(&third).unwrap();
        assert!(rec
            .remote_refs()
            .all(|r| (r.owner_rank, r.ckpt_id) == (1, 5)));
    }

    #[test]
    fn exchange_kill_drops_claims_as_typed_orphans() {
        let reg = Arc::new(Registry::new());
        let e = RankDedupEngine::with_exchange(
            RankDedupConfig {
                ranks: 2,
                chunk_len: 64,
            },
            RankDedupMetrics::bound(Arc::clone(&reg)),
            42,
            4,
            None,
        );
        // Cross-shard claims queue in the window; kill before quiesce.
        let a = payload(5, 64 * 8);
        let _ = e.encode((0, 0), a.clone());
        e.kill();
        let snapshot = reg.snapshot_json();
        assert!(
            snapshot.contains("rankdedup/orphans"),
            "killed exchange must type dropped claims: {snapshot}"
        );
        // Publishing after the kill also orphans, deterministically.
        let _ = e.encode((1, 0), payload(6, 64 * 8));
        e.quiesce();
    }

    #[test]
    fn seeded_reorder_is_deterministic() {
        let data = payload(99, 64 * 4);
        // Claim only from ranks that own none of the chunks' shards:
        // every claim crosses the exchange (no inline commits to race
        // against) and the window is wider than the batch count, so
        // nothing commits until quiesce drains the held set in seeded
        // order — the winner is a pure function of the seed.
        let owners: Vec<u32> = (0..4usize)
            .map(|c| owner_of(chunk_hash(&data[c * 64..][..64]), 8))
            .collect();
        let claimants: Vec<u32> = (0..8).filter(|r| !owners.contains(r)).collect();
        assert!(claimants.len() >= 2, "need contention: {owners:?}");
        let run = |seed: u64| -> Vec<Option<u32>> {
            let e = RankDedupEngine::with_exchange(
                RankDedupConfig {
                    ranks: 8,
                    chunk_len: 64,
                },
                RankDedupMetrics::detached(),
                seed,
                64,
                None,
            );
            for &r in &claimants {
                let _ = e.encode((r, 0), data.clone());
            }
            e.quiesce();
            (0..4usize)
                .map(|c| {
                    let h = chunk_hash(&data[c * 64..][..64]);
                    e.index().lookup(h).map(|l| l.rank)
                })
                .collect()
        };
        let winners = run(7);
        assert_eq!(winners, run(7), "same seed, same winners");
        // One batch drains first and claims every chunk.
        assert!(winners.iter().all(|w| *w == winners[0]));
        assert!(claimants.contains(&winners[0].unwrap()));
    }

    #[test]
    fn latency_spike_defers_claims_until_quiesce() {
        let plan = FaultPlan::builder()
            .on_put("exchange", 0, FaultKind::LatencySpike { micros: 50 })
            .build();
        let e = RankDedupEngine::with_exchange(
            RankDedupConfig {
                ranks: 4,
                chunk_len: 64,
            },
            RankDedupMetrics::detached(),
            1,
            0,
            Some(plan),
        );
        let shared = payload(8, 64 * 4);
        let _ = e.encode((1, 0), shared.clone());
        e.quiesce();
        // Despite the spike, quiesce flushed the deferred batch: the
        // second rank sees the claims.
        let enc = e.encode((2, 0), shared.clone());
        let rec = RankDedupRecord::decode(&enc).unwrap();
        assert!(rec.remote_refs().count() > 0);
    }
}
