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
//! [`RemoteRef`]`{owner_rank, ckpt_id, chunk}` entries of a rank-dedup
//! record ([`frame::RecordWriter`] writes it, [`RecordIndex::parse`] reads
//! it) — a chunk first seen by any rank is stored exactly once
//! cluster-wide.
//!
//! # Claim exchange
//!
//! Claims for a shard the claimant owns commit at once; the rest cross the
//! **claim exchange**, which is a seeded schedule, not a thread: state
//! behind one lock inside [`RankDedupEngine`], advanced by the claimant
//! itself. A published batch enters a reorder window, and whenever more
//! than `window` batches are held a seeded pick commits — so "who wins a
//! race" is a pure function of the seed and the order of `encode` calls.
//! The existing [`FaultPlan`] machinery injects latency (defer until the
//! next [`quiesce`](RankDedupEngine::quiesce)), drops, and rank loss
//! against the virtual `"exchange"` tier, and
//! [`kill`](RankDedupEngine::kill) drops whatever is still held. A claim
//! that loses its race — or is dropped by a fault or a kill — is an
//! **orphan**: the claimant keeps its local copy, the duplicate bytes are
//! simply not saved, and `rankdedup/orphans` counts it (one per claim).
//!
//! A claim is visible to every later `encode` from the moment it commits,
//! which is before its object reaches any tier. The runtime closes the gap:
//! a submission the host tier refuses is retracted from the index (its
//! claims, its held batches, its reference edges), so no later record
//! points into an object that was never stored. (An `encode` running on
//! another thread between that rewrite and the refusal can still take
//! such a reference; it reads back as a typed dangling reference, never a
//! wrong payload.)
//!
//! [`RankDedupEngine::new`] is the schedule with window 0 and no plan:
//! every batch commits in the claimant before `encode` returns, which
//! makes stored-byte totals bit-reproducible (the idealized interconnect
//! the benchmarks measure against).
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
//! [`compact_below`](crate::compact_below) keeps
//! those resident past the rank's rebase floor. Claims pointing into
//! evicted (unpinned) objects are retired so no future checkpoint can
//! acquire a dangling reference.
//!
//! # Resolution
//!
//! A [`Resolver`] reassembles original payloads, reading referenced
//! records from a [`RecordSource`]: the tier chain's read path (including
//! group-tier reconstruction — so a remote chunk on a lost rank rebuilds
//! from its parity group before restore proceeds), or a plain closure in
//! tests and one-shot callers. It lives for one read call and fetches each
//! distinct referenced object once in that call, none that the call already
//! read itself ([`Resolver::keep`]); [`resolve_record`] is the one-record
//! form. The reassembly is
//! verified against the original payload's checksum recorded at encode
//! time: a dangling or wrong reference is a typed [`RankDedupError`], never
//! a silently wrong payload. References are depth-1 by construction (claims
//! only ever name *local* entries), so resolution never recurses.

use crate::fault::{FaultKind, FaultPlan, OpKind, SplitMix64};
use crate::tier::ObjectId;
use ckpt_dedup::diff::Diff;
use ckpt_dedup::frame::{self, RankDedupEntry, RecordIndex, RecordWriter, RemoteRef};
use ckpt_dedup::Bytes;
use ckpt_hash::{Digest128, Hasher128, Murmur3};
use ckpt_telemetry::{LazyCounter, Registry};
use gpu_sim::TILE;
use parking_lot::Mutex;
use rayon::prelude::*;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
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
/// | `rankdedup/remote_refs` | counter | chunks rewritten to [`RemoteRef`] entries: into another record's claimed copy, or into an earlier copy in the same record (a repeat inside one payload counts) |
/// | `rankdedup/remote_bytes_saved` | counter | payload bytes of those chunks — not stored in the record, whichever record the reference names |
/// | `rankdedup/fetch_ns` | counter | nanoseconds spent resolving remote refs on reads |
/// | `rankdedup/orphans` | counter | claims (one per claim, never per batch) that lost a race or were dropped/killed in the exchange; plus one per record whose read-side resolution failed |
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

/// Hasher of the maps keyed by [`ChunkHash`]: the key's two words are
/// already uniform Murmur3 output, so they are folded, not hashed again.
/// Key equality stays the full 128 bits — a weak fold costs probe time,
/// never correctness.
#[derive(Default)]
struct DigestFold(u64);

impl Hasher for DigestFold {
    fn write(&mut self, bytes: &[u8]) {
        for word in bytes.chunks(8) {
            let mut le = [0u8; 8];
            le[..word.len()].copy_from_slice(word);
            self.write_u64(u64::from_le_bytes(le));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = self.0.rotate_left(32) ^ word;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type DigestMap<V> = HashMap<ChunkHash, V, BuildHasherDefault<DigestFold>>;

/// The object a reference (or a committed claim) points into.
#[inline]
fn object(r: &RemoteRef) -> ObjectId {
    (r.owner_rank, r.ckpt_id)
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

/// The shared cluster index: committed first-occurrence claims — each the
/// [`RemoteRef`] later occurrences are rewritten to — plus the cross-rank
/// reference edges that pin remotely-referenced objects past GC floors.
pub struct RankDedupIndex {
    ranks: u32,
    claims: Mutex<DigestMap<RemoteRef>>,
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
            claims: Mutex::new(DigestMap::default()),
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
    pub fn lookup(&self, hash: ChunkHash) -> Option<RemoteRef> {
        self.claims.lock().get(&hash).copied()
    }

    /// The committed locations of one tile's hashes, read under one lock.
    fn lookup_tile(&self, digests: &[Digest128], found: &mut [Option<RemoteRef>; TILE]) {
        let claims = self.claims.lock();
        for (slot, d) in found.iter_mut().zip(digests) {
            *slot = claims.get(&(d.h1, d.h2)).copied();
        }
    }

    /// Commit a first-occurrence claim. First writer wins; a losing claim
    /// is an orphan (typed, counted — its bytes stay stored locally by the
    /// claimant, they are simply not advertised).
    pub fn commit_claim(&self, hash: ChunkHash, loc: RemoteRef) -> bool {
        self.commit_claims(&[(hash, loc)]) == 1
    }

    /// Commit claims in order under one lock; returns how many won.
    fn commit_claims(&self, batch: &[(ChunkHash, RemoteRef)]) -> usize {
        let mut won = 0;
        {
            let mut claims = self.claims.lock();
            for &(hash, loc) in batch {
                if let Entry::Vacant(v) = claims.entry(hash) {
                    v.insert(loc);
                    won += 1;
                }
            }
        }
        self.metrics.on_claims(won as u64);
        self.metrics.on_orphans((batch.len() - won) as u64);
        won
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
        self.release_outbound(under);
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
            .retain(|_, loc| !under(&object(loc)) || keep.contains(&object(loc)));
        keep
    }

    /// Release the outbound reference edges of every object `gone` selects
    /// (they are about to be evicted, or were never stored).
    fn release_outbound(&self, gone: impl Fn(&ObjectId) -> bool) {
        let mut outbound = self.outbound.lock();
        let mut inbound = self.inbound.lock();
        let froms: Vec<ObjectId> = outbound.keys().copied().filter(gone).collect();
        for from in froms {
            for to in outbound.remove(&from).into_iter().flatten() {
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

/// One checkpoint object's first-occurrence claims for shards other ranks
/// own. Never empty, and every claim names that one object.
type ClaimBatch = Vec<(ChunkHash, RemoteRef)>;

/// The claim exchange (see the module docs): the batches published but not
/// yet committed, and the seeded order they commit in.
struct Schedule {
    rng: SplitMix64,
    window: usize,
    plan: Option<Arc<FaultPlan>>,
    /// The reorder window.
    held: Vec<ClaimBatch>,
    /// Delayed by a `LatencySpike`; commit in arrival order at the next
    /// quiesce.
    deferred: Vec<ClaimBatch>,
    killed: bool,
}

impl Schedule {
    /// Commit seeded picks from the window until at most `keep` are held.
    fn commit_down_to(&mut self, keep: usize, index: &RankDedupIndex) {
        while self.held.len() > keep {
            let i = (self.rng.next() % self.held.len() as u64) as usize;
            index.commit_claims(&self.held.swap_remove(i));
        }
    }
}

/// The one drop path: the claims die with the exchange — typed, never
/// re-queued; the claimant's local copies remain authoritative.
fn orphan_batch(index: &RankDedupIndex, batch: ClaimBatch) {
    index.metrics().on_orphans(batch.len() as u64);
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

/// The per-cluster dedup engine: the shared [`RankDedupIndex`], the claim
/// exchange's schedule, and the payload transform that rewrites submitted
/// diffs into rank-dedup records.
pub struct RankDedupEngine {
    cfg: RankDedupConfig,
    index: Arc<RankDedupIndex>,
    schedule: Mutex<Schedule>,
}

impl RankDedupEngine {
    /// An engine whose claims commit in the claimant, in `encode` order
    /// (deterministic stored bytes).
    pub fn new(cfg: RankDedupConfig, metrics: RankDedupMetrics) -> Arc<Self> {
        Self::with_exchange(cfg, metrics, 0, 0, None)
    }

    /// An engine whose exchange holds up to `window` batches and commits
    /// seeded picks from them, with optional fault injection against the
    /// `"exchange"` tier, one op per published batch (`LatencySpike` defers
    /// the batch to the next quiesce; `TransientIo`/`TornWrite`/`BitFlip`
    /// drop it; `RankLoss{rank}` drops it when the claimant is that rank).
    pub fn with_exchange(
        cfg: RankDedupConfig,
        metrics: RankDedupMetrics,
        seed: u64,
        window: usize,
        plan: Option<Arc<FaultPlan>>,
    ) -> Arc<Self> {
        Arc::new(RankDedupEngine {
            cfg,
            index: Arc::new(RankDedupIndex::new(cfg.ranks, metrics)),
            schedule: Mutex::new(Schedule {
                rng: SplitMix64::new(seed ^ 0x0063_6c61_696d_7321),
                window,
                plan,
                held: Vec::new(),
                deferred: Vec::new(),
                killed: false,
            }),
        })
    }

    pub fn config(&self) -> RankDedupConfig {
        self.cfg
    }

    pub fn index(&self) -> &Arc<RankDedupIndex> {
        &self.index
    }

    /// Hand one object's cross-shard claims to the exchange: consult the
    /// fault plan, then hold the batch and commit while the window
    /// overflows. After a [`kill`](Self::kill) the claims are orphans.
    fn publish(&self, batch: ClaimBatch) {
        let Some(&(_, first)) = batch.first() else {
            return;
        };
        let mut s = self.schedule.lock();
        if s.killed {
            return orphan_batch(&self.index, batch);
        }
        let fault = s
            .plan
            .as_ref()
            .and_then(|p| p.next_op("exchange", OpKind::Put));
        match fault {
            Some(FaultKind::LatencySpike { .. }) => s.deferred.push(batch),
            Some(FaultKind::RankLoss { rank }) if first.owner_rank == rank => {
                orphan_batch(&self.index, batch)
            }
            Some(
                FaultKind::TransientIo | FaultKind::TornWrite { .. } | FaultKind::BitFlip { .. },
            ) => orphan_batch(&self.index, batch),
            _ => {
                s.held.push(batch);
                let window = s.window;
                s.commit_down_to(window, &self.index);
            }
        }
    }

    /// Commit every batch the exchange still holds, the window's in seeded
    /// order and then the deferred ones. Between checkpoint rounds this
    /// makes cross-rank claim visibility — and therefore stored-byte
    /// totals — independent of the window.
    pub fn quiesce(&self) {
        let mut s = self.schedule.lock();
        s.commit_down_to(0, &self.index);
        for batch in std::mem::take(&mut s.deferred) {
            self.index.commit_claims(&batch);
        }
    }

    /// Crash the exchange: every batch it holds, and every batch published
    /// from now on, is *dropped* and counted as orphans — never committed
    /// after the kill point, never silently re-stored.
    pub fn kill(&self) {
        let mut s = self.schedule.lock();
        s.killed = true;
        let s = &mut *s;
        for batch in s.held.drain(..).chain(s.deferred.drain(..)) {
            orphan_batch(&self.index, batch);
        }
    }

    /// Forget object `id`, which [`encode`](Self::encode) rewrote but no
    /// tier accepted: its committed claims, its batches still held, and the
    /// reference edges it pinned other objects with. (Not orphans: nothing
    /// was stored for the claims to advertise.)
    pub(crate) fn retract(&self, id: ObjectId) {
        let mut s = self.schedule.lock();
        let elsewhere = |batch: &ClaimBatch| object(&batch[0].1) != id;
        s.held.retain(elsewhere);
        s.deferred.retain(elsewhere);
        self.index.release_outbound(|from| *from == id);
        self.index.claims.lock().retain(|_, loc| object(loc) != id);
    }

    /// Rewrite one submitted payload against the cluster index: cut it on
    /// the chunk grid (metadata prefix as one variable-length local
    /// entry), replace chunks whose hash has a committed claim with
    /// [`RemoteRef`]s, store first occurrences locally, and publish claims
    /// for them. Always returns a rank-dedup record, written in place by
    /// one [`RecordWriter`] whose table is sized from the grid, so the
    /// on/off switch is uniform per runtime.
    ///
    /// The index is probed a tile (64 chunks) at a time, so a claim another
    /// thread commits mid-tile is seen from the next tile on; for any one
    /// order of `encode` calls the result is that of a per-chunk walk (the
    /// test module keeps one as the oracle).
    pub fn encode(&self, id: ObjectId, bytes: Vec<u8>) -> Vec<u8> {
        let chunk_len = self.cfg.chunk_len.max(1);
        let off = Diff::payload_offset(&bytes).unwrap_or(0).min(bytes.len());
        let grid = (bytes.len() - off).div_ceil(chunk_len);
        let n_entries = u32::try_from(grid + usize::from(off > 0)).expect("a u32 entry count");
        let mut record = RecordWriter::new(id.0, id.1, chunk_len as u32, n_entries);
        let here = |chunk| RemoteRef {
            owner_rank: id.0,
            ckpt_id: id.1,
            chunk,
        };
        // Hashes already claimed by *this* object (self-dedup): entry
        // index of their local copy.
        let mut pending: DigestMap<u32> = DigestMap::default();
        // Claims for hashes this rank's shard owns commit locally; the
        // rest go through the exchange (the cross-rank publication).
        let (mut own, mut cross): (ClaimBatch, ClaimBatch) = (Vec::new(), Vec::new());
        // References come in runs into one object: the set is touched
        // when the run changes, not per reference.
        let mut refs: HashSet<ObjectId> = HashSet::new();
        let mut last_ref = id;
        let mut remote_refs = 0u64;
        let mut bytes_saved = 0u64;
        if off > 0 {
            record.local(&bytes[..off]);
        }
        // The grid is hashed a tile at a time through the batch kernel
        // (digests of `chunk_hash`) and probed a tile at a time: one
        // `claims` lock per tile, then the walk runs outside it.
        let mut digests = [Digest128::ZERO; TILE];
        let mut claimed = [None; TILE];
        for tile in bytes[off..].chunks(TILE.saturating_mul(chunk_len)) {
            let digests = &mut digests[..tile.len().div_ceil(chunk_len)];
            Murmur3.hash_chunks(tile, chunk_len, CHUNK_HASH_SEED, digests);
            self.index.lookup_tile(digests, &mut claimed);
            for ((chunk, digest), claimed) in tile.chunks(chunk_len).zip(&*digests).zip(&claimed) {
                let hash = (digest.h1, digest.h2);
                let reference = match (pending.get(&hash), claimed) {
                    (Some(&at), _) => here(at),
                    (None, Some(r)) => {
                        if object(r) != last_ref {
                            last_ref = object(r);
                            refs.insert(last_ref);
                        }
                        *r
                    }
                    (None, None) => {
                        let at = record.local(chunk);
                        pending.insert(hash, at);
                        if self.index.owner_of(hash) == id.0 {
                            own.push((hash, here(at)));
                        } else {
                            cross.push((hash, here(at)));
                        }
                        continue;
                    }
                };
                record.remote(reference);
                remote_refs += 1;
                bytes_saved += chunk.len() as u64;
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
        self.index.commit_claims(&own);
        self.publish(cross);
        record.finish(bytes.len() as u64, frame::checksum64(id.0, id.1, &bytes))
    }
}

/// Where a [`Resolver`] reads referenced records from, in two steps.
///
/// [`fetch`](Self::fetch) is the *tier step*: every tier operation of a
/// read — the fault hook, the frame verify of the still-encoded bytes,
/// quarantine, repair, group rebuild — runs there, on the calling thread,
/// one referenced object at a time in first-reference order, so a
/// [`FaultPlan`]'s op ordinals replay. [`decode`](Self::decode) is the *CPU
/// step*: it touches no tier and runs on a pool worker. A plain closure
/// returning the stored payload bytes is a source that does all of its
/// work in the tier step.
pub trait RecordSource {
    /// A referenced object as the tier step hands it over.
    type Fetched: Send;

    /// The tier step: `None` when no tier and no group can produce `id`.
    fn fetch(&self, id: ObjectId) -> Option<Self::Fetched>;

    /// Whether `fetched` holds a payload buffer of its own, not a view of a
    /// stored frame: a [`Resolver`] holds at most one per pool worker
    /// before it indexes them.
    fn holds_payload(fetched: &Self::Fetched) -> bool;

    /// The CPU step: the stored payload bytes, or `None` when the codec
    /// rejects a copy whose frame verified — a forged frame.
    fn decode(fetched: Self::Fetched) -> Option<Bytes>;

    /// Both steps again, on the calling thread, for an object whose
    /// [`decode`](Self::decode) failed: the read that condemns the copy the
    /// codec rejected and turns to the next one.
    fn refetch(&self, id: ObjectId) -> Option<Bytes>;
}

impl<F: Fn(ObjectId) -> Option<Bytes>> RecordSource for F {
    type Fetched = Bytes;

    fn fetch(&self, id: ObjectId) -> Option<Bytes> {
        self(id)
    }

    fn holds_payload(_: &Bytes) -> bool {
        true
    }

    fn decode(fetched: Bytes) -> Option<Bytes> {
        Some(fetched)
    }

    fn refetch(&self, id: ObjectId) -> Option<Bytes> {
        self(id)
    }
}

/// Remote-reference resolution for the span of **one read call** (a
/// restore, a [`collect_record`](crate::lineage::collect_record), a
/// [`recover_report`](crate::chain::TierChain::recover_report)): the
/// record source plus every referenced record read so far, verified and
/// indexed.
///
/// The source yields the *stored payload bytes* of a referenced object
/// (themselves a serialized record) through whatever read path the caller
/// has — the tier chain's (including group-tier reconstruction for lost
/// ranks) at runtime, a plain map in tests. Each distinct referenced
/// object is fetched once per `Resolver`. A record's uncached targets are
/// read a window at a time, each window in two steps: the tier step
/// ([`RecordSource::fetch`]) runs on the calling thread, one target at a
/// time in first-reference order, so a [`FaultPlan`]'s op ordinals replay;
/// the CPU step — decode, then [`RecordIndex::parse`] and the copy of the
/// local region — runs for the whole window at once on the pool, and the
/// results are joined in first-reference order, so the first target that
/// fails is the one whose error is returned and no later window is
/// fetched. A window closes once its tier step holds one payload per pool
/// worker ([`RecordSource::holds_payload`]): a closure source's every
/// fetch, so one worker is the serial fetch, index, fetch order; a clean
/// chain read holds a view of its tier's frame, so a chain resolve is one
/// window. A target that fails is not remembered: the next record naming
/// that object asks again. Nothing outlives the call, so there is nothing
/// to invalidate.
///
/// Memory: a referenced record is kept as its [`RecordIndex`] — about two
/// bits per entry and one offset per local entry — and a copy of its local
/// bytes; a fetched or decoded buffer is released as soon as it is
/// indexed. With `P` pool workers at most `P` are live at once, held by
/// the tier step or decoded by a worker — `2P` only for a window that
/// mixes views with reads the chain had to decode in its tier step (a
/// condemned copy, a group rebuild). The record being resolved is read in
/// place from the caller's bytes. The output is reserved once, at the
/// length the cells sum to.
pub struct Resolver<S> {
    source: S,
    targets: HashMap<ObjectId, Target>,
}

/// A referenced record as a [`Resolver`] keeps it.
struct Target {
    index: RecordIndex,
    local: Box<[u8]>,
}

impl Target {
    /// Index the stored payload of a referenced record and keep its local
    /// bytes.
    fn index(raw: &[u8]) -> Result<Target, RankDedupError> {
        let index = RecordIndex::parse(raw).map_err(RankDedupError::Decode)?;
        let local = index.local_region(raw).into();
        Ok(Target { index, local })
    }
}

impl<S: RecordSource> Resolver<S> {
    pub fn new(source: S) -> Self {
        Resolver {
            source,
            targets: HashMap::new(),
        }
    }

    /// Keep `raw`, the verified stored payload of the record `id` that the
    /// caller has just read itself, as a referenced record: a later record
    /// naming `id` resolves against it instead of fetching it again. Bytes
    /// that do not parse as a record are not kept, so that read fetches.
    pub fn keep(&mut self, id: ObjectId, raw: &[u8]) {
        if let Entry::Vacant(slot) = self.targets.entry(id) {
            if let Ok(target) = Target::index(raw) {
                slot.insert(target);
            }
        }
    }

    /// Reassemble the original payload of the record `bytes` stored as
    /// object `id`. Depth-1: referenced entries must be local in their
    /// record. The reassembly is verified against the recorded original
    /// length and checksum before it is returned.
    pub fn resolve(&mut self, id: ObjectId, bytes: &[u8]) -> Result<Bytes, RankDedupError> {
        let rec = RecordIndex::parse(bytes).map_err(RankDedupError::Decode)?;
        if (rec.rank, rec.ckpt_id) != id {
            return Err(RankDedupError::Decode(frame::FrameError::IdMismatch {
                expected: id,
                got: (rec.rank, rec.ckpt_id),
            }));
        }
        // The distinct targets not indexed yet, in first-reference order.
        // References come in runs into one object: remember the last one
        // looked at, here and in `each_cell`, and skip the map for the rest
        // of a run.
        let mut pending = Vec::new();
        let mut asked = HashSet::new();
        let mut last = id;
        for entry in rec.entries(bytes) {
            let RankDedupEntry::Remote(r) = entry else {
                continue;
            };
            let target = object(&r);
            if target == last {
                continue;
            }
            last = target;
            if target != id && !self.targets.contains_key(&target) && asked.insert(target) {
                pending.push(r);
            }
        }
        // Windows of targets, each fetched, then indexed before the next is
        // fetched. A window closes once it holds one fetched payload per
        // pool worker, so no more are held before they are indexed — on one
        // worker, the serial fetch, index, fetch order. A clean chain read
        // hands over a view of its tier's frame, which holds none, so a
        // chain resolve fetches its targets as one window.
        let workers = rayon::current_num_threads().max(1);
        let mut pending = pending.into_iter();
        while pending.len() > 0 {
            // The tier step, target by target; the first one no tier can
            // produce ends it.
            let mut fetched = Vec::new();
            let mut held = 0;
            let mut dangling = None;
            for r in pending.by_ref() {
                match self.source.fetch(object(&r)) {
                    Some(stored) => {
                        held += usize::from(S::holds_payload(&stored));
                        fetched.push((r, stored));
                        if held == workers {
                            break;
                        }
                    }
                    None => {
                        dangling = Some(RankDedupError::DanglingRef { reference: r });
                        break;
                    }
                }
            }
            // The CPU step, the window at once on the pool; a decoded buffer
            // lives only as long as its worker indexes it.
            let indexed: Vec<_> = fetched
                .into_par_iter()
                .with_max_len(1)
                .map(|(r, stored)| (r, S::decode(stored).map(|raw| Target::index(&raw))))
                .collect();
            // Joined in first-reference order: the first target that fails
            // is the error, and the ones indexed after it are kept.
            let mut failed = None;
            for (r, target) in indexed {
                let target = match target {
                    Some(target) => target,
                    // The codec rejected a copy whose frame verified: read it
                    // again the serial way, which condemns that copy — unless
                    // an earlier target already failed this read.
                    None if failed.is_none() => self
                        .source
                        .refetch(object(&r))
                        .ok_or(RankDedupError::DanglingRef { reference: r })
                        .and_then(|raw| Target::index(&raw)),
                    None => continue,
                };
                match target {
                    Ok(target) => {
                        self.targets.insert(object(&r), target);
                    }
                    Err(e) => {
                        failed.get_or_insert(e);
                    }
                }
            }
            if let Some(e) = failed.or(dangling) {
                return Err(e);
            }
        }
        // Two passes over the cells: the first sums them, so a forged
        // `orig_len` is a typed mismatch, never an allocation; the second
        // fills an output reserved once.
        let mut got = 0u64;
        self.each_cell(id, &rec, bytes, |cell| got += cell.len() as u64)?;
        if got != rec.orig_len {
            return Err(RankDedupError::LengthMismatch {
                expected: rec.orig_len,
                got,
            });
        }
        let mut out: Vec<u8> = Vec::with_capacity(got as usize);
        self.each_cell(id, &rec, bytes, |cell| out.extend_from_slice(cell))?;
        if !rec.is_original(bytes, &out) {
            return Err(RankDedupError::ChecksumMismatch);
        }
        Ok(out.into())
    }

    /// Hand `visit` the bytes of every cell of `rec` (the record `bytes`
    /// stored as `id`) in table order. Every referenced record other than
    /// `id` itself must already be fetched.
    fn each_cell<'a>(
        &'a self,
        id: ObjectId,
        rec: &'a RecordIndex,
        bytes: &'a [u8],
        mut visit: impl FnMut(&'a [u8]),
    ) -> Result<(), RankDedupError> {
        let own = rec.local_region(bytes);
        // The record's own local entries come in table order.
        let mut at = 0usize;
        let mut from = (id, rec, own);
        for entry in rec.entries(bytes) {
            let cell = match entry {
                RankDedupEntry::Local { len } => {
                    let cell = own
                        .get(at..at + len as usize)
                        .ok_or(RankDedupError::Decode(frame::FrameError::LengthMismatch {
                            expected: len as u64,
                            got: 0,
                        }))?;
                    at += cell.len();
                    cell
                }
                RankDedupEntry::Remote(r) => {
                    let not_local = RankDedupError::NotLocal { reference: r };
                    let target = object(&r);
                    if target != from.0 {
                        from = if target == id {
                            (id, rec, own)
                        } else {
                            let t = self.targets.get(&target).ok_or(not_local)?;
                            (target, &t.index, &t.local[..])
                        };
                    }
                    from.1.local_slice(from.2, r.chunk).ok_or(not_local)?
                }
            };
            visit(cell);
        }
        Ok(())
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
    use ckpt_dedup::diff::MethodKind;
    use proptest::prelude::*;
    use std::sync::Barrier;

    /// The per-chunk walk `encode` was until the tile walk replaced it, kept
    /// as its oracle: a std-hashed `pending`, one `lookup` (one lock) per
    /// chunk, one `refs.insert` per reference, one `commit_claim` per own
    /// claim.
    fn encode_per_chunk(e: &RankDedupEngine, id: ObjectId, bytes: Vec<u8>) -> Vec<u8> {
        let chunk_len = e.cfg.chunk_len.max(1);
        let off = Diff::payload_offset(&bytes).unwrap_or(0).min(bytes.len());
        let orig_checksum = frame::checksum64(id.0, id.1, &bytes);
        let n_entries = bytes[off..].chunks(chunk_len).count() + usize::from(off > 0);
        let mut record = RecordWriter::new(id.0, id.1, chunk_len as u32, n_entries as u32);
        let mut pending: HashMap<ChunkHash, u32> = HashMap::new();
        let mut claims: Vec<(ChunkHash, RemoteRef)> = Vec::new();
        let mut refs: HashSet<ObjectId> = HashSet::new();
        let mut remote_refs = 0u64;
        let mut bytes_saved = 0u64;
        if off > 0 {
            record.local(&bytes[..off]);
        }
        for chunk in bytes[off..].chunks(chunk_len) {
            let hash = chunk_hash(chunk);
            if let Some(&at) = pending.get(&hash) {
                record.remote(RemoteRef {
                    owner_rank: id.0,
                    ckpt_id: id.1,
                    chunk: at,
                });
                remote_refs += 1;
                bytes_saved += chunk.len() as u64;
                continue;
            }
            if let Some(r) = e.index.lookup(hash) {
                record.remote(r);
                refs.insert(object(&r));
                remote_refs += 1;
                bytes_saved += chunk.len() as u64;
                continue;
            }
            let idx = record.local(chunk);
            pending.insert(hash, idx);
            claims.push((
                hash,
                RemoteRef {
                    owner_rank: id.0,
                    ckpt_id: id.1,
                    chunk: idx,
                },
            ));
        }
        for to in refs {
            e.index.add_ref(id, to);
        }
        e.index.metrics().on_remote_refs(remote_refs, bytes_saved);
        let (own, cross): (Vec<_>, Vec<_>) = claims
            .into_iter()
            .partition(|(h, _)| e.index.owner_of(*h) == id.0);
        for (hash, loc) in own {
            e.index.commit_claim(hash, loc);
        }
        e.publish(cross);
        record.finish(bytes.len() as u64, orig_checksum)
    }

    /// A record decoded whole, as the owned form's `decode` did it:
    /// [`RecordIndex::parse`], then the table and the local bytes copied
    /// out, each local entry's start summed once in table order.
    struct Decoded {
        rank: u32,
        ckpt_id: u32,
        chunk_len: u32,
        orig_len: u64,
        orig_checksum: u64,
        entries: Vec<RankDedupEntry>,
        local: Vec<u8>,
        starts: Vec<usize>,
    }

    impl Decoded {
        fn decode(bytes: &[u8]) -> Result<Decoded, frame::FrameError> {
            let index = RecordIndex::parse(bytes)?;
            let entries: Vec<RankDedupEntry> = index.entries(bytes).collect();
            let mut at = 0usize;
            let starts = entries
                .iter()
                .map(|e| {
                    let start = at;
                    if let RankDedupEntry::Local { len } = e {
                        at += *len as usize;
                    }
                    start
                })
                .collect();
            Ok(Decoded {
                rank: index.rank,
                ckpt_id: index.ckpt_id,
                chunk_len: index.chunk_len,
                orig_len: index.orig_len,
                orig_checksum: index.orig_checksum,
                entries,
                local: index.local_region(bytes).to_vec(),
                starts,
            })
        }

        /// The inline bytes of local entry `index`; `None` when the index
        /// is out of range or names a remote entry.
        fn local_slice(&self, index: u32) -> Option<&[u8]> {
            let i = index as usize;
            match self.entries.get(i)? {
                RankDedupEntry::Local { len } => {
                    let at = self.starts[i];
                    self.local.get(at..at.checked_add(*len as usize)?)
                }
                RankDedupEntry::Remote(_) => None,
            }
        }

        fn remote_refs(&self) -> impl Iterator<Item = RemoteRef> + '_ {
            self.entries.iter().filter_map(|e| match e {
                RankDedupEntry::Remote(r) => Some(*r),
                RankDedupEntry::Local { .. } => None,
            })
        }

        /// Written back through the writer, the local entries taking their
        /// bytes from `local` in table order (`starts` is not read).
        fn write(&self) -> Vec<u8> {
            let n = self.entries.len() as u32;
            let mut w = RecordWriter::new(self.rank, self.ckpt_id, self.chunk_len, n);
            let mut at = 0;
            for e in &self.entries {
                match *e {
                    RankDedupEntry::Local { len } => {
                        w.local(&self.local[at..at + len as usize]);
                        at += len as usize;
                    }
                    RankDedupEntry::Remote(r) => w.remote(r),
                }
            }
            w.finish(self.orig_len, self.orig_checksum)
        }
    }

    /// A payload built from what the index sees in practice: runs of the
    /// all-zero chunk, repeats out of a small pool shared by every object
    /// of the run, chunks nobody else has, a last chunk cut short, and for
    /// every other payload a diff header in front of the grid. From under
    /// one tile to a few.
    fn generated_payload(rng: &mut SplitMix64, pool: &[Vec<u8>], chunk_len: usize) -> Vec<u8> {
        let cells = 1 + (rng.next() % 40) as usize;
        let mut body = Vec::new();
        for _ in 0..cells {
            match rng.next() % 4 {
                0 => body.resize(body.len() + chunk_len * (1 + rng.next() as usize % 24), 0),
                1 | 2 => body.extend_from_slice(&pool[rng.next() as usize % pool.len()]),
                _ => body.extend((0..chunk_len).map(|_| rng.next() as u8)),
            }
        }
        body.truncate(body.len() - rng.next() as usize % chunk_len);
        if rng.next() & 1 == 0 {
            return body;
        }
        Diff {
            kind: MethodKind::Full,
            ckpt_id: 0,
            data_len: body.len() as u64,
            chunk_size: chunk_len as u32,
            first_regions: Vec::new(),
            shift_regions: Vec::new(),
            bitmap: Bytes::default(),
            payload: body.into(),
        }
        .encode()
    }

    /// Everything an `encode` leaves behind besides the record it returns.
    type Aftermath = (
        DigestMap<RemoteRef>,
        HashMap<ObjectId, HashSet<ObjectId>>,
        HashMap<ObjectId, HashSet<ObjectId>>,
        [u64; 4],
    );

    fn aftermath(e: &RankDedupEngine, reg: &Registry) -> Aftermath {
        (
            e.index.claims.lock().clone(),
            e.index.inbound.lock().clone(),
            e.index.outbound.lock().clone(),
            ["claims", "remote_refs", "remote_bytes_saved", "orphans"]
                .map(|name| reg.counter(&format!("rankdedup/{name}")).get()),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The tile walk against the per-chunk oracle, two engines fed the
        /// same objects in the same order: same record bytes, and after
        /// every object the same claims, edges and counters.
        #[test]
        fn tile_walk_writes_what_the_per_chunk_walk_wrote(
            seed in any::<u64>(),
            chunk_len in prop_oneof![Just(32usize), Just(40), Just(100), Just(128)],
            window in prop_oneof![Just(0usize), Just(2), Just(5)],
            faulted in any::<bool>(),
            objects in 4usize..14,
        ) {
            let engine = || {
                let plan = faulted.then(|| {
                    FaultPlan::builder()
                        .on_put("exchange", seed % 3, FaultKind::RankLoss { rank: (seed % 4) as u32 })
                        .on_put("exchange", 3 + seed % 3, FaultKind::TransientIo)
                        .on_put("exchange", 6 + seed % 4, FaultKind::LatencySpike { micros: 50 })
                        .build()
                });
                let reg = Arc::new(Registry::new());
                let cfg = RankDedupConfig { ranks: 4, chunk_len };
                let metrics = RankDedupMetrics::bound(Arc::clone(&reg));
                (RankDedupEngine::with_exchange(cfg, metrics, seed, window, plan), reg)
            };
            let ((tile, tile_reg), (oracle, oracle_reg)) = (engine(), engine());
            let mut rng = SplitMix64::new(seed);
            let pool: Vec<Vec<u8>> = (0..6)
                .map(|_| (0..chunk_len).map(|_| rng.next() as u8).collect())
                .collect();
            for k in 0..objects {
                let id = ((k % 4) as u32, (k / 4) as u32);
                let payload = generated_payload(&mut rng, &pool, chunk_len);
                prop_assert_eq!(
                    tile.encode(id, payload.clone()),
                    encode_per_chunk(&oracle, id, payload),
                    "record {:?}", id
                );
                prop_assert_eq!(aftermath(&tile, &tile_reg), aftermath(&oracle, &oracle_reg));
            }
            tile.quiesce();
            oracle.quiesce();
            prop_assert_eq!(aftermath(&tile, &tile_reg), aftermath(&oracle, &oracle_reg));
        }
    }

    #[test]
    fn a_weak_fold_costs_probes_never_answers() {
        // Every key folds to the same value: the map degrades to a list
        // and still tells the keys apart.
        let mut map: DigestMap<u32> = DigestMap::default();
        let keys: Vec<ChunkHash> = (0..200u64).map(|i| (i.rotate_left(32), i)).collect();
        for (n, key) in keys.iter().enumerate() {
            assert_eq!(map.insert(*key, n as u32), None);
        }
        for (n, key) in keys.iter().enumerate() {
            assert_eq!(map.get(key), Some(&(n as u32)));
        }
        assert_eq!(map.get(&(0, 1)), None);
    }

    #[test]
    fn concurrent_encoders_leave_one_consistent_index() {
        const CHUNK: usize = 32;
        for seed in 0..300u64 {
            let threads = if seed & 1 == 0 { 2 } else { 4 };
            let reg = Arc::new(Registry::new());
            let e = RankDedupEngine::with_exchange(
                RankDedupConfig {
                    ranks: threads as u32,
                    chunk_len: CHUNK,
                },
                RankDedupMetrics::bound(Arc::clone(&reg)),
                seed,
                (seed % 3) as usize,
                None,
            );
            // The pool is what the threads' payloads overlap in; how much
            // of a payload comes out of it varies with the seed.
            let mut rng = SplitMix64::new(seed);
            let pool: Vec<Vec<u8>> = (0..1 + seed % 12)
                .map(|_| (0..CHUNK).map(|_| rng.next() as u8).collect())
                .collect();
            let originals: Vec<(ObjectId, Vec<u8>)> = (0..threads as u32 * 3)
                .map(|k| {
                    (
                        (k % threads as u32, k / threads as u32),
                        generated_payload(&mut rng, &pool, CHUNK),
                    )
                })
                .collect();
            // Every thread encodes its rank's objects, all released at once.
            let start = Barrier::new(threads);
            let records: HashMap<ObjectId, Vec<u8>> = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..threads as u32)
                    .map(|rank| {
                        let (e, start, originals) = (&e, &start, &originals);
                        scope.spawn(move || {
                            start.wait();
                            originals
                                .iter()
                                .filter(|(id, _)| id.0 == rank)
                                .map(|(id, bytes)| (*id, e.encode(*id, bytes.clone())))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .flat_map(|w| w.join().expect("encoder thread"))
                    .collect()
            });
            e.quiesce();

            let decoded: HashMap<ObjectId, Decoded> = records
                .iter()
                .map(|(id, bytes)| (*id, Decoded::decode(bytes).unwrap()))
                .collect();
            // A hash is claimed at most once, by a local entry of a record
            // that was produced and that holds exactly those bytes.
            let claims = e.index.claims.lock().clone();
            for (hash, loc) in &claims {
                let bytes = decoded[&object(loc)]
                    .local_slice(loc.chunk)
                    .unwrap_or_else(|| panic!("seed {seed}: {loc:?} is not a local entry"));
                assert_eq!(chunk_hash(bytes), *hash, "seed {seed}: {loc:?}");
            }
            // Every first occurrence a record stores was published, and
            // every published claim either won or is counted lost.
            let published: usize = originals
                .iter()
                .map(|(id, bytes)| {
                    let prefix = usize::from(Diff::payload_offset(bytes).is_some());
                    let locals = decoded[id].entries.iter();
                    locals
                        .filter(|e| matches!(e, RankDedupEntry::Local { .. }))
                        .count()
                        - prefix
                })
                .sum();
            let counter = |name: &str| reg.counter(&format!("rankdedup/{name}")).get() as usize;
            assert_eq!(counter("claims"), claims.len(), "seed {seed}");
            assert_eq!(
                counter("claims") + counter("orphans"),
                published,
                "seed {seed}"
            );
            let fetch = |id: ObjectId| records.get(&id).cloned().map(Bytes::from);
            for (id, bytes) in &originals {
                assert_eq!(
                    &resolve_record(*id, &records[id], &fetch).unwrap(),
                    bytes,
                    "seed {seed}: record {id:?}"
                );
            }
        }
    }

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
        let rec = Decoded::decode(&enc).unwrap();
        assert!(rec.remote_refs().all(|r| object(&r) == (0, 0)));
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

    /// The resolver as it was before the index replaced the owned decode,
    /// kept as the oracle of `indexed_resolve_matches_the_decoding_oracle`:
    /// the record and every referenced record decoded whole (entries,
    /// offsets and a local copy each), one slice gathered per cell, then
    /// the gathered cells copied out.
    struct DecodingResolver<F> {
        fetch: F,
        targets: HashMap<ObjectId, Decoded>,
    }

    impl<F: Fn(ObjectId) -> Option<Bytes>> DecodingResolver<F> {
        fn new(fetch: F) -> Self {
            DecodingResolver {
                fetch,
                targets: HashMap::new(),
            }
        }

        fn resolve(&mut self, id: ObjectId, bytes: &[u8]) -> Result<Bytes, RankDedupError> {
            let rec = Decoded::decode(bytes).map_err(RankDedupError::Decode)?;
            if (rec.rank, rec.ckpt_id) != id {
                return Err(RankDedupError::Decode(frame::FrameError::IdMismatch {
                    expected: id,
                    got: (rec.rank, rec.ckpt_id),
                }));
            }
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
                    slot.insert(Decoded::decode(&raw).map_err(RankDedupError::Decode)?);
                }
            }
            let mut cells: Vec<&[u8]> = Vec::with_capacity(rec.entries.len());
            let mut from = (id, &rec);
            for (i, entry) in rec.entries.iter().enumerate() {
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
            let version = u16::from_le_bytes([bytes[4], bytes[5]]);
            let want = frame::checksum64_region(version, rec.rank, rec.ckpt_id, 0, &out);
            if want != rec.orig_checksum {
                return Err(RankDedupError::ChecksumMismatch);
            }
            Ok(out.into())
        }
    }

    /// `default` cases, or `PROPTEST_CASES` when it is set (CI runs the
    /// differential block optimized at a larger count).
    fn cases(default: u32) -> ProptestConfig {
        let set = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok());
        ProptestConfig::with_cases(set.unwrap_or(default))
    }

    /// Re-seal a (forged) rank-dedup record with a valid checksum under
    /// its version, so the checks behind the checksum are what a forgery
    /// meets. The seed mixing is `frame`'s private `rankdedup_seed`;
    /// `resealed_records_are_unchanged` holds the two together.
    fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
        let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let (rank, ckpt) = (word(8), word(12));
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        let (seed_rank, seed_ckpt) = (rank ^ 0x524b_4452, ckpt.rotate_left(16));
        let sum = frame::checksum64_region(version, seed_rank, seed_ckpt, 0, &bytes[24..]);
        bytes[16..24].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    #[test]
    fn resealed_records_are_unchanged() {
        let e = engine(2, 32);
        let record = e.encode((1, 4), payload(5, 32 * 9 + 7));
        assert_eq!(reseal(record.clone()), record);
    }

    /// A payload of exactly `cells` grid cells (no diff header), most of
    /// them out of `pool`, so its record has `cells` entries.
    fn payload_of_cells(rng: &mut SplitMix64, pool: &[Vec<u8>], cells: usize) -> Vec<u8> {
        let chunk_len = pool[0].len();
        let mut body = Vec::with_capacity(cells * chunk_len);
        for _ in 0..cells {
            match rng.next() % 3 {
                0 => body.extend((0..chunk_len).map(|_| rng.next() as u8)),
                _ => body.extend_from_slice(&pool[rng.next() as usize % pool.len()]),
            }
        }
        body
    }

    /// One forgery of the record `bytes` stored as `id`, picked by `kind`:
    /// a record the encoder never writes, with a valid checksum.
    fn forge(
        rng: &mut SplitMix64,
        kind: u64,
        id: ObjectId,
        bytes: &[u8],
        store: &HashMap<ObjectId, Vec<u8>>,
    ) -> Vec<u8> {
        let rec = Decoded::decode(bytes).unwrap();
        let mut entries = rec.entries.clone();
        let n = entries.len();
        let pick = |rng: &mut SplitMix64, want: fn(&RankDedupEntry) -> bool| {
            let hits: Vec<usize> = (0..n).filter(|&i| want(&entries[i])).collect();
            (!hits.is_empty()).then(|| hits[rng.next() as usize % hits.len()])
        };
        let is_local = |e: &RankDedupEntry| matches!(e, RankDedupEntry::Local { .. });
        let is_remote = |e: &RankDedupEntry| matches!(e, RankDedupEntry::Remote(_));
        // Where slot `i` starts, sized through the writer: a record of no
        // entries is all header, and each remote entry adds one slot.
        let sized = |n: u32| {
            let mut w = RecordWriter::new(0, 0, 1, n);
            let r = RemoteRef {
                owner_rank: 0,
                ckpt_id: 0,
                chunk: 0,
            };
            (0..n).for_each(|_| w.remote(r));
            w.finish(0, 0).len()
        };
        let (header, entry) = (sized(0), sized(1) - sized(0));
        let slot = |i: usize| header + i * entry;
        let mut orig_len = rec.orig_len;
        match kind {
            // A tag that is neither local nor remote.
            0 if n > 0 => {
                let mut forged = bytes.to_vec();
                forged[slot(rng.next() as usize % n)] = 2 + (rng.next() % 254) as u8;
                return reseal(forged);
            }
            // Local lengths summing one off the bytes carried.
            1 => {
                if let Some(i) = pick(rng, is_local) {
                    let mut forged = bytes.to_vec();
                    let RankDedupEntry::Local { len } = entries[i] else {
                        unreachable!()
                    };
                    let len = if len == 0 || rng.next() & 1 == 0 {
                        len + 1
                    } else {
                        len - 1
                    };
                    forged[slot(i) + 1..slot(i) + 5].copy_from_slice(&len.to_le_bytes());
                    return reseal(forged);
                }
            }
            // Zero-length local entries spliced in, self references moved
            // along: still the same payload.
            2 => {
                for _ in 0..1 + rng.next() % 4 {
                    let at = rng.next() as usize % (entries.len() + 1);
                    for e in &mut entries {
                        if let RankDedupEntry::Remote(r) = e {
                            if (r.owner_rank, r.ckpt_id) == id && r.chunk as usize >= at {
                                r.chunk += 1;
                            }
                        }
                    }
                    entries.insert(at, RankDedupEntry::Local { len: 0 });
                }
            }
            // A chunk index at or past the end of the referenced table.
            3 => {
                if let Some(i) = pick(rng, is_remote) {
                    let RankDedupEntry::Remote(r) = &mut entries[i] else {
                        unreachable!()
                    };
                    let target = (r.owner_rank, r.ckpt_id);
                    let len = match store.get(&target) {
                        Some(t) if target != id => Decoded::decode(t).unwrap().entries.len(),
                        _ => n,
                    };
                    r.chunk = match rng.next() % 3 {
                        0 => u32::MAX,
                        _ => (len as u64 + rng.next() % 70) as u32,
                    };
                }
            }
            // A reference to an entry that is itself a reference.
            4 => {
                if let Some(i) = pick(rng, is_remote) {
                    let RankDedupEntry::Remote(r) = entries[i] else {
                        unreachable!()
                    };
                    let target = (r.owner_rank, r.ckpt_id);
                    let table = match store.get(&target) {
                        Some(t) if target != id => Decoded::decode(t).unwrap().entries,
                        _ => entries.clone(),
                    };
                    let remote: Vec<usize> =
                        (0..table.len()).filter(|&j| is_remote(&table[j])).collect();
                    if let Some(&j) = remote.get(rng.next() as usize % remote.len().max(1)) {
                        entries[i] = RankDedupEntry::Remote(RemoteRef {
                            chunk: j as u32,
                            ..r
                        });
                    }
                }
            }
            // A reference into the record itself, anywhere in its table
            // (backwards, forwards, onto itself).
            5 => {
                if let Some(i) = pick(rng, is_remote) {
                    entries[i] = RankDedupEntry::Remote(RemoteRef {
                        owner_rank: id.0,
                        ckpt_id: id.1,
                        chunk: (rng.next() % (n as u64 + 1)) as u32,
                    });
                }
            }
            // A recorded original length the cells do not sum to.
            _ => {
                orig_len = match rng.next() % 3 {
                    0 => u64::MAX,
                    1 => orig_len + 1 + rng.next() % 100,
                    _ => orig_len.saturating_sub(1 + rng.next() % 100),
                };
            }
        }
        Decoded {
            entries,
            orig_len,
            ..rec
        }
        .write()
    }

    proptest! {
        #![proptest_config(cases(64))]

        /// The indexed resolver against the decoding oracle: one resolver
        /// each over every record of a generated cluster run (sharing
        /// their targets across the calls), then fresh pairs over forged
        /// records and over genuine ones whose target is forged or gone.
        /// Same bytes or the same typed error every time, and the same
        /// fetches in the same order — but after a referenced record that
        /// fails to parse, which the indexed resolver has fetched past to
        /// the end of its window.
        #[test]
        fn indexed_resolve_matches_the_decoding_oracle(
            seed in any::<u64>(),
            chunk_len in prop_oneof![Just(16usize), Just(40), Just(64)],
            objects in 6usize..14,
        ) {
            use std::cell::RefCell;
            let e = engine(4, chunk_len);
            let mut rng = SplitMix64::new(seed);
            let pool: Vec<Vec<u8>> = (0..5)
                .map(|_| (0..chunk_len).map(|_| rng.next() as u8).collect())
                .collect();
            let mut ids = Vec::new();
            let mut store: HashMap<ObjectId, Vec<u8>> = HashMap::new();
            for k in 0..objects {
                let id = ((k % 4) as u32, (k / 4) as u32);
                let payload = match rng.next() % 3 {
                    0 => {
                        let cells = [0, 63, 64, 65][rng.next() as usize % 4];
                        payload_of_cells(&mut rng, &pool, cells)
                    }
                    _ => generated_payload(&mut rng, &pool, chunk_len),
                };
                store.insert(id, e.encode(id, payload));
                ids.push(id);
            }
            let run = |store: &HashMap<ObjectId, Vec<u8>>, reads: &[(ObjectId, Vec<u8>)]| {
                let fetched = [RefCell::new(Vec::new()), RefCell::new(Vec::new())];
                let fetch = |side: usize| {
                    let fetched = &fetched[side];
                    move |id: ObjectId| {
                        fetched.borrow_mut().push(id);
                        store.get(&id).cloned().map(Bytes::from)
                    }
                };
                let mut indexed = Resolver::new(fetch(0));
                let mut oracle = DecodingResolver::new(fetch(1));
                let results: Vec<_> = reads
                    .iter()
                    .map(|(id, bytes)| {
                        let got = indexed.resolve(*id, bytes).map(|b| b.to_vec());
                        let want = oracle.resolve(*id, bytes).map(|b| b.to_vec());
                        (got, want)
                    })
                    .collect();
                let [a, b] = fetched.map(RefCell::into_inner);
                (results, a, b)
            };
            let genuine: Vec<_> = ids.iter().map(|id| (*id, store[id].clone())).collect();
            let (results, a, b) = run(&store, &genuine);
            for ((got, want), (id, _)) in results.iter().zip(&genuine) {
                prop_assert!(want.is_ok(), "genuine record {:?}: {:?}", id, want);
                prop_assert_eq!(got, want, "record {:?}", id);
            }
            prop_assert_eq!(a, b);
            for round in 0..24 {
                let id = ids[rng.next() as usize % ids.len()];
                let kind = rng.next() % 8;
                let mut forged_store = store.clone();
                let read = if kind == 7 {
                    // A target forged, or gone from the store.
                    let rec = Decoded::decode(&store[&id]).unwrap();
                    if let Some(r) = rec.remote_refs().find(|r| object(r) != id) {
                        let target = object(&r);
                        match rng.next() % 3 {
                            0 => { forged_store.remove(&target); }
                            k => {
                                let forged = forge(&mut rng, k - 1, target, &store[&target], &store);
                                forged_store.insert(target, forged);
                            }
                        }
                    }
                    (id, store[&id].clone())
                } else {
                    (id, forge(&mut rng, kind, id, &store[&id], &store))
                };
                let (results, a, b) = run(&forged_store, std::slice::from_ref(&read));
                let (got, want) = &results[0];
                prop_assert_eq!(got, want, "round {} kind {} record {:?}", round, kind, id);
                // The one place the fetches differ: the oracle stops at a
                // target whose record fails to parse, while the indexed
                // resolver's tier step has already fetched the distinct
                // targets after it in its window — a closure source's holds
                // one target per pool worker — up to the first one gone
                // from the store.
                let unparsable = b.last().is_some_and(|t| {
                    forged_store
                        .get(t)
                        .is_some_and(|r| RecordIndex::parse(r).is_err())
                });
                if unparsable {
                    let mut ahead: Vec<ObjectId> = Vec::new();
                    for t in Decoded::decode(&read.1).unwrap().remote_refs().map(|r| object(&r)) {
                        if t != id && !ahead.contains(&t) {
                            ahead.push(t);
                        }
                    }
                    let at = b.len();
                    let workers = rayon::current_num_threads().max(1);
                    let window_end = ahead.len().min((at - 1) / workers * workers + workers);
                    let end = ahead[at..window_end]
                        .iter()
                        .position(|t| !forged_store.contains_key(t))
                        .map_or(window_end, |gone| at + gone + 1);
                    prop_assert_eq!(&b[..], &ahead[..at], "round {} kind {}", round, kind);
                    prop_assert_eq!(&a[..], &ahead[..end], "round {} kind {}", round, kind);
                } else {
                    prop_assert_eq!(a, b, "round {} kind {}", round, kind);
                }
            }
        }
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
        let rec = Decoded::decode(&third).unwrap();
        assert!(rec.remote_refs().all(|r| object(&r) == (1, 5)));
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
    fn orphans_count_claims_whichever_way_a_batch_dies() {
        // Four distinct chunks claimed by a rank that owns none of their
        // shards: one four-claim batch crosses the exchange.
        let data = payload(17, 64 * 4);
        let owners: Vec<u32> = data
            .chunks(64)
            .map(|c| owner_of(chunk_hash(c), 8))
            .collect();
        let outsider = (0..8)
            .find(|r| !owners.contains(r))
            .expect("4 chunks, 8 ranks");
        let plan = FaultPlan::builder()
            .on_put("exchange", 0, FaultKind::TransientIo)
            .build();
        for (held_at_kill, killed_first, plan) in [
            (true, false, None),
            (false, true, None),
            (false, false, Some(plan)),
        ] {
            let reg = Arc::new(Registry::new());
            let e = RankDedupEngine::with_exchange(
                RankDedupConfig {
                    ranks: 8,
                    chunk_len: 64,
                },
                RankDedupMetrics::bound(Arc::clone(&reg)),
                3,
                4,
                plan,
            );
            if killed_first {
                e.kill();
            }
            let _ = e.encode((outsider, 0), data.clone());
            if held_at_kill {
                e.kill();
            }
            e.quiesce();
            assert_eq!(reg.counter("rankdedup/orphans").get(), 4);
            assert_eq!(e.index().claim_count(), 0);
        }
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
                    e.index().lookup(h).map(|r| r.owner_rank)
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
        let rec = Decoded::decode(&enc).unwrap();
        assert!(rec.remote_refs().count() > 0);
    }
}
