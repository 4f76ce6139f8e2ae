//! The tier chain under the GPU and its read side: locate, repair and
//! post-crash recovery.
//!
//! Every stored object is integrity-framed (see [`crate::tier`]). Reads
//! verify frames, retry transient tier errors with bounded exponential
//! backoff, quarantine copies that fail verification and repair them from
//! a surviving valid copy — a redundant tier first, the object's
//! redundancy group last. [`TierChain::recover_report`] enumerates, per
//! rank, which objects verified, which were repaired and which are lost,
//! instead of silently returning a partial chain. The write side — the
//! flusher that drains host → SSD → PFS — lives in `flusher.rs`, and
//! [`AsyncRuntime::start`](crate::AsyncRuntime::start) is where a chain
//! gets its redundancy group, dedup index and telemetry attached.

use crate::compress::CompressMetrics;
use crate::fault::FaultPlan;
use crate::integrity::{
    group_by_rank, IntegrityCounters, ObjectStatus, RankRecovery, RecoveredObject, RecoveryReport,
};
use crate::lineage::run_head;
use crate::rankdedup::{RankDedupIndex, RecordSource, Resolver};
use crate::redundancy::RedundancyStore;
use crate::tier::{Decoded, ObjectId, ObjectState, StoredObject, Tier, TierConfig};
use ckpt_dedup::frame::RecordIndex;
use ckpt_dedup::Bytes;
use ckpt_telemetry::Registry;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

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
    pub(crate) fn attach_redundancy(&mut self, store: Arc<RedundancyStore>) {
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
    pub(crate) fn attach_rank_dedup(&mut self, index: Arc<RankDedupIndex>) {
        self.rank_dedup = Some(index);
    }

    /// The attached cluster dedup index, if any.
    pub fn rank_dedup_index(&self) -> Option<&Arc<RankDedupIndex>> {
        self.rank_dedup.as_ref()
    }

    /// Every id a tier lists (resident or quarantined) or the redundancy
    /// group remembers, unordered and with repeats.
    fn listed_ids(&self) -> impl Iterator<Item = ObjectId> + '_ {
        [&self.pfs, &self.ssd, &self.host]
            .into_iter()
            .flat_map(|tier| tier.resident().into_iter().chain(tier.quarantined()))
            // Objects whose every local copy a rank loss wiped are
            // invisible to the tier scan; the group's member table still
            // names them, so they are classified or rebuilt too — never
            // silently absent.
            .chain(self.redundancy.iter().flat_map(|group| group.member_ids()))
    }

    /// The checkpoint ids of `rank` the chain knows of, ascending and
    /// de-duplicated: what a read of the rank's record has to probe.
    pub fn known_ckpts(&self, rank: u32) -> Vec<u32> {
        let of_rank = self.listed_ids().filter(|id| id.0 == rank);
        group_by_rank(of_rank).remove(&rank).unwrap_or_default()
    }

    /// [`known_ckpts`](Self::known_ckpts) of every rank, ranks ascending.
    pub fn known_ids(&self) -> BTreeMap<u32, Vec<u32>> {
        group_by_rank(self.listed_ids())
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
                red.group_tier().wipe_rank(rank);
                red.metrics().rank_losses.inc();
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
                if let ObjectState::Valid(obj) = Self::inspect(tier, mid) {
                    return Some(obj);
                }
            }
            None
        };
        match red.reconstruct(id, &fetch) {
            Ok(obj) => {
                red.metrics().restored_objects.inc();
                let _ = self.pfs.store_object(id, StoredObject::clone(&obj));
                Some(obj)
            }
            Err(_) => {
                if red.knows_member(id) {
                    red.metrics().restore_failures.inc();
                }
                None
            }
        }
    }

    /// Route integrity counters into `registry`, so `integrity/frames_*`
    /// land in the runtime's report.
    pub(crate) fn bind_telemetry(&mut self, registry: Arc<Registry>) {
        self.integrity = IntegrityCounters::bound(registry);
    }

    /// Route every tier's decode-time accounting into the given
    /// compression metric sink.
    pub(crate) fn bind_compress_metrics(&self, metrics: &Arc<CompressMetrics>) {
        for tier in [&self.host, &self.ssd, &self.pfs] {
            tier.bind_compress_metrics(Arc::clone(metrics));
        }
    }

    /// Integrity counters for this chain (verified / corrupt / repaired).
    pub fn integrity(&self) -> &IntegrityCounters {
        &self.integrity
    }

    /// Read-and-verify (without decoding), retrying transient errors.
    fn inspect(tier: &Tier, id: ObjectId) -> ObjectState {
        tier.inspect_object_with_retry(id, || {})
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
    pub fn locate(&self, id: ObjectId) -> Option<Bytes> {
        self.reader().locate(id)
    }

    /// A read session over this chain for one restore / record collection /
    /// recovery call. See [`ChainReader`].
    pub fn reader(&self) -> ChainReader<'_> {
        ChainReader {
            tiers: self,
            resolver: Resolver::new(TierSource(self)),
        }
    }

    /// [`settle_copy`](Self::settle_copy) of the copy `tier` holds now.
    fn read_copy(&self, tier: &Tier, id: ObjectId, found: &mut Option<Decoded>) -> bool {
        self.settle_copy(tier, id, Self::inspect(tier, id), found)
    }

    /// The read step every tier copy goes through, once its frame has been
    /// inspected: decode (unless `found` already holds a payload — a
    /// redundant valid copy is verified, not decoded too), count it
    /// verified or corrupt, and quarantine a copy that failed either check.
    /// A missing or transiently unreadable copy counts nothing. Returns
    /// whether the copy was condemned, so the caller can repair it.
    fn settle_copy(
        &self,
        tier: &Tier,
        id: ObjectId,
        state: ObjectState,
        found: &mut Option<Decoded>,
    ) -> bool {
        let usable = match state {
            ObjectState::Missing | ObjectState::TransientIo => return false,
            ObjectState::Corrupt(_) => false,
            ObjectState::Valid(_) if found.is_some() => true,
            ObjectState::Valid(object) => {
                *found = tier.decode(object).ok();
                found.is_some()
            }
        };
        if usable {
            self.integrity.on_verified();
        } else {
            self.integrity.on_corrupt();
            tier.quarantine(id);
        }
        !usable
    }

    /// Group-rebuild step of a read: the decoded object when the
    /// redundancy group reconstructed it bit-identically.
    fn recover_from_group(&self, id: ObjectId) -> Option<Decoded> {
        let object = self.reconstruct_from_group(id)?;
        self.pfs.decode(object).ok()
    }

    /// `locate` minus rank-dedup resolution: the stored payload verbatim
    /// (a `CKPR` record when the object was submitted with rank-dedup on).
    /// Resolution reads *referenced* records through the same steps, so a
    /// remote chunk on a lost rank still reconstructs from its parity group
    /// — and resolution never recurses.
    fn locate_stored(&self, id: ObjectId) -> Option<Bytes> {
        self.fetch_stored(id, false).and_then(Fetched::into_payload)
    }

    /// The tier step of a read: inspect every tier's copy (PFS first),
    /// condemn and quarantine the corrupt ones, rebuild from the group when
    /// no local copy is usable, and repair the condemned copies. On a clean
    /// read — a verified copy and none condemned — with `defer` set, the
    /// first verified copy comes back still encoded, for
    /// [`Fetched::into_payload`] to decompress off this thread; anything else is
    /// decoded here, copy by copy, so a copy the codec rejects is condemned
    /// before the next is tried and repairs come from a decoded copy.
    fn fetch_stored(&self, id: ObjectId, defer: bool) -> Option<Fetched<'_>> {
        self.poll_rank_loss();
        let copies = [&self.pfs, &self.ssd, &self.host].map(|tier| (tier, Self::inspect(tier, id)));
        let condemned = copies
            .iter()
            .any(|(_, state)| matches!(state, ObjectState::Corrupt(_)));
        let mut found = None;
        let mut corrupt: Vec<&Tier> = Vec::new();
        if defer && !condemned {
            let mut verified = copies
                .into_iter()
                .filter_map(|(tier, state)| Some((tier, state.into_object()?)));
            if let Some((tier, object)) = verified.next() {
                return Some(Fetched::Stored {
                    tier,
                    object,
                    copies: 1 + verified.count(),
                    integrity: &self.integrity,
                });
            }
        } else {
            for (tier, state) in copies {
                if self.settle_copy(tier, id, state, &mut found) {
                    corrupt.push(tier);
                }
            }
        }
        // Every local copy gone or corrupt: the last resort before the
        // caller sees a hole is a bit-identical rebuild from the object's
        // redundancy group.
        let found = found.or_else(|| self.recover_from_group(id))?;
        for tier in corrupt {
            if tier.store_object(id, found.stored()).is_ok() {
                self.integrity.on_repaired();
            }
        }
        Some(Fetched::Decoded(found.payload))
    }

    /// Tier/group classification of one object, pre-resolution.
    fn recover_object_stored(&self, id: ObjectId) -> Recovered {
        let mut durable = None;
        if self.read_copy(&self.pfs, id, &mut durable) {
            return self.repair_pfs_from_upper(id);
        }
        if let Some(found) = durable {
            return Ok((ObjectStatus::Verified, found.payload));
        }
        if let Some(found) = self.recover_from_group(id) {
            return Ok((ObjectStatus::RestoredFromGroup, found.payload));
        }
        if self.redundancy.as_ref().is_some_and(|r| r.knows_member(id)) {
            // The group knew this object but could not rebuild it (e.g.
            // two losses in one XOR group): typed loss, never a wrong
            // payload.
            Err(ObjectStatus::LostCorrupt)
        } else {
            // Never durable: copies above the PFS are volatile.
            Err(ObjectStatus::LostVolatile)
        }
    }

    /// Repair the durable copy from a redundant valid copy in a higher
    /// tier, moving the encoded bytes verbatim (no transcode). When no
    /// local tier holds a usable copy, the object's redundancy group is
    /// the final source before declaring it lost.
    ///
    /// Not [`read_copy`](Self::read_copy): an upper copy that fails
    /// verification or decode is passed over, neither counted nor
    /// quarantined, where `locate` would condemn and repair it. Kept as
    /// found — unifying the two is a behaviour change (DESIGN §9, finding).
    fn repair_pfs_from_upper(&self, id: ObjectId) -> Recovered {
        for tier in [&self.ssd, &self.host] {
            let ObjectState::Valid(object) = Self::inspect(tier, id) else {
                continue;
            };
            let Ok(found) = tier.decode(object) else {
                continue;
            };
            self.integrity.on_verified();
            if self.pfs.store_object(id, found.stored()).is_ok() {
                self.integrity.on_repaired();
                return Ok((ObjectStatus::Repaired, found.payload));
            }
        }
        if let Some(found) = self.recover_from_group(id) {
            return Ok((ObjectStatus::RestoredFromGroup, found.payload));
        }
        Err(ObjectStatus::LostCorrupt)
    }

    /// Post-crash recovery with full accounting: every object known to any
    /// tier (including quarantined ones) is classified as verified,
    /// repaired, or lost, and each rank's contiguous durable prefix is
    /// extracted. See [`RecoveryReport`].
    ///
    /// Every object is classified — one tier read each — before any record
    /// is resolved, and each durable one is kept for the resolution, so a
    /// record's durable targets resolve against reads already made: a
    /// durable target is never read a second time, and no target is
    /// repaired by a resolver's read before its own verdict. A target
    /// classified as lost is not kept, so a record naming it still has the
    /// reader fetch it — its tiers read, and its group tried, once more —
    /// and resolves to a typed loss if that fails too.
    pub fn recover_report(&self) -> RecoveryReport {
        self.poll_rank_loss();
        // Ranks ascend (a `BTreeMap`): the PFS re-stores recovery performs
        // and the reader's fetch order repeat from run to run.
        let mut reader = self.reader();
        let classified: Vec<(u32, Vec<(u32, Recovered)>)> = self
            .known_ids()
            .into_iter()
            .map(|(rank, ckpts)| {
                let objects = ckpts.into_iter().map(|ckpt_id| {
                    let stored = self.recover_object_stored((rank, ckpt_id));
                    if let Ok((_, bytes)) = &stored {
                        reader.resolver.keep((rank, ckpt_id), bytes);
                    }
                    (ckpt_id, stored)
                });
                (rank, objects.collect())
            })
            .collect();
        let ranks = classified
            .into_iter()
            .map(|(rank, classified)| {
                let mut objects = Vec::with_capacity(classified.len());
                let mut durable: BTreeMap<u32, Bytes> = BTreeMap::new();
                for (ckpt_id, stored) in classified {
                    // The record itself may be durable while a cross-rank
                    // reference dangles (referenced rank lost beyond its
                    // group's reach): typed loss, never a wrong payload.
                    let resolved = stored.and_then(|(status, bytes)| {
                        let payload = reader.resolve((rank, ckpt_id), bytes);
                        Ok((status, payload.ok_or(ObjectStatus::LostCorrupt)?))
                    });
                    let status = match resolved {
                        Ok((status, payload)) => {
                            durable.insert(ckpt_id, payload);
                            status
                        }
                        Err(lost) => lost,
                    };
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

/// Outcome of classifying one object for recovery: `Ok` carries a durable
/// status ([`ObjectStatus::is_durable`]) with the decoded payload, `Err` the
/// typed loss.
type Recovered = Result<(ObjectStatus, Bytes), ObjectStatus>;

/// An object as the chain's tier step hands it over.
enum Fetched<'a> {
    /// The first verified copy of a clean read, still encoded, with the
    /// tier whose decode accounts for it and the verified copies its
    /// decode counts.
    Stored {
        tier: &'a Tier,
        object: StoredObject,
        copies: usize,
        integrity: &'a IntegrityCounters,
    },
    /// The stored payload, decoded during the tier step.
    Decoded(Bytes),
}

impl Fetched<'_> {
    /// The stored payload bytes, decompressed through the tier's timed
    /// `decode` if need be; `None` when the codec rejects a copy whose frame
    /// verified. The copies of a clean read count as verified only once it
    /// decodes, as the serial read counts them.
    fn into_payload(self) -> Option<Bytes> {
        match self {
            Fetched::Stored {
                tier,
                object,
                copies,
                integrity,
            } => {
                let payload = tier.decode(object).ok()?.payload;
                for _ in 0..copies {
                    integrity.on_verified();
                }
                Some(payload)
            }
            Fetched::Decoded(payload) => Some(payload),
        }
    }
}

/// The chain as a [`ChainReader`]'s resolver reads referenced records:
/// [`TierChain::fetch_stored`] is the tier step, the decode the CPU step,
/// and a copy whose decode fails is read again by `locate_stored`.
struct TierSource<'a>(&'a TierChain);

impl<'a> RecordSource for TierSource<'a> {
    type Fetched = Fetched<'a>;

    fn fetch(&self, id: ObjectId) -> Option<Fetched<'a>> {
        self.0.fetch_stored(id, true)
    }

    fn holds_payload(fetched: &Fetched<'a>) -> bool {
        matches!(fetched, Fetched::Decoded(_))
    }

    fn decode(fetched: Fetched<'a>) -> Option<Bytes> {
        fetched.into_payload()
    }

    fn refetch(&self, id: ObjectId) -> Option<Bytes> {
        self.0.locate_stored(id)
    }
}

/// [`TierChain::locate`] for the span of one read call. Rank-dedup records
/// resolve through a single [`Resolver`], so a referenced object shared by
/// several records of the call is located, frame-verified, decompressed and
/// indexed once — and dropped with the reader, so no copy can go stale.
pub struct ChainReader<'a> {
    tiers: &'a TierChain,
    resolver: Resolver<TierSource<'a>>,
}

impl ChainReader<'_> {
    /// See [`TierChain::locate`].
    pub fn locate(&mut self, id: ObjectId) -> Option<Bytes> {
        let bytes = self.tiers.locate_stored(id)?;
        self.resolve(id, bytes)
    }

    /// [`locate`](Self::locate), keeping the stored record for the records
    /// this reader resolves after it: for a call that reads records oldest
    /// first (record collection). A restore reads newest first and keeps
    /// nothing.
    pub(crate) fn locate_kept(&mut self, id: ObjectId) -> Option<Bytes> {
        let bytes = self.tiers.locate_stored(id)?;
        self.resolver.keep(id, &bytes);
        self.resolve(id, bytes)
    }

    /// Resolve a rank-dedup record back to the originally submitted
    /// payload; anything else passes through untouched. A reference that
    /// cannot be resolved — target gone from every tier *and* its group,
    /// or failing the recorded checksum — yields `None` (a typed hole),
    /// never a wrong payload.
    fn resolve(&mut self, id: ObjectId, bytes: Bytes) -> Option<Bytes> {
        if !RecordIndex::is_record(&bytes) {
            return Some(bytes);
        }
        let metrics = self.tiers.rank_dedup.as_ref().map(|ix| ix.metrics());
        #[expect(
            clippy::disallowed_methods,
            reason = "times a rank-dedup resolve into `rankdedup/fetch_ns`"
        )]
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
/// contiguous run with the greatest top id that has a legal head (see
/// [`run_head`]). An incremental run stranded above a hole is skipped in
/// favor of an older replayable run; with none, the chain is empty.
fn usable_chain(durable: &mut BTreeMap<u32, Bytes>) -> (u32, Vec<Bytes>) {
    // Contiguous runs, oldest first.
    let mut runs: Vec<(u32, u32)> = Vec::new();
    for &id in durable.keys() {
        match runs.last_mut() {
            Some((_, hi)) if *hi + 1 == id => *hi = id,
            _ => runs.push((id, id)),
        }
    }
    let newest = runs
        .iter()
        .rev()
        .find_map(|&(lo, hi)| Some((run_head(durable, lo, hi)?, hi)));
    let Some((head, hi)) = newest else {
        return (0, Vec::new());
    };
    let payloads = (head..=hi)
        .map(|k| durable.remove(&k).expect("a run is made of present ids"))
        .collect();
    (head, payloads)
}

impl Default for TierChain {
    fn default() -> Self {
        Self::new()
    }
}

/// Garbage-collect every record of `rank` below a **durable** rebase point,
/// in every layer that keeps one: evict ids `0..rebase_id` from all tiers
/// and advance the rank's floor in the redundancy group, if any. The caller
/// must have confirmed durability of `(rank, rebase_id)` first — with a
/// group, of its group encoding too
/// ([`AsyncRuntime::wait_redundancy_durable`](crate::AsyncRuntime::wait_redundancy_durable)):
/// compaction that races a crash or a rank loss must err on keeping the old
/// chain (see the kill-during-compaction crash schedule). Returns the
/// records evicted from the tiers.
pub fn compact_below(tiers: &TierChain, rank: u32, rebase_id: u32) -> usize {
    // Cluster-dedup GC floor: an object another rank still references
    // remotely must outlive this rank's rebase — evicting it would turn
    // those references dangling. The index releases this rank's own
    // outbound edges, retires claims into what *will* be evicted, and
    // names what must stay.
    let pinned = tiers
        .rank_dedup_index()
        .map(|ix| ix.compact_below(rank, rebase_id))
        .unwrap_or_default();
    let mut evicted = 0;
    for tier in [&tiers.pfs, &tiers.ssd, &tiers.host] {
        for (r, k) in tier.resident() {
            if r == rank && k < rebase_id && !pinned.contains(&(r, k)) && tier.evict((r, k)) {
                evicted += 1;
            }
        }
    }
    if let Some(group) = tiers.redundancy() {
        group.compact_below(rank, rebase_id);
    }
    evicted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan};
    use crate::redundancy::{RedundancyMetrics, RedundancyPolicy};

    /// Pins `repair_pfs_from_upper` as found (DESIGN §9, finding): during
    /// recovery a corrupt SSD copy above a condemned PFS copy is passed
    /// over — not counted corrupt, not quarantined, not repaired — and the
    /// host copy repairs the PFS. `locate` would condemn that SSD copy.
    #[test]
    fn recovery_passes_over_a_corrupt_upper_copy_and_repairs_from_the_next() {
        let plan = FaultPlan::builder()
            .on_put("pfs", 0, FaultKind::BitFlip { bit: 300 })
            .on_put("ssd", 0, FaultKind::BitFlip { bit: 700 })
            .build();
        let tiers = TierChain::with_faults(plan);
        let id = (0, 0);
        for tier in [&tiers.host, &tiers.ssd, &tiers.pfs] {
            tier.put(id, vec![9; 256]).unwrap();
        }
        let report = tiers.recover_report();
        let rank = &report.ranks[0];
        assert_eq!(rank.objects[0].status, ObjectStatus::Repaired);
        assert_eq!(rank.payloads, vec![vec![9u8; 256]]);
        // Only the condemned PFS copy was counted and quarantined.
        assert_eq!(tiers.integrity().corrupt_count(), 1);
        assert_eq!(tiers.integrity().repaired_count(), 1);
        assert_eq!(tiers.pfs.quarantined(), vec![id]);
        assert_eq!(tiers.ssd.quarantined(), Vec::<ObjectId>::new());
        assert!(matches!(
            tiers.ssd.inspect_object(id),
            ObjectState::Corrupt(_)
        ));
        // The repair is the host's frame itself, not a re-minted copy.
        assert!(tiers.pfs.inspect_object(id).into_object().is_some());
        let repaired = tiers.pfs.raw(id).unwrap();
        assert!(repaired.shares_with(&tiers.host.raw(id).unwrap()));
    }

    /// GC is one call: [`compact_below`] advances the redundancy group's
    /// floors with the tiers, so stripes go once every member has moved on.
    #[test]
    fn compact_below_advances_the_group() {
        let mut tiers = TierChain::new();
        let store = Arc::new(RedundancyStore::new(
            RedundancyPolicy::Xor { group_size: 2 },
            RedundancyMetrics::detached(),
        ));
        for rank in 0..2 {
            tiers.pfs.put((rank, 0), vec![rank as u8; 64]).unwrap();
            store.encode_member((rank, 0), &StoredObject::raw(vec![rank as u8; 64]));
        }
        tiers.attach_redundancy(Arc::clone(&store));
        for rank in 0..2 {
            assert_eq!(compact_below(&tiers, rank, 1), 1);
        }
        assert!(!store.knows_member((0, 0)) && !store.knows_member((1, 0)));
    }

    #[test]
    fn known_ckpts_unions_tiers_quarantine_and_group() {
        // The second PFS put is bit-flipped: id (0, 5) ends up only in
        // quarantine once something reads it.
        let plan = FaultPlan::builder()
            .on_put("pfs", 1, FaultKind::BitFlip { bit: 99 })
            .build();
        let mut tiers = TierChain::with_faults(plan);
        let store = RedundancyStore::new(
            RedundancyPolicy::Xor { group_size: 2 },
            RedundancyMetrics::detached(),
        );
        // Rank 3 is known only to the group: no tier lists it.
        store.encode_member((3, 1), &StoredObject::raw(vec![3; 32]));
        store.encode_member((3, 0), &StoredObject::raw(vec![3; 32]));
        tiers.attach_redundancy(Arc::new(store));
        tiers.pfs.put((0, 2), vec![1; 64]).unwrap();
        tiers.pfs.put((0, 5), vec![2; 64]).unwrap(); // corrupted by the plan
        tiers.ssd.put((0, 2), vec![1; 64]).unwrap(); // listed twice
        tiers.host.put((0, 7), vec![4; 64]).unwrap();
        tiers.host.put((1, 0), vec![5; 64]).unwrap();
        assert_eq!(tiers.locate((0, 5)), None);
        assert_eq!(tiers.pfs.quarantined(), vec![(0, 5)]);
        assert!(!tiers.pfs.contains((0, 5)));

        assert_eq!(tiers.known_ckpts(0), vec![2, 5, 7]);
        assert_eq!(tiers.known_ckpts(1), vec![0]);
        assert_eq!(tiers.known_ckpts(3), vec![0, 1]);
        assert_eq!(tiers.known_ckpts(9), Vec::<u32>::new());
        let all: Vec<(u32, Vec<u32>)> = tiers.known_ids().into_iter().collect();
        assert_eq!(
            all,
            [(0, vec![2, 5, 7]), (1, vec![0]), (3, vec![0, 1])],
            "ranks ascend, each rank as known_ckpts reports it"
        );
    }
}
