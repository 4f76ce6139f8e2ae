//! Cross-rank redundancy groups: XOR parity stripes.
//!
//! Multi-level checkpointing systems (FTI, SCR, VeloC) put a redundancy
//! level *between* node-local storage and the PFS: ranks form small groups
//! and each checkpoint object is XOR-parity-encoded across the group, so
//! losing one whole node costs nothing that the surviving group members
//! cannot rebuild. This module is that level for the simulated tier chain.
//!
//! # Encoding
//!
//! The flusher hands each framed, post-compression [`StoredObject`] to
//! [`RedundancyStore::encode_member`] right after the compression stage —
//! on the flusher thread, overlapped with the next checkpoint via the
//! depth-1 pipeline, so the producer's critical path is untouched.
//!
//! `xor:<k>` is SCR-style striping. Member `r` (group-local index
//! `l = r % k`) splits its encoded payload into `k-1` chunks of
//! `ceil(len / (k-1))` bytes; chunk `j` is assigned to stripe
//! `s = j + (j >= l)` — every stripe *except* the member's own index — and
//! the parity for stripe `s` is hosted on group-local rank `s` under the
//! key `(hosting rank, ckpt)`. A single rank loss therefore leaves every
//! parity stripe a lost member needs alive on a surviving host; two losses
//! in one group are unrecoverable by construction and surface as a typed
//! error, never a wrong payload. A group of two is the partner mirror:
//! member `r`'s one chunk is its whole payload, hosted on rank `r ^ 1`.
//!
//! Parity stripes are [`ckpt_dedup::frame::ParityRecord`]s carrying every
//! contributor's [`ParityMember`] (codec, lengths, chunk length, and a
//! checksum of its stored bytes), serialized as ordinary codec-0 payloads
//! inside a dedicated group [`Tier`] — so framing, fault injection,
//! capacity accounting and rank loss ([`Tier::wipe_rank`]) come for free
//! and legacy frames are untouched.
//!
//! # Reconstruction
//!
//! [`RedundancyStore::reconstruct`] rebuilds a member's stored object
//! bit-identically: it fetches every surviving contributor's object (via a
//! caller-supplied closure over the local tiers), XORs their chunks back
//! out of each needed stripe, and reassembles the payload. The result is
//! verified against the member checksum recorded at encode time — on any
//! mismatch or missing piece the caller gets a typed [`ReconstructError`].
//!
//! # GC gating
//!
//! The group's half of [`compact_below`](crate::compact_below), which
//! advances a rank's floor here as it evicts the rank's tier records below
//! a rebase point: a parity stripe at checkpoint `c` only drops once
//! *every* member of the group has advanced its floor past `c` — a stripe
//! is useful exactly as long as any member might still need it.

use crate::tier::{ObjectId, ObjectState, StoredObject, Tier, TierConfig};
use ckpt_dedup::frame::{self, ParityMember, ParityRecord};
use ckpt_telemetry::{LazyCounter, Registry};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// How checkpoint objects are protected across ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RedundancyPolicy {
    /// No cross-rank protection (the pre-redundancy runtime, byte for
    /// byte).
    #[default]
    Off,
    /// XOR parity striping across groups of `group_size` consecutive
    /// ranks (`group_size >= 2`; a group of two mirrors each object onto
    /// rank `r ^ 1`).
    Xor { group_size: u32 },
}

impl RedundancyPolicy {
    /// Parse a CLI/bench spelling: `off` or `xor:<k>`.
    pub fn parse(s: &str) -> Option<Self> {
        if matches!(s, "off" | "none") {
            return Some(RedundancyPolicy::Off);
        }
        let k = s.strip_prefix("xor:")?.parse::<u32>().ok()?;
        (k >= 2).then_some(RedundancyPolicy::Xor { group_size: k })
    }

    pub fn label(&self) -> String {
        match self {
            RedundancyPolicy::Off => "off".into(),
            RedundancyPolicy::Xor { group_size } => format!("xor:{group_size}"),
        }
    }

    /// Ranks per redundancy group (1 when off).
    pub fn group_size(&self) -> u32 {
        match self {
            RedundancyPolicy::Off => 1,
            RedundancyPolicy::Xor { group_size } => *group_size,
        }
    }
}

/// Why a group reconstruction failed. Every variant maps to `LostCorrupt`
/// at the recovery layer: the group *knew* the object but cannot prove a
/// bit-identical rebuild.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconstructError {
    /// The store never encoded this member (nothing to rebuild from).
    UnknownMember,
    /// A needed parity stripe is gone (e.g. its host rank was also lost —
    /// two losses in one group).
    MissingGroupCopy,
    /// A needed parity stripe is present but fails verification.
    CorruptGroupCopy,
    /// A surviving contributor's object could not be fetched from any
    /// local tier (simultaneous loss elsewhere in the group).
    MissingSurvivor { rank: u32 },
    /// The reassembled payload failed the member checksum recorded at
    /// encode time.
    ChecksumMismatch,
}

impl std::fmt::Display for ReconstructError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReconstructError::UnknownMember => write!(f, "member was never group-encoded"),
            ReconstructError::MissingGroupCopy => write!(f, "group copy/parity stripe missing"),
            ReconstructError::CorruptGroupCopy => write!(f, "group copy/parity stripe corrupt"),
            ReconstructError::MissingSurvivor { rank } => {
                write!(f, "surviving member {rank} unavailable for parity rebuild")
            }
            ReconstructError::ChecksumMismatch => {
                write!(f, "reconstructed payload failed member checksum")
            }
        }
    }
}

impl std::error::Error for ReconstructError {}

/// `redundancy/*` telemetry. Every metric registers lazily on first event,
/// so runs with redundancy off export exactly the pre-existing schema.
///
/// | metric | kind | meaning |
/// |---|---|---|
/// | `redundancy/parity_updates` | counter | parity stripe merges performed |
/// | `redundancy/bytes_stored` | counter | bytes written into the group store |
/// | `redundancy/restored_objects` | counter | objects rebuilt from the group |
/// | `redundancy/restore_failures` | counter | known members that failed to rebuild |
/// | `redundancy/rank_losses` | counter | `RankLoss` faults applied to the chain |
pub struct RedundancyMetrics {
    parity_updates: LazyCounter,
    bytes_stored: LazyCounter,
    pub(crate) restored_objects: LazyCounter,
    pub(crate) restore_failures: LazyCounter,
    pub(crate) rank_losses: LazyCounter,
}

impl RedundancyMetrics {
    pub fn bound(registry: Arc<Registry>) -> Self {
        Self::over(Some(&registry))
    }

    /// A sink that counts nothing (stores built without telemetry).
    pub fn detached() -> Self {
        Self::over(None)
    }

    fn over(registry: Option<&Arc<Registry>>) -> Self {
        let lazy = |name| LazyCounter::new(registry, name);
        RedundancyMetrics {
            parity_updates: lazy("redundancy/parity_updates"),
            bytes_stored: lazy("redundancy/bytes_stored"),
            restored_objects: lazy("redundancy/restored_objects"),
            restore_failures: lazy("redundancy/restore_failures"),
            rank_losses: lazy("redundancy/rank_losses"),
        }
    }
}

/// The cross-rank redundancy level: a dedicated group [`Tier`] holding
/// parity stripes keyed `(hosting rank, ckpt)` — so a lost rank's stripes
/// are [`Tier::wipe_rank`] of it — plus the member metadata needed to
/// rebuild lost members.
pub struct RedundancyStore {
    policy: RedundancyPolicy,
    /// Parity stripes, framed like any other tier object.
    group: Tier,
    /// Every member the group has encoded, as its stripes record it, so
    /// "does the group know this object" and verification survive the
    /// loss of the member's own copies.
    members: Mutex<HashMap<ObjectId, ParityMember>>,
    /// The frame version whose checksum function the member checksums
    /// use: [`frame::FRAME_VERSION`] for a new group, 1 for one loaded
    /// from a manifest without a `version` line.
    version: u16,
    /// Ids already encoded (idempotence across degraded re-flushes).
    encoded: Mutex<HashSet<ObjectId>>,
    /// Per-rank GC floors (see [`compact_below`](Self::compact_below)).
    floors: Mutex<HashMap<u32, u32>>,
    metrics: RedundancyMetrics,
}

impl RedundancyStore {
    pub fn new(policy: RedundancyPolicy, metrics: RedundancyMetrics) -> Self {
        assert!(
            policy != RedundancyPolicy::Off,
            "an Off-policy chain carries no redundancy store"
        );
        RedundancyStore {
            policy,
            group: Tier::new(TierConfig::group()),
            members: Mutex::new(HashMap::new()),
            version: frame::FRAME_VERSION,
            encoded: Mutex::new(HashSet::new()),
            floors: Mutex::new(HashMap::new()),
            metrics,
        }
    }

    pub fn policy(&self) -> RedundancyPolicy {
        self.policy
    }

    /// The underlying group tier (modeled time, accounting, fault binding,
    /// rank loss).
    pub fn group_tier(&self) -> &Tier {
        &self.group
    }

    pub(crate) fn metrics(&self) -> &RedundancyMetrics {
        &self.metrics
    }

    /// Whether the given member's redundancy encoding is durable in the
    /// group store (the GC gate for `compact_below`).
    pub fn is_encoded(&self, id: ObjectId) -> bool {
        self.encoded.lock().contains(&id)
    }

    /// Whether the group has metadata for this member (even if its stripes
    /// were since lost — the distinction between `LostCorrupt` and
    /// `LostVolatile` for wiped ranks).
    pub fn knows_member(&self, id: ObjectId) -> bool {
        self.members.lock().contains_key(&id)
    }

    /// Every member id the group has encoded (sorted).
    pub fn member_ids(&self) -> Vec<ObjectId> {
        let mut ids: Vec<ObjectId> = self.members.lock().keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    fn member_checksum(&self, id: ObjectId, object: &StoredObject) -> u64 {
        let (version, codec) = (self.version, object.codec());
        frame::checksum64_region(version, id.0, id.1, codec, object.payload())
    }

    /// The ranks of `rank`'s group: `k` of them, from a multiple of `k`.
    fn group_ranks(&self, rank: u32) -> std::ops::Range<u32> {
        let k = self.policy.group_size();
        rank / k * k..(rank / k + 1) * k
    }

    /// The hosts of the stripes `rank`'s `k - 1` chunks go into, in chunk
    /// order: every rank of its group but itself.
    fn stripe_hosts(&self, rank: u32) -> impl Iterator<Item = u32> {
        self.group_ranks(rank).filter(move |&h| h != rank)
    }

    /// Protect one member's encoded object across its group. Idempotent:
    /// re-encoding an already-protected id (degraded re-flushes) is a
    /// no-op. Runs on the flusher thread, off the producer's critical path.
    pub fn encode_member(&self, id: ObjectId, object: &StoredObject) {
        if !self.encoded.lock().insert(id) {
            return;
        }
        let k = self.policy.group_size();
        let (rank, ckpt) = id;
        let payload = object.payload();
        let chunk_len = payload.len().div_ceil(k as usize - 1);
        let member = ParityMember {
            rank,
            codec: object.codec(),
            uncompressed_len: object.uncompressed_len(),
            stored_len: payload.len() as u64,
            chunk_len: chunk_len as u64,
            checksum: self.member_checksum(id, object),
        };
        let mut all_ok = true;
        for (j, host) in self.stripe_hosts(rank).enumerate() {
            let key = (host, ckpt);
            let mut rec = match self.group.inspect_object(key).into_object() {
                Some(obj) => ParityRecord::decode(obj.payload()).unwrap_or_default(),
                None => ParityRecord::default(),
            };
            rec.group = rank / k;
            rec.stripe = host % k;
            rec.ckpt_id = ckpt;
            if rec.parity.len() < chunk_len {
                rec.parity.resize(chunk_len, 0);
            }
            let lo = (j * chunk_len).min(payload.len());
            let hi = ((j + 1) * chunk_len).min(payload.len());
            for (p, b) in rec.parity.iter_mut().zip(&payload[lo..hi]) {
                *p ^= b;
            }
            rec.members.retain(|m| m.rank != rank);
            rec.members.push(member);
            rec.members.sort_by_key(|m| m.rank);
            let bytes = rec.encode();
            let stored = bytes.len() as u64;
            // Group stores follow the chain's retry policy.
            let stripe = StoredObject::raw(bytes);
            if self
                .group
                .store_object_with_retry(key, stripe, || {})
                .is_ok()
            {
                self.metrics.parity_updates.inc();
                self.metrics.bytes_stored.add(stored);
            } else {
                all_ok = false;
            }
        }
        if all_ok {
            self.members.lock().insert(id, member);
        } else {
            self.encoded.lock().remove(&id);
        }
    }

    /// Rebuild one member's stored object bit-identically from the group.
    /// `fetch` resolves a surviving contributor's encoded object from the
    /// local tiers (a group of two needs none). The result is verified
    /// against the checksum recorded at encode time — a wrong payload is
    /// never returned.
    pub fn reconstruct(
        &self,
        id: ObjectId,
        fetch: &dyn Fn(ObjectId) -> Option<StoredObject>,
    ) -> Result<StoredObject, ReconstructError> {
        let meta = self
            .members
            .lock()
            .get(&id)
            .copied()
            .ok_or(ReconstructError::UnknownMember)?;
        let k = self.policy.group_size();
        let (rank, ckpt) = id;
        let chunk_len = meta.chunk_len as usize;
        let mut payload = Vec::with_capacity(meta.stored_len as usize);
        let mut fetched: HashMap<u32, StoredObject> = HashMap::new();
        for host in self.stripe_hosts(rank) {
            let rec = match self.group.inspect_object((host, ckpt)) {
                ObjectState::Valid(obj) => ParityRecord::decode(obj.payload())
                    .map_err(|_| ReconstructError::CorruptGroupCopy)?,
                ObjectState::Missing => return Err(ReconstructError::MissingGroupCopy),
                _ => return Err(ReconstructError::CorruptGroupCopy),
            };
            let s = host % k;
            let mut chunk = rec.parity;
            for m in &rec.members {
                if m.rank == rank {
                    continue;
                }
                if let std::collections::hash_map::Entry::Vacant(e) = fetched.entry(m.rank) {
                    let obj = fetch((m.rank, ckpt))
                        .ok_or(ReconstructError::MissingSurvivor { rank: m.rank })?;
                    // A survivor whose bytes drifted from what was encoded
                    // would silently poison the XOR — verify up front.
                    if obj.payload().len() as u64 != m.stored_len
                        || self.member_checksum((m.rank, ckpt), &obj) != m.checksum
                    {
                        return Err(ReconstructError::MissingSurvivor { rank: m.rank });
                    }
                    e.insert(obj);
                }
                let obj = &fetched[&m.rank];
                let lm = m.rank % k;
                let jm = (if s > lm { s - 1 } else { s }) as usize;
                let ml = m.chunk_len as usize;
                let lo = (jm * ml).min(obj.payload().len());
                let hi = ((jm + 1) * ml).min(obj.payload().len());
                if chunk.len() < hi - lo {
                    return Err(ReconstructError::CorruptGroupCopy);
                }
                for (c, b) in chunk.iter_mut().zip(&obj.payload()[lo..hi]) {
                    *c ^= b;
                }
            }
            chunk.resize(chunk_len, 0);
            payload.extend_from_slice(&chunk);
        }
        payload.truncate(meta.stored_len as usize);
        if payload.len() as u64 != meta.stored_len {
            return Err(ReconstructError::ChecksumMismatch);
        }
        let object = match meta.codec {
            0 => StoredObject::raw(payload),
            codec => StoredObject::encoded(codec, meta.uncompressed_len, payload),
        };
        let ok = object.codec() == meta.codec
            && object.payload().len() as u64 == meta.stored_len
            && self.member_checksum(id, &object) == meta.checksum;
        if ok {
            Ok(object)
        } else {
            Err(ReconstructError::ChecksumMismatch)
        }
    }

    /// Serialize the policy and member metadata as a small line-oriented
    /// manifest (`policy <label>`, `version <v>` — absent for version 1 —
    /// then one `member` line per id) so a CLI record directory can persist
    /// group state next to the exported group objects.
    pub fn export_manifest(&self) -> String {
        let mut out = format!("policy {}\n", self.policy.label());
        if self.version > 1 {
            out.push_str(&format!("version {}\n", self.version));
        }
        let ids = self.member_ids();
        let members = self.members.lock();
        for id in ids {
            let m = members[&id];
            out.push_str(&format!(
                "member {} {} {} {} {} {} {:016x}\n",
                id.0, id.1, m.codec, m.uncompressed_len, m.stored_len, m.chunk_len, m.checksum
            ));
        }
        out
    }

    /// Rebuild a store (detached metrics) from
    /// [`export_manifest`](Self::export_manifest) output.
    /// The caller re-inserts the exported group objects into
    /// [`group_tier`](Self::group_tier) afterwards. Returns `None` on any
    /// malformed line — a truncated manifest must not half-load: the text
    /// must end in a newline and every member line must carry exactly its
    /// seven fields, the last a full 16-hex-digit checksum, so a cut
    /// anywhere but a line boundary is refused. A manifest without a
    /// `version` line is version 1 (its member checksums are the serial
    /// chain's); a version this build does not write is refused.
    pub fn from_manifest(text: &str) -> Option<RedundancyStore> {
        let mut lines = text.strip_suffix('\n')?.lines().peekable();
        let policy = RedundancyPolicy::parse(lines.next()?.strip_prefix("policy ")?)?;
        if policy == RedundancyPolicy::Off {
            return None;
        }
        let mut store = RedundancyStore::new(policy, RedundancyMetrics::detached());
        store.version = match lines.next_if(|l| l.starts_with("version ")) {
            Some(line) => line["version ".len()..]
                .parse()
                .ok()
                .filter(|v| (2..=frame::FRAME_VERSION).contains(v))?,
            None => 1,
        };
        for line in lines {
            let mut f = line.strip_prefix("member ")?.split(' ');
            let rank: u32 = f.next()?.parse().ok()?;
            let ckpt: u32 = f.next()?.parse().ok()?;
            let member = ParityMember {
                rank,
                codec: f.next()?.parse().ok()?,
                uncompressed_len: f.next()?.parse().ok()?,
                stored_len: f.next()?.parse().ok()?,
                chunk_len: f.next()?.parse().ok()?,
                checksum: f
                    .next()
                    .filter(|h| h.len() == 16)
                    .and_then(|h| u64::from_str_radix(h, 16).ok())?,
            };
            if f.next().is_some() {
                return None;
            }
            store.members.lock().insert((rank, ckpt), member);
            store.encoded.lock().insert((rank, ckpt));
        }
        Some(store)
    }

    /// Advance `rank`'s GC floor to `below` and drop the group's parity
    /// stripes below the *minimum* floor across all its members. Returns
    /// evicted objects.
    pub(crate) fn compact_below(&self, rank: u32, below: u32) -> usize {
        let group = self.group_ranks(rank);
        let min_floor = {
            let mut floors = self.floors.lock();
            let f = floors.entry(rank).or_insert(0);
            *f = (*f).max(below);
            group
                .clone()
                .map(|r| floors.get(&r).copied().unwrap_or(0))
                .min()
                .unwrap_or(0)
        };
        let below_floor = |&(r, c): &ObjectId| group.contains(&r) && c < min_floor;
        let mut evicted = 0;
        for key in self.group.resident().into_iter().filter(&below_floor) {
            if self.group.evict(key) {
                evicted += 1;
            }
        }
        self.members.lock().retain(|id, _| !below_floor(id));
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_dedup::frame::{PARITY_HEADER_LEN, PARITY_MEMBER_LEN};

    // A group object's host is its key, not a field: a new field of the
    // store stops this module compiling.
    const _: fn(&RedundancyStore) = |store| {
        let RedundancyStore {
            policy: _,
            group: _,
            members: _,
            version: _,
            encoded: _,
            floors: _,
            metrics: _,
        } = store;
    };

    fn store(policy: RedundancyPolicy) -> RedundancyStore {
        RedundancyStore::new(policy, RedundancyMetrics::detached())
    }

    fn payload(rank: u32, ckpt: u32, len: usize) -> StoredObject {
        StoredObject::raw(
            (0..len)
                .map(|i| {
                    (i as u32)
                        .wrapping_mul(2654435761)
                        .wrapping_add(rank * 7919 + ckpt * 104729) as u8
                })
                .collect(),
        )
    }

    fn no_fetch(_: ObjectId) -> Option<StoredObject> {
        None
    }

    #[test]
    fn policy_parsing_round_trips() {
        assert_eq!(RedundancyPolicy::parse("off"), Some(RedundancyPolicy::Off));
        assert_eq!(RedundancyPolicy::parse("partner"), None);
        assert_eq!(
            RedundancyPolicy::parse("xor:4"),
            Some(RedundancyPolicy::Xor { group_size: 4 })
        );
        assert_eq!(RedundancyPolicy::parse("xor:1"), None);
        assert_eq!(RedundancyPolicy::parse("xor:"), None);
        assert_eq!(RedundancyPolicy::parse("raid6"), None);
        assert_eq!(RedundancyPolicy::Xor { group_size: 8 }.label(), "xor:8");
        assert_eq!(RedundancyPolicy::Xor { group_size: 2 }.group_size(), 2);
        assert_eq!(RedundancyPolicy::Off.group_size(), 1);
    }

    #[test]
    fn a_group_of_two_is_the_partner_mirror() {
        let s = store(RedundancyPolicy::Xor { group_size: 2 });
        let obj = payload(2, 5, 4096);
        s.encode_member((2, 5), &obj);
        assert!(s.is_encoded((2, 5)));
        // The one stripe holds the whole payload, hosted on rank 2 ^ 1.
        assert_eq!(s.group_tier().resident(), vec![(3, 5)]);
        assert_eq!(
            s.group_tier().used_bytes(),
            (4096 + PARITY_HEADER_LEN + PARITY_MEMBER_LEN) as u64
        );
        // No survivor contributes to a mirror.
        let no_survivor =
            |mid: ObjectId| -> Option<StoredObject> { panic!("fetched survivor {mid:?}") };
        assert_eq!(s.reconstruct((2, 5), &no_survivor).unwrap(), obj);
        // Losing the host (rank 3) wipes the stripe: typed error.
        assert_eq!(s.group_tier().wipe_rank(3), vec![(3, 5)]);
        assert_eq!(
            s.reconstruct((2, 5), &no_survivor).unwrap_err(),
            ReconstructError::MissingGroupCopy
        );
        assert!(s.knows_member((2, 5)), "metadata survives the wipe");
    }

    #[test]
    fn xor_reconstructs_any_single_lost_member() {
        for k in [2u32, 3, 4, 5] {
            let s = store(RedundancyPolicy::Xor { group_size: k });
            // Uneven sizes exercise the zero-padding paths.
            let objs: Vec<StoredObject> = (0..k)
                .map(|r| payload(r, 1, 1000 + 613 * r as usize))
                .collect();
            for (r, obj) in objs.iter().enumerate() {
                s.encode_member((r as u32, 1), obj);
            }
            for lost in 0..k {
                let fetch = |mid: ObjectId| -> Option<StoredObject> {
                    (mid.0 != lost && mid.1 == 1).then(|| objs[mid.0 as usize].clone())
                };
                let got = s.reconstruct((lost, 1), &fetch).unwrap_or_else(|e| {
                    panic!("k={k} lost={lost}: {e}");
                });
                assert_eq!(got, objs[lost as usize], "k={k} lost={lost}");
            }
        }
    }

    #[test]
    fn xor_double_loss_is_typed_never_wrong() {
        let k = 4u32;
        let s = store(RedundancyPolicy::Xor { group_size: k });
        let objs: Vec<StoredObject> = (0..k).map(|r| payload(r, 0, 2048)).collect();
        for (r, obj) in objs.iter().enumerate() {
            s.encode_member((r as u32, 0), obj);
        }
        // Ranks 1 and 2 both lost: stripes hosted there are gone AND rank
        // 2 cannot serve as a survivor for rank 1's rebuild.
        s.group_tier().wipe_rank(1);
        s.group_tier().wipe_rank(2);
        let fetch = |mid: ObjectId| -> Option<StoredObject> {
            (mid.0 != 1 && mid.0 != 2).then(|| objs[mid.0 as usize].clone())
        };
        for lost in [1u32, 2] {
            let err = s.reconstruct((lost, 0), &fetch).unwrap_err();
            assert!(
                matches!(
                    err,
                    ReconstructError::MissingGroupCopy | ReconstructError::MissingSurvivor { .. }
                ),
                "double loss must be typed, got {err:?}"
            );
        }
    }

    #[test]
    fn xor_detects_drifted_survivor() {
        let k = 3u32;
        let s = store(RedundancyPolicy::Xor { group_size: k });
        let objs: Vec<StoredObject> = (0..k).map(|r| payload(r, 2, 512)).collect();
        for (r, obj) in objs.iter().enumerate() {
            s.encode_member((r as u32, 2), obj);
        }
        // Survivor 1 hands back different bytes than were encoded.
        let fetch = |mid: ObjectId| -> Option<StoredObject> {
            if mid.0 == 0 {
                return None;
            }
            let obj = &objs[mid.0 as usize];
            if mid.0 != 1 {
                return Some(obj.clone());
            }
            let mut drifted = obj.payload().to_vec();
            drifted[17] ^= 0x40;
            Some(StoredObject::raw(drifted))
        };
        assert_eq!(
            s.reconstruct((0, 2), &fetch).unwrap_err(),
            ReconstructError::MissingSurvivor { rank: 1 }
        );
    }

    #[test]
    fn encode_is_idempotent() {
        let s = store(RedundancyPolicy::Xor { group_size: 3 });
        let obj = payload(0, 0, 1024);
        s.encode_member((0, 0), &obj);
        let before = s.group_tier().bytes_written();
        s.encode_member((0, 0), &obj);
        assert_eq!(s.group_tier().bytes_written(), before);
    }

    #[test]
    fn unknown_member_is_typed() {
        let s = store(RedundancyPolicy::Xor { group_size: 2 });
        assert_eq!(
            s.reconstruct((9, 9), &no_fetch).unwrap_err(),
            ReconstructError::UnknownMember
        );
    }

    #[test]
    fn xor_stripes_survive_until_every_member_advances() {
        let k = 3u32;
        let s = store(RedundancyPolicy::Xor { group_size: k });
        let objs: Vec<StoredObject> = (0..k).map(|r| payload(r, 0, 700)).collect();
        for (r, obj) in objs.iter().enumerate() {
            s.encode_member((r as u32, 0), obj);
        }
        // Two of three members advance: stripes must survive for the
        // straggler.
        assert_eq!(s.compact_below(0, 1), 0);
        assert_eq!(s.compact_below(1, 1), 0);
        let fetch = |mid: ObjectId| -> Option<StoredObject> {
            (mid.0 != 2).then(|| objs[mid.0 as usize].clone())
        };
        assert_eq!(s.reconstruct((2, 0), &fetch).unwrap(), objs[2]);
        // The straggler advances: now the stripes drop.
        assert!(s.compact_below(2, 1) > 0);
        assert!(!s.knows_member((2, 0)));
    }

    #[test]
    fn manifest_round_trips_members_and_policy() {
        let s = store(RedundancyPolicy::Xor { group_size: 3 });
        let objs: Vec<StoredObject> = (0..3).map(|r| payload(r, 4, 800)).collect();
        for (r, obj) in objs.iter().enumerate() {
            s.encode_member((r as u32, 4), obj);
        }
        let manifest = s.export_manifest();
        let loaded = RedundancyStore::from_manifest(&manifest).unwrap();
        assert_eq!(loaded.policy(), s.policy());
        assert_eq!(loaded.member_ids(), s.member_ids());
        assert!(loaded.is_encoded((1, 4)));
        // Re-hydrate the group tier and reconstruct through the clone.
        for key in s.group_tier().resident() {
            let obj = s.group_tier().inspect_object(key).into_object().unwrap();
            loaded.group_tier().store_object(key, obj).unwrap();
        }
        let fetch = |mid: ObjectId| -> Option<StoredObject> {
            (mid.0 != 1).then(|| objs[mid.0 as usize].clone())
        };
        assert_eq!(loaded.reconstruct((1, 4), &fetch).unwrap(), objs[1]);
        assert!(RedundancyStore::from_manifest("policy off\n").is_none());
        assert!(RedundancyStore::from_manifest("member 0 0\n").is_none());
    }

    /// The manifest names the function of its member checksums: a new
    /// group writes `version 2` after `policy` and folds; one without the
    /// line is version 1 and rebuilds under the serial chain, and claiming
    /// the other version fails the rebuild's checksum instead of returning
    /// a payload. A version this build does not write is refused.
    #[test]
    fn manifest_version_names_the_member_checksum() {
        let objs: Vec<StoredObject> = (0..3).map(|r| payload(r, 1, 5000)).collect();
        let fetch = |mid: ObjectId| -> Option<StoredObject> {
            (mid.0 != 1).then(|| objs[mid.0 as usize].clone())
        };
        for version in [1, frame::FRAME_VERSION] {
            let mut s = store(RedundancyPolicy::Xor { group_size: 3 });
            s.version = version;
            for (r, obj) in objs.iter().enumerate() {
                s.encode_member((r as u32, 1), obj);
            }
            let manifest = s.export_manifest();
            let line = format!("version {version}\n");
            assert_eq!(manifest.contains(&line), version > 1, "{manifest}");
            let other = match version {
                1 => manifest.replacen('\n', "\nversion 2\n", 1),
                _ => manifest.replacen(&line, "", 1),
            };
            for (text, rebuilds) in [(manifest, true), (other, false)] {
                let loaded = RedundancyStore::from_manifest(&text).unwrap();
                for key in s.group_tier().resident() {
                    let framed = s.group_tier().raw(key).unwrap();
                    loaded.group_tier().put_framed(key, framed);
                }
                let got = loaded.reconstruct((1, 1), &fetch);
                match rebuilds {
                    true => assert_eq!(got.unwrap(), objs[1], "version {version}"),
                    false => assert!(got.is_err(), "version {version}: {text}"),
                }
            }
        }
        for bad in ["version 1", "version 3", "version x"] {
            let text = format!("policy xor:2\n{bad}\n");
            assert!(RedundancyStore::from_manifest(&text).is_none(), "{bad}");
        }
    }

    #[test]
    fn imported_store_wipes_a_lost_hosts_stripes() {
        let s = store(RedundancyPolicy::Xor { group_size: 2 });
        let objs: Vec<StoredObject> = (0..2).map(|r| payload(r, 0, 500)).collect();
        for (r, obj) in objs.iter().enumerate() {
            s.encode_member((r as u32, 0), obj);
        }
        // What `ClusterDir::import` does: the manifest, then the stripes.
        let loaded = RedundancyStore::from_manifest(&s.export_manifest()).unwrap();
        for key in s.group_tier().resident() {
            let framed = s.group_tier().raw(key).unwrap();
            loaded.group_tier().put_framed(key, framed);
        }
        assert_eq!(loaded.group_tier().wipe_rank(1).len(), 1, "stripes wiped");
        assert_eq!(
            loaded.reconstruct((0, 0), &no_fetch).unwrap_err(),
            ReconstructError::MissingGroupCopy
        );
        assert_eq!(loaded.reconstruct((1, 0), &no_fetch).unwrap(), objs[1]);
    }

    #[test]
    fn truncated_manifest_never_half_loads() {
        let s = store(RedundancyPolicy::Xor { group_size: 2 });
        for (rank, ckpt) in [(0, 0), (1, 0), (0, 1)] {
            s.encode_member((rank, ckpt), &payload(rank, ckpt, 300));
        }
        let manifest = s.export_manifest();
        assert_eq!(manifest.lines().count(), 5);
        for cut in 0..manifest.len() {
            let loaded = RedundancyStore::from_manifest(&manifest[..cut]);
            // Only a cut on a line boundary (past the policy line) is a
            // well-formed, shorter manifest; it loads exactly the whole
            // member lines before the cut. (Cut right after the policy
            // line, it is a version-1 manifest of no member.)
            let on_boundary = cut > 0 && manifest.as_bytes()[cut - 1] == b'\n';
            match loaded {
                Some(l) => {
                    assert!(on_boundary, "cut {cut} half-loaded a line");
                    let whole = manifest[..cut]
                        .lines()
                        .filter(|l| l.starts_with("member "))
                        .count();
                    assert_eq!(l.member_ids(), s.member_ids()[..whole], "cut {cut}");
                }
                None => assert!(!on_boundary, "cut {cut} refused a whole-line prefix"),
            }
        }
    }

    #[test]
    fn empty_payload_round_trips_through_xor() {
        let k = 3u32;
        let s = store(RedundancyPolicy::Xor { group_size: k });
        let objs: Vec<StoredObject> = (0..k)
            .map(|r| {
                if r == 1 {
                    StoredObject::raw(Vec::new())
                } else {
                    payload(r, 0, 300)
                }
            })
            .collect();
        for (r, obj) in objs.iter().enumerate() {
            s.encode_member((r as u32, 0), obj);
        }
        for lost in 0..k {
            let fetch = |mid: ObjectId| -> Option<StoredObject> {
                (mid.0 != lost).then(|| objs[mid.0 as usize].clone())
            };
            assert_eq!(
                s.reconstruct((lost, 0), &fetch).unwrap(),
                objs[lost as usize],
                "lost={lost}"
            );
        }
    }
}
