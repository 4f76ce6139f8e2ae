//! Simulated storage tiers.
//!
//! The paper's architecture (Fig. 3) drains checkpoints down a hierarchy:
//! GPU memory → host memory → node-local SSD → parallel file system. Each
//! tier here is an in-memory object store with a bandwidth model: writes
//! accumulate *modeled* busy time (`bytes / bandwidth`, shared by every
//! writer, which is exactly the contention the paper describes for the
//! PFS), plus capacity accounting so experiments can observe tiers filling
//! up.
//!
//! # Integrity framing
//!
//! Every stored object is wrapped in a self-describing
//! [`ckpt_dedup::frame`] (magic, rank/ckpt ids, codec, payload length,
//! 64-bit checksum) at write time and verified at read time. There is one
//! verified way in and one out: [`store_object`](Tier::store_object) and
//! [`inspect_object`](Tier::inspect_object), which tells a missing object
//! from a corrupt one so chain-level code can quarantine and repair.
//! [`put`](Tier::put) / [`get`](Tier::get) are that pair for callers that
//! hold a plain payload and only want it back if it verifies. Capacity,
//! bandwidth and byte accounting remain *payload-based* (the 32-byte header
//! is bookkeeping, not modeled I/O).
//!
//! # Who owns a frame
//!
//! A frame's bytes are allocated once, where it is **minted**: the
//! `store_object` of an object that carries no frame for that slot (the
//! producer's host write, a compressed object leaving the flusher's
//! encoder, a parity stripe, a group rebuild). The tier holds it behind a
//! shared immutable [`Bytes`]; [`inspect_object`](Tier::inspect_object)
//! hands out a reference-count bump of it, verifies it in place — every
//! read still pays the one checksum pass — and returns a [`StoredObject`]
//! whose payload is a view into it and which **carries** it. Storing that
//! object under the same id — the SSD → PFS hop, the degraded edge, a
//! repair — installs the very same bytes: no allocation, no copy, no second
//! checksum; the checksum minted at the producer travels end to end.
//! Nothing can write through a [`Bytes`], and an injected
//! [`FaultKind::TornWrite`] / [`FaultKind::BitFlip`] damages a private
//! copy, so one tier's damage never reaches the copy another tier shares.
//!
//! # Compressed objects
//!
//! The flusher may hand a tier an already-compressed payload via
//! [`store_object`](Tier::store_object); the frame then records the codec
//! and the original length, the checksum covers the *compressed* bytes,
//! and capacity / bandwidth / modeled-time accounting all use the
//! post-compression size (that is what actually moves and sits on the
//! device). [`inspect_object`](Tier::inspect_object) returns the encoded
//! form, so the drain loop moves an object down a tier without transcoding
//! it; every reader that wants the original bytes — [`get`](Tier::get),
//! the chain's locate and recovery — decompresses through the one
//! `Tier::decode`, which is what `compress/decode_ns` times.
//!
//! # Torn-write contract
//!
//! `store_object` (and so `put`) is **atomic**: the object map is updated
//! under a lock only after the frame is fully materialized, so a concurrent
//! reader (or a crash via [`AsyncRuntime::kill`](crate::AsyncRuntime::kill))
//! observes either the complete framed object or nothing — never a
//! half-applied write. The *only* source of partial frames is an injected
//! [`FaultKind::TornWrite`], which atomically installs a prefix of the
//! framed bytes to model a write racing a crash; frame verification detects
//! it at the next read.

use crate::compress::CompressMetrics;
use crate::fault::{apply_latency, damaged_copy, FaultKind, FaultPlan, OpKind};
use ckpt_dedup::{frame, Bytes};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Identifies one checkpoint object: `(rank, ckpt_id)`.
pub type ObjectId = (u32, u32);

/// Max attempts for a tier write before the caller gives up on that tier
/// (1 initial try + 3 retries).
const MAX_STORE_ATTEMPTS: u32 = 4;
/// Max attempts for a tier read (transient errors only).
const MAX_READ_ATTEMPTS: u32 = 3;
/// Base backoff between retries; doubles per attempt (50 µs, 100 µs, …) so
/// retry exhaustion stays well under a millisecond in tests.
const RETRY_BACKOFF: Duration = Duration::from_micros(50);

/// Before attempt number `attempt` (0-based) of a retried operation: the
/// first goes straight through, every later one is reported to `on_retry`
/// and backed off.
fn before_attempt(attempt: u32, on_retry: &impl Fn()) {
    if attempt > 0 {
        on_retry();
        #[expect(clippy::disallowed_methods, reason = "retry backoff models time")]
        std::thread::sleep(RETRY_BACKOFF * (1 << (attempt - 1)));
    }
}

/// Static tier parameters.
#[derive(Debug, Clone, Copy)]
pub struct TierConfig {
    pub name: &'static str,
    /// Aggregate write bandwidth in bytes/second, shared by all writers.
    pub bandwidth_bps: f64,
    /// Capacity in bytes (writes beyond it fail).
    pub capacity: u64,
}

impl TierConfig {
    /// Host DRAM staging: PCIe-fed, effectively one device link per rank.
    pub fn host() -> Self {
        TierConfig {
            name: "host",
            bandwidth_bps: 25.0e9,
            capacity: 512 << 30,
        }
    }

    /// Node-local NVMe SSD (Polaris: two 1.6 TB drives).
    pub fn ssd() -> Self {
        TierConfig {
            name: "ssd",
            bandwidth_bps: 2.0e9,
            capacity: 3200 << 30,
        }
    }

    /// Lustre parallel file system (ThetaGPU: 250 GB/s aggregate).
    pub fn pfs() -> Self {
        TierConfig {
            name: "pfs",
            bandwidth_bps: 250.0e9,
            capacity: u64::MAX,
        }
    }

    /// Redundancy-group store: parity stripes living on
    /// peer nodes' local SSDs, reached over the interconnect — SSD-class
    /// bandwidth, shared capacity.
    pub fn group() -> Self {
        TierConfig {
            name: "group",
            bandwidth_bps: 2.0e9,
            capacity: 3200 << 30,
        }
    }
}

/// One simulated storage tier.
pub struct Tier {
    cfg: TierConfig,
    /// Framed objects (header + payload), each possibly shared with the
    /// other tiers holding the same object.
    objects: Mutex<HashMap<ObjectId, Bytes>>,
    /// Corrupt frames pulled out of circulation, kept for forensics.
    quarantined: Mutex<HashMap<ObjectId, Bytes>>,
    used: AtomicU64,
    bytes_written: AtomicU64,
    /// Modeled cumulative busy time in femtoseconds.
    busy_femtos: AtomicU64,
    /// Optional fault-injection hook (see [`crate::fault`]).
    faults: Option<Arc<FaultPlan>>,
    /// Bound once by the runtime so `decode` can account its time; never
    /// set in metric-less contexts.
    compress_metrics: OnceLock<Arc<CompressMetrics>>,
    /// Bound once by the tier chain: ranks named by a fired
    /// [`FaultKind::RankLoss`] are pushed here and wiped at the chain's
    /// next deterministic poll point.
    loss_sink: OnceLock<Arc<Mutex<Vec<u32>>>>,
}

/// An object in its *stored* form: the codec it was encoded with, the
/// original payload length, and the bytes as they sit on the device
/// (compressed when `codec != 0`). This is the currency of the flush path:
/// the SSD→PFS hop moves a `StoredObject` verbatim, never transcoding.
///
/// Immutable once built, because an object read out of a tier carries the
/// verified frame its payload is a view of (see the module docs); equality
/// compares what is stored, not where it came from.
#[derive(Debug, Clone)]
pub struct StoredObject {
    codec: u8,
    uncompressed_len: u64,
    payload: Bytes,
    /// The verified frame `payload` is a view of, and the slot it is the
    /// frame for.
    carried: Option<(ObjectId, Bytes)>,
}

impl PartialEq for StoredObject {
    fn eq(&self, other: &StoredObject) -> bool {
        (self.codec, self.uncompressed_len, &self.payload)
            == (other.codec, other.uncompressed_len, &other.payload)
    }
}

impl Eq for StoredObject {}

impl From<Vec<u8>> for StoredObject {
    fn from(payload: Vec<u8>) -> StoredObject {
        StoredObject::raw(payload)
    }
}

impl StoredObject {
    /// An uncompressed object.
    pub fn raw(payload: Vec<u8>) -> Self {
        let payload = Bytes::from(payload);
        StoredObject {
            codec: 0,
            uncompressed_len: payload.len() as u64,
            payload,
            carried: None,
        }
    }

    /// An already-compressed object.
    pub fn encoded(codec: u8, uncompressed_len: u64, payload: Vec<u8>) -> Self {
        debug_assert!(codec != 0, "use StoredObject::raw for codec 0");
        StoredObject {
            codec,
            uncompressed_len,
            payload: payload.into(),
            carried: None,
        }
    }

    /// `ckpt_compress` codec id; 0 means the payload is stored verbatim.
    pub fn codec(&self) -> u8 {
        self.codec
    }

    /// Length of the original (decoded) payload in bytes.
    pub fn uncompressed_len(&self) -> u64 {
        self.uncompressed_len
    }

    /// The stored bytes (a [`ckpt_compress::blocks`] container when
    /// `codec != 0`, the payload itself otherwise).
    pub fn payload(&self) -> &Bytes {
        &self.payload
    }

    pub fn is_compressed(&self) -> bool {
        self.codec != 0
    }

    /// Bytes this object occupies on a device: the stored payload plus the
    /// frame extension field that travels with compressed objects. This is
    /// what capacity, bandwidth and modeled-time accounting charge.
    pub fn stored_len(&self) -> u64 {
        let ext = if self.codec != 0 {
            frame::FRAME_EXT_LEN as u64
        } else {
            0
        };
        self.payload.len() as u64 + ext
    }

    /// Recover the original payload (decompressing through the recorded
    /// codec when one is set; a raw object's payload is handed over as the
    /// view it is).
    #[expect(
        clippy::disallowed_methods,
        reason = "the untimed decode, for a holder of an object outside any runtime"
    )]
    pub fn decode(self) -> Result<Bytes, frame::FrameError> {
        if self.codec == 0 {
            Ok(self.payload)
        } else {
            frame::decompress_payload(self.codec, self.uncompressed_len, &self.payload)
                .map(Bytes::from)
        }
    }

    /// The self-verifying frame this object is stored as under `id` — the
    /// bytes a tier holds and a record file contains. The carried frame
    /// when the object was read out of slot `id`; minted (one allocation,
    /// one copy, one checksum pass) otherwise.
    pub fn frame(&self, id: ObjectId) -> Bytes {
        match &self.carried {
            Some((slot, framed)) if *slot == id => Bytes::clone(framed),
            _ if self.codec == 0 => frame::encode_frame(id.0, id.1, &self.payload).into(),
            _ => frame::encode_frame_compressed(
                id.0,
                id.1,
                self.codec,
                self.uncompressed_len,
                &self.payload,
            )
            .into(),
        }
    }

    /// Inverse of [`frame`](Self::frame), and the one verify of a read:
    /// check the frame in place (checksum over the stored bytes and, with
    /// `expect`, the slot ids) and return the object still in its stored
    /// form — its payload a view into `framed`, which it carries.
    pub fn unframe(framed: &Bytes, expect: Option<ObjectId>) -> Result<Self, frame::FrameError> {
        let (header, stored) = frame::decode_frame(framed, expect)?;
        // The stored payload is the frame's tail.
        let payload = framed.slice(framed.len() - stored.len()..framed.len());
        Ok(StoredObject {
            codec: header.codec,
            uncompressed_len: header.uncompressed_len,
            payload,
            carried: Some(((header.rank, header.ckpt_id), Bytes::clone(framed))),
        })
    }
}

/// Error for writes that exceed tier capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierFull {
    pub tier: &'static str,
}

impl std::fmt::Display for TierFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tier {} is full", self.tier)
    }
}

impl std::error::Error for TierFull {}

/// Why a [`Tier::store_object`] failed. The object is handed back so the caller
/// can retry without copying (and, for compressed objects, without
/// re-encoding).
#[derive(Debug)]
pub struct StoreError {
    pub kind: StoreErrorKind,
    pub object: StoredObject,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreErrorKind {
    /// The tier is out of capacity (retry is pointless until eviction).
    Full,
    /// An injected transient I/O error (retry is expected to succeed).
    TransientIo,
}

/// The verified state of one object slot, as seen by
/// [`Tier::inspect_object`]: the object comes back in its *encoded* form,
/// so the drain loop can move compressed objects verbatim.
#[derive(Debug, PartialEq, Eq)]
pub enum ObjectState {
    /// No object stored under this id.
    Missing,
    /// Frame verified; the stored (possibly compressed) object.
    Valid(StoredObject),
    /// An object is stored but its frame fails verification.
    Corrupt(frame::FrameError),
    /// An injected transient read error; retry is expected to succeed.
    TransientIo,
}

impl ObjectState {
    pub fn into_object(self) -> Option<StoredObject> {
        match self {
            ObjectState::Valid(o) => Some(o),
            _ => None,
        }
    }
}

/// A verified object after [`Tier::decode`]: the original payload beside
/// the object it was decoded from.
pub(crate) struct Decoded {
    /// A view into the object's frame when it is raw, the decompressed
    /// bytes otherwise.
    pub payload: Bytes,
    object: StoredObject,
}

impl Decoded {
    /// The object in its stored form again, for a verbatim re-store: it
    /// carries its frame, so this is a reference-count bump and the
    /// re-store under the same id installs the bytes that were read.
    pub fn stored(&self) -> StoredObject {
        StoredObject::clone(&self.object)
    }
}

impl Tier {
    pub fn new(cfg: TierConfig) -> Self {
        Self::with_fault_hook(cfg, None)
    }

    /// A tier whose operations consult `plan` (keyed by this tier's name)
    /// before executing — the fault-injection hook.
    pub fn with_faults(cfg: TierConfig, plan: Arc<FaultPlan>) -> Self {
        Self::with_fault_hook(cfg, Some(plan))
    }

    fn with_fault_hook(cfg: TierConfig, faults: Option<Arc<FaultPlan>>) -> Self {
        Tier {
            cfg,
            objects: Mutex::new(HashMap::new()),
            quarantined: Mutex::new(HashMap::new()),
            used: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            busy_femtos: AtomicU64::new(0),
            faults,
            compress_metrics: OnceLock::new(),
            loss_sink: OnceLock::new(),
        }
    }

    /// Bind the rank-loss sink shared by a tier chain. First binding wins.
    pub fn bind_loss_sink(&self, sink: Arc<Mutex<Vec<u32>>>) {
        let _ = self.loss_sink.set(sink);
    }

    /// Record a fired [`FaultKind::RankLoss`] for the chain to apply.
    fn note_rank_loss(&self, fault: &Option<FaultKind>) {
        if let Some(FaultKind::RankLoss { rank }) = fault {
            if let Some(sink) = self.loss_sink.get() {
                sink.lock().push(*rank);
            }
        }
    }

    /// Bind the compression metric sink the tier's `decode` accounts
    /// its time to. First binding wins; later calls are ignored.
    pub fn bind_compress_metrics(&self, metrics: Arc<CompressMetrics>) {
        let _ = self.compress_metrics.set(metrics);
    }

    pub fn name(&self) -> &'static str {
        self.cfg.name
    }

    pub fn config(&self) -> &TierConfig {
        &self.cfg
    }

    /// The charge an object's stored bytes incur against capacity/byte
    /// accounting: the payload portion only (zero for a sub-header torn
    /// stub).
    fn charged_bytes(stored: &[u8]) -> u64 {
        stored.len().saturating_sub(frame::FRAME_HEADER_LEN) as u64
    }

    /// [`store_object`](Self::store_object) of a plain payload, for callers
    /// that do not care why a write failed.
    pub fn put(&self, id: ObjectId, bytes: Vec<u8>) -> Result<(), TierFull> {
        self.store_object(id, StoredObject::raw(bytes))
            .map_err(|_| TierFull {
                tier: self.cfg.name,
            })
    }

    /// Store an object in its encoded form, reporting *why* on failure so
    /// the caller can tell a full tier (degrade, or stall) from a transient
    /// I/O error (retry with backoff). Capacity, bandwidth, byte and
    /// modeled-time accounting all charge [`StoredObject::stored_len`] —
    /// the compressed size when a codec is set, because that is what moves
    /// over the link and sits on the device.
    pub fn store_object(&self, id: ObjectId, object: StoredObject) -> Result<(), StoreError> {
        // Fault hook: consult the plan before any side effect so a
        // transient error leaves no trace in the accounting.
        let fault = self
            .faults
            .as_ref()
            .and_then(|p| p.next_op(self.cfg.name, OpKind::Put));
        self.note_rank_loss(&fault);
        if let Some(kind) = &fault {
            apply_latency(kind);
            if *kind == FaultKind::TransientIo {
                return Err(StoreError {
                    kind: StoreErrorKind::TransientIo,
                    object,
                });
            }
        }

        let len = object.stored_len();
        // Reserve capacity optimistically; roll back on overflow.
        let prev = self.used.fetch_add(len, Ordering::Relaxed);
        if prev + len > self.cfg.capacity {
            self.used.fetch_sub(len, Ordering::Relaxed);
            return Err(StoreError {
                kind: StoreErrorKind::Full,
                object,
            });
        }

        let mut framed = object.frame(id);
        // A storage fault lands a damaged private copy in place of the
        // frame, *before* the atomic insert: readers see the complete
        // (corrupt) object, never a half-applied write, and a frame shared
        // with another tier is left as it is.
        if let Some(damaged) = fault.and_then(|kind| damaged_copy(&kind, &framed)) {
            framed = damaged.into();
        }

        // Re-charge to what actually landed (a torn write stores less than
        // was reserved).
        let charged = Self::charged_bytes(&framed);
        if charged < len {
            self.used.fetch_sub(len - charged, Ordering::Relaxed);
        }
        self.bytes_written.fetch_add(charged, Ordering::Relaxed);
        let femtos = (charged as f64 / self.cfg.bandwidth_bps * 1e15) as u64;
        self.busy_femtos.fetch_add(femtos, Ordering::Relaxed);
        let replaced = self.objects.lock().insert(id, framed);
        if let Some(old) = replaced {
            self.used
                .fetch_sub(Self::charged_bytes(&old), Ordering::Relaxed);
        }
        Ok(())
    }

    /// [`store_object`](Self::store_object) with bounded retry and
    /// exponential backoff of transient errors; `on_retry` hears every
    /// retry. A full tier fails fast (retrying cannot free space — the
    /// caller degrades or stalls instead). The error hands the object back,
    /// encoded exactly as handed in, so no retry or degradation ever
    /// re-encodes; its kind is that of the last attempt.
    pub(crate) fn store_object_with_retry(
        &self,
        id: ObjectId,
        mut object: StoredObject,
        on_retry: impl Fn(),
    ) -> Result<(), StoreError> {
        let last = MAX_STORE_ATTEMPTS - 1;
        for attempt in 0..last {
            before_attempt(attempt, &on_retry);
            match self.store_object(id, object) {
                Err(e) if e.kind == StoreErrorKind::TransientIo => object = e.object,
                outcome => return outcome,
            }
        }
        before_attempt(last, &on_retry);
        self.store_object(id, object)
    }

    /// [`inspect_object`](Self::inspect_object) with bounded retry and
    /// exponential backoff of transient errors; `on_retry` hears every
    /// retry.
    pub(crate) fn inspect_object_with_retry(
        &self,
        id: ObjectId,
        on_retry: impl Fn(),
    ) -> ObjectState {
        for attempt in 0..MAX_READ_ATTEMPTS {
            before_attempt(attempt, &on_retry);
            match self.inspect_object(id) {
                ObjectState::TransientIo => {}
                state => return state,
            }
        }
        ObjectState::TransientIo
    }

    /// [`inspect_object`](Self::inspect_object) then the tier's timed
    /// `decode`: a verified copy of an object's original payload. Corrupt,
    /// undecodable, missing and transiently-unreadable objects all read as
    /// `None`; `inspect_object` tells them apart.
    pub fn get(&self, id: ObjectId) -> Option<Bytes> {
        let object = self.inspect_object(id).into_object()?;
        Some(self.decode(object).ok()?.payload)
    }

    /// The one decode of a verified object back to its original payload,
    /// timed into `compress/decode_ns` when it decompresses. A compressed
    /// object is decompressed from its view; a raw one's payload *is* the
    /// view — nothing is copied just to be decoded. An object whose frame
    /// verified but whose payload the codec rejects is an error the caller
    /// treats as corruption.
    #[expect(
        clippy::disallowed_methods,
        reason = "the one timed decode: decompresses and counts its time into `compress/decode_ns`"
    )]
    pub(crate) fn decode(&self, object: StoredObject) -> Result<Decoded, frame::FrameError> {
        let payload = if object.is_compressed() {
            let started = Instant::now();
            let payload =
                frame::decompress_payload(object.codec, object.uncompressed_len, &object.payload)?;
            if let Some(m) = self.compress_metrics.get() {
                m.on_decode(started.elapsed().as_nanos() as u64);
            }
            payload.into()
        } else {
            Bytes::clone(&object.payload)
        };
        Ok(Decoded { payload, object })
    }

    /// Read and verify an object's frame *without* decompressing: the
    /// checksum (over the stored bytes) and ids are checked, and every
    /// outcome is told apart; the payload comes back in its encoded form
    /// so it can be re-stored on another tier verbatim. Under the tier lock
    /// this is a reference-count bump; the verify runs on the shared frame
    /// outside it, and the object returned is a view into that frame.
    pub fn inspect_object(&self, id: ObjectId) -> ObjectState {
        let fault = self
            .faults
            .as_ref()
            .and_then(|p| p.next_op(self.cfg.name, OpKind::Get));
        self.note_rank_loss(&fault);
        if let Some(kind) = &fault {
            apply_latency(kind);
            if *kind == FaultKind::TransientIo {
                return ObjectState::TransientIo;
            }
        }
        let Some(framed) = self.objects.lock().get(&id).cloned() else {
            return ObjectState::Missing;
        };
        match StoredObject::unframe(&framed, Some(id)) {
            Ok(object) => ObjectState::Valid(object),
            Err(e) => ObjectState::Corrupt(e),
        }
    }

    /// Install already-framed bytes verbatim: no fault hook, no modeled
    /// time, and *no verification* — a damaged frame is found by the next
    /// read, exactly like one damaged in place. This is how a record
    /// directory is loaded back (see [`crate::cluster_dir`]).
    pub fn put_framed(&self, id: ObjectId, framed: impl Into<Bytes>) {
        let framed = framed.into();
        self.used
            .fetch_add(Self::charged_bytes(&framed), Ordering::Relaxed);
        if let Some(old) = self.objects.lock().insert(id, framed) {
            self.used
                .fetch_sub(Self::charged_bytes(&old), Ordering::Relaxed);
        }
    }

    /// The framed bytes of a resident (else quarantined) object, unverified
    /// and fault-free: what export writes and loss diagnostics re-examine.
    pub fn raw(&self, id: ObjectId) -> Option<Bytes> {
        let resident = self.objects.lock().get(&id).cloned();
        resident.or_else(|| self.quarantined.lock().get(&id).cloned())
    }

    pub fn contains(&self, id: ObjectId) -> bool {
        self.objects.lock().contains_key(&id)
    }

    /// Drop an object (eviction after draining to a lower tier).
    pub fn evict(&self, id: ObjectId) -> bool {
        match self.objects.lock().remove(&id) {
            Some(bytes) => {
                self.used
                    .fetch_sub(Self::charged_bytes(&bytes), Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// Pull a corrupt object out of circulation: it stops counting against
    /// capacity and no longer resolves via `get`/`contains`, but its bytes
    /// are retained for forensics. Returns whether an object was present.
    pub fn quarantine(&self, id: ObjectId) -> bool {
        match self.objects.lock().remove(&id) {
            Some(bytes) => {
                self.used
                    .fetch_sub(Self::charged_bytes(&bytes), Ordering::Relaxed);
                self.quarantined.lock().insert(id, bytes);
                true
            }
            None => false,
        }
    }

    /// Wipe every object of `rank` — resident and quarantined — rolling
    /// back capacity accounting. This models whole-node loss; it is applied
    /// by the tier chain when a [`FaultKind::RankLoss`] fault is polled.
    /// Returns the wiped ids (sorted, deduplicated).
    pub fn wipe_rank(&self, rank: u32) -> Vec<ObjectId> {
        let mut wiped = Vec::new();
        {
            let mut objects = self.objects.lock();
            let ids: Vec<ObjectId> = objects.keys().filter(|id| id.0 == rank).copied().collect();
            for id in ids {
                if let Some(bytes) = objects.remove(&id) {
                    self.used
                        .fetch_sub(Self::charged_bytes(&bytes), Ordering::Relaxed);
                    wiped.push(id);
                }
            }
        }
        {
            let mut q = self.quarantined.lock();
            let ids: Vec<ObjectId> = q.keys().filter(|id| id.0 == rank).copied().collect();
            for id in ids {
                q.remove(&id);
                wiped.push(id);
            }
        }
        wiped.sort_unstable();
        wiped.dedup();
        wiped
    }

    /// Ids currently quarantined (sorted, for deterministic tests).
    pub fn quarantined(&self) -> Vec<ObjectId> {
        let mut ids: Vec<ObjectId> = self.quarantined.lock().keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// All object ids currently resident (sorted, for deterministic tests).
    pub fn resident(&self) -> Vec<ObjectId> {
        let mut ids: Vec<ObjectId> = self.objects.lock().keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Bytes currently resident.
    pub fn used_bytes(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// Lifetime bytes written (not reduced by eviction).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// Modeled cumulative write time in seconds.
    pub fn modeled_busy_sec(&self) -> f64 {
        self.busy_femtos.load(Ordering::Relaxed) as f64 / 1e15
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlanBuilder;

    #[test]
    fn put_get_evict() {
        let t = Tier::new(TierConfig::host());
        t.put((0, 0), vec![1, 2, 3]).unwrap();
        assert_eq!(t.get((0, 0)), Some(vec![1, 2, 3].into()));
        assert_eq!(t.used_bytes(), 3);
        assert!(t.evict((0, 0)));
        assert_eq!(t.used_bytes(), 0);
        assert!(!t.evict((0, 0)));
        assert_eq!(t.get((0, 0)), None);
    }

    #[test]
    fn capacity_enforced() {
        let t = Tier::new(TierConfig {
            name: "tiny",
            bandwidth_bps: 1e9,
            capacity: 10,
        });
        t.put((0, 0), vec![0; 8]).unwrap();
        assert_eq!(t.put((0, 1), vec![0; 8]), Err(TierFull { tier: "tiny" }));
        // The failed write must not leak accounting.
        assert_eq!(t.used_bytes(), 8);
        t.evict((0, 0));
        t.put((0, 1), vec![0; 10]).unwrap();
    }

    #[test]
    fn overwrite_replaces_accounting() {
        let t = Tier::new(TierConfig::host());
        t.put((1, 1), vec![0; 100]).unwrap();
        t.put((1, 1), vec![0; 40]).unwrap();
        assert_eq!(t.used_bytes(), 40);
        assert_eq!(t.bytes_written(), 140);
    }

    #[test]
    fn modeled_time_tracks_bandwidth() {
        let t = Tier::new(TierConfig {
            name: "x",
            bandwidth_bps: 1e9,
            capacity: u64::MAX,
        });
        t.put((0, 0), vec![0; 1_000_000]).unwrap();
        assert!((t.modeled_busy_sec() - 1e-3).abs() < 1e-9);
    }

    #[test]
    fn resident_listing_sorted() {
        let t = Tier::new(TierConfig::host());
        t.put((1, 0), vec![0]).unwrap();
        t.put((0, 2), vec![0]).unwrap();
        t.put((0, 1), vec![0]).unwrap();
        assert_eq!(t.resident(), vec![(0, 1), (0, 2), (1, 0)]);
    }

    #[test]
    fn stored_objects_are_framed_and_verified() {
        let t = Tier::new(TierConfig::host());
        t.put((3, 9), vec![5; 64]).unwrap();
        let raw = t.raw((3, 9)).unwrap();
        assert_eq!(raw.len(), 64 + ckpt_dedup::frame::FRAME_HEADER_LEN);
        assert!(raw.starts_with(&frame::FRAME_MAGIC));
        // get strips and verifies the frame.
        assert_eq!(t.get((3, 9)), Some(vec![5; 64].into()));
        assert_eq!(
            t.inspect_object((3, 9)),
            ObjectState::Valid(StoredObject::raw(vec![5; 64]))
        );
        assert_eq!(t.inspect_object((3, 8)), ObjectState::Missing);
    }

    #[test]
    fn torn_write_is_detected_and_quarantinable() {
        let plan = FaultPlanBuilder::new()
            .on_put("host", 0, FaultKind::TornWrite { keep_bytes: 10 })
            .build();
        let t = Tier::with_faults(TierConfig::host(), Arc::clone(&plan));
        t.put((0, 0), vec![7; 100]).unwrap();
        assert!(t.contains((0, 0)));
        assert_eq!(t.get((0, 0)), None);
        assert!(matches!(t.inspect_object((0, 0)), ObjectState::Corrupt(_)));
        // Sub-header stub charges nothing.
        assert_eq!(t.used_bytes(), 0);
        assert!(t.quarantine((0, 0)));
        assert!(!t.contains((0, 0)));
        assert_eq!(t.quarantined(), vec![(0, 0)]);
        assert_eq!(plan.fired().len(), 1);
        // The next put is clean.
        t.put((0, 1), vec![7; 100]).unwrap();
        assert_eq!(t.get((0, 1)), Some(vec![7; 100].into()));
    }

    #[test]
    fn bit_flip_is_detected() {
        let plan = FaultPlanBuilder::new()
            .on_put("host", 0, FaultKind::BitFlip { bit: 999 })
            .build();
        let t = Tier::with_faults(TierConfig::host(), plan);
        t.put((0, 0), vec![1; 50]).unwrap();
        assert!(matches!(t.inspect_object((0, 0)), ObjectState::Corrupt(_)));
        // Accounting still sees the full payload (the flip corrupts, it
        // does not shrink).
        assert_eq!(t.used_bytes(), 50);
    }

    #[test]
    fn transient_io_errors_fire_once_and_leave_no_trace() {
        let plan = FaultPlanBuilder::new()
            .on_put("host", 0, FaultKind::TransientIo)
            .on_get("host", 1, FaultKind::TransientIo)
            .build();
        let t = Tier::with_faults(TierConfig::host(), plan);
        let err = t
            .store_object((0, 0), StoredObject::raw(vec![9; 30]))
            .unwrap_err();
        assert_eq!(err.kind, StoreErrorKind::TransientIo);
        assert_eq!(*err.object.payload(), vec![9; 30]);
        assert_eq!(t.used_bytes(), 0);
        assert_eq!(t.bytes_written(), 0);
        // Retry (op 1) succeeds; the handed-back object is reusable as-is.
        t.store_object((0, 0), err.object).unwrap();
        // Get op 0 fine, op 1 faulted, op 2 fine.
        assert_eq!(t.get((0, 0)), Some(vec![9; 30].into()));
        assert_eq!(t.inspect_object((0, 0)), ObjectState::TransientIo);
        assert_eq!(t.get((0, 0)), Some(vec![9; 30].into()));
    }

    #[test]
    fn misplaced_frame_fails_verification() {
        // Two tiers; copy raw framed bytes of (0,0) into slot (0,1).
        let t = Tier::new(TierConfig::host());
        t.put((0, 0), vec![4; 16]).unwrap();
        let raw = t.raw((0, 0)).unwrap();
        t.objects.lock().insert((0, 1), raw);
        assert!(matches!(t.inspect_object((0, 1)), ObjectState::Corrupt(_)));
    }

    /// Frames are shared between tiers, damage is not: storing an object a
    /// tier read hands the next tier the very same frame, while a storage
    /// fault on that put lands a damaged private copy and a refused put
    /// hands the object back as it came — through `quarantine`, `evict`
    /// and `wipe_rank`, whose accounting is per tier, not per allocation.
    #[test]
    fn tiers_share_a_frame_and_never_its_damage() {
        let (id, len) = ((2, 5), 4096u64);
        let payload: Vec<u8> = (0..len).map(|i| (i * 7 % 251) as u8).collect();
        for lower in ["ssd", "pfs"] {
            let plan = FaultPlanBuilder::new()
                .on_put(lower, 0, FaultKind::BitFlip { bit: 12_345 })
                .on_put(lower, 1, FaultKind::TornWrite { keep_bytes: 100 })
                .on_put(lower, 2, FaultKind::TornWrite { keep_bytes: 10 })
                .on_put(lower, 3, FaultKind::TransientIo)
                .build();
            let upper = Tier::new(TierConfig::host());
            let lower = Tier::with_faults(
                TierConfig {
                    name: lower,
                    ..TierConfig::ssd()
                },
                plan,
            );
            upper.put(id, payload.clone()).unwrap();
            let minted = upper.raw(id).unwrap();
            let pristine = minted.to_vec();
            let read = || {
                upper
                    .inspect_object(id)
                    .into_object()
                    .expect("upper verifies")
            };
            let siblings_intact = |what: &str| {
                assert_eq!(read(), StoredObject::raw(payload.clone()), "{what}");
                assert!(upper.raw(id).unwrap().shares_with(&minted), "{what}");
                assert_eq!(*minted, pristine[..], "{what}: the shared frame changed");
                assert_eq!(upper.used_bytes(), len, "{what}");
            };
            // A read is a view of the tier's frame, not a copy of it.
            assert!(read().frame(id).shares_with(&minted));
            let frame_len = minted.len();
            assert_eq!(
                read().payload().as_ptr(),
                minted[frame_len - len as usize..].as_ptr()
            );

            // Bit flip on the lower put: full charge, corrupt there only.
            lower.store_object(id, read()).unwrap();
            assert!(matches!(lower.inspect_object(id), ObjectState::Corrupt(_)));
            assert!(!lower.raw(id).unwrap().shares_with(&minted));
            assert_eq!(lower.used_bytes(), len);
            siblings_intact("after a bit flip below");
            assert!(lower.quarantine(id));
            assert_eq!(lower.used_bytes(), 0);

            // Torn writes: charged what landed past the header, or nothing.
            lower.store_object(id, read()).unwrap();
            assert!(matches!(lower.inspect_object(id), ObjectState::Corrupt(_)));
            assert_eq!(lower.used_bytes(), 100 - frame::FRAME_HEADER_LEN as u64);
            siblings_intact("after a torn write below");
            assert!(lower.evict(id));
            assert_eq!(lower.used_bytes(), 0);
            lower.store_object(id, read()).unwrap();
            assert_eq!(lower.used_bytes(), 0, "a sub-header stub charges nothing");
            assert_eq!(lower.wipe_rank(id.0), vec![id]);
            assert_eq!(lower.used_bytes(), 0);
            siblings_intact("after wiping the damaged copies below");

            // A refused put hands back what it was handed, frame and all,
            // and leaves no trace.
            let refused = lower.store_object(id, read()).unwrap_err();
            assert_eq!(refused.kind, StoreErrorKind::TransientIo);
            assert_eq!(refused.object, read());
            assert!(refused.object.frame(id).shares_with(&minted));
            assert_eq!(
                (lower.used_bytes(), lower.bytes_written()),
                (0, len + 100 - 32)
            );

            // The clean put installs the upper tier's frame itself.
            lower.store_object(id, refused.object).unwrap();
            assert!(lower.raw(id).unwrap().shares_with(&minted));
            assert_eq!(lower.used_bytes(), len);
            siblings_intact("after the clean put below");
            // Another slot is another frame: the carried one is not reused.
            lower.store_object((2, 6), read()).unwrap();
            assert!(!lower.raw((2, 6)).unwrap().shares_with(&minted));
            assert_eq!(lower.get((2, 6)), Some(payload.clone().into()));

            // Each tier accounts for its own residency of the one frame.
            assert!(upper.evict(id));
            assert_eq!(upper.used_bytes(), 0);
            assert_eq!(lower.get(id), Some(payload.clone().into()));
            assert!(lower.quarantine(id));
            assert_eq!(lower.used_bytes(), len, "slot (2, 6) is still resident");
            assert_eq!(lower.wipe_rank(2), vec![id, (2, 6)]);
            assert_eq!(lower.used_bytes(), 0);
            assert_eq!(*minted, pristine[..]);
        }
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
    fn compressed_objects_round_trip_transparently() {
        let t = Tier::new(TierConfig::host());
        let payload: Vec<u8> = (0..100_000u32)
            .flat_map(|i| (i % 37).to_le_bytes())
            .collect();
        let obj = zstd_object(&payload);
        let stored_len = obj.stored_len();
        assert!(stored_len < payload.len() as u64 / 2);
        t.store_object((2, 7), obj.clone()).unwrap();

        // Reads decode transparently…
        assert_eq!(t.get((2, 7)), Some(payload.into()));
        // …while inspect_object exposes the encoded form verbatim.
        assert_eq!(t.inspect_object((2, 7)), ObjectState::Valid(obj));

        // Accounting charges the compressed size, not the original.
        assert_eq!(t.used_bytes(), stored_len);
        assert_eq!(t.bytes_written(), stored_len);
    }

    #[test]
    fn capacity_is_enforced_on_compressed_size() {
        let payload: Vec<u8> = vec![3; 64 * 1024];
        let obj = zstd_object(&payload);
        let t = Tier::new(TierConfig {
            name: "tiny",
            bandwidth_bps: 1e9,
            // Too small for the raw payload, roomy for the compressed one.
            capacity: payload.len() as u64 / 4,
        });
        assert!(obj.stored_len() <= t.config().capacity);
        t.store_object((0, 0), obj).unwrap();
        let refused = t.store_object((0, 1), StoredObject::raw(payload));
        assert_eq!(refused.unwrap_err().kind, StoreErrorKind::Full);
    }

    #[test]
    fn undecompressible_payload_reads_as_corrupt() {
        // A frame whose checksum verifies but whose payload is not a valid
        // block container: the frame layer cannot catch it, decode must.
        let t = Tier::new(TierConfig::host());
        let garbage = StoredObject::encoded(6, 4096, vec![0xAB; 64]);
        t.store_object((1, 1), garbage.clone()).unwrap();
        assert_eq!(
            t.inspect_object((1, 1)),
            ObjectState::Valid(garbage.clone())
        );
        assert!(matches!(
            t.decode(garbage).map(|d| d.payload),
            Err(frame::FrameError::Decompress { codec: 6 })
        ));
        assert_eq!(t.get((1, 1)), None);
    }

    #[test]
    fn bit_flip_on_compressed_object_is_detected_without_decoding() {
        let plan = FaultPlanBuilder::new()
            .on_put("host", 0, FaultKind::BitFlip { bit: 401 })
            .build();
        let t = Tier::with_faults(TierConfig::host(), plan);
        let payload: Vec<u8> = (0..50_000u32).flat_map(|i| (i % 9).to_le_bytes()).collect();
        t.store_object((0, 0), zstd_object(&payload)).unwrap();
        assert!(matches!(t.inspect_object((0, 0)), ObjectState::Corrupt(_)));
        assert_eq!(t.get((0, 0)), None);
    }
}
