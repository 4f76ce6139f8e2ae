//! The *historical record of unique hashes*: a lock-free, insert-only hash
//! table equivalent to `Kokkos::UnorderedMap`.
//!
//! Algorithm 1 in the paper performs one `Map.insert(digest, entry)` per
//! modified chunk from thousands of GPU threads concurrently, and relies on
//! insert-if-absent semantics: exactly one inserting thread wins, every other
//! thread observes the winner's entry. This implementation provides that with
//! an open-addressing table whose slots are claimed with a single
//! compare-and-swap on a tag word (effective-EMPTY → BUSY), published with a
//! release store (BUSY → FULL), and probed linearly. There are no locks; the
//! only waiting is a bounded spin while a concurrently-claimed slot finishes
//! publishing its key.
//!
//! Slots are **generation-tagged**: each tag word packs the table generation
//! with the slot state, and a slot whose generation differs from the map's
//! current one reads as EMPTY. [`reset`](DistinctMap::reset) is therefore an
//! O(1) generation bump — no table-sized clear on the per-record hot path —
//! and leaves probe behavior structurally identical to a freshly-zeroed
//! table. Capacity is normally sized once (like the paper's per-process
//! GPU-resident record, bounded by 2× the number of leaf chunks); `insert`
//! reports exhaustion instead of growing, which callers treat as
//! "de-duplication deactivated" exactly as §2.4 describes for fully-changed
//! checkpoints. Callers that *want* growth between records use
//! [`ensure_capacity`](DistinctMap::ensure_capacity), which rebuilds (and
//! counts the rebuild) only when the requested capacity exceeds the table.

use ckpt_hash::Digest128;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

const EMPTY: u64 = 0;
const BUSY: u64 = 1;
const FULL: u64 = 2;
const STATE_BITS: u32 = 2;
const STATE_MASK: u64 = (1 << STATE_BITS) - 1;
/// Generations live in the tag's upper 62 bits; past this the map falls back
/// to one physical clear and restarts the epoch counter.
const MAX_GENERATION: u64 = (1 << (64 - STATE_BITS)) - 1;

#[inline]
fn tag(generation: u64, state: u64) -> u64 {
    (generation << STATE_BITS) | state
}

/// Value stored per unique digest: where it first occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MapEntry {
    /// Merkle-tree node index (leaf or interior) of the first occurrence.
    pub node: u32,
    /// Checkpoint id of the first occurrence.
    pub ckpt: u32,
}

impl MapEntry {
    pub fn new(node: u32, ckpt: u32) -> Self {
        MapEntry { node, ckpt }
    }

    #[inline]
    fn pack(self) -> u64 {
        (self.ckpt as u64) << 32 | self.node as u64
    }

    #[inline]
    fn unpack(v: u64) -> Self {
        MapEntry {
            node: v as u32,
            ckpt: (v >> 32) as u32,
        }
    }
}

/// Result of [`DistinctMap::insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertResult {
    /// The digest was not present; this call inserted it.
    Inserted,
    /// The digest was already present with this entry.
    Exists(MapEntry),
    /// The table is full; the digest could not be inserted.
    OutOfCapacity,
}

impl InsertResult {
    /// `true` when this call performed the insertion (Algorithm 1's
    /// `success` flag).
    pub fn inserted(&self) -> bool {
        matches!(self, InsertResult::Inserted)
    }
}

/// 32 bytes, aligned to 32, so a slot never straddles two cache lines: a
/// probe, and a [`DistinctMap::prefetch`] of it, touch one line.
#[repr(align(32))]
struct Slot {
    /// `(generation << 2) | state`. A slot tagged with a stale generation is
    /// effectively EMPTY regardless of its state bits.
    tag: AtomicU64,
    value: AtomicU64,
    key: UnsafeCell<Digest128>,
}

// SAFETY: `key` is written exactly once per generation, by the unique thread
// that won the effective-EMPTY→BUSY CAS on `tag`, strictly before the release
// store of FULL; it is read only after an acquire load observes the current
// generation's FULL. The release/acquire pair on `tag` makes the key write
// happen-before every read. Generation bumps require `&mut self`, so no
// concurrent access straddles an epoch change.
unsafe impl Sync for Slot {}

impl Slot {
    fn new() -> Self {
        Slot {
            tag: AtomicU64::new(tag(0, EMPTY)),
            value: AtomicU64::new(0),
            key: UnsafeCell::new(Digest128::ZERO),
        }
    }
}

/// Lock-free insert-only hash map from [`Digest128`] to [`MapEntry`].
pub struct DistinctMap {
    slots: Box<[Slot]>,
    mask: usize,
    len: AtomicUsize,
    /// Current epoch. Only mutated under `&mut self` (reset / rebuild), so
    /// every shared-access operation sees it frozen.
    generation: u64,
    generation_bumps: u64,
    rehash_rebuilds: u64,
}

impl DistinctMap {
    /// Create a map able to hold at least `capacity` digests. The backing
    /// table is the next power of two of `2 * capacity`, keeping the load
    /// factor ≤ 0.5 so linear probing stays short.
    pub fn with_capacity(capacity: usize) -> Self {
        let table = (capacity.max(1) * 2).next_power_of_two();
        let slots = (0..table)
            .map(|_| Slot::new())
            .collect::<Vec<_>>()
            .into_boxed_slice();
        DistinctMap {
            slots,
            mask: table - 1,
            len: AtomicUsize::new(0),
            generation: 0,
            generation_bumps: 0,
            rehash_rebuilds: 0,
        }
    }

    /// Number of digests stored.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of slots in the backing table.
    pub fn table_size(&self) -> usize {
        self.slots.len()
    }

    /// O(1) resets performed so far (epoch bumps, including the rare
    /// physical fallback at generation wrap).
    pub fn generation_bumps(&self) -> u64 {
        self.generation_bumps
    }

    /// Table rebuilds performed by [`ensure_capacity`](Self::ensure_capacity).
    /// Zero in steady state — the invariant the zero-allocation tests pin.
    pub fn rehash_rebuilds(&self) -> u64 {
        self.rehash_rebuilds
    }

    #[inline]
    fn start_index(&self, digest: &Digest128) -> usize {
        // The digest is already a high-quality hash; fold the halves and mask.
        (digest.h1 ^ digest.h2.rotate_left(32)) as usize & self.mask
    }

    /// Whether `t` reads as EMPTY under the current generation: either truly
    /// unclaimed or left over from a previous epoch.
    #[inline]
    fn is_effective_empty(&self, t: u64) -> bool {
        (t >> STATE_BITS) != self.generation || (t & STATE_MASK) == EMPTY
    }

    /// Insert `digest → entry` if absent.
    ///
    /// Concurrent inserts of the same digest race benignly: exactly one
    /// returns [`InsertResult::Inserted`], the rest return
    /// [`InsertResult::Exists`] with the winner's entry.
    pub fn insert(&self, digest: &Digest128, entry: MapEntry) -> InsertResult {
        let r = self.insert_unaccounted(digest, entry);
        if r.inserted() {
            self.len.fetch_add(1, Ordering::Relaxed);
        }
        r
    }

    /// [`insert`](Self::insert) without bumping the shared length counter;
    /// the caller owes one `len` increment per `Inserted` result. This is
    /// the primitive under [`BatchedInserts`], which pays the shared-counter
    /// atomic once per kernel chunk instead of once per inserted digest.
    fn insert_unaccounted(&self, digest: &Digest128, entry: MapEntry) -> InsertResult {
        let busy = tag(self.generation, BUSY);
        let full = tag(self.generation, FULL);
        let start = self.start_index(digest);
        for probe in 0..self.slots.len() {
            let slot = &self.slots[(start + probe) & self.mask];
            let mut t = slot.tag.load(Ordering::Acquire);
            if self.is_effective_empty(t) {
                match slot
                    .tag
                    .compare_exchange(t, busy, Ordering::AcqRel, Ordering::Acquire)
                {
                    Ok(_) => {
                        // We own the slot: publish key+value, then FULL.
                        // SAFETY: unique writer (won the CAS), no reader
                        // touches `key` until this generation's FULL is
                        // visible.
                        unsafe { *slot.key.get() = *digest };
                        slot.value.store(entry.pack(), Ordering::Relaxed);
                        slot.tag.store(full, Ordering::Release);
                        return InsertResult::Inserted;
                    }
                    // The only shared-access transitions are effective-EMPTY
                    // → BUSY → FULL, so a failed CAS observed a live claim.
                    Err(observed) => t = observed,
                }
            }
            // Somebody claimed this slot; wait until its key is readable.
            while t == busy {
                std::hint::spin_loop();
                t = slot.tag.load(Ordering::Acquire);
            }
            debug_assert_eq!(t, full);
            // SAFETY: acquire load of FULL synchronizes with the release
            // store after the key write.
            let key = unsafe { *slot.key.get() };
            if key == *digest {
                return InsertResult::Exists(MapEntry::unpack(slot.value.load(Ordering::Relaxed)));
            }
        }
        InsertResult::OutOfCapacity
    }

    /// Start a batch of inserts that amortizes the shared length counter:
    /// successful inserts are tallied locally and folded into `len` with a
    /// single atomic when the batch flushes (explicitly or on drop). One
    /// batch per kernel chunk turns O(inserted digests) contended
    /// `fetch_add`s per wave into O(chunks).
    ///
    /// Insert-if-absent semantics are untouched — only `len` lags until the
    /// flush, so concurrent readers of `len` during a wave may observe an
    /// undercount. The pipeline only reads `len` between kernels, where all
    /// batches have flushed.
    pub fn batch(&self) -> BatchedInserts<'_> {
        BatchedInserts {
            map: self,
            pending: 0,
        }
    }

    /// Hint that `digest` is about to be probed: ask for the cache line of
    /// the slot its probe starts at (x86-64; elsewhere nothing). A caller
    /// holding a tile of digests prefetches them all before its first probe,
    /// so their misses overlap instead of each probe waiting on its own.
    /// Changes nothing the map holds or returns.
    #[inline]
    pub fn prefetch(&self, digest: &Digest128) {
        let slot: *const Slot = &self.slots[self.start_index(digest)];
        ckpt_hash::murmur3::prefetch(slot.cast());
    }

    /// Look up a digest.
    pub fn get(&self, digest: &Digest128) -> Option<MapEntry> {
        let busy = tag(self.generation, BUSY);
        let start = self.start_index(digest);
        for probe in 0..self.slots.len() {
            let slot = &self.slots[(start + probe) & self.mask];
            let mut t = slot.tag.load(Ordering::Acquire);
            if self.is_effective_empty(t) {
                return None;
            }
            while t == busy {
                std::hint::spin_loop();
                t = slot.tag.load(Ordering::Acquire);
            }
            // SAFETY: as in `insert`.
            let key = unsafe { *slot.key.get() };
            if key == *digest {
                return Some(MapEntry::unpack(slot.value.load(Ordering::Relaxed)));
            }
        }
        None
    }

    /// Whether the digest is present.
    pub fn contains(&self, digest: &Digest128) -> bool {
        self.get(digest).is_some()
    }

    /// Atomically update the entry stored for `digest`, if present.
    ///
    /// `f` maps the current entry to `Some(new_entry)` to attempt a
    /// compare-and-swap (retried until it sticks or `f` declines) or `None`
    /// to leave the entry unchanged. Returns `(before, after)`: the entry
    /// observed when the operation settled and the entry in place afterwards
    /// (equal when `f` declined). Returns `None` if the digest is absent.
    ///
    /// Algorithm 1 (lines 13–16) uses this to keep the *earliest* leaf of the
    /// current checkpoint as the canonical first occurrence when concurrent
    /// leaf threads insert the same digest out of order; `before` tells the
    /// displacing thread which node it displaced so it can relabel it.
    pub fn update_with(
        &self,
        digest: &Digest128,
        f: impl Fn(MapEntry) -> Option<MapEntry>,
    ) -> Option<(MapEntry, MapEntry)> {
        let busy = tag(self.generation, BUSY);
        let start = self.start_index(digest);
        for probe in 0..self.slots.len() {
            let slot = &self.slots[(start + probe) & self.mask];
            let mut t = slot.tag.load(Ordering::Acquire);
            if self.is_effective_empty(t) {
                return None;
            }
            while t == busy {
                std::hint::spin_loop();
                t = slot.tag.load(Ordering::Acquire);
            }
            // SAFETY: as in `insert`.
            let key = unsafe { *slot.key.get() };
            if key == *digest {
                let mut cur = slot.value.load(Ordering::Relaxed);
                loop {
                    match f(MapEntry::unpack(cur)) {
                        None => {
                            let e = MapEntry::unpack(cur);
                            return Some((e, e));
                        }
                        Some(new) => {
                            match slot.value.compare_exchange_weak(
                                cur,
                                new.pack(),
                                Ordering::AcqRel,
                                Ordering::Acquire,
                            ) {
                                Ok(_) => return Some((MapEntry::unpack(cur), new)),
                                Err(observed) => cur = observed,
                            }
                        }
                    }
                }
            }
        }
        None
    }

    /// Reset the map to empty in O(1): bump the generation so every slot
    /// reads as EMPTY. Requires exclusive access, so no concurrent protocol
    /// is needed. Probe behavior afterwards is structurally identical to a
    /// freshly-allocated table — the determinism tests rely on that.
    pub fn reset(&mut self) {
        self.generation_bumps += 1;
        if self.generation == MAX_GENERATION {
            // Epoch counter exhausted (2^62 resets): fall back to one
            // physical clear and restart the epochs.
            for slot in self.slots.iter_mut() {
                *slot.tag.get_mut() = tag(0, EMPTY);
                *slot.value.get_mut() = 0;
                *slot.key.get_mut() = Digest128::ZERO;
            }
            self.generation = 0;
        } else {
            self.generation += 1;
        }
        *self.len.get_mut() = 0;
    }

    /// Reset the map to empty. Alias of [`reset`](Self::reset), kept for the
    /// original API; no longer a table-sized wipe.
    pub fn clear(&mut self) {
        self.reset();
    }

    /// Grow the backing table to hold at least `capacity` digests at load
    /// factor ≤ 0.5, rehashing live entries. No-op (and not counted) when the
    /// table already suffices; otherwise one `rehash_rebuilds` is recorded.
    pub fn ensure_capacity(&mut self, capacity: usize) {
        let want = (capacity.max(1) * 2).next_power_of_two();
        if want <= self.slots.len() {
            return;
        }
        self.rehash_rebuilds += 1;
        let gen_full = tag(self.generation, FULL);
        let live: Vec<(Digest128, MapEntry)> = self
            .slots
            .iter_mut()
            .filter_map(|s| {
                (*s.tag.get_mut() == gen_full)
                    .then(|| (*s.key.get_mut(), MapEntry::unpack(*s.value.get_mut())))
            })
            .collect();
        self.slots = (0..want)
            .map(|_| Slot::new())
            .collect::<Vec<_>>()
            .into_boxed_slice();
        self.mask = want - 1;
        self.generation = 0;
        *self.len.get_mut() = 0;
        for (key, entry) in live {
            self.insert(&key, entry);
        }
    }

    /// Record-boundary reset: O(1) epoch bump plus a capacity pre-size from
    /// the previous record's observed occupancy (`hint`). In steady state the
    /// hint never exceeds the table, so this stays allocation-free.
    pub fn reset_with_hint(&mut self, hint: usize) {
        self.reset();
        self.ensure_capacity(hint);
    }

    /// Approximate bytes of device memory this record occupies (for the
    /// space-accounting reports; the paper keeps this structure GPU-resident).
    pub fn memory_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<Slot>()
    }
}

/// Chunk-local insert handle from [`DistinctMap::batch`]; see there.
pub struct BatchedInserts<'m> {
    map: &'m DistinctMap,
    pending: usize,
}

impl BatchedInserts<'_> {
    /// Insert with the same semantics as [`DistinctMap::insert`], deferring
    /// the shared length-counter update to the next [`flush`](Self::flush).
    pub fn insert(&mut self, digest: &Digest128, entry: MapEntry) -> InsertResult {
        let r = self.map.insert_unaccounted(digest, entry);
        if r.inserted() {
            self.pending += 1;
        }
        r
    }

    /// Fold the locally tallied insert count into the map's `len`.
    pub fn flush(&mut self) {
        if self.pending > 0 {
            self.map.len.fetch_add(self.pending, Ordering::Relaxed);
            self.pending = 0;
        }
    }
}

impl Drop for BatchedInserts<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

impl std::fmt::Debug for DistinctMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistinctMap")
            .field("len", &self.len())
            .field("table_size", &self.table_size())
            .field("generation", &self.generation)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_hash::{Hasher128, Murmur3};
    use std::sync::Arc;

    fn digest(i: u64) -> Digest128 {
        Murmur3.hash(&i.to_le_bytes())
    }

    #[test]
    fn insert_then_get() {
        let map = DistinctMap::with_capacity(16);
        let d = digest(1);
        assert!(map.insert(&d, MapEntry::new(7, 3)).inserted());
        assert_eq!(map.get(&d), Some(MapEntry::new(7, 3)));
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn duplicate_insert_returns_first_entry() {
        let map = DistinctMap::with_capacity(16);
        let d = digest(2);
        assert!(map.insert(&d, MapEntry::new(1, 0)).inserted());
        assert_eq!(
            map.insert(&d, MapEntry::new(99, 9)),
            InsertResult::Exists(MapEntry::new(1, 0))
        );
        assert_eq!(map.get(&d), Some(MapEntry::new(1, 0)));
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn missing_key_returns_none() {
        let map = DistinctMap::with_capacity(16);
        map.insert(&digest(1), MapEntry::new(0, 0));
        assert_eq!(map.get(&digest(42)), None);
        assert!(!map.contains(&digest(42)));
    }

    #[test]
    fn zero_digest_is_a_legal_key() {
        let map = DistinctMap::with_capacity(16);
        assert!(map.insert(&Digest128::ZERO, MapEntry::new(5, 1)).inserted());
        assert_eq!(map.get(&Digest128::ZERO), Some(MapEntry::new(5, 1)));
    }

    #[test]
    fn fills_to_capacity_then_reports_exhaustion() {
        let map = DistinctMap::with_capacity(8); // table = 16 slots
        let table = map.table_size();
        let mut inserted = 0;
        let mut i = 0u64;
        loop {
            match map.insert(&digest(i), MapEntry::new(i as u32, 0)) {
                InsertResult::Inserted => inserted += 1,
                InsertResult::OutOfCapacity => break,
                InsertResult::Exists(_) => panic!("unexpected duplicate"),
            }
            i += 1;
        }
        assert_eq!(inserted, table);
        // Everything inserted before exhaustion is still retrievable.
        for j in 0..inserted as u64 {
            assert_eq!(map.get(&digest(j)), Some(MapEntry::new(j as u32, 0)));
        }
    }

    #[test]
    fn clear_resets() {
        let mut map = DistinctMap::with_capacity(8);
        for i in 0..8 {
            map.insert(&digest(i), MapEntry::new(i as u32, 0));
        }
        map.clear();
        assert!(map.is_empty());
        assert_eq!(map.get(&digest(0)), None);
        assert!(map.insert(&digest(0), MapEntry::new(1, 1)).inserted());
    }

    #[test]
    fn reset_is_a_generation_bump_not_a_wipe() {
        let mut map = DistinctMap::with_capacity(8);
        for i in 0..8 {
            map.insert(&digest(i), MapEntry::new(i as u32, 0));
        }
        assert_eq!(map.generation_bumps(), 0);
        map.reset();
        assert_eq!(map.generation_bumps(), 1);
        assert!(map.is_empty());
        for i in 0..8u64 {
            assert_eq!(map.get(&digest(i)), None, "stale entries must be gone");
        }
        // Fresh epoch accepts re-inserts of the same keys with new values.
        for i in 0..8 {
            assert!(map
                .insert(&digest(i), MapEntry::new(100 + i as u32, 7))
                .inserted());
        }
        assert_eq!(map.get(&digest(3)), Some(MapEntry::new(103, 7)));
        assert_eq!(map.rehash_rebuilds(), 0);
    }

    #[test]
    fn repeated_resets_behave_like_fresh_tables() {
        let mut map = DistinctMap::with_capacity(32);
        for round in 0..100u64 {
            for i in 0..20 {
                assert!(map
                    .insert(
                        &digest(round * 1000 + i),
                        MapEntry::new(i as u32, round as u32)
                    )
                    .inserted());
            }
            assert_eq!(map.len(), 20);
            // Previous round's keys are invisible.
            if round > 0 {
                assert_eq!(map.get(&digest((round - 1) * 1000)), None);
            }
            map.reset();
        }
        assert_eq!(map.generation_bumps(), 100);
    }

    #[test]
    fn ensure_capacity_noop_within_table_grows_beyond() {
        let mut map = DistinctMap::with_capacity(8); // table = 16
        for i in 0..10 {
            map.insert(&digest(i), MapEntry::new(i as u32, 2));
        }
        map.ensure_capacity(8); // fits: not a rebuild
        assert_eq!(map.rehash_rebuilds(), 0);
        assert_eq!(map.table_size(), 16);

        map.ensure_capacity(100); // must grow and rehash live entries
        assert_eq!(map.rehash_rebuilds(), 1);
        assert!(map.table_size() >= 200);
        assert_eq!(map.len(), 10);
        for i in 0..10u64 {
            assert_eq!(map.get(&digest(i)), Some(MapEntry::new(i as u32, 2)));
        }
    }

    #[test]
    fn reset_with_hint_presizes_without_steady_state_rebuilds() {
        let mut map = DistinctMap::with_capacity(64);
        for i in 0..50 {
            map.insert(&digest(i), MapEntry::new(i as u32, 0));
        }
        let occupancy = map.len();
        map.reset_with_hint(occupancy);
        assert!(map.is_empty());
        assert_eq!(map.rehash_rebuilds(), 0, "hint within capacity: no rebuild");
        assert_eq!(map.generation_bumps(), 1);
    }

    #[test]
    fn concurrent_distinct_inserts_all_land() {
        let map = Arc::new(DistinctMap::with_capacity(10_000));
        let threads = 8;
        let per_thread = 1000;
        std::thread::scope(|s| {
            for t in 0..threads {
                let map = Arc::clone(&map);
                s.spawn(move || {
                    for i in 0..per_thread {
                        let d = digest((t * per_thread + i) as u64);
                        assert!(map.insert(&d, MapEntry::new(i as u32, t as u32)).inserted());
                    }
                });
            }
        });
        assert_eq!(map.len(), threads * per_thread);
        for k in 0..(threads * per_thread) as u64 {
            assert!(map.contains(&digest(k)));
        }
    }

    #[test]
    fn concurrent_inserts_after_reset_see_no_ghosts() {
        let mut owned = DistinctMap::with_capacity(10_000);
        for i in 0..5000u64 {
            owned.insert(&digest(i), MapEntry::new(i as u32, 0));
        }
        owned.reset();
        let map = Arc::new(owned);
        std::thread::scope(|s| {
            for t in 0..8usize {
                let map = Arc::clone(&map);
                s.spawn(move || {
                    for i in 0..625 {
                        let k = (t * 625 + i) as u64;
                        // Same keys as the stale epoch: every insert must win.
                        assert!(map
                            .insert(&digest(k), MapEntry::new(k as u32, 1))
                            .inserted());
                    }
                });
            }
        });
        assert_eq!(map.len(), 5000);
    }

    #[test]
    fn concurrent_same_key_has_exactly_one_winner() {
        for _round in 0..50 {
            let map = Arc::new(DistinctMap::with_capacity(64));
            let d = digest(77);
            let winners = Arc::new(AtomicUsize::new(0));
            std::thread::scope(|s| {
                for t in 0..8u32 {
                    let map = Arc::clone(&map);
                    let winners = Arc::clone(&winners);
                    s.spawn(move || {
                        if map.insert(&d, MapEntry::new(t, t)).inserted() {
                            winners.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
            });
            assert_eq!(winners.load(Ordering::Relaxed), 1);
            assert_eq!(map.len(), 1);
            // The stored entry is the winner's own (node == ckpt here), i.e.
            // a consistent pair, never a torn mix of two threads' writes.
            let e = map.get(&d).unwrap();
            assert_eq!(e.node, e.ckpt);
        }
    }

    #[test]
    fn update_with_applies_cas() {
        let map = DistinctMap::with_capacity(16);
        let d = digest(5);
        map.insert(&d, MapEntry::new(10, 2));
        // Decline: entry unchanged, before == after.
        let seen = map.update_with(&d, |_| None);
        assert_eq!(seen, Some((MapEntry::new(10, 2), MapEntry::new(10, 2))));
        // Replace when the new node is smaller; `before` is the displaced entry.
        let new = map.update_with(&d, |e| (3 < e.node).then_some(MapEntry::new(3, 2)));
        assert_eq!(new, Some((MapEntry::new(10, 2), MapEntry::new(3, 2))));
        assert_eq!(map.get(&d), Some(MapEntry::new(3, 2)));
        // Absent key.
        assert_eq!(map.update_with(&digest(999), |_| None), None);
    }

    #[test]
    fn concurrent_update_with_converges_to_minimum() {
        let map = Arc::new(DistinctMap::with_capacity(64));
        let d = digest(9);
        map.insert(&d, MapEntry::new(u32::MAX, 1));
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let map = Arc::clone(&map);
                s.spawn(move || {
                    for node in (t * 100)..(t * 100 + 100) {
                        map.update_with(&d, |e| (node < e.node).then_some(MapEntry::new(node, 1)));
                    }
                });
            }
        });
        assert_eq!(map.get(&d), Some(MapEntry::new(0, 1)));
    }

    #[test]
    fn batched_inserts_flush_len_once() {
        let map = DistinctMap::with_capacity(64);
        {
            let mut batch = map.batch();
            for i in 0..10 {
                assert!(batch
                    .insert(&digest(i), MapEntry::new(i as u32, 0))
                    .inserted());
            }
            // Duplicates don't count toward the batch tally.
            assert!(!batch.insert(&digest(0), MapEntry::new(9, 9)).inserted());
            batch.flush();
            assert_eq!(map.len(), 10);
            // A drop after an explicit flush must not double-count.
        }
        assert_eq!(map.len(), 10);
        // Drop without explicit flush also settles the counter.
        {
            let mut batch = map.batch();
            assert!(batch.insert(&digest(100), MapEntry::new(1, 1)).inserted());
        }
        assert_eq!(map.len(), 11);
    }

    #[test]
    fn concurrent_batched_inserts_settle_to_exact_len() {
        let map = Arc::new(DistinctMap::with_capacity(10_000));
        std::thread::scope(|s| {
            for t in 0..8usize {
                let map = Arc::clone(&map);
                s.spawn(move || {
                    let mut batch = map.batch();
                    for i in 0..1000 {
                        batch.insert(&digest((t * 1000 + i) as u64), MapEntry::new(i as u32, 0));
                    }
                });
            }
        });
        assert_eq!(map.len(), 8000);
    }

    #[test]
    fn prefetch_is_only_a_hint() {
        assert_eq!(std::mem::size_of::<Slot>(), 32);
        let map = DistinctMap::with_capacity(8);
        for i in 0..64 {
            map.prefetch(&digest(i));
        }
        assert!(map.is_empty());
        for i in 0..8 {
            map.prefetch(&digest(i));
            assert!(map
                .insert(&digest(i), MapEntry::new(i as u32, 0))
                .inserted());
            map.prefetch(&digest(i));
            assert_eq!(map.get(&digest(i)), Some(MapEntry::new(i as u32, 0)));
        }
        assert_eq!(map.len(), 8);
    }

    #[test]
    fn entry_packing_round_trip() {
        let e = MapEntry::new(u32::MAX - 1, 12345);
        assert_eq!(MapEntry::unpack(e.pack()), e);
    }
}
