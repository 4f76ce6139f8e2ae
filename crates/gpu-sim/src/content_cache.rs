//! Device-resident chunk-content cache for hash-collision verification.
//!
//! §2.4: "we did not consider hash collisions. If hash collisions are a
//! concern, they can be mitigated by using a cache of chunks that can be
//! directly compared in parallel with the metadata compaction." This is
//! that cache: a fixed-capacity, insert-only open-addressing table mapping a
//! digest to the chunk bytes that first produced it, with the same
//! EMPTY→BUSY→FULL slot protocol as [`crate::DistinctMap`]. Probing is
//! bounded, there is no eviction, and a full probe window simply reports
//! "not cached" — verification is best-effort by design, trading bounded GPU
//! memory for collision coverage.

use ckpt_hash::Digest128;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};

const EMPTY: u8 = 0;
const BUSY: u8 = 1;
const FULL: u8 = 2;

/// Bounded linear-probe window; beyond it an insert/lookup gives up.
const PROBE_WINDOW: usize = 16;

/// Outcome of [`ContentCache::verify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verification {
    /// Cached bytes equal the candidate: the reference is genuine.
    Match,
    /// Cached bytes differ: a hash collision — do not de-duplicate.
    Collision,
    /// Digest not cached (evicted by capacity / never inserted): unverifiable.
    Unknown,
}

struct Slot {
    state: AtomicU8,
    key: UnsafeCell<Digest128>,
    /// Length of the stored chunk (the final chunk of a buffer may be short).
    len: UnsafeCell<u32>,
}

// SAFETY: same protocol as DistinctMap — `key`/`len` (and this slot's span of
// the shared `data` buffer) are written only by the unique BUSY owner before
// the release store of FULL, and read only after an acquire load of FULL.
unsafe impl Sync for Slot {}

/// Fixed-capacity digest → chunk-bytes cache.
pub struct ContentCache {
    slots: Box<[Slot]>,
    /// Flat chunk storage, `chunk_size` bytes per slot. Byte-granular
    /// `UnsafeCell`s so concurrent writers of *different* slots never form
    /// references overlapping each other's spans.
    data: Box<[UnsafeCell<u8>]>,
    chunk_size: usize,
    mask: usize,
    len: AtomicUsize,
}

// SAFETY: `data` is partitioned into per-slot spans governed by the slot
// protocol above.
unsafe impl Sync for ContentCache {}

impl ContentCache {
    /// A cache for `capacity` chunks of at most `chunk_size` bytes.
    pub fn new(capacity: usize, chunk_size: usize) -> Self {
        let table = capacity.max(1).next_power_of_two();
        ContentCache {
            slots: (0..table)
                .map(|_| Slot {
                    state: AtomicU8::new(EMPTY),
                    key: UnsafeCell::new(Digest128::ZERO),
                    len: UnsafeCell::new(0),
                })
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            data: (0..table * chunk_size)
                .map(|_| UnsafeCell::new(0u8))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            chunk_size,
            mask: table - 1,
            len: AtomicUsize::new(0),
        }
    }

    /// Number of cached chunks.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Device memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.slots.len() * (std::mem::size_of::<Slot>() + self.chunk_size)
    }

    #[inline]
    fn start_index(&self, digest: &Digest128) -> usize {
        (digest.h1 ^ digest.h2.rotate_left(32)) as usize & self.mask
    }

    /// Cache `bytes` under `digest` (first writer wins). Returns `false` when
    /// the probe window was exhausted (not cached).
    pub fn insert(&self, digest: &Digest128, bytes: &[u8]) -> bool {
        assert!(
            bytes.len() <= self.chunk_size,
            "chunk exceeds cache slot size"
        );
        let start = self.start_index(digest);
        for probe in 0..PROBE_WINDOW.min(self.slots.len()) {
            let idx = (start + probe) & self.mask;
            let slot = &self.slots[idx];
            let mut state = slot.state.load(Ordering::Acquire);
            if state == EMPTY {
                match slot
                    .state
                    .compare_exchange(EMPTY, BUSY, Ordering::AcqRel, Ordering::Acquire)
                {
                    Ok(_) => {
                        // SAFETY: unique BUSY owner of slot `idx` and its
                        // data span; published by the release store below.
                        unsafe {
                            *slot.key.get() = *digest;
                            *slot.len.get() = bytes.len() as u32;
                            let base = idx * self.chunk_size;
                            let dst = self.data.as_ptr().add(base) as *mut u8;
                            std::ptr::copy_nonoverlapping(bytes.as_ptr(), dst, bytes.len());
                        }
                        slot.state.store(FULL, Ordering::Release);
                        self.len.fetch_add(1, Ordering::Relaxed);
                        return true;
                    }
                    Err(observed) => state = observed,
                }
            }
            while state == BUSY {
                std::hint::spin_loop();
                state = slot.state.load(Ordering::Acquire);
            }
            // SAFETY: FULL observed with acquire ordering.
            if unsafe { *slot.key.get() } == *digest {
                return true; // already cached (first writer won)
            }
        }
        false
    }

    /// Compare `bytes` against the cached content for `digest`.
    pub fn verify(&self, digest: &Digest128, bytes: &[u8]) -> Verification {
        let start = self.start_index(digest);
        for probe in 0..PROBE_WINDOW.min(self.slots.len()) {
            let idx = (start + probe) & self.mask;
            let slot = &self.slots[idx];
            let mut state = slot.state.load(Ordering::Acquire);
            if state == EMPTY {
                return Verification::Unknown;
            }
            while state == BUSY {
                std::hint::spin_loop();
                state = slot.state.load(Ordering::Acquire);
            }
            // SAFETY: FULL observed with acquire ordering.
            let (key, len) = unsafe { (*slot.key.get(), *slot.len.get() as usize) };
            if key == *digest {
                let base = idx * self.chunk_size;
                // SAFETY: this span was fully written before FULL and is
                // never written again (insert-only).
                let cached: &[u8] = unsafe {
                    std::slice::from_raw_parts(self.data.as_ptr().add(base) as *const u8, len)
                };
                return if cached == bytes {
                    Verification::Match
                } else {
                    Verification::Collision
                };
            }
        }
        Verification::Unknown
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
    fn insert_then_verify() {
        let cache = ContentCache::new(64, 32);
        let d = digest(1);
        assert!(cache.insert(&d, b"hello chunk"));
        assert_eq!(cache.verify(&d, b"hello chunk"), Verification::Match);
        assert_eq!(cache.verify(&d, b"other bytes"), Verification::Collision);
        assert_eq!(
            cache.verify(&digest(2), b"hello chunk"),
            Verification::Unknown
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn first_writer_wins() {
        let cache = ContentCache::new(64, 32);
        let d = digest(3);
        assert!(cache.insert(&d, b"first"));
        assert!(cache.insert(&d, b"second")); // reports cached, keeps "first"
        assert_eq!(cache.verify(&d, b"first"), Verification::Match);
        assert_eq!(cache.verify(&d, b"second"), Verification::Collision);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn variable_chunk_lengths() {
        let cache = ContentCache::new(16, 64);
        let d = digest(4);
        cache.insert(&d, b"short");
        assert_eq!(cache.verify(&d, b"short"), Verification::Match);
        assert_eq!(
            cache.verify(&d, b"short but longer"),
            Verification::Collision
        );
    }

    #[test]
    fn bounded_probe_window_degrades_to_unknown() {
        // A 1-slot-window... fill a tiny cache completely; further inserts
        // fail and lookups of uncached digests report Unknown.
        let cache = ContentCache::new(2, 16); // 2 slots
        let mut inserted = 0;
        for i in 0..10u64 {
            if cache.insert(&digest(100 + i), &[i as u8; 8]) {
                inserted += 1;
            }
        }
        assert!(inserted >= 2);
        assert_eq!(cache.len(), 2);
        // Everything else is unverifiable, never wrong.
        for i in 0..10u64 {
            let v = cache.verify(&digest(100 + i), &[i as u8; 8]);
            assert_ne!(v, Verification::Collision);
        }
    }

    #[test]
    fn concurrent_inserts_are_consistent() {
        let cache = Arc::new(ContentCache::new(4096, 16));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let cache = Arc::clone(&cache);
                s.spawn(move || {
                    for i in 0..500u64 {
                        let d = digest(i); // all threads insert the same keys
                        cache.insert(&d, &i.to_le_bytes());
                        let _ = t;
                    }
                });
            }
        });
        for i in 0..500u64 {
            assert_eq!(
                cache.verify(&digest(i), &i.to_le_bytes()),
                Verification::Match,
                "key {i}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "exceeds cache slot size")]
    fn oversized_chunk_rejected() {
        let cache = ContentCache::new(4, 8);
        cache.insert(&digest(0), &[0u8; 9]);
    }
}
