//! Hash-collision behaviour (§2.4).
//!
//! The paper ignores collisions (2⁻¹²⁸ with Murmur3) but notes "they can be
//! mitigated by using a cache of chunks that can be directly compared in
//! parallel". These tests drive the Tree method with a deliberately weak
//! hash that collides on chunks sharing an 8-byte prefix, demonstrating
//! (a) that an unverified record silently restores *wrong bytes* under
//! collisions, and (b) that enabling the content-cache verification restores
//! exactly, storing colliding chunks instead of referencing them.

use ckpt_bench::oracle::restore_record;
use ckpt_dedup::prelude::*;
use ckpt_hash::{Digest128, Hasher128, Murmur3};
use gpu_sim::Device;

const CS: usize = 32;

/// Weak leaf hash: digests depend only on the first 8 bytes of the chunk
/// (chunks with equal prefixes collide). Inner-node combination stays full
/// strength so the collision surface is exactly the leaf level.
#[derive(Debug, Clone, Copy)]
struct PrefixHasher;

impl Hasher128 for PrefixHasher {
    fn hash_seeded(&self, data: &[u8], seed: u32) -> Digest128 {
        Murmur3.hash_seeded(&data[..data.len().min(8)], seed)
    }

    fn combine(&self, left: &Digest128, right: &Digest128) -> Digest128 {
        Murmur3.combine(left, right)
    }

    fn name(&self) -> &'static str {
        "prefix8-weak"
    }
}

/// Two chunk contents that collide under [`PrefixHasher`] but differ.
fn colliding_pair() -> (Vec<u8>, Vec<u8>) {
    let mut a = vec![0xAAu8; CS];
    let mut b = vec![0xAAu8; CS];
    a[8..].fill(1);
    b[8..].fill(2);
    assert_ne!(a, b);
    assert_eq!(PrefixHasher.hash(&a), PrefixHasher.hash(&b));
    (a, b)
}

/// One checkpoint containing both colliding chunks plus distinct filler.
fn snapshot() -> Vec<u8> {
    let (a, b) = colliding_pair();
    let mut v = Vec::new();
    v.extend_from_slice(&a);
    for t in 0..6u8 {
        v.extend((0..CS).map(|i| t.wrapping_mul(97).wrapping_add(i as u8 + 3)));
    }
    v.extend_from_slice(&b);
    v
}

#[test]
fn weak_hash_without_verification_corrupts_silently() {
    let data = snapshot();
    let mut m =
        TreeCheckpointer::with_hasher(Device::a100(), TreeConfig::new(CS), Box::new(PrefixHasher));
    let diff = m.checkpoint(&data).diff;
    let restored = restore_record(std::slice::from_ref(&diff)).unwrap();
    // Chunk 7 (content b) was de-duplicated against chunk 0 (content a):
    // the restore "succeeds" but returns a's bytes where b's should be.
    let (a, b) = colliding_pair();
    assert_eq!(
        &restored[0][7 * CS..8 * CS],
        &a[..],
        "collision aliased to first content"
    );
    assert_ne!(&restored[0][7 * CS..8 * CS], &b[..]);
    assert_ne!(
        restored[0], data,
        "unverified weak hashing must corrupt this input"
    );
}

#[test]
fn verification_detects_collisions_and_restores_exactly() {
    let data = snapshot();
    let mut m = TreeCheckpointer::with_hasher(
        Device::a100(),
        TreeConfig::new(CS).with_collision_verification(),
        Box::new(PrefixHasher),
    );
    let out = m.checkpoint(&data);
    let restored = restore_record(&[out.diff]).unwrap();
    assert_eq!(
        restored[0], data,
        "verified record must restore bit-exactly"
    );
}

#[test]
fn verification_is_stable_across_checkpoints() {
    // The colliding chunk keeps being stored (never referenced) in every
    // checkpoint, and genuine duplicates still de-duplicate.
    let data = snapshot();
    let mut m = TreeCheckpointer::with_hasher(
        Device::a100(),
        TreeConfig::new(CS).with_collision_verification(),
        Box::new(PrefixHasher),
    );
    let mut diffs = Vec::new();
    for _ in 0..3 {
        diffs.push(m.checkpoint(&data).diff);
    }
    let restored = restore_record(&diffs).unwrap();
    for v in &restored {
        assert_eq!(v, &data);
    }
    // Unchanged checkpoints after the first stay small: only the re-stored
    // colliding chunk plus headers/metadata.
    assert!(diffs[1].stored_bytes() < data.len() / 2);
    assert_eq!(
        diffs[1].payload.len(),
        CS,
        "exactly the colliding chunk re-stored"
    );
}

#[test]
fn verification_with_strong_hash_changes_nothing() {
    // With Murmur3 the cache never fires a collision: diffs are identical
    // with and without verification on ordinary data.
    let snaps: Vec<Vec<u8>> = (0..3u8)
        .map(|k| {
            (0..256 * CS)
                .map(|i| (i as u32).wrapping_mul(2654435761).wrapping_add(k as u32) as u8)
                .collect()
        })
        .collect();
    let mut plain = TreeCheckpointer::new(Device::a100(), TreeConfig::new(CS));
    let mut verified = TreeCheckpointer::new(
        Device::a100(),
        TreeConfig::new(CS).with_collision_verification(),
    );
    for s in &snaps {
        let a = plain.checkpoint(s);
        let b = verified.checkpoint(s);
        assert_eq!(a.diff, b.diff);
    }
}

#[test]
fn fixed_position_collision_is_caught_too() {
    // A chunk mutates *in place* into a colliding value: the fixed-duplicate
    // check would silently skip it; verification forces a store.
    let (a, b) = colliding_pair();
    let mut data = vec![0u8; 4 * CS];
    data[..CS].copy_from_slice(&a);
    for (i, byte) in data[CS..].iter_mut().enumerate() {
        *byte = (i as u8).wrapping_mul(13).wrapping_add(7);
    }
    let mut m = TreeCheckpointer::with_hasher(
        Device::a100(),
        TreeConfig::new(CS).with_collision_verification(),
        Box::new(PrefixHasher),
    );
    let d0 = m.checkpoint(&data).diff;
    data[..CS].copy_from_slice(&b); // collides with its own previous digest
    let d1 = m.checkpoint(&data).diff;
    let restored = restore_record(&[d0, d1]).unwrap();
    assert_eq!(&restored[1][..CS], &b[..]);
    assert_eq!(restored[1], data);
}
