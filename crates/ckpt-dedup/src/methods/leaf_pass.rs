//! The shared leaf-hashing pass (Algorithm 1, lines 1–23).
//!
//! Both the `List` and `Tree` methods start identically: hash every chunk in
//! parallel, classify it as a fixed duplicate (same digest at the same
//! position as the previous checkpoint), a first occurrence (digest new to
//! the historical record) or a shifted duplicate (digest already recorded at
//! a different position), and keep the historical record pointing at the
//! *earliest* occurrence within the current checkpoint (lines 13–16).

use crate::labels::Label;
use crate::methods::pipeline::Pass;
use crate::util::SharedSliceMut;
use ckpt_hash::Digest128;
use gpu_sim::{
    BatchedInserts, ContentCache, InsertResult, KernelCost, MapEntry, Verification, TILE,
};
use std::sync::atomic::{AtomicU64, Ordering};

/// Run the leaf pass of one checkpoint: `pass.labels` receives the per-leaf
/// classification, `pass.dirty` the bit of every leaf that is not a fixed
/// duplicate, and `pass.map` the first occurrences.
///
/// With a content cache (§2.4's hash-collision mitigation) first occurrences
/// are cached; candidate duplicates whose cached bytes differ are
/// *collisions* and are stored instead of referenced, under a salted digest
/// so no ancestor consolidates on the colliding value.
pub(crate) fn run(pass: &mut Pass<'_>) {
    let Pass {
        device,
        shape,
        chunking,
        hasher,
        data,
        labels,
        dirty,
        map,
        cache,
        ckpt_id,
        force_all,
        ..
    } = *pass;
    debug_assert_eq!(data.len(), chunking.data_len());
    debug_assert_eq!(shape.n_chunks(), chunking.n_chunks());
    let tree = SharedSliceMut::new(pass.digests);
    let n = chunking.n_chunks();
    let cost = KernelCost::stream(data.len() as u64)
        .with_writes((n * std::mem::size_of::<Digest128>()) as u64);

    // A detected collision must not be referenced *or* become
    // referenceable: the chunk is stored as a first occurrence under a
    // digest salted with its position, which no other content hashes to.
    let collide_to_first = |scratch: &mut [u8; 32], leaf: usize, digest: &Digest128| {
        let salt = Digest128::new(leaf as u64, ckpt_id as u64 | 1 << 63);
        let salted = hasher.combine_with(digest, &salt, scratch);
        // SAFETY: leaf owned by this thread.
        unsafe { tree.write(leaf, salted) };
        labels.set(leaf, Label::FirstOcur);
    };

    // Step 1 for chunk `c` at `leaf`, whose content hashes to `digest`:
    // settle it if it is a fixed duplicate (same digest at the same
    // position) or a collision under one; `true` when it must probe the
    // record instead.
    let settle_fixed = |scratch: &mut [u8; 32],
                        marks: &mut DirtyMarks<'_>,
                        c: usize,
                        leaf: usize,
                        digest: &Digest128| {
        // SAFETY: leaf index owned by this thread for this kernel (the
        // chunk→leaf map is a bijection).
        let prev = unsafe { tree.read(leaf) };
        if force_all || ckpt_id == 0 || *digest != prev {
            return true;
        }
        // With verification on, guard against the chunk having changed
        // into a colliding value.
        let chunk = chunking.chunk(data, c);
        match cache.map_or(Verification::Unknown, |c| c.verify(digest, chunk)) {
            Verification::Collision => {
                marks.mark(leaf);
                collide_to_first(scratch, leaf, digest);
            }
            _ => labels.set(leaf, Label::FixedDupl),
        }
        false
    };

    // Step 2 for a chunk step 1 listed: classify it against the record.
    let classify = |batch: &mut BatchedInserts<'_>,
                    scratch: &mut [u8; 32],
                    c: usize,
                    leaf: usize,
                    digest: Digest128| {
        let chunk = chunking.chunk(data, c);
        // SAFETY: leaf owned by this thread, as in step 1.
        unsafe { tree.write(leaf, digest) };

        // "Earlier" between two occurrences in the same checkpoint means
        // smaller *chunk index* (data order), matching the sequential
        // reference implementation exactly.
        let earlier =
            |a: u32, b: u32| shape.chunk_of_leaf(a as usize) < shape.chunk_of_leaf(b as usize);

        // Candidate duplicate paths verify content first when a cache is on.
        let verified_collision = |cache: Option<&ContentCache>| {
            cache.is_some_and(|c| c.verify(&digest, chunk) == Verification::Collision)
        };

        match batch.insert(&digest, MapEntry::new(leaf as u32, ckpt_id)) {
            InsertResult::Inserted => {
                if let Some(c) = cache {
                    c.insert(&digest, chunk);
                }
                // An earlier leaf that displaces this one marks it
                // ShiftDupl, before or after this claim.
                labels.claim_first(leaf);
            }
            InsertResult::Exists(_) if verified_collision(cache) => {
                collide_to_first(scratch, leaf, &digest)
            }
            InsertResult::Exists(e) if e.ckpt == ckpt_id && earlier(leaf as u32, e.node) => {
                // This leaf is earlier than the recorded occurrence in the
                // same checkpoint: make it canonical (lines 13–16) and
                // relabel whoever we displaced as a shifted duplicate.
                let (before, after) = map
                    .update_with(&digest, |cur| {
                        (cur.ckpt == ckpt_id && earlier(leaf as u32, cur.node))
                            .then_some(MapEntry::new(leaf as u32, ckpt_id))
                    })
                    .expect("digest just observed must be present");
                if after == MapEntry::new(leaf as u32, ckpt_id) {
                    labels.claim_first(leaf);
                    if before.ckpt == ckpt_id && before.node != leaf as u32 {
                        labels.set(before.node as usize, Label::ShiftDupl);
                    }
                } else {
                    // An even earlier leaf won while we were retrying.
                    labels.set(leaf, Label::ShiftDupl);
                }
            }
            InsertResult::Exists(_) => labels.set(leaf, Label::ShiftDupl),
            InsertResult::OutOfCapacity => {
                // Historical record exhausted: degrade gracefully by storing
                // the chunk as payload (no dedup opportunity recorded).
                labels.set(leaf, Label::FirstOcur)
            }
        }
    };

    // Per-tile kernel state: a batched map-insert handle (one shared `len`
    // atomic update per tile instead of per inserted digest) and a reusable
    // salt-combine scratch buffer (no per-collision allocation). A tile is
    // hashed in one batch call, then walked twice: step 1 settles the fixed
    // duplicates, lists the other chunks, marks their dirty bits and
    // prefetches their record slots; step 2 probes the record for the
    // listed chunks in chunk order, their misses already in flight.
    let state = || (map.batch(), [0u8; 32]);
    device.parallel_for_tiles("leaf_hash_and_classify", n, cost, state, |state, tile| {
        let (batch, scratch) = state;
        let mut digests = [Digest128::ZERO; TILE];
        let digests = chunking.hash_tile(hasher, data, &tile, &mut digests);
        // Offsets into the tile of the chunks step 2 classifies.
        let mut listed = [0u8; TILE];
        let mut n_listed = 0;
        let mut marks = DirtyMarks::new(dirty);
        for (k, (c, digest)) in tile.clone().zip(digests).enumerate() {
            let leaf = shape.leaf_of_chunk(c);
            if settle_fixed(scratch, &mut marks, c, leaf, digest) {
                marks.mark(leaf);
                map.prefetch(digest);
                listed[n_listed] = k as u8;
                n_listed += 1;
            }
        }
        marks.flush();
        for &k in &listed[..n_listed] {
            let (c, digest) = (tile.start + k as usize, digests[k as usize]);
            classify(batch, scratch, c, shape.leaf_of_chunk(c), digest);
        }
    });
}

/// One tile's dirty bits, folded into one relaxed `fetch_or` per touched
/// word instead of one per changed leaf. A tile's leaves ascend within each
/// of the tree's two leaf depths, so a word is flushed whenever the next
/// leaf lies in another. The set is read only after the kernel's barrier.
struct DirtyMarks<'a> {
    dirty: &'a [AtomicU64],
    word: usize,
    bits: u64,
}

impl<'a> DirtyMarks<'a> {
    fn new(dirty: &'a [AtomicU64]) -> Self {
        DirtyMarks {
            dirty,
            word: 0,
            bits: 0,
        }
    }

    fn mark(&mut self, leaf: usize) {
        if leaf / 64 != self.word {
            self.flush();
            self.word = leaf / 64;
        }
        self.bits |= 1 << (leaf % 64);
    }

    fn flush(&mut self) {
        if self.bits != 0 {
            self.dirty[self.word].fetch_or(self.bits, Ordering::Relaxed);
            self.bits = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunking::Chunking;
    use crate::labels::LabelArray;
    use crate::methods::StageRecorder;
    use crate::tree::TreeShape;
    use ckpt_hash::{Hasher128, Murmur3};
    use gpu_sim::{Device, DistinctMap};
    use std::sync::atomic::AtomicU64;

    /// One record's leaf-pass state: what the checkpointer body keeps
    /// between checkpoints, with a map of `record_capacity` digests.
    struct Record {
        device: Device,
        chunking: Chunking,
        shape: TreeShape,
        digests: Vec<Digest128>,
        labels: LabelArray,
        dirty: Vec<AtomicU64>,
        map: DistinctMap,
        ckpt_id: u32,
    }

    impl Record {
        fn new(n_chunks: usize, record_capacity: usize) -> Record {
            let chunking = Chunking::new(32 * n_chunks, 32);
            let shape = TreeShape::new(chunking.n_chunks());
            Record {
                device: Device::a100(),
                chunking,
                shape,
                digests: vec![Digest128::ZERO; shape.n_nodes()],
                labels: LabelArray::new(shape.n_nodes()),
                dirty: (0..shape.n_nodes().div_ceil(64))
                    .map(|_| AtomicU64::new(0))
                    .collect(),
                map: DistinctMap::with_capacity(record_capacity),
                ckpt_id: 0,
            }
        }

        /// Leaf pass of the next checkpoint; returns `(first, fixed, shift)`
        /// leaf counts, after checking one dirty bit per leaf that is not a
        /// fixed duplicate.
        fn checkpoint(&mut self, data: &[u8]) -> (u64, u64, u64) {
            self.labels.clear();
            for word in &mut self.dirty {
                *word.get_mut() = 0;
            }
            run(&mut Pass {
                device: &self.device,
                shape: self.shape,
                chunking: self.chunking,
                hasher: &Murmur3,
                data,
                digests: &mut self.digests,
                labels: &self.labels,
                dirty: &self.dirty,
                map: &self.map,
                cache: None,
                ckpt_id: self.ckpt_id,
                force_all: false,
                stages: StageRecorder::start(&self.device),
            });
            self.ckpt_id += 1;
            let mut counts = (0, 0, 0);
            for c in 0..self.shape.n_chunks() {
                let leaf = self.shape.leaf_of_chunk(c);
                let marked = (self.dirty[leaf / 64].load(Ordering::Relaxed) >> (leaf % 64)) & 1;
                match self.labels.get(leaf) {
                    Label::FirstOcur => counts.0 += 1,
                    Label::FixedDupl => counts.1 += 1,
                    Label::ShiftDupl => counts.2 += 1,
                    other => unreachable!("leaf with label {other:?} after leaf pass"),
                }
                assert_eq!(
                    marked == 1,
                    self.labels.get(leaf) != Label::FixedDupl,
                    "chunk {c}: dirty bit"
                );
            }
            counts
        }
    }

    /// 32-byte chunks, each filled with its tag.
    fn chunks(tags: &[u8]) -> Vec<u8> {
        tags.iter().flat_map(|&t| [t; 32]).collect()
    }

    #[test]
    fn first_checkpoint_all_first_or_shift() {
        let mut rec = Record::new(8, 64);
        // Chunks: A B A B C C D E -> first occurrences A,B,C,D,E; shifts: 3.
        let counts = rec.checkpoint(&chunks(&[0, 1, 0, 1, 2, 2, 3, 4]));
        assert_eq!(counts, (5, 0, 3));
        assert_eq!(rec.map.len(), 5);
    }

    #[test]
    fn earliest_leaf_is_canonical() {
        let mut rec = Record::new(4, 16);
        let data = chunks(&[7; 4]);
        rec.checkpoint(&data);

        let entry = rec.map.get(&Murmur3.hash(&data[0..32])).unwrap();
        // Canonical occurrence is the leaf with the smallest node id among
        // the four (all four leaves hold the same digest).
        let min_leaf = (0..4).map(|c| rec.shape.leaf_of_chunk(c)).min().unwrap();
        assert_eq!(entry.node as usize, min_leaf);
        assert_eq!(rec.labels.get(min_leaf), Label::FirstOcur);
    }

    #[test]
    fn second_checkpoint_fixed_duplicates() {
        let mut rec = Record::new(4, 64);
        rec.checkpoint(&chunks(&[1, 2, 3, 4]));
        // Second checkpoint: chunk 2 modified, rest unchanged.
        assert_eq!(rec.checkpoint(&chunks(&[1, 2, 9, 4])), (1, 3, 0));
    }

    #[test]
    fn second_checkpoint_shifted_duplicate_of_old_data() {
        let mut rec = Record::new(4, 64);
        rec.checkpoint(&chunks(&[1, 2, 3, 4]));
        // Chunk 0 now holds chunk 3's old content: shifted duplicate.
        let data = chunks(&[4, 2, 3, 4]);
        rec.checkpoint(&data);
        assert_eq!(rec.labels.get(rec.shape.leaf_of_chunk(0)), Label::ShiftDupl);
        let entry = rec.map.get(&Murmur3.hash(&data[0..32])).unwrap();
        assert_eq!(entry.ckpt, 0);
        assert_eq!(entry.node as usize, rec.shape.leaf_of_chunk(3));
    }

    #[test]
    fn degrades_to_first_ocur_when_map_full() {
        let mut rec = Record::new(8, 1); // 2-slot table, fills instantly
        let data: Vec<u8> = (0..256u32)
            .map(|i| (i / 32) as u8 * 17 + (i % 32) as u8)
            .collect();
        // All chunks distinct; whatever did not fit became FirstOcur anyway.
        assert_eq!(rec.checkpoint(&data), (8, 0, 0));
    }
}
