//! Thread-count determinism: the executor guarantees that every parallel
//! terminal produces results in deterministic item order, so the encoded
//! checkpoint bytes and the restored snapshots must be bit-identical no
//! matter how many worker threads the pool runs.
//!
//! This file is its own test binary, so flipping the global thread-count
//! override cannot race with unrelated tests; within the binary the
//! override-touching tests share `THREAD_LOCK`.

use ckpt_dedup::prelude::*;
use gpu_sim::{Device, TILE};
use std::sync::Mutex;

static THREAD_LOCK: Mutex<()> = Mutex::new(());

/// Deterministic pseudo-random snapshot sequence with realistic structure:
/// sparse point edits, block fills, region copies and one full revert, so
/// all three chunk classes (first-occurrence, shifted-duplicate, repeat)
/// appear.
fn workload(len: usize, n_snapshots: usize) -> Vec<Vec<u8>> {
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut data: Vec<u8> = (0..len).map(|i| (i / 9) as u8).collect();
    let mut snapshots = vec![data.clone()];
    for v in 1..n_snapshots {
        match v % 4 {
            0 => {
                // Sparse point edits.
                for _ in 0..len / 50 {
                    let at = (next() as usize) % len;
                    data[at] = next() as u8;
                }
            }
            1 => {
                // Block fill.
                let at = (next() as usize) % len;
                let end = (at + len / 8).min(len);
                data[at..end].fill(next() as u8);
            }
            2 => {
                // Shift a region (creates shifted duplicates).
                let src = (next() as usize) % (len / 2);
                let dst = len / 2 + (next() as usize) % (len / 4);
                let n = (len / 6).min(len - dst);
                let tmp = data[src..src + n].to_vec();
                data[dst..dst + n].copy_from_slice(&tmp);
            }
            _ => {
                // Revert to the first snapshot (pure repeats).
                data.copy_from_slice(&snapshots[0]);
            }
        }
        snapshots.push(data.clone());
    }
    snapshots
}

fn encoded_record(method: &mut dyn Checkpointer, snapshots: &[Vec<u8>]) -> Vec<Vec<u8>> {
    snapshots
        .iter()
        .map(|s| method.checkpoint(s).diff.encode())
        .collect()
}

fn run_method_at(
    threads: usize,
    make: &dyn Fn() -> Box<dyn Checkpointer>,
    snapshots: &[Vec<u8>],
) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    rayon::set_active_threads(threads);
    let mut m = make();
    let encoded = encoded_record(m.as_mut(), snapshots);
    let diffs: Vec<ckpt_dedup::Diff> = encoded
        .iter()
        .map(|e| ckpt_dedup::Diff::decode(e).expect("decode"))
        .collect();
    let restored = restore_record(&diffs).expect("restore must succeed");
    (encoded, restored)
}

fn assert_bit_identical_across_threads(name: &str, make: &dyn Fn() -> Box<dyn Checkpointer>) {
    let _guard = THREAD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Large enough that leaf kernels exceed the 1024-item sequential
    // threshold and the pool genuinely runs multi-chunk jobs.
    let snapshots = workload(200_000, 8);
    let sweep = [1usize, 2, rayon::current_num_threads().max(4)];

    let (ref_encoded, ref_restored) = run_method_at(sweep[0], make, &snapshots);
    for (got, want) in ref_restored.iter().zip(&snapshots) {
        assert_eq!(got, want, "{name}: restore diverged from source");
    }
    for &threads in &sweep[1..] {
        let (encoded, restored) = run_method_at(threads, make, &snapshots);
        assert_eq!(
            encoded, ref_encoded,
            "{name}: checkpoint bytes differ between 1 and {threads} threads"
        );
        assert_eq!(
            restored, ref_restored,
            "{name}: restored snapshots differ between 1 and {threads} threads"
        );
    }
    rayon::set_active_threads(0);
}

/// Device-arena pooling must be invisible in the output: a checkpointer
/// reusing leased buffers and one whose device arena is trimmed before
/// every checkpoint (every lease allocates fresh) must produce the same
/// bytes at every thread count.
fn assert_pooled_matches_unpooled(name: &str, make: &dyn Fn(Device) -> Box<dyn Checkpointer>) {
    let _guard = THREAD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let snapshots = workload(200_000, 8);
    for threads in [1usize, 2, rayon::current_num_threads().max(4)] {
        rayon::set_active_threads(threads);
        let mut pooled = make(Device::a100());
        let a = encoded_record(pooled.as_mut(), &snapshots);
        let device = Device::a100();
        let mut unpooled = make(device.clone());
        let b: Vec<Vec<u8>> = snapshots
            .iter()
            .map(|s| {
                device.arena().trim();
                unpooled.checkpoint(s).diff.encode()
            })
            .collect();
        assert_eq!(
            a, b,
            "{name}: pooled and unpooled checkpoints differ at {threads} threads"
        );
    }
    rayon::set_active_threads(0);
}

/// `reset_record` must be equivalent to a fresh checkpointer: replaying the
/// same snapshots after a reset yields bit-identical records even though
/// arenas stay warm and the hash map only bumped its generation.
fn assert_reset_record_repeats(name: &str, make: &dyn Fn() -> Box<dyn Checkpointer>) {
    let _guard = THREAD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let snapshots = workload(120_000, 6);
    let mut m = make();
    let first = encoded_record(m.as_mut(), &snapshots);
    m.reset_record();
    let second = encoded_record(m.as_mut(), &snapshots);
    assert_eq!(
        first, second,
        "{name}: record replay after reset_record diverged"
    );
}

/// The leaf kernels hash a [`TILE`] of chunks per batch call and hand every
/// tile to the pool as one unit. Grids that end one chunk either side of a
/// tile edge or of the 1024-chunk sequential cut-off, with a full or a
/// short last chunk, at chunk sizes the lane kernel takes (32, 128) and one
/// it leaves to the scalar path (100), must still give the bytes of the
/// sequential oracle, at every thread count.
#[test]
fn tile_seams_match_the_serial_oracle_at_every_thread_count() {
    let _guard = THREAD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    type Make<'a> = &'a dyn Fn() -> Box<dyn Checkpointer>;
    let seam = |cs: usize, n_chunks: usize, short_last: bool, methods: &[(&str, Make)]| {
        let len = n_chunks * cs - if short_last { cs / 3 } else { 0 };
        let snapshots = workload(len, 4);
        let oracle = encoded_record(&mut SerialTreeCheckpointer::new(cs), &snapshots);
        for &(name, make) in methods {
            let at = format!("{name}, {n_chunks} chunks of {cs} B, short last chunk: {short_last}");
            let (encoded, restored) = run_method_at(1, make, &snapshots);
            assert_eq!(restored, snapshots, "{at}: restore diverged from source");
            if name == "tree" {
                assert_eq!(encoded, oracle, "{at}: differs from the serial oracle");
            }
            for threads in [2, 4] {
                let (again, _) = run_method_at(threads, make, &snapshots);
                assert_eq!(again, encoded, "{at}: bytes differ at {threads} threads");
            }
        }
    };
    let tree = |config: TreeConfig| -> Box<dyn Checkpointer> {
        Box::new(TreeCheckpointer::new(Device::a100(), config))
    };
    for cs in [32, 100, 128] {
        let config = TreeConfig::new(cs);
        let list =
            || -> Box<dyn Checkpointer> { Box::new(ListCheckpointer::new(Device::a100(), config)) };
        let basic =
            || -> Box<dyn Checkpointer> { Box::new(BasicCheckpointer::new(Device::a100(), cs)) };
        let methods: [(&str, Make); 3] = [
            ("tree", &|| tree(config)),
            ("list", &list),
            ("basic", &basic),
        ];
        for n_chunks in [TILE - 1, TILE, TILE + 1, 1023, 1025] {
            for short_last in [false, true] {
                seam(cs, n_chunks, short_last, &methods);
            }
        }
    }
    // Once with §2.4's content verification in the classify body.
    let verified = TreeConfig::new(128).with_collision_verification();
    seam(128, 1025, true, &[("tree", &|| tree(verified))]);
    rayon::set_active_threads(0);
}

/// 32-byte chunks, one per tag; distinct tags give distinct contents.
fn tagged(tags: &[u64]) -> Vec<u8> {
    tags.iter()
        .flat_map(|&t| {
            (0..4u64).flat_map(move |i| (t.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ i).to_le_bytes())
        })
        .collect()
}

/// A record over `n` chunks that walks Tree's frontier regime: a base with
/// repeated content, then one checkpoint per edit rewriting exactly its
/// chunks — every third with its right neighbour's content (a shifted
/// duplicate), the rest with content never seen before.
fn frontier_record(n: usize) -> Vec<Vec<u8>> {
    let shape = ckpt_dedup::TreeShape::new(n);
    let subtree = if n >= 4 {
        shape.left(shape.right(0))
    } else {
        0
    };
    let (sub_lo, sub_hi) = shape.chunk_range(subtree);
    let edits: [Vec<usize>; 7] = [
        vec![],                                // nothing changes
        vec![0],                               // a leaf on the deepest level
        vec![n - 1],                           // a leaf one level up (n not a power of two)
        (n / 2..(n / 2 + 2).min(n)).collect(), // two adjacent leaves
        (sub_lo..sub_hi).collect(),            // a whole aligned subtree
        (0..n).collect(),                      // every leaf
        vec![n / 3],                           // one leaf again
    ];
    let mut tags: Vec<u64> = (0..n as u64).map(|c| c % (n as u64 / 3 + 1)).collect();
    let mut snapshots = vec![tagged(&tags)];
    for (s, edit) in edits.iter().enumerate() {
        let prev = tags.clone();
        for &c in edit {
            tags[c] = if (c + s) % 3 == 0 {
                prev[(c + 1) % n]
            } else {
                (1 << 32) | (s * n + c) as u64
            };
        }
        snapshots.push(tagged(&tags));
    }
    snapshots
}

/// Tree's waves visit only the ancestors of changed leaves. On records that
/// change no leaf, one leaf at either leaf depth, two adjacent leaves, a
/// whole aligned subtree or every leaf, with a rebase in mid-record, on
/// grids of 1, 2, 3 and 1 025 chunks and one whose frontier levels pass the
/// 1 024-item parallel cut-off (5 000 chunks: a 2 048-node level), Tree must
/// give the serial oracle's bytes and fixed-chunk counts at 1, 2 and 4
/// threads.
#[test]
fn frontier_waves_match_the_serial_oracle_at_every_thread_count() {
    let _guard = THREAD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    const REBASE_AT: usize = 4;
    let run = |m: &mut dyn Checkpointer, snapshots: &[Vec<u8>]| -> Vec<(Vec<u8>, u64)> {
        snapshots
            .iter()
            .enumerate()
            .map(|(k, s)| {
                let out = if k == REBASE_AT {
                    m.rebase_checkpoint(s)
                } else {
                    m.checkpoint(s)
                };
                (out.diff.encode(), out.stats.n_fixed_chunks)
            })
            .collect()
    };
    for n in [1usize, 2, 3, 1025, 5000] {
        let snapshots = frontier_record(n);
        let oracle = run(&mut SerialTreeCheckpointer::new(32), &snapshots);
        let diffs: Vec<ckpt_dedup::Diff> = oracle
            .iter()
            .map(|(e, _)| ckpt_dedup::Diff::decode(e).expect("decode"))
            .collect();
        assert_eq!(
            restore_record(&diffs).expect("restore"),
            snapshots,
            "{n} chunks: the oracle's record must restore"
        );
        for threads in [1, 2, 4] {
            rayon::set_active_threads(threads);
            let mut tree = TreeCheckpointer::new(Device::a100(), TreeConfig::new(32));
            assert_eq!(
                run(&mut tree, &snapshots),
                oracle,
                "{n} chunks at {threads} threads"
            );
        }
    }
    rayon::set_active_threads(0);
}

#[test]
fn tree_checkpoints_are_bit_identical_across_thread_counts() {
    assert_bit_identical_across_threads("tree", &|| {
        Box::new(TreeCheckpointer::new(Device::a100(), TreeConfig::new(128)))
    });
}

#[test]
fn list_checkpoints_are_bit_identical_across_thread_counts() {
    assert_bit_identical_across_threads("list", &|| {
        Box::new(ListCheckpointer::new(Device::a100(), TreeConfig::new(128)))
    });
}

#[test]
fn basic_checkpoints_are_bit_identical_across_thread_counts() {
    assert_bit_identical_across_threads("basic", &|| {
        Box::new(BasicCheckpointer::new(Device::a100(), 128))
    });
}

#[test]
fn tree_pooled_matches_unpooled() {
    assert_pooled_matches_unpooled("tree", &|device| {
        Box::new(TreeCheckpointer::new(device, TreeConfig::new(128)))
    });
}

#[test]
fn list_pooled_matches_unpooled() {
    assert_pooled_matches_unpooled("list", &|device| {
        Box::new(ListCheckpointer::new(device, TreeConfig::new(128)))
    });
}

#[test]
fn basic_pooled_matches_unpooled() {
    assert_pooled_matches_unpooled("basic", &|device| {
        Box::new(BasicCheckpointer::new(device, 128))
    });
}

#[test]
fn tree_reset_record_replays_bit_identically() {
    assert_reset_record_repeats("tree", &|| {
        Box::new(TreeCheckpointer::new(Device::a100(), TreeConfig::new(128)))
    });
}

#[test]
fn list_reset_record_replays_bit_identically() {
    assert_reset_record_repeats("list", &|| {
        Box::new(ListCheckpointer::new(Device::a100(), TreeConfig::new(128)))
    });
}

#[test]
fn basic_reset_record_replays_bit_identically() {
    assert_reset_record_repeats("basic", &|| {
        Box::new(BasicCheckpointer::new(Device::a100(), 128))
    });
}
