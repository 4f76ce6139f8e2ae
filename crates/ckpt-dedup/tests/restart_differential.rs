//! Differential testing of the single-pass restore engine against the
//! sequential-replay oracle: for random snapshot sequences, every method,
//! every target version and several pool widths, the engine's bytes must
//! be identical to the oracle's — including chains with a mid-stream
//! rebase record and compacted chains restored from a non-zero base. And
//! for chains whose region tables were tampered with, the no-copy chain
//! check must reach the oracle's Ok/Err verdict without moving a byte.
//!
//! The engine resolves by runs, so the fixed cases below aim at run shapes:
//! tens of thousands of one-chunk runs, a self-similar base record, runs
//! that end on a short last chunk, and a same-record shift chain far deeper
//! than a small stack could recurse. Small hand-built records pin the
//! rest: a rebase record ends the walk, a visit's memo is its record's
//! own, uncovered chunks are zeros, tables the oracle refuses are refused
//! alike, and the chain check launches nothing.

// A test drives threads, clocks, files and codecs directly; the rules of
// `clippy.toml` hold production code.
#![allow(clippy::disallowed_methods)]

use ckpt_bench::oracle::{restore_record, restore_record_from};
use ckpt_dedup::prelude::*;
use ckpt_dedup::restart::{
    check_chain, restore_version_single_pass, slice_chunks, RestartStats, SinglePassRestore,
    MAX_SLICES, SLICE_CHUNKS,
};
use ckpt_dedup::{Diff, MethodKind, RestoreError, ShiftRegion, TreeShape};
use gpu_sim::Device;
use proptest::prelude::*;

const CHUNK: usize = 64;

fn make_checkpointer(method_idx: usize) -> Box<dyn Checkpointer> {
    match method_idx {
        0 => Box::new(TreeCheckpointer::new(
            Device::a100(),
            TreeConfig::new(CHUNK),
        )),
        1 => Box::new(ListCheckpointer::new(
            Device::a100(),
            TreeConfig::new(CHUNK),
        )),
        2 => Box::new(BasicCheckpointer::new(Device::a100(), CHUNK)),
        _ => Box::new(FullCheckpointer::new(Device::a100(), CHUNK)),
    }
}

/// A splitmix64 stream.
fn splitmix(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Seeded snapshot sequence with sparse mutations.
fn snapshots(seed: u64, count: usize, len: usize) -> Vec<Vec<u8>> {
    let mut next = splitmix(seed);
    let mut data: Vec<u8> = (0..len).map(|_| (next() & 0xff) as u8).collect();
    let mut out = vec![data.clone()];
    for _ in 1..count {
        let edits = 1 + (next() % 32) as usize;
        for _ in 0..edits {
            let at = (next() as usize) % len;
            data[at] = (next() & 0xff) as u8;
        }
        out.push(data.clone());
    }
    out
}

/// Like [`snapshots`], but the buffer starts self-similar (a few distinct
/// chunks, repeated) and every step also moves a chunk-aligned block, so
/// the chains carry shifted duplicates of their own record, of older
/// records, and nested inside one another.
fn shifty_snapshots(seed: u64, count: usize, len: usize) -> Vec<Vec<u8>> {
    let mut next = splitmix(seed);
    let mut data: Vec<u8> = (0..len)
        .map(|i| ((i / CHUNK) % 5 * 50 + i % 3) as u8)
        .collect();
    let chunks = len / CHUNK;
    let mut out = Vec::new();
    for _ in 0..count {
        for _ in 0..1 + next() % 8 {
            let at = (next() as usize) % len;
            data[at] = (next() & 0xff) as u8;
        }
        let span = (1 + (next() as usize) % 4).min(chunks) * CHUNK;
        let src = (next() as usize) % (chunks - span / CHUNK + 1) * CHUNK;
        let dst = (next() as usize) % (chunks - span / CHUNK + 1) * CHUNK;
        data.copy_within(src..src + span, dst);
        out.push(data.clone());
    }
    out
}

/// Overwrite one table entry of `diff` — picked by `slot`, set from
/// `value` — keeping it decodable: node ids stay inside the tree, a
/// reference may point anywhere up to two checkpoints ahead, a Basic
/// record flips one chunk's changed bit, and a Full record (no tables)
/// loses its payload's last byte. Returns what was done, for the failure
/// message.
fn tamper(diff: &mut Diff, slot: usize, value: u32) -> String {
    let n_nodes = 2 * diff.n_chunks() as u32 - 1;
    let (n_first, n_shift) = (diff.first_regions.len(), diff.shift_regions.len());
    match diff.kind {
        MethodKind::Full => {
            diff.payload = diff.payload.slice(0..diff.payload.len().saturating_sub(1));
            "payload cut by one byte".into()
        }
        MethodKind::Basic => {
            let c = slot % diff.n_chunks();
            let mut bits = diff.bitmap.to_vec();
            bits[c / 8] ^= 1 << (c % 8);
            diff.bitmap = bits.into();
            format!("bitmap bit {c} flipped")
        }
        MethodKind::List | MethodKind::Tree if n_first + n_shift == 0 => "nothing".into(),
        MethodKind::List | MethodKind::Tree => {
            let slot = slot % (n_first + 3 * n_shift);
            if slot < n_first {
                diff.first_regions[slot] = value % n_nodes;
                return format!("first_regions[{slot}] = {}", value % n_nodes);
            }
            let (entry, field) = ((slot - n_first) / 3, (slot - n_first) % 3);
            let s = &mut diff.shift_regions[entry];
            match field {
                0 => s.node = value % n_nodes,
                1 => s.ref_node = value % n_nodes,
                _ => s.ref_ckpt = value % (diff.ckpt_id + 3),
            }
            format!("shift_regions[{entry}] = {s:?}")
        }
    }
}

fn build_chain(method_idx: usize, snaps: &[Vec<u8>], rebase_at: Option<usize>) -> Vec<Diff> {
    let mut m = make_checkpointer(method_idx);
    snaps
        .iter()
        .enumerate()
        .map(|(k, s)| {
            if rebase_at == Some(k) {
                m.rebase_checkpoint(s).diff
            } else {
                m.checkpoint(s).diff
            }
        })
        .collect()
}

/// Restore every version of `chain` (first checkpoint id `base`) at 1, 2 and
/// 8 pool threads. Each must be the oracle's bytes, with the same counters at
/// every width, and account for every output byte: copied once, or part of a
/// chunk counted as zero. Returns the counters per version.
fn assert_matches_oracle(base: u32, chain: &[Diff], what: &str) -> Vec<RestartStats> {
    let oracle = restore_record_from(base, chain).expect("sequential replay");
    let (data_len, chunk) = (chain[0].data_len, chain[0].chunk_size as u64);
    // Bytes the last chunk is short of a whole one.
    let short = chain[0].n_chunks() as u64 * chunk - data_len;
    let device = Device::a100();
    let mut per_width = Vec::new();
    for threads in [1usize, 2, 8] {
        rayon::set_active_threads(threads);
        let mut stats = Vec::new();
        for (target, expect) in oracle.iter().enumerate() {
            let (got, st) =
                restore_version_single_pass(&device, base, chain, target).expect("single pass");
            assert!(got == *expect, "{what}: threads {threads} target {target}");
            let zero_bytes = data_len - st.bytes_copied;
            let zero_whole = st.zero_chunks * chunk;
            assert!(
                zero_bytes == zero_whole
                    || (st.zero_chunks > 0 && zero_bytes + short == zero_whole),
                "{what}: target {target}: {st:?} leaves {zero_bytes} of {data_len} bytes uncopied",
            );
            stats.push(st);
        }
        per_width.push(stats);
    }
    rayon::set_active_threads(0);
    assert_eq!(
        per_width[0], per_width[1],
        "{what}: counters at 1 vs 2 threads"
    );
    assert_eq!(
        per_width[0], per_width[2],
        "{what}: counters at 1 vs 8 threads"
    );
    per_width.swap_remove(0)
}

/// Random content in which every step rewrites `edits` scattered single
/// chunks: nothing to de-duplicate, so what a record changed is payload.
fn scattered_snapshots(seed: u64, count: usize, chunks: usize, edits: usize) -> Vec<Vec<u8>> {
    let mut next = splitmix(seed);
    let mut data: Vec<u8> = (0..chunks * CHUNK).map(|_| (next() & 0xff) as u8).collect();
    let mut out = vec![data.clone()];
    for _ in 1..count {
        for _ in 0..edits {
            let at = (next() as usize) % chunks * CHUNK;
            data[at..at + 8].copy_from_slice(&next().to_le_bytes());
        }
        out.push(data.clone());
    }
    out
}

/// A snapshot of zeros with a few live bytes, as a degree vector starts out:
/// its first record is zero pages shifted onto one another, doubling. Every
/// step sets `edits` more live bytes, each rewriting one scattered chunk.
fn mostly_zero_snapshots(seed: u64, count: usize, len: usize, edits: usize) -> Vec<Vec<u8>> {
    let mut next = splitmix(seed);
    let mut data = vec![0u8; len];
    (0..count)
        .map(|_| {
            for _ in 0..edits {
                data[(next() as usize) % len] = 1 + (next() % 255) as u8;
            }
            data.clone()
        })
        .collect()
}

/// Sixteen records that each rewrite scattered single chunks: by the time
/// the walk reaches the first record it asks it for tens of thousands of
/// runs a chunk or two long.
#[test]
fn scattered_single_chunk_rewrites_reach_the_base_as_short_runs() {
    let (count, chunks, edits) = (16, 32 * 1024, 2000);
    let snaps = scattered_snapshots(7, count, chunks, edits);
    for method_idx in 0..4 {
        let diffs = build_chain(method_idx, &snaps, None);
        let stats = assert_matches_oracle(0, &diffs, &format!("method {method_idx}"));
        let newest = stats[count - 1];
        assert_eq!(newest.zero_chunks, 0);
        match diffs[0].kind {
            // One copy per output slice, whatever the chain: coalescing
            // stops at a slice's end.
            MethodKind::Full => {
                let slices = chunks.div_ceil(slice_chunks(chunks)) as u64;
                assert_eq!((newest.records_visited, newest.regions_copied), (1, slices))
            }
            // The rewritten chunks split what the first record supplies
            // into about as many stretches.
            _ => {
                assert_eq!(newest.records_visited as usize, count);
                assert!(
                    newest.regions_copied > 20_000,
                    "method {method_idx}: {newest:?}"
                );
                assert!(newest.regions_copied < chunks as u64);
            }
        }
    }
}

/// Restore version `target` of `chain` with every visit's slices swept in
/// order on the calling thread.
fn restore_in_order(chain: &[Diff], target: usize) -> (Vec<u8>, RestartStats) {
    let device = Device::a100();
    let mut sp = SinglePassRestore::begin(&device, 0, &chain[target]).expect("begin");
    for d in chain[..=target].iter().rev() {
        if sp.feed_in_order(d).expect("visit") {
            break;
        }
    }
    sp.finish().expect("in order")
}

/// Chains three and a bit output slices long, the last slice and its last
/// chunk short, for every method, with and without a mid-chain rebase:
/// block moves that refer runs across slices over a self-similar first
/// record, and a doubling zero base whose same-record shifts every slice
/// chases through the one shared memo. Each version is the oracle's bytes
/// with the same counters at 1, 2 and 8 threads, and with the slices swept
/// in order on one thread.
#[test]
fn chains_spanning_several_slices_restore_alike_on_the_pool_and_in_order() {
    let chunks = 3 * SLICE_CHUNKS + 777;
    let len = chunks * CHUNK - 47;
    let shapes = [
        ("block moves", shifty_snapshots(43, 4, len)),
        ("zero base", mostly_zero_snapshots(44, 4, len, 300)),
    ];
    for (shape, snaps) in &shapes {
        for method_idx in 0..4 {
            for rebase_at in [None, Some(2)] {
                let diffs = build_chain(method_idx, snaps, rebase_at);
                assert_eq!(diffs[0].n_chunks().div_ceil(slice_chunks(chunks)), 4);
                let what = format!("{shape}, method {method_idx}, rebase at {rebase_at:?}");
                let stats = assert_matches_oracle(0, &diffs, &what);
                for (target, st) in stats.iter().enumerate() {
                    let (bytes, in_order) = restore_in_order(&diffs, target);
                    assert!(bytes == snaps[target], "{what}: target {target} in order");
                    assert_eq!(*st, in_order, "{what}: target {target}: pool vs in order");
                }
            }
        }
    }
}

/// The slice plan is a function of the chunk count: slices of
/// `SLICE_CHUNKS` until there would be more than `MAX_SLICES` of them, then
/// `MAX_SLICES` slices at most, each whole but the last.
#[test]
fn the_slice_plan_caps_the_slice_count() {
    let capped = MAX_SLICES * SLICE_CHUNKS;
    for n in [1, SLICE_CHUNKS, SLICE_CHUNKS + 1, capped - 1, capped] {
        assert_eq!(slice_chunks(n), SLICE_CHUNKS, "{n} chunks");
    }
    // 10 GiB of 128-byte chunks, and every chunk count a u32 destination holds.
    for n in [capped + 1, 3 * capped + 5, 10 << 23, u32::MAX as usize] {
        let per = slice_chunks(n);
        assert!(n.div_ceil(per) <= MAX_SLICES, "{n} chunks: {per} per slice");
        assert!(
            n.div_ceil(per - 1) > MAX_SLICES,
            "{n} chunks: {per} per slice"
        );
    }
}

/// A self-similar first record (zero pages), restored itself and through
/// the whole chain; then with a rebase record mid-chain, and compacted from it.
#[test]
fn mostly_zero_snapshots_restore_through_a_self_similar_base_record() {
    let count = 6;
    let snaps = mostly_zero_snapshots(11, count, 96 * 1024, 12);
    for method_idx in 0..4 {
        let what = format!("method {method_idx}");
        assert_matches_oracle(0, &build_chain(method_idx, &snaps, None), &what);
        let rebased = build_chain(method_idx, &snaps, Some(3));
        assert_matches_oracle(0, &rebased, &format!("{what}, rebase at 3"));
        let stats = assert_matches_oracle(3, &rebased[3..], &format!("{what}, compacted from 3"));
        assert_eq!(stats[0].records_visited, 1, "the rebase record is a base");
    }
}

/// The `sparse_tree` shape at test size: sixteen records over that doubling
/// zero base, each rewriting scattered single chunks, so the walk reaches
/// the base with hundreds of one- and two-chunk runs that land on its zero
/// pages. Each chunk of a same-record shift is resolved once per visit
/// through the memo, where the walk used to chase every piece down the
/// doubling spans one split at a time.
#[test]
fn scattered_rewrites_over_a_doubling_zero_base_resolve_each_chunk_once() {
    let (count, chunks) = (16, 4096);
    let snaps = mostly_zero_snapshots(5, count, chunks * CHUNK, 48);
    // Tree, then List (whose base shifts each zero chunk onto the first).
    for method_idx in 0..2 {
        let diffs = build_chain(method_idx, &snaps, None);
        let stats = assert_matches_oracle(0, &diffs, &format!("method {method_idx}"));
        let newest = stats[count - 1];
        assert_eq!(newest.records_visited as usize, count);
        // At most one and a half pieces per chunk. The walk that chased
        // every piece handled 17 665 (Tree) and 12 280 (List) here.
        assert!(
            newest.pieces <= chunks as u64 * 3 / 2,
            "method {method_idx}: {newest:?}"
        );
    }
}

/// `data_len` is not a multiple of the chunk size, and the edits keep
/// touching the short last chunk: runs that end there copy fewer bytes.
///
/// Forged there too: each Basic record with its last chunk's changed bit
/// flipped, and with its payload a byte short; each Full record a byte
/// short and a byte long. Every version restores to the oracle's bytes or
/// fails with the oracle's error, and a forged record whose payload no
/// longer holds what its bitmap (Basic) or the snapshot (Full) needs is
/// `PayloadTruncated` when it is restored.
#[test]
fn runs_that_end_on_a_short_last_chunk() {
    let len = 300 * CHUNK + 17;
    let mut snaps = snapshots(23, 6, len);
    for (k, s) in snaps.iter_mut().enumerate().skip(1).step_by(2) {
        s[len - 1] = k as u8;
        s[len - 20] = k as u8;
    }
    let device = Device::a100();
    for method_idx in 0..4 {
        let diffs = build_chain(method_idx, &snaps, None);
        let stats = assert_matches_oracle(0, &diffs, &format!("method {method_idx}"));
        assert!(stats.iter().all(|st| st.bytes_copied == len as u64));

        let clean = restore_record(&diffs).expect("sequential replay");
        let last = diffs[0].n_chunks() - 1;
        for (record, diff) in diffs.iter().enumerate() {
            let mut forged = Vec::new();
            let (short, long) = (diff.payload.len().saturating_sub(1), diff.payload.len() + 1);
            let resized = |at: usize| -> Diff {
                let mut d = diff.clone();
                d.payload = [&diff.payload[..], &[0x5a]].concat()[..at].to_vec().into();
                d
            };
            match diff.kind {
                MethodKind::Basic => {
                    let mut flipped = diff.clone();
                    let mut bits = diff.bitmap.to_vec();
                    bits[last / 8] ^= 1 << (last % 8);
                    flipped.bitmap = bits.into();
                    let needs_last = bitmap_bit(diff, last);
                    forged.push((flipped, !needs_last && diff.payload.len() < len));
                    forged.push((resized(short), needs_last));
                }
                MethodKind::Full => {
                    forged.push((resized(short), true));
                    forged.push((resized(long), true));
                }
                _ => {}
            }
            for (bad, truncated) in forged {
                let mut chain = diffs.clone();
                chain[record] = bad;
                let what = format!("method {method_idx}, record {record} forged");
                let check = check_chain(&device, 0, &chain);
                for target in 0..chain.len() {
                    let got = restore_version_single_pass(&device, 0, &chain, target);
                    let want = restore_record(&chain[..=target]);
                    let agrees = match (&got, &want) {
                        (Ok((bytes, _)), Ok(versions)) => *bytes == versions[target],
                        (Err(e), Err(oracle)) => e == oracle,
                        // Above the forged record the walk may stop before
                        // it, where replay cannot.
                        (Ok((bytes, _)), Err(_)) => target > record && *bytes == clean[target],
                        (Err(_), Ok(_)) => false,
                    };
                    assert!(agrees, "{what}: target {target}: {:?}", got.map(|_| ()));
                    if truncated && target == record {
                        let ckpt_id = record as u32;
                        assert_eq!(
                            got.map(|_| ()),
                            Err(RestoreError::PayloadTruncated { ckpt_id }),
                            "{what}: target {target}"
                        );
                    }
                }
                assert_eq!(check.is_ok(), restore_record(&chain).is_ok(), "{what}");
            }
        }
    }
}

/// An empty Tree record of 32-byte chunks, to fill in by hand.
fn tree_diff(ckpt_id: u32, data_len: u64) -> Diff {
    Diff {
        kind: MethodKind::Tree,
        ckpt_id,
        data_len,
        chunk_size: 32,
        first_regions: Vec::new(),
        shift_regions: Vec::new(),
        bitmap: Default::default(),
        payload: Default::default(),
    }
}

/// Whether `diff`'s bitmap marks chunk `c` changed.
fn bitmap_bit(diff: &Diff, c: usize) -> bool {
    diff.bitmap[c / 8] & (1 << (c % 8)) != 0
}

/// Chunk `k` of record 0 is chunk `k − 1` of the same record, 20 000 times
/// over, down to one chunk of payload; record 1 asks for the far end. The
/// engine follows the chain on a stack too small to recurse that deep.
#[test]
fn a_twenty_thousand_link_same_record_chain_is_chased_iteratively() {
    const LINKS: usize = 20_000;
    let (n, chunk) = (LINKS + 1, 32usize);
    let shape = TreeShape::new(n);
    let leaf = |c: usize| shape.leaf_of_chunk(c) as u32;
    let record = |ckpt_id: u32| tree_diff(ckpt_id, (n * chunk) as u64);
    let mut base = record(0);
    base.first_regions = vec![leaf(0)];
    base.payload = vec![0xc4; chunk].into();
    base.shift_regions = (1..n)
        .map(|c| ShiftRegion {
            node: leaf(c),
            ref_node: leaf(c - 1),
            ref_ckpt: 0,
        })
        .collect();
    // Record 1: its own payload everywhere but chunk 0, which is the last
    // chunk of record 0.
    let mut top = record(1);
    top.first_regions = (1..n).map(leaf).collect();
    top.payload = Vec::from_iter((0..LINKS * chunk).map(|i| (i % 251) as u8)).into();
    top.shift_regions = vec![ShiftRegion {
        node: leaf(0),
        ref_node: leaf(LINKS),
        ref_ckpt: 0,
    }];
    let chain = vec![base, top];

    let oracle = restore_record(&chain).expect("sequential replay");
    assert_eq!(oracle[1][..chunk], [0xc4; 32]);
    let restored = std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(move || restore_version_single_pass(&Device::a100(), 0, &chain, 1))
        .expect("spawn")
        .join()
        .expect("the chase must not overflow the stack");
    let (got, stats) = restored.expect("single pass");
    assert!(got == oracle[1]);
    assert_eq!(stats.records_visited, 2);
    assert_eq!(stats.bytes_copied, (n * chunk) as u64);
}

#[test]
fn single_pass_matches_sequential_tree_chain() {
    let device = Device::a100();
    let diffs = build_chain(0, &snapshots(3, 6, 8192), None);
    let seq = restore_record(&diffs).unwrap();
    for (t, expect) in seq.iter().enumerate() {
        let (par, _) = restore_version_single_pass(&device, 0, &diffs, t).unwrap();
        assert_eq!(&par, expect, "version {t}");
    }
}

#[test]
fn rebase_record_short_circuits_the_walk() {
    let device = Device::a100();
    let diffs = build_chain(0, &snapshots(3, 6, 8192), Some(3));
    assert!(
        is_self_contained(&diffs[3]),
        "rebase must be self-contained"
    );
    let seq = restore_record(&diffs).unwrap();
    let (par, stats) = restore_latest_single_pass(&device, 0, &diffs).unwrap();
    assert_eq!(par, seq[5]);
    assert!(
        stats.records_visited <= 3,
        "walk must stop at the rebase record, visited {}",
        stats.records_visited
    );
}

#[test]
fn compacted_chain_restores_from_base() {
    let device = Device::a100();
    let snaps = snapshots(3, 6, 8192);
    let diffs = build_chain(0, &snaps, Some(3));
    // Garbage-collect below the rebase: only records 3.. survive.
    let tail = &diffs[3..];
    let seq = restore_record_from(3, tail).unwrap();
    assert_eq!(seq[0], snaps[3]);
    assert_eq!(seq[2], snaps[5]);
    let (par, _) = restore_latest_single_pass(&device, 3, tail).unwrap();
    assert_eq!(par, snaps[5]);
}

/// Both records chase chunk 3 through a same-record shift, to a
/// different terminal each: a visit's memo answers for its own record
/// only.
#[test]
fn the_memo_is_per_record() {
    let shape = TreeShape::new(4);
    let leaf = |c: usize| shape.leaf_of_chunk(c) as u32;
    let shift = |c, from, ref_ckpt| ShiftRegion {
        node: leaf(c),
        ref_node: leaf(from),
        ref_ckpt,
    };
    // v0 = [A, B, A, A]: chunk 2 <- chunk 3 <- chunk 0.
    let mut d0 = tree_diff(0, 128);
    d0.first_regions = vec![leaf(0), leaf(1)];
    d0.payload = [[0xa; 32], [0xb; 32]].concat().into();
    d0.shift_regions = vec![shift(2, 3, 0), shift(3, 0, 0)];
    // v1 = [C, A, A, A]: chunk 1 <- chunk 3 <- chunk 2 <- v0's chunk 2.
    let mut d1 = tree_diff(1, 128);
    d1.first_regions = vec![leaf(0)];
    d1.payload = vec![0xc; 32].into();
    d1.shift_regions = vec![shift(1, 3, 1), shift(3, 2, 1), shift(2, 2, 0)];
    let chain = [d0, d1];
    let want = [[0xc; 32], [0xa; 32], [0xa; 32], [0xa; 32]].concat();
    assert_eq!(restore_record(&chain).unwrap()[1], want);
    let (got, _) = restore_latest_single_pass(&Device::a100(), 0, &chain).unwrap();
    assert_eq!(got, want);
}

/// What no record covers is the zeros below the chain — reached directly,
/// through a shift, or on the short last chunk — and is counted, not
/// copied.
#[test]
fn uncovered_chunks_are_zero_chunks() {
    let mut d = tree_diff(0, 123);
    d.first_regions = vec![4]; // chunk 1
    d.payload = vec![7; 32].into();
    d.shift_regions = vec![ShiftRegion {
        node: 5, // chunk 2 <- chunk 0, which nothing covers
        ref_node: 3,
        ref_ckpt: 0,
    }];
    let device = Device::a100();
    let (v, stats) = restore_latest_single_pass(&device, 0, std::slice::from_ref(&d)).unwrap();
    assert_eq!(v, restore_record(std::slice::from_ref(&d)).unwrap()[0]);
    assert_eq!(v, [vec![0; 32], vec![7; 32], vec![0; 59]].concat());
    let expect = RestartStats {
        records_visited: 1,
        regions_copied: 1,
        bytes_copied: 32,
        zero_chunks: 3,
        pieces: 4,
    };
    assert_eq!(stats, expect);
}

/// Tables the oracle refuses are refused the same way here, before a
/// byte moves: two entries writing one chunk, and shifts that wait on
/// each other region-wise even though no single chunk's chase loops.
#[test]
fn overlapping_and_deadlocked_tables_match_the_oracle() {
    let device = Device::a100();
    let both = |d: &Diff| {
        let engine = restore_latest_single_pass(&device, 0, std::slice::from_ref(d));
        let check = check_chain(&device, 0, std::slice::from_ref(d)).unwrap_err();
        let oracle = restore_record(std::slice::from_ref(d)).unwrap_err();
        assert_eq!(engine.unwrap_err(), check);
        (check, oracle)
    };

    // Node 1 (chunks 0–1) as payload, and leaf 4 (chunk 1) shifted in.
    let mut d = tree_diff(0, 128);
    d.first_regions = vec![1, 2];
    d.payload = vec![0; 128].into();
    d.shift_regions = vec![ShiftRegion {
        node: 4,
        ref_node: 6,
        ref_ckpt: 0,
    }];
    let overlap = RestoreError::RegionsOverlap {
        ckpt_id: 0,
        chunk: 1,
    };
    assert_eq!(both(&d), (overlap.clone(), overlap));

    // Chunks 0–1 <- chunks 2–3 and chunk 2 <- chunk 1: chunk 0 chases
    // 0 -> 2 -> 1 -> 3 and ends in payload, but neither region can be
    // applied before the other.
    let mut d = tree_diff(0, 128);
    d.first_regions = vec![6];
    d.payload = vec![9; 32].into();
    d.shift_regions = vec![
        ShiftRegion {
            node: 1,
            ref_node: 2,
            ref_ckpt: 0,
        },
        ShiftRegion {
            node: 5,
            ref_node: 4,
            ref_ckpt: 0,
        },
    ];
    let stuck = RestoreError::UnresolvableShifts {
        ckpt_id: 0,
        remaining: 2,
    };
    assert_eq!(both(&d), (stuck.clone(), stuck));
}

#[test]
fn self_containment_detection() {
    let [d0, d1]: [Diff; 2] = build_chain(0, &snapshots(3, 2, 4096), None)
        .try_into()
        .unwrap();
    // Checkpoint 0 references nothing earlier; an incremental later
    // checkpoint of a sparse update is dominated by fixed duplicates.
    assert!(is_self_contained(&d0));
    assert!(!is_self_contained(&d1));
}

/// The word bitset gives the verdict a per-chunk flag array gives, on
/// tables that overlap, that leave one chunk out, and over chunk counts
/// on and off a word boundary.
#[test]
fn self_containment_is_a_union_of_the_tables() {
    let by_flags = |d: &Diff| {
        let shape = TreeShape::new(d.n_chunks());
        let mut covered = vec![false; d.n_chunks()];
        let nodes = d.first_regions.iter();
        for &node in nodes.chain(d.shift_regions.iter().map(|s| &s.node)) {
            let (lo, hi) = shape.chunk_range(node as usize);
            covered[lo..hi].fill(true);
        }
        covered.into_iter().all(|c| c)
    };
    for n in [1usize, 63, 64, 65, 130, 256] {
        let shape = TreeShape::new(n);
        let leaf = |c: usize| shape.leaf_of_chunk(c) as u32;
        let mut d = tree_diff(0, n as u64 * 32);
        let cases: Vec<(Vec<u32>, Vec<u32>)> = vec![
            // The root, and the root twice over.
            (vec![0], vec![]),
            (vec![0, 0], vec![0]),
            // Every leaf, plus the root's left child on top of them.
            (
                (0..n)
                    .map(leaf)
                    .chain([1].into_iter().filter(|_| n > 1))
                    .collect(),
                vec![],
            ),
            // Every leaf but the last, whatever overlaps the rest.
            (
                (0..n - 1).map(leaf).collect(),
                (0..n - 1).map(leaf).collect(),
            ),
            // The last leaf alone, as payload and as a shift.
            (vec![leaf(n - 1)], vec![leaf(n - 1)]),
        ];
        for (first, shifted) in cases {
            d.first_regions = first;
            d.shift_regions = shifted
                .iter()
                .map(|&node| ShiftRegion {
                    node,
                    ref_node: node,
                    ref_ckpt: 0,
                })
                .collect();
            assert_eq!(is_self_contained(&d), by_flags(&d), "{n} chunks: {d:?}");
        }
    }
}

#[test]
fn ref_below_base_is_typed() {
    let mut d = tree_diff(5, 64);
    d.first_regions = vec![1]; // chunk 0
    d.payload = vec![0; 32].into();
    d.shift_regions = vec![ShiftRegion {
        node: 2,
        ref_node: 1,
        ref_ckpt: 2, // below base 5
    }];
    let device = Device::a100();
    let err = restore_latest_single_pass(&device, 5, std::slice::from_ref(&d)).unwrap_err();
    assert!(matches!(
        err,
        RestoreError::RefBelowBase {
            ref_ckpt: 2,
            base: 5,
            ..
        }
    ));
}

#[test]
fn same_record_shift_chain_and_cycles() {
    // Mirror the oracle's chain test: 5 -> 4 -> 3(payload).
    let mut d = tree_diff(0, 128);
    d.first_regions = vec![3, 6];
    d.shift_regions = vec![
        ShiftRegion {
            node: 5,
            ref_node: 4,
            ref_ckpt: 0,
        },
        ShiftRegion {
            node: 4,
            ref_node: 3,
            ref_ckpt: 0,
        },
    ];
    d.payload = [[7u8; 32], [9u8; 32]].concat().into();
    let device = Device::a100();
    let (v, _) = restore_latest_single_pass(&device, 0, std::slice::from_ref(&d)).unwrap();
    assert_eq!(&v[0..96], &[7u8; 96][..]);
    assert_eq!(&v[96..128], &[9u8; 32][..]);

    let mut cyc = tree_diff(0, 128);
    cyc.first_regions = vec![3, 6];
    cyc.payload = vec![0; 64].into();
    cyc.shift_regions = vec![
        ShiftRegion {
            node: 4,
            ref_node: 5,
            ref_ckpt: 0,
        },
        ShiftRegion {
            node: 5,
            ref_node: 4,
            ref_ckpt: 0,
        },
    ];
    let err = restore_latest_single_pass(&device, 0, std::slice::from_ref(&cyc)).unwrap_err();
    assert!(matches!(err, RestoreError::UnresolvableShifts { .. }));
}

#[test]
fn check_chain_visits_every_record_and_launches_nothing() {
    let snaps = snapshots(3, 6, 8192);
    for method_idx in [0, 2, 3] {
        let mut m = make_checkpointer(method_idx);
        let diffs: Vec<Diff> = snaps.iter().map(|s| m.checkpoint(s).diff).collect();
        let cold = Device::a100();
        let stats = check_chain(&cold, 0, &diffs).unwrap();
        assert_eq!(
            stats,
            RestartStats {
                records_visited: 6,
                ..RestartStats::default()
            },
            "{}",
            m.name()
        );
        assert_eq!(cold.metrics().kernels_launched(), 0, "{}", m.name());
        let leases = cold.arena().stats().misses;
        assert_eq!(leases, 0, "{}: no table, no buffer leased", m.name());
    }

    let mut diffs = build_chain(0, &snaps, None);
    let cold = Device::a100();

    // A bad record anywhere fails the chain, also where a restore of
    // the newest version would never look.
    diffs[2].ckpt_id = 9;
    assert!(matches!(
        check_chain(&cold, 0, &diffs),
        Err(RestoreError::OutOfOrder {
            index: 2,
            ckpt_id: 9
        })
    ));
    assert!(check_chain(&cold, 0, &[]).is_err());
}

#[test]
fn early_stop_without_resolution_errors() {
    let device = Device::a100();
    let diffs = build_chain(0, &snapshots(3, 3, 4096), None);
    let mut sp = SinglePassRestore::begin(&device, 0, &diffs[2]).unwrap();
    let done = sp.feed(&diffs[2]).unwrap();
    assert!(!done, "incremental tail cannot be self-sufficient");
    let err = sp.finish().unwrap_err();
    assert!(matches!(err, RestoreError::UnresolvableShifts { .. }));
}

/// `default` cases, or `PROPTEST_CASES` when it is set (CI runs these
/// blocks optimized at a larger count).
fn cases(default: u32) -> ProptestConfig {
    let set = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok());
    ProptestConfig::with_cases(set.unwrap_or(default))
}

proptest! {
    #![proptest_config(cases(10))]

    /// The headline determinism property: parallel == sequential, bitwise,
    /// at 1, 2 and 8 pool threads, for every method and target version —
    /// with and without a mid-stream rebase record.
    #[test]
    fn parallel_restore_is_bit_identical_across_threads(
        method_idx in 0usize..4,
        count in 2usize..6,
        len in 200usize..2400,
        seed in any::<u64>(),
        rebase_frac in 0u32..100,
        with_rebase in any::<bool>(),
    ) {
        let snaps = snapshots(seed, count, len);
        let rebase_at = with_rebase.then(|| 1 + rebase_frac as usize % (count - 1));
        let diffs = build_chain(method_idx, &snaps, rebase_at);
        let seq = restore_record(&diffs).expect("sequential replay");
        for (k, v) in seq.iter().enumerate() {
            prop_assert_eq!(v, &snaps[k], "sequential replay ground truth, version {}", k);
        }
        assert_matches_oracle(0, &diffs, &format!("method {method_idx}"));
    }

    /// Compacted chains: drop everything below the rebase record and
    /// restore from the non-zero base — parallel and sequential must agree
    /// on every surviving version.
    #[test]
    fn compacted_chain_restores_identically(
        method_idx in 0usize..4,
        count in 3usize..6,
        len in 200usize..1600,
        seed in any::<u64>(),
        rebase_frac in 0u32..100,
    ) {
        let snaps = snapshots(seed, count, len);
        let rebase_at = 1 + rebase_frac as usize % (count - 1);
        let diffs = build_chain(method_idx, &snaps, Some(rebase_at));
        let tail = &diffs[rebase_at..];
        let seq = restore_record_from(rebase_at as u32, tail).expect("base-offset replay");
        for (i, v) in seq.iter().enumerate() {
            prop_assert_eq!(v, &snaps[rebase_at + i], "version {}", rebase_at + i);
        }
        assert_matches_oracle(rebase_at as u32, tail, &format!("method {method_idx}"));
    }
}

proptest! {
    #![proptest_config(cases(64))]

    /// The chain check against the oracle: on an untouched chain and on
    /// the same chain with one table entry overwritten (whatever still
    /// decodes), `check_chain` says Ok exactly when sequential replay
    /// does — having visited every record once and copied nothing — and
    /// then the engine restores every version to the oracle's bytes.
    #[test]
    fn chain_check_agrees_with_the_oracle_and_copies_nothing(
        method_idx in 0usize..4,
        count in 2usize..6,
        len in 256usize..2400,
        seed in any::<u64>(),
        rebase_frac in 0u32..100,
        with_rebase in any::<bool>(),
        compacted in any::<bool>(),
        tampers in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u32>()), 8),
    ) {
        let snaps = shifty_snapshots(seed, count, len);
        let rebase_at = with_rebase.then(|| 1 + rebase_frac as usize % (count - 1));
        let diffs = build_chain(method_idx, &snaps, rebase_at);
        // A compacted chain is the tail from its rebase record.
        let base = rebase_at.filter(|_| compacted).unwrap_or(0);
        let chain = &diffs[base..];

        let mut cases = vec![(chain.to_vec(), "untouched".to_string())];
        for (record, slot, value) in tampers {
            let mut tampered = chain.to_vec();
            let record = record as usize % tampered.len();
            let what = tamper(&mut tampered[record], slot as usize, value);
            let reread = Diff::decode(&tampered[record].encode());
            prop_assert_eq!(reread.as_ref(), Ok(&tampered[record]), "{}", what);
            cases.push((tampered, format!("record {record}: {what}")));
        }
        for (chain, what) in cases {
            let oracle = restore_record_from(base as u32, &chain);
            let device = Device::a100();
            let check = check_chain(&device, base as u32, &chain);
            prop_assert_eq!(
                check.is_ok(),
                oracle.is_ok(),
                "method {} base {} {}: check {:?}, oracle {:?}",
                method_idx, base, what, check, oracle.as_ref().map(|_| ()),
            );
            let (Ok(stats), Ok(_)) = (check, oracle) else {
                continue;
            };
            prop_assert_eq!(stats.records_visited as usize, chain.len());
            prop_assert_eq!(
                (stats.regions_copied, stats.bytes_copied, stats.zero_chunks),
                (0, 0, 0),
                "{}", what
            );
            // Not even a kernel: the tables were read, nothing resolved.
            prop_assert_eq!(device.metrics().kernels_launched(), 0, "{}", what);
            assert_matches_oracle(base as u32, &chain, &what);
        }
    }
}

/// Shuffle `diff`'s `first_regions` and `shift_regions` by `seed`, moving
/// each payload region's bytes with its entry — the same record in another
/// table order. A payload too short for its table (a forged one) keeps its
/// bytes as they are.
fn permute_tables(diff: &mut Diff, seed: u64) {
    let mut next = splitmix(seed);
    let mut shuffle = |len: usize| {
        let mut order: Vec<usize> = (0..len).collect();
        for i in (1..len).rev() {
            order.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        order
    };
    let shape = TreeShape::new(diff.n_chunks());
    let (chunk, data_len) = (diff.chunk_size as usize, diff.data_len as usize);
    let bytes_of = |node: u32| {
        let (lo, hi) = shape.chunk_range(node as usize);
        (hi * chunk).min(data_len) - lo * chunk
    };
    let order = shuffle(diff.first_regions.len());
    let mut starts = vec![0usize];
    for &node in &diff.first_regions {
        starts.push(starts.last().unwrap() + bytes_of(node));
    }
    let total = *starts.last().unwrap();
    if total <= diff.payload.len() {
        let mut payload = Vec::with_capacity(diff.payload.len());
        for &k in &order {
            payload.extend_from_slice(&diff.payload[starts[k]..starts[k + 1]]);
        }
        payload.extend_from_slice(&diff.payload[total..]);
        diff.payload = payload.into();
    }
    diff.first_regions = order.iter().map(|&k| diff.first_regions[k]).collect();
    let order = shuffle(diff.shift_regions.len());
    diff.shift_regions = order.iter().map(|&k| diff.shift_regions[k]).collect();
}

proptest! {
    #![proptest_config(cases(64))]

    /// A Tree/List record's tables in any order are the same record: with
    /// one record's tables shuffled (its payload re-laid to match), and
    /// that record forged or not, `check_chain` returns exactly what it
    /// returns on the tables as emitted, every version restores to the same
    /// bytes and counters or fails with the same typed error, and the
    /// oracle agrees on which chains restore and on their bytes.
    #[test]
    fn table_order_does_not_change_the_index(
        tree in any::<bool>(),
        count in 2usize..6,
        len in 256usize..2400,
        seed in any::<u64>(),
        record in any::<u16>(),
        shuffle in any::<u64>(),
        forged in any::<bool>(),
        slot in any::<u16>(),
        value in any::<u32>(),
    ) {
        let snaps = shifty_snapshots(seed, count, len);
        let mut chain = build_chain(if tree { 0 } else { 1 }, &snaps, None);
        let record = record as usize % chain.len();
        let forge = forged.then(|| tamper(&mut chain[record], slot as usize, value));
        let mut shuffled = chain.clone();
        permute_tables(&mut shuffled[record], shuffle);
        let what = format!("record {record} of {count}, forged {forge:?}");

        let device = Device::a100();
        let check = check_chain(&device, 0, &shuffled);
        prop_assert_eq!(&check, &check_chain(&device, 0, &chain), "{}", what);
        for target in 0..chain.len() {
            // Payload offsets moved, so copies may coalesce differently;
            // everything else is the same.
            let without_copies = |r: Result<(Vec<u8>, RestartStats), _>| {
                r.map(|(bytes, st)| (bytes, RestartStats { regions_copied: 0, ..st }))
            };
            let got = without_copies(restore_version_single_pass(&device, 0, &shuffled, target));
            let want = without_copies(restore_version_single_pass(&device, 0, &chain, target));
            prop_assert_eq!(got, want, "{} target {}", what, target);
        }
        let oracle = restore_record(&shuffled);
        prop_assert_eq!(check.is_ok(), oracle.is_ok(), "{}: check {:?}", what, check);
        if oracle.is_ok() {
            assert_matches_oracle(0, &shuffled, &what);
        }
    }
}
