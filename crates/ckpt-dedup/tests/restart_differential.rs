//! Differential testing of the single-pass restore engine against the
//! sequential-replay oracle: for random snapshot sequences, every method,
//! every target version and several pool widths, the engine's bytes must
//! be identical to the oracle's — including chains with a mid-stream
//! rebase record and compacted chains restored from a non-zero base. And
//! for chains whose region tables were tampered with, the no-copy chain
//! check must reach the oracle's Ok/Err verdict without moving a byte.

use ckpt_dedup::prelude::*;
use ckpt_dedup::restart::{check_chain, restore_version_single_pass};
use ckpt_dedup::restore::{restore_record, restore_record_from};
use ckpt_dedup::{Diff, MethodKind};
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
            diff.payload.pop();
            "payload cut by one byte".into()
        }
        MethodKind::Basic => {
            let c = slot % diff.n_chunks();
            diff.bitmap[c / 8] ^= 1 << (c % 8);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

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
        let device = Device::a100();
        for threads in [1usize, 2, 8] {
            rayon::set_active_threads(threads);
            for (target, expect) in seq.iter().enumerate() {
                let (par, _) =
                    restore_version_single_pass(&device, 0, &diffs, target).expect("single pass");
                prop_assert_eq!(
                    &par,
                    expect,
                    "method {} threads {} target {}",
                    method_idx,
                    threads,
                    target
                );
            }
        }
        rayon::set_active_threads(0);
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
        let device = Device::a100();
        for (i, v) in seq.iter().enumerate() {
            prop_assert_eq!(v, &snaps[rebase_at + i], "version {}", rebase_at + i);
            let (par, _) =
                restore_version_single_pass(&device, rebase_at as u32, tail, i)
                    .expect("single pass from base");
            prop_assert_eq!(&par, v, "method {} version {}", method_idx, rebase_at + i);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

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
            let (Ok(stats), Ok(versions)) = (check, oracle) else {
                continue;
            };
            prop_assert_eq!(stats.records_visited as usize, chain.len());
            prop_assert_eq!(
                (stats.regions_copied, stats.bytes_copied, stats.zero_chunks),
                (0, 0, 0),
                "{}", what
            );
            if matches!(chain[0].kind, MethodKind::Tree | MethodKind::List) {
                // Not even a kernel: the tables were read, nothing resolved.
                prop_assert_eq!(device.metrics().kernels_launched(), 0, "{}", what);
            }
            for (k, expect) in versions.iter().enumerate() {
                let (got, _) = restore_version_single_pass(&device, base as u32, &chain, k)
                    .expect("a checked chain restores");
                prop_assert_eq!(&got, expect, "{} version {}", what, base + k);
            }
        }
    }
}
