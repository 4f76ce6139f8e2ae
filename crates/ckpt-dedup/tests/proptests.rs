//! Property-based tests: for *any* sequence of snapshot mutations, every
//! method's record restores to the exact original bytes — by sequential
//! replay and, version by version, by the single-pass engine — and the
//! parallel Tree implementation agrees with its sequential reference.

use ckpt_bench::oracle::{restore_record, SerialTreeCheckpointer};
use ckpt_dedup::methods::tree_naive::NaiveTreeCheckpointer;
use ckpt_dedup::prelude::*;
use gpu_sim::Device;
use proptest::prelude::*;

/// A random edit applied between two checkpoints.
#[derive(Debug, Clone)]
enum Edit {
    /// Overwrite `len` bytes at `at` with `value`.
    Fill { at: usize, len: usize, value: u8 },
    /// Copy `len` bytes from `src` to `dst` (may overlap).
    Copy { src: usize, dst: usize, len: usize },
    /// Revert the whole buffer to an earlier snapshot.
    Revert { to: usize },
}

fn edit_strategy() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (0usize..4096, 1usize..512, any::<u8>()).prop_map(|(at, len, value)| Edit::Fill {
            at,
            len,
            value
        }),
        (0usize..4096, 0usize..4096, 1usize..1024).prop_map(|(src, dst, len)| Edit::Copy {
            src,
            dst,
            len
        }),
        (0usize..4).prop_map(|to| Edit::Revert { to }),
    ]
}

fn apply(snapshots: &[Vec<u8>], data: &mut Vec<u8>, edit: &Edit) {
    let n = data.len();
    match edit {
        Edit::Fill { at, len, value } => {
            let at = at % n;
            let end = (at + len).min(n);
            data[at..end].fill(*value);
        }
        Edit::Copy { src, dst, len } => {
            let src = src % n;
            let dst = dst % n;
            let len = (*len).min(n - src).min(n - dst);
            let tmp = data[src..src + len].to_vec();
            data[dst..dst + len].copy_from_slice(&tmp);
        }
        Edit::Revert { to } => {
            if let Some(s) = snapshots.get(*to) {
                *data = s.clone();
            }
        }
    }
}

fn snapshots_from_edits(len: usize, seed_byte: u8, edits: &[Edit]) -> Vec<Vec<u8>> {
    let mut data: Vec<u8> = (0..len)
        .map(|i| seed_byte.wrapping_add((i / 7) as u8).wrapping_mul(13))
        .collect();
    let mut snapshots = vec![data.clone()];
    for e in edits {
        apply(&snapshots, &mut data, e);
        snapshots.push(data.clone());
    }
    snapshots
}

fn assert_roundtrip(method: &mut dyn Checkpointer, snapshots: &[Vec<u8>]) {
    let rec = run_record(method, snapshots.iter().map(|s| s.as_slice()));
    let versions = restore_record(&rec.diffs).expect("restore must succeed");
    for (k, (got, want)) in versions.iter().zip(snapshots).enumerate() {
        assert_eq!(got, want, "{} diverged at version {k}", method.name());
    }
    // The engine rebuilds each version on its own, and the chain check
    // vouches for all of them.
    let device = Device::a100();
    check_chain(&device, 0, &rec.diffs).expect("chain check must pass");
    for (k, want) in snapshots.iter().enumerate() {
        let (got, _) = restore_version_single_pass(&device, 0, &rec.diffs, k).expect("engine");
        assert_eq!(
            &got,
            want,
            "{} engine diverged at version {k}",
            method.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tree_restores_any_workload(
        len in 40usize..5000,
        seed in any::<u8>(),
        chunk_size in prop_oneof![Just(32usize), Just(64), Just(128)],
        edits in prop::collection::vec(edit_strategy(), 1..6),
    ) {
        let snapshots = snapshots_from_edits(len, seed, &edits);
        let mut m = TreeCheckpointer::new(Device::a100(), TreeConfig::new(chunk_size));
        assert_roundtrip(&mut m, &snapshots);
    }

    #[test]
    fn list_restores_any_workload(
        len in 40usize..3000,
        seed in any::<u8>(),
        edits in prop::collection::vec(edit_strategy(), 1..5),
    ) {
        let snapshots = snapshots_from_edits(len, seed, &edits);
        let mut m = ListCheckpointer::new(Device::a100(), TreeConfig::new(32));
        assert_roundtrip(&mut m, &snapshots);
    }

    #[test]
    fn basic_restores_any_workload(
        len in 40usize..3000,
        seed in any::<u8>(),
        edits in prop::collection::vec(edit_strategy(), 1..5),
    ) {
        let snapshots = snapshots_from_edits(len, seed, &edits);
        let mut m = BasicCheckpointer::new(Device::a100(), 32);
        assert_roundtrip(&mut m, &snapshots);
    }

    #[test]
    fn parallel_equals_serial_on_any_workload(
        len in 40usize..3000,
        seed in any::<u8>(),
        edits in prop::collection::vec(edit_strategy(), 1..5),
    ) {
        let snapshots = snapshots_from_edits(len, seed, &edits);
        let mut par = TreeCheckpointer::new(Device::a100(), TreeConfig::new(32));
        let mut ser = SerialTreeCheckpointer::new(32);
        for snap in &snapshots {
            let p = par.checkpoint(snap);
            let s = ser.checkpoint(snap);
            prop_assert_eq!(p.diff, s.diff);
        }
    }

    #[test]
    fn diff_wire_format_round_trips(
        len in 40usize..2000,
        seed in any::<u8>(),
        edits in prop::collection::vec(edit_strategy(), 1..4),
    ) {
        let snapshots = snapshots_from_edits(len, seed, &edits);
        let mut m = TreeCheckpointer::new(Device::a100(), TreeConfig::new(32));
        for snap in &snapshots {
            let d = m.checkpoint(snap).diff;
            let encoded = d.encode();
            prop_assert_eq!(ckpt_dedup::Diff::decode(&encoded).unwrap(), d);
        }
    }

    #[test]
    fn tree_never_stores_more_than_full_plus_small_overhead(
        len in 1000usize..5000,
        seed in any::<u8>(),
        edits in prop::collection::vec(edit_strategy(), 1..4),
    ) {
        // Worst case the Tree method stores the whole buffer plus bounded
        // metadata: header + one region id, and in pathological mixes at
        // most one entry per chunk pair.
        let snapshots = snapshots_from_edits(len, seed, &edits);
        let mut m = TreeCheckpointer::new(Device::a100(), TreeConfig::new(32));
        for snap in &snapshots {
            let out = m.checkpoint(snap);
            let n_chunks = len.div_ceil(32);
            let bound = snap.len() + 64 + 16 * n_chunks;
            prop_assert!(out.diff.stored_bytes() <= bound);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn collision_verification_is_transparent_with_strong_hash(
        len in 100usize..2000,
        seed in any::<u8>(),
        edits in prop::collection::vec(edit_strategy(), 1..4),
    ) {
        let snapshots = snapshots_from_edits(len, seed, &edits);
        let mut plain = TreeCheckpointer::new(Device::a100(), TreeConfig::new(32));
        let mut verified = TreeCheckpointer::new(
            Device::a100(),
            TreeConfig::new(32).with_collision_verification(),
        );
        for snap in &snapshots {
            prop_assert_eq!(plain.checkpoint(snap).diff, verified.checkpoint(snap).diff);
        }
    }

    #[test]
    fn naive_tree_restores_any_workload(
        len in 100usize..2000,
        seed in any::<u8>(),
        edits in prop::collection::vec(edit_strategy(), 1..4),
    ) {
        let snapshots = snapshots_from_edits(len, seed, &edits);
        let mut m = NaiveTreeCheckpointer::new(Device::a100(), TreeConfig::new(32));
        assert_roundtrip(&mut m, &snapshots);
    }

    /// Integrity frames round-trip any payload, reject relocation to a
    /// wrong slot, and detect truncation at *every* byte offset — the
    /// artifact a torn write leaves behind.
    #[test]
    fn frame_round_trips_and_any_truncation_fails(
        rank in any::<u32>(),
        ckpt in any::<u32>(),
        payload in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let framed = ckpt_dedup::encode_frame(rank, ckpt, &payload);
        prop_assert_eq!(
            ckpt_dedup::verify_frame(&framed, Some((rank, ckpt))).unwrap(),
            &payload[..]
        );
        prop_assert!(
            ckpt_dedup::verify_frame(&framed, Some((rank, ckpt.wrapping_add(1)))).is_err()
        );
        for cut in 0..framed.len() {
            prop_assert!(
                ckpt_dedup::decode_frame(&framed[..cut], None).is_err(),
                "truncation to {} bytes went undetected", cut
            );
        }
    }
}
