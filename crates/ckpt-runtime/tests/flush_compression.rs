//! The flush stage is the one place checkpoint bytes are compressed. Under
//! every registered codec, a Tree record submitted through the runtime is
//! stored compressed and comes back from the restore engine as exactly the
//! snapshot it was taken of.

use ckpt_dedup::prelude::*;
use ckpt_runtime::tier::ObjectId;
use ckpt_runtime::{restore_rank_latest_parallel, AsyncRuntime, CompressionPolicy, RuntimeConfig};
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

/// The first snapshot and one more per edit. The first is runs of 40 equal
/// bytes, each one above the last: its chunks are distinct, so Tree stores
/// them all, and every codec shrinks them (Bitcomp's `u32` lanes span a
/// narrow range per frame).
fn snapshots_from_edits(len: usize, seed_byte: u8, edits: &[Edit]) -> Vec<Vec<u8>> {
    let mut data: Vec<u8> = (0..len)
        .map(|i| seed_byte.wrapping_add((i / 40) as u8))
        .collect();
    let mut snapshots = vec![data.clone()];
    for edit in edits {
        let n = data.len();
        match *edit {
            Edit::Fill { at, len, value } => {
                let at = at % n;
                data[at..(at + len).min(n)].fill(value);
            }
            Edit::Copy { src, dst, len } => {
                let (src, dst) = (src % n, dst % n);
                let len = len.min(n - src).min(n - dst);
                data.copy_within(src..src + len, dst);
            }
            Edit::Revert { to } => {
                if let Some(s) = snapshots.get(to) {
                    data = s.clone();
                }
            }
        }
        snapshots.push(data.clone());
    }
    snapshots
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_codec_restores_a_random_tree_workload(
        len in 3000usize..6000,
        seed in any::<u8>(),
        edits in prop::collection::vec(edit_strategy(), 1..4),
    ) {
        let snapshots = snapshots_from_edits(len, seed, &edits);
        let mut tree = TreeCheckpointer::new(Device::a100(), TreeConfig::new(32));
        let records: Vec<Vec<u8>> = snapshots
            .iter()
            .map(|s| tree.checkpoint(s).diff.encode())
            .collect();
        let ids: Vec<ObjectId> = (0..records.len() as u32).map(|k| (0, k)).collect();
        for name in ["lz4", "snappy", "cascaded", "bitcomp", "deflate", "zstd", "rle"] {
            let codec = ckpt_compress::codec_id(name).unwrap();
            let rt = AsyncRuntime::start(RuntimeConfig {
                compression: CompressionPolicy::Fixed(codec),
                ..Default::default()
            });
            for (&(rank, k), record) in ids.iter().zip(&records) {
                rt.submit(rank, k, record.clone()).unwrap();
            }
            rt.wait_durable(&ids);
            // Frame byte 6 is the codec the flush stage stored it with.
            let first = rt.tiers().pfs.raw((0, 0)).unwrap();
            prop_assert_eq!(first[6], codec, "{} stored the first record raw", name);
            let out = restore_rank_latest_parallel(rt.tiers(), &Device::a100(), 0, None).unwrap();
            prop_assert_eq!(&out.data, snapshots.last().unwrap(), "{}", name);
            rt.shutdown();
        }
    }
}
