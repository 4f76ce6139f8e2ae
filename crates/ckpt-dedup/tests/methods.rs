//! End-to-end tests of the four checkpointing methods: round trips, the
//! paper's Figure 2 worked example, ablation A3's single-stage sweep
//! against it, and serial-vs-parallel equivalence.

use ckpt_bench::oracle::{restore_record, SerialTreeCheckpointer};
use ckpt_dedup::methods::tree_naive::NaiveTreeCheckpointer;
use ckpt_dedup::prelude::*;
use gpu_sim::Device;

const CS: usize = 32;

/// Build a buffer of `n` chunks from one tag byte per chunk.
fn chunks(tags: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(tags.len() * CS);
    for &t in tags {
        // Vary the bytes within the chunk so different chunk *positions* with
        // the same tag still hash equal, but tags produce distinct contents.
        v.extend((0..CS).map(|i| t.wrapping_mul(31).wrapping_add(i as u8)));
    }
    v
}

fn roundtrip(method: &mut dyn Checkpointer, snapshots: &[Vec<u8>]) {
    let rec = run_record(method, snapshots.iter().map(|s| s.as_slice()));
    // Exercise the wire format too.
    let decoded: Vec<_> = rec
        .diffs
        .iter()
        .map(|d| ckpt_dedup::Diff::decode(&d.encode()).expect("decode"))
        .collect();
    let versions = restore_record(&decoded).expect("restore");
    assert_eq!(versions.len(), snapshots.len());
    for (k, (got, want)) in versions.iter().zip(snapshots).enumerate() {
        assert_eq!(got, want, "method {} version {k} mismatch", method.name());
    }
}

fn snapshot_sequence() -> Vec<Vec<u8>> {
    // A sequence exercising all duplicate classes:
    // v0: distinct chunks + intra-checkpoint duplicates
    // v1: sparse in-place updates
    // v2: data shifted to other positions + brand-new data
    // v3: identical to v2 (everything fixed)
    // v4: reverts to v0's content (temporal duplicates of old data)
    vec![
        chunks(&[1, 2, 3, 4, 5, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14]),
        chunks(&[1, 2, 3, 99, 5, 1, 2, 6, 7, 8, 98, 10, 11, 12, 13, 14]),
        chunks(&[3, 4, 5, 99, 5, 1, 2, 6, 50, 51, 98, 10, 11, 12, 1, 2]),
        chunks(&[3, 4, 5, 99, 5, 1, 2, 6, 50, 51, 98, 10, 11, 12, 1, 2]),
        chunks(&[1, 2, 3, 4, 5, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14]),
    ]
}

/// The waves skip host work only. A fixed Tree record on a fresh device
/// charges the model what the full-level sweeps charged: the same launches,
/// fused launches, kernel bytes read and written, and modeled seconds to
/// the bit (values captured from the full-level implementation).
#[test]
fn tree_record_charges_the_full_level_model() {
    let device = Device::a100();
    let mut tree = TreeCheckpointer::new(device.clone(), TreeConfig::new(128));
    // 3 907 chunks (a non-power-of-two tree with a short last chunk) and
    // point edits growing from none to 35 a checkpoint.
    let mut data: Vec<u8> = (0..500_000u32)
        .map(|i| (i / 300) as u8 ^ (i >> 11) as u8)
        .collect();
    for k in 0..6usize {
        for j in 0..7 * k {
            let at = (j * 7919 + k * 104_729) % data.len();
            data[at] = data[at].wrapping_add(1 + k as u8);
        }
        tree.checkpoint(&data);
    }
    let m = device.metrics();
    assert_eq!(
        (
            m.kernels_launched(),
            m.fused_kernels(),
            m.device_bytes_read(),
            m.device_bytes_written(),
            m.modeled_sec().to_bits()
        ),
        (240, 240, 5_677_400, 990_080, 0x3f25_a4fe_7433_a3dd)
    );
}

#[test]
fn tree_round_trip() {
    let mut m = TreeCheckpointer::new(Device::a100(), TreeConfig::new(CS));
    roundtrip(&mut m, &snapshot_sequence());
}

#[test]
fn serial_tree_round_trip() {
    let mut m = SerialTreeCheckpointer::new(CS);
    roundtrip(&mut m, &snapshot_sequence());
}

#[test]
fn list_round_trip() {
    let mut m = ListCheckpointer::new(Device::a100(), TreeConfig::new(CS));
    roundtrip(&mut m, &snapshot_sequence());
}

#[test]
fn basic_round_trip() {
    let mut m = BasicCheckpointer::new(Device::a100(), CS);
    roundtrip(&mut m, &snapshot_sequence());
}

#[test]
fn full_round_trip() {
    let mut m = FullCheckpointer::new(Device::a100(), CS);
    roundtrip(&mut m, &snapshot_sequence());
}

#[test]
fn parallel_tree_matches_serial_reference_exactly() {
    let snapshots = snapshot_sequence();
    let mut par = TreeCheckpointer::new(Device::a100(), TreeConfig::new(CS));
    let mut ser = SerialTreeCheckpointer::new(CS);
    for snap in &snapshots {
        let p = par.checkpoint(snap);
        let s = ser.checkpoint(snap);
        assert_eq!(p.diff, s.diff, "diff divergence at ckpt {}", s.diff.ckpt_id);
    }
    assert_eq!(par.record_len(), ser.record_len());
}

#[test]
fn parallel_matches_serial_on_many_random_workloads() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_chunks = rng.gen_range(1..80);
        let mut data: Vec<u8> = (0..n_chunks * CS).map(|_| rng.gen_range(0..6u8)).collect();
        let mut par = TreeCheckpointer::new(Device::a100(), TreeConfig::new(CS));
        let mut ser = SerialTreeCheckpointer::new(CS);
        for step in 0..6 {
            let p = par.checkpoint(&data);
            let s = ser.checkpoint(&data);
            assert_eq!(p.diff, s.diff, "seed {seed} step {step}");
            // Mutate: a few random in-place writes plus one block copy.
            for _ in 0..rng.gen_range(0..5) {
                let i = rng.gen_range(0..data.len());
                data[i] = rng.gen_range(0..6u8);
            }
            if n_chunks > 2 {
                let src = rng.gen_range(0..n_chunks - 1) * CS;
                let dst = rng.gen_range(0..n_chunks - 1) * CS;
                let tmp = data[src..src + CS].to_vec();
                data[dst..dst + CS].copy_from_slice(&tmp);
            }
        }
    }
}

/// The worked example of Figure 2 (§2.2): the compact representation needs
/// exactly 3 regions where the List method needs 7 entries.
#[test]
fn figure2_worked_example() {
    // Checkpoint 0: eight distinct chunks A..H (leaves 7..=14).
    let v0 = chunks(b"ABCDEFGH");
    // Checkpoint 1: I J K L at leaves 7-10 (first occurrences), leaf 11
    // unchanged (E, fixed duplicate), leaf 12 = A (shifted duplicate of
    // checkpoint 0's leaf 7), leaves 13,14 = I,J (shifted duplicates of the
    // current checkpoint's leaves 7,8).
    let v1 = chunks(b"IJKLEAIJ");

    let mut tree = TreeCheckpointer::new(Device::a100(), TreeConfig::new(CS));
    tree.checkpoint(&v0);
    let out = tree.checkpoint(&v1);

    // Exactly three regions: node 1 (first occurrence covering I J K L),
    // node 12 (shifted, from checkpoint 0) and node 6 (shifted, from the
    // current checkpoint).
    assert_eq!(out.diff.first_regions, vec![1]);
    assert_eq!(out.diff.shift_regions.len(), 2);
    let by_node: std::collections::HashMap<u32, (u32, u32)> = out
        .diff
        .shift_regions
        .iter()
        .map(|s| (s.node, (s.ref_node, s.ref_ckpt)))
        .collect();
    // Node 12 = chunk 5 duplicates checkpoint 0's chunk 0 (leaf 7).
    assert_eq!(by_node[&12], (7, 0));
    // Node 6 = chunks 6..8 duplicates this checkpoint's node 3 (chunks 0..2).
    assert_eq!(by_node[&6], (3, 1));
    // Payload: only I J K L.
    assert_eq!(out.diff.payload.len(), 4 * CS);
    assert_eq!(out.stats.n_fixed_chunks, 1);

    // The List method needs 7 entries for the same update (4 first + 3 shift).
    let mut list = ListCheckpointer::new(Device::a100(), TreeConfig::new(CS));
    list.checkpoint(&v0);
    let lout = list.checkpoint(&v1);
    assert_eq!(lout.diff.first_regions.len(), 4);
    assert_eq!(lout.diff.shift_regions.len(), 3);

    // Both restore to the same bytes.
    let mut tree2 = TreeCheckpointer::new(Device::a100(), TreeConfig::new(CS));
    let d0 = tree2.checkpoint(&v0).diff;
    let d1 = tree2.checkpoint(&v1).diff;
    let versions = restore_record(&[d0, d1]).unwrap();
    assert_eq!(versions[0], v0);
    assert_eq!(versions[1], v1);
}

#[test]
fn naive_still_restores_exactly() {
    let snaps = vec![
        chunks(&[1, 2, 3, 4, 5, 6, 7, 8]),
        chunks(&[9, 10, 11, 12, 5, 1, 9, 10]),
        chunks(&[9, 10, 11, 12, 5, 1, 9, 10]),
    ];
    let mut m = NaiveTreeCheckpointer::new(Device::a100(), TreeConfig::new(CS));
    let diffs: Vec<_> = snaps.iter().map(|s| m.checkpoint(s).diff).collect();
    let versions = restore_record(&diffs).unwrap();
    assert_eq!(versions, snaps);
}

/// The Figure 2 scenario: two-stage consolidates leaves 13,14 into node
/// 6 (a shifted duplicate of the same-level node 3); the naive sweep
/// cannot see node 3's insert and must emit the leaves separately.
#[test]
fn naive_misses_same_level_consolidation() {
    let v0 = chunks(b"ABCDEFGH");
    let v1 = chunks(b"IJKLEAIJ");

    let mut two_stage = TreeCheckpointer::new(Device::a100(), TreeConfig::new(CS));
    two_stage.checkpoint(&v0);
    let ts = two_stage.checkpoint(&v1);

    let mut naive = NaiveTreeCheckpointer::new(Device::a100(), TreeConfig::new(CS));
    naive.checkpoint(&v0);
    let nv = naive.checkpoint(&v1);

    // Two-stage: 3 regions (1 first + 2 shift). Naive: node 6 stays
    // unconsolidated → leaves 13 and 14 emitted separately → 4 regions.
    assert_eq!(ts.stats.n_first + ts.stats.n_shift, 3);
    assert_eq!(nv.stats.n_first + nv.stats.n_shift, 4);
    assert!(nv.stats.metadata_bytes > ts.stats.metadata_bytes);

    // Both restore identically.
    let mut a = TreeCheckpointer::new(Device::a100(), TreeConfig::new(CS));
    let da: Vec<_> = [&v0, &v1].iter().map(|s| a.checkpoint(s).diff).collect();
    let mut b = NaiveTreeCheckpointer::new(Device::a100(), TreeConfig::new(CS));
    let db: Vec<_> = [&v0, &v1].iter().map(|s| b.checkpoint(s).diff).collect();
    assert_eq!(restore_record(&da).unwrap(), restore_record(&db).unwrap());
}

#[test]
fn naive_never_beats_two_stage_metadata() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    for seed in 0..5u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_chunks = 64;
        let mut tags: Vec<u8> = (0..n_chunks).map(|_| rng.gen_range(0..30)).collect();
        let mut ts = TreeCheckpointer::new(Device::a100(), TreeConfig::new(CS));
        let mut nv = NaiveTreeCheckpointer::new(Device::a100(), TreeConfig::new(CS));
        for _ in 0..4 {
            let data = chunks(&tags);
            let a = ts.checkpoint(&data);
            let b = nv.checkpoint(&data);
            assert!(
                b.stats.metadata_bytes >= a.stats.metadata_bytes,
                "seed {seed}: naive metadata {} < two-stage {}",
                b.stats.metadata_bytes,
                a.stats.metadata_bytes
            );
            for _ in 0..6 {
                let at = rng.gen_range(0..n_chunks);
                tags[at] = rng.gen_range(0..30);
            }
        }
    }
}

#[test]
fn ratio_ordering_on_shift_heavy_workload() {
    // v1 moves a large contiguous block to a new offset: Tree/List can
    // reference it, Basic must store it, Full stores everything.
    let mut tags0 = Vec::new();
    for i in 0..128u8 {
        tags0.push(i);
    }
    let mut tags1 = tags0.clone();
    // Shift chunks 0..48 to position 64..112 (contiguous shifted block).
    tags1[64..64 + 48].copy_from_slice(&tags0[..48]);
    let v0 = chunks(&tags0);
    let v1 = chunks(&tags1);

    let snaps = [v0, v1];
    let run = |m: &mut dyn Checkpointer| {
        let rec = run_record(m, snaps.iter().map(|s| s.as_slice()));
        rec.stats.excluding_first().ratio()
    };
    let tree = run(&mut TreeCheckpointer::new(
        Device::a100(),
        TreeConfig::new(CS),
    ));
    let list = run(&mut ListCheckpointer::new(
        Device::a100(),
        TreeConfig::new(CS),
    ));
    let basic = run(&mut BasicCheckpointer::new(Device::a100(), CS));
    let full = run(&mut FullCheckpointer::new(Device::a100(), CS));

    assert!(tree > list, "tree {tree} vs list {list}");
    assert!(list > basic, "list {list} vs basic {basic}");
    assert!(basic > full, "basic {basic} vs full {full}");
    assert!((full - 1.0).abs() < 0.01, "full ratio ~1, got {full}");
}

#[test]
fn unchanged_checkpoint_produces_empty_diff() {
    let v = chunks(&[1, 2, 3, 4, 5, 6, 7, 8]);
    let mut m = TreeCheckpointer::new(Device::a100(), TreeConfig::new(CS));
    m.checkpoint(&v);
    let out = m.checkpoint(&v);
    assert!(out.diff.first_regions.is_empty());
    assert!(out.diff.shift_regions.is_empty());
    assert!(out.diff.payload.is_empty());
    assert_eq!(out.stats.n_fixed_chunks, 8);
    // Only the header remains.
    assert!(out.diff.stored_bytes() < 64);
}

#[test]
fn fully_changed_checkpoint_stores_everything_with_tiny_metadata() {
    let v0 = chunks(&(0..64).map(|i| i as u8).collect::<Vec<_>>());
    let v1 = chunks(&(0..64).map(|i| i as u8 + 100).collect::<Vec<_>>());
    let mut m = TreeCheckpointer::new(Device::a100(), TreeConfig::new(CS));
    m.checkpoint(&v0);
    let out = m.checkpoint(&v1);
    // All data new, but consolidated into a single root region.
    assert_eq!(out.diff.first_regions, vec![0]);
    assert_eq!(out.diff.payload.len(), v1.len());
    assert!(out.diff.metadata_bytes() <= 4);
    let versions = restore_record(&run_record_diffs(
        &mut TreeCheckpointer::new(Device::a100(), TreeConfig::new(CS)),
        &[v0.clone(), v1.clone()],
    ))
    .unwrap();
    assert_eq!(versions[1], v1);
}

fn run_record_diffs(m: &mut dyn Checkpointer, snaps: &[Vec<u8>]) -> Vec<ckpt_dedup::Diff> {
    run_record(m, snaps.iter().map(|s| s.as_slice())).diffs
}

#[test]
fn single_chunk_buffer() {
    let v0 = vec![5u8; 40];
    let v1 = vec![6u8; 40];
    for mk in [0usize, 1, 2, 3] {
        let mut m: Box<dyn Checkpointer> = match mk {
            0 => Box::new(TreeCheckpointer::new(Device::a100(), TreeConfig::new(CS))),
            1 => Box::new(ListCheckpointer::new(Device::a100(), TreeConfig::new(CS))),
            2 => Box::new(BasicCheckpointer::new(Device::a100(), CS)),
            _ => Box::new(FullCheckpointer::new(Device::a100(), CS)),
        };
        let diffs = run_record_diffs(&mut *m, &[v0.clone(), v1.clone(), v1.clone()]);
        let versions = restore_record(&diffs).unwrap();
        assert_eq!(
            versions,
            vec![v0.clone(), v1.clone(), v1.clone()],
            "method {mk}"
        );
    }
}

#[test]
fn partial_tail_chunk_round_trip() {
    // 10 chunks of 32 plus a 7-byte tail.
    let mut v0: Vec<u8> = (0..327u32).map(|i| (i % 13) as u8).collect();
    let mut m = TreeCheckpointer::new(Device::a100(), TreeConfig::new(CS));
    let d0 = m.checkpoint(&v0).diff;
    v0[326] ^= 0xff; // mutate the tail
    let d1 = m.checkpoint(&v0).diff;
    let versions = restore_record(&[d0, d1]).unwrap();
    assert_eq!(versions[1], v0);
}

#[test]
fn record_size_grows_sublinearly_for_sparse_updates() {
    // 1 MiB buffer, 10 checkpoints, each touching 0.1% of the data: the
    // whole record should be a small multiple of one full checkpoint.
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(7);
    let mut data: Vec<u8> = (0..1 << 20).map(|_| rng.gen()).collect();
    let mut m = TreeCheckpointer::new(Device::a100(), TreeConfig::new(128));
    let mut snaps = vec![data.clone()];
    for _ in 0..9 {
        for _ in 0..(data.len() / 1000 / 128) {
            let at = rng.gen_range(0..data.len());
            data[at] = rng.gen();
        }
        snaps.push(data.clone());
    }
    let rec = run_record(&mut m, snaps.iter().map(|s| s.as_slice()));
    let total = rec.total_stored();
    assert!(
        total < (1 << 20) * 12 / 10,
        "record {} should stay near one full checkpoint",
        total
    );
    // And restores exactly.
    let versions = restore_record(&rec.diffs).unwrap();
    assert_eq!(versions.last().unwrap(), &data);
}
