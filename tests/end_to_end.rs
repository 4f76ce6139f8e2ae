//! Cross-crate integration: the full pipeline of the paper, through the
//! public API of the umbrella crate.
//!
//! graph generation → Gorder → ORANGES → GPU-sim de-duplication →
//! asynchronous multi-level runtime → failure → recovery → restart.

// A test drives threads, clocks, files and codecs directly; the rules of
// `clippy.toml` hold production code.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

use ckpt_bench::oracle::{restore_rank, restore_record, SerialTreeCheckpointer};
use gpu_dedup_ckpt::dedup::methods::tree_naive::NaiveTreeCheckpointer;
use gpu_dedup_ckpt::dedup::prelude::*;
use gpu_dedup_ckpt::gpu_sim::Device;
use gpu_dedup_ckpt::graph::{gorder, PaperGraph};
use gpu_dedup_ckpt::oranges::OrangesRun;
use gpu_dedup_ckpt::runtime::{restore_rank_latest_parallel, AsyncRuntime};

/// GDV snapshots of a small ORANGES run (shared fixture).
fn snapshots(graph: PaperGraph, n: usize, ckpts: usize, seed: u64) -> Vec<Vec<u8>> {
    let g = gorder::reorder(&graph.generate(n, seed));
    let mut out = Vec::new();
    let mut run = OrangesRun::new(&g);
    run.run_with_checkpoints(ckpts, |bytes, _| out.push(bytes.to_vec()));
    out
}

#[test]
fn oranges_to_dedup_to_runtime_round_trip() {
    let snaps = snapshots(PaperGraph::MessageRace, 3_000, 6, 1);
    let runtime = AsyncRuntime::new();
    let mut ckpt = TreeCheckpointer::new(Device::a100(), TreeConfig::new(64));
    let mut ids = Vec::new();
    for (k, snap) in snaps.iter().enumerate() {
        let out = ckpt.checkpoint(snap);
        runtime.submit(0, k as u32, out.diff.encode()).unwrap();
        ids.push((0u32, k as u32));
    }
    runtime.wait_durable(&ids);

    let (base, versions) = restore_rank(runtime.tiers(), 0).unwrap();
    assert_eq!(base, 0);
    assert_eq!(versions, snaps);
}

#[test]
fn crash_recovery_resumes_to_identical_result() {
    let g = gorder::reorder(&PaperGraph::Hugebubbles.generate(2_500, 3));
    let mut reference = OrangesRun::new(&g);
    reference.run_to_completion();

    // First life: checkpoint through the runtime, crash after 3 durable.
    let runtime = AsyncRuntime::new();
    let mut ckpt = TreeCheckpointer::new(Device::a100(), TreeConfig::new(128));
    let mut run = OrangesRun::new(&g);
    let mut progress = Vec::new();
    let mut taken = 0;
    run.run_with_checkpoints(6, |bytes, done| {
        if taken >= 3 {
            return;
        }
        let out = ckpt.checkpoint(bytes);
        runtime
            .submit(7, out.diff.ckpt_id, out.diff.encode())
            .unwrap();
        progress.push(done);
        taken += 1;
    });
    runtime.wait_durable(&[(7, 0), (7, 1), (7, 2)]);
    runtime.kill();

    // Recovery: restore the durable prefix and resume.
    let restored = restore_rank_latest_parallel(runtime.tiers(), &Device::a100(), 7, None).unwrap();
    let (last, gdv) = (restored.version, restored.data);
    assert_eq!(last, 2);
    let mut resumed = OrangesRun::resume(&g, &gdv, progress[last as usize]).unwrap();
    resumed.run_to_completion();
    assert_eq!(resumed.gdv(), reference.gdv());
}

#[test]
fn all_methods_agree_on_restored_content() {
    let snaps = snapshots(PaperGraph::UnstructuredMesh, 2_000, 5, 9);
    let methods: Vec<Box<dyn Checkpointer>> = vec![
        Box::new(FullCheckpointer::new(Device::a100(), 64)),
        Box::new(BasicCheckpointer::new(Device::a100(), 64)),
        Box::new(ListCheckpointer::new(Device::a100(), TreeConfig::new(64))),
        Box::new(TreeCheckpointer::new(Device::a100(), TreeConfig::new(64))),
        Box::new(NaiveTreeCheckpointer::new(
            Device::a100(),
            TreeConfig::new(64),
        )),
        Box::new(SerialTreeCheckpointer::new(64)),
    ];
    for mut m in methods {
        let rec = run_record(&mut *m, snaps.iter().map(|s| s.as_slice()));
        let versions = restore_record(&rec.diffs).unwrap_or_else(|e| panic!("{}: {e}", m.name()));
        assert_eq!(versions, snaps, "{}", m.name());
    }
}

#[test]
fn dedup_ratio_ordering_holds_on_gdv_workloads() {
    // The qualitative Figure 4 claim at fine chunks on an event graph.
    let snaps = snapshots(PaperGraph::MessageRace, 3_000, 8, 5);
    let ratio = |mut m: Box<dyn Checkpointer>| {
        let rec = run_record(&mut *m, snaps.iter().map(|s| s.as_slice()));
        rec.stats.excluding_first().ratio()
    };
    let full = ratio(Box::new(FullCheckpointer::new(Device::a100(), 32)));
    let basic = ratio(Box::new(BasicCheckpointer::new(Device::a100(), 32)));
    let list = ratio(Box::new(ListCheckpointer::new(
        Device::a100(),
        TreeConfig::new(32),
    )));
    let tree = ratio(Box::new(TreeCheckpointer::new(
        Device::a100(),
        TreeConfig::new(32),
    )));

    assert!((full - 1.0).abs() < 0.01, "full {full}");
    assert!(basic > 2.0 * full, "basic {basic}");
    assert!(list > basic, "list {list} vs basic {basic}");
    assert!(tree >= list, "tree {tree} vs list {list}");
}

#[test]
fn compression_vs_dedup_crossover_with_frequency() {
    // Figure 5's core finding: at high checkpoint frequency, temporal
    // de-duplication beats single-checkpoint compression.
    use gpu_dedup_ckpt::compress::{Codec, ZstdLike};

    let snaps = snapshots(PaperGraph::MessageRace, 3_000, 20, 2);
    let zstd = ZstdLike::default();
    let (mut comp_in, mut comp_out) = (0u64, 0u64);
    for s in snaps.iter().skip(1) {
        comp_in += s.len() as u64;
        comp_out += zstd.compress(s).len() as u64;
    }
    let zstd_ratio = comp_in as f64 / comp_out as f64;

    let mut tree = TreeCheckpointer::new(Device::a100(), TreeConfig::new(128));
    let rec = run_record(&mut tree, snaps.iter().map(|s| s.as_slice()));
    let tree_ratio = rec.stats.excluding_first().ratio();

    assert!(
        tree_ratio > zstd_ratio,
        "at N=20, tree ({tree_ratio:.1}x) must beat zstd ({zstd_ratio:.1}x)"
    );
}

#[test]
fn device_state_stays_bounded_across_record() {
    // The per-process GPU-resident record must not grow with the number of
    // checkpoints beyond its sized capacity (§2.1's space argument).
    let snaps = snapshots(PaperGraph::AsiaOsm, 2_000, 10, 4);
    let mut m = TreeCheckpointer::new(Device::a100(), TreeConfig::new(128));
    let mut sizes = Vec::new();
    for s in &snaps {
        m.checkpoint(s);
        sizes.push(m.device_state_bytes());
    }
    // State is allocated once; repeated checkpoints reuse it.
    assert!(
        sizes.windows(2).all(|w| w[0] == w[1]),
        "state grew: {sizes:?}"
    );
    // Unique-hash record grows sub-linearly in checkpoints.
    assert!(m.record_len() > 0);
}
