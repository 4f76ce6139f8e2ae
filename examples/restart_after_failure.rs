//! Failure and restart through the asynchronous multi-level runtime.
//!
//! A rank runs ORANGES, checkpointing its GDV array through the async
//! flusher (host → SSD → PFS). Mid-run the node "crashes": the flusher dies
//! and everything volatile is lost. Recovery finds the durable prefix of the
//! record on the PFS, restores the newest usable GDV state, and the
//! application resumes from the matching vertex — finishing with exactly the
//! result an uninterrupted run produces.
//!
//! ```sh
//! cargo run --release --example restart_after_failure
//! ```

use gpu_dedup_ckpt::dedup::prelude::*;
use gpu_dedup_ckpt::gpu_sim::Device;
use gpu_dedup_ckpt::graph::PaperGraph;
use gpu_dedup_ckpt::oranges::OrangesRun;
use gpu_dedup_ckpt::runtime::{restore_rank_latest_parallel, AsyncRuntime};

const RANK: u32 = 0;
const N_CHECKPOINTS: usize = 8;

fn main() {
    let graph = PaperGraph::UnstructuredMesh.generate(4_000, 7);

    // Ground truth: what an uninterrupted run computes.
    let mut reference = OrangesRun::new(&graph);
    reference.run_to_completion();

    // ---- First life -----------------------------------------------------
    // The plain Fig. 3 runtime: `start(RuntimeConfig::default())`.
    let runtime = AsyncRuntime::new();
    let mut ckpt = TreeCheckpointer::new(Device::a100(), TreeConfig::new(128));
    let mut run = OrangesRun::new(&graph);
    let mut progress_of = Vec::new(); // ckpt id -> completed roots

    let crash_after = 5; // checkpoints that become durable before the crash
    let mut taken = 0usize;
    run.run_with_checkpoints(N_CHECKPOINTS, |gdv_bytes, done_roots| {
        if taken >= crash_after {
            return; // the process died; later checkpoints never happen
        }
        let out = ckpt.checkpoint(gdv_bytes);
        runtime
            .submit(RANK, out.diff.ckpt_id, out.diff.encode())
            .expect("host staging");
        progress_of.push(done_roots);
        taken += 1;
    });
    let ids: Vec<_> = (0..crash_after as u32).map(|k| (RANK, k)).collect();
    runtime.wait_durable(&ids);
    println!(
        "first life: {taken} checkpoints durable, then the node crashes \
         at {:.0}% progress",
        100.0 * *progress_of.last().unwrap() as f64 / graph.n_vertices() as f64
    );
    runtime.kill();

    // ---- Recovery -------------------------------------------------------
    let recovered = runtime.recover();
    let usable = recovered.get(&RANK).map_or(0, |r| r.len());
    println!("recovery: {usable} durable checkpoints on the PFS");
    assert_eq!(usable, crash_after);

    // The replacement node restores on its own (cold) device.
    let restored = restore_rank_latest_parallel(runtime.tiers(), &Device::a100(), RANK, None)
        .expect("restore");
    let (last_id, gdv_bytes) = (restored.version, restored.data);
    let resume_root = progress_of[last_id as usize];
    println!(
        "restored checkpoint {last_id} ({} bytes); resuming at root {resume_root}",
        gdv_bytes.len()
    );

    // ---- Second life ----------------------------------------------------
    let mut resumed =
        OrangesRun::resume(&graph, &gdv_bytes, resume_root).expect("GDV matches graph");
    resumed.run_to_completion();

    assert_eq!(resumed.gdv(), reference.gdv());
    println!(
        "resumed run matches the uninterrupted reference exactly ✓ \
         ({} counters checked)",
        graph.n_vertices() * 73
    );
}
