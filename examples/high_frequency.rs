//! High-frequency checkpointing under storage backpressure (§1).
//!
//! The paper's motivating limitation: "there is only a limited amount of
//! spare space available on the fastest memory tiers to cache checkpoints,
//! so the HPC workflow may be delayed if it produces new checkpoints faster
//! than they can be flushed to slower memory tiers." This example emits a
//! rapid burst of checkpoints through the async runtime with a small host
//! staging area and a realistically slow (time-dilated) SSD: with Full
//! checkpoints the application stalls; with Tree diffs it never blocks.
//!
//! ```sh
//! cargo run --release --example high_frequency
//! ```

use gpu_dedup_ckpt::dedup::prelude::*;
use gpu_dedup_ckpt::gpu_sim::Device;
use gpu_dedup_ckpt::runtime::tier::TierConfig;
use gpu_dedup_ckpt::runtime::{AsyncRuntime, RuntimeConfig, TierChain};

const CKPTS: usize = 20;
const STATE_BYTES: usize = 2 << 20;

fn snapshots() -> Vec<Vec<u8>> {
    // 2 MiB of state, ~0.2% updated between checkpoints.
    let mut data: Vec<u8> = (0..STATE_BYTES).map(|i| (i / 64 % 251) as u8).collect();
    let mut out = vec![data.clone()];
    for k in 1..CKPTS {
        for j in 0..(STATE_BYTES / 512 / 128) {
            let at = (k * 100_003 + j * 131) % STATE_BYTES;
            data[at] = data[at].wrapping_add(1);
        }
        out.push(data.clone());
    }
    out
}

fn drive(name: &str, mut method: Box<dyn Checkpointer>, snaps: &[Vec<u8>]) {
    let tiers = TierChain::with_configs(
        // Host staging: room for three full checkpoints only.
        TierConfig {
            name: "host",
            bandwidth_bps: 25.0e9,
            capacity: (STATE_BYTES * 3) as u64,
        },
        TierConfig::ssd(),
        TierConfig::pfs(),
    );
    // Time dilation: 1 modeled second = 25 real seconds, so one full
    // checkpoint takes ~25 ms to drain through the 2 GB/s SSD.
    let rt = AsyncRuntime::start(RuntimeConfig {
        tiers,
        time_scale: 25.0,
        ..Default::default()
    });

    #[expect(
        clippy::disallowed_methods,
        reason = "the example reports its wall time"
    )]
    let t0 = std::time::Instant::now();
    let mut stall = std::time::Duration::ZERO;
    let mut stored = 0u64;
    for (k, snap) in snaps.iter().enumerate() {
        let diff = method.checkpoint(snap).diff;
        stored += diff.stored_bytes() as u64;
        stall += rt
            .submit_blocking(0, k as u32, diff.encode())
            .expect("runtime alive");
    }
    println!(
        "{name:<5} emitted {CKPTS} checkpoints in {:>6.0} ms — stalled {:>6.0} ms, \
         record {:>7} KiB",
        t0.elapsed().as_secs_f64() * 1e3,
        stall.as_secs_f64() * 1e3,
        stored / 1024,
    );
    // Whichever tier holds it now, the newest checkpoint restores exactly.
    let restored = rt.restore_latest_parallel(&Device::a100(), 0);
    assert_eq!(&restored.expect("restore").data, snaps.last().unwrap());
    rt.shutdown();
}

fn main() {
    let snaps = snapshots();
    println!(
        "burst of {CKPTS} checkpoints of {} MiB through a host tier that holds 3:\n",
        STATE_BYTES >> 20
    );
    drive(
        "Full",
        Box::new(FullCheckpointer::new(Device::a100(), 128)),
        &snaps,
    );
    drive(
        "Tree",
        Box::new(TreeCheckpointer::new(Device::a100(), TreeConfig::new(128))),
        &snaps,
    );
    println!("\nde-duplicated diffs drain faster than the application produces them ✓");
}
