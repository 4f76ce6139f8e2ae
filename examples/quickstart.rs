//! Quickstart: de-duplicated incremental checkpointing in a dozen lines.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use gpu_dedup_ckpt::dedup::prelude::*;
use gpu_dedup_ckpt::gpu_sim::Device;

fn main() {
    // A simulated A100 and the paper's Tree method at 128-byte chunks.
    let device = Device::a100();
    let mut ckpt = TreeCheckpointer::new(device.clone(), TreeConfig::new(128));

    // Some application state: 1 MiB of structured data.
    let mut state: Vec<u8> = (0..1 << 20).map(|i| (i / 64 % 251) as u8).collect();

    // Initial checkpoint: everything is a first occurrence.
    let mut diffs = Vec::new();
    let out = ckpt.checkpoint(&state);
    println!(
        "checkpoint 0: {} bytes stored for {} bytes of state (ratio {:.1}x)",
        out.diff.stored_bytes(),
        state.len(),
        out.stats.ratio()
    );
    diffs.push(out.diff);

    // The application keeps running: sparse updates between checkpoints.
    for step in 1..=5 {
        for k in 0..32 {
            let at = (step * 10_007 + k * 977) % state.len();
            state[at] = state[at].wrapping_add(1);
        }
        // Also move a chunk-aligned block around — a shifted duplicate the
        // historical record recognizes without storing the data again.
        let window = 4096;
        let align = |v: usize| v / 128 * 128;
        let src = align((step * 131_071) % (state.len() - window));
        let dst = align((step * 262_147) % (state.len() - window));
        let block = state[src..src + window].to_vec();
        state[dst..dst + window].copy_from_slice(&block);

        let out = ckpt.checkpoint(&state);
        println!(
            "checkpoint {step}: {:>8} bytes stored | ratio {:>8.1}x | {} first-occurrence, \
             {} shifted, {} unchanged chunks",
            out.diff.stored_bytes(),
            out.stats.ratio(),
            out.stats.n_first,
            out.stats.n_shift,
            out.stats.n_fixed_chunks,
        );
        diffs.push(out.diff);
    }

    // Any version can be reconstructed from the record, each in one
    // newest-to-oldest pass that writes every byte once.
    let versions: Vec<Vec<u8>> = (0..diffs.len())
        .map(|k| restore_version_single_pass(&device, 0, &diffs, k))
        .map(|restored| restored.expect("record is well-formed").0)
        .collect();
    assert_eq!(versions.last().unwrap(), &state);
    println!(
        "\nrestored all {} versions; latest matches live state ✓",
        versions.len()
    );
    println!(
        "modeled device time: {:.3} ms total on {}",
        device.metrics().modeled_sec() * 1e3,
        device.perf().config().name
    );
}
