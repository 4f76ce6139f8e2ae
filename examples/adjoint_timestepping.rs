//! Adjoint-style high-frequency checkpointing (one of the paper's
//! motivating non-resilience scenarios, §1).
//!
//! A forward 2D heat-diffusion sweep checkpoints its field every few steps
//! into a de-duplicated lineage; the backward (adjoint) pass then walks the
//! record in reverse, restoring every intermediate state it needs. With
//! checkpoint intervals this short, full checkpoints would store the field
//! dozens of times over — the Tree method stores a fraction of one copy.
//!
//! ```sh
//! cargo run --release --example adjoint_timestepping
//! ```

use gpu_dedup_ckpt::dedup::prelude::*;
use gpu_dedup_ckpt::gpu_sim::Device;

const N: usize = 256; // grid side
const STEPS: usize = 60;
const CKPT_EVERY: usize = 2;

/// Fixed-point heat field, one u16 per cell (stable under byte comparison).
struct Field(Vec<u16>);

impl Field {
    fn new() -> Field {
        // A hot square in a cold domain.
        let mut f = vec![0u16; N * N];
        for y in N / 4..N / 2 {
            for x in N / 4..N / 2 {
                f[y * N + x] = 40_000;
            }
        }
        Field(f)
    }

    /// One explicit diffusion step (integer arithmetic, shrinking support —
    /// most of the domain stays exactly zero between checkpoints, the sparse
    /// update pattern adjoint workloads exhibit).
    fn step(&mut self) {
        let src = self.0.clone();
        for y in 1..N - 1 {
            for x in 1..N - 1 {
                let c = src[y * N + x] as u32;
                let sum = src[(y - 1) * N + x] as u32
                    + src[(y + 1) * N + x] as u32
                    + src[y * N + x - 1] as u32
                    + src[y * N + x + 1] as u32;
                self.0[y * N + x] = ((c * 4 + sum) / 8) as u16;
            }
        }
    }

    fn as_bytes(&self) -> &[u8] {
        // SAFETY: u16 is plain old data; the slice covers the Vec exactly.
        unsafe { std::slice::from_raw_parts(self.0.as_ptr() as *const u8, self.0.len() * 2) }
    }

    fn energy(bytes: &[u8]) -> u64 {
        bytes
            .chunks_exact(2)
            .map(|c| u16::from_le_bytes([c[0], c[1]]) as u64)
            .sum()
    }
}

fn main() {
    let device = Device::a100();
    let mut ckpt = TreeCheckpointer::new(device.clone(), TreeConfig::new(64));
    let mut field = Field::new();

    // Forward pass: checkpoint every CKPT_EVERY steps.
    let mut diffs = Vec::new();
    let mut full_bytes = 0u64;
    for step in 0..STEPS {
        if step % CKPT_EVERY == 0 {
            let out = ckpt.checkpoint(field.as_bytes());
            full_bytes += out.stats.uncompressed_bytes;
            diffs.push(out.diff);
        }
        field.step();
    }
    let stored: u64 = diffs.iter().map(|d| d.stored_bytes() as u64).sum();
    println!(
        "forward pass: {} checkpoints of {} KiB each",
        diffs.len(),
        N * N * 2 / 1024
    );
    println!(
        "record: {} KiB stored vs {} KiB full — {:.1}x smaller",
        stored / 1024,
        full_bytes / 1024,
        full_bytes as f64 / stored as f64
    );

    // Backward (adjoint) pass: revisit the stored states newest-first.
    let versions: Vec<Vec<u8>> = (0..diffs.len())
        .map(|k| restore_version_single_pass(&device, 0, &diffs, k))
        .map(|restored| restored.expect("lineage restores").0)
        .collect();
    println!("\nbackward pass over {} stored states:", versions.len());
    for (k, v) in versions.iter().enumerate().rev().take(5) {
        println!("  state {k}: total energy {}", Field::energy(v));
    }
    // Diffusion conserves total energy in the interior; check first vs last.
    let e0 = Field::energy(&versions[0]);
    let e_last = Field::energy(versions.last().unwrap());
    let drift = (e0 as f64 - e_last as f64).abs() / (e0 as f64);
    assert!(drift < 0.05, "energy drifted by {drift}");
    println!("\nenergy conserved across the record ✓ (first {e0}, last {e_last})");
}
