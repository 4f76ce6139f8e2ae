//! Umbrella crate for the GPU-accelerated de-duplication checkpointing
//! reproduction (ICPP'23, Tan et al.).
//!
//! Re-exports the workspace crates under one roof so examples and integration
//! tests can `use gpu_dedup_ckpt::...`. See `README.md` for the architecture
//! overview and `DESIGN.md` for the system inventory.

pub use ckpt_compress as compress;
pub use ckpt_dedup as dedup;
pub use ckpt_graph as graph;
pub use ckpt_hash as hash;
pub use ckpt_oranges as oranges;
pub use ckpt_runtime as runtime;
pub use ckpt_telemetry as telemetry;
pub use gpu_sim;
