//! A simulated GPU execution substrate.
//!
//! The paper implements its de-duplication method with Kokkos on NVIDIA A100
//! GPUs. No GPU is available in this environment, so this crate provides the
//! closest synthetic equivalent that exercises the same code paths:
//!
//! * [`Device`] — a simulated accelerator. Kernels launched on it run
//!   data-parallel on a CPU thread pool (rayon), with the same structure the
//!   paper's fused Kokkos kernels have: grid launches (`parallel_for`),
//!   reductions, stream compaction (`compact_where`) and team-cooperative
//!   gather copies (`team_gather`).
//! * [`DistinctMap`] — a lock-free, insert-only open-addressing hash table
//!   equivalent to `Kokkos::UnorderedMap`: thousands of concurrent
//!   `insert-if-absent` operations with no locks on the fast path. This holds
//!   the paper's *historical record of unique hashes*.
//! * [`PerfModel`] — an analytical performance model calibrated to A100
//!   figures (HBM bandwidth, PCIe gen4 bandwidth, kernel launch latency).
//!   Every launch and transfer accrues *modeled device time* next to measured
//!   CPU wall time, so benchmarks can report throughput curves whose shape
//!   matches the paper's testbed even though the executor is a CPU.
//!
//! # Fidelity notes
//!
//! The algorithms running on this substrate are identical in structure to
//! their GPU versions: level-by-level parallelism over Merkle-tree nodes,
//! two-stage wave ordering, lock-free hash-table probes and coalesced team
//! copies. The only simulated parts are the clock (the analytical model) and
//! the executor (a thread pool instead of warps).

pub mod arena;
pub mod collectives;
pub mod content_cache;
pub mod device;
pub mod distinct_map;
pub mod metrics;
pub mod perf;

pub use arena::{ArenaLease, ArenaStats, DeviceArena};
pub use content_cache::{ContentCache, Verification};
pub use device::{Device, KernelCost, TILE};
pub use distinct_map::{BatchedInserts, DistinctMap, InsertResult, MapEntry};
pub use metrics::DeviceMetrics;
pub use perf::{DeviceConfig, PerfModel};
