//! The simulated device: kernel launches, fused regions, transfers.

use crate::arena::DeviceArena;
use crate::collectives;
use crate::metrics::DeviceMetrics;
use crate::perf::{DeviceConfig, PerfModel};
use rayon::prelude::*;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Work items per tile of a [`Device::parallel_for_tiles`] launch: enough
/// for a batch primitive to amortise its call over (eight groups of the
/// Murmur3 lane kernel), small enough that a tile's results fit a stack
/// array and that a grid splits into many more tiles than threads.
pub const TILE: usize = 64;

/// Work description for one kernel, used by the performance model.
///
/// Callers state how many bytes the kernel streams through device memory and
/// roughly how many ALU-op-equivalents it executes; the model takes the
/// roofline max. Overstating flops on a bandwidth-bound kernel is harmless.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCost {
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub flops: u64,
}

impl KernelCost {
    /// A kernel that streams `bytes` once through memory with ~1 op/byte
    /// (hashing, copying, comparing).
    pub fn stream(bytes: u64) -> Self {
        KernelCost {
            bytes_read: bytes,
            bytes_written: 0,
            flops: bytes,
        }
    }

    /// A kernel that reads and writes `bytes` (gather/serialize).
    pub fn copy(bytes: u64) -> Self {
        KernelCost {
            bytes_read: bytes,
            bytes_written: bytes,
            flops: bytes / 8,
        }
    }

    pub fn with_writes(mut self, bytes: u64) -> Self {
        self.bytes_written = bytes;
        self
    }
}

struct DeviceInner {
    perf: PerfModel,
    metrics: DeviceMetrics,
    /// Depth of nested fused regions; launches inside a fused region skip the
    /// per-launch latency (one latency is paid by the region itself).
    fused_depth: AtomicU32,
    /// Co-located devices contending for the host link (Fig. 6 model).
    contenders: AtomicU32,
    /// Persistent buffer pool for per-checkpoint scratch (steady-state
    /// zero-allocation; see the `arena` module).
    arena: DeviceArena,
}

/// A simulated GPU. Cheap to clone (shared handle).
///
/// Kernels launched through a `Device` execute data-parallel on the rayon
/// thread pool while the device accrues *modeled* A100 time in its
/// [`DeviceMetrics`]. See the crate docs for the fidelity argument.
#[derive(Clone)]
pub struct Device {
    inner: Arc<DeviceInner>,
}

impl Device {
    pub fn new(config: DeviceConfig) -> Self {
        Device {
            inner: Arc::new(DeviceInner {
                perf: PerfModel::new(config),
                metrics: DeviceMetrics::new(),
                fused_depth: AtomicU32::new(0),
                contenders: AtomicU32::new(1),
                arena: DeviceArena::new(),
            }),
        }
    }

    /// An A100-like device (the paper's testbed GPU).
    pub fn a100() -> Self {
        Self::new(DeviceConfig::a100())
    }

    /// Activity counters.
    pub fn metrics(&self) -> &DeviceMetrics {
        &self.inner.metrics
    }

    /// The performance model in use.
    pub fn perf(&self) -> &PerfModel {
        &self.inner.perf
    }

    /// The device's persistent scratch-buffer pool. One arena per device,
    /// shared by every pipeline running on it.
    pub fn arena(&self) -> &DeviceArena {
        &self.inner.arena
    }

    /// Set how many co-located devices share this device's host link
    /// (PCIe contention in multi-GPU nodes; 8 per ThetaGPU node).
    pub fn set_contenders(&self, n: u32) {
        self.inner.contenders.store(n.max(1), Ordering::Relaxed);
    }

    pub fn contenders(&self) -> u32 {
        self.inner.contenders.load(Ordering::Relaxed)
    }

    fn account_launch(&self, cost: KernelCost) {
        let m = &self.inner.metrics;
        if self.inner.fused_depth.load(Ordering::Relaxed) == 0 {
            m.record_launch_latency(self.inner.perf.launch_sec());
        } else {
            m.record_fused();
        }
        let sec = self
            .inner
            .perf
            .kernel_sec(cost.bytes_read, cost.bytes_written, cost.flops);
        m.record_kernel(cost.bytes_read, cost.bytes_written, sec);
    }

    /// Launch a grid of `n` independent work items: `body(i)` for `i in 0..n`,
    /// executed in parallel. `_name` documents the kernel at call sites and in
    /// traces.
    pub fn parallel_for<F>(&self, _name: &str, n: usize, cost: KernelCost, body: F)
    where
        F: Fn(usize) + Sync + Send,
    {
        self.account_launch(cost);
        // Small grids are not worth the fork-join overhead — same reasoning
        // as launching a single block on a real GPU.
        if n < 1024 {
            for i in 0..n {
                body(i);
            }
        } else {
            (0..n).into_par_iter().for_each(body);
        }
    }

    /// Launch a grid of `n` work items a [`TILE`] at a time: `body(state,
    /// lo..hi)` once per tile, for kernels whose first step is a batch over
    /// neighbouring items (hash a tile of chunks in one call, prefetch the
    /// map slots a tile will probe), then a walk over each. The one launch
    /// form with state: `init` builds it per tile (shared memory /
    /// registers in GPU terms — scratch buffers, batched-atomic
    /// accumulators). Tile `t` is `t * TILE..min((t + 1) * TILE, n)` — a
    /// pure function of `n`, never of the thread count, so per-tile state
    /// with side effects (batched map inserts) stays deterministic.
    /// Every tile is its own schedulable unit with its own `init` state:
    /// a tile is already coarse, and grouping tiles under the executor's
    /// per-item minimum would leave a 1 426-tile grid as two units. One
    /// launch and one `cost`, like the per-item launches; the sequential
    /// cut-off is still counted in items.
    pub fn parallel_for_tiles<T, INIT, F>(
        &self,
        _name: &str,
        n: usize,
        cost: KernelCost,
        init: INIT,
        body: F,
    ) where
        INIT: Fn() -> T + Sync + Send,
        F: Fn(&mut T, Range<usize>) + Sync + Send,
    {
        self.account_launch(cost);
        let tile = |t: usize| t * TILE..((t + 1) * TILE).min(n);
        let n_tiles = n.div_ceil(TILE);
        if n < 1024 {
            let mut state = init();
            for t in 0..n_tiles {
                body(&mut state, tile(t));
            }
        } else {
            (0..n_tiles)
                .into_par_iter()
                .with_max_len(1)
                .for_each_init(init, |state, t| body(state, tile(t)));
        }
    }

    /// Stream compaction over a predicate: indices `i in 0..n` where
    /// `pred(i)`, ascending, with no intermediate flag buffer — the fused
    /// flag → scan → scatter the pipeline uses to emit region lists
    /// straight from settled label arrays. Modeled as one stream over two
    /// bytes per item (the flag read and the scatter it fuses).
    pub fn compact_where<P>(&self, _name: &str, n: usize, pred: P) -> Vec<u32>
    where
        P: Fn(usize) -> bool + Sync + Send,
    {
        self.account_launch(KernelCost::stream(2 * n as u64));
        collectives::compact_where(n, pred)
    }

    /// Team-cooperative gather of scattered `segments` of `src` into `dst`
    /// (the consolidation step of §2.1, one team per region so memory accesses
    /// coalesce). Returns bytes gathered.
    pub fn team_gather(
        &self,
        _name: &str,
        src: &[u8],
        segments: &[collectives::Segment],
        dst: &mut [u8],
    ) -> usize {
        let bytes: u64 = segments.iter().map(|&(_, l)| l as u64).sum();
        self.account_launch(KernelCost::copy(bytes));
        collectives::segmented_gather(src, segments, dst)
    }

    /// Run `f` as one *fused kernel*: every launch inside accrues kernel
    /// execution time but only this region pays launch latency. This models
    /// the paper's single-fused-kernel design (§2.1: "a naive method would
    /// introduce unacceptable latencies associated with submitting and
    /// executing new kernels").
    pub fn fused<R>(&self, _name: &str, f: impl FnOnce() -> R) -> R {
        self.inner
            .metrics
            .record_launch_latency(self.inner.perf.launch_sec());
        self.inner.fused_depth.fetch_add(1, Ordering::Relaxed);
        let out = f();
        self.inner.fused_depth.fetch_sub(1, Ordering::Relaxed);
        out
    }

    /// Account a device→host transfer of `bytes` — e.g. a checkpoint's
    /// consolidated diff and the metadata tables that travel with it.
    pub fn account_d2h_bytes(&self, bytes: u64) {
        let sec = self.inner.perf.transfer_sec(bytes, self.contenders());
        self.inner.metrics.record_d2h(bytes, sec);
    }
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Device")
            .field("config", self.inner.perf.config())
            .field("metrics", &self.inner.metrics.snapshot())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn parallel_for_covers_every_index_once() {
        let dev = Device::a100();
        let n = 10_000;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        dev.parallel_for("touch", n, KernelCost::stream(n as u64), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert_eq!(dev.metrics().kernels_launched(), 1);
    }

    #[test]
    fn small_grid_runs_sequential_path() {
        let dev = Device::a100();
        let hits = AtomicU64::new(0);
        dev.parallel_for("small", 10, KernelCost::stream(10), |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn fused_region_pays_one_launch_latency() {
        let dev = Device::a100();
        let unfused = Device::a100();

        dev.fused("combined", || {
            for _ in 0..10 {
                dev.parallel_for("inner", 1, KernelCost::stream(1), |_| {});
            }
        });
        for _ in 0..10 {
            unfused.parallel_for("inner", 1, KernelCost::stream(1), |_| {});
        }

        // Fused: 1 launch latency; unfused: 10.
        let fused_launch = dev.metrics().modeled_launch_sec();
        let unfused_launch = unfused.metrics().modeled_launch_sec();
        assert!((unfused_launch / fused_launch - 10.0).abs() < 1e-6);
        assert_eq!(dev.metrics().fused_kernels(), 10);
        // Kernel execution time is identical either way.
        assert!(
            (dev.metrics().modeled_kernel_sec() - unfused.metrics().modeled_kernel_sec()).abs()
                < 1e-15
        );
    }

    #[test]
    fn transfers_account_modeled_time_and_bytes() {
        let dev = Device::a100();
        dev.account_d2h_bytes(1 << 20);
        assert_eq!(dev.metrics().d2h_bytes(), 1 << 20);
        assert!(dev.metrics().modeled_transfer_sec() > 0.0);
    }

    #[test]
    fn contention_slows_modeled_transfers() {
        let solo = Device::a100();
        let crowded = Device::a100();
        crowded.set_contenders(8);
        solo.account_d2h_bytes(4 << 20);
        crowded.account_d2h_bytes(4 << 20);
        assert!(
            crowded.metrics().modeled_transfer_sec() > 5.0 * solo.metrics().modeled_transfer_sec()
        );
    }
}
