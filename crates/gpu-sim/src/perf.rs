//! Analytical device performance model.
//!
//! The model turns the *work* a kernel or transfer performs (bytes moved,
//! flop-equivalents executed, launches issued) into *modeled device time*.
//! It is deliberately simple — a roofline-style bandwidth/latency model — and
//! is calibrated to the NVIDIA A100 that the paper's ThetaGPU/Polaris testbeds
//! use. The goal is not cycle accuracy but preserving the performance *shape*
//! that drives the paper's figures:
//!
//! * hashing and tree passes are HBM-bandwidth bound,
//! * device-to-host flushes are PCIe-bandwidth bound and degrade when several
//!   GPUs on a node contend for the host link (Fig. 6),
//! * every kernel launch pays a fixed latency, which is why the paper fuses
//!   kernels (§2.1) — the model lets us quantify the fusion benefit.

/// Static description of a simulated device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceConfig {
    /// Human-readable name used in reports.
    pub name: &'static str,
    /// Device (HBM) memory bandwidth in bytes/second.
    pub hbm_bytes_per_sec: f64,
    /// Host link (PCIe) bandwidth in bytes/second, per device, uncontended.
    pub pcie_bytes_per_sec: f64,
    /// Fixed latency per kernel launch, in seconds.
    pub kernel_launch_sec: f64,
    /// Fixed latency to set up one DMA transfer, in seconds.
    pub transfer_setup_sec: f64,
    /// Aggregate integer/hash throughput in "flop-equivalents"/second; one
    /// flop-equivalent is one simple ALU op in a kernel body.
    pub flops_per_sec: f64,
    /// Device memory capacity in bytes (alloc accounting only).
    pub memory_bytes: u64,
}

impl DeviceConfig {
    /// NVIDIA A100-SXM-40GB-like configuration (ThetaGPU / Polaris nodes).
    ///
    /// 1555 GB/s HBM2e, ~25 GB/s effective PCIe gen4 per direction, ~5 µs
    /// kernel launch latency, ~10 µs DMA setup.
    pub fn a100() -> Self {
        DeviceConfig {
            name: "sim-a100",
            hbm_bytes_per_sec: 1.555e12,
            pcie_bytes_per_sec: 25.0e9,
            kernel_launch_sec: 5.0e-6,
            transfer_setup_sec: 10.0e-6,
            flops_per_sec: 9.7e12,
            memory_bytes: 40 * (1 << 30),
        }
    }

    /// A deliberately slow "laptop iGPU"-class device, useful in tests to make
    /// modeled-time effects visible with tiny inputs.
    pub fn tiny() -> Self {
        DeviceConfig {
            name: "sim-tiny",
            hbm_bytes_per_sec: 50.0e9,
            pcie_bytes_per_sec: 5.0e9,
            kernel_launch_sec: 20.0e-6,
            transfer_setup_sec: 20.0e-6,
            flops_per_sec: 0.5e12,
            memory_bytes: 2 << 30,
        }
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self::a100()
    }
}

/// Turns work descriptions into modeled times for one [`DeviceConfig`].
#[derive(Debug, Clone, Copy)]
pub struct PerfModel {
    config: DeviceConfig,
}

impl PerfModel {
    pub fn new(config: DeviceConfig) -> Self {
        PerfModel { config }
    }

    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Modeled execution time of one kernel: max of the bandwidth roof and
    /// the compute roof (roofline), *excluding* launch latency (accounted
    /// separately so kernel fusion can elide it).
    pub fn kernel_sec(&self, bytes_read: u64, bytes_written: u64, flops: u64) -> f64 {
        let mem = (bytes_read + bytes_written) as f64 / self.config.hbm_bytes_per_sec;
        let alu = flops as f64 / self.config.flops_per_sec;
        mem.max(alu)
    }

    /// Fixed cost of issuing one kernel launch.
    pub fn launch_sec(&self) -> f64 {
        self.config.kernel_launch_sec
    }

    /// Modeled device↔host transfer time for `bytes`, when `contenders`
    /// devices on the same node share the host link. The paper's Fig. 6 setup
    /// has up to 8 GPUs per node sharing PCIe switches; we model fair
    /// bandwidth sharing across the co-located devices.
    pub fn transfer_sec(&self, bytes: u64, contenders: u32) -> f64 {
        let share = self.config.pcie_bytes_per_sec / contenders.max(1) as f64;
        self.config.transfer_setup_sec + bytes as f64 / share
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_roofline_is_bandwidth_bound_for_hashing() {
        // Hashing reads each byte once and does ~1 flop-equivalent per byte;
        // on an A100 that is bandwidth-bound (1555 GB/s < 9.7 Tflop/s).
        let m = PerfModel::new(DeviceConfig::a100());
        let n = 1u64 << 30;
        let t = m.kernel_sec(n, 0, n);
        assert!((t - n as f64 / 1.555e12).abs() < 1e-9);
    }

    #[test]
    fn compute_bound_kernel_uses_flop_roof() {
        let m = PerfModel::new(DeviceConfig::a100());
        // 1 byte read, lots of flops.
        let t = m.kernel_sec(1, 0, 1 << 40);
        assert!((t - (1u64 << 40) as f64 / 9.7e12).abs() < 1e-6);
    }

    #[test]
    fn transfer_scales_with_contention() {
        let m = PerfModel::new(DeviceConfig::a100());
        let t1 = m.transfer_sec(1 << 30, 1);
        let t8 = m.transfer_sec(1 << 30, 8);
        // 8-way contention ≈ 8x slower modulo the fixed setup cost.
        assert!(t8 > 7.0 * t1 * 0.9 && t8 < 8.5 * t1);
    }

    #[test]
    fn zero_contenders_treated_as_one() {
        let m = PerfModel::new(DeviceConfig::a100());
        assert_eq!(m.transfer_sec(1 << 20, 0), m.transfer_sec(1 << 20, 1));
    }
}
