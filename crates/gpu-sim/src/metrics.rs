//! Device activity counters.
//!
//! Every kernel launch and transfer on a [`crate::Device`] updates these
//! counters. Modeled times are kept as integer femtoseconds internally so the
//! counters can be plain atomics (no locks on the kernel hot path).

use std::sync::atomic::{AtomicU64, Ordering};

const FEMTOS_PER_SEC: f64 = 1e15;

/// Atomic activity counters for one simulated device.
#[derive(Debug, Default)]
pub struct DeviceMetrics {
    kernels_launched: AtomicU64,
    fused_kernels: AtomicU64,
    device_bytes_read: AtomicU64,
    device_bytes_written: AtomicU64,
    d2h_bytes: AtomicU64,
    /// Modeled kernel execution time, femtoseconds.
    kernel_femtos: AtomicU64,
    /// Modeled launch latency, femtoseconds.
    launch_femtos: AtomicU64,
    /// Modeled transfer time, femtoseconds.
    transfer_femtos: AtomicU64,
}

fn to_femtos(sec: f64) -> u64 {
    debug_assert!(sec >= 0.0);
    (sec * FEMTOS_PER_SEC) as u64
}

impl DeviceMetrics {
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_kernel(&self, bytes_read: u64, bytes_written: u64, modeled_sec: f64) {
        self.kernels_launched.fetch_add(1, Ordering::Relaxed);
        self.device_bytes_read
            .fetch_add(bytes_read, Ordering::Relaxed);
        self.device_bytes_written
            .fetch_add(bytes_written, Ordering::Relaxed);
        self.kernel_femtos
            .fetch_add(to_femtos(modeled_sec), Ordering::Relaxed);
    }

    pub(crate) fn record_launch_latency(&self, modeled_sec: f64) {
        self.launch_femtos
            .fetch_add(to_femtos(modeled_sec), Ordering::Relaxed);
    }

    pub(crate) fn record_fused(&self) {
        self.fused_kernels.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_d2h(&self, bytes: u64, modeled_sec: f64) {
        self.d2h_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.transfer_femtos
            .fetch_add(to_femtos(modeled_sec), Ordering::Relaxed);
    }

    /// Number of logical kernels run, inside a fused region or not. The
    /// launches that paid latency are [`modeled_launch_sec`](Self::modeled_launch_sec)
    /// over the per-launch latency: one per fused region plus one per
    /// kernel outside any.
    pub fn kernels_launched(&self) -> u64 {
        self.kernels_launched.load(Ordering::Relaxed)
    }

    /// Number of logical kernels that were folded into fused regions.
    pub fn fused_kernels(&self) -> u64 {
        self.fused_kernels.load(Ordering::Relaxed)
    }

    /// Bytes read from simulated device memory by kernels.
    pub fn device_bytes_read(&self) -> u64 {
        self.device_bytes_read.load(Ordering::Relaxed)
    }

    /// Bytes written to simulated device memory by kernels.
    pub fn device_bytes_written(&self) -> u64 {
        self.device_bytes_written.load(Ordering::Relaxed)
    }

    /// Device→host bytes transferred.
    pub fn d2h_bytes(&self) -> u64 {
        self.d2h_bytes.load(Ordering::Relaxed)
    }

    /// Total modeled device time in seconds (kernels + launch latency +
    /// transfers).
    pub fn modeled_sec(&self) -> f64 {
        (self.kernel_femtos.load(Ordering::Relaxed)
            + self.launch_femtos.load(Ordering::Relaxed)
            + self.transfer_femtos.load(Ordering::Relaxed)) as f64
            / FEMTOS_PER_SEC
    }

    /// Modeled kernel execution seconds only.
    pub fn modeled_kernel_sec(&self) -> f64 {
        self.kernel_femtos.load(Ordering::Relaxed) as f64 / FEMTOS_PER_SEC
    }

    /// Modeled launch-latency seconds only.
    pub fn modeled_launch_sec(&self) -> f64 {
        self.launch_femtos.load(Ordering::Relaxed) as f64 / FEMTOS_PER_SEC
    }

    /// Modeled transfer seconds only.
    pub fn modeled_transfer_sec(&self) -> f64 {
        self.transfer_femtos.load(Ordering::Relaxed) as f64 / FEMTOS_PER_SEC
    }

    /// Snapshot all counters into a plain struct (for reports).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            kernels_launched: self.kernels_launched(),
            fused_kernels: self.fused_kernels(),
            device_bytes_read: self.device_bytes_read(),
            device_bytes_written: self.device_bytes_written(),
            d2h_bytes: self.d2h_bytes(),
            modeled_sec: self.modeled_sec(),
            modeled_kernel_sec: self.modeled_kernel_sec(),
            modeled_launch_sec: self.modeled_launch_sec(),
            modeled_transfer_sec: self.modeled_transfer_sec(),
        }
    }

    /// Reset all counters to zero (between benchmark iterations).
    pub fn reset(&self) {
        self.kernels_launched.store(0, Ordering::Relaxed);
        self.fused_kernels.store(0, Ordering::Relaxed);
        self.device_bytes_read.store(0, Ordering::Relaxed);
        self.device_bytes_written.store(0, Ordering::Relaxed);
        self.d2h_bytes.store(0, Ordering::Relaxed);
        self.kernel_femtos.store(0, Ordering::Relaxed);
        self.launch_femtos.store(0, Ordering::Relaxed);
        self.transfer_femtos.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of [`DeviceMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub kernels_launched: u64,
    pub fused_kernels: u64,
    pub device_bytes_read: u64,
    pub device_bytes_written: u64,
    pub d2h_bytes: u64,
    pub modeled_sec: f64,
    pub modeled_kernel_sec: f64,
    pub modeled_launch_sec: f64,
    pub modeled_transfer_sec: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = DeviceMetrics::new();
        m.record_kernel(100, 50, 1e-6);
        m.record_kernel(100, 50, 1e-6);
        m.record_d2h(1000, 2e-6);
        assert_eq!(m.kernels_launched(), 2);
        assert_eq!(m.device_bytes_read(), 200);
        assert_eq!(m.device_bytes_written(), 100);
        assert_eq!(m.d2h_bytes(), 1000);
        assert!((m.modeled_sec() - 4e-6).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_everything() {
        let m = DeviceMetrics::new();
        m.record_kernel(1, 1, 1.0);
        m.record_launch_latency(1.0);
        m.record_d2h(5, 0.5);
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn femtosecond_resolution_preserves_microsecond_costs() {
        let m = DeviceMetrics::new();
        for _ in 0..1000 {
            m.record_launch_latency(5e-6);
        }
        assert!((m.modeled_launch_sec() - 5e-3).abs() < 1e-9);
    }
}
