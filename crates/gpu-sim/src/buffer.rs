//! Device-resident buffers.
//!
//! A [`DeviceBuffer`] marks data as living in simulated device memory.
//! Movement from it to a host slice goes through an explicit `copy_to_host`
//! call that accrues modeled PCIe time on the owning [`Device`] — the same
//! discipline a CUDA/Kokkos program has to follow, which is what makes the
//! paper's "consolidate, then one D2H transfer" design measurable here.

use crate::device::Device;

/// A typed buffer in simulated device memory.
pub struct DeviceBuffer<T> {
    device: Device,
    data: Vec<T>,
}

impl<T: Clone + Send + Sync> DeviceBuffer<T> {
    pub(crate) fn new(device: Device, data: Vec<T>) -> Self {
        device.account_alloc(std::mem::size_of_val(data.as_slice()) as u64);
        DeviceBuffer { device, data }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size in bytes.
    pub fn size_bytes(&self) -> u64 {
        std::mem::size_of_val(self.data.as_slice()) as u64
    }

    /// The owning device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Kernel-side view of the data. Reading this from host code is "free" in
    /// the model — use [`copy_to_host`](Self::copy_to_host) when the paper's
    /// pipeline would actually move data over PCIe.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Kernel-side mutable view.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Copy the whole buffer to a host slice, accruing one consolidated D2H
    /// transfer.
    pub fn copy_to_host(&self, host: &mut [T]) {
        assert_eq!(host.len(), self.data.len(), "host/device length mismatch");
        self.device.account_d2h(self.size_bytes());
        host.clone_from_slice(&self.data);
    }

    /// Consume the buffer, returning the underlying storage *without* a
    /// transfer (device-side hand-off between pipeline stages).
    pub fn into_inner(self) -> Vec<T> {
        self.data
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for DeviceBuffer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DeviceBuffer(len={})", self.data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_preserves_data() {
        let dev = Device::a100();
        let host: Vec<u32> = (0..1000).collect();
        let mut buf = dev.alloc_from_host(&host);
        buf.as_mut_slice()[0] = 42;
        let mut back = vec![0u32; 1000];
        buf.copy_to_host(&mut back);
        assert_eq!(back[0], 42);
        assert_eq!(&back[1..], &host[1..]);
    }

    #[test]
    fn alloc_accounts_bytes() {
        let dev = Device::a100();
        let _buf: DeviceBuffer<u64> = dev.alloc(128);
        assert_eq!(dev.metrics().alloc_bytes(), 128 * 8);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_copy_panics() {
        let dev = Device::a100();
        let buf = dev.alloc_from_host(&[1u8, 2, 3]);
        let mut host = vec![0u8; 2];
        buf.copy_to_host(&mut host);
    }
}
