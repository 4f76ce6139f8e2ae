//! Small utilities: a shared mutable slice for parallel kernels and a
//! bounds-checked reader for the parsers of untrusted bytes.

use std::cell::UnsafeCell;

/// A cursor over untrusted bytes that reads little-endian fields in order.
/// Every read is bounds-checked: an underrun is `None`, never a panic, and
/// consumes nothing.
pub(crate) struct LeReader<'a> {
    rest: &'a [u8],
}

impl<'a> LeReader<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        LeReader { rest: bytes }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, tail) = self.rest.split_at_checked(n)?;
        self.rest = tail;
        Some(head)
    }

    /// The next `N` bytes, by value: a reader over the result reads fields
    /// of a fixed-size slot with every bounds check decided at compile time.
    pub fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    pub fn u8(&mut self) -> Option<u8> {
        self.array().map(u8::from_le_bytes)
    }

    pub fn u16(&mut self) -> Option<u16> {
        self.array().map(u16::from_le_bytes)
    }

    pub fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    pub fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// Everything not yet read.
    pub fn rest(&self) -> &'a [u8] {
        self.rest
    }
}

/// A mutable slice shareable across the threads of one parallel kernel.
///
/// Rust's borrow rules (correctly) forbid `&mut [T]` from being captured by a
/// `Fn(usize)` kernel body running on many threads. GPU code has no such
/// guard: every thread writes disjoint elements and the kernel boundary is
/// the synchronization point. This wrapper encodes that contract.
///
/// # Safety contract
///
/// * During a kernel, each index is either **owned by a single thread** (which
///   may read and write it freely) or **read-only** for every thread.
/// * The kernel's fork-join boundary (the `parallel_for` call returning) is a
///   happens-before edge, so reads after the kernel see all writes.
pub struct SharedSliceMut<'a, T> {
    data: &'a [UnsafeCell<T>],
}

// SAFETY: see the struct-level contract; all aliasing is managed by callers
// obeying the one-writer-per-index rule within a kernel.
unsafe impl<T: Send + Sync> Sync for SharedSliceMut<'_, T> {}
unsafe impl<T: Send + Sync> Send for SharedSliceMut<'_, T> {}

impl<'a, T> SharedSliceMut<'a, T> {
    /// Wrap an exclusive slice for the duration of a kernel.
    pub fn new(slice: &'a mut [T]) -> Self {
        // SAFETY: `UnsafeCell<T>` has the same layout as `T`; we hold the
        // unique borrow, so reinterpreting it as a shared slice of cells is
        // sound.
        let data = unsafe {
            std::slice::from_raw_parts(slice.as_ptr() as *const UnsafeCell<T>, slice.len())
        };
        SharedSliceMut { data }
    }

    #[inline]
    #[allow(dead_code)] // part of the wrapper's API; exercised by tests
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[allow(dead_code)]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Write `value` at `index`.
    ///
    /// # Safety
    /// No other thread may access `index` during this kernel.
    #[inline]
    pub unsafe fn write(&self, index: usize, value: T) {
        *self.data[index].get() = value;
    }

    /// Read the value at `index`.
    ///
    /// # Safety
    /// No thread may be writing `index` during this kernel.
    #[inline]
    pub unsafe fn read(&self, index: usize) -> T
    where
        T: Copy,
    {
        *self.data[index].get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn reader_reads_in_order_and_refuses_underruns() {
        let bytes = [1u8, 2, 0, 3, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 9, 8];
        let mut r = LeReader::new(&bytes);
        assert_eq!(r.u8(), Some(1));
        assert_eq!(r.u16(), Some(2));
        assert_eq!(r.u32(), Some(3));
        assert_eq!(r.u64(), Some(4));
        // An underrun consumes nothing.
        assert_eq!(r.u32(), None);
        assert_eq!(r.take(3), None);
        assert_eq!(r.take(1), Some(&[9u8][..]));
        assert_eq!(r.rest(), &[8]);
        assert_eq!(LeReader::new(&[]).u8(), None);
    }

    #[test]
    fn parallel_disjoint_writes() {
        let mut v = vec![0u64; 10_000];
        {
            let shared = SharedSliceMut::new(&mut v);
            (0..shared.len()).into_par_iter().for_each(|i| {
                // SAFETY: each index written exactly once.
                unsafe { shared.write(i, i as u64 * 3) };
            });
        }
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u64 * 3));
    }

    #[test]
    fn read_back_within_later_kernel() {
        let mut v: Vec<u32> = (0..1000).collect();
        let shared = SharedSliceMut::new(&mut v);
        let sum: u64 = (0..shared.len())
            .into_par_iter()
            // SAFETY: read-only kernel, no writers.
            .map(|i| unsafe { shared.read(i) } as u64)
            .sum();
        assert_eq!(sum, 999 * 1000 / 2);
    }
}
