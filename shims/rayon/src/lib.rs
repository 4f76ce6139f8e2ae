//! Minimal offline stand-in for the subset of `rayon` 1.x this workspace
//! uses, backed by a persistent work-stealing thread pool (`pool`).
//!
//! Unlike the earlier shim — which wrapped sequential iterators and spawned
//! fresh scoped threads per `for_each` — every terminal here (`for_each`,
//! `map`+`collect`, `reduce`, `sum`, `count`) executes on the shared pool.
//! Sources and adapters implement an indexed [`Producer`] model (length +
//! random access by position), which is what makes *value-producing*
//! terminals parallelizable with deterministic results:
//!
//! * `collect` writes each item into a pre-sized output slot at its source
//!   position, so output order is independent of execution order;
//! * `reduce`/`sum` compute one partial per executor chunk and combine the
//!   partials in ascending chunk order. Chunk boundaries are a pure
//!   function of the item count (`pool::plan`), never of the thread
//!   count, so even non-associative combines (float sums, hash folds) are
//!   bit-identical at 1, 2, or N threads.
//!
//! The modeled device time in `gpu-sim` is computed analytically and is
//! unaffected by how many host threads execute a kernel; only wall time
//! changes with [`set_active_threads`].

use std::marker::PhantomData;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::ops::Range;

pub mod host_clock;
mod pool;

pub use host_clock::{host_clock_enable, host_clock_take, HostClockSample};
pub use pool::{current_num_threads, pool_spawned_threads, set_active_threads, MAX_POOL_THREADS};

pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSlice, ParallelSliceMut};
}

/// A fixed-length source of work items with random access by position.
///
/// # Safety
///
/// Implementations must tolerate `item(i)` being called concurrently for
/// distinct `i`, and terminals must call `item(i)` **at most once** per
/// index — producers like [`VecProducer`] move values out by position.
#[allow(clippy::len_without_is_empty)]
pub unsafe trait Producer: Sync {
    type Item: Send;

    fn len(&self) -> usize;

    /// Items per executor chunk below which splitting isn't worthwhile.
    /// Must be a constant per producer *type* (heavier items → smaller
    /// value): chunk boundaries derive from it, and cross-thread-count
    /// determinism requires boundaries that depend only on the source
    /// shape.
    fn min_items_per_chunk(&self) -> usize {
        1024
    }

    /// Items per executor chunk above which a chunk is split further, even
    /// past the pool's chunks-per-job budget ([`Par::with_max_len`]). Like
    /// the minimum, a property of the source, never of the thread count.
    fn max_items_per_chunk(&self) -> usize {
        usize::MAX
    }

    /// Produce the item at position `i`.
    ///
    /// # Safety
    /// `i < self.len()`, called at most once per index per terminal, and
    /// concurrent calls only for distinct indices.
    unsafe fn item(&self, i: usize) -> Self::Item;
}

pub struct Par<P>(P);

pub trait IntoParallelIterator {
    type Item: Send;
    type Producer: Producer<Item = Self::Item>;
    fn into_par_iter(self) -> Par<Self::Producer>;
}

impl<P: Producer> IntoParallelIterator for Par<P> {
    type Item = P::Item;
    type Producer = P;
    fn into_par_iter(self) -> Par<P> {
        self
    }
}

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------

pub struct RangeProducer<T> {
    start: T,
    len: usize,
}

macro_rules! impl_range_producer {
    ($($t:ty),*) => {$(
        // SAFETY: indexing is pure arithmetic; items are `Copy`.
        unsafe impl Producer for RangeProducer<$t> {
            type Item = $t;
            fn len(&self) -> usize {
                self.len
            }
            unsafe fn item(&self, i: usize) -> $t {
                self.start + i as $t
            }
        }

        impl IntoParallelIterator for Range<$t> {
            type Item = $t;
            type Producer = RangeProducer<$t>;
            fn into_par_iter(self) -> Par<RangeProducer<$t>> {
                let len = if self.end > self.start {
                    (self.end - self.start) as usize
                } else {
                    0
                };
                Par(RangeProducer { start: self.start, len })
            }
        }
    )*};
}

impl_range_producer!(usize, u32, u64);

/// Owning producer over a `Vec`: items are moved out by position.
pub struct VecProducer<T: Send> {
    buf: *mut T,
    len: usize,
    cap: usize,
}

// SAFETY: access is index-disjoint per the `Producer` contract; `T: Send`
// lets items cross to worker threads.
unsafe impl<T: Send> Sync for VecProducer<T> {}
unsafe impl<T: Send> Send for VecProducer<T> {}

// SAFETY: each index read at most once (contract), so no double-move.
unsafe impl<T: Send> Producer for VecProducer<T> {
    type Item = T;
    fn len(&self) -> usize {
        self.len
    }
    /// Owned vectors in this workspace carry coarse items (gather segments,
    /// whole sub-slices), so every item is its own unit of work.
    fn min_items_per_chunk(&self) -> usize {
        1
    }
    unsafe fn item(&self, i: usize) -> T {
        unsafe { std::ptr::read(self.buf.add(i)) }
    }
}

impl<T: Send> Drop for VecProducer<T> {
    fn drop(&mut self) {
        // Reclaims the allocation only: items were moved out by `item`. If
        // a panicking terminal left indices unconsumed their values leak —
        // the documented trade-off for lock-free by-index consumption.
        unsafe { drop(Vec::from_raw_parts(self.buf, 0, self.cap)) };
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Producer = VecProducer<T>;
    fn into_par_iter(self) -> Par<VecProducer<T>> {
        let mut v = ManuallyDrop::new(self);
        Par(VecProducer {
            buf: v.as_mut_ptr(),
            len: v.len(),
            cap: v.capacity(),
        })
    }
}

pub struct SliceProducer<'a, T> {
    slice: &'a [T],
}

// SAFETY: shared references to distinct (or even equal) indices are fine.
unsafe impl<'a, T: Sync> Producer for SliceProducer<'a, T> {
    type Item = &'a T;
    fn len(&self) -> usize {
        self.slice.len()
    }
    unsafe fn item(&self, i: usize) -> &'a T {
        unsafe { self.slice.get_unchecked(i) }
    }
}

pub struct ChunksProducer<'a, T> {
    slice: &'a [T],
    size: usize,
}

// SAFETY: shared sub-slices; indexing bounded by `len()`.
unsafe impl<'a, T: Sync> Producer for ChunksProducer<'a, T> {
    type Item = &'a [T];
    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }
    fn min_items_per_chunk(&self) -> usize {
        1
    }
    unsafe fn item(&self, i: usize) -> &'a [T] {
        let lo = i * self.size;
        let hi = (lo + self.size).min(self.slice.len());
        &self.slice[lo..hi]
    }
}

pub struct SliceMutProducer<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: each index is handed out at most once (contract), so the `&mut`s
// produced are disjoint; `T: Send` lets them cross threads.
unsafe impl<T: Send> Sync for SliceMutProducer<'_, T> {}
unsafe impl<T: Send> Send for SliceMutProducer<'_, T> {}

// SAFETY: see `Sync` justification above.
unsafe impl<'a, T: Send + 'a> Producer for SliceMutProducer<'a, T> {
    type Item = &'a mut T;
    fn len(&self) -> usize {
        self.len
    }
    unsafe fn item(&self, i: usize) -> &'a mut T {
        unsafe { &mut *self.ptr.add(i) }
    }
}

pub struct ChunksMutProducer<'a, T> {
    ptr: *mut T,
    len: usize,
    size: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: as for `SliceMutProducer`; chunks at distinct indices are
// disjoint sub-slices.
unsafe impl<T: Send> Sync for ChunksMutProducer<'_, T> {}
unsafe impl<T: Send> Send for ChunksMutProducer<'_, T> {}

// SAFETY: see `Sync` justification above.
unsafe impl<'a, T: Send + 'a> Producer for ChunksMutProducer<'a, T> {
    type Item = &'a mut [T];
    fn len(&self) -> usize {
        self.len.div_ceil(self.size)
    }
    fn min_items_per_chunk(&self) -> usize {
        1
    }
    unsafe fn item(&self, i: usize) -> &'a mut [T] {
        let lo = i * self.size;
        let n = self.size.min(self.len - lo);
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(lo), n) }
    }
}

pub trait ParallelSlice<T: Sync> {
    fn par_iter(&self) -> Par<SliceProducer<'_, T>>;
    fn par_chunks(&self, chunk_size: usize) -> Par<ChunksProducer<'_, T>>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> Par<SliceProducer<'_, T>> {
        Par(SliceProducer { slice: self })
    }
    fn par_chunks(&self, chunk_size: usize) -> Par<ChunksProducer<'_, T>> {
        assert!(chunk_size > 0, "chunk_size must be positive");
        Par(ChunksProducer {
            slice: self,
            size: chunk_size,
        })
    }
}

pub trait ParallelSliceMut<T: Send> {
    fn par_iter_mut(&mut self) -> Par<SliceMutProducer<'_, T>>;
    fn par_chunks_mut(&mut self, chunk_size: usize) -> Par<ChunksMutProducer<'_, T>>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> Par<SliceMutProducer<'_, T>> {
        Par(SliceMutProducer {
            ptr: self.as_mut_ptr(),
            len: self.len(),
            _marker: PhantomData,
        })
    }
    fn par_chunks_mut(&mut self, chunk_size: usize) -> Par<ChunksMutProducer<'_, T>> {
        assert!(chunk_size > 0, "chunk_size must be positive");
        Par(ChunksMutProducer {
            ptr: self.as_mut_ptr(),
            len: self.len(),
            size: chunk_size,
            _marker: PhantomData,
        })
    }
}

// ---------------------------------------------------------------------------
// Adapters
// ---------------------------------------------------------------------------

pub struct MapProducer<P, F> {
    inner: P,
    f: F,
}

// SAFETY: forwards the inner producer's guarantees; `f` is `Sync`.
unsafe impl<P, O, F> Producer for MapProducer<P, F>
where
    P: Producer,
    O: Send,
    F: Fn(P::Item) -> O + Sync,
{
    type Item = O;
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn min_items_per_chunk(&self) -> usize {
        self.inner.min_items_per_chunk()
    }
    unsafe fn item(&self, i: usize) -> O {
        (self.f)(unsafe { self.inner.item(i) })
    }
}

pub struct EnumerateProducer<P> {
    inner: P,
}

// SAFETY: forwards the inner producer's guarantees.
unsafe impl<P: Producer> Producer for EnumerateProducer<P> {
    type Item = (usize, P::Item);
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn min_items_per_chunk(&self) -> usize {
        self.inner.min_items_per_chunk()
    }
    unsafe fn item(&self, i: usize) -> (usize, P::Item) {
        (i, unsafe { self.inner.item(i) })
    }
}

pub struct MaxLenProducer<P> {
    inner: P,
    max: usize,
}

// SAFETY: forwards the inner producer's guarantees.
unsafe impl<P: Producer> Producer for MaxLenProducer<P> {
    type Item = P::Item;
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn min_items_per_chunk(&self) -> usize {
        self.inner.min_items_per_chunk()
    }
    fn max_items_per_chunk(&self) -> usize {
        self.inner.max_items_per_chunk().min(self.max)
    }
    unsafe fn item(&self, i: usize) -> P::Item {
        unsafe { self.inner.item(i) }
    }
}

pub struct ZipProducer<A, B> {
    a: A,
    b: B,
}

// SAFETY: forwards both producers' guarantees; length is the minimum, so
// indices stay in bounds for both sides.
unsafe impl<A: Producer, B: Producer> Producer for ZipProducer<A, B> {
    type Item = (A::Item, B::Item);
    fn len(&self) -> usize {
        self.a.len().min(self.b.len())
    }
    fn min_items_per_chunk(&self) -> usize {
        self.a
            .min_items_per_chunk()
            .min(self.b.min_items_per_chunk())
    }
    unsafe fn item(&self, i: usize) -> (A::Item, B::Item) {
        unsafe { (self.a.item(i), self.b.item(i)) }
    }
}

// ---------------------------------------------------------------------------
// Terminals
// ---------------------------------------------------------------------------

/// Shared pointer into a pre-sized slot array; each slot is written by
/// exactly one chunk/item, making concurrent writes disjoint.
struct Slots<T>(*mut MaybeUninit<T>);
// SAFETY: writes are index-disjoint (one writer per slot).
unsafe impl<T: Send> Sync for Slots<T> {}

impl<T> Slots<T> {
    /// # Safety
    /// `i` in bounds and written by exactly one thread.
    unsafe fn write(&self, i: usize, value: T) {
        unsafe { (*self.0.add(i)).write(value) };
    }
}

/// Assume all `slots` are initialized and reinterpret as `Vec<T>`.
///
/// # Safety
/// Every element must have been written.
unsafe fn assume_init_vec<T>(slots: Vec<MaybeUninit<T>>) -> Vec<T> {
    let mut s = ManuallyDrop::new(slots);
    unsafe { Vec::from_raw_parts(s.as_mut_ptr() as *mut T, s.len(), s.capacity()) }
}

fn uninit_slots<T>(n: usize) -> Vec<MaybeUninit<T>> {
    let mut v = Vec::with_capacity(n);
    // SAFETY: `MaybeUninit` needs no initialization.
    unsafe { v.set_len(n) };
    v
}

impl<P: Producer> Par<P> {
    pub fn map<O, F>(self, f: F) -> Par<MapProducer<P, F>>
    where
        O: Send,
        F: Fn(P::Item) -> O + Sync,
    {
        Par(MapProducer { inner: self.0, f })
    }

    pub fn enumerate(self) -> Par<EnumerateProducer<P>> {
        Par(EnumerateProducer { inner: self.0 })
    }

    /// Cap the items one executor chunk may hold (rayon's `with_max_len`).
    /// `with_max_len(1)` makes every item its own schedulable unit — for
    /// sources whose items are already coarse (a tile of a kernel grid).
    pub fn with_max_len(self, max: usize) -> Par<MaxLenProducer<P>> {
        assert!(max > 0, "max_len must be positive");
        Par(MaxLenProducer { inner: self.0, max })
    }

    pub fn zip<J: IntoParallelIterator>(self, other: J) -> Par<ZipProducer<P, J::Producer>> {
        Par(ZipProducer {
            a: self.0,
            b: other.into_par_iter().0,
        })
    }

    pub fn for_each<F>(self, f: F)
    where
        F: Fn(P::Item) + Sync,
    {
        let p = self.0;
        let plan = pool::plan(&p);
        let n = p.len();
        pool::run_chunks(plan.n_chunks, &|c| {
            let lo = c * plan.chunk_size;
            let hi = (lo + plan.chunk_size).min(n);
            for i in lo..hi {
                // SAFETY: chunks partition 0..n; each index visited once.
                f(unsafe { p.item(i) });
            }
        });
    }

    /// Like `for_each`, but each executor chunk builds its own state with
    /// `init` first — the hook kernels use for per-chunk scratch buffers
    /// and batched-atomic accumulators.
    pub fn for_each_init<T, INIT, F>(self, init: INIT, f: F)
    where
        INIT: Fn() -> T + Sync,
        F: Fn(&mut T, P::Item) + Sync,
    {
        let p = self.0;
        let plan = pool::plan(&p);
        let n = p.len();
        pool::run_chunks(plan.n_chunks, &|c| {
            let lo = c * plan.chunk_size;
            let hi = (lo + plan.chunk_size).min(n);
            let mut state = init();
            for i in lo..hi {
                // SAFETY: chunks partition 0..n; each index visited once.
                f(&mut state, unsafe { p.item(i) });
            }
        });
    }

    /// Parallel reduce with deterministic combine order: one partial per
    /// chunk, folded left-to-right by ascending chunk index. Bit-identical
    /// at any thread count, even for non-associative `op`.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> P::Item
    where
        ID: Fn() -> P::Item + Sync,
        OP: Fn(P::Item, P::Item) -> P::Item + Sync,
    {
        let p = self.0;
        let n = p.len();
        let plan = pool::plan(&p);
        if plan.n_chunks == 0 {
            return identity();
        }
        let mut partials = uninit_slots::<P::Item>(plan.n_chunks);
        let slots = Slots(partials.as_mut_ptr());
        pool::run_chunks(plan.n_chunks, &|c| {
            let lo = c * plan.chunk_size;
            let hi = (lo + plan.chunk_size).min(n);
            // SAFETY: chunks partition 0..n; indices consumed once each.
            let mut acc = unsafe { p.item(lo) };
            for i in lo + 1..hi {
                acc = op(acc, unsafe { p.item(i) });
            }
            // SAFETY: slot `c` written exactly once, by this chunk.
            unsafe { slots.write(c, acc) };
        });
        // SAFETY: run_chunks executed every chunk (a panic would have
        // propagated), so every partial slot is initialized.
        let partials = unsafe { assume_init_vec(partials) };
        partials.into_iter().fold(identity(), &op)
    }

    /// Parallel sum via per-chunk partials combined in chunk order.
    pub fn sum<S>(self) -> S
    where
        S: Send + std::iter::Sum<P::Item> + std::iter::Sum<S>,
    {
        let p = self.0;
        let n = p.len();
        let plan = pool::plan(&p);
        if plan.n_chunks == 0 {
            return std::iter::empty::<P::Item>().sum();
        }
        let mut partials = uninit_slots::<S>(plan.n_chunks);
        let slots = Slots(partials.as_mut_ptr());
        pool::run_chunks(plan.n_chunks, &|c| {
            let lo = c * plan.chunk_size;
            let hi = (lo + plan.chunk_size).min(n);
            // SAFETY: chunks partition 0..n; indices consumed once each.
            let part: S = (lo..hi).map(|i| unsafe { p.item(i) }).sum();
            // SAFETY: slot `c` written exactly once, by this chunk.
            unsafe { slots.write(c, part) };
        });
        // SAFETY: every chunk ran, so every partial is initialized.
        let partials = unsafe { assume_init_vec(partials) };
        partials.into_iter().sum()
    }

    pub fn count(self) -> usize {
        self.0.len()
    }

    /// Parallel collect: each item is written into the output slot at its
    /// source position, so the result order matches the source regardless
    /// of which thread produced which item.
    pub fn collect<C: FromIterator<P::Item>>(self) -> C {
        let p = self.0;
        let n = p.len();
        let mut out = uninit_slots::<P::Item>(n);
        let slots = Slots(out.as_mut_ptr());
        let plan = pool::plan(&p);
        pool::run_chunks(plan.n_chunks, &|c| {
            let lo = c * plan.chunk_size;
            let hi = (lo + plan.chunk_size).min(n);
            for i in lo..hi {
                // SAFETY: chunks partition 0..n — slot `i` written exactly
                // once, and `item(i)` consumed exactly once.
                unsafe { slots.write(i, p.item(i)) };
            }
        });
        // SAFETY: every chunk ran, so every slot is initialized.
        let items = unsafe { assume_init_vec(out) };
        items.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{current_num_threads, pool_spawned_threads, set_active_threads};
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// Tests that touch the global thread-count override or assert on pool
    /// spawn counts serialize through this lock.
    static POOL_TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        POOL_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn for_each_covers_every_index_in_parallel() {
        let n = 40_000usize;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        (0..n).into_par_iter().for_each(|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn map_reduce_and_chunked_zip_match_sequential() {
        let n = 10_000u64;
        let total: u64 = (0..n as usize)
            .into_par_iter()
            .map(|i| i as u64)
            .reduce(|| 0, |a, b| a + b);
        assert_eq!(total, n * (n - 1) / 2);

        let input: Vec<u64> = (0..n).collect();
        let mut out = vec![0u64; input.len()];
        out.par_chunks_mut(128)
            .zip(input.par_chunks(128))
            .for_each(|(o, i)| {
                o.copy_from_slice(i);
            });
        assert_eq!(out, input);
    }

    #[test]
    fn collect_preserves_source_order_at_many_threads() {
        let _g = locked();
        for threads in [1, 2, 5, 16] {
            set_active_threads(threads);
            let v: Vec<u64> = (0..100_000usize)
                .into_par_iter()
                .map(|i| i as u64 * 7)
                .collect();
            assert_eq!(v.len(), 100_000);
            assert!(v.iter().enumerate().all(|(i, &x)| x == i as u64 * 7));
        }
        set_active_threads(0);
    }

    #[test]
    fn nonassociative_reduce_is_bit_identical_across_thread_counts() {
        let _g = locked();
        // Float addition is not associative: any thread-count-dependent
        // combine order would change low-order bits.
        let run = || -> f64 {
            (0..200_000usize)
                .into_par_iter()
                .map(|i| 1.0f64 / (i as f64 + 1.0))
                .reduce(|| 0.0, |a, b| a + b)
        };
        set_active_threads(1);
        let base = run();
        for threads in [2, 3, 8, 32] {
            set_active_threads(threads);
            assert_eq!(run().to_bits(), base.to_bits(), "threads={threads}");
        }
        set_active_threads(0);
    }

    #[test]
    fn pool_is_reused_after_warmup() {
        let _g = locked();
        set_active_threads(4);
        let work = || {
            (0..100_000usize).into_par_iter().for_each(|i| {
                std::hint::black_box(i.wrapping_mul(0x9e37_79b9));
            });
        };
        work(); // warmup: spawns up to 3 workers
        let warm = pool_spawned_threads();
        for _ in 0..20 {
            work();
        }
        assert_eq!(
            pool_spawned_threads(),
            warm,
            "persistent pool must not spawn threads after warmup"
        );
        set_active_threads(0);
    }

    #[test]
    fn panic_in_worker_chunk_propagates_to_caller() {
        let _g = locked();
        set_active_threads(4);
        let r = std::panic::catch_unwind(|| {
            (0..100_000usize).into_par_iter().for_each(|i| {
                if i == 67_123 {
                    panic!("boom at {i}");
                }
            });
        });
        set_active_threads(0);
        let payload = r.expect_err("panic must propagate out of for_each");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("boom"), "unexpected payload: {msg:?}");
    }

    #[test]
    fn panic_on_inline_path_propagates_too() {
        // Small n runs inline on the caller with no catch_unwind wrapper.
        let r = std::panic::catch_unwind(|| {
            (0..10usize).into_par_iter().for_each(|i| {
                if i == 3 {
                    panic!("inline boom");
                }
            });
        });
        assert!(r.is_err());
    }

    #[test]
    fn empty_and_single_item_terminals() {
        let hits = AtomicUsize::new(0);
        (0..0usize).into_par_iter().for_each(|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 0);
        let v: Vec<u32> = (0..0u32).into_par_iter().collect();
        assert!(v.is_empty());
        let s: u64 = (0..0usize).into_par_iter().map(|i| i as u64).sum();
        assert_eq!(s, 0);
        let r: u64 = (0..0usize)
            .into_par_iter()
            .map(|i| i as u64)
            .reduce(|| 99, |a, b| a + b);
        assert_eq!(r, 99, "empty reduce yields the identity");

        (0..1usize).into_par_iter().for_each(|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        let v: Vec<u32> = (5..6u32).into_par_iter().collect();
        assert_eq!(v, vec![5]);
        let r: u64 = (7..8usize)
            .into_par_iter()
            .map(|i| i as u64)
            .reduce(|| 0, |a, b| a + b);
        assert_eq!(r, 7);
        assert_eq!((0..1usize).into_par_iter().count(), 1);
    }

    #[test]
    fn for_each_init_builds_state_per_chunk_not_per_item() {
        let inits = AtomicUsize::new(0);
        let n = 50_000usize;
        (0..n).into_par_iter().for_each_init(
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0u64
            },
            |state, i| {
                *state += i as u64;
            },
        );
        let count = inits.load(Ordering::Relaxed);
        assert!(count >= 1 && count <= n / 1024 + 1, "inits={count}");
    }

    #[test]
    fn vec_into_par_iter_moves_items() {
        let src: Vec<String> = (0..5000).map(|i| format!("s{i}")).collect();
        let out: Vec<String> = src.into_par_iter().map(|s| s + "!").collect();
        assert_eq!(out.len(), 5000);
        assert!(out.iter().enumerate().all(|(i, s)| *s == format!("s{i}!")));
    }

    #[test]
    fn enumerate_and_nested_zip_shapes() {
        let data: Vec<u32> = (0..10_000).collect();
        let sum: u64 = data
            .par_iter()
            .enumerate()
            .map(|(i, &v)| (i as u64) ^ (v as u64))
            .sum();
        assert_eq!(sum, 0, "index equals value, so xor is zero everywhere");

        let a: Vec<u64> = (0..4096).collect();
        let b: Vec<u64> = (0..4096).map(|i| i * 2).collect();
        let mut out = vec![0u64; 4096];
        out.par_chunks_mut(64)
            .zip(a.par_chunks(64))
            .zip(b.par_iter())
            .for_each(|((o, x), _)| o.copy_from_slice(x));
        assert_eq!(out, a);
    }

    #[test]
    fn nested_parallel_terminals_run_inline_without_deadlock() {
        let _g = locked();
        set_active_threads(4);
        // A Vec producer treats every item as a work unit, so the outer
        // terminal really submits to the pool; the inner ones must detect
        // the parallel context and run inline instead of deadlocking.
        let outer: Vec<usize> = (0..64).collect();
        let total: u64 = outer
            .into_par_iter()
            .map(|_| {
                (0..10_000usize)
                    .into_par_iter()
                    .map(|j| j as u64)
                    .sum::<u64>()
            })
            .sum();
        set_active_threads(0);
        assert_eq!(total, 64 * (9_999 * 10_000 / 2));
    }

    #[test]
    fn thread_count_override_roundtrip() {
        let _g = locked();
        set_active_threads(3);
        assert_eq!(current_num_threads(), 3);
        set_active_threads(0);
        assert!(current_num_threads() >= 1);
    }
}
