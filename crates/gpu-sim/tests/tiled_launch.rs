//! The tiled kernel launch (`Device::parallel_for_tiles`): coverage, tile
//! boundaries, scheduling units and accounting.
//!
//! Its own test binary, because it flips the process-wide thread-count
//! override.

use gpu_sim::{Device, KernelCost, TILE};
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Mutex;

/// What one launch over `0..n` did: visits per index, the tiles the body
/// saw (sorted), and how many kernel states were built.
fn launch(dev: &Device, n: usize, cost: KernelCost) -> (Vec<u32>, Vec<Range<usize>>, usize) {
    let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    let tiles = Mutex::new(Vec::new());
    let states = AtomicUsize::new(0);
    let init = || states.fetch_add(1, Ordering::Relaxed);
    dev.parallel_for_tiles("touch", n, cost, init, |_, tile| {
        for i in tile.clone() {
            hits[i].fetch_add(1, Ordering::Relaxed);
        }
        tiles.lock().unwrap().push(tile);
    });
    let mut tiles = tiles.into_inner().unwrap();
    tiles.sort_by_key(|t| t.start);
    let hits = hits.into_iter().map(AtomicU32::into_inner).collect();
    (hits, tiles, states.into_inner())
}

#[test]
fn every_index_once_in_tiles_that_ignore_the_thread_count() {
    assert_eq!(91_250usize.div_ceil(TILE), 1426);
    for n in [0, 1, TILE - 1, TILE, TILE + 1, 1023, 1024, 1025, 91_250] {
        let want: Vec<Range<usize>> = (0..n.div_ceil(TILE))
            .map(|t| t * TILE..((t + 1) * TILE).min(n))
            .collect();
        for threads in [1, 2, 4] {
            rayon::set_active_threads(threads);
            let (hits, tiles, states) = launch(&Device::a100(), n, KernelCost::stream(n as u64));
            assert!(hits.iter().all(|&h| h == 1), "n {n}, {threads} threads");
            assert_eq!(tiles, want, "n {n}, {threads} threads");
            // Below the sequential cut-off (counted in items, not tiles) one
            // state serves the whole grid; above it every tile is a unit of
            // its own — 91 250 items are 1 426 units, not 1 024 + 402.
            let units = if n < 1024 { 1 } else { want.len() };
            assert_eq!(states, units, "n {n}, {threads} threads");
        }
    }
    rayon::set_active_threads(0);
}

#[test]
fn one_launch_with_the_callers_cost() {
    let n = 91_250;
    let cost = KernelCost::stream(128 * n as u64).with_writes(16 * n as u64);
    let tiled = Device::a100();
    launch(&tiled, n, cost);
    let per_item = Device::a100();
    per_item.parallel_for("touch", n, cost, |_| {});
    assert_eq!(tiled.metrics().kernels_launched(), 1);
    assert_eq!(tiled.metrics().snapshot(), per_item.metrics().snapshot());
}
