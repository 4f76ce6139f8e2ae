//! Checkpoint workload generation: ORANGES GDV snapshot sequences.
//!
//! Every experiment consumes the same kind of object the paper checkpoints:
//! the evolving GDV array of an ORANGES run over one of the Table 1 graphs,
//! captured at `n_checkpoints` evenly spaced points (§3.2, "we capture a
//! full initial checkpoint, then another N−1 incremental checkpoints evenly
//! distributed during the runtime").

use ckpt_graph::{gorder, CsrGraph, PaperGraph};
use ckpt_oranges::OrangesRun;
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, SeedableRng};

/// Vertex labeling applied before the ORANGES run.
///
/// The paper's real inputs arrive with arbitrary (non-local) vertex ids and
/// are pre-processed with Gorder (§3.2). Our synthetic generators emit
/// naturally local ids, so modeling "as received" means scrambling first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VertexOrder {
    /// The generator's native labeling (already fairly local).
    Natural,
    /// Deterministically shuffled labels — how real-world inputs arrive.
    Scrambled,
    /// Scrambled, then breadth-first reordered.
    Bfs,
    /// Scrambled, then reverse Cuthill–McKee reordered.
    Rcm,
    /// Scrambled, then reordered with Gorder — the paper's pre-processing.
    Gorder,
}

/// A ready-to-checkpoint snapshot sequence.
#[derive(Debug, Clone)]
pub struct Workload {
    pub graph: PaperGraph,
    pub n_vertices: usize,
    /// GDV byte snapshots, one per checkpoint (first = initial checkpoint).
    pub snapshots: Vec<Vec<u8>>,
}

impl Workload {
    /// Bytes of one (full) checkpoint.
    pub fn snapshot_bytes(&self) -> usize {
        self.snapshots.first().map_or(0, |s| s.len())
    }
}

fn scramble(g: &CsrGraph, seed: u64) -> CsrGraph {
    let mut perm: Vec<u32> = (0..g.n_vertices() as u32).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5ca3_3b1e);
    perm.shuffle(&mut rng);
    g.permute(&perm)
}

/// Build the GDV snapshot sequence for `graph` at `n_target` vertices under
/// the given vertex ordering.
pub fn gdv_snapshots_ordered(
    graph: PaperGraph,
    n_target: usize,
    n_checkpoints: usize,
    seed: u64,
    order: VertexOrder,
) -> Workload {
    let g = graph.generate(n_target, seed);
    let g = match order {
        VertexOrder::Natural => g,
        VertexOrder::Scrambled => scramble(&g, seed),
        VertexOrder::Bfs => {
            let s = scramble(&g, seed);
            s.permute(&ckpt_graph::bfs_order(&s))
        }
        VertexOrder::Rcm => {
            let s = scramble(&g, seed);
            s.permute(&ckpt_graph::rcm_order(&s))
        }
        VertexOrder::Gorder => gorder::reorder(&scramble(&g, seed)),
    };
    let mut snapshots = Vec::with_capacity(n_checkpoints);
    let mut run = OrangesRun::new(&g);
    run.run_with_checkpoints(n_checkpoints, |bytes, _| snapshots.push(bytes.to_vec()));
    Workload {
        graph,
        n_vertices: g.n_vertices(),
        snapshots,
    }
}

/// [`gdv_snapshots_ordered`] with the paper's default pre-processing
/// (`use_gorder = true` → [`VertexOrder::Gorder`], else as-received).
pub fn gdv_snapshots(
    graph: PaperGraph,
    n_target: usize,
    n_checkpoints: usize,
    seed: u64,
    use_gorder: bool,
) -> Workload {
    let order = if use_gorder {
        VertexOrder::Gorder
    } else {
        VertexOrder::Scrambled
    };
    gdv_snapshots_ordered(graph, n_target, n_checkpoints, seed, order)
}

/// Per-rank workload for the strong-scaling experiment: every rank runs
/// ORANGES over its own partition-equivalent copy (the paper's setup is
/// embarrassingly parallel, one process per GPU), decorrelated by seed.
///
/// The paper's scaling scenario checkpoints every 10 minutes while "at
/// scale, for larger dense graphs, the number of iterations rapidly
/// increases" — its 10 checkpoints sample the *early* part of a much longer
/// Delaunay run, where the GDV array is still mostly zeros. `coverage` is
/// the fraction of root vertices completed by the final checkpoint
/// ([`SCALING_COVERAGE`] by default).
pub fn scaling_snapshots(
    rank: u32,
    n_target: usize,
    n_checkpoints: usize,
    seed: u64,
) -> Vec<Vec<u8>> {
    scaling_snapshots_with_coverage(rank, n_target, n_checkpoints, seed, SCALING_COVERAGE)
}

/// Fraction of the ORANGES run the scaling scenario's checkpoints cover.
pub const SCALING_COVERAGE: f64 = 0.25;

/// [`scaling_snapshots`] with an explicit run-coverage fraction.
pub fn scaling_snapshots_with_coverage(
    rank: u32,
    n_target: usize,
    n_checkpoints: usize,
    seed: u64,
    coverage: f64,
) -> Vec<Vec<u8>> {
    let seed = seed ^ (rank as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let g = PaperGraph::DelaunayN24.generate(n_target, seed);
    let g = gorder::reorder(&scramble(&g, seed));
    let n = g.n_vertices() as u64;
    let mut run = OrangesRun::new(&g);
    let mut snapshots = Vec::with_capacity(n_checkpoints);
    for k in 1..=n_checkpoints as u64 {
        let target = ((n as f64 * coverage) as u64 * k / n_checkpoints as u64) as u32;
        while run.next_root() < target {
            let batch = (target - run.next_root()) as usize;
            run.step(batch);
        }
        snapshots.push(run.gdv().as_bytes().to_vec());
    }
    snapshots
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_have_constant_size_and_grow_monotonically() {
        let w = gdv_snapshots(PaperGraph::MessageRace, 2000, 5, 1, true);
        assert_eq!(w.snapshots.len(), 5);
        let len = w.snapshot_bytes();
        assert_eq!(len, w.n_vertices * 73 * 4);
        assert!(w.snapshots.iter().all(|s| s.len() == len));
        // Counters only increase: each snapshot differs from the previous.
        for pair in w.snapshots.windows(2) {
            assert_ne!(pair[0], pair[1]);
        }
    }

    #[test]
    fn gorder_reduces_dirty_chunks() {
        // Count 128-byte chunks that change between consecutive snapshots —
        // the granularity the de-duplication methods see. Gorder clusters
        // each interval's updates into fewer chunks than an as-received
        // (scrambled) labeling.
        fn mean_dirty_chunks(w: &Workload) -> f64 {
            let mut total = 0usize;
            for pair in w.snapshots.windows(2) {
                total += pair[0]
                    .chunks(128)
                    .zip(pair[1].chunks(128))
                    .filter(|(a, b)| a != b)
                    .count();
            }
            total as f64 / (w.snapshots.len() - 1) as f64
        }
        let with = gdv_snapshots(PaperGraph::AsiaOsm, 4000, 10, 2, true);
        let without = gdv_snapshots(PaperGraph::AsiaOsm, 4000, 10, 2, false);
        // Same data volume, different layout.
        assert_eq!(with.snapshot_bytes(), without.snapshot_bytes());
        assert!(
            mean_dirty_chunks(&with) < 0.9 * mean_dirty_chunks(&without),
            "gorder {} dirty chunks vs scrambled {}",
            mean_dirty_chunks(&with),
            mean_dirty_chunks(&without)
        );
    }

    #[test]
    fn scaling_ranks_are_decorrelated() {
        let a = scaling_snapshots(0, 1000, 3, 5);
        let b = scaling_snapshots(1, 1000, 3, 5);
        assert_eq!(a.len(), 3);
        assert_ne!(a[0], b[0]);
    }
}
