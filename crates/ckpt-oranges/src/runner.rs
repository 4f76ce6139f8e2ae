//! Resumable ORANGES execution with checkpoint hooks.
//!
//! ORANGES computes the GDV of every vertex by enumerating all 2–5-vertex
//! graphlet instances. The run walks the roots in label order a batch at a
//! time (each step enumerates, in parallel, the subgraphs rooted at — i.e.
//! whose minimum is — the batch's vertices and bumps the counters of *all*
//! member vertices). The partially-filled GDV array between steps is
//! exactly the evolving data structure the paper checkpoints at high
//! frequency: updates are sparse and concentrated around the current
//! roots' neighborhood, which Gorder's locality turns into contiguous dirty
//! regions.

use crate::esu::EsuScratch;
use crate::gdv::Gdv;
use crate::orbits::OrbitTable;
use ckpt_graph::CsrGraph;

/// A resumable ORANGES computation over one graph.
pub struct OrangesRun<'g> {
    graph: &'g CsrGraph,
    gdv: Gdv,
    next_root: u32,
    subgraphs_seen: u64,
}

impl<'g> OrangesRun<'g> {
    pub fn new(graph: &'g CsrGraph) -> Self {
        OrangesRun {
            graph,
            gdv: Gdv::new(graph.n_vertices()),
            next_root: 0,
            subgraphs_seen: 0,
        }
    }

    /// Resume from a restored GDV byte buffer and a known progress point
    /// (the restart path after a failure).
    pub fn resume(graph: &'g CsrGraph, gdv_bytes: &[u8], next_root: u32) -> Option<Self> {
        let gdv = Gdv::from_bytes(gdv_bytes)?;
        if gdv.n_vertices() != graph.n_vertices() {
            return None;
        }
        Some(OrangesRun {
            graph,
            gdv,
            next_root,
            subgraphs_seen: 0,
        })
    }

    /// The evolving GDV array (the checkpoint payload).
    pub fn gdv(&self) -> &Gdv {
        &self.gdv
    }

    /// Next unprocessed root vertex.
    pub fn next_root(&self) -> u32 {
        self.next_root
    }

    /// Fraction of roots processed, in [0, 1].
    pub fn progress(&self) -> f64 {
        self.next_root as f64 / self.graph.n_vertices().max(1) as f64
    }

    pub fn is_done(&self) -> bool {
        self.next_root as usize >= self.graph.n_vertices()
    }

    /// Total graphlet instances enumerated so far (this session).
    pub fn subgraphs_seen(&self) -> u64 {
        self.subgraphs_seen
    }

    /// Process up to `batch` root vertices; returns how many were processed
    /// (0 when done). Roots fan out across the thread pool (the application
    /// is GPU-parallel in the paper) and counter bumps are atomic; counter
    /// addition commutes, so the GDV is the sequential walk's whatever the
    /// schedule, which the tests assert.
    pub fn step(&mut self, batch: usize) -> usize {
        use rayon::prelude::*;
        use std::sync::atomic::{AtomicU64, Ordering};

        let table = OrbitTable::global();
        let n = self.graph.n_vertices() as u32;
        let end = (self.next_root + batch as u32).min(n);
        let start = self.next_root;
        if start >= end {
            return 0;
        }
        let graph = self.graph;
        let seen = AtomicU64::new(0);
        let counts = self.gdv.as_atomic();
        (start..end).into_par_iter().for_each_init(
            || EsuScratch::new(graph.n_vertices()),
            |scratch, root| {
                let mut local = 0u64;
                scratch.enumerate_from_root(graph, root, 5, &mut |sub, mask| {
                    local += 1;
                    for (i, &v) in sub.iter().enumerate() {
                        let orbit = table.orbit_of(sub.len(), mask, i) as usize;
                        counts[v as usize * crate::orbits::N_ORBITS + orbit]
                            .fetch_add(1, Ordering::Relaxed);
                    }
                });
                seen.fetch_add(local, Ordering::Relaxed);
            },
        );
        self.next_root = end;
        self.subgraphs_seen += seen.load(Ordering::Relaxed);
        (end - start) as usize
    }

    /// Run to completion.
    pub fn run_to_completion(&mut self) {
        self.step(self.graph.n_vertices());
    }

    /// Evenly spaced checkpoint schedule: process the whole graph while
    /// calling `on_checkpoint(gdv_bytes, completed_roots)` `n_checkpoints`
    /// times, evenly distributed over the run (the paper's frequency
    /// scenario: one initial full checkpoint is the first call; the run ends
    /// at the last).
    pub fn run_with_checkpoints(
        &mut self,
        n_checkpoints: usize,
        mut on_checkpoint: impl FnMut(&[u8], u32),
    ) {
        assert!(n_checkpoints >= 1);
        let n = self.graph.n_vertices() as u32;
        for k in 1..=n_checkpoints as u32 {
            let target = (n as u64 * k as u64 / n_checkpoints as u64) as u32;
            self.step(target.saturating_sub(self.next_root) as usize);
            on_checkpoint(self.gdv.as_bytes(), self.next_root);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orbits::N_ORBITS;

    /// The oracle: [`OrangesRun::step`] as a sequential walk over the
    /// roots, one scratch, plain counter bumps.
    fn serial_step(run: &mut OrangesRun, batch: usize) -> usize {
        let table = OrbitTable::global();
        let end = (run.next_root + batch as u32).min(run.graph.n_vertices() as u32);
        let mut scratch = EsuScratch::new(run.graph.n_vertices());
        for root in run.next_root..end {
            let gdv = &mut run.gdv;
            scratch.enumerate_from_root(run.graph, root, 5, &mut |sub, mask| {
                run.subgraphs_seen += 1;
                for (i, &v) in sub.iter().enumerate() {
                    gdv.bump(v, table.orbit_of(sub.len(), mask, i));
                }
            });
        }
        let processed = (end - run.next_root) as usize;
        run.next_root = end;
        processed
    }

    #[test]
    fn triangle_gdv() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let mut run = OrangesRun::new(&g);
        run.run_to_completion();
        // Each vertex: 2 edge-orbits (orbit 0), 1 triangle membership.
        let table = OrbitTable::global();
        let tri_orbit = table.orbit_of(3, 0b111, 0) as usize;
        for v in 0..3 {
            assert_eq!(run.gdv().row(v)[0], 2, "vertex {v} edge count");
            assert_eq!(run.gdv().row(v)[tri_orbit], 1, "vertex {v} triangle count");
        }
        assert_eq!(run.subgraphs_seen(), 4);
    }

    #[test]
    fn path4_center_vs_end_orbits() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut run = OrangesRun::new(&g);
        run.run_to_completion();
        // Orbit 0 (edge) counts are the degrees.
        assert_eq!(run.gdv().row(0)[0], 1);
        assert_eq!(run.gdv().row(1)[0], 2);
        // Symmetry of the path: rows of 0 and 3 match, rows of 1 and 2 match.
        assert_eq!(run.gdv().row(0), run.gdv().row(3));
        assert_eq!(run.gdv().row(1), run.gdv().row(2));
        assert_ne!(run.gdv().row(0), run.gdv().row(1));
    }

    #[test]
    fn orbit0_equals_degree_everywhere() {
        let g = ckpt_graph::generators::message_race(2000, 3);
        let mut run = OrangesRun::new(&g);
        run.run_to_completion();
        for v in 0..g.n_vertices() as u32 {
            assert_eq!(run.gdv().row(v)[0] as usize, g.degree(v), "vertex {v}");
        }
    }

    #[test]
    fn stepped_run_equals_single_run() {
        let g = ckpt_graph::generators::delaunay(400, 1);
        let mut a = OrangesRun::new(&g);
        a.run_to_completion();
        let mut b = OrangesRun::new(&g);
        while b.step(37) > 0 {}
        assert_eq!(a.gdv(), b.gdv());
    }

    #[test]
    fn gdv_total_counts_subgraph_memberships() {
        // Σ_v Σ_o GDV[v][o] = Σ_k k · (#connected induced k-subgraphs).
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]);
        let mut run = OrangesRun::new(&g);
        run.run_to_completion();
        let mut weighted = 0u64;
        let mut scratch = EsuScratch::new(5);
        for root in 0..5 {
            scratch.enumerate_from_root(&g, root, 5, &mut |sub, _| weighted += sub.len() as u64);
        }
        assert_eq!(run.gdv().total(), weighted);
    }

    #[test]
    fn checkpoint_schedule_is_even_and_monotonic() {
        let g = ckpt_graph::generators::hugebubbles(900, 2);
        let n = g.n_vertices() as u32;
        let mut run = OrangesRun::new(&g);
        let mut marks = Vec::new();
        run.run_with_checkpoints(10, |bytes, done| {
            assert_eq!(bytes.len(), g.n_vertices() * N_ORBITS * 4);
            marks.push(done);
        });
        assert_eq!(marks.len(), 10);
        assert!(marks.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*marks.last().unwrap(), n);
        assert!(run.is_done());
    }

    #[test]
    fn parallel_run_equals_serial() {
        let g = ckpt_graph::generators::delaunay(1200, 6);
        let mut serial = OrangesRun::new(&g);
        while serial_step(&mut serial, 1024) > 0 {}
        let mut par = OrangesRun::new(&g);
        par.run_to_completion();
        assert_eq!(par.gdv(), serial.gdv());
        assert_eq!(par.subgraphs_seen(), serial.subgraphs_seen());
    }

    #[test]
    fn parallel_checkpoint_snapshots_equal_serial() {
        let g = ckpt_graph::generators::message_race(1500, 8);
        let n = g.n_vertices();
        let mut a = Vec::new();
        let mut serial = OrangesRun::new(&g);
        for k in 1..=6 {
            let batch = n * k / 6 - serial.next_root() as usize;
            serial_step(&mut serial, batch);
            a.push(serial.gdv().as_bytes().to_vec());
        }
        let mut b = Vec::new();
        OrangesRun::new(&g).run_with_checkpoints(6, |bytes, _| b.push(bytes.to_vec()));
        assert_eq!(a, b);
    }

    #[test]
    fn resume_reproduces_uninterrupted_run() {
        let g = ckpt_graph::generators::unstructured_mesh(600, 4);
        // Uninterrupted.
        let mut full = OrangesRun::new(&g);
        full.run_to_completion();
        // Interrupted at ~half, checkpointed, resumed.
        let mut first = OrangesRun::new(&g);
        let half = (g.n_vertices() / 2) as u32;
        while first.next_root() < half {
            first.step(64);
        }
        let snapshot = first.gdv().as_bytes().to_vec();
        let mut resumed = OrangesRun::resume(&g, &snapshot, first.next_root()).unwrap();
        resumed.run_to_completion();
        assert_eq!(resumed.gdv(), full.gdv());
    }

    #[test]
    fn resume_rejects_wrong_graph() {
        let g = ckpt_graph::generators::delaunay(100, 0);
        let other = ckpt_graph::generators::delaunay(400, 0);
        let run = OrangesRun::new(&g);
        assert!(OrangesRun::resume(&other, run.gdv().as_bytes(), 0).is_none());
        assert!(OrangesRun::resume(&g, &[1, 2, 3], 0).is_none());
    }

    #[test]
    fn updates_between_checkpoints_are_sparse() {
        // The property the whole paper rests on: between consecutive
        // checkpoints only a small fraction of the GDV array changes.
        let g = ckpt_graph::generators::message_race(3000, 5);
        let mut run = OrangesRun::new(&g);
        let mut prev: Option<Vec<u8>> = None;
        let mut min_unchanged = f64::MAX;
        run.run_with_checkpoints(10, |bytes, _| {
            if let Some(p) = &prev {
                let same = bytes.iter().zip(p).filter(|(a, b)| a == b).count();
                min_unchanged = min_unchanged.min(same as f64 / bytes.len() as f64);
            }
            prev = Some(bytes.to_vec());
        });
        assert!(
            min_unchanged > 0.7,
            "expected sparse updates, worst checkpoint changed {:.0}%",
            (1.0 - min_unchanged) * 100.0
        );
    }
}
