//! ORANGES — ORbit ANd Graphlet Enumeration at Scale.
//!
//! The paper's driver application: for every vertex of an input graph,
//! compute its graphlet degree vector (GDV) over all 2–5-vertex graphlets
//! (30 graphlets, 73 orbits). The evolving per-vertex counter array is the
//! data structure the checkpointing engine captures at high frequency.
//!
//! * [`orbits`] — derived graphlet/orbit classification tables;
//! * [`esu`] — exact-once enumeration of connected induced subgraphs
//!   (Wernicke's ESU);
//! * [`gdv`] — the flat GDV counter array with a zero-copy byte view;
//! * [`runner`] — resumable execution, roots in label order and each
//!   batch of them enumerated in parallel, with evenly spaced checkpoint
//!   hooks and a restart path.
//!
//! ```
//! use ckpt_oranges::OrangesRun;
//! let g = ckpt_graph::generators::delaunay(500, 1);
//! let mut run = OrangesRun::new(&g);
//! // Five snapshots; the parallel enumerator between them produces the
//! // sequential walk's counts, so every snapshot is reproducible.
//! run.run_with_checkpoints(5, |gdv_bytes, done_roots| {
//!     // hand `gdv_bytes` to the checkpointing engine
//!     assert!(done_roots as usize <= g.n_vertices());
//!     assert_eq!(gdv_bytes.len(), g.n_vertices() * 73 * 4);
//! });
//! ```

pub mod esu;
pub mod gdv;
pub mod orbits;
pub mod runner;

pub use gdv::Gdv;
pub use orbits::{OrbitTable, N_GRAPHLETS, N_ORBITS};
pub use runner::OrangesRun;
