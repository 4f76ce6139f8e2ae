//! Experiment drivers: one function per paper table/figure plus ablations.
//!
//! Each returns plain data; `report` renders it and the `figures` binary
//! wires both to the command line. Absolute numbers differ from the paper's
//! A100 testbed (see `EXPERIMENTS.md`), but each driver reproduces the
//! *design* of its experiment: same sweeps, same baselines, same
//! aggregation rules.

use crate::codecs::{run_codec, run_dedup, MeasuredRecord};
use crate::workload::gdv_snapshots;
use ckpt_compress::all_codecs;
use ckpt_dedup::prelude::*;
use ckpt_graph::{GraphStats, PaperGraph};
use ckpt_runtime::{
    run_scaling, AsyncRuntime, RebasePolicy, RuntimeConfig, ScalingConfig, ScalingMethod,
};
use gpu_sim::Device;

/// Shared experiment knobs (scaled-down defaults; the paper's 11–18 M-vertex
/// graphs become `scale`-vertex synthetic stand-ins).
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// Target vertex count per graph.
    pub scale: usize,
    /// RNG seed for generators.
    pub seed: u64,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            scale: 20_000,
            seed: 42,
        }
    }
}

/// The four de-duplication methods of Figures 4–5, in legend order.
fn dedup_methods(chunk: usize) -> Vec<(&'static str, Box<dyn Checkpointer>)> {
    vec![
        (
            "Full",
            Box::new(FullCheckpointer::new(Device::a100(), chunk)) as Box<dyn Checkpointer>,
        ),
        (
            "Basic",
            Box::new(BasicCheckpointer::new(Device::a100(), chunk)),
        ),
        (
            "List",
            Box::new(ListCheckpointer::new(
                Device::a100(),
                TreeConfig::new(chunk),
            )),
        ),
        (
            "Tree",
            Box::new(TreeCheckpointer::new(
                Device::a100(),
                TreeConfig::new(chunk),
            )),
        ),
    ]
}

// ---------------------------------------------------------------- Table 1

/// One row of Table 1: the original graph's published size next to the
/// synthetic stand-in actually used.
#[derive(Debug)]
pub struct Table1Row {
    pub graph: PaperGraph,
    pub paper_vertices: u64,
    pub paper_arcs: u64,
    pub paper_gdv_bytes: u64,
    pub generated: GraphStats,
    pub generated_gdv_bytes: u64,
}

pub fn table1(cfg: ExpConfig) -> Vec<Table1Row> {
    PaperGraph::all()
        .into_iter()
        .map(|pg| {
            let g = pg.generate(cfg.scale, cfg.seed);
            let stats = GraphStats::compute(&g);
            let gdv = (stats.n_vertices * ckpt_oranges::N_ORBITS * 4) as u64;
            let (v, a, gdvp) = pg.table1_row();
            Table1Row {
                graph: pg,
                paper_vertices: v,
                paper_arcs: a,
                paper_gdv_bytes: gdvp,
                generated: stats,
                generated_gdv_bytes: gdv,
            }
        })
        .collect()
}

// ---------------------------------------------------------------- Figure 4

/// One (graph, chunk-size) cell: all four methods measured.
#[derive(Debug)]
pub struct Fig4Cell {
    pub graph: PaperGraph,
    pub chunk_size: usize,
    pub methods: Vec<MeasuredRecord>,
}

/// Chunk sizes swept by Figure 4.
pub const FIG4_CHUNKS: [usize; 5] = [32, 64, 128, 256, 512];

/// Checkpoints per run in the chunk-size scenario.
pub const FIG4_CHECKPOINTS: usize = 10;

/// Figure 4: impact of chunk size on ratio and throughput, per graph.
pub fn fig4(cfg: ExpConfig) -> Vec<Fig4Cell> {
    let mut out = Vec::new();
    for graph in PaperGraph::single_process() {
        // One ORANGES run per graph, reused across every chunk size and
        // method (only the checkpointing side varies).
        let w = gdv_snapshots(graph, cfg.scale, FIG4_CHECKPOINTS, cfg.seed, true);
        for chunk in FIG4_CHUNKS {
            // The chunk-size scenario aggregates the whole record (the
            // frequency scenario is the one that excludes the initial
            // checkpoint, §3.2).
            let methods = dedup_methods(chunk)
                .into_iter()
                .map(|(name, mut m)| run_dedup(&mut *m, name, &w.snapshots, false))
                .collect();
            out.push(Fig4Cell {
                graph,
                chunk_size: chunk,
                methods,
            });
        }
    }
    out
}

// ---------------------------------------------------------------- Figure 5

/// One (graph, N) cell of Figure 5: dedup methods plus nvCOMP-style codecs.
#[derive(Debug)]
pub struct Fig5Cell {
    pub graph: PaperGraph,
    pub n_checkpoints: usize,
    pub methods: Vec<MeasuredRecord>,
}

/// Checkpoint counts swept by Figure 5.
pub const FIG5_COUNTS: [usize; 3] = [5, 10, 20];

/// Chunk size used in the frequency scenario.
pub const FIG5_CHUNK: usize = 128;

/// Hybrid series added to Figure 5: the Tree method with its
/// first-occurrence payloads compressed by these codecs — the composed
/// dedup+compression data point next to the paper's either/or comparison.
pub const FIG5_HYBRID_CODECS: [&str; 2] = ["zstd", "cascaded"];

/// Figure 5: impact of checkpoint frequency; compressors and the hybrid
/// `Tree+codec` series included.
pub fn fig5(cfg: ExpConfig) -> Vec<Fig5Cell> {
    let mut out = Vec::new();
    for graph in PaperGraph::single_process() {
        for n in FIG5_COUNTS {
            let w = gdv_snapshots(graph, cfg.scale, n, cfg.seed, true);
            let mut methods: Vec<MeasuredRecord> = dedup_methods(FIG5_CHUNK)
                .into_iter()
                .map(|(name, mut m)| run_dedup(&mut *m, name, &w.snapshots, true))
                .collect();
            for codec in FIG5_HYBRID_CODECS {
                let cfg_c = TreeConfig::new(FIG5_CHUNK).with_payload_codec(codec);
                let mut m = TreeCheckpointer::new(Device::a100(), cfg_c);
                methods.push(run_dedup(
                    &mut m,
                    &format!("Tree+{codec}"),
                    &w.snapshots,
                    true,
                ));
            }
            for codec in all_codecs() {
                methods.push(run_codec(&*codec, &w.snapshots, true));
            }
            out.push(Fig5Cell {
                graph,
                n_checkpoints: n,
                methods,
            });
        }
    }
    out
}

// ---------------------------------------------------------------- Figure 6

/// One rank-count point of the strong-scaling experiment.
#[derive(Debug)]
pub struct Fig6Point {
    pub n_ranks: usize,
    pub method: ScalingMethod,
    pub total_stored: u64,
    pub total_full: u64,
    pub modeled_throughput: f64,
    pub measured_throughput: f64,
}

/// Rank counts swept by Figure 6.
pub const FIG6_RANKS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Checkpoints per process in the scaling scenario.
pub const FIG6_CHECKPOINTS: usize = 10;

/// Figure 6: strong scaling, Tree vs Full on Delaunay.
///
/// `per_rank_scale` is the vertex count of each rank's partition (the
/// paper's per-GPU share of Delaunay N24).
pub fn fig6(per_rank_scale: usize, seed: u64) -> Vec<Fig6Point> {
    fig6_with_ranks(
        per_rank_scale,
        seed,
        &FIG6_RANKS,
        crate::workload::SCALING_COVERAGE,
    )
}

/// [`fig6`] over a custom rank sweep and run coverage (tests use short
/// sweeps; the coverage knob models how early in the long Delaunay run the
/// paper's 10-minute checkpoint interval samples).
pub fn fig6_with_ranks(
    per_rank_scale: usize,
    seed: u64,
    ranks: &[usize],
    coverage: f64,
) -> Vec<Fig6Point> {
    use crate::workload::scaling_snapshots_with_coverage;
    let mut out = Vec::new();
    for &n_ranks in ranks {
        // Pre-generate workloads outside the timed region, in parallel.
        let snapshots: Vec<Vec<Vec<u8>>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n_ranks as u32)
                .map(|r| {
                    s.spawn(move || {
                        scaling_snapshots_with_coverage(
                            r,
                            per_rank_scale,
                            FIG6_CHECKPOINTS,
                            seed,
                            coverage,
                        )
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for method in [ScalingMethod::Tree, ScalingMethod::Full] {
            let rt = std::sync::Arc::new(AsyncRuntime::new());
            let cfg = ScalingConfig {
                method,
                n_ranks,
                gpus_per_node: 8,
                chunk_size: 128,
                rebase: RebasePolicy::Never,
            };
            let report = run_scaling(cfg, &rt, |rank| snapshots[rank as usize].clone());
            out.push(Fig6Point {
                n_ranks,
                method,
                total_stored: report.total_stored_bytes,
                total_full: report.total_full_bytes,
                modeled_throughput: report.modeled_throughput(),
                measured_throughput: report.measured_throughput(),
            });
        }
    }
    out
}

// ---------------------------------------------------------- Host scaling

/// One thread-count point of the host-throughput sweep.
#[derive(Debug)]
pub struct HostScalingPoint {
    pub threads: usize,
    /// Measured CPU wall time for the whole checkpoint record.
    pub wall_sec: f64,
    /// Wall time with every top-level parallel region's real duration
    /// replaced by its work/span makespan bound `max(W/k, S)` at this
    /// point's thread count `k` (see the rayon shim's `host_clock` module).
    /// This is the scaling signal on oversubscribed containers, where the
    /// pool has `k` workers but the host may have fewer physical cores.
    pub host_modeled_sec: f64,
    /// Real wall seconds the instrumented parallel regions took.
    pub real_parallel_sec: f64,
    /// Their modeled `max(W/k, S)` replacement.
    pub modeled_parallel_sec: f64,
    /// Modeled device time for the same record (thread-count independent).
    pub modeled_sec: f64,
    pub stored_bytes: u64,
    /// Order-sensitive Murmur3 digest chained over every encoded diff;
    /// equal digests mean bit-identical checkpoint records.
    pub record_digest: (u64, u64),
    /// Per-stage totals over the record: (stage, measured wall sec,
    /// modeled device sec), in pipeline order.
    pub stages: Vec<(String, f64, f64)>,
}

/// One swept problem size of the host-throughput sweep.
#[derive(Debug)]
pub struct HostScalingScale {
    pub scale: usize,
    pub snapshot_bytes: usize,
    pub points: Vec<HostScalingPoint>,
}

impl HostScalingScale {
    /// True when every thread count produced bit-identical checkpoints.
    pub fn bit_identical(&self) -> bool {
        self.points
            .windows(2)
            .all(|w| w[0].record_digest == w[1].record_digest)
    }

    /// Host-modeled speedup of `p` over this scale's 1-thread point.
    pub fn speedup_vs_1(&self, p: &HostScalingPoint) -> f64 {
        self.points[0].host_modeled_sec / p.host_modeled_sec.max(1e-12)
    }
}

/// The host-throughput sweep: Tree-method host time vs pool thread count,
/// across problem scales.
#[derive(Debug)]
pub struct HostScalingReport {
    pub n_checkpoints: usize,
    pub scales: Vec<HostScalingScale>,
}

impl HostScalingReport {
    pub fn bit_identical(&self) -> bool {
        self.scales.iter().all(|s| s.bit_identical())
    }
}

/// Checkpoints per (scale, thread-count) point in the host-scaling sweep.
pub const HOST_SCALING_CHECKPOINTS: usize = 8;

/// Thread counts swept (fixed so reports are comparable across machines;
/// the shim pool oversubscribes if the host has fewer cores).
pub const HOST_SCALING_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Default problem scales (graph vertices; one snapshot is `73 * 4` bytes
/// per vertex). Spans ~6 MiB to ~58 MiB snapshots.
pub const HOST_SCALING_SCALES: [usize; 3] = [20_000, 80_000, 200_000];

/// Host-throughput benchmark over the default scales. See
/// [`host_scaling_at`].
pub fn host_scaling(cfg: ExpConfig) -> HostScalingReport {
    host_scaling_at(&HOST_SCALING_SCALES, cfg.seed)
}

/// Host-throughput benchmark: for each problem scale, sweep the persistent
/// pool's thread count and measure the Tree method end-to-end over the GDV
/// workload. Modeled device time and checkpoint bytes must not move with
/// the thread count — only host time may.
///
/// One checkpointer persists per scale; each thread point restarts its
/// record via `reset_record`, so the sweep runs on warm arenas and a
/// generation-bumped hash map — the steady-state path. Encoding and
/// digesting the diffs happens outside the timed window (the digest is a
/// correctness check, not a pipeline stage).
pub fn host_scaling_at(scales: &[usize], seed: u64) -> HostScalingReport {
    use ckpt_hash::{Hasher128, Murmur3};
    use rayon::prelude::*;

    let hasher = Murmur3;
    let mut out = Vec::new();
    for &scale in scales {
        let w = gdv_snapshots(
            PaperGraph::MessageRace,
            scale,
            HOST_SCALING_CHECKPOINTS,
            seed,
            true,
        );
        let device = Device::a100();
        let mut m = TreeCheckpointer::new(device.clone(), TreeConfig::new(FIG5_CHUNK));
        // Warm-up record outside every timed window: the first pass over the
        // workload reserves the arena floors and sizes the hash map, so all
        // thread points below measure the same steady-state zero-allocation
        // path. Without this the first point sweeps a cold checkpointer and
        // its allocation cost masquerades as single-thread slowness.
        for snap in &w.snapshots {
            m.checkpoint(snap);
        }
        let mut points: Vec<HostScalingPoint> = Vec::new();
        for &threads in &HOST_SCALING_THREADS {
            rayon::set_active_threads(threads);
            // Warm the pool outside the timed region so worker spawns are
            // not billed to the first checkpoint.
            (0..(1usize << 16)).into_par_iter().for_each(|_| {});
            m.reset_record();

            rayon::host_clock_enable(true);
            let _ = rayon::host_clock_take();
            let before = device.metrics().snapshot();
            let mut stage_names: Vec<&'static str> = Vec::new();
            let mut stage_measured: Vec<f64> = Vec::new();
            let mut stage_modeled: Vec<f64> = Vec::new();
            let mut diffs = Vec::with_capacity(w.snapshots.len());
            let t0 = std::time::Instant::now();
            for snap in &w.snapshots {
                let out = m.checkpoint(snap);
                for s in &out.breakdown.stages {
                    match stage_names.iter().position(|n| *n == s.name) {
                        Some(i) => {
                            stage_measured[i] += s.measured_sec;
                            stage_modeled[i] += s.modeled_sec;
                        }
                        None => {
                            stage_names.push(s.name);
                            stage_measured.push(s.measured_sec);
                            stage_modeled.push(s.modeled_sec);
                        }
                    }
                }
                diffs.push(out.diff);
            }
            let wall_sec = t0.elapsed().as_secs_f64();
            let clock = rayon::host_clock_take();
            rayon::host_clock_enable(false);
            let after = device.metrics().snapshot();

            let mut stored = 0u64;
            let mut digest = hasher.hash(b"host_scaling");
            for diff in &diffs {
                stored += diff.stored_bytes() as u64;
                digest = hasher.combine(&digest, &hasher.hash(&diff.encode()));
            }
            points.push(HostScalingPoint {
                threads,
                wall_sec,
                host_modeled_sec: (wall_sec - clock.real_parallel_sec + clock.modeled_parallel_sec)
                    .max(0.0),
                real_parallel_sec: clock.real_parallel_sec,
                modeled_parallel_sec: clock.modeled_parallel_sec,
                modeled_sec: after.modeled_sec - before.modeled_sec,
                stored_bytes: stored,
                record_digest: (digest.h1, digest.h2),
                stages: stage_names
                    .iter()
                    .zip(stage_measured.iter().zip(stage_modeled.iter()))
                    .map(|(n, (&me, &mo))| (n.to_string(), me, mo))
                    .collect(),
            });
        }
        out.push(HostScalingScale {
            scale,
            snapshot_bytes: w.snapshot_bytes(),
            points,
        });
    }
    rayon::set_active_threads(0);
    HostScalingReport {
        n_checkpoints: HOST_SCALING_CHECKPOINTS,
        scales: out,
    }
}

// ---------------------------------------------------------- Restart latency

/// One thread-count point of the restart-latency sweep: sequential replay
/// vs the single-pass parallel restart engine over the same chain.
#[derive(Debug)]
pub struct RestartLatencyPoint {
    pub threads: usize,
    /// Wall time of the sequential full replay (thread-count independent;
    /// re-measured per point so both engines share a clock window).
    pub seq_wall_sec: f64,
    pub par_wall_sec: f64,
    /// Host-modeled time with shim-pool wall time swapped for modeled
    /// parallel time — the cross-machine comparable number.
    pub seq_host_modeled_sec: f64,
    pub par_host_modeled_sec: f64,
    /// Murmur3 digest of the restored latest snapshot, per engine; equal
    /// digests mean bit-identical restored bytes.
    pub seq_digest: (u64, u64),
    pub par_digest: (u64, u64),
    /// Records the single-pass walk actually visited (≤ chain length;
    /// shorter when a rebase record short-circuits the walk).
    pub records_visited: u32,
    /// Bytes the single-pass engine copied into the restored buffer.
    pub bytes_copied: u64,
}

/// One (method, chain-length) cell of the restart-latency sweep.
#[derive(Debug)]
pub struct RestartLatencyCell {
    pub method: &'static str,
    pub chain_len: usize,
    pub snapshot_bytes: usize,
    pub points: Vec<RestartLatencyPoint>,
}

impl RestartLatencyCell {
    /// True when both engines produced identical bytes at every thread
    /// count (one digest per cell — the chain is fixed across points).
    pub fn bit_identical(&self) -> bool {
        self.points.iter().all(|p| p.seq_digest == p.par_digest)
            && self
                .points
                .windows(2)
                .all(|w| w[0].par_digest == w[1].par_digest)
    }

    /// Host-modeled speedup of the parallel engine over the sequential
    /// replay at the same point.
    pub fn speedup(&self, p: &RestartLatencyPoint) -> f64 {
        p.seq_host_modeled_sec / p.par_host_modeled_sec.max(1e-12)
    }

    /// The cell's best speedup across the thread sweep.
    pub fn best_speedup(&self) -> f64 {
        self.points
            .iter()
            .map(|p| self.speedup(p))
            .fold(0.0, f64::max)
    }
}

/// The restart-latency sweep: chain length x method x pool threads.
#[derive(Debug)]
pub struct RestartLatencyReport {
    pub scale: usize,
    pub cells: Vec<RestartLatencyCell>,
}

impl RestartLatencyReport {
    pub fn bit_identical(&self) -> bool {
        self.cells.iter().all(|c| c.bit_identical())
    }
}

/// Chain lengths swept by [`restart_latency_at`]: a short chain where the
/// walk overhead shows, and the paper-shaped 32-record chain the ≥2x
/// speedup acceptance gate runs against.
pub const RESTART_CHAIN_LENS: [usize; 2] = [8, 32];

/// Restart-latency benchmark over the default chain lengths. See
/// [`restart_latency_at`].
pub fn restart_latency(cfg: ExpConfig) -> RestartLatencyReport {
    restart_latency_at(&RESTART_CHAIN_LENS, cfg.scale, cfg.seed)
}

/// Restart-latency benchmark: for each (chain length, method) cell, build
/// a checkpoint chain over the GDV workload, then sweep the persistent
/// pool's thread count restoring the *latest* version two ways — the
/// sequential full replay (`restore_latest`) and the single-pass parallel
/// engine (`restore_latest_single_pass`). Both run inside host-clock
/// windows so shim-pool wall time is swapped for modeled parallel time;
/// restored bytes are digested outside the timed windows and must be
/// bit-identical across engines and thread counts.
pub fn restart_latency_at(chain_lens: &[usize], scale: usize, seed: u64) -> RestartLatencyReport {
    use ckpt_hash::{Hasher128, Murmur3};
    use rayon::prelude::*;

    let hasher = Murmur3;
    let mut cells = Vec::new();
    for &chain_len in chain_lens {
        let w = gdv_snapshots(PaperGraph::MessageRace, scale, chain_len, seed, true);
        for (name, mut m) in dedup_methods(FIG5_CHUNK) {
            let diffs: Vec<_> = w.snapshots.iter().map(|s| m.checkpoint(s).diff).collect();
            let device = Device::a100();
            let mut points = Vec::new();
            for &threads in &HOST_SCALING_THREADS {
                rayon::set_active_threads(threads);
                // Warm the pool outside both timed regions so worker
                // spawns are not billed to either engine.
                (0..(1usize << 16)).into_par_iter().for_each(|_| {});

                rayon::host_clock_enable(true);
                let _ = rayon::host_clock_take();
                let t0 = std::time::Instant::now();
                let seq = restore_latest(&diffs).expect("sequential replay");
                let seq_wall_sec = t0.elapsed().as_secs_f64();
                let seq_clock = rayon::host_clock_take();

                let t1 = std::time::Instant::now();
                let (par, stats) =
                    restore_latest_single_pass(&device, 0, &diffs).expect("single-pass restart");
                let par_wall_sec = t1.elapsed().as_secs_f64();
                let par_clock = rayon::host_clock_take();
                rayon::host_clock_enable(false);

                points.push(RestartLatencyPoint {
                    threads,
                    seq_wall_sec,
                    par_wall_sec,
                    seq_host_modeled_sec: (seq_wall_sec - seq_clock.real_parallel_sec
                        + seq_clock.modeled_parallel_sec)
                        .max(0.0),
                    par_host_modeled_sec: (par_wall_sec - par_clock.real_parallel_sec
                        + par_clock.modeled_parallel_sec)
                        .max(0.0),
                    seq_digest: {
                        let d = hasher.hash(&seq);
                        (d.h1, d.h2)
                    },
                    par_digest: {
                        let d = hasher.hash(&par);
                        (d.h1, d.h2)
                    },
                    records_visited: stats.records_visited,
                    bytes_copied: stats.bytes_copied,
                });
            }
            cells.push(RestartLatencyCell {
                method: name,
                chain_len,
                snapshot_bytes: w.snapshot_bytes(),
                points,
            });
        }
    }
    rayon::set_active_threads(0);
    RestartLatencyReport { scale, cells }
}

// ---------------------------------------------------------------- Ablations

/// A2: metadata bytes per checkpoint, Tree vs List, across chunk sizes.
#[derive(Debug)]
pub struct MetadataPoint {
    pub graph: PaperGraph,
    pub chunk_size: usize,
    pub tree_metadata: u64,
    pub list_metadata: u64,
    pub tree_regions: u64,
    pub list_entries: u64,
}

pub fn ablation_metadata(cfg: ExpConfig) -> Vec<MetadataPoint> {
    let mut out = Vec::new();
    for graph in [PaperGraph::MessageRace, PaperGraph::Hugebubbles] {
        let w = gdv_snapshots(graph, cfg.scale, FIG4_CHECKPOINTS, cfg.seed, true);
        for chunk in FIG4_CHUNKS {
            let mut tree = TreeCheckpointer::new(Device::a100(), TreeConfig::new(chunk));
            let mut list = ListCheckpointer::new(Device::a100(), TreeConfig::new(chunk));
            let (mut tm, mut lm, mut tr, mut le) = (0u64, 0u64, 0u64, 0u64);
            for (k, snap) in w.snapshots.iter().enumerate() {
                let t = tree.checkpoint(snap);
                let l = list.checkpoint(snap);
                if k == 0 {
                    continue;
                }
                tm += t.stats.metadata_bytes;
                lm += l.stats.metadata_bytes;
                tr += t.stats.n_first + t.stats.n_shift;
                le += l.stats.n_first + l.stats.n_shift;
            }
            out.push(MetadataPoint {
                graph,
                chunk_size: chunk,
                tree_metadata: tm,
                list_metadata: lm,
                tree_regions: tr,
                list_entries: le,
            });
        }
    }
    out
}

/// A3: two-stage wave ordering vs the naive fused sweep.
#[derive(Debug)]
pub struct WavesPoint {
    pub workload: String,
    pub two_stage: MeasuredRecord,
    pub naive: MeasuredRecord,
}

/// Synthetic workload exhibiting the §2.2 hazard: every checkpoint writes a
/// *new* pattern that repeats at several aligned positions within the same
/// checkpoint. The two-stage ordering registers the first copy's subtree
/// before the shifted copies consolidate against it; the naive fused sweep
/// cannot see those same-level inserts and must store the extra copies.
fn repeated_pattern_snapshots(cfg: ExpConfig) -> Vec<Vec<u8>> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xA3);
    let pattern_bytes = 16 * 64; // 16 chunks at 64 B
    let copies = 8usize;
    let n_patterns = (cfg.scale / 256).max(8);
    let slots = copies * n_patterns;
    let len = pattern_bytes * slots;
    let mut data = vec![0u8; len];
    let mut out = Vec::new();
    for _ckpt in 0..FIG4_CHECKPOINTS {
        // A fresh pattern, stamped into `copies` random aligned slots.
        let pattern: Vec<u8> = (0..pattern_bytes).map(|_| rng.gen()).collect();
        for _ in 0..copies {
            let at = rng.gen_range(0..slots) * pattern_bytes;
            data[at..at + pattern_bytes].copy_from_slice(&pattern);
        }
        out.push(data.clone());
    }
    out
}

pub fn ablation_waves(cfg: ExpConfig) -> Vec<WavesPoint> {
    let mut points: Vec<WavesPoint> = PaperGraph::single_process()
        .into_iter()
        .map(|graph| {
            let w = gdv_snapshots(graph, cfg.scale, FIG4_CHECKPOINTS, cfg.seed, true);
            let mut two = TreeCheckpointer::new(Device::a100(), TreeConfig::new(64));
            let mut naive = NaiveTreeCheckpointer::new(Device::a100(), TreeConfig::new(64));
            WavesPoint {
                workload: format!("GDV / {}", graph.name()),
                two_stage: run_dedup(&mut two, "Tree(two-stage)", &w.snapshots, true),
                naive: run_dedup(&mut naive, "Tree(naive)", &w.snapshots, true),
            }
        })
        .collect();

    let snaps = repeated_pattern_snapshots(cfg);
    let mut two = TreeCheckpointer::new(Device::a100(), TreeConfig::new(64));
    let mut naive = NaiveTreeCheckpointer::new(Device::a100(), TreeConfig::new(64));
    points.push(WavesPoint {
        workload: "synthetic repeated patterns".to_string(),
        two_stage: run_dedup(&mut two, "Tree(two-stage)", &snaps, false),
        naive: run_dedup(&mut naive, "Tree(naive)", &snaps, false),
    });
    points
}

/// Extension E5 (paper §5: "other classes of applications, such as adjoint
/// computations"): reversing a PDE solve. Classic binomial checkpointing
/// (revolve) trades recomputation for a handful of snapshot slots; the
/// de-duplicated store keeps *every* state with no recomputation at a
/// fraction of the raw footprint.
#[derive(Debug)]
pub struct AdjointPoint {
    pub strategy: String,
    pub forward_steps: u64,
    pub store_bytes: u64,
}

pub fn adjoint(cfg: ExpConfig) -> Vec<AdjointPoint> {
    use ckpt_adjoint::{run_dedup_store, run_revolve, HeatModel, HeatParams};
    let n = cfg.scale.clamp(1_024, 1 << 16);
    let l = 192usize;
    let model = HeatModel::new(HeatParams::new(n));
    let u0 = model.initial_state();

    let mut out = Vec::new();
    let dedup = run_dedup_store(&model, &u0, l, 128);
    let reference_grad = dedup.gradient.clone();
    out.push(AdjointPoint {
        strategy: "dedup store (all states)".into(),
        forward_steps: dedup.forward_steps,
        store_bytes: dedup.peak_store_bytes,
    });
    out.push(AdjointPoint {
        strategy: "raw store (all states)".into(),
        forward_steps: l as u64,
        store_bytes: ((l + 1) * n * 8) as u64,
    });
    for c in [4usize, 8, 16] {
        let rep = run_revolve(&model, &u0, l, c).expect("feasible");
        assert_eq!(rep.gradient, reference_grad, "strategies must agree");
        out.push(AdjointPoint {
            strategy: format!("revolve c={c}"),
            forward_steps: rep.forward_steps,
            store_bytes: rep.peak_store_bytes,
        });
    }
    out
}

/// Extension E3 (paper §5 future work): streaming — overlap de-duplication
/// with transfers to host memory. At A100 ratios (HBM ≈ 60× PCIe) the
/// overlap headroom within one checkpoint's *serialization stage* is
/// negligible, so the profitable formulation pipelines at checkpoint
/// granularity: while diff `k` is in flight over PCIe, the de-duplication
/// compute of checkpoint `k+1` runs. This driver measures each checkpoint's
/// modeled compute and transfer halves and compares the sequential schedule
/// against the pipelined one.
#[derive(Debug)]
pub struct StreamingPoint {
    pub graph: PaperGraph,
    /// Σ (compute + transfer), the blocking schedule.
    pub sequential_sec: f64,
    /// Pipelined schedule: transfer of diff k overlapped with compute of k+1.
    pub pipelined_sec: f64,
}

impl StreamingPoint {
    pub fn speedup(&self) -> f64 {
        self.sequential_sec / self.pipelined_sec.max(1e-12)
    }
}

pub fn streaming(cfg: ExpConfig) -> Vec<StreamingPoint> {
    PaperGraph::single_process()
        .into_iter()
        .map(|graph| {
            let w = gdv_snapshots(graph, cfg.scale, FIG4_CHECKPOINTS, cfg.seed, true);
            let device = Device::a100();
            let mut m = TreeCheckpointer::new(device.clone(), TreeConfig::new(FIG5_CHUNK));
            let mut compute = Vec::new();
            let mut transfer = Vec::new();
            for snap in &w.snapshots {
                let before = device.metrics().snapshot();
                m.checkpoint(snap);
                let after = device.metrics().snapshot();
                transfer.push(after.modeled_transfer_sec - before.modeled_transfer_sec);
                compute.push(
                    (after.modeled_sec - before.modeled_sec)
                        - (after.modeled_transfer_sec - before.modeled_transfer_sec),
                );
            }
            let sequential_sec: f64 = compute.iter().sum::<f64>() + transfer.iter().sum::<f64>();
            // Pipeline: c_0, then step i overlaps compute[i] with
            // transfer[i-1]; the final transfer drains alone.
            let mut pipelined_sec = compute[0];
            for i in 1..compute.len() {
                pipelined_sec += compute[i].max(transfer[i - 1]);
            }
            pipelined_sec += transfer[transfer.len() - 1];
            StreamingPoint {
                graph,
                sequential_sec,
                pipelined_sec,
            }
        })
        .collect()
}

/// Extension E2 (the §1 high-frequency limitation): producers that emit
/// checkpoints faster than the storage hierarchy drains them stall once the
/// host staging tier fills. De-duplicated diffs drain in a fraction of the
/// time, so the Tree method keeps the application running where Full
/// checkpointing blocks it.
#[derive(Debug)]
pub struct HighFreqPoint {
    pub method: &'static str,
    /// Total time the producer spent blocked on a full host tier.
    pub stall_sec: f64,
    /// End-to-end time to emit all checkpoints.
    pub makespan_sec: f64,
    pub total_stored: u64,
}

pub fn highfreq(cfg: ExpConfig) -> Vec<HighFreqPoint> {
    use ckpt_runtime::{AsyncRuntime, TierChain, TierConfig};

    let n_ckpts = 24;
    let w = gdv_snapshots(PaperGraph::MessageRace, cfg.scale, n_ckpts, cfg.seed, true);
    let snap_bytes = w.snapshot_bytes() as u64;

    let mut out = Vec::new();
    for (name, mut method) in [
        (
            "Tree",
            Box::new(TreeCheckpointer::new(
                Device::a100(),
                TreeConfig::new(FIG5_CHUNK),
            )) as Box<dyn Checkpointer>,
        ),
        (
            "Full",
            Box::new(FullCheckpointer::new(Device::a100(), FIG5_CHUNK)),
        ),
    ] {
        // Host staging holds ~3 full checkpoints; the SSD throttles in real
        // time (scaled) to its modeled bandwidth.
        let tiers = TierChain::with_configs(
            TierConfig {
                name: "host",
                bandwidth_bps: 25.0e9,
                capacity: snap_bytes * 3 + 1024,
            },
            TierConfig::ssd(),
            TierConfig::pfs(),
        );
        // Time dilation: one modeled SSD-second costs 25 real seconds, so a
        // full-checkpoint drain takes ~30 ms of real time and the producer's
        // burst outpaces it visibly (while keeping the experiment short).
        let rt = AsyncRuntime::start(RuntimeConfig {
            tiers,
            time_scale: 25.0,
            ..Default::default()
        });
        let t0 = std::time::Instant::now();
        let mut stall = std::time::Duration::ZERO;
        let mut total_stored = 0u64;
        for (k, snap) in w.snapshots.iter().enumerate() {
            let diff = method.checkpoint(snap).diff;
            total_stored += diff.stored_bytes() as u64;
            stall += rt
                .submit_blocking(0, k as u32, diff.encode())
                .expect("runtime alive");
        }
        let makespan = t0.elapsed().as_secs_f64();
        out.push(HighFreqPoint {
            method: name,
            stall_sec: stall.as_secs_f64(),
            makespan_sec: makespan,
            total_stored,
        });
        rt.shutdown();
    }
    out
}

/// Extension E1 (paper §5 future work): the dedup+compression hybrid —
/// "compressing the first-time occurrences in the difference".
#[derive(Debug)]
pub struct HybridPoint {
    pub graph: PaperGraph,
    pub methods: Vec<MeasuredRecord>,
}

pub fn hybrid(cfg: ExpConfig) -> Vec<HybridPoint> {
    PaperGraph::single_process()
        .into_iter()
        .map(|graph| {
            let w = gdv_snapshots(graph, cfg.scale, FIG4_CHECKPOINTS, cfg.seed, true);
            let mut methods = Vec::new();
            let mut raw = TreeCheckpointer::new(Device::a100(), TreeConfig::new(FIG5_CHUNK));
            methods.push(run_dedup(&mut raw, "Tree", &w.snapshots, false));
            for codec in ["zstd", "lz4", "cascaded", "bitcomp"] {
                let cfg_c = TreeConfig::new(FIG5_CHUNK).with_payload_codec(codec);
                let mut m = TreeCheckpointer::new(Device::a100(), cfg_c);
                methods.push(run_dedup(
                    &mut m,
                    &format!("Tree+{codec}"),
                    &w.snapshots,
                    false,
                ));
            }
            HybridPoint { graph, methods }
        })
        .collect()
}

// ------------------------------------ Flush pipeline (compressed tiers)

/// One (policy, thread-count) point of the compressed-flush sweep.
#[derive(Debug)]
pub struct FlushPipelinePoint {
    /// Policy spelling (`off`, a codec name, or `adaptive`).
    pub policy: String,
    pub threads: usize,
    /// Pre-compression payload bytes submitted (Σ encoded diff lengths;
    /// policy- and thread-independent).
    pub raw_bytes: u64,
    /// Post-compression wire bytes durable on the PFS — what capacity,
    /// throttling, and the bandwidth model charge.
    pub stored_bytes: u64,
    /// `stored / raw` in percent (100 = incompressible or policy off).
    pub ratio_pct: u64,
    /// Modeled PFS write time for the whole record: stored bytes over the
    /// PFS tier's configured bandwidth.
    pub modeled_pfs_write_sec: f64,
    /// Modeled hash+flush makespan under the depth-1 pipeline: checkpoint
    /// `k`'s hashing overlaps the SSD+PFS flush of `k-1`.
    pub modeled_e2e_sec: f64,
    /// Measured wall time from first submit to a fully drained PFS.
    pub wall_sec: f64,
    /// Producer time blocked in the depth-1 handoff
    /// (`pipeline/enqueue_wait`). Compression runs on the flusher's side of
    /// the channel, so this must not grow when a policy is enabled.
    pub enqueue_wait_sec: f64,
    /// Murmur3 digest of the bytes the parallel restart engine recovered.
    pub restore_digest: (u64, u64),
    /// The digest equals the producer's final snapshot (bit-exact
    /// round trip through compress → tiers → decompress).
    pub restore_ok: bool,
}

/// One method's policy × threads sweep over a workload.
#[derive(Debug)]
pub struct FlushPipelineCell {
    pub method: &'static str,
    pub points: Vec<FlushPipelinePoint>,
}

impl FlushPipelineCell {
    fn point(&self, policy: &str) -> Option<&FlushPipelinePoint> {
        self.points.iter().find(|p| p.policy == policy)
    }

    /// Every point restored bit-exact and all digests agree.
    pub fn bit_identical(&self) -> bool {
        self.points.iter().all(|p| p.restore_ok)
            && self
                .points
                .windows(2)
                .all(|w| w[0].restore_digest == w[1].restore_digest)
    }

    /// Stored-bytes reduction of `adaptive` over `off` (>1 = smaller).
    pub fn stored_reduction_adaptive(&self) -> f64 {
        match (self.point("off"), self.point("adaptive")) {
            (Some(off), Some(ad)) => off.stored_bytes as f64 / ad.stored_bytes.max(1) as f64,
            _ => 1.0,
        }
    }

    /// Modeled hash+flush speedup of `adaptive` over `off`.
    pub fn e2e_speedup_adaptive(&self) -> f64 {
        match (self.point("off"), self.point("adaptive")) {
            (Some(off), Some(ad)) => off.modeled_e2e_sec / ad.modeled_e2e_sec.max(1e-12),
            _ => 1.0,
        }
    }
}

/// One workload (graph × scale) of the sweep.
#[derive(Debug)]
pub struct FlushPipelineWorkload {
    pub graph: PaperGraph,
    pub scale: usize,
    pub snapshot_bytes: usize,
    pub cells: Vec<FlushPipelineCell>,
}

/// The compressed-flush benchmark: methods × policy × threads
/// (`BENCH_flush_pipeline.json`).
#[derive(Debug)]
pub struct FlushPipelineReport {
    pub n_checkpoints: usize,
    pub workloads: Vec<FlushPipelineWorkload>,
}

impl FlushPipelineReport {
    pub fn bit_identical(&self) -> bool {
        self.workloads
            .iter()
            .all(|w| w.cells.iter().all(|c| c.bit_identical()))
    }
}

/// Checkpoints per cell in the flush-pipeline sweep.
pub const FLUSH_PIPELINE_CHECKPOINTS: usize = 8;

/// Pool thread counts swept (the compression stage and the restore
/// prefetch both fan out on the shim pool).
pub const FLUSH_PIPELINE_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Policies swept: the pre-compression baseline, one fixed codec, and the
/// per-object adaptive selector.
pub const FLUSH_PIPELINE_POLICIES: [&str; 3] = ["off", "zstd", "adaptive"];

/// Default problem scales (graph vertices; one snapshot is `73 * 4` bytes
/// per vertex).
pub const FLUSH_PIPELINE_SCALES: [usize; 2] = [20_000, 80_000];

/// Compressed-flush benchmark over the default scales and thread counts.
pub fn flush_pipeline(cfg: ExpConfig) -> FlushPipelineReport {
    flush_pipeline_at(&FLUSH_PIPELINE_SCALES, cfg.seed, &FLUSH_PIPELINE_THREADS)
}

/// The compressed-flush benchmark: for each workload (graph × scale) and
/// method, hash the record once (the encoded diffs and their modeled device
/// time depend on neither policy nor threads), then sweep policy × thread
/// count over the *flush* side: submit every encoded diff through the
/// depth-1 [`ckpt_runtime::CheckpointPipeline`] into an [`AsyncRuntime`]
/// whose flusher compresses per the policy, wait until the PFS holds the whole record,
/// and round-trip the latest version back through the parallel restart
/// engine. Stored bytes are read off the PFS tier (wire sizes, what the
/// bandwidth model charges); the modeled end-to-end makespan overlaps
/// checkpoint `k`'s hashing with the SSD+PFS flush of `k-1`, exactly the
/// double-buffer schedule the submit path implements.
pub fn flush_pipeline_at(scales: &[usize], seed: u64, threads: &[usize]) -> FlushPipelineReport {
    use ckpt_hash::{Hasher128, Murmur3};
    use ckpt_runtime::{
        restore_rank_latest_parallel, CheckpointPipeline, CompressionPolicy, TierConfig,
    };
    use ckpt_telemetry::Registry;
    use rayon::prelude::*;
    use std::sync::Arc;

    let hasher = Murmur3;
    let ssd_bw = TierConfig::ssd().bandwidth_bps;
    let pfs_bw = TierConfig::pfs().bandwidth_bps;
    let mut workloads = Vec::new();
    for &scale in scales {
        for graph in [PaperGraph::MessageRace, PaperGraph::Hugebubbles] {
            let w = gdv_snapshots(graph, scale, FLUSH_PIPELINE_CHECKPOINTS, seed, true);
            let want = hasher.hash(w.snapshots.last().expect("snapshots"));
            let mut cells = Vec::new();
            for method in ["Tree", "Full"] {
                let device = Device::a100();
                let mut m: Box<dyn Checkpointer> = match method {
                    "Tree" => Box::new(TreeCheckpointer::new(
                        device.clone(),
                        TreeConfig::new(FIG5_CHUNK),
                    )),
                    _ => Box::new(FullCheckpointer::new(device.clone(), FIG5_CHUNK)),
                };
                let mut encoded: Vec<Vec<u8>> = Vec::new();
                let mut hash_sec: Vec<f64> = Vec::new();
                for snap in &w.snapshots {
                    let before = device.metrics().snapshot();
                    let out = m.checkpoint(snap);
                    hash_sec.push(device.metrics().snapshot().modeled_sec - before.modeled_sec);
                    encoded.push(out.diff.encode());
                }
                let raw_bytes: u64 = encoded.iter().map(|e| e.len() as u64).sum();

                let mut points = Vec::new();
                for policy_name in FLUSH_PIPELINE_POLICIES {
                    let policy = CompressionPolicy::parse(policy_name).expect("known policy");
                    for &t in threads {
                        rayon::set_active_threads(t);
                        // Warm the pool outside the timed region.
                        (0..(1usize << 14)).into_par_iter().for_each(|_| {});
                        let registry = Arc::new(Registry::new());
                        let rt = Arc::new(AsyncRuntime::start(RuntimeConfig {
                            registry: Arc::clone(&registry),
                            compression: policy,
                            ..Default::default()
                        }));
                        let pipe = CheckpointPipeline::new(Arc::clone(&rt));
                        let ids: Vec<(u32, u32)> =
                            (0..encoded.len() as u32).map(|k| (0, k)).collect();
                        let t0 = std::time::Instant::now();
                        for (k, bytes) in encoded.iter().enumerate() {
                            let b = bytes.clone();
                            pipe.submit_with(0, k as u32, Box::new(move || b));
                        }
                        let pstats = pipe.close();
                        rt.wait_durable(&ids);
                        let wall_sec = t0.elapsed().as_secs_f64();
                        assert_eq!(
                            pstats.submitted,
                            encoded.len() as u64,
                            "every checkpoint must land durably"
                        );

                        // Post-compression wire bytes, per object, off the PFS.
                        let wire: Vec<u64> = ids
                            .iter()
                            .map(|&id| {
                                rt.tiers()
                                    .pfs
                                    .inspect_object(id)
                                    .into_object()
                                    .expect("durable object")
                                    .stored_len()
                            })
                            .collect();
                        let stored_bytes: u64 = wire.iter().sum();

                        // Depth-1 overlap: hash of checkpoint k hides behind
                        // the SSD+PFS flush of k-1; the last flush drains alone.
                        let flush: Vec<f64> = wire
                            .iter()
                            .map(|&b| b as f64 / ssd_bw + b as f64 / pfs_bw)
                            .collect();
                        let mut e2e = hash_sec[0];
                        for k in 1..flush.len() {
                            e2e += hash_sec[k].max(flush[k - 1]);
                        }
                        e2e += flush[flush.len() - 1];

                        let restored = restore_rank_latest_parallel(rt.tiers(), &device, 0, None)
                            .expect("record restorable");
                        let digest = hasher.hash(&restored.data);
                        points.push(FlushPipelinePoint {
                            policy: policy_name.to_string(),
                            threads: t,
                            raw_bytes,
                            stored_bytes,
                            ratio_pct: stored_bytes * 100 / raw_bytes.max(1),
                            modeled_pfs_write_sec: stored_bytes as f64 / pfs_bw,
                            modeled_e2e_sec: e2e,
                            wall_sec,
                            enqueue_wait_sec: registry
                                .span_stats("pipeline/enqueue_wait")
                                .measured_sec(),
                            restore_digest: (digest.h1, digest.h2),
                            restore_ok: (digest.h1, digest.h2) == (want.h1, want.h2),
                        });
                        Arc::try_unwrap(rt)
                            .ok()
                            .expect("pipeline released its handle")
                            .shutdown();
                    }
                }
                cells.push(FlushPipelineCell { method, points });
            }
            workloads.push(FlushPipelineWorkload {
                graph,
                scale,
                snapshot_bytes: w.snapshot_bytes(),
                cells,
            });
        }
    }
    rayon::set_active_threads(0);
    FlushPipelineReport {
        n_checkpoints: FLUSH_PIPELINE_CHECKPOINTS,
        workloads,
    }
}

// ------------------------------------ Cross-rank redundancy groups

/// One redundancy-policy point of the rank-loss sweep.
#[derive(Debug)]
pub struct RedundancyPoint {
    /// Policy spelling (`off`, `partner`, `xor:<k>`).
    pub policy: String,
    /// Pre-compression payload bytes submitted across all ranks.
    pub raw_bytes: u64,
    /// Post-compression wire bytes durable on the PFS, all ranks.
    pub stored_bytes: u64,
    /// Bytes resident on the redundancy group tier (0 with policy off).
    pub group_bytes: u64,
    /// `group_bytes * 100 / stored_bytes` — the storage cost of the
    /// encoding (≈100 for partner, ≈100/(k−1) for `xor:k`).
    pub storage_overhead_pct: u64,
    /// Wall time from first submit to a fully drained PFS (the
    /// producer-visible makespan; redundancy encoding rides the flusher).
    pub wall_sec: f64,
    /// Aggregate submit throughput, raw bytes over `wall_sec`.
    pub agg_throughput_bps: f64,
    /// Extra wall time until every member's redundancy encoding is also
    /// durable (what GC waits on before `compact_below`).
    pub redundancy_drain_sec: f64,
    /// Producer time blocked in the depth-1 handoff — must not grow when
    /// a redundancy policy is enabled (critical path untouched).
    pub enqueue_wait_sec: f64,
    /// Where the lost rank's record came back from: `pfs` (policy off —
    /// local tiers lost, PFS survives) or `group` (every local copy
    /// including the PFS lost; partners/parity rebuild it).
    pub restore_source: &'static str,
    /// Wall time to restore the lost rank's latest checkpoint.
    pub rank_loss_restore_sec: f64,
    /// Murmur3 digest of the restored bytes.
    pub restore_digest: (u64, u64),
    /// The digest equals the lost rank's final snapshot (bit-exact).
    pub restore_ok: bool,
}

/// One method's policy sweep.
#[derive(Debug)]
pub struct RedundancyCell {
    pub method: &'static str,
    pub points: Vec<RedundancyPoint>,
}

impl RedundancyCell {
    pub fn point(&self, policy: &str) -> Option<&RedundancyPoint> {
        self.points.iter().find(|p| p.policy == policy)
    }

    /// Producer-visible throughput cost of `policy` over `off`, percent
    /// (positive = slower with redundancy).
    pub fn throughput_overhead_pct(&self, policy: &str) -> f64 {
        match (self.point("off"), self.point(policy)) {
            (Some(off), Some(p)) => (p.wall_sec / off.wall_sec.max(1e-12) - 1.0) * 100.0,
            _ => 0.0,
        }
    }

    /// Every point restored the lost rank bit-exact.
    pub fn bit_identical(&self) -> bool {
        self.points.iter().all(|p| p.restore_ok)
    }
}

/// The rank-loss redundancy benchmark (`BENCH_redundancy.json`).
#[derive(Debug)]
pub struct RedundancyReport {
    pub graph: PaperGraph,
    pub scale: usize,
    pub n_ranks: usize,
    pub n_checkpoints: usize,
    /// The rank whose local tiers get wiped before the restore timing.
    pub lost_rank: u32,
    pub cells: Vec<RedundancyCell>,
}

impl RedundancyReport {
    pub fn bit_identical(&self) -> bool {
        self.cells.iter().all(|c| c.bit_identical())
    }
}

/// Checkpoints per rank in the redundancy sweep.
pub const REDUNDANCY_CHECKPOINTS: usize = 6;

/// Ranks in the modeled cluster (divisible by every swept group size).
pub const REDUNDANCY_RANKS: usize = 4;

/// Policies swept: no redundancy (PFS-only recovery baseline), full
/// partner copies, and XOR parity at two group sizes.
pub const REDUNDANCY_POLICIES: [&str; 4] = ["off", "partner", "xor:2", "xor:4"];

/// Default problem scale (graph vertices per rank).
pub const REDUNDANCY_SCALE: usize = 20_000;

/// The cross-rank redundancy benchmark: per method, every rank hashes its
/// own record once (encoded diffs are policy-independent), then each
/// policy submits all ranks' records interleaved through one depth-1
/// pipeline into a redundancy-enabled [`AsyncRuntime`]. After the PFS
/// drains (and the group encodings settle), rank `lost_rank` suffers a
/// full local loss — with policy `off` only host+SSD go (PFS-only
/// recovery, the baseline); with redundancy on, the PFS copies are wiped
/// too, so the parallel restart engine must rebuild every record from the
/// group before replaying. The restored bytes are digest-checked against
/// the rank's final snapshot.
pub fn redundancy_at(scale: usize, seed: u64) -> RedundancyReport {
    use ckpt_hash::{Hasher128, Murmur3};
    use ckpt_runtime::{
        restore_rank_latest_parallel, CheckpointPipeline, CompressionPolicy, RedundancyPolicy,
    };
    use ckpt_telemetry::Registry;
    use std::sync::Arc;

    let hasher = Murmur3;
    let graph = PaperGraph::MessageRace;
    let lost_rank: u32 = 1;

    // Per-rank workloads: same graph, seed-perturbed so records differ.
    let workloads: Vec<_> = (0..REDUNDANCY_RANKS)
        .map(|r| gdv_snapshots(graph, scale, REDUNDANCY_CHECKPOINTS, seed + r as u64, true))
        .collect();
    let want: Vec<_> = workloads
        .iter()
        .map(|w| {
            let d = hasher.hash(w.snapshots.last().expect("snapshots"));
            (d.h1, d.h2)
        })
        .collect();

    let device = Device::a100();
    let mut cells = Vec::new();
    for method in ["Tree", "Full"] {
        // Hash every rank's record once; diffs depend only on the method.
        let mut encoded: Vec<Vec<Vec<u8>>> = Vec::new();
        for w in &workloads {
            let mut m: Box<dyn Checkpointer> = match method {
                "Tree" => Box::new(TreeCheckpointer::new(
                    device.clone(),
                    TreeConfig::new(FIG5_CHUNK),
                )),
                _ => Box::new(FullCheckpointer::new(device.clone(), FIG5_CHUNK)),
            };
            encoded.push(
                w.snapshots
                    .iter()
                    .map(|s| m.checkpoint(s).diff.encode())
                    .collect(),
            );
        }
        let raw_bytes: u64 = encoded
            .iter()
            .flat_map(|r| r.iter().map(|e| e.len() as u64))
            .sum();

        let mut points = Vec::new();
        for policy_name in REDUNDANCY_POLICIES {
            let redundancy = RedundancyPolicy::parse(policy_name).expect("known policy");
            let registry = Arc::new(Registry::new());
            let rt = Arc::new(AsyncRuntime::start(RuntimeConfig {
                registry: Arc::clone(&registry),
                compression: CompressionPolicy::parse("adaptive").expect("known policy"),
                redundancy,
                ..Default::default()
            }));
            let pipe = CheckpointPipeline::new(Arc::clone(&rt));
            let ids: Vec<(u32, u32)> = (0..REDUNDANCY_CHECKPOINTS as u32)
                .flat_map(|k| (0..REDUNDANCY_RANKS as u32).map(move |r| (r, k)))
                .collect();
            let t0 = std::time::Instant::now();
            for k in 0..REDUNDANCY_CHECKPOINTS {
                // Interleave ranks checkpoint-major, the cluster schedule.
                for (r, rank_encoded) in encoded.iter().enumerate() {
                    let b = rank_encoded[k].clone();
                    pipe.submit_with(r as u32, k as u32, Box::new(move || b));
                }
            }
            let pstats = pipe.close();
            rt.wait_durable(&ids);
            let wall_sec = t0.elapsed().as_secs_f64();
            assert_eq!(
                pstats.submitted,
                ids.len() as u64,
                "every checkpoint must land durably"
            );
            let t1 = std::time::Instant::now();
            rt.wait_redundancy_durable(&ids);
            let redundancy_drain_sec = t1.elapsed().as_secs_f64();

            let stored_bytes: u64 = ids
                .iter()
                .map(|&id| {
                    rt.tiers()
                        .pfs
                        .inspect_object(id)
                        .into_object()
                        .expect("durable object")
                        .stored_len()
                })
                .sum();
            let group_bytes = rt
                .tiers()
                .redundancy()
                .map(|red| red.group_tier().used_bytes())
                .unwrap_or(0);

            // Rank loss: local tiers always go; with redundancy on, the
            // PFS copies go too so recovery must come from the group.
            rt.tiers().host.wipe_rank(lost_rank);
            rt.tiers().ssd.wipe_rank(lost_rank);
            let restore_source = if redundancy == RedundancyPolicy::Off {
                "pfs"
            } else {
                rt.tiers().pfs.wipe_rank(lost_rank);
                "group"
            };
            let t2 = std::time::Instant::now();
            let restored = restore_rank_latest_parallel(rt.tiers(), &device, lost_rank, None)
                .expect("lost rank restorable");
            let rank_loss_restore_sec = t2.elapsed().as_secs_f64();
            let digest = hasher.hash(&restored.data);

            points.push(RedundancyPoint {
                policy: policy_name.to_string(),
                raw_bytes,
                stored_bytes,
                group_bytes,
                storage_overhead_pct: group_bytes * 100 / stored_bytes.max(1),
                wall_sec,
                agg_throughput_bps: raw_bytes as f64 / wall_sec.max(1e-12),
                redundancy_drain_sec,
                enqueue_wait_sec: registry.span_stats("pipeline/enqueue_wait").measured_sec(),
                restore_source,
                rank_loss_restore_sec,
                restore_digest: (digest.h1, digest.h2),
                restore_ok: (digest.h1, digest.h2) == want[lost_rank as usize],
            });
            Arc::try_unwrap(rt)
                .ok()
                .expect("pipeline released its handle")
                .shutdown();
        }
        cells.push(RedundancyCell { method, points });
    }
    RedundancyReport {
        graph,
        scale,
        n_ranks: REDUNDANCY_RANKS,
        n_checkpoints: REDUNDANCY_CHECKPOINTS,
        lost_rank,
        cells,
    }
}

/// One restore measurement in the rank-dedup sweep: the lost rank and a
/// surviving "witness" rank (whose records hold cross-rank references
/// into the lost rank) restored at a fixed thread count.
#[derive(Debug)]
pub struct RankDedupRestore {
    pub threads: usize,
    pub lost_digest: (u64, u64),
    pub witness_digest: (u64, u64),
    pub lost_ok: bool,
    pub witness_ok: bool,
    pub restore_sec: f64,
}

/// One redundancy-policy x rank-dedup cell of the sweep.
#[derive(Debug)]
pub struct RankDedupPoint {
    pub policy: String,
    pub rank_dedup: bool,
    pub raw_bytes: u64,
    pub stored_bytes: u64,
    pub group_bytes: u64,
    pub claims: u64,
    pub remote_refs: u64,
    pub remote_bytes_saved: u64,
    pub wall_sec: f64,
    /// Modeled tier time to drain every checkpoint host -> SSD -> PFS.
    pub modeled_e2e_sec: f64,
    pub restore_source: &'static str,
    pub restores: Vec<RankDedupRestore>,
}

impl RankDedupPoint {
    pub fn bit_identical(&self) -> bool {
        self.restores.iter().all(|r| r.lost_ok && r.witness_ok)
    }
}

#[derive(Debug)]
pub struct RankDedupCell {
    pub method: &'static str,
    pub points: Vec<RankDedupPoint>,
}

impl RankDedupCell {
    /// Stored-byte reduction of rank-dedup ON vs per-rank dedup only
    /// (OFF) under the same redundancy policy.
    pub fn reduction_pct(&self, policy: &str) -> f64 {
        let stored = |on: bool| {
            self.points
                .iter()
                .find(|p| p.policy == policy && p.rank_dedup == on)
                .map(|p| p.stored_bytes as f64)
        };
        match (stored(false), stored(true)) {
            (Some(off), Some(on)) if off > 0.0 => (off - on) * 100.0 / off,
            _ => 0.0,
        }
    }

    pub fn bit_identical(&self) -> bool {
        self.points.iter().all(|p| p.bit_identical())
    }
}

#[derive(Debug)]
pub struct RankDedupReport {
    pub graph: PaperGraph,
    pub scale: usize,
    pub n_ranks: usize,
    pub n_checkpoints: usize,
    pub chunk: usize,
    pub lost_rank: u32,
    pub witness_rank: u32,
    pub threads: Vec<usize>,
    pub cells: Vec<RankDedupCell>,
}

impl RankDedupReport {
    pub fn bit_identical(&self) -> bool {
        self.cells.iter().all(|c| c.bit_identical())
    }

    /// Worst-case reduction across methods and redundancy policies.
    pub fn min_reduction_pct(&self) -> f64 {
        self.cells
            .iter()
            .flat_map(|c| RANK_DEDUP_POLICIES.iter().map(move |p| c.reduction_pct(p)))
            .fold(f64::INFINITY, f64::min)
    }
}

/// Redundancy policies crossed with rank-dedup on/off.
pub const RANK_DEDUP_POLICIES: [&str; 3] = ["off", "partner", "xor:4"];

/// Restore-side thread counts the digests are checked at.
pub const RANK_DEDUP_THREADS: [usize; 3] = [1, 2, 8];

/// Default problem scale (shared-region graph vertices).
pub const RANK_DEDUP_SCALE: usize = 12_000;

/// Cluster-index grid size: the per-rank dedup grid ([`FIG5_CHUNK`]).
/// Tree diffs pack changed chunks in encoder order, which varies with
/// each rank's private tail — a coarser cluster grid would group
/// different runs of chunks on different ranks and miss nearly every
/// cross-rank match, so only the native granularity dedups robustly.
pub const RANK_DEDUP_CHUNK: usize = FIG5_CHUNK;

/// The cluster-wide dedup benchmark: every rank checkpoints a snapshot
/// made of a *shared* region (identical bytes on all ranks, the
/// overlapping working set) plus a seed-perturbed private tail. With
/// rank-dedup on, one shared inline claim index spans the ranks, so each
/// shared chunk is stored exactly once cluster-wide and every other rank
/// writes a `CKPR` cross-rank reference instead. Rank `lost_rank` (the
/// claim winner under the checkpoint-major schedule) then suffers a full
/// local loss; both the lost rank and a surviving witness rank — whose
/// records point *into* the lost rank — are restored at several thread
/// counts and digest-checked against their final snapshots.
pub fn rank_dedup_at(scale: usize, seed: u64) -> RankDedupReport {
    use ckpt_hash::{Hasher128, Murmur3};
    use ckpt_runtime::{
        restore_rank_latest_parallel, CheckpointPipeline, RankDedupConfig, RankDedupEngine,
        RankDedupMetrics, RedundancyPolicy,
    };
    use ckpt_telemetry::Registry;
    use std::sync::Arc;

    let hasher = Murmur3;
    let graph = PaperGraph::MessageRace;
    // The first submitter under the checkpoint-major interleave wins the
    // shared-region claims, so losing it exercises group reconstruction
    // of remotely-referenced chunks during every other rank's restore.
    let lost_rank: u32 = 0;
    let witness_rank: u32 = 2;

    // Shared region: one workload, identical on every rank, padded to a
    // chunk multiple so the private tail starts grid-aligned and the
    // shared chunks hash identically across ranks.
    let shared = gdv_snapshots(graph, scale, REDUNDANCY_CHECKPOINTS, seed, true);
    let pad = |b: &[u8]| {
        let mut v = b.to_vec();
        v.resize(v.len().div_ceil(RANK_DEDUP_CHUNK) * RANK_DEDUP_CHUNK, 0);
        v
    };
    let workloads: Vec<Vec<Vec<u8>>> = (0..REDUNDANCY_RANKS)
        .map(|r| {
            let tail = gdv_snapshots(
                graph,
                scale / 3,
                REDUNDANCY_CHECKPOINTS,
                seed + 101 * (r as u64 + 1),
                true,
            );
            shared
                .snapshots
                .iter()
                .zip(&tail.snapshots)
                .map(|(s, t)| {
                    let mut v = pad(s);
                    v.extend_from_slice(t);
                    v
                })
                .collect()
        })
        .collect();
    let want: Vec<_> = workloads
        .iter()
        .map(|w| {
            let d = hasher.hash(w.last().expect("snapshots"));
            (d.h1, d.h2)
        })
        .collect();

    let device = Device::a100();
    let mut cells = Vec::new();
    for method in ["Tree", "Full"] {
        // Hash every rank's record once; encoded diffs depend only on
        // the method, not on the policy/dedup cell.
        let mut encoded: Vec<Vec<Vec<u8>>> = Vec::new();
        for w in &workloads {
            let mut m: Box<dyn Checkpointer> = match method {
                "Tree" => Box::new(TreeCheckpointer::new(
                    device.clone(),
                    TreeConfig::new(FIG5_CHUNK),
                )),
                _ => Box::new(FullCheckpointer::new(device.clone(), FIG5_CHUNK)),
            };
            encoded.push(w.iter().map(|s| m.checkpoint(s).diff.encode()).collect());
        }
        let raw_bytes: u64 = encoded
            .iter()
            .flat_map(|r| r.iter().map(|e| e.len() as u64))
            .sum();

        let mut points = Vec::new();
        for policy_name in RANK_DEDUP_POLICIES {
            for rank_dedup in [false, true] {
                let redundancy = RedundancyPolicy::parse(policy_name).expect("known policy");
                let registry = Arc::new(Registry::new());
                let engine = rank_dedup.then(|| {
                    RankDedupEngine::new(
                        RankDedupConfig {
                            ranks: REDUNDANCY_RANKS as u32,
                            chunk_len: RANK_DEDUP_CHUNK,
                        },
                        RankDedupMetrics::bound(Arc::clone(&registry)),
                    )
                });
                // Compression off: the sweep isolates the cluster
                // index's stored-byte effect (the compression stage has
                // its own sweep, `flush_pipeline`, and composes with
                // rank-dedup in the production path).
                let rt = Arc::new(AsyncRuntime::start(RuntimeConfig {
                    registry: Arc::clone(&registry),
                    redundancy,
                    rank_dedup: engine,
                    ..Default::default()
                }));
                let pipe = CheckpointPipeline::new(Arc::clone(&rt));
                let ids: Vec<(u32, u32)> = (0..REDUNDANCY_CHECKPOINTS as u32)
                    .flat_map(|k| (0..REDUNDANCY_RANKS as u32).map(move |r| (r, k)))
                    .collect();
                let t0 = std::time::Instant::now();
                for k in 0..REDUNDANCY_CHECKPOINTS {
                    for (r, rank_encoded) in encoded.iter().enumerate() {
                        let b = rank_encoded[k].clone();
                        pipe.submit_with(r as u32, k as u32, Box::new(move || b));
                    }
                }
                let pstats = pipe.close();
                rt.wait_durable(&ids);
                let wall_sec = t0.elapsed().as_secs_f64();
                assert_eq!(
                    pstats.submitted,
                    ids.len() as u64,
                    "every checkpoint must land durably"
                );
                rt.wait_redundancy_durable(&ids);
                if let Some(e) = rt.rank_dedup() {
                    e.quiesce();
                }

                let stored_bytes: u64 = ids
                    .iter()
                    .map(|&id| {
                        rt.tiers()
                            .pfs
                            .inspect_object(id)
                            .into_object()
                            .expect("durable object")
                            .stored_len()
                    })
                    .sum();
                let group_bytes = rt
                    .tiers()
                    .redundancy()
                    .map(|red| red.group_tier().used_bytes())
                    .unwrap_or(0);
                let modeled_e2e_sec = rt.tiers().host.modeled_busy_sec()
                    + rt.tiers().ssd.modeled_busy_sec()
                    + rt.tiers().pfs.modeled_busy_sec();
                let counter = |name: &str| registry.counter(name).get();

                // Full local loss of the claim-winning rank; with
                // redundancy on, the PFS copies go too so both its own
                // restore and every cross-rank reference into it must
                // come back through the parity group.
                rt.tiers().host.wipe_rank(lost_rank);
                rt.tiers().ssd.wipe_rank(lost_rank);
                let restore_source = if redundancy == RedundancyPolicy::Off {
                    "pfs"
                } else {
                    rt.tiers().pfs.wipe_rank(lost_rank);
                    "group"
                };
                let mut restores = Vec::new();
                for &threads in &RANK_DEDUP_THREADS {
                    rayon::set_active_threads(threads);
                    let t1 = std::time::Instant::now();
                    let lost = restore_rank_latest_parallel(rt.tiers(), &device, lost_rank, None)
                        .expect("lost rank restorable");
                    let witness =
                        restore_rank_latest_parallel(rt.tiers(), &device, witness_rank, None)
                            .expect("witness rank restorable");
                    let restore_sec = t1.elapsed().as_secs_f64();
                    let ld = hasher.hash(&lost.data);
                    let wd = hasher.hash(&witness.data);
                    restores.push(RankDedupRestore {
                        threads,
                        lost_digest: (ld.h1, ld.h2),
                        witness_digest: (wd.h1, wd.h2),
                        lost_ok: (ld.h1, ld.h2) == want[lost_rank as usize],
                        witness_ok: (wd.h1, wd.h2) == want[witness_rank as usize],
                        restore_sec,
                    });
                }
                rayon::set_active_threads(0);

                points.push(RankDedupPoint {
                    policy: policy_name.to_string(),
                    rank_dedup,
                    raw_bytes,
                    stored_bytes,
                    group_bytes,
                    claims: counter("rankdedup/claims"),
                    remote_refs: counter("rankdedup/remote_refs"),
                    remote_bytes_saved: counter("rankdedup/remote_bytes_saved"),
                    wall_sec,
                    modeled_e2e_sec,
                    restore_source,
                    restores,
                });
                Arc::try_unwrap(rt)
                    .ok()
                    .expect("pipeline released its handle")
                    .shutdown();
            }
        }
        cells.push(RankDedupCell { method, points });
    }
    RankDedupReport {
        graph,
        scale,
        n_ranks: REDUNDANCY_RANKS,
        n_checkpoints: REDUNDANCY_CHECKPOINTS,
        chunk: RANK_DEDUP_CHUNK,
        lost_rank,
        witness_rank,
        threads: RANK_DEDUP_THREADS.to_vec(),
        cells,
    }
}

/// A4: vertex-ordering pre-processing — Gorder vs the classic orderings the
/// Gorder paper compares against (BFS, RCM) and the as-received labeling.
#[derive(Debug)]
pub struct GorderPoint {
    pub graph: PaperGraph,
    /// One record per ordering, in `ORDERINGS` order.
    pub orderings: Vec<MeasuredRecord>,
}

/// The orderings swept by A4.
pub const ORDERINGS: [(&str, crate::workload::VertexOrder); 4] = [
    ("scrambled", crate::workload::VertexOrder::Scrambled),
    ("bfs", crate::workload::VertexOrder::Bfs),
    ("rcm", crate::workload::VertexOrder::Rcm),
    ("gorder", crate::workload::VertexOrder::Gorder),
];

pub fn ablation_gorder(cfg: ExpConfig) -> Vec<GorderPoint> {
    use crate::workload::gdv_snapshots_ordered;
    PaperGraph::single_process()
        .into_iter()
        .map(|graph| {
            let orderings = ORDERINGS
                .iter()
                .map(|(name, order)| {
                    let w =
                        gdv_snapshots_ordered(graph, cfg.scale, FIG4_CHECKPOINTS, cfg.seed, *order);
                    let mut m = TreeCheckpointer::new(Device::a100(), TreeConfig::new(64));
                    run_dedup(&mut m, &format!("Tree/{name}"), &w.snapshots, true)
                })
                .collect();
            GorderPoint { graph, orderings }
        })
        .collect()
}

/// A1: hash-function throughput, Murmur3 vs MD5 (§2.4's motivation for a
/// non-cryptographic hash).
#[derive(Debug)]
pub struct HashPoint {
    pub hasher: &'static str,
    pub chunk_size: usize,
    /// Measured hashing throughput, bytes/sec.
    pub bytes_per_sec: f64,
    /// End-to-end Tree checkpoint record with this hash.
    pub record: MeasuredRecord,
}

pub fn ablation_hash(cfg: ExpConfig) -> Vec<HashPoint> {
    use ckpt_hash::{Hasher128, Md5, Murmur3, Sha256};
    let w = gdv_snapshots(PaperGraph::MessageRace, cfg.scale, 5, cfg.seed, true);
    let buf = &w.snapshots[0];
    let mut out = Vec::new();
    for (name, hasher) in [
        ("murmur3", Box::new(Murmur3) as Box<dyn Hasher128>),
        ("md5", Box::new(Md5)),
        ("sha256", Box::new(Sha256)),
    ] {
        let chunk = 128;
        // Raw hashing throughput over the checkpoint buffer.
        let t0 = std::time::Instant::now();
        let mut acc = 0u64;
        for c in buf.chunks(chunk) {
            acc ^= hasher.hash(c).h1;
        }
        std::hint::black_box(acc);
        let dt = t0.elapsed().as_secs_f64();

        let mut m = TreeCheckpointer::with_hasher(Device::a100(), TreeConfig::new(chunk), hasher);
        let record = run_dedup(&mut m, name, &w.snapshots, true);
        out.push(HashPoint {
            hasher: name,
            chunk_size: chunk,
            bytes_per_sec: buf.len() as f64 / dt.max(1e-12),
            record,
        });
    }
    out
}

/// A5 (§2.1 "fused GPU kernels ... a naive method would introduce
/// unacceptable latencies associated with submitting and executing new
/// kernels"): the same pipeline with per-pass kernel launches vs one fused
/// kernel, in modeled device time.
#[derive(Debug)]
pub struct FusionPoint {
    pub graph: PaperGraph,
    /// (launches, modeled launch seconds, total modeled seconds) fused.
    pub fused: (u64, f64, f64),
    /// Same, unfused.
    pub unfused: (u64, f64, f64),
}

pub fn ablation_fusion(cfg: ExpConfig) -> Vec<FusionPoint> {
    PaperGraph::single_process()
        .into_iter()
        .map(|graph| {
            let w = gdv_snapshots(graph, cfg.scale, FIG4_CHECKPOINTS, cfg.seed, true);
            let run = |fused: bool| {
                let device = Device::a100();
                let tree_cfg = TreeConfig {
                    fused,
                    ..TreeConfig::new(FIG5_CHUNK)
                };
                let mut m = TreeCheckpointer::new(device.clone(), tree_cfg);
                for snap in &w.snapshots {
                    m.checkpoint(snap);
                }
                let snap = device.metrics().snapshot();
                (
                    snap.kernels_launched,
                    snap.modeled_launch_sec,
                    snap.modeled_sec,
                )
            };
            FusionPoint {
                graph,
                fused: run(true),
                unfused: run(false),
            }
        })
        .collect()
}

/// Fig. 2 demonstration: the worked example's region counts, Tree vs List.
#[derive(Debug)]
pub struct Fig2Demo {
    pub tree_regions: usize,
    pub list_entries: usize,
    pub tree_first: Vec<u32>,
    pub tree_shift: Vec<(u32, u32, u32)>,
}

pub fn fig2_demo() -> Fig2Demo {
    const CS: usize = 32;
    let chunks = |tags: &[u8]| -> Vec<u8> {
        tags.iter()
            .flat_map(|&t| (0..CS).map(move |i| t.wrapping_mul(31).wrapping_add(i as u8)))
            .collect()
    };
    let v0 = chunks(b"ABCDEFGH");
    let v1 = chunks(b"IJKLEAIJ");

    let mut tree = TreeCheckpointer::new(Device::a100(), TreeConfig::new(CS));
    tree.checkpoint(&v0);
    let t = tree.checkpoint(&v1);
    let mut list = ListCheckpointer::new(Device::a100(), TreeConfig::new(CS));
    list.checkpoint(&v0);
    let l = list.checkpoint(&v1);

    Fig2Demo {
        tree_regions: t.diff.first_regions.len() + t.diff.shift_regions.len(),
        list_entries: l.diff.first_regions.len() + l.diff.shift_regions.len(),
        tree_first: t.diff.first_regions.clone(),
        tree_shift: t
            .diff
            .shift_regions
            .iter()
            .map(|s| (s.node, s.ref_node, s.ref_ckpt))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpConfig {
        ExpConfig {
            scale: 1200,
            seed: 7,
        }
    }

    #[test]
    fn fig2_demo_matches_paper() {
        let d = fig2_demo();
        assert_eq!(d.tree_regions, 3);
        assert_eq!(d.list_entries, 7);
        assert_eq!(d.tree_first, vec![1]);
    }

    #[test]
    fn table1_rows_cover_all_graphs() {
        let rows = table1(tiny());
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(r.generated.n_vertices > 500);
            assert_eq!(
                r.generated_gdv_bytes,
                (r.generated.n_vertices * 73 * 4) as u64
            );
        }
    }

    #[test]
    fn fig4_tree_wins_ratio_at_fine_chunks() {
        let cells = fig4(ExpConfig {
            scale: 1500,
            seed: 3,
        });
        // At 32-byte chunks the Tree method must beat List on every graph.
        for cell in cells.iter().filter(|c| c.chunk_size == 32) {
            let find = |n: &str| cell.methods.iter().find(|m| m.name == n).unwrap();
            let (tree, list, full) = (find("Tree"), find("List"), find("Full"));
            assert!(
                tree.ratio() >= list.ratio(),
                "{}: tree {:.2} < list {:.2}",
                cell.graph,
                tree.ratio(),
                list.ratio()
            );
            assert!(tree.ratio() > 2.0 * full.ratio(), "{}", cell.graph);
        }
    }

    #[test]
    fn fig6_tree_reduces_total_size_at_scale() {
        let points = fig6_with_ranks(800, 5, &[1, 8], 0.5);
        let at = |ranks: usize, m: ScalingMethod| {
            points
                .iter()
                .find(|p| p.n_ranks == ranks && p.method == m)
                .unwrap()
        };
        for &ranks in &[1usize, 8] {
            let tree = at(ranks, ScalingMethod::Tree);
            let full = at(ranks, ScalingMethod::Full);
            assert_eq!(tree.total_full, full.total_full);
            assert!(tree.total_stored * 4 < full.total_stored, "ranks {ranks}");
        }
    }

    #[test]
    fn hybrid_compresses_further_without_losing_restorability() {
        let points = hybrid(ExpConfig {
            scale: 1500,
            seed: 4,
        });
        for p in &points {
            let raw = &p.methods[0];
            let zstd = p.methods.iter().find(|m| m.name == "Tree+zstd").unwrap();
            assert!(
                zstd.stored <= raw.stored,
                "{}: hybrid {} vs raw {}",
                p.graph,
                zstd.stored,
                raw.stored
            );
        }
    }

    #[test]
    fn fusion_saves_launch_latency() {
        for p in ablation_fusion(ExpConfig {
            scale: 1200,
            seed: 3,
        }) {
            let (_, fused_launch, fused_total) = p.fused;
            let (_, unfused_launch, unfused_total) = p.unfused;
            assert!(
                unfused_launch > 5.0 * fused_launch,
                "{}: unfused launch {unfused_launch} vs fused {fused_launch}",
                p.graph
            );
            assert!(unfused_total > fused_total);
        }
    }

    #[test]
    fn adjoint_strategies_agree_and_tradeoff_holds() {
        let points = adjoint(ExpConfig {
            scale: 1024,
            seed: 0,
        });
        let dedup = &points[0];
        let raw = &points[1];
        let revolve4 = points.iter().find(|p| p.strategy.contains("c=4")).unwrap();
        // Dedup stores everything in less space than raw...
        assert!(dedup.store_bytes < raw.store_bytes / 2);
        // ...with no recomputation, while tight revolve recomputes heavily.
        assert_eq!(dedup.forward_steps, 192);
        assert!(revolve4.forward_steps > 2 * dedup.forward_steps);
    }

    #[test]
    fn streaming_pipeline_never_slower_and_usually_faster() {
        let points = streaming(ExpConfig {
            scale: 1500,
            seed: 4,
        });
        for p in &points {
            assert!(
                p.pipelined_sec <= p.sequential_sec * 1.0001,
                "{}: pipelined {} vs sequential {}",
                p.graph,
                p.pipelined_sec,
                p.sequential_sec
            );
            assert!(p.speedup() >= 1.0);
        }
        // At least one graph should show a visible (>5%) gain.
        assert!(points.iter().any(|p| p.speedup() > 1.05));
    }

    #[test]
    fn highfreq_full_stalls_more_than_tree() {
        let points = highfreq(ExpConfig {
            scale: 1500,
            seed: 4,
        });
        let tree = points.iter().find(|p| p.method == "Tree").unwrap();
        let full = points.iter().find(|p| p.method == "Full").unwrap();
        assert!(
            full.stall_sec > 5.0 * tree.stall_sec.max(1e-3),
            "full {} vs tree {}",
            full.stall_sec,
            tree.stall_sec
        );
        assert!(full.total_stored > 10 * tree.total_stored);
    }

    #[test]
    fn host_scaling_sweeps_and_stays_bit_identical() {
        let rep = host_scaling_at(&[1_200, 2_400], tiny().seed);
        assert_eq!(rep.scales.len(), 2);
        assert!(
            rep.bit_identical(),
            "checkpoint bytes drifted across thread counts"
        );
        for sc in &rep.scales {
            assert_eq!(sc.points.len(), HOST_SCALING_THREADS.len());
            assert_eq!(sc.points[0].threads, 1);
            assert!(sc.points.iter().any(|p| p.threads == 4));
            let stored0 = sc.points[0].stored_bytes;
            for p in &sc.points {
                assert_eq!(p.stored_bytes, stored0);
                assert!((p.modeled_sec - sc.points[0].modeled_sec).abs() < 1e-9);
                assert!(sc.speedup_vs_1(p).is_finite());
                assert!(
                    p.stages.iter().any(|(n, _, _)| n == "leaf_hash"),
                    "missing per-stage breakdown"
                );
                // A difference of wall clocks, clamped at 0 where it is
                // computed: on a loaded runner it can land exactly there.
                assert!(p.host_modeled_sec.is_finite() && p.host_modeled_sec >= 0.0);
            }
        }
    }

    #[test]
    fn redundancy_restores_lost_rank_bit_identically() {
        let rep = redundancy_at(900, 7);
        assert_eq!(rep.cells.len(), 2);
        assert!(rep.bit_identical(), "lost-rank restore drifted");
        for cell in &rep.cells {
            assert_eq!(cell.points.len(), REDUNDANCY_POLICIES.len());
            let off = cell.point("off").unwrap();
            assert_eq!(off.group_bytes, 0);
            assert_eq!(off.restore_source, "pfs");
            for policy in ["partner", "xor:2", "xor:4"] {
                let p = cell.point(policy).unwrap();
                assert_eq!(p.restore_source, "group");
                assert!(p.group_bytes > 0, "{policy}: no group objects");
                assert_eq!(p.restore_digest, off.restore_digest);
            }
            // XOR parity must be cheaper than mirroring, and wider groups
            // cheaper than narrow ones.
            let partner = cell.point("partner").unwrap();
            let x2 = cell.point("xor:2").unwrap();
            let x4 = cell.point("xor:4").unwrap();
            assert!(x4.group_bytes < x2.group_bytes);
            assert!(x2.group_bytes <= partner.group_bytes + partner.group_bytes / 8);
        }
    }

    #[test]
    fn ablation_waves_naive_has_more_metadata() {
        let points = ablation_waves(ExpConfig {
            scale: 1200,
            seed: 9,
        });
        for p in &points {
            assert!(
                p.naive.stored >= p.two_stage.stored,
                "{}: naive {} < two-stage {}",
                p.workload,
                p.naive.stored,
                p.two_stage.stored
            );
        }
        // The synthetic workload must make the penalty visible.
        let synth = points.last().unwrap();
        assert!(
            synth.naive.stored as f64 > 1.2 * synth.two_stage.stored as f64,
            "synthetic: naive {} vs two-stage {}",
            synth.naive.stored,
            synth.two_stage.stored
        );
    }
}
