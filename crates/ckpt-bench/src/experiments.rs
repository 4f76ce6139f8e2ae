//! Experiment drivers: one function per paper table/figure plus ablations.
//!
//! Each returns plain data that lists its fields once as a [`Report`];
//! `report` renders that and the `figures` binary wires both to the command
//! line and evaluates the gates. Absolute numbers differ from the paper's
//! A100 testbed (see `EXPERIMENTS.md`), but each driver reproduces the
//! *design* of its experiment: same sweeps, same baselines, same
//! aggregation rules.

use crate::codecs::{run_codec, run_dedup, MeasuredRecord};
use crate::oracle::restore_record;
use crate::report::{
    f, json_only, rows, Fields, Gate, Report, Row, Rule, Show, Value, Value::*, Violation,
};
use crate::workload::gdv_snapshots;
use ckpt_compress::all_codecs;
use ckpt_dedup::methods::tree_naive::NaiveTreeCheckpointer;
use ckpt_dedup::prelude::*;
use ckpt_graph::{GraphStats, PaperGraph};
use ckpt_runtime::CompressionPolicy::Off;
use ckpt_runtime::{
    restore_rank_latest_parallel, AsyncRuntime, CheckpointPipeline, CompressionPolicy,
    RankDedupConfig, RankDedupEngine, RankDedupMetrics, RedundancyPolicy, RuntimeConfig,
};
use ckpt_telemetry::Registry;
use gpu_sim::Device;
use std::sync::Arc;

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
    use MethodKind::{Basic, Full, List, Tree};
    [Full, Basic, List, Tree]
        .map(|kind| {
            let m = new_checkpointer(kind, Device::a100(), TreeConfig::new(chunk));
            (kind.name(), m)
        })
        .into()
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

impl Fields for Table1Row {
    const TITLE: &'static str = "Table 1: input graphs (paper original vs generated stand-in)";
    fn fields(&self) -> Row {
        vec![
            f("graph", Text(self.graph.name().into())),
            f("paper_vertices", Count(self.paper_vertices)),
            f("paper_arcs", Count(self.paper_arcs)),
            f("paper_gdv_bytes", Bytes(self.paper_gdv_bytes)),
            f(
                "generated_vertices",
                Count(self.generated.n_vertices as u64),
            ),
            f("generated_arcs", Count(self.generated.n_arcs as u64)),
            f("generated_gdv_bytes", Bytes(self.generated_gdv_bytes)),
            f(
                "generated_triangles",
                Count(self.generated.n_triangles as u64),
            ),
        ]
    }
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

/// How many times larger `big` is than `small`.
fn more(big: u64, small: u64) -> Value {
    Ratio(big as f64 / small.max(1) as f64)
}

impl Report for Vec<Fig4Cell> {
    fn title(&self) -> &'static str {
        "Figure 4: chunk-size sweep (dedup ratio & throughput), N=10 checkpoints"
    }

    /// The JSON side (frozen) is each method's aggregated
    /// [`ckpt_telemetry::StageBreakdown`]; the table side is the record.
    fn body(&self) -> Value {
        let method = |m: &MeasuredRecord| {
            let mut row = m.row();
            row.iter_mut().for_each(|field| field.show = Show::Table);
            let b = &m.breakdown;
            row.extend([
                json_only("method", Text(b.method.clone())),
                json_only("ckpt_id", Count(b.ckpt_id as u64)),
                json_only("total_measured_sec", Seconds(b.total_measured_sec)),
                json_only("total_modeled_sec", Seconds(b.total_modeled_sec)),
                json_only(
                    "stages",
                    rows(&b.stages, |s| {
                        vec![
                            f("name", Text(s.name.into())),
                            f("measured_sec", Seconds(s.measured_sec)),
                            f("modeled_sec", Seconds(s.modeled_sec)),
                        ]
                    }),
                ),
            ]);
            row
        };
        rows(self, |c| {
            vec![
                f("chunk_size", Count(c.chunk_size as u64)),
                f("graph", Text(c.graph.name().into())),
                f("methods", rows(&c.methods, method)),
            ]
        })
    }
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
                .map(|(name, mut m)| run_dedup(&mut *m, name, &w.snapshots, false, Off))
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

impl Report for Vec<Fig5Cell> {
    fn title(&self) -> &'static str {
        "Figure 5: checkpoint-frequency sweep (chunk 128 B), vs compressors"
    }

    fn body(&self) -> Value {
        let cells = rows(self, |c| {
            vec![
                f("graph", Text(c.graph.name().into())),
                f("n_checkpoints", Count(c.n_checkpoints as u64)),
                f("methods", rows(&c.methods, MeasuredRecord::row)),
            ]
        });
        Obj(vec![f("cells", cells)])
    }
}

/// Checkpoint counts swept by Figure 5.
pub const FIG5_COUNTS: [usize; 3] = [5, 10, 20];

/// Chunk size used in the frequency scenario.
pub const FIG5_CHUNK: usize = 128;

/// Hybrid series added to Figure 5: the Tree method with its records
/// compressed by these codecs in the runtime's flush stage — the composed
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
                .map(|(name, mut m)| run_dedup(&mut *m, name, &w.snapshots, true, Off))
                .collect();
            for codec in FIG5_HYBRID_CODECS {
                methods.push(tree_through(codec, &w.snapshots, true));
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
    pub method: MethodKind,
    pub total_stored: u64,
    pub total_full: u64,
    pub modeled_throughput: f64,
    pub measured_throughput: f64,
}

impl Fields for Fig6Point {
    const TITLE: &'static str =
        "Figure 6: strong scaling on Delaunay, Tree vs Full, 10 ckpts/process";
    fn fields(&self) -> Row {
        vec![
            f("n_ranks", Count(self.n_ranks as u64)),
            f("method", Text(self.method.name().into())),
            f("total_full", Bytes(self.total_full)),
            f("total_stored", Bytes(self.total_stored)),
            f("reduction", more(self.total_full, self.total_stored)),
            f("modeled_throughput", Rate(self.modeled_throughput)),
            f("measured_throughput", Rate(self.measured_throughput)),
        ]
    }
}

/// Rank counts swept by Figure 6.
pub const FIG6_RANKS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Checkpoints per process in the scaling scenario.
pub const FIG6_CHECKPOINTS: usize = 10;

/// Figure 6: strong scaling, Tree vs Full on Delaunay, over a rank sweep
/// ([`FIG6_RANKS`]; tests use short sweeps).
///
/// `per_rank_scale` is the vertex count of each rank's partition (the
/// paper's per-GPU share of Delaunay N24); the coverage knob models how
/// early in the long Delaunay run the paper's 10-minute checkpoint interval
/// samples.
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
        for method in [MethodKind::Tree, MethodKind::Full] {
            let rt = Arc::new(AsyncRuntime::new());
            let cfg = ScalingConfig {
                method,
                n_ranks,
                gpus_per_node: 8,
                chunk_size: 128,
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

/// Configuration of one strong-scaling run.
#[derive(Debug, Clone, Copy)]
pub struct ScalingConfig {
    /// Fig. 6 compares Tree vs Full.
    pub method: MethodKind,
    pub n_ranks: usize,
    /// GPUs per node (PCIe contenders); ThetaGPU has 8.
    pub gpus_per_node: usize,
    pub chunk_size: usize,
}

/// Per-rank outcome.
#[derive(Debug)]
pub struct RankReport {
    pub rank: u32,
    pub stats: RecordStats,
    /// Modeled device seconds spent producing + transferring diffs.
    pub modeled_sec: f64,
    pub measured_sec: f64,
}

/// Aggregate outcome of a scaling run.
#[derive(Debug)]
pub struct ScalingReport {
    pub method: MethodKind,
    pub n_ranks: usize,
    /// Σ original checkpoint bytes over all ranks and checkpoints (what Full
    /// would store).
    pub total_full_bytes: u64,
    /// Σ stored diff bytes (Fig. 6a's y-axis).
    pub total_stored_bytes: u64,
    /// max over ranks of modeled de-duplication time (Fig. 6b denominator).
    pub max_rank_modeled_sec: f64,
    pub max_rank_measured_sec: f64,
    pub ranks: Vec<RankReport>,
}

impl ScalingReport {
    /// Fig. 6a metric: total checkpoint size reduction vs Full.
    pub fn size_reduction(&self) -> f64 {
        self.total_full_bytes as f64 / self.total_stored_bytes.max(1) as f64
    }

    /// Fig. 6b metric (modeled): aggregate de-duplication throughput.
    pub fn modeled_throughput(&self) -> f64 {
        self.total_full_bytes as f64 / self.max_rank_modeled_sec.max(1e-12)
    }

    /// Fig. 6b metric on measured wall time.
    pub fn measured_throughput(&self) -> f64 {
        self.total_full_bytes as f64 / self.max_rank_measured_sec.max(1e-12)
    }
}

/// The Fig. 6 harness. "Each process checkpoints independently, but
/// multiple GPUs copying data to a shared CPU can impact performance. We
/// measure the sum of the first ten checkpoints for all processes.
/// Throughput is measured by taking the sum of 10 checkpoints and dividing
/// it by the maximum runtime spent on de-duplication across all processes"
/// (§3.3).
///
/// Each rank gets its own simulated device whose host-link contention is
/// set to the number of co-located GPUs on its node, its own checkpointer
/// state, and a share of one [`AsyncRuntime`]. `snapshots_for(rank)`
/// supplies each rank's checkpoint sequence (each rank owns an equal
/// partition of the problem, so per-rank data shrinks as ranks grow —
/// strong scaling). Each rank submits through its own
/// [`CheckpointPipeline`], so checkpoint *k*'s encode + host staging
/// overlaps checkpoint *k+1*'s de-duplication.
pub fn run_scaling<F>(
    cfg: ScalingConfig,
    runtime: &Arc<AsyncRuntime>,
    snapshots_for: F,
) -> ScalingReport
where
    F: Fn(u32) -> Vec<Vec<u8>> + Sync,
{
    let contenders = cfg.n_ranks.min(cfg.gpus_per_node).max(1) as u32;
    let ranks: Vec<RankReport> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.n_ranks as u32)
            .map(|rank| {
                let snapshots_for = &snapshots_for;
                s.spawn(move || {
                    let device = Device::a100();
                    device.set_contenders(contenders);
                    let mut method =
                        new_checkpointer(cfg.method, device, TreeConfig::new(cfg.chunk_size));
                    let snapshots = snapshots_for(rank);
                    let mut stats = RecordStats::new();
                    let pipe = CheckpointPipeline::new(Arc::clone(runtime));
                    let t0 = std::time::Instant::now();
                    for (k, snap) in snapshots.iter().enumerate() {
                        let out = method.checkpoint(snap);
                        stats.push(out.stats);
                        let diff = out.diff;
                        pipe.submit_with(rank, k as u32, Box::new(move || diff.encode()));
                    }
                    let measured_sec = t0.elapsed().as_secs_f64();
                    let pstats = pipe.close();
                    assert_eq!(pstats.aborted, 0, "rank {rank}: host staging full");
                    RankReport {
                        rank,
                        modeled_sec: stats.total_modeled_sec(),
                        measured_sec,
                        stats,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    });
    let max = |sec: fn(&RankReport) -> f64| ranks.iter().map(sec).fold(0.0f64, f64::max);
    ScalingReport {
        method: cfg.method,
        n_ranks: cfg.n_ranks,
        total_full_bytes: ranks.iter().map(|r| r.stats.total_uncompressed()).sum(),
        total_stored_bytes: ranks.iter().map(|r| r.stats.total_stored()).sum(),
        max_rank_modeled_sec: max(|r| r.modeled_sec),
        max_rank_measured_sec: max(|r| r.measured_sec),
        ranks,
    }
}

// ---------------------------------------------------------- Host scaling

/// Resize the persistent pool and warm it, so worker spawns are not billed
/// to the timed region that follows.
fn warm_pool(threads: usize) {
    use rayon::prelude::*;
    rayon::set_active_threads(threads);
    (0..(1usize << 16)).into_par_iter().for_each(|_| {});
}

/// Run `work` and time it: its result and its wall seconds.
fn timed<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let t0 = std::time::Instant::now();
    let out = work();
    (out, t0.elapsed().as_secs_f64())
}

/// One thread-count point of the host-throughput sweep.
#[derive(Debug)]
pub struct HostScalingPoint {
    pub threads: usize,
    /// Measured wall time for the whole checkpoint record.
    pub wall_sec: f64,
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

    /// Wall-time speedup of `p` over this scale's 1-thread point.
    pub fn speedup_vs_1(&self, p: &HostScalingPoint) -> f64 {
        self.points[0].wall_sec / p.wall_sec.max(1e-12)
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

impl Report for HostScalingReport {
    fn title(&self) -> &'static str {
        "Host scaling: Tree method over the persistent pool (scale x threads)"
    }

    fn body(&self) -> Value {
        let point = |sc: &HostScalingScale, p: &HostScalingPoint| {
            vec![
                f("threads", Count(p.threads as u64)),
                f("wall_sec", Seconds(p.wall_sec)),
                f("modeled_sec", Seconds(p.modeled_sec)),
                f("stored_bytes", Bytes(p.stored_bytes)),
                f("speedup_vs_1", Ratio(sc.speedup_vs_1(p))),
                f("record_digest", Digest(p.record_digest)),
                json_only(
                    "stages",
                    rows(&p.stages, |(stage, measured, modeled)| {
                        vec![
                            f("stage", Text(stage.clone())),
                            f("measured_sec", Seconds(*measured)),
                            f("modeled_sec", Seconds(*modeled)),
                        ]
                    }),
                ),
            ]
        };
        let scales = rows(&self.scales, |sc| {
            vec![
                f("scale", Count(sc.scale as u64)),
                f("snapshot_bytes", Bytes(sc.snapshot_bytes as u64)),
                f("bit_identical", Bool(sc.bit_identical())),
                f("points", rows(&sc.points, |p| point(sc, p))),
            ]
        });
        Obj(vec![
            f("n_checkpoints", Count(self.n_checkpoints as u64)),
            f("bit_identical", Bool(self.bit_identical())),
            f("scales", scales),
        ])
    }

    /// Checkpoint bytes and record digests must not move with the thread
    /// count. The wall-time speedup is reported, not gated: on a host with
    /// fewer cores than the sweep's threads it is noise around 1x, and the
    /// shim's `pool_concurrency` test is what catches a serialized pool.
    fn gate(&self) -> Vec<Violation> {
        let mut g = Gate::default();
        g.check(Rule::Shape, self.n_checkpoints > 0, "no checkpoints");
        for sc in &self.scales {
            g.at = format!("scale {}", sc.scale);
            let swept = sc.points.len() >= 3 && sc.points[0].threads == 1;
            let sized = sc.scale > 0 && sc.snapshot_bytes > 0;
            g.check(Rule::Shape, sized && swept, "needs >= 3 thread counts");
            let staged = sc.points.iter().all(|p| !p.stages.is_empty());
            g.check(Rule::Shape, staged, "empty stage breakdown");
            g.check(Rule::DigestDrift, sc.bit_identical(), "digest drifted");
            let stored = |w: &[HostScalingPoint]| w[0].stored_bytes == w[1].stored_bytes;
            let fixed = sc.points.windows(2).all(stored);
            g.check(Rule::StoredBytes, fixed, "stored bytes moved with threads");
        }
        g.found
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
            warm_pool(threads);
            m.reset_record();

            let before = device.metrics().snapshot();
            let mut stages: Vec<(String, f64, f64)> = Vec::new();
            let mut diffs = Vec::with_capacity(w.snapshots.len());
            let ((), wall_sec) = timed(|| {
                for snap in &w.snapshots {
                    let out = m.checkpoint(snap);
                    for s in &out.breakdown.stages {
                        match stages.iter_mut().find(|(name, ..)| name == s.name) {
                            Some((_, measured, modeled)) => {
                                *measured += s.measured_sec;
                                *modeled += s.modeled_sec;
                            }
                            None => {
                                stages.push((s.name.to_string(), s.measured_sec, s.modeled_sec))
                            }
                        }
                    }
                    diffs.push(out.diff);
                }
            });
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
                modeled_sec: after.modeled_sec - before.modeled_sec,
                stored_bytes: stored,
                record_digest: (digest.h1, digest.h2),
                stages,
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
    /// re-measured per point so both engines run under the same load).
    pub seq_wall_sec: f64,
    pub par_wall_sec: f64,
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

    /// Wall-time speedup of the parallel engine over the sequential
    /// replay at the same point.
    pub fn speedup(&self, p: &RestartLatencyPoint) -> f64 {
        p.seq_wall_sec / p.par_wall_sec.max(1e-12)
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

/// Floor on the best wall-time speedup (`seq_wall_sec / par_wall_sec`) of
/// the single-pass engine over sequential replay on the 32-record Tree
/// chain. It was set at half the smallest speedup the run-list engine read
/// (13.52), and never under 2.0. Wall-time readings of the current engine,
/// 6 runs at each CI scale (`--chain-lens 8,32`, 2 vCPUs):
///
/// - `--scale 4000`: 22.28 21.84 23.13 21.94 23.49 21.89
/// - `--scale 12000`: 25.12 23.69 27.15 29.50 26.51 27.62
///
/// Smallest 21.84. The default `--scale 20000` reads 31.2.
pub const RESTART_SPEEDUP_FLOOR: f64 = 6.7;

/// The chain length [`RESTART_SPEEDUP_FLOOR`] is gated on.
const RESTART_GATED_CHAIN: usize = 32;

impl Report for RestartLatencyReport {
    fn title(&self) -> &'static str {
        "Restart latency: sequential replay vs single-pass parallel engine"
    }

    fn body(&self) -> Value {
        let point = |cell: &RestartLatencyCell, p: &RestartLatencyPoint| {
            vec![
                f("threads", Count(p.threads as u64)),
                f("seq_wall_sec", Seconds(p.seq_wall_sec)),
                f("par_wall_sec", Seconds(p.par_wall_sec)),
                f("speedup", Ratio(cell.speedup(p))),
                f("seq_digest", Digest(p.seq_digest)),
                f("par_digest", Digest(p.par_digest)),
                f("records_visited", Count(p.records_visited as u64)),
                f("bytes_copied", Bytes(p.bytes_copied)),
            ]
        };
        let cells = rows(&self.cells, |cell| {
            vec![
                f("method", Text(cell.method.into())),
                f("chain_len", Count(cell.chain_len as u64)),
                f("snapshot_bytes", Bytes(cell.snapshot_bytes as u64)),
                f("bit_identical", Bool(cell.bit_identical())),
                f("best_speedup", Ratio(cell.best_speedup())),
                f("points", rows(&cell.points, |p| point(cell, p))),
            ]
        });
        Obj(vec![
            f("scale", Count(self.scale as u64)),
            f("bit_identical", Bool(self.bit_identical())),
            f("cells", cells),
        ])
    }

    /// Both engines restore identical bytes at every thread count (a
    /// correctness break, zero tolerance), the copy wave resolves each
    /// chunk once, and the single-pass engine keeps its latency edge.
    fn gate(&self) -> Vec<Violation> {
        let mut g = Gate::default();
        let methods: Vec<&str> = self.cells.iter().map(|c| c.method).collect();
        let all_four = covers(&methods, &["Full", "Basic", "List", "Tree"]);
        g.check(Rule::Shape, all_four, "a dedup method is missing");
        for c in &self.cells {
            g.at = format!("{} chain of {}", c.method, c.chain_len);
            let swept = c.points.len() >= 3 && c.points[0].threads == 1;
            let sized = c.snapshot_bytes > 0;
            g.check(Rule::Shape, sized && swept, "needs >= 3 thread counts");
            let same = c.bit_identical();
            g.check(Rule::DigestDrift, same, "parallel != sequential restore");
            let bounded = c.points.iter().all(|p| {
                (1..=c.chain_len).contains(&(p.records_visited as usize))
                    && p.bytes_copied <= c.snapshot_bytes as u64
            });
            let what = "walk left the chain or copied more than one snapshot";
            g.check(Rule::RestoreWork, bounded, what);
            if c.method == "Tree" && c.chain_len == RESTART_GATED_CHAIN {
                let best = c.best_speedup();
                let what = format!("best speedup {best:.2}x under RESTART_SPEEDUP_FLOOR");
                g.check(Rule::Threshold, best >= RESTART_SPEEDUP_FLOOR, &what);
            }
        }
        g.found
    }
}

/// Chain lengths swept by [`restart_latency_at`]: a short chain where the
/// walk overhead shows, and the paper-shaped 32-record chain the
/// [`RESTART_SPEEDUP_FLOOR`] gate runs against.
pub const RESTART_CHAIN_LENS: [usize; 2] = [8, 32];

/// Restart-latency benchmark: for each (chain length, method) cell, build
/// a checkpoint chain over the GDV workload, then sweep the persistent
/// pool's thread count restoring the *latest* version two ways — the
/// sequential-replay oracle (`restore_record`, last version) as the
/// baseline and the single-pass engine (`restore_latest_single_pass`),
/// the production restore path. Both are timed on the wall clock;
/// restored bytes are digested outside the timed windows and must be
/// bit-identical across engines and thread counts.
pub fn restart_latency_at(chain_lens: &[usize], scale: usize, seed: u64) -> RestartLatencyReport {
    let mut cells = Vec::new();
    for &chain_len in chain_lens {
        let w = gdv_snapshots(PaperGraph::MessageRace, scale, chain_len, seed, true);
        for (name, mut m) in dedup_methods(FIG5_CHUNK) {
            let diffs: Vec<_> = w.snapshots.iter().map(|s| m.checkpoint(s).diff).collect();
            let device = Device::a100();
            let mut points = Vec::new();
            for &threads in &HOST_SCALING_THREADS {
                warm_pool(threads);
                let (seq, seq_wall_sec) =
                    timed(|| restore_record(&diffs).expect("sequential replay").pop());
                let seq = seq.expect("chain has a version");
                let ((par, stats), par_wall_sec) = timed(|| {
                    restore_latest_single_pass(&device, 0, &diffs).expect("single-pass restart")
                });
                points.push(RestartLatencyPoint {
                    threads,
                    seq_wall_sec,
                    par_wall_sec,
                    seq_digest: murmur3(&seq),
                    par_digest: murmur3(&par),
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

impl Fields for MetadataPoint {
    const TITLE: &'static str =
        "Ablation A2: metadata compaction (Tree vs List), aggregated over N=10";
    fn fields(&self) -> Row {
        vec![
            f("graph", Text(self.graph.name().into())),
            f("chunk_size", Count(self.chunk_size as u64)),
            f("tree_metadata", Bytes(self.tree_metadata)),
            f("list_metadata", Bytes(self.list_metadata)),
            f("tree_regions", Count(self.tree_regions)),
            f("list_entries", Count(self.list_entries)),
            f("saving", more(self.list_metadata, self.tree_metadata)),
        ]
    }
}

pub fn ablation_metadata(cfg: ExpConfig) -> Vec<MetadataPoint> {
    let mut out = Vec::new();
    for graph in [PaperGraph::MessageRace, PaperGraph::Hugebubbles] {
        let w = gdv_snapshots(graph, cfg.scale, FIG4_CHECKPOINTS, cfg.seed, true);
        for chunk in FIG4_CHUNKS {
            let mut tree = TreeCheckpointer::new(Device::a100(), TreeConfig::new(chunk));
            let mut list =
                new_checkpointer(MethodKind::List, Device::a100(), TreeConfig::new(chunk));
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

impl Fields for WavesPoint {
    const TITLE: &'static str =
        "Ablation A3: two-stage wave ordering vs naive fused sweep (chunk 64 B)";
    fn fields(&self) -> Row {
        vec![
            f("workload", Text(self.workload.clone())),
            f(
                "naive_stores",
                more(self.naive.stored, self.two_stage.stored),
            ),
            f(
                "naive_metadata",
                more(self.naive.metadata, self.two_stage.metadata),
            ),
            f(
                "methods",
                rows(&[&self.two_stage, &self.naive], |m| m.row()),
            ),
        ]
    }
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
                two_stage: run_dedup(&mut two, "Tree(two-stage)", &w.snapshots, true, Off),
                naive: run_dedup(&mut naive, "Tree(naive)", &w.snapshots, true, Off),
            }
        })
        .collect();

    let snaps = repeated_pattern_snapshots(cfg);
    let mut two = TreeCheckpointer::new(Device::a100(), TreeConfig::new(64));
    let mut naive = NaiveTreeCheckpointer::new(Device::a100(), TreeConfig::new(64));
    points.push(WavesPoint {
        workload: "synthetic repeated patterns".to_string(),
        two_stage: run_dedup(&mut two, "Tree(two-stage)", &snaps, false, Off),
        naive: run_dedup(&mut naive, "Tree(naive)", &snaps, false, Off),
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

impl Fields for AdjointPoint {
    const TITLE: &'static str =
        "Extension E5 (\u{a7}5): adjoint reversal, recomputation vs de-duplicated storage";
    fn fields(&self) -> Row {
        vec![
            f("strategy", Text(self.strategy.clone())),
            f("forward_steps", Count(self.forward_steps)),
            f("store_bytes", Bytes(self.store_bytes)),
        ]
    }
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

impl Fields for StreamingPoint {
    const TITLE: &'static str =
        "Extension E3 (\u{a7}5): checkpoint-level streaming (overlap dedup with transfers)";
    fn fields(&self) -> Row {
        vec![
            f("graph", Text(self.graph.name().into())),
            f("sequential_sec", Seconds(self.sequential_sec)),
            f("pipelined_sec", Seconds(self.pipelined_sec)),
            f("speedup", Ratio(self.speedup())),
        ]
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

impl Fields for HighFreqPoint {
    const TITLE: &'static str =
        "Extension E2 (\u{a7}1): high-frequency checkpointing under storage backpressure";
    fn fields(&self) -> Row {
        vec![
            f("method", Text(self.method.into())),
            f("stall_sec", Seconds(self.stall_sec)),
            f("makespan_sec", Seconds(self.makespan_sec)),
            f("total_stored", Bytes(self.total_stored)),
        ]
    }
}

pub fn highfreq(cfg: ExpConfig) -> Vec<HighFreqPoint> {
    use ckpt_runtime::{AsyncRuntime, TierChain, TierConfig};

    let n_ckpts = 24;
    let w = gdv_snapshots(PaperGraph::MessageRace, cfg.scale, n_ckpts, cfg.seed, true);
    let snap_bytes = w.snapshot_bytes() as u64;

    let mut out = Vec::new();
    for kind in [MethodKind::Tree, MethodKind::Full] {
        let name = kind.name();
        let mut method = new_checkpointer(kind, Device::a100(), TreeConfig::new(FIG5_CHUNK));
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
/// "compressing the first-time occurrences in the difference". Tree's
/// records go through the runtime's flush stage; row 0 stores them plain.
#[derive(Debug)]
pub struct HybridPoint {
    pub graph: PaperGraph,
    pub methods: Vec<MeasuredRecord>,
}

impl Fields for HybridPoint {
    const TITLE: &'static str =
        "Extension E1 (paper \u{a7}5): Tree records through flush-stage compression";
    fn fields(&self) -> Row {
        vec![
            f("graph", Text(self.graph.name().into())),
            f("methods", rows(&self.methods, MeasuredRecord::row)),
        ]
    }
}

/// Tree at [`FIG5_CHUNK`] with its records compressed by `policy` (a
/// [`CompressionPolicy::parse`] spelling) in the flush stage: `Tree` for
/// `off`, `Tree+<codec>` otherwise.
fn tree_through(policy: &str, snapshots: &[Vec<u8>], skip_first: bool) -> MeasuredRecord {
    let mut m = TreeCheckpointer::new(Device::a100(), TreeConfig::new(FIG5_CHUNK));
    let compression = CompressionPolicy::parse(policy).expect("registered codec");
    let name = match compression {
        Off => "Tree".to_string(),
        _ => format!("Tree+{policy}"),
    };
    run_dedup(&mut m, &name, snapshots, skip_first, compression)
}

pub fn hybrid(cfg: ExpConfig) -> Vec<HybridPoint> {
    PaperGraph::single_process()
        .into_iter()
        .map(|graph| {
            let w = gdv_snapshots(graph, cfg.scale, FIG4_CHECKPOINTS, cfg.seed, true);
            let methods = ["off", "zstd", "lz4", "cascaded", "bitcomp"]
                .map(|codec| tree_through(codec, &w.snapshots, false))
                .into();
            HybridPoint { graph, methods }
        })
        .collect()
}

// ------------------------------------ The cluster sweeps' shared runner

/// The methods the three cluster sweeps cross with their stacks.
const CLUSTER_METHODS: [&str; 2] = ["Tree", "Full"];

fn murmur3(bytes: &[u8]) -> (u64, u64) {
    use ckpt_hash::{Hasher128, Murmur3};
    let d = Murmur3.hash(bytes);
    (d.h1, d.h2)
}

/// Every rank's record under one method, hashed and encoded once: the
/// encoded diffs and their modeled device time depend on neither the stack
/// nor the thread count.
struct EncodedCluster {
    device: Device,
    /// `records[rank][ckpt]`, the encoded diffs.
    records: Vec<Vec<Vec<u8>>>,
    /// `hash_sec[rank][ckpt]`, modeled device seconds spent hashing.
    hash_sec: Vec<Vec<f64>>,
    /// Σ encoded diff lengths over all ranks.
    raw_bytes: u64,
    /// Murmur3 digest of each rank's final snapshot.
    want: Vec<(u64, u64)>,
}

fn encode_cluster(method: &str, snapshots: &[&[Vec<u8>]]) -> EncodedCluster {
    let kind = MethodKind::from_name(method).expect("a sweep names one of the four methods");
    let device = Device::a100();
    let (mut records, mut hash_sec) = (Vec::new(), Vec::new());
    for rank in snapshots {
        let mut m = new_checkpointer(kind, device.clone(), TreeConfig::new(FIG5_CHUNK));
        let (mut encoded, mut sec) = (Vec::new(), Vec::new());
        for snap in *rank {
            let before = device.metrics().snapshot().modeled_sec;
            let out = m.checkpoint(snap);
            sec.push(device.metrics().snapshot().modeled_sec - before);
            encoded.push(out.diff.encode());
        }
        records.push(encoded);
        hash_sec.push(sec);
    }
    EncodedCluster {
        device,
        raw_bytes: records.iter().flatten().map(|e| e.len() as u64).sum(),
        want: snapshots
            .iter()
            .map(|rank| murmur3(rank.last().expect("snapshots")))
            .collect(),
        records,
        hash_sec,
    }
}

/// A stack whose record has drained: the tiers still hold every object.
struct Drained {
    rt: Arc<AsyncRuntime>,
    /// Wall time from first submit to a fully drained PFS.
    wall_sec: f64,
    /// Extra wall time until every redundancy encoding is durable and
    /// every claim batch settled.
    settle_sec: f64,
    /// Post-compression wire bytes of each object on the PFS,
    /// checkpoint-major.
    wire: Vec<u64>,
    /// Bytes resident on the redundancy group tier.
    group_bytes: u64,
}

/// Start the stack a sweep cell names (compression and redundancy policy
/// as the spellings the reports print, cluster dedup index on or off),
/// submit every rank's record interleaved checkpoint-major (the cluster
/// schedule: the first rank to submit a checkpoint wins its shared claims)
/// through one depth-1 [`CheckpointPipeline`], and settle: PFS durable,
/// then redundancy encodings and claims.
fn drain_cluster(
    enc: &EncodedCluster,
    compression: &str,
    redundancy: &str,
    rank_dedup: bool,
) -> Drained {
    let (n_ranks, n_ckpts) = (enc.records.len() as u32, enc.records[0].len() as u32);
    let registry = Arc::new(Registry::new());
    let engine = rank_dedup.then(|| {
        let config = RankDedupConfig {
            ranks: n_ranks,
            chunk_len: RANK_DEDUP_CHUNK,
        };
        RankDedupEngine::new(config, RankDedupMetrics::bound(Arc::clone(&registry)))
    });
    let rt = Arc::new(AsyncRuntime::start(RuntimeConfig {
        registry: Arc::clone(&registry),
        compression: CompressionPolicy::parse(compression).expect("known policy"),
        redundancy: RedundancyPolicy::parse(redundancy).expect("known policy"),
        rank_dedup: engine,
        ..Default::default()
    }));
    let pipe = CheckpointPipeline::new(Arc::clone(&rt));
    let ids: Vec<(u32, u32)> = (0..n_ckpts)
        .flat_map(|k| (0..n_ranks).map(move |r| (r, k)))
        .collect();
    let t0 = std::time::Instant::now();
    for &(r, k) in &ids {
        let b = enc.records[r as usize][k as usize].clone();
        pipe.submit_with(r, k, Box::new(move || b));
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
    if let Some(e) = rt.rank_dedup() {
        e.quiesce();
    }
    let settle_sec = t1.elapsed().as_secs_f64();

    let tiers = rt.tiers();
    let stored_len = |&id| {
        let object = tiers.pfs.inspect_object(id).into_object();
        object.expect("durable object").stored_len()
    };
    Drained {
        wire: ids.iter().map(stored_len).collect(),
        group_bytes: tiers
            .redundancy()
            .map_or(0, |red| red.group_tier().used_bytes()),
        rt,
        wall_sec,
        settle_sec,
    }
}

impl Drained {
    /// Producer time blocked in the depth-1 handoff.
    fn enqueue_wait_sec(&self) -> f64 {
        let span = self.rt.telemetry().span_stats("pipeline/enqueue_wait");
        span.measured_sec()
    }

    /// Full local loss of `rank`: host and SSD always go; with a
    /// redundancy group the PFS copies go too, so both the rank's own
    /// restore and every cross-rank reference into it must come back
    /// through the group. Returns where recovery has to come from.
    fn lose_rank(&self, rank: u32) -> &'static str {
        let tiers = self.rt.tiers();
        tiers.host.wipe_rank(rank);
        tiers.ssd.wipe_rank(rank);
        if tiers.redundancy().is_none() {
            return "pfs";
        }
        tiers.pfs.wipe_rank(rank);
        "group"
    }

    /// Restore `rank`'s latest checkpoint through the parallel restart
    /// engine: the Murmur3 digest of the bytes and the wall time it took.
    fn restore(&self, enc: &EncodedCluster, rank: u32) -> ((u64, u64), f64) {
        let t = std::time::Instant::now();
        let restored = restore_rank_latest_parallel(self.rt.tiers(), &enc.device, rank, None)
            .expect("rank restorable");
        let sec = t.elapsed().as_secs_f64();
        (murmur3(&restored.data), sec)
    }
}

/// True when `have` holds every name in `want`.
fn covers(have: &[&str], want: &[&str]) -> bool {
    want.iter().all(|w| have.contains(w))
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

/// Ceiling on the Hugebubbles Tree cell's adaptive `ratio_pct`: adaptive
/// compression must keep paying on the mesh workload, i.e. store strictly
/// less than 100% of raw.
pub const ADAPTIVE_RATIO_CEILING_PCT: u64 = 100;

impl Report for FlushPipelineReport {
    fn title(&self) -> &'static str {
        "Flush pipeline: compressed tiers (methods x policy x threads)"
    }

    fn body(&self) -> Value {
        let point = |p: &FlushPipelinePoint| {
            vec![
                f("policy", Text(p.policy.clone())),
                f("threads", Count(p.threads as u64)),
                f("raw_bytes", Bytes(p.raw_bytes)),
                f("stored_bytes", Bytes(p.stored_bytes)),
                f("ratio_pct", Count(p.ratio_pct)),
                f("modeled_pfs_write_sec", Seconds(p.modeled_pfs_write_sec)),
                f("modeled_e2e_sec", Seconds(p.modeled_e2e_sec)),
                f("wall_sec", Seconds(p.wall_sec)),
                f("enqueue_wait_sec", Seconds(p.enqueue_wait_sec)),
                f("restore_digest", Digest(p.restore_digest)),
                f("restore_ok", Bool(p.restore_ok)),
            ]
        };
        let cell = |c: &FlushPipelineCell| {
            vec![
                f("method", Text(c.method.into())),
                f("bit_identical", Bool(c.bit_identical())),
                f(
                    "stored_reduction_adaptive",
                    Ratio(c.stored_reduction_adaptive()),
                ),
                f("e2e_speedup_adaptive", Ratio(c.e2e_speedup_adaptive())),
                f("points", rows(&c.points, point)),
            ]
        };
        let workloads = rows(&self.workloads, |w| {
            vec![
                f("graph", Text(w.graph.name().into())),
                f("scale", Count(w.scale as u64)),
                f("snapshot_bytes", Bytes(w.snapshot_bytes as u64)),
                f("cells", rows(&w.cells, cell)),
            ]
        });
        Obj(vec![
            f("n_checkpoints", Count(self.n_checkpoints as u64)),
            f("bit_identical", Bool(self.bit_identical())),
            f("workloads", workloads),
        ])
    }

    /// Compressed and uncompressed flushes restore identical bytes at every
    /// thread count (zero tolerance), compression never inflates, and
    /// adaptive keeps paying on the mesh workload.
    fn gate(&self) -> Vec<Violation> {
        let mut g = Gate::default();
        let mesh = |w: &FlushPipelineWorkload| w.graph == PaperGraph::Hugebubbles;
        let swept = self.n_checkpoints > 0 && self.workloads.iter().any(mesh);
        g.check(Rule::Shape, swept, "needs a Hugebubbles workload");
        for w in &self.workloads {
            g.at = format!("{}/{}", w.graph, w.scale);
            let methods: Vec<&str> = w.cells.iter().map(|c| c.method).collect();
            let sized = w.snapshot_bytes > 0 && covers(&methods, &CLUSTER_METHODS);
            g.check(Rule::Shape, sized, "needs a snapshot and Tree + Full cells");
            for c in &w.cells {
                g.at = format!("{}/{} {}", w.graph, w.scale, c.method);
                let policies: Vec<&str> = c.points.iter().map(|p| &p.policy[..]).collect();
                let baseline = covers(&policies, &["off", "adaptive"]);
                g.check(Rule::Shape, baseline, "needs off and adaptive points");
                let same = c.bit_identical();
                g.check(Rule::DigestDrift, same, "restore digest drifted");
                let within = |p: &FlushPipelinePoint| (1..=p.raw_bytes).contains(&p.stored_bytes);
                let bounded = c.points.iter().all(within);
                g.check(Rule::StoredBytes, bounded, "stored bytes outside (0, raw]");
                let gated = mesh(w) && c.method == "Tree";
                for p in c.points.iter().filter(|p| gated && p.policy == "adaptive") {
                    let what = format!(
                        "{}t: adaptive ratio {}% not under raw",
                        p.threads, p.ratio_pct
                    );
                    let under = p.ratio_pct < ADAPTIVE_RATIO_CEILING_PCT;
                    g.check(Rule::Threshold, under, &what);
                }
            }
        }
        g.found
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
    use ckpt_runtime::TierConfig;

    let ssd_bw = TierConfig::ssd().bandwidth_bps;
    let pfs_bw = TierConfig::pfs().bandwidth_bps;
    let mut workloads = Vec::new();
    for &scale in scales {
        for graph in [PaperGraph::MessageRace, PaperGraph::Hugebubbles] {
            let w = gdv_snapshots(graph, scale, FLUSH_PIPELINE_CHECKPOINTS, seed, true);
            let mut cells = Vec::new();
            for method in CLUSTER_METHODS {
                let enc = encode_cluster(method, &[&w.snapshots[..]]);
                let hash_sec = &enc.hash_sec[0];
                let mut points = Vec::new();
                for policy in FLUSH_PIPELINE_POLICIES {
                    for &t in threads {
                        warm_pool(t);
                        let run = drain_cluster(&enc, policy, "off", false);
                        let stored_bytes: u64 = run.wire.iter().sum();

                        // Depth-1 overlap: hash of checkpoint k hides behind
                        // the SSD+PFS flush of k-1; the last flush drains alone.
                        let flush: Vec<f64> = run
                            .wire
                            .iter()
                            .map(|&b| b as f64 / ssd_bw + b as f64 / pfs_bw)
                            .collect();
                        let mut e2e = hash_sec[0];
                        for k in 1..flush.len() {
                            e2e += hash_sec[k].max(flush[k - 1]);
                        }
                        e2e += flush[flush.len() - 1];

                        let (restore_digest, _) = run.restore(&enc, 0);
                        points.push(FlushPipelinePoint {
                            policy: policy.to_string(),
                            threads: t,
                            raw_bytes: enc.raw_bytes,
                            stored_bytes,
                            ratio_pct: stored_bytes * 100 / enc.raw_bytes.max(1),
                            modeled_pfs_write_sec: stored_bytes as f64 / pfs_bw,
                            modeled_e2e_sec: e2e,
                            wall_sec: run.wall_sec,
                            enqueue_wait_sec: run.enqueue_wait_sec(),
                            restore_digest,
                            restore_ok: restore_digest == enc.want[0],
                        });
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
    /// Policy spelling (`off`, `xor:<k>`).
    pub policy: String,
    /// Pre-compression payload bytes submitted across all ranks.
    pub raw_bytes: u64,
    /// Post-compression wire bytes durable on the PFS, all ranks.
    pub stored_bytes: u64,
    /// Bytes resident on the redundancy group tier (0 with policy off).
    pub group_bytes: u64,
    /// `group_bytes * 100 / stored_bytes` — the storage cost of the
    /// encoding (≈100/(k−1) for `xor:k`: ≈100 for the `xor:2` mirror).
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
    /// including the PFS lost; the parity group rebuilds it).
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

/// Ceiling on the Tree cell's `xor:4` storage overhead, percent of stored
/// bytes. Theory is ~100/(k-1) = 33%; 50 keeps slack for the per-stripe
/// member-list framing on small objects while staying well under the
/// `xor:2` mirror's 100%. Overheads are gated on stored bytes, never wall
/// time: wall-clock deltas at smoke scale are runner noise.
pub const XOR4_OVERHEAD_CEILING_PCT: u64 = 50;

/// Where a lost rank must come back from under `policy`: without a group
/// only the local tiers are wiped and the PFS copy serves; with one the
/// PFS copy is wiped too, so only the parity group can.
fn restore_source_for(policy: &str) -> &'static str {
    match policy {
        "off" => "pfs",
        _ => "group",
    }
}

impl Report for RedundancyReport {
    fn title(&self) -> &'static str {
        "Cross-rank redundancy: rank-loss recovery (methods x policy)"
    }

    fn body(&self) -> Value {
        let point = |cell: &RedundancyCell, p: &RedundancyPoint| {
            vec![
                f("policy", Text(p.policy.clone())),
                f("raw_bytes", Bytes(p.raw_bytes)),
                f("stored_bytes", Bytes(p.stored_bytes)),
                f("group_bytes", Bytes(p.group_bytes)),
                f("storage_overhead_pct", Count(p.storage_overhead_pct)),
                f("wall_sec", Seconds(p.wall_sec)),
                f("agg_throughput_bps", Rate(p.agg_throughput_bps)),
                f(
                    "throughput_overhead_pct",
                    Ratio(cell.throughput_overhead_pct(&p.policy)),
                ),
                f("redundancy_drain_sec", Seconds(p.redundancy_drain_sec)),
                f("enqueue_wait_sec", Seconds(p.enqueue_wait_sec)),
                f("restore_source", Text(p.restore_source.into())),
                f("rank_loss_restore_sec", Seconds(p.rank_loss_restore_sec)),
                f("restore_digest", Digest(p.restore_digest)),
                f("restore_ok", Bool(p.restore_ok)),
            ]
        };
        let cells = rows(&self.cells, |cell| {
            vec![
                f("method", Text(cell.method.into())),
                f("bit_identical", Bool(cell.bit_identical())),
                f("points", rows(&cell.points, |p| point(cell, p))),
            ]
        });
        Obj(vec![
            f("graph", Text(self.graph.name().into())),
            f("scale", Count(self.scale as u64)),
            f("n_ranks", Count(self.n_ranks as u64)),
            f("n_checkpoints", Count(self.n_checkpoints as u64)),
            f("lost_rank", Count(self.lost_rank as u64)),
            f("bit_identical", Bool(self.bit_identical())),
            f("cells", cells),
        ])
    }

    /// Every policy restores the lost rank bit-identically to fault-free
    /// replay (zero tolerance: that is the point of the parity group),
    /// from where its policy says, at a bounded storage cost.
    fn gate(&self) -> Vec<Violation> {
        let mut g = Gate::default();
        let methods: Vec<&str> = self.cells.iter().map(|c| c.method).collect();
        let cluster = self.n_ranks >= 4 && (self.lost_rank as usize) < self.n_ranks;
        let swept = self.n_checkpoints > 0 && covers(&methods, &CLUSTER_METHODS);
        let what = "needs >= 4 ranks, one of them lost, and Tree + Full cells";
        g.check(Rule::Shape, cluster && swept, what);
        for c in &self.cells {
            g.at = c.method.to_string();
            let policies: Vec<&str> = c.points.iter().map(|p| &p.policy[..]).collect();
            let all = covers(&policies, &REDUNDANCY_POLICIES);
            g.check(Rule::Shape, all, "a redundancy policy is missing");
            let same = |w: &[RedundancyPoint]| w[0].restore_digest == w[1].restore_digest;
            let same = c.bit_identical() && c.points.windows(2).all(same);
            g.check(Rule::DigestDrift, same, "lost-rank restore digest drifted");
            for p in &c.points {
                g.at = format!("{} {}", c.method, p.policy);
                let want = restore_source_for(&p.policy);
                let grouped = (p.group_bytes > 0) == (want == "group");
                g.check(Rule::StoredBytes, grouped, "group bytes vs policy");
                let what = format!("restored from {}, not {want}", p.restore_source);
                g.check(Rule::RestoreSource, p.restore_source == want, &what);
                if c.method == "Tree" && p.policy == "xor:4" {
                    let pct = p.storage_overhead_pct;
                    let what =
                        format!("storage overhead {pct}% not under XOR4_OVERHEAD_CEILING_PCT");
                    g.check(Rule::Threshold, pct < XOR4_OVERHEAD_CEILING_PCT, &what);
                }
            }
        }
        g.found
    }
}

/// Checkpoints per rank in the redundancy sweep.
pub const REDUNDANCY_CHECKPOINTS: usize = 6;

/// Ranks in the modeled cluster (divisible by every swept group size).
pub const REDUNDANCY_RANKS: usize = 4;

/// Policies swept: no redundancy (PFS-only recovery baseline) and XOR
/// parity at two group sizes (`xor:2` is the partner mirror).
pub const REDUNDANCY_POLICIES: [&str; 3] = ["off", "xor:2", "xor:4"];

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
    let graph = PaperGraph::MessageRace;
    let lost_rank: u32 = 1;

    // Per-rank workloads: same graph, seed-perturbed so records differ.
    let workloads: Vec<_> = (0..REDUNDANCY_RANKS)
        .map(|r| gdv_snapshots(graph, scale, REDUNDANCY_CHECKPOINTS, seed + r as u64, true))
        .collect();
    let snapshots: Vec<&[Vec<u8>]> = workloads.iter().map(|w| &w.snapshots[..]).collect();

    let mut cells = Vec::new();
    for method in CLUSTER_METHODS {
        let enc = encode_cluster(method, &snapshots);
        let mut points = Vec::new();
        for policy in REDUNDANCY_POLICIES {
            let run = drain_cluster(&enc, "adaptive", policy, false);
            let stored_bytes: u64 = run.wire.iter().sum();
            let restore_source = run.lose_rank(lost_rank);
            let (restore_digest, rank_loss_restore_sec) = run.restore(&enc, lost_rank);
            points.push(RedundancyPoint {
                policy: policy.to_string(),
                raw_bytes: enc.raw_bytes,
                stored_bytes,
                group_bytes: run.group_bytes,
                storage_overhead_pct: run.group_bytes * 100 / stored_bytes.max(1),
                wall_sec: run.wall_sec,
                agg_throughput_bps: enc.raw_bytes as f64 / run.wall_sec.max(1e-12),
                redundancy_drain_sec: run.settle_sec,
                enqueue_wait_sec: run.enqueue_wait_sec(),
                restore_source,
                rank_loss_restore_sec,
                restore_digest,
                restore_ok: restore_digest == enc.want[lost_rank as usize],
            });
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

/// Floor on the stored-byte reduction of the cluster index over per-rank
/// dedup, percent, in every (method, policy) cell. Local calibration shows
/// ~42% Tree / ~88% Full on the overlapping working set.
pub const RANK_DEDUP_REDUCTION_FLOOR_PCT: f64 = 25.0;

impl Report for RankDedupReport {
    fn title(&self) -> &'static str {
        "Cluster-wide rank dedup: stored bytes and restores (methods x policy x index on/off)"
    }

    fn body(&self) -> Value {
        let restore = |r: &RankDedupRestore| {
            vec![
                f("threads", Count(r.threads as u64)),
                f("lost_digest", Digest(r.lost_digest)),
                f("witness_digest", Digest(r.witness_digest)),
                f("lost_ok", Bool(r.lost_ok)),
                f("witness_ok", Bool(r.witness_ok)),
                f("restore_sec", Seconds(r.restore_sec)),
            ]
        };
        let point = |cell: &RankDedupCell, p: &RankDedupPoint| {
            let reduction = p.rank_dedup.then(|| cell.reduction_pct(&p.policy));
            vec![
                f("policy", Text(p.policy.clone())),
                f("rank_dedup", Bool(p.rank_dedup)),
                f("raw_bytes", Bytes(p.raw_bytes)),
                f("stored_bytes", Bytes(p.stored_bytes)),
                f("group_bytes", Bytes(p.group_bytes)),
                f("claims", Count(p.claims)),
                f("remote_refs", Count(p.remote_refs)),
                f("remote_bytes_saved", Bytes(p.remote_bytes_saved)),
                f("reduction_pct", Ratio(reduction.unwrap_or(0.0))),
                f("wall_sec", Seconds(p.wall_sec)),
                f("modeled_e2e_sec", Seconds(p.modeled_e2e_sec)),
                f("restore_source", Text(p.restore_source.into())),
                f("restores", rows(&p.restores, restore)),
            ]
        };
        let cells = rows(&self.cells, |cell| {
            vec![
                f("method", Text(cell.method.into())),
                f("bit_identical", Bool(cell.bit_identical())),
                f("points", rows(&cell.points, |p| point(cell, p))),
            ]
        });
        Obj(vec![
            f("graph", Text(self.graph.name().into())),
            f("scale", Count(self.scale as u64)),
            f("n_ranks", Count(self.n_ranks as u64)),
            f("n_checkpoints", Count(self.n_checkpoints as u64)),
            f("chunk", Count(self.chunk as u64)),
            f("lost_rank", Count(self.lost_rank as u64)),
            f("witness_rank", Count(self.witness_rank as u64)),
            f("bit_identical", Bool(self.bit_identical())),
            f("min_reduction_pct", Ratio(self.min_reduction_pct())),
            f("cells", cells),
        ])
    }

    /// No restore digest moves with the dedup switch, the policy or the
    /// thread count (zero tolerance: a cross-rank reference must resolve
    /// to the exact bytes the owner stored), only the index publishes
    /// claims, and it stores strictly and substantially less.
    fn gate(&self) -> Vec<Violation> {
        let mut g = Gate::default();
        let methods: Vec<&str> = self.cells.iter().map(|c| c.method).collect();
        let lost = self.lost_rank;
        let cluster = self.n_ranks >= 4 && (lost as usize) < self.n_ranks;
        let swept = self.n_checkpoints > 0 && covers(&methods, &CLUSTER_METHODS);
        let what = "needs >= 4 ranks, a lost and another witness rank, and Tree + Full cells";
        let witnessed = self.witness_rank != lost;
        g.check(Rule::Shape, cluster && swept && witnessed, what);
        for c in &self.cells {
            for p in &c.points {
                g.at = format!("{} {} index {}", c.method, p.policy, p.rank_dedup);
                let threads: Vec<usize> = p.restores.iter().map(|r| r.threads).collect();
                let all = threads == RANK_DEDUP_THREADS;
                g.check(Rule::Shape, all, "a restore thread count is missing");
                g.check(Rule::DigestDrift, p.bit_identical(), "digest mismatch");
                let want = restore_source_for(&p.policy);
                let what = format!("restored from {}, not {want}", p.restore_source);
                g.check(Rule::RestoreSource, p.restore_source == want, &what);
                let published = [p.claims, p.remote_refs, p.remote_bytes_saved];
                let only_on = published.iter().all(|&n| (n > 0) == p.rank_dedup);
                g.check(Rule::Claims, only_on, "claims must follow the index switch");
            }
            for policy in RANK_DEDUP_POLICIES {
                g.at = format!("{} {policy}", c.method);
                let stored = |on: bool| {
                    let mut points = c.points.iter();
                    let p = points.find(|p| p.policy == policy && p.rank_dedup == on);
                    p.map(|p| p.stored_bytes)
                };
                let (Some(off), Some(on)) = (stored(false), stored(true)) else {
                    g.check(Rule::Shape, false, "needs index-off and index-on points");
                    continue;
                };
                let what = format!("cluster index stored {on} >= per-rank {off}");
                g.check(Rule::StoredBytes, on < off, &what);
                let pct = c.reduction_pct(policy);
                let what = format!("reduction {pct:.1}% under RANK_DEDUP_REDUCTION_FLOOR_PCT");
                let enough = on >= off || pct >= RANK_DEDUP_REDUCTION_FLOOR_PCT;
                g.check(Rule::Threshold, enough, &what);
            }
        }
        g.found
    }
}

/// Redundancy policies crossed with rank-dedup on/off.
pub const RANK_DEDUP_POLICIES: [&str; 3] = ["off", "xor:2", "xor:4"];

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
    let snapshots: Vec<&[Vec<u8>]> = workloads.iter().map(|w| &w[..]).collect();

    let mut cells = Vec::new();
    for method in CLUSTER_METHODS {
        let enc = encode_cluster(method, &snapshots);
        let mut points = Vec::new();
        for policy in RANK_DEDUP_POLICIES {
            for rank_dedup in [false, true] {
                // Compression off: the sweep isolates the cluster
                // index's stored-byte effect (the compression stage has
                // its own sweep, `flush_pipeline`, and composes with
                // rank-dedup in the production path).
                let run = drain_cluster(&enc, "off", policy, rank_dedup);
                let tiers = run.rt.tiers();
                let modeled_e2e_sec = tiers.host.modeled_busy_sec()
                    + tiers.ssd.modeled_busy_sec()
                    + tiers.pfs.modeled_busy_sec();
                let counter = |name: &str| run.rt.telemetry().counter(name).get();

                let restore_source = run.lose_rank(lost_rank);
                let mut restores = Vec::new();
                for &threads in &RANK_DEDUP_THREADS {
                    rayon::set_active_threads(threads);
                    let (lost_digest, lost_sec) = run.restore(&enc, lost_rank);
                    let (witness_digest, witness_sec) = run.restore(&enc, witness_rank);
                    restores.push(RankDedupRestore {
                        threads,
                        lost_digest,
                        witness_digest,
                        lost_ok: lost_digest == enc.want[lost_rank as usize],
                        witness_ok: witness_digest == enc.want[witness_rank as usize],
                        restore_sec: lost_sec + witness_sec,
                    });
                }
                rayon::set_active_threads(0);

                points.push(RankDedupPoint {
                    policy: policy.to_string(),
                    rank_dedup,
                    raw_bytes: enc.raw_bytes,
                    stored_bytes: run.wire.iter().sum(),
                    group_bytes: run.group_bytes,
                    claims: counter("rankdedup/claims"),
                    remote_refs: counter("rankdedup/remote_refs"),
                    remote_bytes_saved: counter("rankdedup/remote_bytes_saved"),
                    wall_sec: run.wall_sec,
                    modeled_e2e_sec,
                    restore_source,
                    restores,
                });
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

impl Fields for GorderPoint {
    const TITLE: &'static str = "Ablation A4: vertex-ordering pre-processing (Tree, chunk 64 B)";
    fn fields(&self) -> Row {
        vec![
            f("graph", Text(self.graph.name().into())),
            f("orderings", rows(&self.orderings, MeasuredRecord::row)),
        ]
    }
}

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
                    run_dedup(&mut m, &format!("Tree/{name}"), &w.snapshots, true, Off)
                })
                .collect();
            GorderPoint { graph, orderings }
        })
        .collect()
}

/// A1: hash-function throughput, Murmur3 vs MD5 and SHA-256 (§2.4's
/// motivation for a non-cryptographic hash).
#[derive(Debug)]
pub struct HashPoint {
    pub hasher: &'static str,
    pub chunk_size: usize,
    /// Measured hashing throughput, bytes/sec, through `hash_chunks` a
    /// [`gpu_sim::TILE`] of chunks a call: the kernel the leaf pass runs.
    pub bytes_per_sec: f64,
    /// The same bytes through one `hash` call per chunk, bytes/sec.
    pub per_chunk_bytes_per_sec: f64,
    /// End-to-end Tree checkpoint record with this hash.
    pub record: MeasuredRecord,
}

impl Fields for HashPoint {
    const TITLE: &'static str = "Ablation A1: hash function choice (chunk 128 B)";
    fn fields(&self) -> Row {
        let mut row = vec![
            f("hasher", Text(self.hasher.into())),
            f("chunk_size", Count(self.chunk_size as u64)),
            f("raw_hashing", Rate(self.bytes_per_sec)),
            f("per_chunk_hashing", Rate(self.per_chunk_bytes_per_sec)),
        ];
        row.extend(self.record.row().into_iter().skip(1));
        row
    }
}

/// Passes over the snapshot per hashing loop in A1; the median is reported.
const HASH_PASSES: usize = 5;

pub fn ablation_hash(cfg: ExpConfig) -> Vec<HashPoint> {
    use crate::{md5::Md5, sha256::Sha256};
    use ckpt_hash::{Digest128, Hasher128, Murmur3};
    let w = gdv_snapshots(PaperGraph::MessageRace, cfg.scale, 5, cfg.seed, true);
    let buf = &w.snapshots[0];
    // Median bytes/sec of `HASH_PASSES` timed passes of `pass` over `buf`.
    let rate = |pass: &mut dyn FnMut()| {
        let mut secs: Vec<f64> = (0..HASH_PASSES)
            .map(|_| {
                let t0 = std::time::Instant::now();
                pass();
                t0.elapsed().as_secs_f64()
            })
            .collect();
        secs.sort_by(f64::total_cmp);
        buf.len() as f64 / secs[HASH_PASSES / 2].max(1e-12)
    };
    let mut out = Vec::new();
    for (name, hasher) in [
        ("murmur3", Box::new(Murmur3) as Box<dyn Hasher128>),
        ("md5", Box::new(Md5)),
        ("sha256", Box::new(Sha256)),
    ] {
        let chunk = 128;
        let mut digests = vec![Digest128::ZERO; buf.len().div_ceil(chunk)];
        let bytes_per_sec = rate(&mut || {
            let tiles = buf.chunks(gpu_sim::TILE * chunk);
            for (tile, out) in tiles.zip(digests.chunks_mut(gpu_sim::TILE)) {
                hasher.hash_chunks(tile, chunk, 0, out);
            }
            std::hint::black_box(&digests);
        });
        let per_chunk_bytes_per_sec = rate(&mut || {
            for (digest, c) in digests.iter_mut().zip(buf.chunks(chunk)) {
                *digest = hasher.hash(c);
            }
            std::hint::black_box(&digests);
        });

        let mut m = TreeCheckpointer::with_hasher(Device::a100(), TreeConfig::new(chunk), hasher);
        let record = run_dedup(&mut m, name, &w.snapshots, true, Off);
        out.push(HashPoint {
            hasher: name,
            chunk_size: chunk,
            bytes_per_sec,
            per_chunk_bytes_per_sec,
            record,
        });
    }
    out
}

/// A5 (§2.1 "fused GPU kernels ... a naive method would introduce
/// unacceptable latencies associated with submitting and executing new
/// kernels"): the pipeline's fused kernel vs the per-pass launches of a
/// naive multi-kernel implementation, in modeled device time. One fused run
/// yields both columns: the naive version runs the same kernels, each paying
/// the launch latency the fused region pays once.
#[derive(Debug)]
pub struct FusionPoint {
    pub graph: PaperGraph,
    /// (launches, modeled launch seconds, total modeled seconds) fused.
    pub fused: (u64, f64, f64),
    /// Same, unfused.
    pub unfused: (u64, f64, f64),
}

impl Fields for FusionPoint {
    const TITLE: &'static str =
        "Ablation A5: fused kernels (\u{a7}2.1), modeled launch-latency cost";
    fn fields(&self) -> Row {
        vec![
            f("graph", Text(self.graph.name().into())),
            f("fused_launches", Count(self.fused.0)),
            f("fused_launch_sec", Seconds(self.fused.1)),
            f("fused_total_sec", Seconds(self.fused.2)),
            f("unfused_launches", Count(self.unfused.0)),
            f("unfused_launch_sec", Seconds(self.unfused.1)),
            f("unfused_total_sec", Seconds(self.unfused.2)),
        ]
    }
}

pub fn ablation_fusion(cfg: ExpConfig) -> Vec<FusionPoint> {
    PaperGraph::single_process()
        .into_iter()
        .map(|graph| {
            let w = gdv_snapshots(graph, cfg.scale, FIG4_CHECKPOINTS, cfg.seed, true);
            let device = Device::a100();
            let mut m = TreeCheckpointer::new(device.clone(), TreeConfig::new(FIG5_CHUNK));
            for snap in &w.snapshots {
                m.checkpoint(snap);
            }
            let snap = device.metrics().snapshot();
            let latency = device.perf().launch_sec();
            // Launches that paid latency: one per fused region plus any
            // kernel outside one. Unfused, every kernel pays it.
            let fused_launches = (snap.modeled_launch_sec / latency).round() as u64;
            let unfused_launch_sec = snap.kernels_launched as f64 * latency;
            let kernels_and_transfers = snap.modeled_sec - snap.modeled_launch_sec;
            FusionPoint {
                graph,
                fused: (fused_launches, snap.modeled_launch_sec, snap.modeled_sec),
                unfused: (
                    snap.kernels_launched,
                    unfused_launch_sec,
                    kernels_and_transfers + unfused_launch_sec,
                ),
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

impl Report for Fig2Demo {
    fn title(&self) -> &'static str {
        "Figure 2 worked example (8 chunks, second checkpoint): compaction 7 -> 3 as in the paper"
    }

    fn body(&self) -> Value {
        Obj(vec![
            f("tree_regions", Count(self.tree_regions as u64)),
            f("tree_first_roots", Text(format!("{:?}", self.tree_first))),
            f("tree_shifted", Text(format!("{:?}", self.tree_shift))),
            f("list_entries", Count(self.list_entries as u64)),
            f(
                "saved_entries",
                Count((self.list_entries - self.tree_regions) as u64),
            ),
        ])
    }
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
    let mut list = new_checkpointer(MethodKind::List, Device::a100(), TreeConfig::new(CS));
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

    fn cfg(scale: usize, seed: u64) -> ExpConfig {
        ExpConfig { scale, seed }
    }

    fn tiny() -> ExpConfig {
        cfg(1200, 7)
    }

    // Hand-built reports, clean under their gates. The schema test cuts
    // each down to one row per level; the gate tests break one rule each.

    const DIGEST: (u64, u64) = (0xdead, 0xbeef);

    fn host_clean() -> HostScalingReport {
        let point = |threads: usize| HostScalingPoint {
            threads,
            wall_sec: 0.5 / threads as f64,
            modeled_sec: 0.01,
            stored_bytes: 123,
            record_digest: DIGEST,
            stages: vec![("leaf_hash".to_string(), 0.1, 0.005)],
        };
        let scale = HostScalingScale {
            scale: 1000,
            snapshot_bytes: 292_000,
            points: [1, 2, 4].map(point).into(),
        };
        HostScalingReport {
            n_checkpoints: 8,
            scales: vec![scale],
        }
    }

    fn restart_clean() -> RestartLatencyReport {
        let point = |threads: usize| RestartLatencyPoint {
            threads,
            seq_wall_sec: 0.5,
            par_wall_sec: 0.04,
            seq_digest: DIGEST,
            par_digest: DIGEST,
            records_visited: 32,
            bytes_copied: 292_000,
        };
        let cell = |method| RestartLatencyCell {
            method,
            chain_len: 32,
            snapshot_bytes: 292_000,
            points: [1, 2, 4].map(point).into(),
        };
        RestartLatencyReport {
            scale: 4000,
            cells: ["Tree", "Full", "Basic", "List"].map(cell).into(),
        }
    }

    fn flush_clean() -> FlushPipelineReport {
        let point = |policy: &str| FlushPipelinePoint {
            policy: policy.to_string(),
            threads: 1,
            raw_bytes: 1000,
            stored_bytes: if policy == "off" { 1000 } else { 400 },
            ratio_pct: if policy == "off" { 100 } else { 40 },
            modeled_pfs_write_sec: 0.01,
            modeled_e2e_sec: 0.02,
            wall_sec: 0.5,
            enqueue_wait_sec: 0.001,
            restore_digest: DIGEST,
            restore_ok: true,
        };
        let cell = |method| FlushPipelineCell {
            method,
            points: FLUSH_PIPELINE_POLICIES.map(point).into(),
        };
        let workload = FlushPipelineWorkload {
            graph: PaperGraph::Hugebubbles,
            scale: 5000,
            snapshot_bytes: 292_000,
            cells: CLUSTER_METHODS.map(cell).into(),
        };
        FlushPipelineReport {
            n_checkpoints: 8,
            workloads: vec![workload],
        }
    }

    fn redundancy_clean() -> RedundancyReport {
        let point = |policy: &str| RedundancyPoint {
            policy: policy.to_string(),
            raw_bytes: 2000,
            stored_bytes: 1000,
            group_bytes: if policy == "off" { 0 } else { 340 },
            storage_overhead_pct: 34,
            wall_sec: 0.5,
            agg_throughput_bps: 4000.0,
            redundancy_drain_sec: 0.01,
            enqueue_wait_sec: 0.001,
            restore_source: restore_source_for(policy),
            rank_loss_restore_sec: 0.02,
            restore_digest: DIGEST,
            restore_ok: true,
        };
        let cell = |method| RedundancyCell {
            method,
            points: REDUNDANCY_POLICIES.map(point).into(),
        };
        RedundancyReport {
            graph: PaperGraph::MessageRace,
            scale: 8000,
            n_ranks: 4,
            n_checkpoints: 6,
            lost_rank: 1,
            cells: CLUSTER_METHODS.map(cell).into(),
        }
    }

    fn rank_dedup_clean() -> RankDedupReport {
        let restore = |threads| RankDedupRestore {
            threads,
            lost_digest: DIGEST,
            witness_digest: DIGEST,
            lost_ok: true,
            witness_ok: true,
            restore_sec: 0.02,
        };
        let point = |(policy, on): (&str, bool)| RankDedupPoint {
            policy: policy.to_string(),
            rank_dedup: on,
            raw_bytes: 2000,
            stored_bytes: if on { 500 } else { 1000 },
            group_bytes: 0,
            claims: if on { 10 } else { 0 },
            remote_refs: if on { 20 } else { 0 },
            remote_bytes_saved: if on { 500 } else { 0 },
            wall_sec: 0.5,
            modeled_e2e_sec: 0.02,
            restore_source: restore_source_for(policy),
            restores: RANK_DEDUP_THREADS.map(restore).into(),
        };
        let cell = |method| RankDedupCell {
            method,
            points: RANK_DEDUP_POLICIES
                .iter()
                .flat_map(|&policy| [(policy, false), (policy, true)])
                .map(point)
                .collect(),
        };
        RankDedupReport {
            graph: PaperGraph::MessageRace,
            scale: 4000,
            n_ranks: 4,
            n_checkpoints: 6,
            chunk: 128,
            lost_rank: 0,
            witness_rank: 2,
            cells: CLUSTER_METHODS.map(cell).into(),
        }
    }

    fn record() -> MeasuredRecord {
        let mut tree = TreeCheckpointer::new(Device::a100(), TreeConfig::new(64));
        let mut record = run_dedup(&mut tree, "Tree", &[vec![7u8; 4096]], false, Off);
        record.breakdown.stages.truncate(1);
        record
    }

    /// Each JSON report's keys on a one-row report, in order, are the
    /// literal the parent commit's renderer produced, and as a set they are
    /// the keys of the committed `BENCH_<name>.json` (Fig. 4 has none).
    #[test]
    fn json_reports_have_expected_schema() {
        use crate::report::render_json;
        use std::collections::BTreeSet;
        let (mut hs, mut rl, mut fp) = (host_clean(), restart_clean(), flush_clean());
        let (mut red, mut rd) = (redundancy_clean(), rank_dedup_clean());
        hs.scales[0].points.truncate(1);
        rl.cells.truncate(1);
        rl.cells[0].points.truncate(1);
        fp.workloads[0].cells.truncate(1);
        fp.workloads[0].cells[0].points.truncate(1);
        red.cells.truncate(1);
        red.cells[0].points.truncate(1);
        rd.cells.truncate(1);
        rd.cells[0].points.truncate(1);
        rd.cells[0].points[0].restores.truncate(1);
        let (graph, methods) = (PaperGraph::MessageRace, vec![record()]);
        let fig4 = vec![Fig4Cell {
            graph,
            chunk_size: 128,
            methods: methods.clone(),
        }];
        let fig5 = vec![Fig5Cell {
            graph,
            n_checkpoints: 5,
            methods,
        }];
        let check = |name: &str, body: Value, golden: &str| {
            let keys = ckpt_telemetry::collect_keys(&render_json(name, &body));
            let golden: Vec<&str> = std::iter::once(name).chain(golden.split(' ')).collect();
            assert_eq!(keys, golden, "{name}: key order");
            if name != "fig4" {
                let path = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
                let committed = std::fs::read_to_string(path).expect("committed artifact");
                let set = |keys: Vec<String>| keys.into_iter().collect::<BTreeSet<_>>();
                let committed = set(ckpt_telemetry::collect_keys(&committed));
                assert_eq!(set(keys), committed, "{name}: committed artifact's keys");
            }
        };
        check(
            "host_scaling",
            hs.body(),
            "n_checkpoints bit_identical scales scale snapshot_bytes bit_identical points \
             threads wall_sec modeled_sec stored_bytes speedup_vs_1 record_digest stages stage \
             measured_sec modeled_sec",
        );
        check(
            "restart_latency",
            rl.body(),
            "scale bit_identical cells method chain_len snapshot_bytes bit_identical \
             best_speedup points threads seq_wall_sec par_wall_sec speedup seq_digest \
             par_digest records_visited bytes_copied",
        );
        check(
            "flush_pipeline",
            fp.body(),
            "n_checkpoints bit_identical workloads graph scale snapshot_bytes cells method \
             bit_identical stored_reduction_adaptive e2e_speedup_adaptive points policy \
             threads raw_bytes stored_bytes ratio_pct modeled_pfs_write_sec modeled_e2e_sec \
             wall_sec enqueue_wait_sec restore_digest restore_ok",
        );
        check(
            "redundancy",
            red.body(),
            "graph scale n_ranks n_checkpoints lost_rank bit_identical cells method \
             bit_identical points policy raw_bytes stored_bytes group_bytes \
             storage_overhead_pct wall_sec agg_throughput_bps throughput_overhead_pct \
             redundancy_drain_sec enqueue_wait_sec restore_source rank_loss_restore_sec \
             restore_digest restore_ok",
        );
        check(
            "rank_dedup",
            rd.body(),
            "graph scale n_ranks n_checkpoints chunk lost_rank witness_rank bit_identical \
             min_reduction_pct cells method bit_identical points policy rank_dedup raw_bytes \
             stored_bytes group_bytes claims remote_refs remote_bytes_saved reduction_pct \
             wall_sec modeled_e2e_sec restore_source restores threads lost_digest \
             witness_digest lost_ok witness_ok restore_sec",
        );
        check(
            "fig5",
            fig5.body(),
            "cells graph n_checkpoints methods name uncompressed_bytes stored_bytes \
             metadata_bytes ratio modeled_sec measured_sec",
        );
        check(
            "fig4",
            fig4.body(),
            "chunk_size graph methods method ckpt_id total_measured_sec total_modeled_sec \
             stages name measured_sec modeled_sec",
        );
    }

    /// Breaks one rule of a clean report.
    type Break<R> = fn(&mut R);

    /// The clean report passes its gate; each mutation fires exactly its rule.
    fn fires<R: Report>(clean: fn() -> R, cases: &[(Break<R>, Rule)]) {
        let rules = |r: &R| r.gate().iter().map(|v| v.rule).collect::<Vec<_>>();
        assert_eq!(rules(&clean()), [], "clean {}", clean().title());
        for (i, (mutate, rule)) in cases.iter().enumerate() {
            let mut report = clean();
            mutate(&mut report);
            assert_eq!(rules(&report), [*rule], "case {i}: {:?}", report.gate());
        }
    }

    // Point `i` of each clean report's first (Tree) cell.
    fn hs(r: &mut HostScalingReport, i: usize) -> &mut HostScalingPoint {
        &mut r.scales[0].points[i]
    }
    fn rl(r: &mut RestartLatencyReport, i: usize) -> &mut RestartLatencyPoint {
        &mut r.cells[0].points[i]
    }
    fn fp(r: &mut FlushPipelineReport, i: usize) -> &mut FlushPipelinePoint {
        &mut r.workloads[0].cells[0].points[i]
    }
    fn red(r: &mut RedundancyReport, i: usize) -> &mut RedundancyPoint {
        &mut r.cells[0].points[i]
    }
    fn rd(r: &mut RankDedupReport, i: usize) -> &mut RankDedupPoint {
        &mut r.cells[0].points[i]
    }

    #[test]
    fn each_gate_fires_exactly_the_rule_broken() {
        fires(
            host_clean,
            &[
                (|r| r.n_checkpoints = 0, Rule::Shape),
                (|r| r.scales[0].snapshot_bytes = 0, Rule::Shape),
                (|r| r.scales[0].points.truncate(2), Rule::Shape),
                (|r| hs(r, 1).stages.clear(), Rule::Shape),
                (|r| hs(r, 1).record_digest = (1, 2), Rule::DigestDrift),
                (|r| hs(r, 1).stored_bytes += 1, Rule::StoredBytes),
            ],
        );
        fires(
            restart_clean,
            &[
                (|r| r.cells.retain(|c| c.method != "List"), Rule::Shape),
                (|r| rl(r, 0).threads = 2, Rule::Shape),
                (|r| rl(r, 2).par_digest = (1, 2), Rule::DigestDrift),
                (|r| rl(r, 2).seq_digest = (1, 2), Rule::DigestDrift),
                (|r| rl(r, 0).records_visited = 0, Rule::RestoreWork),
                (|r| rl(r, 0).records_visited = 33, Rule::RestoreWork),
                (|r| rl(r, 0).bytes_copied += 1, Rule::RestoreWork),
                // Every Tree point one step under the floor (sequential: 0.5 s).
                (
                    |r| {
                        let slow = 0.5 / (RESTART_SPEEDUP_FLOOR - 0.01);
                        (0..3).for_each(|i| rl(r, i).par_wall_sec = slow);
                    },
                    Rule::Threshold,
                ),
            ],
        );
        fires(
            flush_clean,
            &[
                (|r| r.n_checkpoints = 0, Rule::Shape),
                (|r| r.workloads[0].graph = PaperGraph::AsiaOsm, Rule::Shape),
                (|r| r.workloads[0].cells.truncate(1), Rule::Shape),
                (|r| r.workloads[0].cells[1].points.truncate(2), Rule::Shape),
                (|r| fp(r, 1).restore_ok = false, Rule::DigestDrift),
                (|r| fp(r, 1).restore_digest = (1, 2), Rule::DigestDrift),
                (|r| fp(r, 1).stored_bytes = 1001, Rule::StoredBytes),
                (|r| fp(r, 1).stored_bytes = 0, Rule::StoredBytes),
                (
                    |r| fp(r, 2).ratio_pct = ADAPTIVE_RATIO_CEILING_PCT,
                    Rule::Threshold,
                ),
            ],
        );
        fires(
            redundancy_clean,
            &[
                (|r| r.n_ranks = 3, Rule::Shape),
                (|r| r.lost_rank = 4, Rule::Shape),
                (|r| r.cells.truncate(1), Rule::Shape),
                (|r| r.cells[1].points.truncate(2), Rule::Shape),
                (|r| red(r, 1).restore_ok = false, Rule::DigestDrift),
                (|r| red(r, 1).restore_digest = (1, 2), Rule::DigestDrift),
                (|r| red(r, 0).group_bytes = 1, Rule::StoredBytes),
                (|r| red(r, 1).group_bytes = 0, Rule::StoredBytes),
                (|r| red(r, 2).restore_source = "pfs", Rule::RestoreSource),
                (
                    |r| red(r, 2).storage_overhead_pct = XOR4_OVERHEAD_CEILING_PCT,
                    Rule::Threshold,
                ),
            ],
        );
        // Points alternate index off / on per policy: 0-1 off, 2-3 xor:2, 4-5 xor:4.
        fires(
            rank_dedup_clean,
            &[
                (|r| r.n_ranks = 3, Rule::Shape),
                (|r| r.witness_rank = r.lost_rank, Rule::Shape),
                (|r| r.cells.truncate(1), Rule::Shape),
                (|r| rd(r, 0).restores.truncate(2), Rule::Shape),
                (|r| r.cells[0].points.truncate(5), Rule::Shape),
                (
                    |r| rd(r, 3).restores[1].witness_ok = false,
                    Rule::DigestDrift,
                ),
                (|r| rd(r, 4).restore_source = "pfs", Rule::RestoreSource),
                (|r| rd(r, 0).claims = 5, Rule::Claims),
                (|r| rd(r, 1).remote_refs = 0, Rule::Claims),
                (|r| rd(r, 1).stored_bytes = 1000, Rule::StoredBytes),
                // 24.9% fewer bytes than index-off: one step under the floor.
                (|r| rd(r, 1).stored_bytes = 751, Rule::Threshold),
            ],
        );
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
        let cells = fig4(cfg(1500, 3));
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

    /// A rank's sparse-update snapshot sequence, deterministic per rank.
    fn rank_snapshots(rank: u32, n: usize, len: usize) -> Vec<Vec<u8>> {
        let mut data: Vec<u8> = (0..len)
            .map(|i| ((i as u64 * 31 + rank as u64 * 7) % 251) as u8)
            .collect();
        let mut out = vec![data.clone()];
        for k in 1..n {
            for j in 0..len / 200 {
                let at = (k * 911 + j * 53 + rank as usize) % len;
                data[at] = data[at].wrapping_add(1);
            }
            out.push(data.clone());
        }
        out
    }

    #[test]
    fn tree_beats_full_at_every_rank_count() {
        for n_ranks in [1usize, 4] {
            let rt_tree = Arc::new(AsyncRuntime::new());
            let rt_full = Arc::new(AsyncRuntime::new());
            let mk = |method| ScalingConfig {
                method,
                n_ranks,
                gpus_per_node: 8,
                chunk_size: 64,
            };
            let tree = run_scaling(mk(MethodKind::Tree), &rt_tree, |r| {
                rank_snapshots(r, 5, 64_000)
            });
            let full = run_scaling(mk(MethodKind::Full), &rt_full, |r| {
                rank_snapshots(r, 5, 64_000)
            });
            assert_eq!(tree.total_full_bytes, full.total_full_bytes);
            assert!(
                tree.total_stored_bytes < full.total_stored_bytes / 2,
                "ranks {n_ranks}: tree {} vs full {}",
                tree.total_stored_bytes,
                full.total_stored_bytes
            );
            assert!(tree.size_reduction() > 2.0);
            assert!((full.size_reduction() - 1.0).abs() < 0.01);
        }
    }

    #[test]
    fn every_rank_record_restores_through_the_runtime() {
        let rt = Arc::new(AsyncRuntime::new());
        let cfg = ScalingConfig {
            method: MethodKind::Tree,
            n_ranks: 4,
            gpus_per_node: 8,
            chunk_size: 64,
        };
        let report = run_scaling(cfg, &rt, |r| rank_snapshots(r, 4, 32_000));
        assert_eq!(report.ranks.len(), 4);
        let ids: Vec<(u32, u32)> = (0..4u32)
            .flat_map(|r| (0..4u32).map(move |k| (r, k)))
            .collect();
        rt.wait_durable(&ids);
        for rank in 0..4u32 {
            let (base, versions) = crate::oracle::restore_rank(rt.tiers(), rank).unwrap();
            assert_eq!(base, 0);
            let expect = rank_snapshots(rank, 4, 32_000);
            assert_eq!(versions, expect, "rank {rank}");
        }
    }

    #[test]
    fn contention_reflects_gpus_per_node() {
        // Same work, more contenders -> larger modeled time per rank.
        let rt1 = Arc::new(AsyncRuntime::new());
        let rt8 = Arc::new(AsyncRuntime::new());
        let base = ScalingConfig {
            method: MethodKind::Full,
            n_ranks: 2,
            gpus_per_node: 1,
            chunk_size: 64,
        };
        let crowded = ScalingConfig {
            gpus_per_node: 8,
            n_ranks: 8,
            ..base
        };
        let solo = run_scaling(base, &rt1, |r| rank_snapshots(r, 3, 100_000));
        let packed = run_scaling(crowded, &rt8, |r| rank_snapshots(r, 3, 100_000));
        let solo_rank = solo.max_rank_modeled_sec;
        let packed_rank = packed.max_rank_modeled_sec;
        assert!(
            packed_rank > 2.5 * solo_rank,
            "8-way contention {packed_rank} vs solo {solo_rank}"
        );
    }

    #[test]
    fn fig6_tree_reduces_total_size_at_scale() {
        let points = fig6_with_ranks(800, 5, &[1, 8], 0.5);
        let at = |ranks: usize, m: MethodKind| {
            points
                .iter()
                .find(|p| p.n_ranks == ranks && p.method == m)
                .unwrap()
        };
        for &ranks in &[1usize, 8] {
            let tree = at(ranks, MethodKind::Tree);
            let full = at(ranks, MethodKind::Full);
            assert_eq!(tree.total_full, full.total_full);
            assert!(tree.total_stored * 4 < full.total_stored, "ranks {ranks}");
        }
    }

    #[test]
    fn hybrid_rows_store_no_more_than_plain_tree() {
        let points = hybrid(cfg(1500, 4));
        for p in &points {
            let raw = &p.methods[0];
            assert_eq!(raw.name, "Tree");
            for m in &p.methods[1..] {
                assert_eq!(
                    (m.uncompressed, m.metadata),
                    (raw.uncompressed, raw.metadata)
                );
                assert!(
                    m.stored <= raw.stored,
                    "{}: {} {} vs raw {}",
                    p.graph,
                    m.name,
                    m.stored,
                    raw.stored
                );
            }
        }
    }

    #[test]
    fn trait_object_dispatch() {
        use crate::{md5::Md5, sha256::Sha256};
        use ckpt_hash::{Hasher128, Murmur3};
        let hashers: Vec<Box<dyn Hasher128>> =
            vec![Box::new(Murmur3), Box::new(Md5), Box::new(Sha256)];
        for h in &hashers {
            // Same input twice -> same digest; different input -> different digest.
            assert_eq!(h.hash(b"x"), h.hash(b"x"));
            assert_ne!(h.hash(b"x"), h.hash(b"y"));
        }
        assert_ne!(hashers[0].hash(b"x"), hashers[1].hash(b"x"));
    }

    /// A1 changes only the digest function: every hasher's Tree record
    /// restores exactly and stores the same bytes, table for table.
    #[test]
    fn ablation_hash_records_restore_and_store_the_same_bytes() {
        use crate::{md5::Md5, sha256::Sha256};
        use ckpt_hash::{Hasher128, Murmur3};
        let c = cfg(1200, 3);
        let points = ablation_hash(c);
        let hashers: Vec<_> = points.iter().map(|p| p.hasher).collect();
        assert_eq!(hashers, ["murmur3", "md5", "sha256"]);
        let bytes = |p: &HashPoint| (p.record.stored, p.record.metadata);
        for p in &points {
            assert_eq!(bytes(p), bytes(&points[0]), "{}", p.hasher);
        }
        let w = gdv_snapshots(PaperGraph::MessageRace, c.scale, 5, c.seed, true);
        let hashers: [Box<dyn Hasher128>; 3] = [Box::new(Murmur3), Box::new(Md5), Box::new(Sha256)];
        for hasher in hashers {
            let name = hasher.name();
            let mut m = TreeCheckpointer::with_hasher(Device::a100(), TreeConfig::new(128), hasher);
            let diffs: Vec<_> = w.snapshots.iter().map(|s| m.checkpoint(s).diff).collect();
            assert_eq!(restore_record(&diffs).unwrap(), w.snapshots, "{name}");
        }
    }

    #[test]
    fn fusion_saves_launch_latency() {
        for p in ablation_fusion(cfg(1200, 3)) {
            let (fused_launches, fused_launch, fused_total) = p.fused;
            let (unfused_launches, unfused_launch, unfused_total) = p.unfused;
            assert!(
                fused_launches < unfused_launches,
                "{}: {fused_launches} fused launches vs {unfused_launches} unfused",
                p.graph
            );
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
        let points = adjoint(cfg(1024, 0));
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
        let points = streaming(cfg(1500, 4));
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
        let points = highfreq(cfg(1500, 4));
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
        // Bytes and digests fixed across thread counts, stages present.
        assert!(rep.gate().is_empty(), "{:?}", rep.gate());
        for sc in &rep.scales {
            assert_eq!(sc.points.len(), HOST_SCALING_THREADS.len());
            for p in &sc.points {
                assert!((p.modeled_sec - sc.points[0].modeled_sec).abs() < 1e-9);
                assert!(sc.speedup_vs_1(p).is_finite());
                assert!(p.stages.iter().any(|(n, _, _)| n == "leaf_hash"));
                assert!(p.wall_sec.is_finite() && p.wall_sec > 0.0);
            }
        }
    }

    #[test]
    fn redundancy_restores_lost_rank_bit_identically() {
        let rep = redundancy_at(900, 7);
        // Every policy present and restored bit-identically from where it
        // must, group bytes only with a group, xor:4 under its ceiling.
        assert!(rep.gate().is_empty(), "{:?}", rep.gate());
        for cell in &rep.cells {
            // Wider groups are cheaper than narrow ones, and the `xor:2`
            // mirror costs its stored bytes plus one stripe table each.
            let x2 = cell.point("xor:2").unwrap();
            let x4 = cell.point("xor:4").unwrap();
            assert!(x4.group_bytes < x2.group_bytes);
            assert!(x2.group_bytes <= x2.stored_bytes + x2.stored_bytes / 8);
        }
    }

    #[test]
    fn ablation_waves_naive_has_more_metadata() {
        let points = ablation_waves(cfg(1200, 9));
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
