//! The benchmark's fixed definitions: workloads, metric names with unit,
//! direction and regression bound, and the layer → end-to-end map. The
//! committed `BENCHMARK.json` is generated from these tables
//! (`ckpt-e2e --print-benchmark-json`) and a test keeps the two equal.

use crate::stats::Better;
use ckpt_bench::workload::VertexOrder;
use ckpt_graph::PaperGraph;

/// Chunk size of every workload (the paper's Fig. 5 setting).
pub const CHUNK: usize = 128;
/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 7;
/// Seed never used while the benchmark was sized; claims must also hold here.
pub const HELD_OUT_SEED: u64 = 20230807;
/// Seconds one run measures (the driver passes this as `--seconds`).
pub const RUN_SECONDS: u64 = 20;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_ROUNDS: usize = 5;
/// In a traced run the layer micro-measurements follow every fifth rep: an
/// odd period, so they precede recorded and unrecorded reps equally often.
pub const MICRO_EVERY: u32 = 5;
/// The rank that is lost and the survivor whose records point into it.
pub const LOST_RANK: u32 = 0;
pub const WITNESS_RANK: u32 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    Tree,
    Full,
}

/// What runs below `submit`: the plain runtime, or the production stack
/// (adaptive compression, `xor:4` redundancy groups, cluster dedup index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    Plain,
    Production,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub ranks: u32,
    pub checkpoints: usize,
    pub method: Method,
    pub stack: Stack,
    pub graph: PaperGraph,
    pub order: VertexOrder,
    /// Vertices of the snapshot (single rank) or of the region all ranks
    /// share (cluster).
    pub vertices: usize,
    /// Vertices of each rank's seed-perturbed private tail (cluster only).
    pub tail_vertices: usize,
}

impl Workload {
    /// The rank restored in the read phase: one whose copies all survive.
    pub fn survivor(&self) -> u32 {
        if self.ranks > 1 {
            WITNESS_RANK
        } else {
            0
        }
    }

    /// Incremental checkpoints (k >= 1) of one record set, over all ranks.
    pub fn incremental(&self) -> usize {
        (self.checkpoints - 1) * self.ranks as usize
    }

    /// `--quick`: the same shape at 2 k vertices.
    pub fn quick(mut self) -> Self {
        let tail_share = self.tail_vertices as f64 / self.vertices as f64;
        self.vertices = 2000;
        self.tail_vertices = (2000.0 * tail_share) as usize;
        self
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sparse_tree",
        why: "1 rank, Message Race + Gorder, Tree, plain stack: <1% of the snapshot is new per checkpoint, so leaf hashing dominates and flush/restore bytes are tiny (the paper's Fig. 4/5 regime)",
        ranks: 1,
        checkpoints: 16,
        method: Method::Tree,
        stack: Stack::Plain,
        graph: PaperGraph::MessageRace,
        order: VertexOrder::Gorder,
        vertices: 40_000,
        tail_vertices: 0,
    },
    Workload {
        name: "dense_tree",
        why: "same shape on scrambled Delaunay N24: ~40% new per checkpoint, so map inserts, gather/serialize, flush and restore copies carry ~40x the bytes and a pure hash gain moves it less",
        ranks: 1,
        checkpoints: 16,
        method: Method::Tree,
        stack: Stack::Plain,
        graph: PaperGraph::DelaunayN24,
        order: VertexOrder::Scrambled,
        vertices: 40_000,
        tail_vertices: 0,
    },
    Workload {
        name: "cluster_tree",
        why: "4 ranks sharing a Message Race region plus private tails, Tree, full stack (adaptive compression, xor:4, rank-dedup): small diffs expose the fixed per-object cost of every runtime layer",
        ranks: 4,
        checkpoints: 12,
        method: Method::Tree,
        stack: Stack::Production,
        graph: PaperGraph::MessageRace,
        order: VertexOrder::Gorder,
        vertices: 30_000,
        tail_vertices: 10_000,
    },
    Workload {
        name: "cluster_full",
        why: "same 4-rank composition, Full method, full stack: bypasses dedup hashing (a ckpt-dedup/ckpt-hash change must not move it) and pushes every byte through rank-dedup, compression and parity",
        ranks: 4,
        checkpoints: 8,
        method: Method::Full,
        stack: Stack::Production,
        graph: PaperGraph::MessageRace,
        order: VertexOrder::Gorder,
        vertices: 8_000,
        tail_vertices: 2_700,
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// A metric a user of the system would see; `bound` is the share of the
/// parent's median by which it may worsen before a change is rejected.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "ckpt_blocked_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "wall from handing a snapshot to `checkpoint` until `submit` returns: each rep's mean over its incremental checkpoints (k >= 1), median across reps",
    },
    EndToEnd {
        name: "durable_mbps",
        unit: "MB/s",
        better: Better::Higher,
        bound: 0.25,
        what: "user bytes of one record set / wall from the first snapshot to `quiesce` returning",
    },
    EndToEnd {
        name: "restore_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "wall of `restore_rank_latest_parallel` for the surviving rank on a warm device",
    },
    EndToEnd {
        name: "restore_after_loss_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "wall to restore lost rank 0 (plus witness rank 2 on cluster workloads) on a cold replacement device after its copies are wiped",
    },
    EndToEnd {
        name: "stored_bytes_per_user_byte",
        unit: "B/B",
        better: Better::Lower,
        bound: 0.15,
        what: "(sum of PFS stored_len + group-tier used_bytes) / user bytes; an exact count, identical in every rep",
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.12,
        what: "VmHWM of the benchmark process at exit",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "generation + construction + one warm-up rep; median of the run's set-ups",
    },
];

/// A metric of one layer, with the end-to-end metric (and workload) it is
/// expected to move — written down before measuring.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub layer: &'static str,
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

use Better::{Higher, Lower};

const HASH_MOVES: &str = "ckpt_blocked_ms on sparse_tree";
const GPUSIM_MOVES: &str = "ckpt_blocked_ms on dense_tree, peak_rss_mib";
const DEDUP_MOVES: &str =
    "ckpt_blocked_ms/durable_mbps on sparse_tree (hash stages) and dense_tree (gather/d2h/encode); nothing on cluster_full";
const FRAME_MOVES: &str = "durable_mbps, restore_ms on dense_tree, cluster_full";
const RESTART_MOVES: &str = "restore_ms on sparse_tree, dense_tree";
const COMPRESS_MOVES: &str =
    "durable_mbps, stored_bytes_per_user_byte (and, on 2 cores, ckpt_blocked_ms) on cluster_full; nothing on the plain-stack workloads";
const SUBMIT_MOVES: &str = "ckpt_blocked_ms on cluster_full, then cluster_tree";
const DRAIN_MOVES: &str = "durable_mbps on dense_tree, cluster_full";
const RESTORE_MOVES: &str = "restore_ms on cluster_*";
const LOSS_MOVES: &str = "restore_after_loss_ms on cluster_*";
const ZERO: &str = "must be 0";

pub const PER_LAYER: [PerLayer; 52] = [
    pl(
        "hash.murmur3_chunk_gbps",
        "GB/s",
        Higher,
        "ckpt-hash",
        HASH_MOVES,
    ),
    pl(
        "host.memcpy_gbps",
        "GB/s",
        Higher,
        "ckpt-hash",
        "the roofline every stage is stated against",
    ),
    pl(
        "hash.roofline_frac",
        "ratio",
        Higher,
        "ckpt-hash",
        HASH_MOVES,
    ),
    pl(
        "gpusim.map_insert_mops",
        "Mop/s",
        Higher,
        "gpu-sim",
        GPUSIM_MOVES,
    ),
    pl(
        "gpusim.arena_misses_steady",
        "count",
        Lower,
        "gpu-sim",
        ZERO,
    ),
    pl(
        "gpusim.map_rebuilds_steady",
        "count",
        Lower,
        "gpu-sim",
        ZERO,
    ),
    pl(
        "dedup.checkpoint_ms",
        "ms",
        Lower,
        "ckpt-dedup",
        DEDUP_MOVES,
    ),
    pl(
        "dedup.first_checkpoint_ms",
        "ms",
        Lower,
        "ckpt-dedup",
        DEDUP_MOVES,
    ),
    pl(
        "dedup.checkpoint_1t_ms",
        "ms",
        Lower,
        "ckpt-dedup",
        DEDUP_MOVES,
    ),
    pl(
        "dedup.stage.leaf_hash_ms",
        "ms",
        Lower,
        "ckpt-dedup",
        DEDUP_MOVES,
    ),
    pl(
        "dedup.stage.first_ocur_wave_ms",
        "ms",
        Lower,
        "ckpt-dedup",
        DEDUP_MOVES,
    ),
    pl(
        "dedup.stage.shift_dupl_wave_ms",
        "ms",
        Lower,
        "ckpt-dedup",
        DEDUP_MOVES,
    ),
    pl(
        "dedup.stage.metadata_compact_ms",
        "ms",
        Lower,
        "ckpt-dedup",
        DEDUP_MOVES,
    ),
    pl(
        "dedup.stage.gather_serialize_ms",
        "ms",
        Lower,
        "ckpt-dedup",
        DEDUP_MOVES,
    ),
    pl("dedup.stage.d2h_ms", "ms", Lower, "ckpt-dedup", DEDUP_MOVES),
    pl("dedup.encode_ms", "ms", Lower, "ckpt-dedup", DEDUP_MOVES),
    pl("dedup.decode_ms", "ms", Lower, "ckpt-dedup", RESTART_MOVES),
    pl(
        "dedup.diff_bytes_per_ckpt",
        "B",
        Lower,
        "ckpt-dedup",
        DEDUP_MOVES,
    ),
    pl(
        "dedup.metadata_bytes_per_ckpt",
        "B",
        Lower,
        "ckpt-dedup",
        DEDUP_MOVES,
    ),
    pl(
        "dedup.device_state_mib",
        "MiB",
        Lower,
        "ckpt-dedup",
        "peak_rss_mib",
    ),
    pl(
        "frame.encode_gbps",
        "GB/s",
        Higher,
        "ckpt-dedup",
        FRAME_MOVES,
    ),
    pl(
        "frame.verify_gbps",
        "GB/s",
        Higher,
        "ckpt-dedup",
        FRAME_MOVES,
    ),
    pl(
        "restart.single_pass_ms",
        "ms",
        Lower,
        "ckpt-dedup",
        RESTART_MOVES,
    ),
    pl(
        "restart.regions_copied",
        "count",
        Lower,
        "ckpt-dedup",
        RESTART_MOVES,
    ),
    pl(
        "restart.bytes_copied",
        "B",
        Lower,
        "ckpt-dedup",
        RESTART_MOVES,
    ),
    pl(
        "compress.encode_mbps",
        "MB/s",
        Higher,
        "ckpt-compress",
        COMPRESS_MOVES,
    ),
    pl(
        "compress.decode_mbps",
        "MB/s",
        Higher,
        "ckpt-compress",
        "restore_ms on cluster_full",
    ),
    pl(
        "compress.ratio",
        "ratio",
        Lower,
        "ckpt-compress",
        COMPRESS_MOVES,
    ),
    pl(
        "compress.select_ms",
        "ms",
        Lower,
        "ckpt-compress",
        COMPRESS_MOVES,
    ),
    pl(
        "runtime.submit_ms",
        "ms",
        Lower,
        "ckpt-runtime",
        SUBMIT_MOVES,
    ),
    pl(
        "rankdedup.encode_ms",
        "ms",
        Lower,
        "ckpt-runtime",
        SUBMIT_MOVES,
    ),
    pl(
        "rankdedup.claims",
        "count",
        Higher,
        "ckpt-runtime",
        "stored_bytes_per_user_byte on cluster_*",
    ),
    pl(
        "rankdedup.remote_refs",
        "count",
        Higher,
        "ckpt-runtime",
        "stored_bytes_per_user_byte on cluster_*",
    ),
    pl(
        "rankdedup.remote_bytes_saved",
        "B",
        Higher,
        "ckpt-runtime",
        "stored_bytes_per_user_byte on cluster_*",
    ),
    pl(
        "runtime.drain_tail_ms",
        "ms",
        Lower,
        "ckpt-runtime",
        DRAIN_MOVES,
    ),
    pl(
        "redundancy.tail_ms",
        "ms",
        Lower,
        "ckpt-runtime",
        DRAIN_MOVES,
    ),
    pl(
        "redundancy.group_bytes",
        "B",
        Lower,
        "ckpt-runtime",
        "stored_bytes_per_user_byte on cluster_*",
    ),
    pl(
        "tier.pfs_stored_bytes",
        "B",
        Lower,
        "ckpt-runtime",
        "stored_bytes_per_user_byte",
    ),
    pl("tier.put_gbps", "GB/s", Higher, "ckpt-runtime", DRAIN_MOVES),
    pl(
        "tier.get_gbps",
        "GB/s",
        Higher,
        "ckpt-runtime",
        "restore_ms on dense_tree, cluster_full",
    ),
    pl(
        "restore.locate_ms",
        "ms",
        Lower,
        "ckpt-runtime",
        RESTORE_MOVES,
    ),
    pl(
        "rankdedup.resolve_ms",
        "ms",
        Lower,
        "ckpt-runtime",
        RESTORE_MOVES,
    ),
    pl(
        "restore.fetch_wait_ms",
        "ms",
        Lower,
        "ckpt-runtime",
        RESTORE_MOVES,
    ),
    pl(
        "restore.records_read",
        "count",
        Lower,
        "ckpt-runtime",
        RESTORE_MOVES,
    ),
    pl(
        "restore.bytes_read",
        "B",
        Lower,
        "ckpt-runtime",
        RESTORE_MOVES,
    ),
    pl(
        "redundancy.reconstruct_ms",
        "ms",
        Lower,
        "ckpt-runtime",
        LOSS_MOVES,
    ),
    pl("runtime.retries", "count", Lower, "ckpt-runtime", ZERO),
    pl(
        "runtime.degraded_flushes",
        "count",
        Lower,
        "ckpt-runtime",
        ZERO,
    ),
    pl(
        "integrity.frames_corrupt",
        "count",
        Lower,
        "ckpt-runtime",
        ZERO,
    ),
    pl("rankdedup.orphans", "count", Lower, "ckpt-runtime", ZERO),
    pl(
        "blocked.unattributed_pct",
        "%",
        Lower,
        "benchmark",
        "share of ckpt_blocked_ms outside checkpoint + encode + submit; must stay under 5",
    ),
    pl(
        "trace.overhead_pct",
        "%",
        Lower,
        "benchmark",
        "ckpt_blocked_ms of recorded reps over unrecorded ones; must stay under 5",
    ),
];

/// Names of the exact counts: identical in every rep of a run and between
/// two runs of one program on one seed.
pub const EXACT_COUNTS: [&str; 14] = [
    "stored_bytes_per_user_byte",
    "dedup.diff_bytes_per_ckpt",
    "dedup.metadata_bytes_per_ckpt",
    "rankdedup.claims",
    "rankdedup.remote_refs",
    "rankdedup.remote_bytes_saved",
    "redundancy.group_bytes",
    "tier.pfs_stored_bytes",
    "restore.records_read",
    "restore.bytes_read",
    "restart.regions_copied",
    "restart.bytes_copied",
    "runtime.retries",
    "rankdedup.orphans",
];

/// Markdown tables of every metric: what it measures, which layer owns it
/// and which end-to-end metric it is expected to move.
pub fn describe() -> String {
    let mut out = String::from(
        "| end-to-end metric | unit | better | bound | what |\n|---|---|---|---|---|\n",
    );
    for m in END_TO_END {
        out.push_str(&format!(
            "| `{}` | {} | {} | {}% | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.what
        ));
    }
    out.push_str(
        "\n| per-layer metric | unit | better | layer | should move |\n|---|---|---|---|---|\n",
    );
    for m in PER_LAYER {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.layer,
            m.moves
        ));
    }
    out
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"bench/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"bench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n",
            w.name,
            esc(w.why)
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn end_to_end(name: &str) -> Option<EndToEnd> {
        END_TO_END.iter().copied().find(|m| m.name == name)
    }

    fn legal_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        s.len() <= 64
            && s.chars().all(ok)
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = HashSet::new();
        for w in WORKLOADS {
            assert!(legal_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for m in END_TO_END {
            assert!(legal_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(legal_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn exact_counts_are_defined_metrics() {
        for name in EXACT_COUNTS {
            assert!(
                end_to_end(name).is_some() || PER_LAYER.iter().any(|m| m.name == name),
                "{name}"
            );
        }
    }
}
