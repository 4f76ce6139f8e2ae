//! Sequential reference implementation of the Tree method.
//!
//! Same algorithm as [`ckpt_dedup::TreeCheckpointer`], executed on one
//! thread with a plain `HashMap` as the historical record. It exists as a
//! correctness oracle: the parallel implementation is engineered to produce
//! *bit-identical diffs* (canonical occurrences resolve to the earliest data
//! position in both), which the cross-implementation tests assert.

use ckpt_dedup::{
    Bytes, CheckpointOutput, CheckpointStats, Checkpointer, Chunking, Diff, Label, MethodKind,
    ShiftRegion, StageBreakdown, StageSample, TreeShape,
};
use ckpt_hash::{Digest128, Hasher128, Murmur3};
use gpu_sim::MapEntry;
use std::collections::HashMap;

/// Sequential Tree-method checkpointer.
pub struct SerialTreeCheckpointer {
    hasher: Box<dyn Hasher128>,
    chunk_size: usize,
    state: Option<State>,
    ckpt_id: u32,
    /// Rebase mode for the current checkpoint: no fixed-duplicate shortcut.
    force_all: bool,
}

struct State {
    chunking: Chunking,
    shape: TreeShape,
    digests: Vec<Digest128>,
    labels: Vec<Label>,
    map: HashMap<Digest128, MapEntry>,
}

impl SerialTreeCheckpointer {
    pub fn new(chunk_size: usize) -> Self {
        SerialTreeCheckpointer {
            hasher: Box::new(Murmur3),
            chunk_size,
            state: None,
            ckpt_id: 0,
            force_all: false,
        }
    }

    /// Unique digests in the historical record.
    pub fn record_len(&self) -> usize {
        self.state.as_ref().map_or(0, |s| s.map.len())
    }
}

impl Checkpointer for SerialTreeCheckpointer {
    fn kind(&self) -> MethodKind {
        MethodKind::Tree
    }

    fn name(&self) -> &'static str {
        "Tree(serial)"
    }

    fn checkpoint(&mut self, data: &[u8]) -> CheckpointOutput {
        let start = std::time::Instant::now();
        let ckpt_id = self.ckpt_id;
        let force_all = self.force_all;
        if self.state.is_none() {
            let chunking = Chunking::new(data.len(), self.chunk_size);
            let shape = TreeShape::new(chunking.n_chunks());
            self.state = Some(State {
                chunking,
                shape,
                digests: vec![Digest128::ZERO; shape.n_nodes()],
                labels: vec![Label::None; shape.n_nodes()],
                map: HashMap::new(),
            });
        }
        let s = self.state.as_mut().unwrap();
        assert_eq!(
            data.len(),
            s.chunking.data_len(),
            "checkpoint size changed mid-record"
        );
        s.labels.fill(Label::None);
        let hasher = &*self.hasher;

        // Leaf pass, in chunk (data) order: the first occurrence of a digest
        // within this checkpoint is automatically the earliest chunk.
        for c in 0..s.chunking.n_chunks() {
            let leaf = s.shape.leaf_of_chunk(c);
            let digest = hasher.hash(s.chunking.chunk(data, c));
            if !force_all && ckpt_id > 0 && digest == s.digests[leaf] {
                s.labels[leaf] = Label::FixedDupl;
                continue;
            }
            s.digests[leaf] = digest;
            match s.map.entry(digest) {
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(MapEntry::new(leaf as u32, ckpt_id));
                    s.labels[leaf] = Label::FirstOcur;
                }
                std::collections::hash_map::Entry::Occupied(_) => {
                    s.labels[leaf] = Label::ShiftDupl;
                }
            }
        }

        // First-occurrence consolidation, level by level bottom-up, nodes in
        // ascending order within a level (leftmost twin wins the insert).
        for (lo, hi) in s.shape.interior_levels_bottom_up() {
            for node in lo..hi {
                let (cl, cr) = (s.shape.left(node), s.shape.right(node));
                if s.labels[cl] == Label::FirstOcur && s.labels[cr] == Label::FirstOcur {
                    let combined = hasher.combine(&s.digests[cl], &s.digests[cr]);
                    s.digests[node] = combined;
                    match s.map.entry(combined) {
                        std::collections::hash_map::Entry::Vacant(v) => {
                            v.insert(MapEntry::new(node as u32, ckpt_id));
                            s.labels[node] = Label::FirstOcur;
                        }
                        std::collections::hash_map::Entry::Occupied(_) => {
                            s.labels[node] = Label::ShiftDupl;
                        }
                    }
                }
            }
        }

        // Shifted-duplicate consolidation and region collection.
        let mut first: Vec<u32> = Vec::new();
        let mut shift_nodes: Vec<u32> = Vec::new();
        {
            let mut emit = |labels: &[Label], node: usize| match labels[node] {
                Label::FirstOcur => first.push(node as u32),
                Label::ShiftDupl => shift_nodes.push(node as u32),
                Label::FixedDupl | Label::Mixed => {}
                Label::None => unreachable!("unlabeled child"),
            };
            for (lo, hi) in s.shape.interior_levels_bottom_up() {
                // Sub-pass 1: combine shifted pairs and publish the new
                // patterns into the historical record (§2.2: consolidated
                // regions are added to the record even on first occurrence).
                for node in lo..hi {
                    if s.labels[node] != Label::None {
                        continue;
                    }
                    let (cl, cr) = (s.shape.left(node), s.shape.right(node));
                    if s.labels[cl] == Label::ShiftDupl && s.labels[cr] == Label::ShiftDupl {
                        let combined = hasher.combine(&s.digests[cl], &s.digests[cr]);
                        s.digests[node] = combined;
                        s.map
                            .entry(combined)
                            .or_insert(MapEntry::new(node as u32, ckpt_id));
                    }
                }
                // Sub-pass 2: decide labels and emit.
                for node in lo..hi {
                    if s.labels[node] != Label::None {
                        continue;
                    }
                    let (cl, cr) = (s.shape.left(node), s.shape.right(node));
                    match (s.labels[cl], s.labels[cr]) {
                        (Label::FixedDupl, Label::FixedDupl) => s.labels[node] = Label::FixedDupl,
                        (Label::ShiftDupl, Label::ShiftDupl) => {
                            let e = s.map[&s.digests[node]];
                            if e.node == node as u32 && e.ckpt == ckpt_id {
                                // We are the canonical first occurrence.
                                s.labels[node] = Label::Mixed;
                                emit(&s.labels, cl);
                                emit(&s.labels, cr);
                            } else {
                                s.labels[node] = Label::ShiftDupl;
                            }
                        }
                        _ => {
                            s.labels[node] = Label::Mixed;
                            emit(&s.labels, cl);
                            emit(&s.labels, cr);
                        }
                    }
                }
            }
            emit(&s.labels, 0);
        }
        first.sort_unstable();
        shift_nodes.sort_unstable();

        // Resolve shifted-duplicate references.
        let mut shift = Vec::with_capacity(shift_nodes.len());
        for &node in &shift_nodes {
            let e = s.map[&s.digests[node as usize]];
            if e.node == node && e.ckpt == ckpt_id {
                first.push(node);
            } else {
                shift.push(ShiftRegion {
                    node,
                    ref_node: e.node,
                    ref_ckpt: e.ckpt,
                });
            }
        }
        first.sort_unstable();

        // Serialize.
        let mut payload = Vec::new();
        for &node in &first {
            let (clo, chi) = s.shape.chunk_range(node as usize);
            let (a, b) = s.chunking.byte_range_of_chunks(clo, chi);
            payload.extend_from_slice(&data[a..b]);
        }
        let n_fixed = (0..s.chunking.n_chunks())
            .filter(|&c| s.labels[s.shape.leaf_of_chunk(c)] == Label::FixedDupl)
            .count() as u64;

        let diff = Diff {
            kind: MethodKind::Tree,
            ckpt_id,
            data_len: s.chunking.data_len() as u64,
            chunk_size: s.chunking.chunk_size() as u32,
            first_regions: first,
            shift_regions: shift,
            bitmap: Bytes::default(),
            payload: payload.into(),
        };
        let measured_sec = start.elapsed().as_secs_f64();
        let stats = CheckpointStats {
            method: MethodKind::Tree,
            ckpt_id,
            uncompressed_bytes: data.len() as u64,
            stored_bytes: diff.stored_bytes() as u64,
            metadata_bytes: diff.metadata_bytes() as u64,
            payload_bytes: diff.payload.len() as u64,
            n_first: diff.first_regions.len() as u64,
            n_shift: diff.shift_regions.len() as u64,
            n_fixed_chunks: n_fixed,
            measured_sec,
            modeled_sec: measured_sec,
        };
        self.ckpt_id += 1;
        // Not stage-instrumented: one `total` stage mirroring the stats.
        let breakdown = StageBreakdown {
            method: MethodKind::Tree.name().to_string(),
            ckpt_id,
            stages: vec![StageSample {
                name: "total",
                measured_sec,
                modeled_sec: measured_sec,
            }],
            total_measured_sec: measured_sec,
            total_modeled_sec: measured_sec,
        };
        CheckpointOutput {
            diff,
            stats,
            breakdown,
        }
    }

    /// Rebase as the pipeline methods do: forget the historical record and
    /// take one checkpoint without the fixed-duplicate shortcut.
    fn rebase_checkpoint(&mut self, data: &[u8]) -> CheckpointOutput {
        if let Some(s) = self.state.as_mut() {
            s.map.clear();
        }
        self.force_all = true;
        let out = self.checkpoint(data);
        self.force_all = false;
        out
    }
}
