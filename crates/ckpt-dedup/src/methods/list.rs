//! The **List** baseline: the paper's method without metadata compaction.
//!
//! "We implemented a List method that is identical to our method except for
//! the metadata compaction, which is omitted. Instead, a full list of all
//! first-time occurrences and shifted duplicates is stored along the new
//! chunks" (§3.2). It shares the leaf pass — and therefore the full
//! spatiotemporal de-duplication power — with the Tree method, but emits one
//! metadata entry per non-fixed chunk, which is what the Tree method's
//! hierarchical consolidation compacts away.

use crate::chunking::Chunking;
use crate::diff::MethodKind;
use crate::labels::{Label, LabelArray};
use crate::methods::tree::{resolve_shift_refs, serialize_diff, TreeConfig};
use crate::methods::{leaf_pass, CheckpointOutput, Checkpointer, Timer};
use crate::stats::CheckpointStats;
use crate::tree::{MerkleTree, TreeShape};
use ckpt_hash::{Hasher128, Murmur3};
use gpu_sim::{Device, DistinctMap};

/// The List method's persistent state across a checkpoint record.
pub struct ListCheckpointer {
    device: Device,
    hasher: Box<dyn Hasher128>,
    config: TreeConfig,
    state: Option<State>,
    ckpt_id: u32,
    buffer_reuse: bool,
    /// Rebase mode for the current checkpoint: no fixed-duplicate shortcut.
    force_all: bool,
}

struct State {
    chunking: Chunking,
    /// Only the leaf slots are used; sharing [`MerkleTree`] keeps node ids
    /// compatible with the common diff format and restore path.
    tree: MerkleTree,
    labels: LabelArray,
    map: DistinctMap,
}

impl ListCheckpointer {
    pub fn new(device: Device, config: TreeConfig) -> Self {
        ListCheckpointer {
            device,
            hasher: Box::new(Murmur3),
            config,
            state: None,
            ckpt_id: 0,
            buffer_reuse: true,
            force_all: false,
        }
    }

    pub fn record_len(&self) -> usize {
        self.state.as_ref().map_or(0, |s| s.map.len())
    }
}

impl Checkpointer for ListCheckpointer {
    fn kind(&self) -> MethodKind {
        MethodKind::List
    }

    fn checkpoint(&mut self, data: &[u8]) -> CheckpointOutput {
        let device = self.device.clone();
        let ckpt_id = self.ckpt_id;
        let timer = Timer::start(&device);
        if !self.buffer_reuse {
            device.arena().trim();
        }
        if self.state.is_none() {
            let chunking = Chunking::new(data.len(), self.config.chunk_size);
            let shape = TreeShape::new(chunking.n_chunks());
            // The List record only ever holds leaf digests, so its natural
            // capacity is per-chunk rather than per-node.
            let map_cap = self.config.map_capacity.unwrap_or(4 * shape.n_chunks());
            self.state = Some(State {
                chunking,
                tree: MerkleTree::new(chunking.n_chunks()),
                labels: LabelArray::new(shape.n_nodes()),
                map: DistinctMap::with_capacity(map_cap),
            });
        }
        let hasher = &*self.hasher;
        let fused = self.config.fused;
        let force_all = self.force_all;
        let state = self.state.as_mut().unwrap();
        assert_eq!(
            data.len(),
            state.chunking.data_len(),
            "checkpoint size changed mid-record"
        );
        let shape = *state.tree.shape();
        let chunking = state.chunking;
        state.labels.clear();

        let mut recorder = super::StageRecorder::start(&device);
        let run = |state: &mut State, rec: &mut super::StageRecorder<'_>| {
            leaf_pass::run(
                &device,
                &shape,
                &chunking,
                hasher,
                data,
                state.tree.digests_mut(),
                &state.labels,
                &state.map,
                ckpt_id,
                None,
                force_all,
            );
            rec.mark("leaf_hash");
            // No consolidation: every non-fixed leaf is its own region. The
            // per-leaf lists are built with device stream compactions over
            // the settled labels (chunk order), mapped to leaf ids and
            // sorted — the same output the sequential per-chunk loop
            // produced, without serializing on the region-list build.
            let labels = &state.labels;
            let n_chunks = chunking.n_chunks();
            let mut first: Vec<u32> = device
                .compact_where("list_first_chunks", n_chunks, |c| {
                    labels.get(shape.leaf_of_chunk(c)) == Label::FirstOcur
                })
                .into_iter()
                .map(|c| shape.leaf_of_chunk(c as usize) as u32)
                .collect();
            let mut shift_nodes: Vec<u32> = device
                .compact_where("list_shift_chunks", n_chunks, |c| {
                    labels.get(shape.leaf_of_chunk(c)) == Label::ShiftDupl
                })
                .into_iter()
                .map(|c| shape.leaf_of_chunk(c as usize) as u32)
                .collect();
            first.sort_unstable();
            shift_nodes.sort_unstable();
            let shift = resolve_shift_refs(
                state.tree.digests(),
                &state.map,
                ckpt_id,
                &shift_nodes,
                &mut first,
            );
            // The per-leaf list build plays the role the Tree method's
            // compaction waves play: producing the region tables.
            rec.mark("metadata_compact");
            serialize_diff(
                &device,
                &shape,
                &chunking,
                data,
                ckpt_id,
                MethodKind::List,
                first,
                shift,
                None,
                None,
                Some(rec),
            )
        };

        let diff = if fused {
            device.fused("list_dedup_checkpoint", || run(state, &mut recorder))
        } else {
            run(state, &mut recorder)
        };

        let breakdown = recorder.finish(MethodKind::List, ckpt_id);
        let (measured_sec, modeled_sec) = timer.stop(&device);
        let (_, fixed, _) = leaf_pass::leaf_label_counts(&shape, &state.labels);
        let stats = CheckpointStats {
            method: MethodKind::List,
            ckpt_id,
            uncompressed_bytes: data.len() as u64,
            stored_bytes: diff.stored_bytes() as u64,
            metadata_bytes: diff.metadata_bytes() as u64,
            payload_bytes: diff.payload.len() as u64,
            n_first: diff.first_regions.len() as u64,
            n_shift: diff.shift_regions.len() as u64,
            n_fixed_chunks: fixed,
            measured_sec,
            modeled_sec,
        };
        self.ckpt_id += 1;
        CheckpointOutput {
            diff,
            stats,
            breakdown,
        }
    }

    /// Rebase: reset the historical record and disable the fixed-duplicate
    /// shortcut for one checkpoint, so every reference lands inside it (see
    /// [`crate::TreeCheckpointer::rebase_checkpoint`]).
    fn rebase_checkpoint(&mut self, data: &[u8]) -> CheckpointOutput {
        if let Some(state) = self.state.as_mut() {
            let occupancy = state.map.len();
            state.map.reset_with_hint(occupancy);
        }
        self.force_all = true;
        let out = self.checkpoint(data);
        self.force_all = false;
        out
    }

    fn device_state_bytes(&self) -> usize {
        self.state.as_ref().map_or(0, |s| {
            // Only leaf digests are live for List.
            s.chunking.n_chunks() * 16 + s.labels.len() + s.map.memory_bytes()
        })
    }

    fn reset_record(&mut self) {
        self.ckpt_id = 0;
        if let Some(state) = self.state.as_mut() {
            state.labels.clear();
            let occupancy = state.map.len();
            state.map.reset_with_hint(occupancy);
        }
    }

    fn set_buffer_reuse(&mut self, on: bool) {
        self.buffer_reuse = on;
    }

    fn memory_stats(&self) -> super::MemoryStats {
        let a = self.device.arena().stats();
        let (bumps, rebuilds) = self.state.as_ref().map_or((0, 0), |s| {
            (s.map.generation_bumps(), s.map.rehash_rebuilds())
        });
        super::MemoryStats {
            device_bytes_leased: a.bytes_leased,
            device_bytes_allocated: a.bytes_allocated,
            arena_hits: a.hits,
            arena_misses: a.misses,
            map_generation_bumps: bumps,
            map_rehash_rebuilds: rebuilds,
        }
    }
}
