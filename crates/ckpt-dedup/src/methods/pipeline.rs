//! The one de-duplication pipeline behind Tree, List and the A3 ablation.
//!
//! "We implemented a List method that is identical to our method except for
//! the metadata compaction, which is omitted" (§3.2) — and the ablation of
//! §2.2's two-stage ordering differs from Tree in the same single place. So
//! there is one checkpointer body, [`DedupCheckpointer`], and what a method
//! contributes is a [`RegionStep`]: how the classified leaves become region
//! lists. Per checkpoint, inside one fused device kernel:
//!
//! 1. **Leaf pass** (Algorithm 1, lines 1–23): hash + classify every chunk
//!    ([`super::leaf_pass`]).
//! 2. **Region building** — the method's step.
//! 3. **Reference resolution**: each shifted-duplicate region looks up the
//!    historical occurrence it points at.
//! 4. **Serialization**: region tables plus a team-cooperative gather of
//!    first-occurrence bytes into one contiguous device buffer, then a single
//!    device-to-host transfer (§2.1, §2.4).
//!
//! The step is a type parameter: it is chosen at construction and runs once
//! per checkpoint, never inside a kernel body.

use crate::bytes::Bytes;
use crate::chunking::Chunking;
use crate::diff::{Diff, MethodKind, ShiftRegion};
use crate::labels::LabelArray;
use crate::methods::tree::TreeConfig;
use crate::methods::{
    leaf_pass, CheckpointOutput, Checkpointer, MemoryStats, StageRecorder, Timer,
};
use crate::stats::CheckpointStats;
use crate::tree::{MerkleTree, TreeShape};
use ckpt_hash::{Digest128, Hasher128, Murmur3};
use gpu_sim::{ContentCache, Device, DistinctMap, TILE};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

/// Everything the passes of one checkpoint share. Built once per
/// `checkpoint()` by the body and handed to each pass in turn.
pub struct Pass<'a> {
    pub(crate) device: &'a Device,
    pub(crate) shape: TreeShape,
    pub(crate) chunking: Chunking,
    pub(crate) hasher: &'a dyn Hasher128,
    pub(crate) data: &'a [u8],
    /// Per-node digest array; leaf slots hold the previous checkpoint's
    /// digests on entry to the leaf pass and the current ones after it.
    pub(crate) digests: &'a mut [Digest128],
    pub(crate) labels: &'a LabelArray,
    /// One bit per tree node, clear on entry: the leaf pass sets the bit of
    /// every leaf that is not a fixed duplicate, a step may mark interior
    /// nodes after it.
    pub(crate) dirty: &'a [AtomicU64],
    /// The historical record of unique hashes.
    pub(crate) map: &'a DistinctMap,
    /// Chunk-content cache of §2.4's collision mitigation, when enabled.
    pub(crate) cache: Option<&'a ContentCache>,
    pub(crate) ckpt_id: u32,
    /// Rebase mode: no fixed-duplicate shortcut, so every chunk re-enters
    /// the (freshly reset) historical record and every emitted reference
    /// lands inside this checkpoint.
    pub(crate) force_all: bool,
    pub(crate) stages: StageRecorder<'a>,
}

/// Region lists a [`RegionStep`] emits, as sorted node ids, before the
/// shifted ones are resolved and the payload gathered.
#[derive(Debug, Default)]
pub struct EmittedRegions {
    pub(crate) first: Vec<u32>,
    pub(crate) shift_nodes: Vec<u32>,
}

/// What distinguishes one pipeline method from another: the step between
/// the leaf pass and reference resolution, and the facts that go with it.
pub trait RegionStep: Send + 'static {
    /// The kind stamped on every diff.
    const KIND: MethodKind;
    /// Name in reports.
    const NAME: &'static str;

    /// Digests of one checkpoint that can enter the historical record and
    /// stay live on the device: every tree node for a method that
    /// consolidates, the leaves alone for one that does not. The record is
    /// sized to four checkpoints' worth of fully-new data, after which it
    /// degrades gracefully (chunks are stored, not referenced).
    fn live_digests(shape: &TreeShape) -> usize;

    /// Turn the leaf classification into region lists. May mark its own
    /// stages on `pass.stages`; the body marks `metadata_compact` once the
    /// returned lists are resolved.
    fn build_regions(pass: &mut Pass<'_>) -> EmittedRegions;
}

/// A pipeline method's persistent state across a checkpoint record.
pub struct DedupCheckpointer<S: RegionStep> {
    device: Device,
    hasher: Box<dyn Hasher128>,
    config: TreeConfig,
    state: Option<State>,
    ckpt_id: u32,
    /// Rebase mode for the current checkpoint (see [`Pass::force_all`]).
    force_all: bool,
    step: PhantomData<S>,
}

struct State {
    chunking: Chunking,
    /// A method that does not consolidate uses the leaf slots only; sharing
    /// [`MerkleTree`] keeps node ids compatible with the common diff format
    /// and restore path.
    tree: MerkleTree,
    labels: LabelArray,
    map: DistinctMap,
    cache: Option<ContentCache>,
}

fn new_cache(chunking: &Chunking) -> ContentCache {
    ContentCache::new(2 * chunking.n_chunks(), chunking.chunk_size())
}

impl<S: RegionStep> DedupCheckpointer<S> {
    pub fn new(device: Device, config: TreeConfig) -> Self {
        Self::with_hasher(device, config, Box::new(Murmur3))
    }

    /// Use a custom hash function (the A1 ablation swaps in MD5).
    pub fn with_hasher(device: Device, config: TreeConfig, hasher: Box<dyn Hasher128>) -> Self {
        DedupCheckpointer {
            device,
            hasher,
            config,
            state: None,
            ckpt_id: 0,
            force_all: false,
            step: PhantomData,
        }
    }

    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Unique digests in the historical record.
    pub fn record_len(&self) -> usize {
        self.state.as_ref().map_or(0, |s| s.map.len())
    }
}

/// Resolve each emitted shifted-duplicate node to its historical reference.
fn resolve_shift_refs(
    pass: &Pass<'_>,
    shift_nodes: &[u32],
    first: &mut Vec<u32>,
) -> Vec<ShiftRegion> {
    use rayon::prelude::*;
    let (digests, map, ckpt_id) = (&*pass.digests, pass.map, pass.ckpt_id);
    // The map probes are the expensive part; do them in parallel into
    // position-indexed results, then partition sequentially so both output
    // lists keep the order the sequential reference produces. The first
    // node of each tile prefetches the slots of the tile's lookups.
    let resolved: Vec<Result<ShiftRegion, u32>> = shift_nodes
        .par_iter()
        .enumerate()
        .map(|(i, &node)| {
            if i % TILE == 0 {
                for &n in &shift_nodes[i..(i + TILE).min(shift_nodes.len())] {
                    map.prefetch(&digests[n as usize]);
                }
            }
            match map.get(&digests[node as usize]) {
                Some(e) if !(e.node == node && e.ckpt == ckpt_id) => Ok(ShiftRegion {
                    node,
                    ref_node: e.node,
                    ref_ckpt: e.ckpt,
                }),
                // Defensive: a self-reference or vanished entry would make
                // the diff unrestorable — store the data instead.
                // Unreachable under the algorithm's invariants, cheap to
                // keep as a safety net.
                _ => Err(node),
            }
        })
        .collect();
    let mut out = Vec::with_capacity(shift_nodes.len());
    for r in resolved {
        match r {
            Ok(region) => out.push(region),
            Err(node) => first.push(node),
        }
    }
    first.sort_unstable();
    out
}

/// Gather the payload for the first-occurrence regions and build the diff.
fn serialize_diff(
    pass: &mut Pass<'_>,
    kind: MethodKind,
    first: Vec<u32>,
    shift: Vec<ShiftRegion>,
) -> Diff {
    let Pass {
        device,
        shape,
        chunking,
        data,
        ckpt_id,
        ..
    } = *pass;
    // Scratch comes from the device arena with worst-case floors (regions
    // are disjoint chunk ranges, so there are at most `n_chunks` segments
    // covering at most the whole snapshot): after the warm-up checkpoint
    // every lease is a pool hit regardless of how the diff size fluctuates.
    let arena = device.arena();
    let mut segments = arena.lease_with_floor::<(usize, usize)>(
        "dedup/segments",
        first.len(),
        chunking.n_chunks(),
    );
    for (seg, &node) in segments.as_mut_slice().iter_mut().zip(first.iter()) {
        let (clo, chi) = shape.chunk_range(node as usize);
        let (a, b) = chunking.byte_range_of_chunks(clo, chi);
        *seg = (a, b - a);
    }
    let payload_len: usize = segments.iter().map(|s| s.1).sum();

    // Consolidate scattered regions into one contiguous device buffer with
    // team-cooperative copies, then one device-to-host transfer (§2.1). The
    // staging buffer is an arena lease floored at the full snapshot size;
    // the gather overwrites exactly the prefix the transfer reads, so stale
    // pool contents are never observable.
    let mut staging = arena.lease_with_floor::<u8>("dedup/staging", payload_len, data.len());
    device.team_gather("serialize_payload", data, &segments, staging.as_mut_slice());

    pass.stages.mark("gather_serialize");
    let payload = staging[..payload_len].to_vec();
    device.account_d2h_bytes(payload.len() as u64);
    // The metadata tables ride along in the same consolidated transfer.
    device.account_d2h_bytes((first.len() * 4 + shift.len() * 12) as u64);
    pass.stages.mark("d2h");

    Diff {
        kind,
        ckpt_id,
        data_len: chunking.data_len() as u64,
        chunk_size: chunking.chunk_size() as u32,
        first_regions: first,
        shift_regions: shift,
        bitmap: Bytes::default(),
        payload: payload.into(),
    }
}

impl<S: RegionStep> Checkpointer for DedupCheckpointer<S> {
    fn kind(&self) -> MethodKind {
        S::KIND
    }

    fn name(&self) -> &'static str {
        S::NAME
    }

    fn checkpoint(&mut self, data: &[u8]) -> CheckpointOutput {
        let device = self.device.clone();
        let ckpt_id = self.ckpt_id;
        let timer = Timer::start(&device);
        let config = &self.config;
        let state = self.state.get_or_insert_with(|| {
            let chunking = Chunking::new(data.len(), config.chunk_size);
            let tree = MerkleTree::new(chunking.n_chunks());
            State {
                chunking,
                labels: LabelArray::new(tree.shape().n_nodes()),
                map: DistinctMap::with_capacity(4 * S::live_digests(tree.shape())),
                cache: config.verify_collisions.then(|| new_cache(&chunking)),
                tree,
            }
        });
        assert_eq!(
            data.len(),
            state.chunking.data_len(),
            "checkpoint size changed mid-record"
        );
        let shape = *state.tree.shape();
        state.labels.clear();
        // Arena contents are whatever the last lease left: cleared here, as
        // a fresh allocation would be.
        let mut dirty = device
            .arena()
            .lease::<AtomicU64>("dedup/dirty_nodes", shape.n_nodes().div_ceil(64));
        for word in dirty.iter_mut() {
            *word.get_mut() = 0;
        }
        let mut pass = Pass {
            device: &device,
            shape,
            chunking: state.chunking,
            hasher: &*self.hasher,
            data,
            digests: state.tree.digests_mut(),
            labels: &state.labels,
            dirty: &dirty,
            map: &state.map,
            cache: state.cache.as_ref(),
            ckpt_id,
            force_all: self.force_all,
            stages: StageRecorder::start(&device),
        };

        // One fused kernel (§2.1).
        let (diff, changed) = device.fused("dedup_checkpoint", || {
            leaf_pass::run(&mut pass);
            // Only leaves are marked yet: one bit per chunk that is not a
            // fixed duplicate.
            let changed: u64 = pass
                .dirty
                .iter()
                .map(|word| u64::from(word.load(Ordering::Relaxed).count_ones()))
                .sum();
            pass.stages.mark("leaf_hash");
            let mut regions = S::build_regions(&mut pass);
            let shift = resolve_shift_refs(&pass, &regions.shift_nodes, &mut regions.first);
            pass.stages.mark("metadata_compact");
            let diff = serialize_diff(&mut pass, S::KIND, regions.first, shift);
            (diff, changed)
        });

        let breakdown = pass.stages.finish(S::KIND, ckpt_id);
        let elapsed = timer.stop(&device);
        let fixed = shape.n_chunks() as u64 - changed;
        let (n_first, n_shift) = (diff.first_regions.len(), diff.shift_regions.len());
        let stats = CheckpointStats::of(&diff, n_first as u64, n_shift as u64, fixed, elapsed);
        self.ckpt_id += 1;
        CheckpointOutput {
            diff,
            stats,
            breakdown,
        }
    }

    /// Rebase: reset the historical record (O(1) generation bump) and take
    /// one checkpoint with the fixed-duplicate shortcut disabled, so every
    /// chunk re-registers and every emitted reference points inside this
    /// checkpoint. The record afterwards holds exactly this checkpoint's
    /// digests, so subsequent incremental checkpoints de-duplicate against
    /// the rebase content — checkpoint ids stay consecutive.
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
            S::live_digests(s.tree.shape()) * std::mem::size_of::<Digest128>()
                + s.labels.len()
                + s.map.memory_bytes()
        })
    }

    /// Start a new record with warm device state. Checkpoint ids restart at
    /// 0 and the historical record resets via an O(1) generation bump,
    /// pre-sized from the outgoing record's occupancy. Stale Merkle digests
    /// are safe to keep: every digest read in a checkpoint was written
    /// earlier in the *same* checkpoint (leaves are always rewritten at
    /// `ckpt_id == 0` since the fixed-duplicate shortcut requires
    /// `ckpt_id > 0`, and interior digests are only read after the wave that
    /// wrote them), so no pass can observe a previous record's tree.
    fn reset_record(&mut self) {
        self.ckpt_id = 0;
        if let Some(state) = self.state.as_mut() {
            state.labels.clear();
            let occupancy = state.map.len();
            state.map.reset_with_hint(occupancy);
            if let Some(cache) = state.cache.as_mut() {
                *cache = new_cache(&state.chunking);
            }
        }
    }

    fn memory_stats(&self) -> MemoryStats {
        MemoryStats::of(&self.device, self.state.as_ref().map(|s| &s.map))
    }
}
