//! The paper's contribution: Merkle-tree de-duplication with compact
//! metadata (the **Tree** method, Algorithm 1).
//!
//! Tree is the shared pipeline (`pipeline.rs`) with this
//! region-building step between the leaf pass and reference resolution:
//!
//! 1. **First-occurrence consolidation** (lines 24–32): level-by-level
//!    bottom-up, consolidate adjacent first-occurrence subtrees, inserting
//!    each consolidated region's digest into the historical record.
//! 2. **Shifted-duplicate consolidation and region collection** (lines
//!    33–46): level-by-level bottom-up over the remaining nodes, consolidate
//!    adjacent shifted duplicates when their combined digest is already
//!    recorded, propagate fixed duplicates, and emit the roots of maximal
//!    uniform regions.
//!
//! The two are strictly ordered ("we process the sub-trees corresponding to
//! the first-time occurrences, then ... the shifted duplicates") so a
//! shifted-duplicate lookup never races with the first-occurrence insert it
//! should match — the missed-dedup hazard §2.2 calls out. The ablation
//! benchmark `waves` ([`super::tree_naive`]) quantifies what a fused
//! single-stage pass would lose.

use crate::diff::MethodKind;
use crate::labels::Label;
use crate::methods::pipeline::{DedupCheckpointer, EmittedRegions, Pass, RegionStep};
use crate::tree::TreeShape;
use crate::util::SharedSliceMut;
use gpu_sim::{Device, InsertResult, KernelCost, MapEntry};
use std::sync::atomic::{AtomicU8, Ordering as AtomicOrdering};

/// Configuration of the pipeline methods: [`TreeCheckpointer`],
/// [`super::list::ListCheckpointer`] and the A3 ablation. Basic and Full read
/// only `chunk_size`.
#[derive(Debug, Clone, Copy)]
pub struct TreeConfig {
    /// De-duplication granularity in bytes (32–512 in the paper's sweeps).
    pub chunk_size: usize,
    /// §2.4's hash-collision mitigation: keep a device-resident cache of
    /// first-occurrence chunk contents and verify candidate duplicates
    /// against it; detected collisions are stored instead of referenced.
    pub verify_collisions: bool,
}

impl TreeConfig {
    pub fn new(chunk_size: usize) -> Self {
        TreeConfig {
            chunk_size,
            verify_collisions: false,
        }
    }

    /// Enable §2.4's collision verification via a chunk-content cache.
    pub fn with_collision_verification(mut self) -> Self {
        self.verify_collisions = true;
        self
    }
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self::new(128)
    }
}

/// The Tree method: two-stage consolidation waves over the Merkle tree.
pub struct TreeStep;

/// The Tree method's persistent state across a checkpoint record.
pub type TreeCheckpointer = DedupCheckpointer<TreeStep>;

impl RegionStep for TreeStep {
    const KIND: MethodKind = MethodKind::Tree;
    const NAME: &'static str = "Tree";

    fn live_digests(shape: &TreeShape) -> usize {
        shape.n_nodes()
    }

    fn build_regions(pass: &mut Pass<'_>) -> EmittedRegions {
        first_ocur_pass(pass);
        pass.stages.mark("first_ocur_wave");
        let emit_flags = collect_pass(pass);
        pass.stages.mark("shift_dupl_wave");
        // Compaction stays outside the waves so the stage clock attributes
        // them and the metadata compaction separately.
        compact_emissions(pass.device, &emit_flags)
    }
}

/// Consolidate first-occurrence subtrees bottom-up (lines 24–32).
fn first_ocur_pass(pass: &mut Pass<'_>) {
    let Pass {
        device,
        shape,
        hasher,
        labels,
        map,
        ckpt_id,
        ..
    } = *pass;
    let tree = SharedSliceMut::new(pass.digests);
    for (lo, hi) in shape.interior_levels_bottom_up() {
        let width = hi - lo;
        let cost = KernelCost::stream((width * 2 * 16) as u64).with_writes((width * 16) as u64);
        let state = || (map.batch(), [0u8; 32]);
        device.parallel_for_init("consolidate_first_ocur", width, cost, state, |state, k| {
            let (batch, scratch) = state;
            let node = lo + k;
            let (cl, cr) = (shape.left(node), shape.right(node));
            if labels.get(cl) == Label::FirstOcur && labels.get(cr) == Label::FirstOcur {
                // SAFETY: children were finalized by the previous level's
                // kernel (fork-join barrier); `node` is owned by this thread.
                let (dl, dr) = unsafe { (tree.read(cl), tree.read(cr)) };
                let combined = hasher.combine_with(&dl, &dr, scratch);
                unsafe { tree.write(node, combined) };
                let me = MapEntry::new(node as u32, ckpt_id);
                match batch.insert(&combined, me) {
                    InsertResult::Inserted => {
                        labels.set(node, Label::FirstOcur);
                        // See the leaf pass: demote ourselves if an earlier
                        // twin displaced us concurrently.
                        if map.get(&combined).is_some_and(|e| e != me) {
                            labels.set(node, Label::ShiftDupl);
                        }
                    }
                    // A twin subtree elsewhere already registered this
                    // digest: this whole region is a shifted duplicate. Keep
                    // the record pointing at the leftmost twin (nodes within
                    // a level are in data order) so the outcome matches the
                    // sequential reference. Displacement is restricted to
                    // twins on the *same level* — a twin on a deeper level
                    // was finalized by an earlier kernel and its parent may
                    // be consuming its label concurrently with ours, so
                    // relabeling it here would race.
                    InsertResult::Exists(e)
                        if e.ckpt == ckpt_id
                            && (node as u32) < e.node
                            && shape.depth(node) == shape.depth(e.node as usize) =>
                    {
                        let (before, after) = map
                            .update_with(&combined, |cur| {
                                (cur.ckpt == ckpt_id && (node as u32) < cur.node).then_some(me)
                            })
                            .expect("digest just observed must be present");
                        if after == me {
                            labels.set(node, Label::FirstOcur);
                            if before.ckpt == ckpt_id && before.node != node as u32 {
                                labels.set(before.node as usize, Label::ShiftDupl);
                            }
                            if map.get(&combined).is_some_and(|e2| e2 != me) {
                                labels.set(node, Label::ShiftDupl);
                            }
                        } else {
                            labels.set(node, Label::ShiftDupl);
                        }
                    }
                    InsertResult::Exists(_) => labels.set(node, Label::ShiftDupl),
                    InsertResult::OutOfCapacity => labels.set(node, Label::FirstOcur),
                }
            }
        });
    }
}

/// Consolidate shifted duplicates, propagate fixed duplicates, and collect
/// maximal region roots (lines 33–46).
///
/// Per §2.2, a consolidated region "is added to the historical record of
/// unique hashes" even when its combined digest is *new*: the first
/// occurrence of a shifted-pair pattern registers itself so that every later
/// twin — in this checkpoint or any future one — consolidates against it.
/// This is what collapses constant regions (a page of zero chunks needs
/// O(log) metadata entries instead of one per chunk) and recurring
/// multi-chunk patterns. Each level therefore runs in two sub-kernels:
/// first publish combined digests into the record (with the same
/// earliest-twin canonicalization as the other passes, so the outcome is
/// deterministic), then decide labels and emit regions.
fn collect_pass(pass: &mut Pass<'_>) -> gpu_sim::ArenaLease<AtomicU8> {
    let Pass {
        device,
        shape,
        hasher,
        labels,
        map,
        ckpt_id,
        ..
    } = *pass;
    let tree = SharedSliceMut::new(pass.digests);
    // Lock-free emission, GPU style: kernels set a per-node flag (1 = first
    // occurrence region, 2 = shifted region) and the lists are built
    // afterwards by stream compaction — no mutex exists in a real kernel.
    // The flag buffer is leased from the device arena (steady-state
    // zero-allocation) and cleared explicitly: arena contents are whatever
    // the previous checkpoint left, and a fresh allocation is zeroed the
    // same way, so pooled and unpooled runs stay bit-identical.
    let mut emit_flags = device
        .arena()
        .lease::<AtomicU8>("dedup/emit_flags", shape.n_nodes());
    {
        use rayon::prelude::*;
        emit_flags
            .as_mut_slice()
            .par_chunks_mut(16 * 1024)
            .for_each(|chunk| {
                for f in chunk {
                    *f.get_mut() = 0;
                }
            });
    }
    let emit_flags = emit_flags;
    let emit = |node: usize| match labels.get(node) {
        Label::FirstOcur => emit_flags[node].store(1, AtomicOrdering::Relaxed),
        Label::ShiftDupl => emit_flags[node].store(2, AtomicOrdering::Relaxed),
        // Fixed duplicates are omitted; Mixed children already emitted
        // their own regions at a deeper level.
        Label::FixedDupl | Label::Mixed => {}
        Label::None => unreachable!("unlabeled child below current level"),
    };

    for (lo, hi) in shape.interior_levels_bottom_up() {
        let width = hi - lo;
        let cost = KernelCost::stream((width * 2 * 16) as u64);

        // Sub-kernel 1: combine shifted pairs and publish their digests.
        let state = || (map.batch(), [0u8; 32]);
        device.parallel_for_init(
            "consolidate_shift_publish",
            width,
            cost,
            state,
            |state, k| {
                let (batch, scratch) = state;
                let node = lo + k;
                if labels.get(node) != Label::None {
                    return; // consolidated in the first-occurrence pass
                }
                let (cl, cr) = (shape.left(node), shape.right(node));
                if labels.get(cl) == Label::ShiftDupl && labels.get(cr) == Label::ShiftDupl {
                    // SAFETY: children finalized by previous levels; `node`
                    // owned by this thread.
                    let (dl, dr) = unsafe { (tree.read(cl), tree.read(cr)) };
                    let combined = hasher.combine_with(&dl, &dr, scratch);
                    unsafe { tree.write(node, combined) };
                    let me = MapEntry::new(node as u32, ckpt_id);
                    match batch.insert(&combined, me) {
                        InsertResult::Inserted | InsertResult::OutOfCapacity => {}
                        // Keep the record pointing at the leftmost same-level
                        // twin so the decision sub-kernel is deterministic (the
                        // sequential reference processes nodes in ascending
                        // order). Cross-level twins keep the deeper entry:
                        // referencing it consolidates better than re-publishing.
                        InsertResult::Exists(e)
                            if e.ckpt == ckpt_id
                                && (node as u32) < e.node
                                && shape.depth(node) == shape.depth(e.node as usize) =>
                        {
                            map.update_with(&combined, |cur| {
                                (cur.ckpt == ckpt_id
                                    && (node as u32) < cur.node
                                    && shape.depth(node) == shape.depth(cur.node as usize))
                                .then_some(me)
                            });
                        }
                        InsertResult::Exists(_) => {}
                    }
                }
            },
        );

        // Sub-kernel 2: decide labels and emit the regions that cannot
        // consolidate further.
        device.parallel_for("consolidate_shift_decide", width, cost, |k| {
            let node = lo + k;
            if labels.get(node) != Label::None {
                return;
            }
            let (cl, cr) = (shape.left(node), shape.right(node));
            match (labels.get(cl), labels.get(cr)) {
                (Label::FixedDupl, Label::FixedDupl) => labels.set(node, Label::FixedDupl),
                (Label::ShiftDupl, Label::ShiftDupl) => {
                    // SAFETY: written by sub-kernel 1 (fork-join barrier).
                    let combined = unsafe { tree.read(node) };
                    match map.get(&combined) {
                        Some(e) if !(e.node == node as u32 && e.ckpt == ckpt_id) => {
                            // A prior occurrence exists: this whole region
                            // is a shifted duplicate of it.
                            labels.set(node, Label::ShiftDupl);
                        }
                        // We are the canonical first occurrence of this
                        // pattern (or the record is full): the children are
                        // the maximal representable regions.
                        _ => {
                            labels.set(node, Label::Mixed);
                            emit(cl);
                            emit(cr);
                        }
                    }
                }
                _ => {
                    labels.set(node, Label::Mixed);
                    emit(cl);
                    emit(cr);
                }
            }
        });
    }

    // The root of a fully-uniform tree never had a parent to emit it.
    emit(0);
    emit_flags
}

/// Build the sorted region lists from per-node emission flags with two
/// device compactions. The compaction predicate reads the settled flags
/// directly — no intermediate flag vectors, no scratch allocation.
pub(crate) fn compact_emissions(device: &Device, emit_flags: &[AtomicU8]) -> EmittedRegions {
    let n = emit_flags.len();
    EmittedRegions {
        first: device.compact_where("compact_first_regions", n, |i| {
            emit_flags[i].load(AtomicOrdering::Relaxed) == 1
        }),
        shift_nodes: device.compact_where("compact_shift_regions", n, |i| {
            emit_flags[i].load(AtomicOrdering::Relaxed) == 2
        }),
    }
}
