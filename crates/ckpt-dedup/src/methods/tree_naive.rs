//! Ablation A3: the Tree method *without* the two-stage wave ordering.
//!
//! §2.2: "to avoid a situation where shifted duplicates are hashed faster
//! than first-time occurrences (which leads to a missing entry in the
//! historical record of unique hashes and therefore missed de-duplication
//! opportunities), we perform the parallelization in two stages."
//!
//! This variant deliberately runs the naive single sweep: at each tree
//! level, shifted-duplicate consolidation executes concurrently with the
//! first-occurrence consolidation of the *same* level, so its historical-
//! record lookups can only see entries from strictly deeper levels — the
//! worst-case interleaving of a fused one-pass kernel, made deterministic.
//! The result is still correct (diffs restore exactly) but consolidation
//! opportunities are missed, inflating the metadata — which the `waves`
//! ablation benchmark quantifies against the proper two-stage method.

use crate::diff::MethodKind;
use crate::labels::Label;
use crate::methods::pipeline::{DedupCheckpointer, EmittedRegions, Pass, RegionStep};
use crate::tree::TreeShape;
use crate::util::SharedSliceMut;
use gpu_sim::{Device, InsertResult, KernelCost, MapEntry};
use std::sync::atomic::{AtomicU8, Ordering as AtomicOrdering};

/// Naive single-stage consolidation (ablation only).
pub struct NaiveStep;

/// Tree method with naive single-stage consolidation (ablation only).
pub type NaiveTreeCheckpointer = DedupCheckpointer<NaiveStep>;

impl RegionStep for NaiveStep {
    const KIND: MethodKind = MethodKind::Tree;
    const NAME: &'static str = "Tree(naive-waves)";

    fn live_digests(shape: &TreeShape) -> usize {
        shape.n_nodes()
    }

    fn build_regions(pass: &mut Pass<'_>) -> EmittedRegions {
        naive_sweep(pass)
    }
}

/// One interleaved sweep over the interior levels: per level, the
/// shifted-duplicate phase runs against the pre-level record, then the
/// first-occurrence phase inserts that level's digests.
fn naive_sweep(pass: &mut Pass<'_>) -> EmittedRegions {
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
    // Lock-free emission: per-node flags, then two stream compactions.
    let emit_flags: Vec<AtomicU8> = (0..shape.n_nodes()).map(|_| AtomicU8::new(0)).collect();
    let emit = |node: usize| match labels.get(node) {
        Label::FirstOcur => emit_flags[node].store(1, AtomicOrdering::Relaxed),
        Label::ShiftDupl => emit_flags[node].store(2, AtomicOrdering::Relaxed),
        Label::FixedDupl | Label::Mixed => {}
        Label::None => unreachable!("unlabeled child below current level"),
    };

    for (lo, hi) in shape.interior_levels_bottom_up() {
        let width = hi - lo;
        let cost = KernelCost::stream((width * 2 * 16) as u64);

        // Phase 1a (the "shifted duplicates racing ahead" half of the fused
        // kernel): combine shifted pairs and publish new patterns. Lookups
        // and inserts here cannot see this level's first-occurrence inserts
        // — the naive ordering's defect.
        device.parallel_for("naive_consolidate_shift_publish", width, cost, |k| {
            let node = lo + k;
            let (cl, cr) = (shape.left(node), shape.right(node));
            if labels.get(cl) == Label::ShiftDupl && labels.get(cr) == Label::ShiftDupl {
                // SAFETY: children finalized by the previous level; `node`
                // owned by this thread.
                let (dl, dr) = unsafe { (tree.read(cl), tree.read(cr)) };
                let combined = hasher.combine(&dl, &dr);
                unsafe { tree.write(node, combined) };
                let me = MapEntry::new(node as u32, ckpt_id);
                match map.insert(&combined, me) {
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
                    _ => {}
                }
            }
        });

        // Phase 1b: decide shifted/fixed/mixed labels and emit.
        device.parallel_for("naive_consolidate_shift_decide", width, cost, |k| {
            let node = lo + k;
            let (cl, cr) = (shape.left(node), shape.right(node));
            match (labels.get(cl), labels.get(cr)) {
                (Label::FirstOcur, Label::FirstOcur) => {} // phase 2's job
                (Label::FixedDupl, Label::FixedDupl) => labels.set(node, Label::FixedDupl),
                (Label::ShiftDupl, Label::ShiftDupl) => {
                    // SAFETY: written by phase 1a (fork-join barrier).
                    let combined = unsafe { tree.read(node) };
                    match map.get(&combined) {
                        Some(e) if !(e.node == node as u32 && e.ckpt == ckpt_id) => {
                            labels.set(node, Label::ShiftDupl);
                        }
                        _ => {
                            // Twin of a same-level first occurrence is
                            // invisible here: missed dedup.
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

        // Phase 2: first-occurrence consolidation for this level.
        device.parallel_for("naive_consolidate_first", width, cost, |k| {
            let node = lo + k;
            if labels.get(node) != Label::None {
                return;
            }
            let (cl, cr) = (shape.left(node), shape.right(node));
            debug_assert_eq!(labels.get(cl), Label::FirstOcur);
            debug_assert_eq!(labels.get(cr), Label::FirstOcur);
            let (dl, dr) = unsafe { (tree.read(cl), tree.read(cr)) };
            let combined = hasher.combine(&dl, &dr);
            unsafe { tree.write(node, combined) };
            match map.insert(&combined, MapEntry::new(node as u32, ckpt_id)) {
                InsertResult::Inserted => labels.set(node, Label::FirstOcur),
                // A same-checkpoint twin got into the record first — in this
                // naive ordering that twin is a *shifted* region published by
                // phase 1a, and referencing it can create a cycle (its
                // content may resolve through leaves of this very subtree).
                // The fused sweep therefore has to store the data: the
                // missed-dedup penalty §2.2's two-stage ordering avoids.
                InsertResult::Exists(e) if e.ckpt == ckpt_id => labels.set(node, Label::FirstOcur),
                InsertResult::Exists(_) => labels.set(node, Label::ShiftDupl),
                InsertResult::OutOfCapacity => labels.set(node, Label::FirstOcur),
            }
        });
    }

    emit(0);
    compact_emissions(device, &emit_flags)
}

/// Build the sorted region lists from per-node emission flags (1 = first
/// occurrence, 2 = shifted) with two device compactions. The compaction
/// predicate reads the settled flags directly.
fn compact_emissions(device: &Device, emit_flags: &[AtomicU8]) -> EmittedRegions {
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
