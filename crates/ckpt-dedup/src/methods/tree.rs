//! The paper's contribution: Merkle-tree de-duplication with compact
//! metadata (the **Tree** method, Algorithm 1).
//!
//! Tree is the shared pipeline (`pipeline.rs`) with this
//! region-building step between the leaf pass and reference resolution:
//!
//! 1. **First-occurrence consolidation** (lines 24–32): level-by-level
//!    bottom-up, consolidate adjacent first-occurrence subtrees, inserting
//!    each consolidated region's digest into the historical record.
//! 2. **Shifted-duplicate consolidation** (lines 33–46): level-by-level
//!    bottom-up over the remaining nodes, consolidate adjacent shifted
//!    duplicates when their combined digest is already recorded, and
//!    propagate fixed duplicates.
//! 3. **Region collection**: once both waves have settled every label, read
//!    off the roots of maximal uniform regions.
//!
//! The two waves are strictly ordered ("we process the sub-trees
//! corresponding to the first-time occurrences, then ... the shifted
//! duplicates") so a shifted-duplicate lookup never races with the
//! first-occurrence insert it should match — the missed-dedup hazard §2.2
//! calls out. The ablation benchmark `waves` ([`super::tree_naive`])
//! quantifies what a fused single-stage pass would lose.
//!
//! The paper's kernel gives every node of a level a thread. On the host the
//! waves visit only each level's *frontier*, the ancestors of the leaves the
//! leaf pass found changed (`Frontiers`): a node whose subtree holds only
//! fixed duplicates ends every checkpoint a fixed duplicate and emits
//! nothing, so skipping it changes no digest, record entry or diff byte. It
//! keeps [`Label::None`], which its parent reads as [`Label::FixedDupl`].
//! The device model still charges every level's full-width launch.

use crate::diff::MethodKind;
use crate::labels::{Label, LabelArray};
use crate::methods::pipeline::{DedupCheckpointer, EmittedRegions, Pass, RegionStep};
use crate::tree::TreeShape;
use crate::util::SharedSliceMut;
use gpu_sim::{ArenaLease, Device, InsertResult, KernelCost, MapEntry, TILE};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

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
        let frontiers = Frontiers::build(pass.device, &pass.shape, pass.dirty);
        first_ocur_pass(pass, &frontiers);
        pass.stages.mark("first_ocur_wave");
        shift_dupl_pass(pass, &frontiers);
        pass.stages.mark("shift_dupl_wave");
        // Collection stays outside the waves so the stage clock attributes
        // it to the metadata compaction.
        collect_regions(pass, &frontiers)
    }
}

/// The interior nodes the waves visit: per level, the ancestors of the
/// leaves the leaf pass marked changed.
struct Frontiers {
    /// Every level's frontier, ascending within a level, deepest level first.
    nodes: ArenaLease<u32>,
    /// Per interior level, bottom-up: its width and its frontier in `nodes`.
    levels: Vec<(usize, Range<usize>)>,
}

impl Frontiers {
    /// Mark every interior ancestor of a marked leaf in `dirty` (one bit per
    /// node) and list them per level. Bottom-up, a level `[lo, hi)`'s
    /// frontier is the parents of the marked nodes in its child range
    /// `[2·lo + 1, 2·hi + 1)`, scanned a 64-bit word at a time. That range
    /// holds the level below and, when `n_chunks` is not a power of two, the
    /// leaves one level above the deepest, so both leaf depths are covered.
    fn build(device: &Device, shape: &TreeShape, dirty: &[AtomicU64]) -> Frontiers {
        // Each interior node is listed at most once.
        let mut nodes = device
            .arena()
            .lease::<u32>("dedup/frontier", shape.n_interior());
        let mut len = 0;
        let levels = shape
            .interior_levels_bottom_up()
            .into_iter()
            .map(|(lo, hi)| {
                let start = len;
                let (a, b) = (2 * lo + 1, 2 * hi + 1);
                for w in a / 64..b.div_ceil(64) {
                    let mut bits = dirty[w].load(AtomicOrdering::Relaxed);
                    if w == a / 64 {
                        bits &= u64::MAX << (a % 64);
                    }
                    if w == b / 64 {
                        bits &= (1u64 << (b % 64)) - 1;
                    }
                    while bits != 0 {
                        let child = w * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let parent = shape.parent(child);
                        // Siblings are adjacent bits, so a repeated parent is
                        // always the last one listed.
                        if len == start || nodes[len - 1] as usize != parent {
                            nodes[len] = parent as u32;
                            len += 1;
                            // No kernel runs while the frontiers are built:
                            // this thread alone touches the set.
                            let word = &dirty[parent / 64];
                            let bit = 1u64 << (parent % 64);
                            word.store(
                                word.load(AtomicOrdering::Relaxed) | bit,
                                AtomicOrdering::Relaxed,
                            );
                        }
                    }
                }
                (hi - lo, start..len)
            })
            .collect();
        Frontiers { nodes, levels }
    }

    /// `(width, frontier)` of each interior level, deepest first.
    fn levels(&self) -> impl DoubleEndedIterator<Item = (usize, &[u32])> + '_ {
        self.levels
            .iter()
            .map(|(width, range)| (*width, &self.nodes[range.clone()]))
    }
}

/// A child's label once the waves are done with its level: an interior node
/// no wave visited holds only fixed duplicates.
fn settled(labels: &LabelArray, node: usize) -> Label {
    match labels.get(node) {
        Label::None => Label::FixedDupl,
        label => label,
    }
}

/// Consolidate first-occurrence subtrees bottom-up (lines 24–32).
///
/// A frontier tile at a time: step 1 combines the digests of the nodes
/// whose children are both first occurrences, writes them and prefetches
/// their record slots; step 2 inserts them in frontier order. Children were
/// settled by the level below, so step 1 reads what a per-node walk would.
fn first_ocur_pass(pass: &mut Pass<'_>, frontiers: &Frontiers) {
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
    for (width, frontier) in frontiers.levels() {
        let cost = KernelCost::stream((width * 2 * 16) as u64).with_writes((width * 16) as u64);
        let state = || (map.batch(), [0u8; 32]);
        device.parallel_for_tiles(
            "consolidate_first_ocur",
            frontier.len(),
            cost,
            state,
            |state, tile| {
                let (batch, scratch) = state;
                let nodes = &frontier[tile];
                let mut listed = [0u8; TILE];
                let mut n_listed = 0;
                for (k, &node) in nodes.iter().enumerate() {
                    let node = node as usize;
                    let (cl, cr) = (shape.left(node), shape.right(node));
                    if labels.get(cl) == Label::FirstOcur && labels.get(cr) == Label::FirstOcur {
                        // SAFETY: children were finalized by the previous
                        // level's kernel (fork-join barrier); `node` is
                        // owned by this thread.
                        let (dl, dr) = unsafe { (tree.read(cl), tree.read(cr)) };
                        let combined = hasher.combine_with(&dl, &dr, scratch);
                        unsafe { tree.write(node, combined) };
                        map.prefetch(&combined);
                        listed[n_listed] = k as u8;
                        n_listed += 1;
                    }
                }
                for &k in &listed[..n_listed] {
                    let node = nodes[k as usize] as usize;
                    // SAFETY: written by step 1 on this thread.
                    let combined = unsafe { tree.read(node) };
                    let me = MapEntry::new(node as u32, ckpt_id);
                    match batch.insert(&combined, me) {
                        // See the leaf pass: an earlier twin that displaces
                        // this node marks it ShiftDupl, in either order.
                        InsertResult::Inserted => labels.claim_first(node),
                        // A twin subtree elsewhere already registered this
                        // digest: this whole region is a shifted duplicate.
                        // Keep the record pointing at the leftmost twin
                        // (nodes within a level are in data order) so the
                        // outcome matches the sequential reference.
                        // Displacement is restricted to twins on the *same
                        // level* — a twin on a deeper level was finalized by
                        // an earlier kernel and its parent may be consuming
                        // its label concurrently with ours, so relabeling it
                        // here would race.
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
                                labels.claim_first(node);
                                if before.ckpt == ckpt_id && before.node != node as u32 {
                                    labels.set(before.node as usize, Label::ShiftDupl);
                                }
                            } else {
                                labels.set(node, Label::ShiftDupl);
                            }
                        }
                        InsertResult::Exists(_) => labels.set(node, Label::ShiftDupl),
                        InsertResult::OutOfCapacity => labels.set(node, Label::FirstOcur),
                    }
                }
            },
        );
    }
}

/// Consolidate shifted duplicates and propagate fixed duplicates (lines
/// 33–46).
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
/// deterministic), then decide labels. Both walk a frontier tile in two
/// steps like [`first_ocur_pass`]: prefetch the slots of the tile's
/// probes, then probe in frontier order.
fn shift_dupl_pass(pass: &mut Pass<'_>, frontiers: &Frontiers) {
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
    for (width, frontier) in frontiers.levels() {
        let cost = KernelCost::stream((width * 2 * 16) as u64);

        // Sub-kernel 1: combine shifted pairs and publish their digests.
        let state = || (map.batch(), [0u8; 32]);
        device.parallel_for_tiles(
            "consolidate_shift_publish",
            frontier.len(),
            cost,
            state,
            |state, tile| {
                let (batch, scratch) = state;
                let nodes = &frontier[tile];
                let mut listed = [0u8; TILE];
                let mut n_listed = 0;
                for (k, &node) in nodes.iter().enumerate() {
                    let node = node as usize;
                    if labels.get(node) != Label::None {
                        continue; // consolidated in the first-occurrence pass
                    }
                    let (cl, cr) = (shape.left(node), shape.right(node));
                    if labels.get(cl) == Label::ShiftDupl && labels.get(cr) == Label::ShiftDupl {
                        // SAFETY: children finalized by previous levels;
                        // `node` owned by this thread.
                        let (dl, dr) = unsafe { (tree.read(cl), tree.read(cr)) };
                        let combined = hasher.combine_with(&dl, &dr, scratch);
                        unsafe { tree.write(node, combined) };
                        map.prefetch(&combined);
                        listed[n_listed] = k as u8;
                        n_listed += 1;
                    }
                }
                for &k in &listed[..n_listed] {
                    let node = nodes[k as usize] as usize;
                    // SAFETY: written by step 1 on this thread.
                    let combined = unsafe { tree.read(node) };
                    let me = MapEntry::new(node as u32, ckpt_id);
                    match batch.insert(&combined, me) {
                        InsertResult::Inserted | InsertResult::OutOfCapacity => {}
                        // Keep the record pointing at the leftmost
                        // same-level twin so the decision sub-kernel is
                        // deterministic (the sequential reference processes
                        // nodes in ascending order). Cross-level twins keep
                        // the deeper entry: referencing it consolidates
                        // better than re-publishing.
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

        // Sub-kernel 2: decide labels. A node that cannot consolidate
        // further becomes `Mixed`: its children are the regions.
        device.parallel_for_tiles(
            "consolidate_shift_decide",
            frontier.len(),
            cost,
            || (),
            |_, tile| {
                let nodes = &frontier[tile];
                let mut listed = [0u8; TILE];
                let mut n_listed = 0;
                for (k, &node) in nodes.iter().enumerate() {
                    let node = node as usize;
                    if labels.get(node) != Label::None {
                        continue;
                    }
                    let (cl, cr) = (shape.left(node), shape.right(node));
                    let label = match (settled(labels, cl), settled(labels, cr)) {
                        (Label::FixedDupl, Label::FixedDupl) => Label::FixedDupl,
                        (Label::ShiftDupl, Label::ShiftDupl) => {
                            // SAFETY: written by sub-kernel 1 (fork-join
                            // barrier).
                            map.prefetch(&unsafe { tree.read(node) });
                            listed[n_listed] = k as u8;
                            n_listed += 1;
                            continue;
                        }
                        _ => Label::Mixed,
                    };
                    labels.set(node, label);
                }
                for &k in &listed[..n_listed] {
                    let node = nodes[k as usize] as usize;
                    // SAFETY: as in step 1.
                    let combined = unsafe { tree.read(node) };
                    let label = match map.get(&combined) {
                        // A prior occurrence exists: this whole region is a
                        // shifted duplicate of it.
                        Some(e) if !(e.node == node as u32 && e.ckpt == ckpt_id) => {
                            Label::ShiftDupl
                        }
                        // We are the canonical first occurrence of this
                        // pattern (or the record is full): the children are
                        // the maximal representable regions.
                        _ => Label::Mixed,
                    };
                    labels.set(node, label);
                }
            },
        );
    }
}

/// The region lists, read from the settled labels: the first-occurrence and
/// shifted children of every `Mixed` node, plus the root when it is a region
/// itself (it has no parent to emit it). Every `Mixed` node is on a
/// frontier, and the levels walked top-down with each frontier ascending
/// give both lists in ascending node order.
fn collect_regions(pass: &Pass<'_>, frontiers: &Frontiers) -> EmittedRegions {
    let Pass {
        device,
        shape,
        labels,
        ..
    } = *pass;
    // The paper's kernel builds the lists with two stream compactions over
    // every node; the model charges those.
    let cost = KernelCost::stream(2 * shape.n_nodes() as u64);
    device.parallel_for("compact_first_regions", 0, cost, |_| {});
    device.parallel_for("compact_shift_regions", 0, cost, |_| {});
    let mut regions = EmittedRegions::default();
    let mut emit = |node: usize| match labels.get(node) {
        Label::FirstOcur => regions.first.push(node as u32),
        Label::ShiftDupl => regions.shift_nodes.push(node as u32),
        // Fixed duplicates are omitted, a Mixed child emitted its own
        // children, and an unvisited node holds only fixed duplicates.
        Label::FixedDupl | Label::Mixed | Label::None => {}
    };
    emit(0);
    for (_, frontier) in frontiers.levels().rev() {
        for &node in frontier {
            let node = node as usize;
            if labels.get(node) == Label::Mixed {
                emit(shape.left(node));
                emit(shape.right(node));
            }
        }
    }
    debug_assert!(regions.first.is_sorted() && regions.shift_nodes.is_sorted());
    regions
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_changed_leaf_puts_its_one_ancestor_on_each_level() {
        let device = Device::a100();
        for n in [1usize, 2, 3, 5, 6, 8, 13, 64, 100, 1025] {
            let shape = TreeShape::new(n);
            for c in 0..n {
                let dirty: Vec<AtomicU64> = (0..shape.n_nodes().div_ceil(64))
                    .map(|_| AtomicU64::new(0))
                    .collect();
                let leaf = shape.leaf_of_chunk(c);
                dirty[leaf / 64].fetch_or(1 << (leaf % 64), AtomicOrdering::Relaxed);
                let mut ancestors = Vec::new();
                let mut node = leaf;
                while node > 0 {
                    node = shape.parent(node);
                    ancestors.push(node as u32);
                }

                let frontiers = Frontiers::build(&device, &shape, &dirty);
                let levels = shape.interior_levels_bottom_up();
                assert_eq!(frontiers.levels().count(), levels.len());
                for ((width, frontier), (lo, hi)) in frontiers.levels().zip(levels) {
                    assert_eq!(width, hi - lo);
                    // A leaf one level above the deepest has no ancestor on
                    // the deepest interior level; every other level holds
                    // exactly one.
                    let want: Vec<u32> = ancestors
                        .iter()
                        .copied()
                        .filter(|&a| (lo..hi).contains(&(a as usize)))
                        .collect();
                    assert_eq!(frontier, want, "n={n}, chunk {c}, level {lo}..{hi}");
                }
                let marked: Vec<usize> = (0..shape.n_nodes())
                    .filter(|&i| (dirty[i / 64].load(AtomicOrdering::Relaxed) >> (i % 64)) & 1 == 1)
                    .collect();
                let mut want: Vec<usize> = ancestors.iter().map(|&a| a as usize).collect();
                want.push(leaf);
                want.sort_unstable();
                assert_eq!(marked, want, "n={n}, chunk {c}: marked nodes");
            }
        }
    }
}
