//! The **List** baseline: the paper's method without metadata compaction.
//!
//! "We implemented a List method that is identical to our method except for
//! the metadata compaction, which is omitted. Instead, a full list of all
//! first-time occurrences and shifted duplicates is stored along the new
//! chunks" (§3.2). It is the shared pipeline (`pipeline.rs`) — and
//! therefore the full spatiotemporal de-duplication power, the §5 payload
//! codec and §2.4's collision check — with a step that emits one metadata
//! entry per non-fixed chunk, which is what the Tree method's hierarchical
//! consolidation compacts away.

use crate::diff::MethodKind;
use crate::labels::Label;
use crate::methods::pipeline::{DedupCheckpointer, EmittedRegions, Pass, RegionStep};
use crate::tree::TreeShape;

/// The List method: every non-fixed leaf is its own region.
pub struct ListStep;

/// The List method's persistent state across a checkpoint record.
pub type ListCheckpointer = DedupCheckpointer<ListStep>;

impl RegionStep for ListStep {
    const KIND: MethodKind = MethodKind::List;
    const NAME: &'static str = "List";

    /// The List record only ever holds leaf digests, so its natural
    /// capacity is per-chunk rather than per-node.
    fn live_digests(shape: &TreeShape) -> usize {
        shape.n_chunks()
    }

    /// No consolidation. The per-leaf lists are built with device stream
    /// compactions over the settled labels (chunk order), mapped to leaf ids
    /// and sorted — the output a sequential per-chunk loop produces, without
    /// serializing on the region-list build. This plays the role the Tree
    /// method's compaction waves play: producing the region tables.
    fn build_regions(pass: &mut Pass<'_>) -> EmittedRegions {
        let Pass {
            device,
            shape,
            labels,
            ..
        } = *pass;
        let leaves_labeled = |kernel: &str, label: Label| {
            let chunks = device.compact_where(kernel, shape.n_chunks(), |c| {
                labels.get(shape.leaf_of_chunk(c)) == label
            });
            let mut leaves: Vec<u32> = chunks
                .into_iter()
                .map(|c| shape.leaf_of_chunk(c as usize) as u32)
                .collect();
            leaves.sort_unstable();
            leaves
        };
        EmittedRegions {
            first: leaves_labeled("list_first_chunks", Label::FirstOcur),
            shift_nodes: leaves_labeled("list_shift_chunks", Label::ShiftDupl),
        }
    }
}
