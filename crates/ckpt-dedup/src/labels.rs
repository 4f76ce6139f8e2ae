//! Node labels for Algorithm 1.
//!
//! Each Merkle-tree node carries a label describing the region its subtree
//! covers. Leaves are labeled during the hashing pass; interior nodes during
//! the two consolidation passes. Labels live in an atomic array so thousands
//! of simulated GPU threads can publish them concurrently.

use std::sync::atomic::{AtomicU8, Ordering};

/// Classification of the region covered by a tree node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Label {
    /// Not yet visited / not applicable.
    None = 0,
    /// First-time occurrence: this data was never seen in the checkpoint
    /// record; its chunks are part of the diff payload.
    FirstOcur = 1,
    /// Fixed duplicate: identical to the *same position* in the previous
    /// checkpoint; omitted from the diff entirely.
    FixedDupl = 2,
    /// Shifted duplicate: identical to data stored at a *different* position
    /// (same or earlier checkpoint); the diff stores only a reference.
    ShiftDupl = 3,
    /// Interior node whose children could not be consolidated into one
    /// region (different labels, or an unmatched shifted pair).
    Mixed = 4,
}

impl Label {
    #[inline]
    pub fn from_u8(v: u8) -> Label {
        match v {
            1 => Label::FirstOcur,
            2 => Label::FixedDupl,
            3 => Label::ShiftDupl,
            4 => Label::Mixed,
            _ => Label::None,
        }
    }

    /// Whether a region with this label appears in the diff output.
    /// Fixed duplicates and untouched nodes are omitted; mixed nodes emit
    /// their children instead of themselves.
    pub fn emits_region(&self) -> bool {
        matches!(self, Label::FirstOcur | Label::ShiftDupl)
    }
}

/// A shared array of per-node labels with relaxed atomic access.
///
/// Relaxed is sufficient: every pass that reads labels is separated from the
/// pass that wrote them by a parallel-for join (a full barrier), and within a
/// pass each node's label is written by exactly one thread — except the
/// earliest-twin relabeling of Algorithm 1 lines 13–16, where a displacing
/// twin marks the displaced node `ShiftDupl` while that node's own thread
/// may still be labeling it. The node's own `FirstOcur` goes through
/// [`claim_first`](Self::claim_first), which never lowers a label, so the
/// displacement holds whichever write lands last.
pub struct LabelArray {
    labels: Vec<AtomicU8>,
}

impl LabelArray {
    pub fn new(n_nodes: usize) -> Self {
        LabelArray {
            labels: (0..n_nodes).map(|_| AtomicU8::new(0)).collect(),
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    #[inline]
    pub fn get(&self, node: usize) -> Label {
        Label::from_u8(self.labels[node].load(Ordering::Relaxed))
    }

    #[inline]
    pub fn set(&self, node: usize, label: Label) {
        self.labels[node].store(label as u8, Ordering::Relaxed);
    }

    /// Label `node` `FirstOcur` unless a displacing twin has already marked
    /// it `ShiftDupl`: a read-modify-write that keeps the higher of the two,
    /// so it is ordered with the displacer's store on the node's one atomic
    /// whatever the interleaving — the outcome depends on no ordering
    /// between the label and the record slot.
    #[inline]
    pub fn claim_first(&self, node: usize) {
        self.labels[node].fetch_max(Label::FirstOcur as u8, Ordering::Relaxed);
    }

    /// Reset all labels to [`Label::None`]. Runs as a blocked parallel
    /// fill (a device-side memset): the label array is persistent state on
    /// the per-checkpoint hot path, so its reset must not serialize it.
    pub fn clear(&mut self) {
        use rayon::prelude::*;
        self.labels.par_chunks_mut(16 * 1024).for_each(|chunk| {
            for l in chunk {
                *l.get_mut() = 0;
            }
        });
    }

    /// Count nodes carrying `label` (test/metrics helper).
    pub fn count(&self, label: Label) -> usize {
        self.labels
            .iter()
            .filter(|l| l.load(Ordering::Relaxed) == label as u8)
            .count()
    }
}

impl std::fmt::Debug for LabelArray {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LabelArray(n={}, first={}, fixed={}, shift={}, mixed={})",
            self.len(),
            self.count(Label::FirstOcur),
            self.count(Label::FixedDupl),
            self.count(Label::ShiftDupl),
            self.count(Label::Mixed)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_labels() {
        for l in [
            Label::None,
            Label::FirstOcur,
            Label::FixedDupl,
            Label::ShiftDupl,
            Label::Mixed,
        ] {
            assert_eq!(Label::from_u8(l as u8), l);
        }
        assert_eq!(Label::from_u8(255), Label::None);
    }

    #[test]
    fn array_set_get() {
        let arr = LabelArray::new(8);
        assert_eq!(arr.get(3), Label::None);
        arr.set(3, Label::ShiftDupl);
        assert_eq!(arr.get(3), Label::ShiftDupl);
        assert_eq!(arr.count(Label::ShiftDupl), 1);
        assert_eq!(arr.count(Label::None), 7);
    }

    #[test]
    fn clear_resets() {
        let mut arr = LabelArray::new(4);
        arr.set(0, Label::FirstOcur);
        arr.set(1, Label::Mixed);
        arr.clear();
        assert_eq!(arr.count(Label::None), 4);
    }

    #[test]
    fn emits_region() {
        assert!(Label::FirstOcur.emits_region());
        assert!(Label::ShiftDupl.emits_region());
        assert!(!Label::FixedDupl.emits_region());
        assert!(!Label::Mixed.emits_region());
        assert!(!Label::None.emits_region());
    }
}
