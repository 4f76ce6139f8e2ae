//! Lineage access: find a rank's restorable record in the tier chain.
//!
//! The record of a rank is the ordered sequence of encoded diffs
//! `(rank, 0), (rank, 1), …` spread across the tier chain.
//! [`collect_record`] picks the newest restorable run of them (the hole
//! rule); rebuilding a version from that run is the single-pass engine's
//! job ([`crate::restore`], `ckpt_dedup::restart`). The sequential-replay
//! oracle tests compare that engine against replays the same run, from
//! outside this crate (`ckpt_bench::oracle::restore_rank`).

use crate::chain::TierChain;
use ckpt_dedup::diff::{DecodeError, Diff};
use ckpt_dedup::restart::is_self_contained;
use ckpt_dedup::{Bytes, RestoreError};
use std::collections::BTreeMap;

/// Errors when reading a rank's lineage back.
#[derive(Debug)]
pub enum LineageError {
    /// No checkpoints stored for this rank.
    Empty,
    /// The newest surviving run of checkpoints is incremental, but its
    /// predecessor is gone from every tier (missing or corrupt beyond
    /// repair). The run cannot be replayed; restoring an older state
    /// silently would hide the data loss, so this is a typed error.
    Hole {
        rank: u32,
        /// The id every copy of which is missing or corrupt.
        missing: u32,
        /// First id of the surviving (but unusable) newer run.
        present_above: u32,
    },
    /// A diff failed to decode (the `u32` is its checkpoint id).
    Decode(u32, DecodeError),
    /// The diff chain failed to replay.
    Restore(RestoreError),
}

impl std::fmt::Display for LineageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LineageError::Empty => write!(f, "no checkpoints for rank"),
            LineageError::Hole {
                rank,
                missing,
                present_above,
            } => write!(
                f,
                "rank {rank}: checkpoint {missing} lost below surviving \
                 checkpoints {present_above}.. (not a rebase point)"
            ),
            LineageError::Decode(k, e) => write!(f, "checkpoint {k} corrupt: {e}"),
            LineageError::Restore(e) => write!(f, "restore failed: {e}"),
        }
    }
}

impl std::error::Error for LineageError {}

/// Collect the newest restorable chain of encoded diffs for `rank`,
/// searching every tier (durable copies preferred). Returns the chain's
/// base checkpoint id and the encoded diffs `base, base+1, …` in order.
///
/// Frames that fail verification are *skipped*, never returned: a corrupt
/// shallow copy cannot shadow a valid deeper one (see
/// [`TierChain::locate`]). The chain is the maximal contiguous run ending
/// at the newest surviving id; a base above 0 is legal only when that
/// record is self-contained (a rebase record whose predecessors were
/// compacted away). Otherwise the run has a genuine hole — an id whose
/// every copy is lost below the durable suffix — and that is surfaced as
/// [`LineageError::Hole`] instead of silently restoring stale state.
pub fn collect_record(tiers: &TierChain, rank: u32) -> Result<(u32, Vec<Bytes>), LineageError> {
    let mut present: BTreeMap<u32, Bytes> = BTreeMap::new();
    // One read session: a record several of the rank's records reference
    // is fetched and indexed once for the whole collection.
    let mut reader = tiers.reader();
    for k in tiers.known_ckpts(rank) {
        if let Some(bytes) = reader.locate_kept((rank, k)) {
            present.insert(k, bytes);
        }
    }
    let Some(&max) = present.keys().next_back() else {
        return Err(LineageError::Empty);
    };
    let mut lo = max;
    while lo > 0 && present.contains_key(&(lo - 1)) {
        lo -= 1;
    }
    // A newest run with no legal head is stranded above a genuine hole.
    let Some(base) = run_head(&present, lo, max) else {
        return Err(LineageError::Hole {
            rank,
            missing: lo - 1,
            present_above: lo,
        });
    };
    let chain = (base..=max).map(|k| present.remove(&k).unwrap()).collect();
    Ok((base, chain))
}

/// The record that may head a replay of the contiguous run `lo..=hi` of
/// `records`: checkpoint 0 when the run reaches it, otherwise the run's
/// lowest self-contained record (a rebase record, the legal chain head
/// after compaction garbage-collected its predecessors — the lowest keeps
/// the most versions). `None`: the run is incremental all the way down and
/// cannot be replayed. What a caller does with a stranded newest run is its
/// own answer ([`collect_record`] types the hole, recovery falls back to an
/// older run).
pub(crate) fn run_head(records: &BTreeMap<u32, Bytes>, lo: u32, hi: u32) -> Option<u32> {
    if lo == 0 {
        return Some(0);
    }
    (lo..=hi).find(|k| Diff::decode_shared(&records[k]).is_ok_and(|d| is_self_contained(&d)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_dedup::prelude::*;

    #[test]
    fn corrupt_shallow_copy_is_skipped_for_deeper_valid_one() {
        use crate::fault::{FaultKind, FaultPlan};
        // The second *host* put is bit-flipped; the PFS holds valid copies
        // of both diffs. The record must come back whole (the corrupt host
        // copy is skipped, not returned) and the host copy gets repaired.
        let plan = FaultPlan::builder()
            .on_put("host", 1, FaultKind::BitFlip { bit: 40 })
            .build();
        let tiers = crate::chain::TierChain::with_faults(plan);
        tiers.pfs.put((0, 0), vec![1, 2, 3]).unwrap();
        tiers.pfs.put((0, 1), vec![4, 5]).unwrap();
        tiers.host.put((0, 0), vec![1, 2, 3]).unwrap();
        tiers.host.put((0, 1), vec![4, 5]).unwrap(); // corrupted by the plan
        assert_eq!(
            collect_record(&tiers, 0).unwrap(),
            (0, vec![vec![1, 2, 3].into(), vec![4, 5].into()])
        );
        assert_eq!(tiers.integrity().corrupt_count(), 1);
        assert_eq!(tiers.integrity().repaired_count(), 1);
        assert_eq!(tiers.host.get((0, 1)), Some(vec![4, 5].into()));
    }

    #[test]
    fn unrepairable_mid_chain_corruption_is_a_typed_hole() {
        use crate::fault::{FaultKind, FaultPlan};
        // ckpt 1's only copy is corrupt; ckpt 2 survives but is an
        // incremental diff, unusable without its predecessor. The old
        // behavior silently returned the stale prefix [ckpt 0]; the loss
        // must now surface as a typed hole.
        let plan = FaultPlan::builder()
            .on_put("pfs", 1, FaultKind::TornWrite { keep_bytes: 12 })
            .build();
        let tiers = crate::chain::TierChain::with_faults(plan);
        let dev = gpu_sim::Device::a100();
        let mut ckpt = TreeCheckpointer::new(dev, TreeConfig::new(64));
        let mut data: Vec<u8> = (0..4096u32).map(|i| (i % 239) as u8).collect();
        for k in 0..3u32 {
            if k > 0 {
                data[k as usize * 101] ^= 0xff;
            }
            let out = ckpt.checkpoint(&data);
            tiers.pfs.put((0, k), out.diff.encode()).unwrap(); // #1 torn
        }
        match collect_record(&tiers, 0) {
            Err(LineageError::Hole {
                rank: 0,
                missing: 1,
                present_above: 2,
            }) => {}
            other => panic!("expected a typed hole, got {other:?}"),
        }
        assert_eq!(tiers.pfs.quarantined(), vec![(0, 1)]);
    }
}
