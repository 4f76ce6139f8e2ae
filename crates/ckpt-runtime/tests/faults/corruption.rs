//! Corruption matrix for the restart path: every record of a chain is
//! corrupted individually, and the parallel single-pass restore must
//! behave exactly like the sequential replay — falling back past corrupt
//! copies through [`TierChain::locate`], or surfacing the same typed hole
//! when a record's every copy is gone. Recovery reports must reconcile
//! with the `integrity/*` counters in each cell of the matrix.

use crate::support::{Snapshots, Workload};
use ckpt_bench::oracle::restore_rank;
use ckpt_dedup::MethodKind;
use ckpt_runtime::{
    restore_rank_latest_parallel, FaultKind, FaultPlan, LineageError, ParallelRestoreOutcome,
    TierChain,
};
use gpu_sim::Device;

const CKPTS: u32 = 5;

fn chain(rebase_at: Option<u32>) -> Workload {
    let snapshots = Snapshots::Striped {
        ckpts: CKPTS,
        len: 6000,
    };
    Workload::build(snapshots, MethodKind::Tree, rebase_at)
}

/// A chain whose PFS put of `victim` is damaged by `fault`; every record
/// is stored on the PFS, and on the host too with `host_copies`.
fn stored(w: &Workload, victim: u32, fault: FaultKind, host_copies: bool) -> TierChain {
    let plan = FaultPlan::builder()
        .on_put("pfs", victim as u64, fault)
        .build();
    let tiers = TierChain::with_faults(plan);
    for k in 0..w.ckpts {
        tiers.pfs.put((0, k), w.record((0, k))).unwrap();
        if host_copies {
            tiers.host.put((0, k), w.record((0, k))).unwrap();
        }
    }
    tiers
}

fn parallel_latest(tiers: &TierChain) -> Result<ParallelRestoreOutcome, LineageError> {
    restore_rank_latest_parallel(tiers, &Device::a100(), 0, None)
}

/// The sequential-replay oracle's newest version: `(checkpoint id, bytes)`.
fn oracle_latest(tiers: &TierChain) -> Result<(u32, Vec<u8>), LineageError> {
    let (base, mut versions) = restore_rank(tiers, 0)?;
    let last = base + versions.len() as u32 - 1;
    Ok((
        last,
        versions.pop().expect("a collected chain has a version"),
    ))
}

/// Cell 1 of the matrix, for every record: the PFS copy is corrupt but a
/// valid host copy exists. Both engines must restore bit-exact (locate
/// skips, quarantines and repairs the corrupt copy), and the integrity
/// counters must record exactly one corruption and one repair.
#[test]
fn redundant_copy_corruption_is_transparent_for_every_record() {
    let w = chain(None);
    for victim in 0..CKPTS {
        let tiers = stored(&w, victim, FaultKind::BitFlip { bit: 100 }, true);
        let par = parallel_latest(&tiers)
            .unwrap_or_else(|e| panic!("victim {victim}: parallel restore failed: {e}"));
        assert_eq!(par.version, CKPTS - 1, "victim {victim}");
        assert_eq!(par.data, w.latest(0), "victim {victim}");

        // The walk only touches records its resolution still needs, so the
        // corrupt copy is observed lazily; force full accounting and
        // reconcile with the counters.
        let (base, versions) = restore_rank(&tiers, 0).unwrap();
        assert_eq!(base, 0, "victim {victim}");
        assert_eq!(versions, w.snapshots[0], "victim {victim}");
        assert_eq!(tiers.integrity().corrupt_count(), 1, "victim {victim}");
        assert_eq!(tiers.integrity().repaired_count(), 1, "victim {victim}");
        assert_eq!(
            tiers.pfs.quarantined(),
            vec![(0, victim)],
            "victim {victim}: corrupt copy quarantined (repair re-stages a fresh copy)"
        );
        let report = tiers.recover_report();
        assert_eq!(report.total_objects(), CKPTS as usize, "victim {victim}");
        assert_eq!(report.total_lost(), 0, "victim {victim}");
        assert_eq!(
            report.total_durable_prefix(),
            CKPTS as usize,
            "victim {victim}"
        );
    }
}

/// Cell 2: the record's *only* copy is corrupt (torn below the frame
/// minimum). A mid-chain victim is a typed hole for both engines; a
/// victim at the top of the chain just shortens it — both engines restore
/// the previous version. Reports and counters agree in every cell.
#[test]
fn sole_copy_corruption_matches_sequential_for_every_record() {
    let w = chain(None);
    for victim in 0..CKPTS {
        let tiers = stored(&w, victim, FaultKind::TornWrite { keep_bytes: 10 }, false);
        let par = parallel_latest(&tiers);
        let seq = oracle_latest(&tiers);
        if victim == CKPTS - 1 {
            // The newest record is gone; the chain just ends one earlier.
            let par = par.unwrap_or_else(|e| panic!("victim {victim}: {e}"));
            let (seq_last, seq_bytes) = seq.unwrap();
            assert_eq!((par.version, seq_last), (CKPTS - 2, CKPTS - 2));
            assert_eq!(par.data, seq_bytes);
            assert_eq!(par.data, w.snapshots[0][victim as usize - 1]);
        } else {
            // A hole below surviving records: both engines refuse with the
            // same typed error rather than silently restoring stale state.
            for (name, err) in [
                ("parallel", par.map(|_| ()).unwrap_err()),
                ("sequential", seq.map(|_| ()).unwrap_err()),
            ] {
                match err {
                    LineageError::Hole {
                        rank: 0,
                        missing,
                        present_above,
                    } => {
                        assert_eq!(missing, victim, "{name} victim {victim}");
                        assert!(present_above > victim, "{name} victim {victim}");
                    }
                    other => panic!("{name} victim {victim}: expected hole, got {other:?}"),
                }
            }
        }
        assert_eq!(tiers.integrity().corrupt_count(), 1, "victim {victim}");
        assert_eq!(tiers.integrity().repaired_count(), 0, "victim {victim}");
        assert_eq!(
            tiers.pfs.quarantined(),
            vec![(0, victim)],
            "victim {victim}"
        );
        let report = tiers.recover_report();
        assert_eq!(report.total_objects(), CKPTS as usize, "victim {victim}");
        assert_eq!(report.total_lost(), 1, "victim {victim}");
    }
}

/// Cell 3: with a rebase record mid-chain, losing any sole copy *below*
/// the rebase point is harmless — the walk never needs it. Losing one at
/// or above the rebase point behaves like cell 2.
#[test]
fn rebase_point_shields_corruption_below_it() {
    let rebase_at = 2u32;
    let w = chain(Some(rebase_at));
    for victim in 0..CKPTS {
        let tiers = stored(&w, victim, FaultKind::TornWrite { keep_bytes: 10 }, false);
        let par = parallel_latest(&tiers);
        match victim {
            v if v < rebase_at => {
                // The chain restores from the rebase record; the lost
                // record below it was already logically compacted away.
                let par = par.unwrap_or_else(|e| panic!("victim {victim}: {e}"));
                assert_eq!(par.version, CKPTS - 1);
                assert_eq!(par.data, w.latest(0), "victim {victim}");
                let (last, seq_bytes) = oracle_latest(&tiers).unwrap();
                assert_eq!((last, &seq_bytes), (par.version, &par.data));
            }
            v if v == CKPTS - 1 => {
                let par = par.unwrap_or_else(|e| panic!("victim {victim}: {e}"));
                assert_eq!(par.version, CKPTS - 2);
                assert_eq!(
                    par.data,
                    w.snapshots[0][victim as usize - 1],
                    "victim {victim}"
                );
            }
            _ => {
                assert!(
                    matches!(par, Err(LineageError::Hole { missing, .. }) if missing == victim),
                    "victim {victim}: expected hole"
                );
            }
        }
    }
}
