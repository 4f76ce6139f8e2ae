//! Corruption matrix for the restart path: every record of a chain is
//! corrupted individually, and the parallel single-pass restore must
//! behave exactly like the sequential replay — falling back past corrupt
//! copies through [`TierChain::locate`], or surfacing the same typed hole
//! when a record's every copy is gone. Recovery reports must reconcile
//! with the `integrity/*` counters in each cell of the matrix.

use ckpt_dedup::prelude::*;
use ckpt_runtime::{
    restore_rank, restore_rank_latest_parallel, FaultKind, FaultPlan, LineageError, TierChain,
};
use gpu_sim::Device;

const CHUNK: usize = 64;
const CKPTS: u32 = 5;

/// The sequential-replay oracle's newest version: `(checkpoint id, bytes)`.
fn oracle_latest(tiers: &TierChain, rank: u32) -> Result<(u32, Vec<u8>), LineageError> {
    let (base, mut versions) = restore_rank(tiers, rank)?;
    let last = base + versions.len() as u32 - 1;
    Ok((
        last,
        versions.pop().expect("a collected chain has a version"),
    ))
}

fn chain(rebase_at: Option<u32>) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let mut ckpt = TreeCheckpointer::new(Device::a100(), TreeConfig::new(CHUNK));
    let mut data: Vec<u8> = (0..6000u32).map(|i| ((i * 37) % 251) as u8).collect();
    let mut snaps = Vec::new();
    let mut encoded = Vec::new();
    for k in 0..CKPTS {
        if k > 0 {
            let len = data.len();
            for j in 0..48 {
                data[(k as usize * 769 + j * 31) % len] ^= 0x3c;
            }
        }
        snaps.push(data.clone());
        let out = if rebase_at == Some(k) {
            ckpt.rebase_checkpoint(&data)
        } else {
            ckpt.checkpoint(&data)
        };
        encoded.push(out.diff.encode());
    }
    (snaps, encoded)
}

/// Cell 1 of the matrix, for every record: the PFS copy is corrupt but a
/// valid host copy exists. Both engines must restore bit-exact (locate
/// skips, quarantines and repairs the corrupt copy), and the integrity
/// counters must record exactly one corruption and one repair.
#[test]
fn redundant_copy_corruption_is_transparent_for_every_record() {
    let (snaps, encoded) = chain(None);
    for victim in 0..CKPTS {
        let plan = FaultPlan::builder()
            .on_put("pfs", victim as u64, FaultKind::BitFlip { bit: 100 })
            .build();
        let tiers = TierChain::with_faults(plan);
        for (k, bytes) in encoded.iter().enumerate() {
            tiers.pfs.put((0, k as u32), bytes.clone()).unwrap();
            tiers.host.put((0, k as u32), bytes.clone()).unwrap();
        }
        let device = Device::a100();
        let par = restore_rank_latest_parallel(&tiers, &device, 0, None)
            .unwrap_or_else(|e| panic!("victim {victim}: parallel restore failed: {e}"));
        assert_eq!(par.version, CKPTS - 1, "victim {victim}");
        assert_eq!(&par.data, snaps.last().unwrap(), "victim {victim}");

        // The walk only touches records its resolution still needs, so the
        // corrupt copy is observed lazily; force full accounting and
        // reconcile with the counters.
        let (base, versions) = restore_rank(&tiers, 0).unwrap();
        assert_eq!(base, 0, "victim {victim}");
        assert_eq!(versions.len(), CKPTS as usize, "victim {victim}");
        for (k, v) in versions.iter().enumerate() {
            assert_eq!(v, &snaps[k], "victim {victim} version {k}");
        }
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
    let (snaps, encoded) = chain(None);
    for victim in 0..CKPTS {
        let plan = FaultPlan::builder()
            .on_put(
                "pfs",
                victim as u64,
                FaultKind::TornWrite { keep_bytes: 10 },
            )
            .build();
        let tiers = TierChain::with_faults(plan);
        for (k, bytes) in encoded.iter().enumerate() {
            tiers.pfs.put((0, k as u32), bytes.clone()).unwrap();
        }
        let device = Device::a100();
        let par = restore_rank_latest_parallel(&tiers, &device, 0, None);
        let seq = oracle_latest(&tiers, 0);
        if victim == CKPTS - 1 {
            // The newest record is gone; the chain just ends one earlier.
            let par = par.unwrap_or_else(|e| panic!("victim {victim}: {e}"));
            let (seq_last, seq_bytes) = seq.unwrap();
            assert_eq!((par.version, seq_last), (CKPTS - 2, CKPTS - 2));
            assert_eq!(par.data, seq_bytes);
            assert_eq!(&par.data, &snaps[victim as usize - 1]);
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
    let (snaps, encoded) = chain(Some(rebase_at));
    for victim in 0..CKPTS {
        let plan = FaultPlan::builder()
            .on_put(
                "pfs",
                victim as u64,
                FaultKind::TornWrite { keep_bytes: 10 },
            )
            .build();
        let tiers = TierChain::with_faults(plan);
        for (k, bytes) in encoded.iter().enumerate() {
            tiers.pfs.put((0, k as u32), bytes.clone()).unwrap();
        }
        let device = Device::a100();
        let par = restore_rank_latest_parallel(&tiers, &device, 0, None);
        match victim {
            v if v < rebase_at => {
                // The chain restores from the rebase record; the lost
                // record below it was already logically compacted away.
                let par = par.unwrap_or_else(|e| panic!("victim {victim}: {e}"));
                assert_eq!(par.version, CKPTS - 1);
                assert_eq!(&par.data, snaps.last().unwrap(), "victim {victim}");
                let (last, seq_bytes) = oracle_latest(&tiers, 0).unwrap();
                assert_eq!((last, &seq_bytes), (par.version, &par.data));
            }
            v if v == CKPTS - 1 => {
                let par = par.unwrap_or_else(|e| panic!("victim {victim}: {e}"));
                assert_eq!(par.version, CKPTS - 2);
                assert_eq!(&par.data, &snaps[victim as usize - 1], "victim {victim}");
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
