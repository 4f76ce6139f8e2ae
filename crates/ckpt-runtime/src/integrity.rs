//! Integrity accounting: telemetry counters for frame verification and the
//! [`RecoveryReport`] produced by post-crash recovery.
//!
//! Counter inventory (stable JSON keys, created lazily so registries that
//! never see an integrity event keep their pre-existing schema):
//!
//! | metric | kind | meaning |
//! |---|---|---|
//! | `integrity/frames_verified` | counter | frames that passed verification on a read path |
//! | `integrity/frames_corrupt` | counter | frames that failed verification (quarantined) |
//! | `integrity/frames_repaired` | counter | corrupt copies rewritten from a redundant valid copy |

use crate::tier::ObjectId;
use ckpt_dedup::Bytes;
use ckpt_telemetry::{JsonWriter, LazyCounter, Registry};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Lazily-registered integrity counters bound to a telemetry registry, so
/// that a runtime which never touches an integrity path exports exactly
/// the same metric set as before this subsystem existed.
pub struct IntegrityCounters {
    verified: LazyCounter,
    corrupt: LazyCounter,
    repaired: LazyCounter,
}

impl IntegrityCounters {
    /// Counters that will register into `registry` on first use.
    pub fn bound(registry: Arc<Registry>) -> Self {
        let lazy = |name| LazyCounter::new(Some(&registry), name);
        IntegrityCounters {
            verified: lazy("integrity/frames_verified"),
            corrupt: lazy("integrity/frames_corrupt"),
            repaired: lazy("integrity/frames_repaired"),
        }
    }

    /// Counters backed by a private registry (for tier chains constructed
    /// without a runtime; counts still accumulate and can be read back).
    pub fn detached() -> Self {
        Self::bound(Arc::new(Registry::new()))
    }

    pub fn on_verified(&self) {
        self.verified.inc();
    }

    pub fn on_corrupt(&self) {
        self.corrupt.inc();
    }

    pub fn on_repaired(&self) {
        self.repaired.inc();
    }

    pub fn verified_count(&self) -> u64 {
        self.verified.get()
    }

    pub fn corrupt_count(&self) -> u64 {
        self.corrupt.get()
    }

    pub fn repaired_count(&self) -> u64 {
        self.repaired.get()
    }
}

/// Post-recovery status of one stored object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectStatus {
    /// The durable (PFS) copy verified bit-exact.
    Verified,
    /// The durable copy was corrupt but was rewritten from a redundant
    /// valid copy in a higher tier.
    Repaired,
    /// Every local copy was lost or corrupt, but the object was rebuilt
    /// bit-identically from its cross-rank redundancy group (XOR parity)
    /// and re-stored on the PFS.
    RestoredFromGroup,
    /// A durable copy existed but was corrupt with no redundant copy.
    LostCorrupt,
    /// The object never became durable; surviving copies (if any) lived in
    /// volatile tiers. Includes staged-but-corrupt objects.
    LostVolatile,
}

impl ObjectStatus {
    pub fn name(&self) -> &'static str {
        match self {
            ObjectStatus::Verified => "verified",
            ObjectStatus::Repaired => "repaired",
            ObjectStatus::RestoredFromGroup => "restored_from_group",
            ObjectStatus::LostCorrupt => "lost_corrupt",
            ObjectStatus::LostVolatile => "lost_volatile",
        }
    }

    /// Whether the object is usable for restart after recovery.
    pub fn is_durable(&self) -> bool {
        matches!(
            self,
            ObjectStatus::Verified | ObjectStatus::Repaired | ObjectStatus::RestoredFromGroup
        )
    }
}

/// One object's recovery outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveredObject {
    pub ckpt_id: u32,
    pub status: ObjectStatus,
}

/// Recovery outcome for one rank: every known object's status plus the
/// newest usable chain (`base..base + prefix_len` all durable, in order).
#[derive(Debug, Clone)]
pub struct RankRecovery {
    pub rank: u32,
    /// All objects observed for this rank, sorted by checkpoint id.
    pub objects: Vec<RecoveredObject>,
    /// First checkpoint id of the usable chain. 0 unless chain compaction
    /// garbage-collected everything below a self-contained rebase record.
    pub base: u32,
    /// Length of the contiguous durable run starting at `base`.
    pub prefix_len: usize,
    /// Decoded (unframed) payloads of the usable chain, in order
    /// (`payloads[i]` is checkpoint `base + i`).
    pub payloads: Vec<Bytes>,
}

impl RankRecovery {
    pub fn count(&self, status: ObjectStatus) -> usize {
        self.objects.iter().filter(|o| o.status == status).count()
    }
}

/// Aggregate recovery outcome across ranks, with per-status totals.
/// Replaces the old "silently return whatever prefix survived" contract:
/// callers can now distinguish verified, repaired and lost objects.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Per-rank outcomes, sorted by rank.
    pub ranks: Vec<RankRecovery>,
}

impl RecoveryReport {
    pub fn total(&self, status: ObjectStatus) -> usize {
        self.ranks.iter().map(|r| r.count(status)).sum()
    }

    pub fn total_verified(&self) -> usize {
        self.total(ObjectStatus::Verified)
    }

    pub fn total_repaired(&self) -> usize {
        self.total(ObjectStatus::Repaired)
    }

    /// Objects rebuilt from a cross-rank redundancy group.
    pub fn total_restored_from_group(&self) -> usize {
        self.total(ObjectStatus::RestoredFromGroup)
    }

    pub fn total_lost(&self) -> usize {
        self.total(ObjectStatus::LostCorrupt) + self.total(ObjectStatus::LostVolatile)
    }

    /// All objects across ranks, for reconciliation with counters.
    pub fn total_objects(&self) -> usize {
        self.ranks.iter().map(|r| r.objects.len()).sum()
    }

    /// Objects that are usable for restart (Σ durable prefix lengths).
    pub fn total_durable_prefix(&self) -> usize {
        self.ranks.iter().map(|r| r.prefix_len).sum()
    }

    /// The legacy recovery view: rank → durable prefix payloads.
    pub fn into_prefixes(self) -> HashMap<u32, Vec<Bytes>> {
        self.ranks
            .into_iter()
            .map(|r| (r.rank, r.payloads))
            .collect()
    }

    /// JSON rendering (stable keys) for the `fault-matrix` CI artifact and
    /// `ckpt verify`-style reporting.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("total_objects").u64(self.total_objects() as u64);
        w.key("verified").u64(self.total_verified() as u64);
        w.key("repaired").u64(self.total_repaired() as u64);
        // Only clusters running a redundancy group can produce this
        // status; the key is omitted at zero so redundancy-off reports
        // stay byte-identical to the pre-redundancy schema.
        if self.total_restored_from_group() > 0 {
            w.key("restored_from_group")
                .u64(self.total_restored_from_group() as u64);
        }
        w.key("lost_corrupt")
            .u64(self.total(ObjectStatus::LostCorrupt) as u64);
        w.key("lost_volatile")
            .u64(self.total(ObjectStatus::LostVolatile) as u64);
        w.key("durable_prefix")
            .u64(self.total_durable_prefix() as u64);
        w.key("ranks").begin_array();
        for r in &self.ranks {
            w.begin_object();
            w.key("rank").u64(r.rank as u64);
            w.key("base").u64(r.base as u64);
            w.key("prefix_len").u64(r.prefix_len as u64);
            w.key("objects").begin_array();
            for o in &r.objects {
                w.begin_object();
                w.key("ckpt_id").u64(o.ckpt_id as u64);
                w.key("status").string(o.status.name());
                w.end_object();
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }

    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }
}

/// Group object ids by rank — ranks ascending, each rank's ids sorted and
/// de-duplicated — so whoever walks the result does so in one fixed order.
pub(crate) fn group_by_rank(ids: impl IntoIterator<Item = ObjectId>) -> BTreeMap<u32, Vec<u32>> {
    let mut by_rank: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for (rank, ckpt) in ids {
        by_rank.entry(rank).or_default().push(ckpt);
    }
    for ckpts in by_rank.values_mut() {
        ckpts.sort_unstable();
        ckpts.dedup();
    }
    by_rank
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_lazily_register() {
        let registry = Arc::new(Registry::new());
        let before = registry.snapshot_json();
        let c = IntegrityCounters::bound(Arc::clone(&registry));
        assert_eq!(c.verified_count(), 0);
        // Unused counters leave the registry untouched.
        assert_eq!(registry.snapshot_json(), before);
        c.on_verified();
        c.on_verified();
        c.on_corrupt();
        c.on_repaired();
        assert_eq!(c.verified_count(), 2);
        assert_eq!(c.corrupt_count(), 1);
        assert_eq!(c.repaired_count(), 1);
        assert_eq!(registry.counter("integrity/frames_verified").get(), 2);
        assert_eq!(registry.counter("integrity/frames_corrupt").get(), 1);
        assert_eq!(registry.counter("integrity/frames_repaired").get(), 1);
    }

    #[test]
    fn report_totals_and_json() {
        let report = RecoveryReport {
            ranks: vec![RankRecovery {
                rank: 2,
                objects: vec![
                    RecoveredObject {
                        ckpt_id: 0,
                        status: ObjectStatus::Verified,
                    },
                    RecoveredObject {
                        ckpt_id: 1,
                        status: ObjectStatus::Repaired,
                    },
                    RecoveredObject {
                        ckpt_id: 2,
                        status: ObjectStatus::LostVolatile,
                    },
                ],
                base: 0,
                prefix_len: 2,
                payloads: vec![vec![1].into(), vec![2].into()],
            }],
        };
        assert_eq!(report.total_verified(), 1);
        assert_eq!(report.total_repaired(), 1);
        assert_eq!(report.total_lost(), 1);
        assert_eq!(report.total_objects(), 3);
        assert_eq!(report.total_durable_prefix(), 2);
        let json = report.to_json();
        for key in [
            "\"total_objects\":3",
            "\"verified\":1",
            "\"repaired\":1",
            "\"lost_volatile\":1",
            "\"prefix_len\":2",
            "\"status\":\"repaired\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let prefixes = report.into_prefixes();
        assert_eq!(prefixes[&2], vec![vec![1], vec![2]]);
    }

    #[test]
    fn grouping_sorts_and_dedups() {
        let grouped = group_by_rank([(7, 2), (1, 3), (0, 1), (1, 0), (1, 3), (0, 0)]);
        let want = [(0, vec![0, 1]), (1, vec![0, 3]), (7, vec![2])];
        assert_eq!(grouped.into_iter().collect::<Vec<_>>(), want);
    }
}
