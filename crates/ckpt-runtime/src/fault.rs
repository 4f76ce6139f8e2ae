//! Deterministic, seedable fault injection for storage tiers.
//!
//! A [`FaultPlan`] schedules faults against the *Nth operation of a given
//! kind on a given tier* — never against wall-clock time or thread identity
//! — so the set of faults that fire is a pure function of the operation
//! sequence each tier observes. Plans carry all of their state internally
//! (per-tier operation counters, the fired-fault log); there is no global
//! registry, so independent tests compose freely.
//!
//! Supported fault kinds, mirroring the failure taxonomy of multi-level
//! checkpointing runtimes (VeloC, FTI):
//!
//! * **Torn write** — only a prefix of the framed object reaches the tier,
//!   the artifact of a crash racing a write. Detected at read time by frame
//!   verification.
//! * **Bit flip** — silent media corruption of a stored object.
//! * **Transient I/O error** — a `put`/`get` fails once; retry succeeds.
//! * **Latency spike** — an operation stalls for a bounded, modeled delay.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Which tier operation a fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    Put,
    Get,
}

/// What happens when a scheduled fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// Keep only the first `keep_bytes` of the framed object (put only).
    TornWrite { keep_bytes: u32 },
    /// Flip stored bit `bit % (len * 8)` of the framed object (put only).
    BitFlip { bit: u64 },
    /// Fail the operation with a transient I/O error.
    TransientIo,
    /// Delay the operation by `micros` microseconds, then proceed.
    LatencySpike { micros: u32 },
    /// Whole-rank node loss: every object rank `rank` holds in the
    /// *volatile* tiers (host, SSD) — resident or quarantined — is wiped,
    /// along with any redundancy-group objects hosted on that rank. The
    /// operation that trips the fault proceeds normally; the wipe is
    /// applied by the tier chain at its next deterministic poll point
    /// (flush start, locate, recovery). The durable PFS tier survives.
    RankLoss { rank: u32 },
}

/// One scheduled fault: the `ordinal`-th `op` on tier `tier` (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    pub tier: &'static str,
    pub op: OpKind,
    pub ordinal: u64,
    pub kind: FaultKind,
}

/// A fault that actually fired, recorded in plan order for assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FiredFault {
    pub tier: &'static str,
    pub op: OpKind,
    pub ordinal: u64,
    pub kind: FaultKind,
}

#[derive(Default)]
struct PlanState {
    /// Next operation ordinal per (tier, op kind).
    counters: HashMap<(&'static str, OpKind), u64>,
    fired: Vec<FiredFault>,
}

/// A deterministic schedule of tier faults. Construct with
/// [`FaultPlan::builder`] for explicit schedules or
/// [`FaultPlan::from_seed`] for randomized-but-reproducible ones, then hand
/// an `Arc` of it to [`Tier::with_faults`](crate::tier::Tier::with_faults)
/// (or [`TierChain::with_faults`](crate::chain::TierChain::with_faults)).
pub struct FaultPlan {
    scheduled: HashMap<(&'static str, OpKind, u64), FaultKind>,
    state: Mutex<PlanState>,
}

impl FaultPlan {
    /// A plan with no faults (useful as a baseline in parameterized tests).
    pub fn empty() -> Arc<Self> {
        FaultPlanBuilder::new().build()
    }

    pub fn builder() -> FaultPlanBuilder {
        FaultPlanBuilder::new()
    }

    /// A randomized plan derived entirely from `seed`: `count` faults are
    /// placed on uniformly-chosen tiers, op kinds and ordinals in
    /// `0..horizon`, with kinds drawn from the full taxonomy. The same seed
    /// always produces the same schedule.
    pub fn from_seed(seed: u64, count: usize, horizon: u64) -> Arc<Self> {
        let mut rng = SplitMix64::new(seed);
        let mut b = FaultPlanBuilder::new();
        let tiers = ["host", "ssd", "pfs"];
        for _ in 0..count {
            let tier = tiers[(rng.next() % 3) as usize];
            let ordinal = rng.next() % horizon.max(1);
            let (op, kind) = match rng.next() % 5 {
                0 => (
                    OpKind::Put,
                    FaultKind::TornWrite {
                        keep_bytes: (rng.next() % 64) as u32,
                    },
                ),
                1 => (OpKind::Put, FaultKind::BitFlip { bit: rng.next() }),
                2 => (OpKind::Put, FaultKind::TransientIo),
                3 => (OpKind::Get, FaultKind::TransientIo),
                _ => (
                    OpKind::Put,
                    FaultKind::LatencySpike {
                        micros: (rng.next() % 200) as u32,
                    },
                ),
            };
            b = b.fault(tier, op, ordinal, kind);
        }
        b.build()
    }

    /// Like [`from_seed`](Self::from_seed), but the taxonomy additionally
    /// includes [`FaultKind::RankLoss`] events targeting one of `ranks`
    /// ranks (cluster failure schedules for redundancy-group tests). Kept
    /// as a separate constructor so every schedule `from_seed` ever
    /// produced stays byte-stable.
    pub fn from_seed_clustered(seed: u64, count: usize, horizon: u64, ranks: u32) -> Arc<Self> {
        let mut rng = SplitMix64::new(seed);
        let mut b = FaultPlanBuilder::new();
        let tiers = ["host", "ssd", "pfs"];
        for _ in 0..count {
            let tier = tiers[(rng.next() % 3) as usize];
            let ordinal = rng.next() % horizon.max(1);
            let (op, kind) = match rng.next() % 6 {
                0 => (
                    OpKind::Put,
                    FaultKind::TornWrite {
                        keep_bytes: (rng.next() % 64) as u32,
                    },
                ),
                1 => (OpKind::Put, FaultKind::BitFlip { bit: rng.next() }),
                2 => (OpKind::Put, FaultKind::TransientIo),
                3 => (OpKind::Get, FaultKind::TransientIo),
                4 => (
                    OpKind::Put,
                    FaultKind::RankLoss {
                        rank: (rng.next() % ranks.max(1) as u64) as u32,
                    },
                ),
                _ => (
                    OpKind::Put,
                    FaultKind::LatencySpike {
                        micros: (rng.next() % 200) as u32,
                    },
                ),
            };
            b = b.fault(tier, op, ordinal, kind);
        }
        b.build()
    }

    /// Called by a tier before performing an operation: advances that
    /// tier's op counter and returns the fault to apply, if one is due.
    pub fn next_op(&self, tier: &'static str, op: OpKind) -> Option<FaultKind> {
        let mut state = self.state.lock();
        let counter = state.counters.entry((tier, op)).or_insert(0);
        let ordinal = *counter;
        *counter += 1;
        let kind = self.scheduled.get(&(tier, op, ordinal)).copied()?;
        state.fired.push(FiredFault {
            tier,
            op,
            ordinal,
            kind,
        });
        Some(kind)
    }

    /// Every scheduled fault, sorted (tier, op, ordinal).
    pub fn scheduled(&self) -> Vec<FaultSpec> {
        let mut out: Vec<FaultSpec> = self
            .scheduled
            .iter()
            .map(|(&(tier, op, ordinal), &kind)| FaultSpec {
                tier,
                op,
                ordinal,
                kind,
            })
            .collect();
        out.sort_by_key(|s| (s.tier, s.op, s.ordinal));
        out
    }

    /// Faults that have fired so far, sorted (tier, op, ordinal) so the
    /// result is independent of thread interleaving.
    pub fn fired(&self) -> Vec<FiredFault> {
        let mut out = self.state.lock().fired.clone();
        out.sort();
        out
    }

    /// Total operations observed per (tier, op kind), sorted.
    pub fn op_counts(&self) -> Vec<((&'static str, OpKind), u64)> {
        let mut out: Vec<_> = self
            .state
            .lock()
            .counters
            .iter()
            .map(|(&k, &v)| (k, v))
            .collect();
        out.sort();
        out
    }
}

/// Builder for explicit fault schedules.
#[derive(Default)]
pub struct FaultPlanBuilder {
    scheduled: HashMap<(&'static str, OpKind, u64), FaultKind>,
}

impl FaultPlanBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `kind` for the `ordinal`-th `op` on `tier` (0-based). A
    /// later spec for the same slot replaces the earlier one.
    pub fn fault(mut self, tier: &'static str, op: OpKind, ordinal: u64, kind: FaultKind) -> Self {
        self.scheduled.insert((tier, op, ordinal), kind);
        self
    }

    /// Shorthand: fault the `ordinal`-th put on `tier`.
    pub fn on_put(self, tier: &'static str, ordinal: u64, kind: FaultKind) -> Self {
        self.fault(tier, OpKind::Put, ordinal, kind)
    }

    /// Shorthand: fault the `ordinal`-th get on `tier`.
    pub fn on_get(self, tier: &'static str, ordinal: u64, kind: FaultKind) -> Self {
        self.fault(tier, OpKind::Get, ordinal, kind)
    }

    pub fn build(self) -> Arc<FaultPlan> {
        Arc::new(FaultPlan {
            scheduled: self.scheduled,
            state: Mutex::new(PlanState::default()),
        })
    }
}

/// Apply a latency-spike fault (the only kind with a time component);
/// callers handle the rest inline. Kept here so the sleep policy lives next
/// to the taxonomy.
pub(crate) fn apply_latency(kind: &FaultKind) {
    if let FaultKind::LatencySpike { micros } = kind {
        #[expect(
            clippy::disallowed_methods,
            reason = "an injected latency spike models time"
        )]
        std::thread::sleep(Duration::from_micros(*micros as u64));
    }
}

/// What a storage fault ([`FaultKind::TornWrite`], [`FaultKind::BitFlip`])
/// leaves of `framed` on the device: a damaged **copy** — the frame handed
/// in may be shared with other tiers, so it is never written through.
/// `None` for every other kind (the frame lands as it is).
pub(crate) fn damaged_copy(kind: &FaultKind, framed: &[u8]) -> Option<Vec<u8>> {
    match *kind {
        FaultKind::TornWrite { keep_bytes } => {
            let keep = (keep_bytes as usize).min(framed.len().saturating_sub(1));
            Some(framed[..keep].to_vec())
        }
        FaultKind::BitFlip { bit } => {
            let mut copy = framed.to_vec();
            let nbits = (copy.len() * 8) as u64;
            if nbits > 0 {
                let at = (bit % nbits) as usize;
                copy[at / 8] ^= 1 << (at % 8);
            }
            Some(copy)
        }
        _ => None,
    }
}

/// SplitMix64: tiny deterministic generator for seeded plans (and for the
/// crash-consistency harness's schedules).
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_fire_on_exact_ordinals() {
        let plan = FaultPlan::builder()
            .on_put("ssd", 1, FaultKind::TransientIo)
            .on_get("ssd", 0, FaultKind::TransientIo)
            .build();
        assert_eq!(plan.next_op("ssd", OpKind::Put), None); // op 0
        assert_eq!(
            plan.next_op("ssd", OpKind::Put),
            Some(FaultKind::TransientIo) // op 1
        );
        assert_eq!(plan.next_op("ssd", OpKind::Put), None); // op 2
                                                            // Get counters are independent of put counters.
        assert_eq!(
            plan.next_op("ssd", OpKind::Get),
            Some(FaultKind::TransientIo)
        );
        // Other tiers are untouched.
        assert_eq!(plan.next_op("host", OpKind::Put), None);
        assert_eq!(plan.fired().len(), 2);
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        let a = FaultPlan::from_seed(1234, 16, 100);
        let b = FaultPlan::from_seed(1234, 16, 100);
        assert_eq!(a.scheduled(), b.scheduled());
        assert!(!a.scheduled().is_empty());
        let c = FaultPlan::from_seed(1235, 16, 100);
        assert_ne!(a.scheduled(), c.scheduled());
    }

    /// The same total operation sequence fires the same fault set no matter
    /// how many threads issue the operations: firing depends only on
    /// per-tier op ordinals.
    #[test]
    fn firing_is_deterministic_across_thread_counts() {
        let total_ops = 64u64;
        let mk = || FaultPlan::from_seed(77, 24, total_ops);
        let mut baselines = Vec::new();
        for threads in [1usize, 2, 4, 8] {
            let plan = mk();
            std::thread::scope(|s| {
                for t in 0..threads {
                    let plan = &plan;
                    let per = total_ops as usize / threads;
                    s.spawn(move || {
                        for _ in 0..per {
                            let _ = plan.next_op("host", OpKind::Put);
                            let _ = plan.next_op("ssd", OpKind::Put);
                            let _ = plan.next_op("ssd", OpKind::Get);
                            let _ = plan.next_op("pfs", OpKind::Put);
                        }
                        let _ = t;
                    });
                }
            });
            baselines.push((threads, plan.fired(), plan.op_counts()));
        }
        let (_, ref fired1, ref counts1) = baselines[0];
        for (threads, fired, counts) in &baselines[1..] {
            assert_eq!(fired, fired1, "fired set diverged at {threads} threads");
            assert_eq!(counts, counts1, "op counts diverged at {threads} threads");
        }
    }

    #[test]
    fn splitmix_is_stable() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next(), b.next());
        }
    }
}
