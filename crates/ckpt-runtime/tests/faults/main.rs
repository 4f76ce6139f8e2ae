//! Fault-schedule harness: seeded, replayable schedules of submissions,
//! injected faults, kills and recoveries, audited against the snapshots
//! they were built from.
//!
//! A [`FaultPlan`](ckpt_runtime::FaultPlan) keys faults on per-tier
//! operation ordinals, so a whole schedule — which faults fire, which
//! objects verify, repair or get lost — is a pure function of its
//! parameters. [`support`] builds every workload, runs every
//! submit–kill–recover schedule and holds the one audit:
//!
//! 1. every recovered payload is the submitted record and every usable
//!    chain replays from its base bit-exact to the original snapshots —
//!    recovery never hands back a silently wrong byte;
//! 2. each accepted object of a rank no `RankLoss` took is accounted for
//!    exactly once, nothing unaccepted is reported, and no object is
//!    restored from a redundancy group the runtime does not have;
//! 3. the objects recovery classifies from the PFS reconcile with the
//!    runtime's `runtime/durable` counter, within the fault budget;
//! 4. with no fault and no kill nothing is lost and every version
//!    restores (the fault-free tests in [`crash`]).
//!
//! The suites add their own scenarios: [`crash`] (per-method crash,
//! compaction-window and compressed schedules, and the fixed-seed fault
//! matrix whose reports CI uploads), [`rank_loss`] (whole-rank losses
//! under XOR groups and the claim exchange's faults),
//! [`rank_dedup`] (the cluster dedup index on vs off) and [`corruption`]
//! (one damaged record at a time against the sequential oracle).

// A test drives threads, clocks, files and codecs directly; the rules of
// `clippy.toml` hold production code.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

mod corruption;
mod crash;
mod rank_dedup;
mod rank_loss;
mod support;
