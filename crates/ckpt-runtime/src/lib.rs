//! Multi-level asynchronous checkpointing runtime (the paper's Fig. 3
//! architecture, VeloC-style).
//!
//! Application processes de-duplicate on their (simulated) GPU, hand the
//! consolidated diff to this runtime, and resume computing; a background
//! flusher drains host memory → node-local SSD → parallel file system with
//! modeled tier bandwidths. The runtime also provides the restart path:
//! recovering the durable prefix of each rank's record after a failure and
//! resolving it back into checkpoint contents.
//!
//! * [`tier`] — simulated storage tiers with bandwidth/capacity accounting,
//!   integrity framing and the one bounded retry of tier reads and writes;
//! * [`chain`] — the host/SSD/PFS [`TierChain`] and its read side: locate,
//!   quarantine, repair, post-crash recovery — plus [`compact_below`], the
//!   one garbage collection below a durable rebase point;
//! * [`compress`] — the post-dedup compression stage: per-object adaptive
//!   codec selection, pool-parallel encode, lazy `compress/*` telemetry;
//! * [`fault`] — deterministic, seedable fault injection;
//! * [`integrity`] — frame-verification counters and recovery reports;
//! * [`runtime`] — [`RuntimeConfig`] and [`AsyncRuntime`]: the one place
//!   a runtime is assembled, submission, durability waits, kill/recover
//!   (its flusher thread — the Fig. 3 stage list with retry and
//!   degradation — is the private `flusher` module);
//! * [`pipeline`] — the double-buffered submit tail that overlaps one
//!   checkpoint's serialize/D2H/submit with the next one's hashing;
//! * [`redundancy`] — cross-rank redundancy groups (XOR parity stripes)
//!   enabling cluster-level rank-loss recovery;
//! * [`rankdedup`] — the cluster-wide content-addressed dedup index:
//!   hash-space sharding across a group's ranks, a seeded (thread-free)
//!   first-occurrence claim exchange, cross-rank reference records;
//! * [`lineage`] — record collection (the hole rule): the run of records
//!   a restore reads;
//! * [`restore`] — the restore engine: a record reader running ahead of a
//!   single-pass resolution walk;
//! * [`cluster_dir`] — the on-disk record layout: export a chain to a
//!   directory, import it back unverified, and the one `verify`.

// The structural rules of `clippy.toml` hold production code; unit tests
// drive threads, clocks, files and codecs directly.
#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod chain;
pub mod cluster_dir;
pub mod compress;
pub mod fault;
mod flusher;
pub mod integrity;
pub mod lineage;
pub mod pipeline;
pub mod rankdedup;
pub mod redundancy;
pub mod restore;
pub mod runtime;
pub mod tier;

pub use chain::{compact_below, ChainReader, TierChain};
pub use cluster_dir::{ClusterDir, Layout, VerifyReport, VerifyStatus};
pub use compress::{CompressMetrics, CompressionEngine, CompressionPolicy};
pub use fault::{
    FaultKind, FaultPlan, FaultPlanBuilder, FaultSpec, FiredFault, OpKind, SplitMix64,
};
pub use integrity::{
    IntegrityCounters, ObjectStatus, RankRecovery, RecoveredObject, RecoveryReport,
};
pub use lineage::{collect_record, LineageError};
pub use pipeline::{CheckpointPipeline, PipelineStats, ProduceFn};
pub use rankdedup::{
    resolve_record, RankDedupConfig, RankDedupEngine, RankDedupError, RankDedupIndex,
    RankDedupMetrics, Resolver,
};
pub use redundancy::{ReconstructError, RedundancyMetrics, RedundancyPolicy, RedundancyStore};
pub use restore::{restore_rank_latest_parallel, ParallelRestoreOutcome, READ_AHEAD};
pub use runtime::{AsyncRuntime, RuntimeConfig};
pub use tier::{ObjectState, StoreError, StoreErrorKind, StoredObject, Tier, TierConfig};
