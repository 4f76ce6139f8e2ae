//! Merkle-tree based GPU-accelerated de-duplication for incremental
//! checkpointing — the core contribution of Tan et al., ICPP'23.
//!
//! High-frequency checkpointing workloads (adjoint computations,
//! reproducibility capture, lineage stores) must persist an entire record of
//! checkpoints, not just the latest. This crate de-duplicates each new
//! checkpoint against everything seen so far, at chunk granularity, directly
//! on the (simulated) GPU where the data lives:
//!
//! * chunks are hashed and classified as **first occurrences**, **fixed
//!   duplicates** (unchanged in place) or **shifted duplicates** (seen
//!   elsewhere in the record) — Algorithm 1 of the paper;
//! * contiguous runs with the same classification are consolidated bottom-up
//!   through a Merkle tree into a near-minimal set of regions, shrinking
//!   metadata by orders of magnitude versus per-chunk lists;
//! * the surviving metadata and unique chunks are serialized into one
//!   contiguous buffer and moved host-side with a single transfer.
//!
//! # Quick start
//!
//! ```
//! use ckpt_dedup::prelude::*;
//!
//! let device = gpu_sim::Device::a100();
//! let mut ckpt = TreeCheckpointer::new(device.clone(), TreeConfig::new(64));
//!
//! let mut data: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
//! let out0 = ckpt.checkpoint(&data);          // initial checkpoint: full
//! data[100] ^= 1;                             // sparse update
//! let out1 = ckpt.checkpoint(&data);          // tiny incremental diff
//! assert!(out1.diff.stored_bytes() < out0.diff.stored_bytes() / 10);
//!
//! // Reconstruct any version from the record.
//! let record = [out0.diff, out1.diff];
//! let (v1, _) = restore_version_single_pass(&device, 0, &record, 1).unwrap();
//! assert_eq!(v1, data);
//! ```
//!
//! # Methods
//!
//! [`new_checkpointer`] turns a [`MethodKind`] (or a name, through
//! [`MethodKind::from_name`]) into one of the four compared methods. Tree
//! and List are one pipeline — leaf pass, region building, reference
//! resolution, serialization — that differs in the region-building step
//! alone, so both take every [`TreeConfig`] option; Basic and Full read its
//! chunk size. The A3 ablation's single-stage sweep is a third step, at
//! [`methods::tree_naive`].
//!
//! # Restoring
//!
//! [`restart`] is the restore engine, the only one in this crate: one
//! newest→oldest pass that writes each chunk of the wanted version once,
//! plus [`check_chain`], which proves a whole chain restorable from its
//! region tables alone. The oracles it and the pipeline are tested against
//! — §2.2's sequential replay and the serial Tree checkpointer — live in
//! `ckpt_bench::oracle`, a dev-dependency of the integration tests only.

// The structural rules of `clippy.toml` hold production code; unit tests
// drive threads, clocks, files and codecs directly.
#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod bytes;
pub mod chunking;
pub mod diff;
pub mod frame;
pub mod labels;
pub mod methods;
pub mod record;
pub mod restart;
pub mod stats;
pub mod tree;
pub(crate) mod util;

pub use bytes::Bytes;
pub use chunking::Chunking;
pub use ckpt_telemetry::{StageBreakdown, StageSample};
pub use diff::{Diff, MethodKind, ShiftRegion};
pub use frame::{
    decode_frame, encode_frame, encode_frame_compressed, verify_frame, FrameError, FrameHeader,
    ParityMember, ParityRecord, RankDedupEntry, RecordIndex, RemoteRef, FRAME_EXT_LEN,
    FRAME_HEADER_LEN, FRAME_MAGIC, FRAME_VERSION,
};
pub use labels::Label;
pub use methods::basic::BasicCheckpointer;
pub use methods::full::FullCheckpointer;
pub use methods::list::ListCheckpointer;
pub use methods::tree::{TreeCheckpointer, TreeConfig};
pub use methods::{new_checkpointer, CheckpointOutput, Checkpointer};
pub use record::{run_record, CheckpointRecord};
pub use restart::{
    check_chain, is_self_contained, restore_latest_single_pass, restore_version_single_pass,
    RestartStats, RestoreError, SinglePassRestore,
};
pub use stats::{CheckpointStats, RecordStats};
pub use tree::{MerkleTree, TreeShape};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::methods::basic::BasicCheckpointer;
    pub use crate::methods::full::FullCheckpointer;
    pub use crate::methods::list::ListCheckpointer;
    pub use crate::methods::tree::{TreeCheckpointer, TreeConfig};
    pub use crate::methods::{new_checkpointer, CheckpointOutput, Checkpointer};
    pub use crate::record::{run_record, CheckpointRecord};
    pub use crate::restart::{
        check_chain, is_self_contained, restore_latest_single_pass, restore_version_single_pass,
        SinglePassRestore,
    };
    pub use crate::stats::{CheckpointStats, RecordStats};
    pub use crate::MethodKind;
}
