//! The **Basic** baseline: position-wise incremental checkpointing.
//!
//! "A Basic incremental checkpointing method that breaks the checkpoint into
//! chunks, hashes the chunks, then builds a bitmap to indicate what chunks
//! are new and what chunks remain unchanged. It saves the bitmap and the new
//! chunks" (§3.2). It detects *fixed* duplicates only — no spatial
//! de-duplication, no shifted duplicates — but its metadata is a single bit
//! per chunk.

use crate::chunking::Chunking;
use crate::diff::{bitmap, Diff, MethodKind};
use crate::methods::{CheckpointOutput, Checkpointer, MemoryStats, StageRecorder, Timer};
use crate::stats::CheckpointStats;
use ckpt_hash::{Digest128, Hasher128, Murmur3};
use gpu_sim::{Device, KernelCost, TILE};
use std::sync::atomic::{AtomicU8, Ordering};

/// The Basic method's persistent state.
pub struct BasicCheckpointer {
    device: Device,
    hasher: Box<dyn Hasher128>,
    chunk_size: usize,
    state: Option<State>,
    ckpt_id: u32,
    /// Rebase mode for the current checkpoint: mark every chunk changed.
    force_all: bool,
}

struct State {
    chunking: Chunking,
    /// Previous checkpoint's chunk digests, indexed by chunk.
    prev: Vec<Digest128>,
}

impl BasicCheckpointer {
    pub fn new(device: Device, chunk_size: usize) -> Self {
        BasicCheckpointer {
            device,
            hasher: Box::new(Murmur3),
            chunk_size,
            state: None,
            ckpt_id: 0,
            force_all: false,
        }
    }
}

impl Checkpointer for BasicCheckpointer {
    fn kind(&self) -> MethodKind {
        MethodKind::Basic
    }

    fn checkpoint(&mut self, data: &[u8]) -> CheckpointOutput {
        let device = self.device.clone();
        let ckpt_id = self.ckpt_id;
        let timer = Timer::start(&device);
        if self.state.is_none() {
            let chunking = Chunking::new(data.len(), self.chunk_size);
            self.state = Some(State {
                chunking,
                prev: vec![Digest128::ZERO; chunking.n_chunks()],
            });
        }
        let hasher = &*self.hasher;
        let force_all = self.force_all;
        let state = self.state.as_mut().unwrap();
        assert_eq!(
            data.len(),
            state.chunking.data_len(),
            "checkpoint size changed mid-record"
        );
        let chunking = state.chunking;
        let n = chunking.n_chunks();

        // Per-checkpoint change flags come from the device arena; the lease
        // carries whatever the previous checkpoint left, so clear explicitly
        // (fresh allocations are zeroed the same way — pooled and unpooled
        // runs stay bit-identical).
        let mut changed = device.arena().lease::<AtomicU8>("basic/changed", n);
        {
            use rayon::prelude::*;
            changed
                .as_mut_slice()
                .par_chunks_mut(16 * 1024)
                .for_each(|chunk| {
                    for f in chunk {
                        *f.get_mut() = 0;
                    }
                });
        }
        let changed = changed;
        let prev = crate::util::SharedSliceMut::new(&mut state.prev);

        let mut rec = StageRecorder::start(&device);
        let (bm, payload, n_changed) = device.fused("basic_checkpoint", || {
            device.parallel_for_tiles(
                "basic_hash_compare",
                n,
                KernelCost::stream(data.len() as u64),
                || (),
                |(), tile| {
                    let mut digests = [Digest128::ZERO; TILE];
                    let digests = chunking.hash_tile(hasher, data, &tile, &mut digests);
                    for (c, &digest) in tile.zip(digests) {
                        // SAFETY: chunk index owned by this thread.
                        let old = unsafe { prev.read(c) };
                        if force_all || ckpt_id == 0 || digest != old {
                            changed[c].store(1, Ordering::Relaxed);
                            // SAFETY: as for the read: chunk `c` belongs to
                            // this tile alone, so no other thread touches it.
                            unsafe { prev.write(c, digest) };
                        }
                    }
                },
            );
            rec.mark("leaf_hash");

            // Build the bitmap and gather changed chunks. The bitmap is this
            // method's (uncompacted) metadata, so its construction is the
            // analogue of the Tree method's compaction stage. Each bitmap
            // byte is owned by one work item (8 chunks), so the build is a
            // data-parallel kernel; the segment list comes from a device
            // stream compaction over the same flags.
            let mut bm = vec![0u8; bitmap::bytes_for(n)];
            {
                use rayon::prelude::*;
                bm.par_iter_mut().enumerate().for_each(|(byte, out)| {
                    let mut v = 0u8;
                    for bit in 0..8 {
                        let c = byte * 8 + bit;
                        if c < n && changed[c].load(Ordering::Relaxed) == 1 {
                            v |= 1 << bit;
                        }
                    }
                    *out = v;
                });
            }
            let changed_idx = device.compact_where("basic_changed_chunks", n, |c| {
                changed[c].load(Ordering::Relaxed) == 1
            });
            let mut segments = device.arena().lease_with_floor::<(usize, usize)>(
                "basic/segments",
                changed_idx.len(),
                n,
            );
            for (seg, &c) in segments.as_mut_slice().iter_mut().zip(changed_idx.iter()) {
                let (a, b) = chunking.byte_range(c as usize);
                *seg = (a, b - a);
            }
            rec.mark("metadata_compact");
            let payload_len: usize = segments.iter().map(|s| s.1).sum();
            let mut staging =
                device
                    .arena()
                    .lease_with_floor::<u8>("basic/staging", payload_len, data.len());
            device.team_gather("basic_serialize", data, &segments, staging.as_mut_slice());
            rec.mark("gather_serialize");
            device.account_d2h_bytes(payload_len as u64);
            let payload = staging[..payload_len].to_vec();
            device.account_d2h_bytes(bm.len() as u64);
            rec.mark("d2h");
            (bm, payload, changed_idx.len() as u64)
        });
        let breakdown = rec.finish(MethodKind::Basic, ckpt_id);

        let diff = Diff {
            kind: MethodKind::Basic,
            ckpt_id,
            data_len: chunking.data_len() as u64,
            chunk_size: chunking.chunk_size() as u32,
            first_regions: Vec::new(),
            shift_regions: Vec::new(),
            bitmap: bm.into(),
            payload: payload.into(),
        };
        let unchanged = n as u64 - n_changed;
        let stats = CheckpointStats::of(&diff, n_changed, 0, unchanged, timer.stop(&device));
        self.ckpt_id += 1;
        CheckpointOutput {
            diff,
            stats,
            breakdown,
        }
    }

    /// Rebase: one checkpoint with every chunk stored (bitmap all ones).
    /// `prev` is still refreshed by the kernel, so the next incremental
    /// checkpoint diffs against the rebase content as usual.
    fn rebase_checkpoint(&mut self, data: &[u8]) -> CheckpointOutput {
        self.force_all = true;
        let out = self.checkpoint(data);
        self.force_all = false;
        out
    }

    fn device_state_bytes(&self) -> usize {
        self.state.as_ref().map_or(0, |s| s.prev.len() * 16)
    }

    /// Restarting the record only needs the id reset: at `ckpt_id == 0` the
    /// hash-compare kernel marks every chunk changed regardless of `prev`.
    fn reset_record(&mut self) {
        self.ckpt_id = 0;
    }

    /// Basic keeps no historical record; the map counters stay zero.
    fn memory_stats(&self) -> MemoryStats {
        MemoryStats::of(&self.device, None)
    }
}
