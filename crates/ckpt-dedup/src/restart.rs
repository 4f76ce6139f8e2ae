//! Single-pass parallel restart: last-writer-wins restore without
//! materializing intermediate checkpoints.
//!
//! The sequential [`Restorer`](crate::restore::Restorer) replays a record
//! front-to-back, cloning and patching every version on the way to the one
//! that is actually wanted — O(chain length × checkpoint size) bytes moved
//! for a single restore. This module walks the chain the other way: starting
//! from the target checkpoint, a per-chunk **resolution table** records which
//! record position must supply each chunk. Visiting records newest→oldest,
//! a device kernel advances every unresolved chunk through the current
//! record's region tables — a chunk covered by payload is *finalized* (its
//! source record and payload offset are now known), a chunk covered by a
//! shifted duplicate is redirected (possibly to an older record), and an
//! uncovered chunk is a fixed duplicate that simply carries to the
//! next-older record. Each visited record then contributes exactly one
//! parallel `copy_regions` wave for the chunks it finalized. Total bytes
//! moved: one checkpoint's worth, regardless of chain length.
//!
//! **Determinism:** every chunk's resolution is a pure function of the
//! record's region tables — threads never exchange data — so the restored
//! bytes are identical at any thread count, and identical to the sequential
//! replay (the per-chunk walk computes exactly the provenance the sequential
//! clone-and-patch loop realizes in place).
//!
//! Chains whose head is a **rebase record** (see
//! [`Checkpointer::rebase_checkpoint`](crate::methods::Checkpointer::rebase_checkpoint))
//! short-circuit: a self-contained record finalizes every remaining chunk,
//! so older records are never visited — the chain-compaction payoff.

use crate::chunking::Chunking;
use crate::diff::{bitmap, Diff, MethodKind};
use crate::restore::{copy_regions, decoded_payload, RestoreError};
use crate::tree::TreeShape;
use crate::util::SharedSliceMut;
use gpu_sim::{ArenaLease, Device, KernelCost};

/// Per-chunk resolution status after a record visit (kernel → host codes).
const ST_CARRIED: u32 = 0;
const ST_PAYLOAD: u32 = 1;
const ST_ZERO: u32 = 2;
const ST_CYCLE: u32 = 3;

/// Counters describing one single-pass restore.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestartStats {
    /// Records the resolution walk actually visited (≤ chain length; a
    /// self-contained rebase record stops the walk).
    pub records_visited: u32,
    /// Copy regions materialized across all per-record waves.
    pub regions_copied: u64,
    /// Payload bytes copied into the restored buffer.
    pub bytes_copied: u64,
    /// Chunks that resolved to the zero prefix below the record base.
    pub zero_chunks: u64,
}

/// Does this diff reference no earlier checkpoint? Structural check used to
/// recognize rebase records: a self-contained record is a legal chain base.
pub fn is_self_contained(diff: &Diff) -> bool {
    let ck = Chunking::new(diff.data_len as usize, diff.chunk_size as usize);
    let n = ck.n_chunks();
    match diff.kind {
        MethodKind::Full => true,
        MethodKind::Basic => (0..n).all(|c| bitmap::get(&diff.bitmap, c)),
        MethodKind::List | MethodKind::Tree => {
            if diff
                .shift_regions
                .iter()
                .any(|s| s.ref_ckpt != diff.ckpt_id)
            {
                return false;
            }
            // Every chunk must be covered by a payload or shift region;
            // an uncovered chunk would inherit from the previous version.
            let shape = TreeShape::new(n);
            let mut covered = vec![false; n];
            for &node in &diff.first_regions {
                let (clo, chi) = shape.chunk_range(node as usize);
                covered[clo..chi].fill(true);
            }
            for s in &diff.shift_regions {
                let (clo, chi) = shape.chunk_range(s.node as usize);
                covered[clo..chi].fill(true);
            }
            covered.into_iter().all(|c| c)
        }
    }
}

/// A payload-backed region of the record being visited: chunks
/// `clo..chi` live at byte `off` of the decoded payload.
struct PayloadIv {
    clo: u32,
    chi: u32,
    off: u64,
}

/// A shifted-duplicate region: destination chunks `clo..chi` read from
/// source chunks starting at `slo` of record position `ref_pos`.
struct ShiftIv {
    clo: u32,
    chi: u32,
    slo: u32,
    ref_pos: u32,
}

/// The record-visit index: where each chunk of this version's content is.
enum RecordIndex {
    /// Full method: the payload is the whole version.
    Full,
    /// Basic method: per-chunk changed flags and their exclusive ranks
    /// (payload offset of changed chunk `c` is `ranks[c] * chunk_size`).
    Basic {
        flags: ArenaLease<u64>,
        ranks: ArenaLease<u64>,
    },
    /// Tree/List: sorted interval tables over chunk ids.
    Regions {
        payload: Vec<PayloadIv>,
        shifts: Vec<ShiftIv>,
    },
}

/// Incremental single-pass restore of one target version.
///
/// Feed records newest→oldest starting with the target itself;
/// [`feed`](Self::feed) returns `true` once every chunk is resolved (always
/// by the time record position 0 has been fed). The incremental shape lets a
/// driver overlap fetching record *j−1* from storage with resolving record
/// *j* — the runtime crate's prefetching engine does exactly that.
pub struct SinglePassRestore {
    device: Device,
    kind: MethodKind,
    ck: Chunking,
    shape: TreeShape,
    base: u32,
    /// Record position the next `feed` must carry (`ckpt_id == base + pos`).
    next_pos: u32,
    buf: Vec<u8>,
    /// Per-chunk: record position whose content the chunk currently needs.
    need_pos: ArenaLease<u32>,
    /// Per-chunk: chunk index within that version.
    need_chunk: ArenaLease<u32>,
    /// Per-chunk visit status (`ST_*`).
    status: ArenaLease<u32>,
    /// Per-chunk payload byte offset once finalized.
    final_off: ArenaLease<u64>,
    /// Target chunks not yet finalized, ascending.
    pending: Vec<u32>,
    done: bool,
    stats: RestartStats,
}

impl SinglePassRestore {
    /// Start a restore of `target` (the newest record that matters) for a
    /// chain whose first surviving checkpoint id is `base`. The target diff
    /// itself must then be the first record fed.
    pub fn begin(device: &Device, base: u32, target: &Diff) -> Result<Self, RestoreError> {
        let Some(target_pos) = target.ckpt_id.checked_sub(base) else {
            return Err(RestoreError::OutOfOrder {
                index: 0,
                ckpt_id: target.ckpt_id,
            });
        };
        let ck = Chunking::new(target.data_len as usize, target.chunk_size as usize);
        let shape = TreeShape::new(ck.n_chunks());
        let n = ck.n_chunks();
        let arena = device.arena();
        let mut need_pos = arena.lease::<u32>("restart/need_pos", n);
        let mut need_chunk = arena.lease::<u32>("restart/need_chunk", n);
        let status = arena.lease::<u32>("restart/status", n);
        let final_off = arena.lease::<u64>("restart/final_off", n);
        {
            // Leases carry stale pool contents; seed the resolution table:
            // every chunk needs its own position of the target version.
            let pos = SharedSliceMut::new(need_pos.as_mut_slice());
            let chunk = SharedSliceMut::new(need_chunk.as_mut_slice());
            device.parallel_for(
                "restart_seed_resolution",
                n,
                KernelCost::stream(8 * n as u64),
                |c| unsafe {
                    // SAFETY: chunk index owned by this thread.
                    pos.write(c, target_pos);
                    chunk.write(c, c as u32);
                },
            );
        }
        Ok(SinglePassRestore {
            device: device.clone(),
            kind: target.kind,
            ck,
            shape,
            base,
            next_pos: target_pos,
            buf: vec![0u8; ck.data_len()],
            need_pos,
            need_chunk,
            status,
            final_off,
            pending: (0..n as u32).collect(),
            done: false,
            stats: RestartStats::default(),
        })
    }

    /// True once every chunk has a resolved source.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Record position expected by the next [`feed`](Self::feed).
    pub fn next_position(&self) -> Option<u32> {
        (!self.done).then_some(self.next_pos)
    }

    /// Build the visit index for `diff`, validating its tables the same way
    /// the sequential restorer does.
    fn build_index(&self, diff: &Diff, payload_len: usize) -> Result<RecordIndex, RestoreError> {
        let n = self.ck.n_chunks();
        match diff.kind {
            MethodKind::Full => {
                if payload_len != self.ck.data_len() {
                    return Err(RestoreError::PayloadTruncated {
                        ckpt_id: diff.ckpt_id,
                    });
                }
                Ok(RecordIndex::Full)
            }
            MethodKind::Basic => {
                let arena = self.device.arena();
                let mut flags = arena.lease::<u64>("restart/basic_flags", n);
                for (c, f) in flags.as_mut_slice().iter_mut().enumerate() {
                    *f = bitmap::get(&diff.bitmap, c) as u64;
                }
                let mut ranks = arena.lease::<u64>("restart/basic_ranks", n);
                let changed =
                    self.device
                        .exclusive_scan("restart_basic_ranks", &flags, ranks.as_mut_slice())
                        as usize;
                // All changed chunks are full-size except a changed global
                // last chunk, which is the final payload entry.
                let mut required = changed * self.ck.chunk_size();
                if changed > 0 && flags[n - 1] == 1 {
                    let (a, b) = self.ck.byte_range(n - 1);
                    required = required - self.ck.chunk_size() + (b - a);
                }
                if required > payload_len {
                    return Err(RestoreError::PayloadTruncated {
                        ckpt_id: diff.ckpt_id,
                    });
                }
                Ok(RecordIndex::Basic { flags, ranks })
            }
            MethodKind::List | MethodKind::Tree => {
                let mut payload = Vec::with_capacity(diff.first_regions.len());
                let mut cursor = 0usize;
                for &node in &diff.first_regions {
                    let (clo, chi) = self.shape.chunk_range(node as usize);
                    let (a, b) = self.ck.byte_range_of_chunks(clo, chi);
                    if cursor + (b - a) > payload_len {
                        return Err(RestoreError::PayloadTruncated {
                            ckpt_id: diff.ckpt_id,
                        });
                    }
                    payload.push(PayloadIv {
                        clo: clo as u32,
                        chi: chi as u32,
                        off: cursor as u64,
                    });
                    cursor += b - a;
                }
                payload.sort_unstable_by_key(|r| r.clo);

                let mut shifts = Vec::with_capacity(diff.shift_regions.len());
                for s in &diff.shift_regions {
                    if s.ref_ckpt > diff.ckpt_id {
                        return Err(RestoreError::ForwardReference {
                            ckpt_id: diff.ckpt_id,
                            ref_ckpt: s.ref_ckpt,
                        });
                    }
                    let Some(ref_pos) = s.ref_ckpt.checked_sub(self.base) else {
                        return Err(RestoreError::RefBelowBase {
                            ckpt_id: diff.ckpt_id,
                            ref_ckpt: s.ref_ckpt,
                            base: self.base,
                        });
                    };
                    let (clo, chi) = self.shape.chunk_range(s.node as usize);
                    let (slo, shi) = self.shape.chunk_range(s.ref_node as usize);
                    let (da, db) = self.ck.byte_range_of_chunks(clo, chi);
                    let (sa, sb) = self.ck.byte_range_of_chunks(slo, shi);
                    if db - da != sb - sa {
                        return Err(RestoreError::SpanMismatch {
                            node: s.node,
                            ref_node: s.ref_node,
                        });
                    }
                    shifts.push(ShiftIv {
                        clo: clo as u32,
                        chi: chi as u32,
                        slo: slo as u32,
                        ref_pos,
                    });
                }
                shifts.sort_unstable_by_key(|r| r.clo);
                Ok(RecordIndex::Regions { payload, shifts })
            }
        }
    }

    /// Visit the next record (position [`next_position`](Self::next_position),
    /// newest first). Returns `true` when every chunk is resolved and the
    /// remaining (older) records are not needed.
    pub fn feed(&mut self, diff: &Diff) -> Result<bool, RestoreError> {
        if self.done {
            return Ok(true);
        }
        let j = self.next_pos;
        if diff.ckpt_id != self.base + j {
            return Err(RestoreError::OutOfOrder {
                index: j as usize,
                ckpt_id: diff.ckpt_id,
            });
        }
        if diff.kind != self.kind {
            return Err(RestoreError::MixedKinds {
                expected: self.kind,
                found: diff.kind,
            });
        }
        if diff.data_len as usize != self.ck.data_len()
            || diff.chunk_size as usize != self.ck.chunk_size()
        {
            return Err(RestoreError::GeometryChanged);
        }

        let payload = decoded_payload(diff)?;
        let index = self.build_index(diff, payload.len())?;
        self.stats.records_visited += 1;

        // Resolution kernel: advance every unresolved chunk through this
        // record's tables. Each pending chunk is owned by one thread; the
        // tables are read-only; so the pass is embarrassingly parallel and
        // its outcome is thread-count independent.
        let n_pend = self.pending.len();
        let chunk_size = self.ck.chunk_size();
        {
            let pending = &self.pending;
            let need_pos = SharedSliceMut::new(self.need_pos.as_mut_slice());
            let need_chunk = SharedSliceMut::new(self.need_chunk.as_mut_slice());
            let status = SharedSliceMut::new(self.status.as_mut_slice());
            let final_off = SharedSliceMut::new(self.final_off.as_mut_slice());
            let index = &index;
            let cost = KernelCost::stream(32 * n_pend as u64);
            self.device
                .parallel_for("restart_resolve", n_pend, cost, |i| {
                    let c = pending[i] as usize;
                    // SAFETY: chunk `c` appears once in `pending`; all state
                    // slots for `c` are owned by this thread.
                    unsafe {
                        status.write(c, ST_CARRIED);
                        if need_pos.read(c) != j {
                            return; // waiting for an older record
                        }
                        let mut cur = need_chunk.read(c);
                        match index {
                            RecordIndex::Full => {
                                status.write(c, ST_PAYLOAD);
                                final_off.write(c, cur as u64 * chunk_size as u64);
                            }
                            RecordIndex::Basic { flags, ranks } => {
                                if flags[cur as usize] == 1 {
                                    status.write(c, ST_PAYLOAD);
                                    final_off.write(c, ranks[cur as usize] * chunk_size as u64);
                                } else if j == 0 {
                                    status.write(c, ST_ZERO);
                                } else {
                                    need_pos.write(c, j - 1);
                                }
                            }
                            RecordIndex::Regions { payload, shifts } => {
                                // Chase within this record; a cycle among
                                // same-record shifts exhausts the fuel.
                                let mut fuel = shifts.len() + 1;
                                loop {
                                    let p = payload.partition_point(|r| r.chi <= cur);
                                    if let Some(r) = payload.get(p) {
                                        if r.clo <= cur && cur < r.chi {
                                            status.write(c, ST_PAYLOAD);
                                            final_off.write(
                                                c,
                                                r.off + (cur - r.clo) as u64 * chunk_size as u64,
                                            );
                                            break;
                                        }
                                    }
                                    let s = shifts.partition_point(|r| r.chi <= cur);
                                    if let Some(r) = shifts.get(s) {
                                        if r.clo <= cur && cur < r.chi {
                                            let src = r.slo + (cur - r.clo);
                                            if r.ref_pos == j {
                                                if fuel == 0 {
                                                    status.write(c, ST_CYCLE);
                                                    break;
                                                }
                                                fuel -= 1;
                                                cur = src;
                                                continue;
                                            }
                                            need_pos.write(c, r.ref_pos);
                                            need_chunk.write(c, src);
                                            break;
                                        }
                                    }
                                    // Uncovered: a fixed duplicate — the
                                    // chunk's content is the previous
                                    // version's at the same position.
                                    if j == 0 {
                                        status.write(c, ST_ZERO);
                                    } else {
                                        need_pos.write(c, j - 1);
                                        need_chunk.write(c, cur);
                                    }
                                    break;
                                }
                            }
                        }
                    }
                });
        }

        // Resolution-table split: one device wave separates the chunks this
        // record finalized from the ones carried to older records.
        let status = &self.status;
        let pending = &self.pending;
        let (finalized, carried) = self
            .device
            .partition_where("restart_partition", n_pend, |i| {
                status[pending[i] as usize] != ST_CARRIED
            });

        let mut regions: Vec<(usize, usize, usize)> = Vec::with_capacity(finalized.len());
        let mut cycles = 0usize;
        for &i in &finalized {
            let c = self.pending[i as usize] as usize;
            match self.status[c] {
                ST_PAYLOAD => {
                    let (a, b) = self.ck.byte_range(c);
                    regions.push((a, b - a, self.final_off[c] as usize));
                }
                ST_ZERO => self.stats.zero_chunks += 1,
                _ => cycles += 1,
            }
        }
        if cycles > 0 {
            return Err(RestoreError::UnresolvableShifts {
                ckpt_id: diff.ckpt_id,
                remaining: cycles,
            });
        }

        // One parallel copy wave for everything this record supplies.
        let bytes: usize = regions.iter().map(|r| r.1).sum();
        self.device.parallel_for(
            "restart_copy_wave",
            0,
            KernelCost::copy(bytes as u64),
            |_| {},
        );
        copy_regions(&mut self.buf, &payload, &regions);
        self.stats.regions_copied += regions.len() as u64;
        self.stats.bytes_copied += bytes as u64;

        self.pending = carried
            .into_iter()
            .map(|i| self.pending[i as usize])
            .collect();
        debug_assert!(
            j > 0 || self.pending.is_empty(),
            "record position 0 must resolve every chunk"
        );
        self.done = self.pending.is_empty();
        if !self.done {
            self.next_pos = j - 1;
        }
        Ok(self.done)
    }

    /// The restored bytes and walk statistics. Errors if records stopped
    /// being fed before every chunk was resolved.
    pub fn finish(self) -> Result<(Vec<u8>, RestartStats), RestoreError> {
        if !self.done {
            return Err(RestoreError::UnresolvableShifts {
                ckpt_id: self.base + self.next_pos,
                remaining: self.pending.len(),
            });
        }
        Ok((self.buf, self.stats))
    }
}

/// Restore version `target_index` of a (possibly compacted, base-offset)
/// record in a single pass. Bit-identical to
/// [`restore_record_from`](crate::restore::restore_record_from)'s
/// corresponding version at any thread count.
pub fn restore_version_single_pass(
    device: &Device,
    base: u32,
    diffs: &[Diff],
    target_index: usize,
) -> Result<(Vec<u8>, RestartStats), RestoreError> {
    let Some(target) = diffs.get(target_index) else {
        return Err(RestoreError::OutOfOrder {
            index: target_index,
            ckpt_id: base + target_index as u32,
        });
    };
    let mut sp = SinglePassRestore::begin(device, base, target)?;
    for d in diffs[..=target_index].iter().rev() {
        if sp.feed(d)? {
            break;
        }
    }
    sp.finish()
}

/// Restore the latest version of a record in a single pass.
pub fn restore_latest_single_pass(
    device: &Device,
    base: u32,
    diffs: &[Diff],
) -> Result<(Vec<u8>, RestartStats), RestoreError> {
    if diffs.is_empty() {
        return Err(RestoreError::UnresolvableShifts {
            ckpt_id: base,
            remaining: 0,
        });
    }
    restore_version_single_pass(device, base, diffs, diffs.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::ShiftRegion;
    use crate::methods::tree::{TreeCheckpointer, TreeConfig};
    use crate::methods::Checkpointer;
    use crate::restore::{restore_record, restore_record_from};

    fn tree_diff(ckpt_id: u32, data_len: u64) -> Diff {
        Diff {
            kind: MethodKind::Tree,
            ckpt_id,
            data_len,
            chunk_size: 32,
            first_regions: Vec::new(),
            shift_regions: Vec::new(),
            bitmap: Vec::new(),
            payload_codec: 0,
            payload: Vec::new(),
        }
    }

    fn snapshots(n: usize, len: usize) -> Vec<Vec<u8>> {
        let mut data: Vec<u8> = (0..len).map(|i| ((i * 31) % 251) as u8).collect();
        let mut out = vec![data.clone()];
        for k in 1..n {
            for j in 0..len / 64 {
                let at = (k * 911 + j * 53) % len;
                data[at] = data[at].wrapping_add(1);
            }
            out.push(data.clone());
        }
        out
    }

    #[test]
    fn single_pass_matches_sequential_tree_chain() {
        let device = Device::a100();
        let mut m = TreeCheckpointer::new(device.clone(), TreeConfig::new(64));
        let snaps = snapshots(6, 8192);
        let diffs: Vec<Diff> = snaps.iter().map(|s| m.checkpoint(s).diff).collect();
        let seq = restore_record(&diffs).unwrap();
        for (t, expect) in seq.iter().enumerate() {
            let (par, _) = restore_version_single_pass(&device, 0, &diffs, t).unwrap();
            assert_eq!(&par, expect, "version {t}");
        }
    }

    #[test]
    fn rebase_record_short_circuits_the_walk() {
        let device = Device::a100();
        let mut m = TreeCheckpointer::new(device.clone(), TreeConfig::new(64));
        let snaps = snapshots(6, 8192);
        let mut diffs = Vec::new();
        for (k, s) in snaps.iter().enumerate() {
            let out = if k == 3 {
                m.rebase_checkpoint(s)
            } else {
                m.checkpoint(s)
            };
            diffs.push(out.diff);
        }
        assert!(
            is_self_contained(&diffs[3]),
            "rebase must be self-contained"
        );
        let seq = restore_record(&diffs).unwrap();
        let (par, stats) = restore_latest_single_pass(&device, 0, &diffs).unwrap();
        assert_eq!(par, seq[5]);
        assert!(
            stats.records_visited <= 3,
            "walk must stop at the rebase record, visited {}",
            stats.records_visited
        );
    }

    #[test]
    fn compacted_chain_restores_from_base() {
        let device = Device::a100();
        let mut m = TreeCheckpointer::new(device.clone(), TreeConfig::new(64));
        let snaps = snapshots(6, 8192);
        let mut diffs = Vec::new();
        for (k, s) in snaps.iter().enumerate() {
            let out = if k == 3 {
                m.rebase_checkpoint(s)
            } else {
                m.checkpoint(s)
            };
            diffs.push(out.diff);
        }
        // Garbage-collect below the rebase: only records 3.. survive.
        let tail = &diffs[3..];
        let seq = restore_record_from(3, tail).unwrap();
        assert_eq!(seq[0], snaps[3]);
        assert_eq!(seq[2], snaps[5]);
        let (par, _) = restore_latest_single_pass(&device, 3, tail).unwrap();
        assert_eq!(par, snaps[5]);
    }

    #[test]
    fn self_containment_detection() {
        let device = Device::a100();
        let mut m = TreeCheckpointer::new(device.clone(), TreeConfig::new(64));
        let snaps = snapshots(3, 4096);
        let d0 = m.checkpoint(&snaps[0]).diff;
        let d1 = m.checkpoint(&snaps[1]).diff;
        // Checkpoint 0 references nothing earlier; an incremental later
        // checkpoint of a sparse update is dominated by fixed duplicates.
        assert!(is_self_contained(&d0));
        assert!(!is_self_contained(&d1));
    }

    #[test]
    fn ref_below_base_is_typed() {
        let mut d = tree_diff(5, 64);
        d.first_regions = vec![1]; // chunk 0
        d.payload = vec![0; 32];
        d.shift_regions = vec![ShiftRegion {
            node: 2,
            ref_node: 1,
            ref_ckpt: 2, // below base 5
        }];
        let device = Device::a100();
        let err = restore_latest_single_pass(&device, 5, std::slice::from_ref(&d)).unwrap_err();
        assert!(matches!(
            err,
            RestoreError::RefBelowBase {
                ref_ckpt: 2,
                base: 5,
                ..
            }
        ));
    }

    #[test]
    fn same_record_shift_chain_and_cycles() {
        // Mirror restore.rs's chain test: 5 -> 4 -> 3(payload).
        let mut d = tree_diff(0, 128);
        d.first_regions = vec![3, 6];
        d.shift_regions = vec![
            ShiftRegion {
                node: 5,
                ref_node: 4,
                ref_ckpt: 0,
            },
            ShiftRegion {
                node: 4,
                ref_node: 3,
                ref_ckpt: 0,
            },
        ];
        d.payload = [[7u8; 32], [9u8; 32]].concat();
        let device = Device::a100();
        let (v, _) = restore_latest_single_pass(&device, 0, std::slice::from_ref(&d)).unwrap();
        assert_eq!(&v[0..96], &[7u8; 96][..]);
        assert_eq!(&v[96..128], &[9u8; 32][..]);

        let mut cyc = tree_diff(0, 128);
        cyc.first_regions = vec![3, 6];
        cyc.payload = vec![0; 64];
        cyc.shift_regions = vec![
            ShiftRegion {
                node: 4,
                ref_node: 5,
                ref_ckpt: 0,
            },
            ShiftRegion {
                node: 5,
                ref_node: 4,
                ref_ckpt: 0,
            },
        ];
        let err = restore_latest_single_pass(&device, 0, std::slice::from_ref(&cyc)).unwrap_err();
        assert!(matches!(err, RestoreError::UnresolvableShifts { .. }));
    }

    #[test]
    fn early_stop_without_resolution_errors() {
        let device = Device::a100();
        let mut m = TreeCheckpointer::new(device.clone(), TreeConfig::new(64));
        let snaps = snapshots(3, 4096);
        let diffs: Vec<Diff> = snaps.iter().map(|s| m.checkpoint(s).diff).collect();
        let mut sp = SinglePassRestore::begin(&device, 0, &diffs[2]).unwrap();
        let done = sp.feed(&diffs[2]).unwrap();
        assert!(!done, "incremental tail cannot be self-sufficient");
        let err = sp.finish().unwrap_err();
        assert!(matches!(err, RestoreError::UnresolvableShifts { .. }));
    }
}
