//! The restore engine: single-pass, last-writer-wins, without
//! materializing intermediate checkpoints.
//!
//! Replaying a record front-to-back clones and patches every version on
//! the way to the one that is wanted — O(chain length × checkpoint size)
//! bytes moved for a single restore (that replay survives as the oracle
//! this engine is tested against, in `ckpt_bench::oracle`). This
//! module walks the chain the other way, and by **runs**, not by chunks:
//! the demand on a record is a list of `Run`s — stretches of the target's
//! chunks that hold what that record's version has at some stretch of its
//! own — seeded with one run per output slice at the target. Visiting records
//! newest→oldest, each waiting run is split against the record's region
//! tables — every method's record lists as the same kind, a Full record as
//! one payload region and a Basic record as one per changed stretch: a
//! piece covered by payload is copied into place (adjacent pieces coalesce
//! into one `memcpy`), a piece covered by a shifted duplicate of an older
//! record becomes a run on that record, one covered by a shifted duplicate
//! of this same record resolves through a memo to the chunk it
//! ends at, and an uncovered piece is a fixed duplicate that carries to the
//! next-older record — runs untouched by the record's tables
//! move there in bulk. Total bytes moved: one checkpoint's worth, regardless
//! of chain length; total resolution work: the record's tables plus the
//! pieces it resolves, not the snapshot's chunk count.
//!
//! **Output slices.** The target is split into slices of
//! [`slice_chunks`] chunks, a plan fixed by the chunk count. Each slice
//! holds its own run lists and counters and owns a disjoint range of the
//! output; a run never leaves the slice of its destination, so a slice
//! walks the whole chain alone, and a visit sweeps the slices as one job on
//! the pool (or in order on the calling thread:
//! [`SinglePassRestore::feed_in_order`]). The output is never zeroed: each
//! byte is written once, by a copy or, below the chain's first record, a
//! zero fill.
//!
//! **Determinism:** a slice's visit is a pure function of the record's
//! region tables and the runs waiting on it in that slice; what slices
//! share — the tables, and a memo of same-record shift terminals, a pure
//! function of the tables — they only read or store the same value into.
//! Every run list has pairwise-disjoint destinations, and each output chunk
//! is written by exactly one copy or fill — so the restored bytes and every
//! counter are identical at any thread count and whether the slices ran on
//! the pool or in order, and the bytes are identical to the sequential
//! replay (the run walk computes exactly the provenance the sequential
//! clone-and-patch loop realizes in place). Copies and runs coalesce only
//! inside a slice, so the counters depend on the slice plan.
//!
//! Chains whose head is a **rebase record** (see
//! [`Checkpointer::rebase_checkpoint`](crate::methods::Checkpointer::rebase_checkpoint))
//! short-circuit: a self-contained record supplies every remaining chunk,
//! so older records are never visited — the chain-compaction payoff.
//!
//! **Everything that can fail, fails before a byte moves.** A record visit
//! starts with `Chain::index` (header, table ranges, disjoint destinations,
//! acyclic same-record shifts); past it neither the run walk nor the copies
//! can fail. So [`check_chain`] proves a whole chain restorable by indexing
//! each record once — no run list, no buffer, no copy.

use crate::chunking::Chunking;
use crate::diff::{bitmap, Diff, MethodKind};
use crate::tree::TreeShape;
use gpu_sim::{ArenaLease, Device, KernelCost};
use rayon::prelude::*;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Errors surfaced while reconstructing checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// Diff `ckpt_id`s must be 0, 1, 2, … in order.
    OutOfOrder { index: usize, ckpt_id: u32 },
    /// All diffs in a record must come from one method.
    MixedKinds {
        expected: MethodKind,
        found: MethodKind,
    },
    /// Geometry (data length / chunk size) changed mid-record.
    GeometryChanged,
    /// A payload was shorter than its region table requires.
    PayloadTruncated { ckpt_id: u32 },
    /// A shifted duplicate referenced a checkpoint that does not exist yet.
    ForwardReference { ckpt_id: u32, ref_ckpt: u32 },
    /// A shifted duplicate referenced a checkpoint below the record's base —
    /// the chain was compacted (rebased) but a record still points into the
    /// garbage-collected region, so the reference cannot be materialized.
    RefBelowBase {
        ckpt_id: u32,
        ref_ckpt: u32,
        base: u32,
    },
    /// A shifted duplicate's source span does not match its target span.
    SpanMismatch { node: u32, ref_node: u32 },
    /// Two region-table entries write `chunk`. No method emits such a
    /// table, and which entry would win is not defined.
    RegionsOverlap { ckpt_id: u32, chunk: u32 },
    /// Same-checkpoint shifted duplicates could not be resolved (cycle or
    /// corrupt reference).
    UnresolvableShifts { ckpt_id: u32, remaining: usize },
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::OutOfOrder { index, ckpt_id } => {
                write!(f, "diff at position {index} has ckpt_id {ckpt_id}")
            }
            RestoreError::MixedKinds { expected, found } => {
                write!(
                    f,
                    "record mixes methods: {} vs {}",
                    expected.name(),
                    found.name()
                )
            }
            RestoreError::GeometryChanged => write!(f, "data length or chunk size changed"),
            RestoreError::PayloadTruncated { ckpt_id } => {
                write!(f, "payload truncated in checkpoint {ckpt_id}")
            }
            RestoreError::ForwardReference { ckpt_id, ref_ckpt } => {
                write!(
                    f,
                    "checkpoint {ckpt_id} references future checkpoint {ref_ckpt}"
                )
            }
            RestoreError::RefBelowBase {
                ckpt_id,
                ref_ckpt,
                base,
            } => {
                write!(
                    f,
                    "checkpoint {ckpt_id} references checkpoint {ref_ckpt} below the \
                     record base {base} (compacted away)"
                )
            }
            RestoreError::SpanMismatch { node, ref_node } => {
                write!(f, "shift region {node} has mismatched source {ref_node}")
            }
            RestoreError::RegionsOverlap { ckpt_id, chunk } => {
                write!(f, "two regions of checkpoint {ckpt_id} write chunk {chunk}")
            }
            RestoreError::UnresolvableShifts { ckpt_id, remaining } => {
                write!(
                    f,
                    "{remaining} unresolvable shifted duplicates in checkpoint {ckpt_id}"
                )
            }
        }
    }
}

impl std::error::Error for RestoreError {}

/// Counters describing one single-pass restore (or one [`check_chain`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestartStats {
    /// Records the resolution walk actually visited (≤ chain length; a
    /// self-contained rebase record stops the walk).
    pub records_visited: u32,
    /// Copies made into the restored buffer, after coalescing: pieces that
    /// are adjacent in both the output and the supplying payload are one
    /// copy (a Full record is 1; a scattered Tree chain approaches one per
    /// chunk).
    pub regions_copied: u64,
    /// Payload bytes copied into the restored buffer.
    pub bytes_copied: u64,
    /// Chunks that resolved to the zero prefix below the record base.
    pub zero_chunks: u64,
    /// Pieces the walk sent on one at a time: copied, referred to a record,
    /// carried to the previous one or counted as zeros. Runs a sweep moves
    /// down in bulk are not pieces, and a same-record shift sends one per
    /// stretch of its resolved chunks.
    pub pieces: u64,
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
            let nodes = diff.first_regions.iter();
            let nodes = nodes.chain(diff.shift_regions.iter().map(|s| &s.node));
            let mut covered = vec![0u64; n.div_ceil(64)];
            for &node in nodes {
                let (clo, chi) = shape.chunk_range(node as usize);
                set_bits(&mut covered, clo, chi);
            }
            let (whole, tail) = (n / 64, n % 64);
            covered[..whole].iter().all(|&w| w == u64::MAX)
                && (tail == 0 || covered[whole] == (1u64 << tail) - 1)
        }
    }
}

/// Set bits `lo..hi` of a word bitset, a word at a time.
fn set_bits(words: &mut [u64], lo: usize, hi: usize) {
    if lo >= hi {
        return;
    }
    let (first, last) = (lo / 64, (hi - 1) / 64);
    let head = u64::MAX << (lo % 64);
    let tail = u64::MAX >> (63 - (hi - 1) % 64);
    if first == last {
        words[first] |= head & tail;
    } else {
        words[first] |= head;
        words[first + 1..last].fill(u64::MAX);
        words[last] |= tail;
    }
}

/// A payload-backed region of the record being visited: chunks
/// `clo..chi` live at byte `off` of the payload.
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

/// A chunk that two entries of the tables (each sorted by `clo`) both
/// write, if there is one.
fn first_overlap(payload: &[PayloadIv], shifts: &[ShiftIv]) -> Option<u32> {
    let in_payload = payload.windows(2).find(|w| w[1].clo < w[0].chi);
    let in_shifts = shifts.windows(2).find(|w| w[1].clo < w[0].chi);
    // Only consulted once both tables are disjoint in themselves, which is
    // what makes the binary search over `payload` sound.
    let across = || {
        shifts.iter().find_map(|s| {
            let r = payload.get(payload.partition_point(|r| r.chi <= s.clo))?;
            (r.clo < s.chi).then_some(r.clo.max(s.clo))
        })
    };
    in_payload
        .map(|w| w[1].clo)
        .or(in_shifts.map(|w| w[1].clo))
        .or_else(across)
}

/// How many same-record shifts (`ref_pos == j`) can never be applied: a
/// shift must follow every same-record shift whose destination its source
/// overlaps, so one on — or leading into — a dependency cycle never gets
/// its turn. `shifts` is sorted by `clo` with disjoint destinations, so a
/// shift's dependencies are one contiguous run. Zero for every table a
/// method emits; then a chunk's chase enters each shift at most once.
fn stuck_shifts(shifts: &[ShiftIv], j: u32) -> usize {
    if shifts.iter().all(|s| s.ref_pos != j) {
        return 0;
    }
    const UNSEEN: u8 = 0;
    const ON_PATH: u8 = 1;
    const APPLIED: u8 = 2;
    const STUCK: u8 = 3;
    // A shift reading an older record has its data the moment it is asked.
    let mut state: Vec<u8> = shifts
        .iter()
        .map(|s| if s.ref_pos == j { UNSEEN } else { APPLIED })
        .collect();
    let deps = |s: &ShiftIv| {
        let first = shifts.partition_point(|r| r.chi <= s.slo);
        let src_end = s.slo + (s.chi - s.clo);
        first..first + shifts[first..].partition_point(|r| r.clo < src_end)
    };
    // Depth-first over dependencies: (shift, its dependencies not yet seen).
    let mut path = Vec::new();
    for root in 0..shifts.len() {
        if state[root] != UNSEEN {
            continue;
        }
        state[root] = ON_PATH;
        path.push((root, deps(&shifts[root])));
        while let Some((s, rest)) = path.last_mut() {
            match rest.next().map(|dep| (dep, state[dep])) {
                None => {
                    state[*s] = APPLIED;
                    path.pop();
                }
                Some((dep, UNSEEN)) => {
                    state[dep] = ON_PATH;
                    path.push((dep, deps(&shifts[dep])));
                }
                Some((_, APPLIED)) => {}
                // On the path (a cycle) or already stuck: so is everything
                // waiting on it.
                Some(_) => path.drain(..).for_each(|(s, _)| state[s] = STUCK),
            }
        }
    }
    state.iter().filter(|&&st| st == STUCK).count()
}

/// What every record of one chain shares, and the validation of one record
/// against it.
struct Chain {
    device: Device,
    kind: MethodKind,
    ck: Chunking,
    shape: TreeShape,
    /// First surviving checkpoint id: position `p` is `ckpt_id == base + p`.
    base: u32,
}

impl Chain {
    /// The chain `member` belongs to.
    fn of(device: &Device, base: u32, member: &Diff) -> Chain {
        let ck = Chunking::new(member.data_len as usize, member.chunk_size as usize);
        Chain {
            device: device.clone(),
            kind: member.kind,
            ck,
            shape: TreeShape::new(ck.n_chunks()),
            base,
        }
    }

    /// Validate `diff` as the chain's record at position `pos` and build
    /// its visit index — the only fallible step of a record visit. Every
    /// method's record is listed as payload and shift intervals, and one
    /// merge turns them into the segments a visit splits its runs against.
    fn index(&self, pos: u32, diff: &Diff) -> Result<Vec<Seg>, RestoreError> {
        if diff.ckpt_id != self.base + pos {
            return Err(RestoreError::OutOfOrder {
                index: pos as usize,
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
        let (payload, shifts) = self.intervals(diff)?;
        let n_chunks = self.ck.n_chunks() as u32;
        let Some(segs) = segments(&payload, &shifts, n_chunks) else {
            // Both find the same overlaps; the chunk the error names comes
            // from the one rule the oracle shares.
            let chunk = first_overlap(&payload, &shifts).unwrap_or(0);
            return Err(RestoreError::RegionsOverlap {
                ckpt_id: diff.ckpt_id,
                chunk,
            });
        };
        let stuck = stuck_shifts(&shifts, diff.ckpt_id - self.base);
        if stuck > 0 {
            return Err(RestoreError::UnresolvableShifts {
                ckpt_id: diff.ckpt_id,
                remaining: stuck,
            });
        }
        Ok(segs)
    }

    /// `diff`'s payload and shift intervals, each sorted by `clo` — the one
    /// place the method shows. A Full record is one payload interval, a
    /// Basic record one per run of set bitmap bits; Tree and List list
    /// their tables. Payload intervals take the payload's bytes in listing
    /// order.
    fn intervals(&self, diff: &Diff) -> Result<(Vec<PayloadIv>, Vec<ShiftIv>), RestoreError> {
        let n = self.ck.n_chunks();
        let payload_len = diff.payload.len();
        let truncated = || RestoreError::PayloadTruncated {
            ckpt_id: diff.ckpt_id,
        };
        let mut payload = Vec::new();
        let mut cursor = 0usize;
        let mut list = |clo: usize, chi: usize| {
            let (a, b) = self.ck.byte_range_of_chunks(clo, chi);
            if cursor + (b - a) > payload_len {
                return Err(truncated());
            }
            payload.push(PayloadIv {
                clo: clo as u32,
                chi: chi as u32,
                off: cursor as u64,
            });
            cursor += b - a;
            Ok(())
        };
        let mut shifts = Vec::new();
        match diff.kind {
            MethodKind::Full => {
                if payload_len != self.ck.data_len() {
                    return Err(truncated());
                }
                list(0, n)?;
            }
            MethodKind::Basic => {
                let mut run_start = None;
                for c in 0..n {
                    match (run_start, bitmap::get(&diff.bitmap, c)) {
                        (None, true) => run_start = Some(c),
                        (Some(lo), false) => {
                            list(lo, c)?;
                            run_start = None;
                        }
                        _ => {}
                    }
                }
                if let Some(lo) = run_start {
                    list(lo, n)?;
                }
            }
            MethodKind::List | MethodKind::Tree => {
                for &node in &diff.first_regions {
                    let (clo, chi) = self.shape.chunk_range(node as usize);
                    list(clo, chi)?;
                }
                // A Tree table lists its regions level by level, each level
                // ascending; the stable sort is a natural merge sort that
                // finds those runs and merges them. Offsets were assigned in
                // table order, so any order indexes to the same tables.
                payload.sort_by_key(|r| r.clo);

                shifts.reserve(diff.shift_regions.len());
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
                shifts.sort_by_key(|r| r.clo);
            }
        }
        Ok((payload, shifts))
    }
}

/// Prove that every version of a chain restores, without restoring any.
///
/// By induction: a visited record sends a chunk only to itself, to an older
/// record of the chain, or to the zero prefix, so version `k` restores iff
/// version `k − 1` does and record `k` passes the one fallible step of a
/// visit — the `Chain::index` that [`SinglePassRestore::feed`] runs. One
/// pass over each record's metadata; the stats count the records and, there
/// being no buffer to copy into, no copies.
pub fn check_chain(
    device: &Device,
    base: u32,
    diffs: &[Diff],
) -> Result<RestartStats, RestoreError> {
    let Some(head) = diffs.first() else {
        return Err(RestoreError::OutOfOrder {
            index: 0,
            ckpt_id: base,
        });
    };
    let chain = Chain::of(device, base, head);
    for (pos, diff) in diffs.iter().enumerate() {
        chain.index(pos as u32, diff)?;
    }
    Ok(RestartStats {
        records_visited: diffs.len() as u32,
        ..RestartStats::default()
    })
}

/// A stretch of the target waiting on one record: output chunks
/// `dst..dst + len` hold what that record's version has at chunks
/// `src..src + len`.
#[derive(Debug, Clone, Copy)]
struct Run {
    dst: u32,
    src: u32,
    len: u32,
}

impl Run {
    /// The source chunk past the run's last.
    fn end(&self) -> u32 {
        self.src + self.len
    }

    /// The run without its first `len` chunks.
    fn after(&self, len: u32) -> Run {
        Run {
            dst: self.dst + len,
            src: self.src + len,
            len: self.len - len,
        }
    }
}

/// Append `run` to `list`, growing the last run instead where `run`
/// continues it in both the output and the source.
#[inline(always)]
fn push_run(list: &mut Vec<Run>, run: Run) {
    match list.last_mut() {
        Some(last) if last.dst + last.len == run.dst && last.src + last.len == run.src => {
            last.len += run.len
        }
        _ => list.push(run),
    }
}

/// The runs waiting on one record position, in two lists.
#[derive(Debug, Clone, Default)]
struct Waiting {
    /// Stretches of the target no record above has touched: each run's
    /// `src` is its `dst`, in order. Seeded with `0..n` at the target and
    /// written only by the sweep of the record above, which keeps them so.
    carried: Vec<Run>,
    /// Everything else, in arrival order: shifted duplicates of this
    /// record, and whatever a same-record shift resolved to it.
    referred: Vec<Run>,
}

/// Where chunks `clo..chi` of the visited record's version come from.
#[derive(Clone, Copy)]
struct Seg {
    clo: u32,
    chi: u32,
    from: Source,
}

#[derive(Clone, Copy)]
enum Source {
    /// This record's payload, from byte `off`.
    Payload { off: u64 },
    /// Record position `ref_pos`'s version, from chunk `slo`.
    Shift { slo: u32, ref_pos: u32 },
    /// In neither table: a fixed duplicate of the previous version's chunks
    /// at the same place — below the chain's first record, zeros.
    Previous,
}

/// A record's two tables (each sorted by `clo`) and the gaps they leave,
/// merged into one list that tiles `0..n_chunks` — or `None` if two
/// entries write one chunk.
fn segments(payload: &[PayloadIv], shifts: &[ShiftIv], n_chunks: u32) -> Option<Vec<Seg>> {
    let mut segs = Vec::with_capacity(2 * (payload.len() + shifts.len()) + 1);
    let gap = |clo, chi| Seg {
        clo,
        chi,
        from: Source::Previous,
    };
    let (mut p, mut s) = (0, 0);
    let mut covered = 0;
    loop {
        let shift_first = match (payload.get(p), shifts.get(s)) {
            (None, None) => break,
            (Some(r), Some(t)) => t.clo <= r.clo,
            (r, _) => r.is_none(),
        };
        let (clo, chi, from) = if shift_first {
            let t = &shifts[s];
            s += 1;
            let (slo, ref_pos) = (t.slo, t.ref_pos);
            (t.clo, t.chi, Source::Shift { slo, ref_pos })
        } else {
            let r = &payload[p];
            p += 1;
            (r.clo, r.chi, Source::Payload { off: r.off })
        };
        // In `clo` order, entries are disjoint iff each starts past the
        // one before.
        if clo < covered {
            return None;
        }
        if covered < clo {
            segs.push(gap(covered, clo));
        }
        segs.push(Seg { clo, chi, from });
        covered = chi;
    }
    if covered < n_chunks {
        segs.push(gap(covered, n_chunks));
    }
    Some(segs)
}

/// Chunks per output slice of a target up to [`MAX_SLICES`] of them long:
/// a restore splits its target into slices (the last one shorter) and a
/// visit sweeps them as one parallel job.
pub const SLICE_CHUNKS: usize = 16 * 1024;

/// The most slices a target is split into. Each slice keeps one run-list
/// header per record position, so this bounds the walk's scratch at
/// `MAX_SLICES` headers per position, whatever the target's size.
pub const MAX_SLICES: usize = 256;

/// Chunks per output slice of an `n_chunks`-chunk target: [`SLICE_CHUNKS`],
/// or more when that would make more than [`MAX_SLICES`] slices. The plan
/// is a function of the chunk count alone, never of the thread count, so
/// the counters are too.
pub fn slice_chunks(n_chunks: usize) -> usize {
    SLICE_CHUNKS.max(n_chunks.div_ceil(MAX_SLICES))
}

/// What a debug build fills a fresh output buffer with, so that a byte no
/// visit wrote shows up in the restored bytes.
const POISON: u8 = 0xa5;

/// Chunks per entry of a visit's segment directory.
const BLOCK: usize = 16;

/// What every slice's visit of one record reads: the record's segments and
/// payload, a directory from every [`BLOCK`]-th chunk to the segment holding
/// it (built the first time a piece needs one), and the restore's memo of
/// same-record shift terminals.
struct Record<'a> {
    ck: Chunking,
    /// Position of the visited record.
    j: u32,
    segs: &'a [Seg],
    payload: &'a [u8],
    device: &'a Device,
    dir: OnceLock<ArenaLease<u32>>,
    /// Per chunk, where the visited record's same-record shifts end: the
    /// **terminal** chunk of the same version, outside every same-record
    /// shift, whose content it has — in the low half, under the visit's
    /// stamp `j + 1` in the high half, so an entry an earlier visit wrote
    /// reads as unset. Shared by all slices: a terminal is a pure function
    /// of the record's tables, so slices that race on an entry store the
    /// same value. Empty when no visited record has a same-record shift.
    memo: &'a [AtomicU64],
}

/// The segment of `segs` holding `chunk`: from its block's entry in `dir`,
/// a short scan forward.
#[inline(always)]
fn seg_index(dir: &[u32], segs: &[Seg], chunk: u32) -> usize {
    let mut k = dir[chunk as usize / BLOCK] as usize;
    while segs[k].chi <= chunk {
        k += 1;
    }
    k
}

impl Record<'_> {
    /// The directory, built on first use: O(blocks + segments).
    fn dir(&self) -> &[u32] {
        self.dir.get_or_init(|| {
            let segs = self.segs;
            let n = segs.last().map_or(0, |s| s.chi as usize);
            let mut dir = self
                .device
                .arena()
                .lease::<u32>("restart/seg_dir", n.div_ceil(BLOCK));
            let mut k = 0;
            for (b, entry) in dir.iter_mut().enumerate() {
                while (segs[k].chi as usize) <= b * BLOCK {
                    k += 1;
                }
                *entry = k as u32;
            }
            dir
        })
    }

    /// The segment holding `chunk`.
    #[inline(always)]
    fn seg_of(&self, chunk: u32) -> Seg {
        self.segs[seg_index(self.dir(), self.segs, chunk)]
    }

    /// Where a chase of the visited record's same-record shifts goes from
    /// `chunk`: the chunk it has the content of, or `None` if `chunk` lies
    /// in no same-record shift.
    #[inline(always)]
    fn chased(&self, dir: &[u32], chunk: u32) -> Option<u32> {
        let seg = &self.segs[seg_index(dir, self.segs, chunk)];
        match seg.from {
            Source::Shift { slo, ref_pos } if ref_pos == self.j => Some(slo + (chunk - seg.clo)),
            _ => None,
        }
    }

    /// The terminal chunk of `chunk`. The chase ends, since the index has
    /// no same-record cycle; a second walk memoises it along the path up to
    /// where the first stopped, so each chunk of a same-record shift is
    /// chased about once per visit.
    #[inline(always)]
    fn terminal(&self, chunk: u32) -> u32 {
        let dir = self.dir();
        let stamp = (u64::from(self.j) + 1) << 32;
        let mut end = chunk;
        let t = loop {
            let known = self.memo[end as usize].load(Ordering::Relaxed);
            if known & !u64::from(u32::MAX) == stamp {
                break known as u32;
            }
            match self.chased(dir, end) {
                Some(next) => end = next,
                None => break end,
            }
        };
        let mut c = chunk;
        while c != end {
            self.memo[c as usize].store(stamp | u64::from(t), Ordering::Relaxed);
            let Some(next) = self.chased(dir, c) else {
                break;
            };
            c = next;
        }
        t
    }
}

/// One slice's visit of a record: where the pieces of the runs waiting on
/// it go. A copy is held back until the next piece shows whether it
/// continues it — in the output and in the payload — so a maximal
/// contiguous stretch inside the slice is one `memcpy`.
struct Visit<'a> {
    rec: &'a Record<'a>,
    /// The slice's output bytes, which start at output byte `at`.
    out: &'a mut [MaybeUninit<u8>],
    at: usize,
    /// The runs waiting on the records below the visited one, by position.
    older: &'a mut [Waiting],
    /// The copy not yet made: `(output byte, payload byte, length)`.
    held: (usize, usize, usize),
    stats: &'a mut RestartStats,
    unresolved: &'a mut usize,
}

impl Visit<'_> {
    /// Output chunks `dst..dst + len` are the payload's bytes from `off`.
    #[inline(always)]
    fn copy(&mut self, dst: u32, len: u32, off: u64) {
        let (a, b) = self
            .rec
            .ck
            .byte_range_of_chunks(dst as usize, (dst + len) as usize);
        let (to, from, held) = self.held;
        if to + held == a && from + held == off as usize {
            self.held.2 += b - a;
        } else {
            self.flush();
            self.held = (a, off as usize, b - a);
        }
        self.stats.pieces += 1;
        *self.unresolved -= len as usize;
    }

    fn flush(&mut self) {
        let (to, from, len) = std::mem::take(&mut self.held);
        if len > 0 {
            let to = to - self.at;
            let from = &self.rec.payload[from..from + len];
            self.out[to..to + len].write_copy_of_slice(from);
            self.stats.regions_copied += 1;
            self.stats.bytes_copied += len as u64;
        }
    }

    /// `run` is below the chain's first record, which no record supplies:
    /// zeros, written into place.
    fn zeros(&mut self, run: &Run) {
        let ck = self.rec.ck;
        let (a, b) = ck.byte_range_of_chunks(run.dst as usize, (run.dst + run.len) as usize);
        self.out[a - self.at..b - self.at].fill(MaybeUninit::new(0));
        self.stats.zero_chunks += u64::from(run.len);
        *self.unresolved -= run.len as usize;
    }

    /// `piece` is what the visited record has at `piece.src`, and `seg`
    /// holds that chunk and is not a same-record shift: copy it, refer it
    /// to the older record it names, or carry it.
    #[inline(always)]
    fn send(&mut self, seg: &Seg, piece: Run, in_order: bool) {
        let into = piece.src - seg.clo;
        match seg.from {
            Source::Payload { off } => {
                let chunk = self.rec.ck.chunk_size() as u64;
                self.copy(piece.dst, piece.len, off + into as u64 * chunk)
            }
            Source::Shift { slo, ref_pos } => {
                let list = &mut self.older[ref_pos as usize].referred;
                push_run(
                    list,
                    Run {
                        src: slo + into,
                        ..piece
                    },
                );
                self.stats.pieces += 1;
            }
            Source::Previous => self.carry(piece, in_order),
        }
    }

    /// `piece` is a fixed duplicate: it waits on the previous record — on
    /// its carried list when the caller emits in `src` order — or below
    /// the chain's first record is zeros.
    #[inline(always)]
    fn carry(&mut self, piece: Run, in_order: bool) {
        match self.older.last_mut() {
            Some(w) if in_order => push_run(&mut w.carried, piece),
            Some(w) => push_run(&mut w.referred, piece),
            None => self.zeros(&piece),
        }
        self.stats.pieces += 1;
    }

    /// Place `piece` (its `src` inside `seg`), resolving a same-record
    /// shift through the memo: chunk by chunk to their terminals, sent on
    /// in stretches whose terminals continue one another.
    #[inline(always)]
    fn place(&mut self, seg: &Seg, piece: Run, in_order: bool) {
        let (slo, into) = match seg.from {
            Source::Shift { slo, ref_pos } if ref_pos == self.rec.j => (slo, piece.src - seg.clo),
            _ => return self.send(seg, piece, in_order),
        };
        let mut stretch: Option<(Run, Seg)> = None;
        for i in 0..piece.len {
            let t = self.rec.terminal(slo + into + i);
            if let Some((run, at)) = &mut stretch {
                if t == run.end() && t < at.chi {
                    run.len += 1;
                    continue;
                }
                let (run, at) = (*run, *at);
                self.send(&at, run, false);
            }
            let dst = piece.dst + i;
            stretch = Some((
                Run {
                    dst,
                    src: t,
                    len: 1,
                },
                self.rec.seg_of(t),
            ));
        }
        if let Some((run, at)) = stretch {
            self.send(&at, run, false);
        }
    }

    /// Split the carried `runs` against the record's segments in one pass,
    /// both in chunk order, from the segment holding the first run (a
    /// binary search). Runs wholly inside a gap move to the previous
    /// record's carried list together, in one slice copy, with no lookup or
    /// split of their own; what the pass carries keeps the carried lists'
    /// order.
    fn sweep(&mut self, runs: &[Run]) {
        let segs = self.rec.segs;
        let Some(first) = runs.first() else {
            return;
        };
        let (mut i, mut k) = (0, segs.partition_point(|s| s.chi <= first.src));
        while i < runs.len() {
            while segs[k].chi <= runs[i].src {
                k += 1;
            }
            if let Source::Previous = segs[k].from {
                // Of the runs starting in the gap only the last can cross
                // its end.
                let chi = segs[k].chi;
                let mut end = i + starting_before(&runs[i..], chi);
                if runs[end - 1].end() > chi {
                    end -= 1;
                }
                if end > i {
                    self.carry_all(&runs[i..end]);
                    i = end;
                    continue;
                }
            }
            // Piece by piece across the segments the run crosses; the next
            // run starts past its end.
            let mut run = runs[i];
            i += 1;
            loop {
                let len = run.len.min(segs[k].chi - run.src);
                self.place(&segs[k], Run { len, ..run }, true);
                if len == run.len {
                    break;
                }
                run = run.after(len);
                k += 1;
            }
        }
    }

    /// Split one referred run against the segments it crosses, each found
    /// through the directory.
    fn split(&mut self, mut run: Run) {
        while run.len > 0 {
            let seg = self.rec.seg_of(run.src);
            let len = run.len.min(seg.chi - run.src);
            self.place(&seg, Run { len, ..run }, false);
            run = run.after(len);
        }
    }

    /// `runs`, in `src` order, lie in a gap: they wait on the previous
    /// record as they are, or below the chain's first record are zeros.
    fn carry_all(&mut self, runs: &[Run]) {
        match self.older.last_mut() {
            Some(w) => w.carried.extend_from_slice(runs),
            None => runs.iter().for_each(|run| self.zeros(run)),
        }
    }
}

/// How many of `runs` (in `src` order, sources disjoint, the first
/// starting before `chi`) start before `chi`: a galloping search, O(log)
/// in the answer.
fn starting_before(runs: &[Run], chi: u32) -> usize {
    let mut hi = 1;
    while hi < runs.len() && runs[hi].src < chi {
        hi *= 2;
    }
    let lo = hi / 2;
    lo + runs[lo..hi.min(runs.len())].partition_point(|r| r.src < chi)
}

/// One output slice's walk: the runs waiting on each record position for
/// its chunks, and what its visits have done. A run never leaves the slice
/// of its `dst`, so a slice walks the whole chain alone.
#[derive(Debug, Clone, Default)]
struct Slice {
    /// First output byte of the slice.
    at: usize,
    /// Per record position, the runs it must supply. Across all lists the
    /// destinations are pairwise disjoint and are exactly the slice's
    /// chunks not yet written.
    waiting: Vec<Waiting>,
    /// The carried list a visit consumed, kept for the next to fill.
    spare: Vec<Run>,
    /// The slice's chunks no visited record has supplied yet.
    unresolved: usize,
    stats: RestartStats,
}

impl Slice {
    /// Split every run waiting on record `rec.j` against its tables, writing
    /// into `out` — the slice's output bytes. Older records' lists only grow
    /// here and no two runs share an output chunk, so the order of the walk
    /// cannot show in the bytes.
    fn visit(&mut self, rec: &Record<'_>, out: &mut [MaybeUninit<u8>]) {
        if self.unresolved == 0 {
            return;
        }
        let (older, rest) = self.waiting.split_at_mut(rec.j as usize);
        let Waiting {
            mut carried,
            referred,
        } = std::mem::take(&mut rest[0]);
        if let Some(previous) = older.last_mut() {
            std::mem::swap(&mut previous.carried, &mut self.spare);
        }
        let mut visit = Visit {
            rec,
            out,
            at: self.at,
            older,
            held: (0, 0, 0),
            stats: &mut self.stats,
            unresolved: &mut self.unresolved,
        };
        visit.sweep(&carried);
        for &run in &referred {
            visit.split(run);
        }
        visit.flush();
        carried.clear();
        self.spare = carried;
    }

    /// Runs waiting on record position `j`.
    fn runs_at(&self, j: u32) -> usize {
        self.waiting
            .get(j as usize)
            .map_or(0, |w| w.carried.len() + w.referred.len())
    }
}

/// Incremental single-pass restore of one target version.
///
/// Feed records newest→oldest starting with the target itself;
/// [`feed`](Self::feed) returns `true` once every chunk is resolved (always
/// by the time record position 0 has been fed). The incremental shape lets a
/// driver overlap fetching record *j−1* from storage with resolving record
/// *j* — the runtime crate's prefetching engine does exactly that.
pub struct SinglePassRestore {
    chain: Chain,
    /// Record position the next `feed` must carry (`ckpt_id == base + pos`).
    next_pos: u32,
    /// The output, reserved and never zeroed: its length stays 0 until
    /// [`finish`](Self::finish) finds every byte written.
    buf: Vec<u8>,
    /// The target's [`slice_chunks`]-chunk slices, in output order.
    slices: Vec<Slice>,
    /// Leased, and cleared, the first time a visited record has a
    /// same-record shift; see [`Record::memo`].
    memo: Option<ArenaLease<AtomicU64>>,
    records_visited: u32,
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
        let chain = Chain::of(device, base, target);
        let (n, data_len) = (chain.ck.n_chunks(), chain.ck.data_len());
        let per_slice = slice_chunks(n);
        // Each slice is one run on the target's own record.
        let slices = (0..n)
            .step_by(per_slice)
            .map(|lo| {
                let len = per_slice.min(n - lo);
                let mut waiting = vec![Waiting::default(); target_pos as usize + 1];
                let (dst, src, len) = (lo as u32, lo as u32, len as u32);
                waiting[target_pos as usize]
                    .carried
                    .push(Run { dst, src, len });
                Slice {
                    at: lo * chain.ck.chunk_size(),
                    waiting,
                    unresolved: len as usize,
                    ..Slice::default()
                }
            })
            .collect();
        let mut buf = Vec::with_capacity(data_len);
        if cfg!(debug_assertions) {
            buf.spare_capacity_mut()[..data_len].fill(MaybeUninit::new(POISON));
        }
        Ok(SinglePassRestore {
            next_pos: target_pos,
            buf,
            chain,
            slices,
            memo: None,
            records_visited: 0,
        })
    }

    /// Visit the next record, newest first: the target, then each position
    /// below the last one fed. The slices sweep it as one job on the pool.
    /// Returns `true` when every chunk is resolved and the remaining
    /// (older) records are not needed.
    pub fn feed(&mut self, diff: &Diff) -> Result<bool, RestoreError> {
        self.visit(diff, true)
    }

    /// [`feed`](Self::feed), with the slices swept in order on the calling
    /// thread — for a caller whose other threads are busy. The bytes and
    /// every counter are the same either way.
    pub fn feed_in_order(&mut self, diff: &Diff) -> Result<bool, RestoreError> {
        self.visit(diff, false)
    }

    fn visit(&mut self, diff: &Diff, on_pool: bool) -> Result<bool, RestoreError> {
        if self.done() {
            return Ok(true);
        }
        let j = self.next_pos;
        let segs = self.chain.index(j, diff)?;
        self.records_visited += 1;
        let device = &self.chain.device;
        let same_record = |s: &Seg| matches!(s.from, Source::Shift { ref_pos, .. } if ref_pos == j);
        if self.memo.is_none() && segs.iter().any(same_record) {
            let n = self.chain.ck.n_chunks();
            let mut memo = device.arena().lease::<AtomicU64>("restart/memo", n);
            memo.iter_mut().for_each(|e| *e.get_mut() = 0);
            self.memo = Some(memo);
        }

        let before = self.stats();
        let n_runs: usize = self.slices.iter().map(|s| s.runs_at(j)).sum();
        let ck = self.chain.ck;
        let rec = Record {
            ck,
            j,
            segs: &segs,
            payload: &diff.payload,
            device,
            dir: OnceLock::new(),
            memo: self.memo.as_deref().unwrap_or_default(),
        };
        let slice_bytes = slice_chunks(ck.n_chunks()) * ck.chunk_size();
        let out = &mut self.buf.spare_capacity_mut()[..ck.data_len()];
        let visit = |(slice, out): (&mut Slice, &mut [MaybeUninit<u8>])| slice.visit(&rec, out);
        if on_pool {
            self.slices
                .par_iter_mut()
                .zip(out.par_chunks_mut(slice_bytes))
                .with_max_len(1)
                .for_each(visit);
        } else {
            self.slices
                .iter_mut()
                .zip(out.chunks_mut(slice_bytes))
                .for_each(visit);
        }

        // On the device the split is one kernel over the runs read and the
        // pieces handled, and everything this record supplies moves in one
        // copy wave.
        let after = self.stats();
        let pieces = after.pieces - before.pieces;
        let split =
            KernelCost::stream(std::mem::size_of::<Run>() as u64 * (n_runs as u64 + pieces));
        let copy = KernelCost::copy(after.bytes_copied - before.bytes_copied);
        device.parallel_for("restart_split_runs", 0, split, |_| {});
        device.parallel_for("restart_copy_wave", 0, copy, |_| {});

        let done = self.done();
        debug_assert!(j > 0 || done, "record position 0 must resolve every chunk");
        if !done {
            self.next_pos = j - 1;
        }
        Ok(done)
    }

    /// Every slice has written all its chunks.
    fn done(&self) -> bool {
        self.slices.iter().all(|s| s.unresolved == 0)
    }

    /// The walk's counters, summed over the slices.
    fn stats(&self) -> RestartStats {
        let mut total = RestartStats {
            records_visited: self.records_visited,
            ..RestartStats::default()
        };
        for s in &self.slices {
            total.regions_copied += s.stats.regions_copied;
            total.bytes_copied += s.stats.bytes_copied;
            total.zero_chunks += s.stats.zero_chunks;
            total.pieces += s.stats.pieces;
        }
        total
    }

    /// The restored bytes and walk statistics. Errors if records stopped
    /// being fed before every chunk was resolved; the unfinished buffer is
    /// dropped at length 0, never read.
    pub fn finish(mut self) -> Result<(Vec<u8>, RestartStats), RestoreError> {
        let remaining: usize = self.slices.iter().map(|s| s.unresolved).sum();
        if remaining > 0 {
            return Err(RestoreError::UnresolvableShifts {
                ckpt_id: self.chain.base + self.next_pos,
                remaining,
            });
        }
        let stats = self.stats();
        // SAFETY: `begin` reserved `data_len` bytes, and every one of them
        // is written. A slice's `unresolved` starts at its chunk count, and
        // a visit takes off exactly the chunks it writes into the slice's
        // own bytes: copied from a payload (`Visit::copy`, made by the
        // `flush` that ends every visit) or zero-filled (`Visit::zeros`),
        // the short last chunk whole. The runs a restore holds have
        // pairwise-disjoint destinations — one run per slice at `begin`, and
        // a visit hands on a run's chunks to one list, one copy or one fill
        // each, after `Chain::index` refused overlapping tables — so no
        // chunk is counted twice, and all slices at zero means every chunk,
        // hence every byte, written once.
        unsafe { self.buf.set_len(self.chain.ck.data_len()) };
        Ok((self.buf, stats))
    }
}

/// Restore version `target_index` of a (possibly compacted, base-offset)
/// record in a single pass. Bit-identical to the corresponding version of
/// the sequential replay (`ckpt_bench::oracle::restore_record_from`) at any
/// thread count.
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
    // An empty record has no index 0: typed there.
    restore_version_single_pass(device, base, diffs, diffs.len().saturating_sub(1))
}
