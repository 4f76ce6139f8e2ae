//! The restore engine: single-pass chain resolution fed by a record reader
//! that runs ahead of it, down to the chain's self-contained floor.
//!
//! [`ckpt_dedup::restart::SinglePassRestore`] resolves a record chain
//! newest→oldest, needing each encoded diff exactly once. That shape is a
//! pipeline: while the resolution kernel works on record *j*, records
//! *j−1*, *j−2*, … can already be on their way out of the tier chain. A
//! reader thread supplies that overlap. It `locate`s records newest first,
//! decodes each itself, and hands the decoded record to the walk through a
//! channel of [`READ_AHEAD`] slots, so it is at most that many records
//! (plus the one in its hands) ahead. It stops after the first
//! self-contained record (a Full record, or a rebase record: it
//! references nothing older, so the walk ends there), after a hole, or
//! when the walk hangs up. A self-contained top record therefore costs
//! exactly one `locate` and no thread, a chain that ends on a
//! self-contained record fetches exactly the records it reads, and any
//! other chain at most `READ_AHEAD + 1` more — only when the walk finishes
//! on a record that is not structurally self-contained.
//!
//! The engine sweeps a visit's output slices on the pool once the reader
//! has nothing left to read, or when the walk ends at that record;
//! otherwise the reader's `locate`s (which decompress and resolve on the
//! pool) are what the walk waits on, and the slices sweep in order on the
//! caller's thread beside them, with the same bytes and counters.
//!
//! Every read of the walk goes through one [`ChainReader`], so corrupt
//! shallow copies are skipped and repaired on the way, and a record
//! referenced by several rank-dedup records of the chain is fetched and
//! indexed once per restore.
//!
//! A chain whose newest surviving run sits above a lost record is *not*
//! silently truncated to stale state: the walk either terminates at a
//! self-contained rebase record or reaches the hole and reports
//! [`LineageError::Hole`].
//!
//! [`ChainReader`]: crate::chain::ChainReader

use crate::chain::TierChain;
use crate::lineage::LineageError;
use crate::runtime::AsyncRuntime;
use ckpt_dedup::diff::{DecodeError, Diff};
use ckpt_dedup::restart::{is_self_contained, RestartStats, SinglePassRestore};
use ckpt_telemetry::Registry;
use crossbeam::channel::bounded;
use gpu_sim::Device;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// How many decoded records the reader may hold ready for the walk: it is
/// at most this many, plus the one it is reading, ahead.
pub const READ_AHEAD: usize = 4;

/// A record as the reader hands it over: its stored length, its decode,
/// and whether it ends the walk — or `None` for a hole.
type Fetched = Option<(u64, Result<Diff, DecodeError>, bool)>;

/// Result of one parallel restart.
#[derive(Debug)]
pub struct ParallelRestoreOutcome {
    /// Checkpoint id of the restored version (the newest surviving one).
    pub version: u32,
    /// The restored bytes — bit-identical to the sequential-replay oracle.
    pub data: Vec<u8>,
    /// Resolution-walk counters from the single-pass engine.
    pub stats: RestartStats,
}

/// Restore the latest surviving version of `rank`'s record in a single
/// pass, reading records up to [`READ_AHEAD`] ahead of the walk. Records
/// are fetched via [`TierChain::locate`], so corruption fallback and
/// repair behave exactly as in [`crate::lineage::collect_record`]; the
/// restored bytes are bit-identical to the sequential-replay oracle's
/// (`ckpt_bench::oracle::restore_rank`) at any thread count.
///
/// When `registry` is given, the walk records `restore/*` counters (see
/// the metric table on the runtime's telemetry).
pub fn restore_rank_latest_parallel(
    tiers: &TierChain,
    device: &Device,
    rank: u32,
    registry: Option<&Registry>,
) -> Result<ParallelRestoreOutcome, LineageError> {
    // Newest surviving id: probe the ids the chain knows of, newest first
    // (a fully-lost rank has no local listings at all, but its redundancy
    // group still names its ids and `locate` rebuilds them on demand);
    // `locate` skips (and quarantines) copies that fail verification, so
    // the first hit is the newest restorable target.
    let mut reader = tiers.reader();
    let mut newest_first = tiers.known_ckpts(rank).into_iter().rev();
    let target = newest_first.find_map(|k| Some((k, reader.locate((rank, k))?)));
    let Some((top, top_bytes)) = target else {
        return Err(LineageError::Empty);
    };

    let mut records_read = 1u64;
    let mut bytes_read = top_bytes.len() as u64;
    let mut fetch_wait_ns = 0u64;
    // Locates the restore started, the top record's included. A statistic
    // only, read after the scope below has joined the reader.
    let records_fetched = AtomicU64::new(1);
    // Set before the reader hands over the last record it will read: from
    // then on the walk has the cores to itself. A scheduling hint that
    // publishes nothing, so relaxed.
    let reader_done = AtomicBool::new(false);

    let mut diff = Diff::decode_shared(&top_bytes).map_err(|e| LineageError::Decode(top, e))?;
    // A record that references nothing older provably ends the walk:
    // nothing below it is read.
    let mut ends_walk = is_self_contained(&diff);

    let engine = std::thread::scope(|s| -> Result<SinglePassRestore, LineageError> {
        let (tx, rx) = bounded::<(u32, Fetched)>(READ_AHEAD);
        if !ends_walk {
            let (records_fetched, reader_done) = (&records_fetched, &reader_done);
            #[expect(
                clippy::disallowed_methods,
                reason = "the restore's record reader, joined before the scope returns"
            )]
            s.spawn(move || {
                for id in (0..top).rev() {
                    records_fetched.fetch_add(1, Ordering::Relaxed);
                    let fetched = reader.locate((rank, id)).map(|bytes| {
                        let diff = Diff::decode_shared(&bytes);
                        let ends = diff.as_ref().is_ok_and(is_self_contained);
                        (bytes.len() as u64, diff, ends)
                    });
                    // A hole, a corrupt record or the floor: nothing below
                    // it is read.
                    let last = id == 0 || !matches!(fetched, Some((_, Ok(_), false)));
                    if last {
                        reader_done.store(true, Ordering::Relaxed);
                    }
                    // The walk hangs up when it is done (or failed).
                    if tx.send((id, fetched)).is_err() || last {
                        break;
                    }
                }
            });
        }
        // Positions are absolute checkpoint ids (base 0): the engine stops
        // on its own at a self-contained rebase record, so the true chain
        // base never needs to be known up front.
        let mut engine =
            SinglePassRestore::begin(device, 0, &diff).map_err(LineageError::Restore)?;
        loop {
            // While the reader still reads, a visit on the pool would take
            // the cores its `locate`s need.
            let done = if ends_walk || reader_done.load(Ordering::Relaxed) {
                engine.feed(&diff)
            } else {
                engine.feed_in_order(&diff)
            };
            if done.map_err(LineageError::Restore)? || ends_walk {
                return Ok(engine);
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "times the engine's wait for a record into `restore/fetch_wait_ns`"
            )]
            let t0 = Instant::now();
            let Ok((id, fetched)) = rx.recv() else {
                // The reader is gone with the engine still wanting records;
                // `finish` below types that.
                return Ok(engine);
            };
            fetch_wait_ns += t0.elapsed().as_nanos() as u64;
            let Some((len, decoded, ends)) = fetched else {
                // Every copy of `id` is missing or corrupt, and newer
                // records still need it: a genuine hole, not a chain end.
                return Err(LineageError::Hole {
                    rank,
                    missing: id,
                    present_above: id + 1,
                });
            };
            records_read += 1;
            bytes_read += len;
            diff = decoded.map_err(|e| LineageError::Decode(id, e))?;
            ends_walk = ends;
        }
        // `rx` drops on return: the reader's next `send` fails and it
        // exits without starting another `locate`.
    })?;
    let (data, stats) = engine.finish().map_err(LineageError::Restore)?;

    if let Some(reg) = registry {
        reg.counter("restore/chains_restored").inc();
        reg.counter("restore/records_read").add(records_read);
        reg.counter("restore/records_fetched")
            .add(records_fetched.into_inner());
        reg.counter("restore/bytes_read").add(bytes_read);
        reg.counter("restore/regions_copied")
            .add(stats.regions_copied);
        reg.counter("restore/pieces").add(stats.pieces);
        reg.counter("restore/bytes_copied").add(stats.bytes_copied);
        reg.counter("restore/fetch_wait_ns").add(fetch_wait_ns);
    }

    Ok(ParallelRestoreOutcome {
        version: top,
        data,
        stats,
    })
}

impl AsyncRuntime {
    /// [`restore_rank_latest_parallel`] against this runtime's tier chain,
    /// recording `restore/*` telemetry into its registry.
    pub fn restore_latest_parallel(
        &self,
        device: &Device,
        rank: u32,
    ) -> Result<ParallelRestoreOutcome, LineageError> {
        restore_rank_latest_parallel(self.tiers(), device, rank, Some(self.telemetry()))
    }
}
