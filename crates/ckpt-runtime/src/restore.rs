//! The restore engine: single-pass chain resolution fed by demand-driven,
//! one-record-ahead tier reads.
//!
//! [`ckpt_dedup::restart::SinglePassRestore`] resolves a record chain
//! newest→oldest, needing each encoded diff exactly once. That shape is a
//! pipeline: while the resolution kernel works on record *j*, record *j−1*
//! can already be on its way out of the tier chain. A reader thread
//! supplies that overlap — but only on demand. The caller's thread decodes
//! record *j*, and hands the reader one token for *j−1* **unless** *j* is
//! self-contained (a Full record, or a rebase record: it references
//! nothing older, so the walk ends there); only then does it resolve *j*.
//! The reader never starts a `locate` it holds no token for, so a
//! self-contained top record costs exactly one `locate` and no thread, a
//! rebase-terminated chain fetches exactly the records it reads, and any
//! other chain at most one more (the engine can finish on a record that
//! is not structurally self-contained, with its successor already asked
//! for). The engine sweeps a visit's output slices on the pool when the
//! reader is ahead of the walk — the record was in hand before the walk
//! asked for it — or when no record is wanted; otherwise the reader's
//! `locate` of the next record is what the walk waits on, and the slices
//! sweep in order on the caller's thread beside it, with the same bytes
//! and counters.
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
use ckpt_dedup::diff::Diff;
use ckpt_dedup::restart::{is_self_contained, RestartStats, SinglePassRestore};
use ckpt_dedup::Bytes;
use ckpt_telemetry::Registry;
use crossbeam::channel::bounded;
use gpu_sim::Device;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

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
/// pass, prefetching tier reads one record ahead. Records are fetched
/// via [`TierChain::locate`], so corruption fallback and repair behave
/// exactly as in [`crate::lineage::collect_record`]; the restored bytes are
/// bit-identical to the sequential-replay oracle's
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
    // Locates the walk started, the top record's included. A statistic
    // only, read after the scope below has joined the reader.
    let records_fetched = AtomicU64::new(1);

    let mut diff = Diff::decode_shared(&top_bytes).map_err(|e| LineageError::Decode(top, e))?;
    // A record that references nothing older provably ends the walk: the
    // one below it is asked for — before this one is resolved, which is the
    // overlap — only otherwise.
    let mut ends_walk = is_self_contained(&diff);

    let engine = std::thread::scope(|s| -> Result<SinglePassRestore, LineageError> {
        let (want, wanted) = bounded::<()>(1);
        let (tx, rx) = bounded::<(u32, Option<Bytes>)>(1);
        if !ends_walk {
            let records_fetched = &records_fetched;
            #[expect(
                clippy::disallowed_methods,
                reason = "the restore's record reader, joined before the scope returns"
            )]
            s.spawn(move || {
                // One `locate` per token, newest first. Either channel
                // closing (resolution complete, or an error) ends the walk.
                for id in (0..top).rev() {
                    if wanted.recv().is_err() {
                        break;
                    }
                    records_fetched.fetch_add(1, Ordering::Relaxed);
                    if tx.send((id, reader.locate((rank, id)))).is_err() {
                        break;
                    }
                }
            });
            let _ = want.send(());
        }
        // Positions are absolute checkpoint ids (base 0): the engine stops
        // on its own at a self-contained rebase record, so the true chain
        // base never needs to be known up front.
        let mut engine =
            SinglePassRestore::begin(device, 0, &diff).map_err(LineageError::Restore)?;
        // Whether the record being visited was in hand before the walk
        // asked for it. If not, the reader is the slower side, and a visit
        // on the pool would take the cores its next `locate` needs.
        let mut reader_ahead = false;
        loop {
            let done = if ends_walk || reader_ahead {
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
            let in_hand = rx.try_recv().ok();
            reader_ahead = in_hand.is_some();
            let Some((id, bytes)) = in_hand.or_else(|| rx.recv().ok()) else {
                // The reader is gone with the engine still wanting records;
                // `finish` below types that.
                return Ok(engine);
            };
            fetch_wait_ns += t0.elapsed().as_nanos() as u64;
            let Some(bytes) = bytes else {
                // Every copy of `id` is missing or corrupt, and newer
                // records still need it: a genuine hole, not a chain end.
                return Err(LineageError::Hole {
                    rank,
                    missing: id,
                    present_above: id + 1,
                });
            };
            records_read += 1;
            bytes_read += bytes.len() as u64;
            diff = Diff::decode_shared(&bytes).map_err(|e| LineageError::Decode(id, e))?;
            ends_walk = is_self_contained(&diff);
            if !ends_walk {
                // With no reader left to hear it, the `recv` above fails.
                let _ = want.send(());
            }
        }
        // `want` and `rx` drop on return: the reader's `recv` or `send`
        // fails and it exits without starting another `locate`.
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
