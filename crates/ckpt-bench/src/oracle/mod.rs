//! The test oracles: reference implementations the production engines are
//! held against byte for byte, sharing no resolution or region-building
//! logic with them. Production code never runs them; the production
//! crates reach them as a dev-dependency. [`restore_record`] is §2.2's
//! sequential replay (also the `restart_latency` baseline),
//! [`SerialTreeCheckpointer`] the Tree method on one thread, and
//! [`restore_rank`] the replay of a rank's record out of a tier chain.

mod replay;
mod tree_serial;

pub use replay::{restore_record, restore_record_from};
pub use tree_serial::SerialTreeCheckpointer;

use ckpt_dedup::Diff;
use ckpt_runtime::{collect_record, LineageError, TierChain};

/// Materialize every surviving version of `rank`'s record by sequential
/// replay ([`restore_record_from`]), keeping them all in memory. Returns
/// the base checkpoint id (0 unless the chain was compacted) and the
/// versions `base, base+1, …` in order.
pub fn restore_rank(tiers: &TierChain, rank: u32) -> Result<(u32, Vec<Vec<u8>>), LineageError> {
    let (base, encoded) = collect_record(tiers, rank)?;
    let diffs = encoded
        .iter()
        .enumerate()
        .map(|(i, bytes)| {
            Diff::decode_shared(bytes).map_err(|e| LineageError::Decode(base + i as u32, e))
        })
        .collect::<Result<Vec<Diff>, LineageError>>()?;
    let versions = restore_record_from(base, &diffs);
    Ok((base, versions.map_err(LineageError::Restore)?))
}
