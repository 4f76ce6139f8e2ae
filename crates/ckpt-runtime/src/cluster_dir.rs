//! The on-disk record layout, owned in one place.
//!
//! | path | content |
//! |---|---|
//! | `NNNN.ckpt` | flat layout: rank 0's object `(0, NNNN)`, framed (a file without a frame reads as a damaged one) |
//! | `rank####/NNNN.ckpt` | ranked layout: object `(####, NNNN)`, framed with its real rank |
//! | `group/h####_c####.grp` | group-tier object keyed `(hosting rank, ckpt)`: an `xor:<k>` parity stripe (`xor:2`: the partner's mirror) |
//! | `group/MANIFEST` | [`RedundancyStore::export_manifest`]: policy + member table |
//!
//! [`ClusterDir::export`] writes a [`TierChain`]'s PFS and group-tier
//! objects as the framed bytes the tiers hold. [`ClusterDir::import`] loads
//! a directory back into a fresh chain *without verifying anything*: a
//! flipped, truncated or missing file is then found, quarantined, rebuilt
//! from the group or typed lost by the chain's own read path — the same
//! code that serves a live runtime. [`ClusterDir::verify`] is that path run
//! over every object and mapped onto verified / repairable / lost.
//!
//! The hole rule: a rank's restorable chain is what
//! [`collect_record`] returns — the contiguous run ending at the newest
//! readable id, replayed from checkpoint 0 or from a self-contained rebase
//! record. An id missing or unrepairable *below* surviving incremental
//! records, or a known id *above* the chain's top, is lost; restore fails
//! naming it rather than handing back an older version.

use crate::chain::TierChain;
use crate::lineage::{collect_record, LineageError};
use crate::redundancy::RedundancyStore;
use crate::tier::{ObjectId, ObjectState, StoredObject};
use crate::ObjectStatus;
use ckpt_dedup::diff::Diff;
use ckpt_dedup::frame::RecordIndex;
use ckpt_dedup::restart::{check_chain, RestartStats};
use ckpt_dedup::Bytes;
use gpu_sim::Device;
use std::collections::{BTreeSet, HashSet};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const GROUP_DIR: &str = "group";
const MANIFEST: &str = "MANIFEST";

/// How record files are arranged under the root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One rank (0), its files directly in the root.
    Flat,
    /// One `rank####/` subdirectory per rank, plus `group/` when a
    /// redundancy policy is on.
    Ranked,
}

/// Directory name of one rank's record (`rank0003`).
pub fn rank_name(rank: u32) -> String {
    format!("rank{rank:04}")
}

fn parse_rank(name: &str) -> Option<u32> {
    let digits = name.strip_prefix("rank")?;
    (digits.len() >= 4 && digits.bytes().all(|b| b.is_ascii_digit()))
        .then(|| digits.parse().ok())
        .flatten()
}

fn parse_ckpt(name: &str) -> Option<u32> {
    name.strip_suffix(".ckpt")?.parse().ok()
}

fn group_stem(key: ObjectId) -> String {
    format!("h{:04}_c{:04}", key.0, key.1)
}

fn parse_group(name: &str) -> Option<ObjectId> {
    let (host, ckpt) = name
        .strip_suffix(".grp")?
        .strip_prefix('h')?
        .split_once("_c")?;
    Some((host.parse().ok()?, ckpt.parse().ok()?))
}

/// `(file name, path)` of a directory's entries, sorted; an absent or
/// unreadable directory lists as empty (its objects are simply missing).
fn entries(dir: &Path) -> Vec<(String, PathBuf)> {
    let mut out: Vec<(String, PathBuf)> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| Some((e.file_name().to_str()?.to_string(), e.path())))
        .collect();
    out.sort();
    out
}

/// Write `bytes` to a new file at `path`: an existing file is an error
/// naming it, never replaced.
fn write_new(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let named = |e: io::Error| io::Error::new(e.kind(), format!("{}: {e}", path.display()));
    std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(path)
        .and_then(|mut file| file.write_all(bytes))
        .map_err(named)
}

/// A record directory (see the module docs for the layout).
pub struct ClusterDir {
    root: PathBuf,
}

impl ClusterDir {
    /// The record rooted at exactly `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        ClusterDir { root: root.into() }
    }

    /// The record `path` belongs to, and the rank it names: a `rank####`
    /// member of a ranked root — present or not, so a lost rank directory
    /// is still addressable through its group — resolves to that root;
    /// any other path is its own root.
    pub fn containing(path: &Path) -> (ClusterDir, Option<u32>) {
        let rank = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(parse_rank);
        if let (Some(rank), Some(parent)) = (rank, path.parent()) {
            let parent = if parent.as_os_str().is_empty() {
                Path::new(".")
            } else {
                parent
            };
            let root = ClusterDir::new(parent);
            if root.layout() == Layout::Ranked {
                return (root, Some(rank));
            }
        }
        (ClusterDir::new(path), None)
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Ranked when any `rank####/` or `group/` survives — a cluster that
    /// lost rank 0 *and* its manifest must still be read as a cluster.
    fn layout(&self) -> Layout {
        let ranked = entries(&self.root)
            .iter()
            .any(|(name, path)| (parse_rank(name).is_some() || name == GROUP_DIR) && path.is_dir());
        if ranked {
            Layout::Ranked
        } else {
            Layout::Flat
        }
    }

    /// Whether the directory already holds a record: a `NNNN.ckpt` file,
    /// a `rank####/` or a `group/` directory. A new record goes only where
    /// none is, so two runs' versions never mix in one chain.
    pub fn holds_record(&self) -> bool {
        self.layout() == Layout::Ranked
            || entries(&self.root)
                .iter()
                .any(|(name, _)| parse_ckpt(name).is_some())
    }

    /// Write the chain's durable state: every PFS object under its rank
    /// (`Flat` requires all of them to be rank 0's), and — when a
    /// redundancy store is attached — every group object plus the
    /// manifest. Bytes are the tiers' framed bytes, untouched. Every file
    /// is new: one that exists already is an error, never overwritten.
    pub fn export(&self, tiers: &TierChain, layout: Layout) -> io::Result<()> {
        std::fs::create_dir_all(&self.root)?;
        for id in tiers.pfs.resident() {
            let dir = match layout {
                Layout::Flat if id.0 != 0 => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("flat layout holds rank 0 only, not {}", rank_name(id.0)),
                    ));
                }
                Layout::Flat => self.root.clone(),
                Layout::Ranked => self.root.join(rank_name(id.0)),
            };
            std::fs::create_dir_all(&dir)?;
            if let Some(framed) = tiers.pfs.raw(id) {
                write_new(&dir.join(format!("{:04}.ckpt", id.1)), &framed)?;
            }
        }
        if let Some(store) = tiers.redundancy() {
            let gdir = self.root.join(GROUP_DIR);
            std::fs::create_dir_all(&gdir)?;
            for key in store.group_tier().resident() {
                if let Some(framed) = store.group_tier().raw(key) {
                    write_new(&gdir.join(format!("{}.grp", group_stem(key))), &framed)?;
                }
            }
            write_new(&gdir.join(MANIFEST), store.export_manifest().as_bytes())?;
        }
        Ok(())
    }

    /// Load the directory into a fresh chain, unverified (see the module
    /// docs). Record files land on the PFS, group objects in the group
    /// tier of a store rebuilt from the manifest. What cannot be loaded at
    /// all — a malformed manifest, group objects without one — is
    /// reported in [`Loaded::notes`], never silently dropped.
    pub fn import(&self) -> io::Result<Loaded> {
        let mut loaded = Loaded {
            tiers: TierChain::new(),
            layout: self.layout(),
            notes: Vec::new(),
            rank_dirs: BTreeSet::new(),
        };
        if loaded.layout == Layout::Flat {
            loaded.load_rank(&self.root, 0)?;
            return Ok(loaded);
        }
        for (name, path) in entries(&self.root) {
            if let Some(rank) = parse_rank(&name).filter(|_| path.is_dir()) {
                loaded.rank_dirs.insert(rank);
                loaded.load_rank(&path, rank)?;
            }
        }
        let gdir = self.root.join(GROUP_DIR);
        let mut objects: Vec<(ObjectId, PathBuf)> = Vec::new();
        for (name, path) in entries(&gdir) {
            match parse_group(&name) {
                Some(key) => objects.push((key, path)),
                None if name != MANIFEST => loaded
                    .notes
                    .push(format!("{GROUP_DIR} {name} BAD unrecognised name")),
                None => {}
            }
        }
        let store = match std::fs::read(gdir.join(MANIFEST)) {
            Ok(bytes) => {
                let store = std::str::from_utf8(&bytes)
                    .ok()
                    .and_then(RedundancyStore::from_manifest);
                if store.is_none() {
                    loaded
                        .notes
                        .push(format!("{GROUP_DIR} {MANIFEST} BAD malformed or truncated"));
                }
                store
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                if !objects.is_empty() {
                    loaded
                        .notes
                        .push(format!("{GROUP_DIR} {MANIFEST} BAD missing"));
                }
                None
            }
            Err(e) => return Err(e),
        };
        if let Some(store) = store {
            for (key, path) in objects {
                store.group_tier().put_framed(key, std::fs::read(path)?);
            }
            loaded.tiers.attach_redundancy(Arc::new(store));
        }
        Ok(loaded)
    }

    /// Classify every object the directory names or its group remembers.
    ///
    /// Status comes from the chain, not from this module:
    /// [`TierChain::recover_report`] checks frames, quarantines, rebuilds
    /// from the group and resolves rank-dedup references; an object it
    /// calls durable is then read back and must decode as a [`Diff`].
    /// *verified* — the file's own frame was intact and recovery had
    /// nothing to repair; *repairable* — `Repaired` / `RestoredFromGroup`,
    /// or the file was damaged and another record's reference resolution
    /// already rebuilt it; *lost* — `LostCorrupt` / `LostVolatile`, an
    /// undecodable payload, or a hole in the rank's chain (module docs).
    ///
    /// That a rank's chain restores is proven by [`check_chain`]: the engine's
    /// own per-visit validation, run once per record; no version is built.
    pub fn verify(&self) -> io::Result<VerifyReport> {
        let loaded = self.import()?;
        let tiers = &loaded.tiers;
        let mut notes = loaded.notes.clone();
        if let Some(store) = tiers.redundancy() {
            for key in store.group_tier().resident() {
                if let ObjectState::Corrupt(e) = store.group_tier().inspect_object(key) {
                    notes.push(format!("{GROUP_DIR} {} BAD {e}", group_stem(key)));
                }
            }
        }
        // Recovery re-stores rebuilt objects on the PFS, after which a
        // rebuilt copy and an intact file look alike: note which files
        // verify as they sit, before anything is repaired.
        let pfs = &tiers.pfs;
        let intact: HashSet<ObjectId> = pfs
            .resident()
            .into_iter()
            .filter(|&id| matches!(pfs.inspect_object(id), ObjectState::Valid(_)))
            .collect();
        let recovery = tiers.recover_report();
        let group = tiers.redundancy().map(|r| r.policy().label());
        let device = Device::a100();
        let mut ranks: Vec<RankVerify> = Vec::new();
        // Every rank with a directory: one that is empty and unknown to the
        // group has no objects, and `record` types that below.
        for rank in loaded.ranks() {
            let recovered = recovery.ranks.iter().find(|r| r.rank == rank);
            let record = loaded.record(rank);
            // Chain members were just read back and decoded by `record`.
            let in_chain = |k: u32| {
                let chain = record.as_ref().ok();
                chain.is_some_and(|r| (r.base..r.base + r.diffs.len() as u32).contains(&k))
            };
            let objects = recovered.into_iter().flat_map(|r| &r.objects).map(|o| {
                let id = (rank, o.ckpt_id);
                let decodes = |payload: Bytes| Diff::decode_shared(&payload).is_ok();
                let proven = o.status.is_durable()
                    && (in_chain(o.ckpt_id) || tiers.locate(id).is_some_and(decodes));
                let (status, detail) = if !proven {
                    (VerifyStatus::Lost, loaded.loss_detail(id))
                } else if o.status == ObjectStatus::Verified && intact.contains(&id) {
                    (VerifyStatus::Verified, String::new())
                } else {
                    let group = group.as_deref().unwrap_or_default();
                    let detail = format!("reconstructable from group ({group})");
                    (VerifyStatus::Repairable, detail)
                };
                ObjectVerify {
                    ckpt_id: o.ckpt_id,
                    status,
                    detail,
                }
            });
            let mut rank = RankVerify {
                rank,
                objects: objects.collect(),
                chain: None,
            };
            match record {
                Ok(record) => match check_chain(&device, record.base, &record.diffs) {
                    Ok(walk) => rank.chain = Some((record.base, walk)),
                    Err(e) => rank.mark_lost(
                        record.base + record.diffs.len() as u32 - 1,
                        format!("restore chain does not replay: {e}"),
                    ),
                },
                Err(e) => rank.mark_lost(e.ckpt_id, e.detail),
            }
            ranks.push(rank);
        }
        Ok(VerifyReport {
            layout: loaded.layout,
            ranks,
            notes,
        })
    }
}

/// An imported directory: the chain plus what the file names told us.
pub struct Loaded {
    pub tiers: TierChain,
    pub layout: Layout,
    /// One line per thing that could not be loaded as found.
    pub notes: Vec<String>,
    rank_dirs: BTreeSet<u32>,
}

/// One rank's restorable chain, decoded: `diffs[i]` is checkpoint
/// `base + i`.
pub struct Record {
    pub base: u32,
    pub diffs: Vec<Diff>,
}

/// Why a rank has no chain reaching its newest known checkpoint.
#[derive(Debug)]
pub struct RecordError {
    /// The checkpoint that is lost.
    pub ckpt_id: u32,
    pub detail: String,
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{:04} LOST  {}", self.ckpt_id, self.detail)
    }
}

impl std::error::Error for RecordError {}

impl Loaded {
    fn load_rank(&mut self, dir: &Path, rank: u32) -> io::Result<()> {
        for (name, path) in entries(dir) {
            let Some(ckpt) = parse_ckpt(&name) else {
                continue;
            };
            self.tiers
                .pfs
                .put_framed((rank, ckpt), std::fs::read(&path)?);
        }
        Ok(())
    }

    /// Every rank with a directory, a file or a group-manifest entry.
    pub fn ranks(&self) -> BTreeSet<u32> {
        let mut ranks = self.rank_dirs.clone();
        ranks.extend(self.tiers.known_ids().into_keys());
        ranks
    }

    /// The rank's restorable chain (the hole rule in the module docs),
    /// decoded. Reads through [`collect_record`], so damaged files are
    /// rebuilt from the group on the way.
    pub fn record(&self, rank: u32) -> Result<Record, RecordError> {
        // Listed before reading: reads move ids from resident to
        // quarantined, never out of the union.
        let known = self.tiers.known_ckpts(rank);
        let lost = |ckpt_id: u32, suffix: String| RecordError {
            ckpt_id,
            detail: format!("{}{suffix}", self.loss_detail((rank, ckpt_id))),
        };
        let (base, chain) = match collect_record(&self.tiers, rank) {
            Ok(found) => found,
            Err(LineageError::Hole {
                missing,
                present_above,
                ..
            }) => {
                return Err(lost(
                    missing,
                    format!(
                        "; v{present_above:04} above it is not self-contained \
                         (not a rebase point)"
                    ),
                ));
            }
            // Nothing readable at all: name the newest id anything knows.
            Err(_) => return Err(lost(known.last().copied().unwrap_or(0), String::new())),
        };
        let top = base + chain.len() as u32 - 1;
        if let Some(&above) = known.iter().find(|&&k| k > top) {
            return Err(lost(above, format!("; newest readable is v{top:04}")));
        }
        let diffs = chain
            .iter()
            .enumerate()
            .map(|(i, bytes)| {
                Diff::decode_shared(bytes).map_err(|e| RecordError {
                    ckpt_id: base + i as u32,
                    detail: format!("undecodable diff: {e}"),
                })
            })
            .collect::<Result<Vec<Diff>, RecordError>>()?;
        Ok(Record { base, diffs })
    }

    /// Why `id` has no provable payload: what is wrong with the file, and
    /// whether a group could have stood in for it.
    #[expect(
        clippy::disallowed_methods,
        reason = "a diagnostic of a file no read could use: decoded untimed, outside the read path"
    )]
    fn loss_detail(&self, id: ObjectId) -> String {
        let file = match self.tiers.pfs.raw(id) {
            None => "missing".to_string(),
            // The file itself is fine, so no copy of it would help.
            Some(raw) => match StoredObject::unframe(&raw, Some(id)).and_then(|o| o.decode()) {
                Err(e) => format!("corrupt frame: {e}"),
                Ok(payload) if RecordIndex::is_record(&payload) => {
                    return "dangling rank-dedup reference".into()
                }
                Ok(_) => return "undecodable diff".into(),
            },
        };
        match self.tiers.redundancy() {
            Some(group) if group.knows_member(id) => {
                format!(
                    "{file}; its {} group cannot rebuild it",
                    group.policy().label()
                )
            }
            _ => format!("{file}; no redundancy group copy"),
        }
    }
}

/// Per-object verification outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyStatus {
    Verified,
    Repairable,
    Lost,
}

impl VerifyStatus {
    /// Stable report spelling.
    pub fn name(self) -> &'static str {
        match self {
            VerifyStatus::Verified => "verified",
            VerifyStatus::Repairable => "repairable",
            VerifyStatus::Lost => "lost",
        }
    }
}

#[derive(Debug, Clone)]
pub struct ObjectVerify {
    pub ckpt_id: u32,
    pub status: VerifyStatus,
    /// Human-readable reason (empty for a plain verified object).
    pub detail: String,
}

#[derive(Debug, Clone)]
pub struct RankVerify {
    pub rank: u32,
    /// Sorted by checkpoint id.
    pub objects: Vec<ObjectVerify>,
    /// The chain's base and [`check_chain`]'s walk counters — one record
    /// visited per version, nothing copied — when the chain reaches the
    /// newest known checkpoint and every version of it restores.
    pub chain: Option<(u32, RestartStats)>,
}

impl RankVerify {
    /// Type `ckpt_id` lost, adding it when no file or group entry named it
    /// (a hole). An object already lost keeps its more specific reason.
    fn mark_lost(&mut self, ckpt_id: u32, detail: String) {
        match self.objects.iter_mut().find(|o| o.ckpt_id == ckpt_id) {
            Some(o) if o.status == VerifyStatus::Lost => {}
            Some(o) => {
                o.status = VerifyStatus::Lost;
                o.detail = detail;
            }
            None => {
                self.objects.push(ObjectVerify {
                    ckpt_id,
                    status: VerifyStatus::Lost,
                    detail,
                });
                self.objects.sort_by_key(|o| o.ckpt_id);
            }
        }
    }
}

/// What [`ClusterDir::verify`] found.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    pub layout: Layout,
    /// Sorted by rank.
    pub ranks: Vec<RankVerify>,
    /// Group-tier findings (`group h####_c#### BAD <err>`, manifest
    /// problems): damage that degrades only the members needing it.
    pub notes: Vec<String>,
}

impl VerifyReport {
    pub fn count(&self, status: VerifyStatus) -> u64 {
        self.ranks
            .iter()
            .flat_map(|r| &r.objects)
            .filter(|o| o.status == status)
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AsyncRuntime, RedundancyPolicy, RuntimeConfig};
    use ckpt_dedup::prelude::*;

    /// A throwaway directory holding a 2-rank x 3-version `xor:2` record
    /// written through the runtime, plus each rank's newest snapshot.
    fn exported(tag: &str) -> (PathBuf, Vec<Vec<u8>>) {
        let root = std::env::temp_dir().join(format!("cluster-dir-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let rt = AsyncRuntime::start(RuntimeConfig {
            redundancy: RedundancyPolicy::Xor { group_size: 2 },
            ..Default::default()
        });
        let mut newest = Vec::new();
        let mut ids = Vec::new();
        for rank in 0..2u32 {
            let mut ckpt = TreeCheckpointer::new(gpu_sim::Device::a100(), TreeConfig::new(64));
            let mut data: Vec<u8> = (0..4096u32).map(|i| (i % 199) as u8 ^ rank as u8).collect();
            for k in 0..3u32 {
                data[(k as usize + 1) * 257] ^= 0xff;
                rt.submit(rank, k, ckpt.checkpoint(&data).diff.encode())
                    .unwrap();
                ids.push((rank, k));
            }
            newest.push(data);
        }
        rt.wait_durable(&ids);
        rt.wait_redundancy_durable(&ids);
        ClusterDir::new(&root)
            .export(rt.tiers(), Layout::Ranked)
            .unwrap();
        (root, newest)
    }

    /// What [`check_chain`] reports for `versions` restorable versions:
    /// each record visited once, no region and no byte copied.
    fn proven(versions: u32) -> RestartStats {
        RestartStats {
            records_visited: versions,
            ..RestartStats::default()
        }
    }

    fn latest(loaded: &Loaded, rank: u32) -> Vec<u8> {
        let record = loaded.record(rank).unwrap();
        let device = Device::a100();
        let (bytes, _) = restore_latest_single_pass(&device, record.base, &record.diffs).unwrap();
        bytes
    }

    #[test]
    fn export_import_round_trips_and_members_resolve_to_the_root() {
        let (root, newest) = exported("roundtrip");
        let (dir, member) = ClusterDir::containing(&root.join(rank_name(1)));
        assert_eq!((dir.root(), member), (root.as_path(), Some(1)));
        assert_eq!(ClusterDir::containing(&root).1, None);
        let loaded = dir.import().unwrap();
        assert_eq!(loaded.layout, Layout::Ranked);
        assert!(loaded.notes.is_empty());
        assert_eq!(loaded.ranks().into_iter().collect::<Vec<_>>(), [0, 1]);
        assert_eq!(latest(&loaded, 0), newest[0]);
        assert_eq!(latest(&loaded, 1), newest[1]);
        let report = dir.verify().unwrap();
        assert_eq!(report.count(VerifyStatus::Verified), 6);
        assert!(report.ranks.iter().all(|r| r.chain == Some((0, proven(3)))));
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// `verify` proves a chain from its region tables: on a 32-record Tree
    /// chain it visits each record once and copies nothing — where the
    /// sequential replay it used to run built all 32 versions.
    #[test]
    fn verify_proves_a_long_chain_without_restoring_a_version() {
        let root = std::env::temp_dir().join(format!("cluster-dir-long-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let rt = AsyncRuntime::new();
        let mut ckpt = TreeCheckpointer::new(Device::a100(), TreeConfig::new(64));
        let mut data: Vec<u8> = (0..16384u32).map(|i| (i % 211) as u8).collect();
        let ids: Vec<ObjectId> = (0..32).map(|k| (0, k)).collect();
        for &(rank, k) in &ids {
            data[(k as usize * 487) % 16384] ^= 0x5a;
            rt.submit(rank, k, ckpt.checkpoint(&data).diff.encode())
                .unwrap();
        }
        rt.wait_durable(&ids);
        let dir = ClusterDir::new(&root);
        dir.export(rt.tiers(), Layout::Flat).unwrap();

        let report = dir.verify().unwrap();
        assert_eq!(report.count(VerifyStatus::Verified), 32);
        let rank = &report.ranks[0];
        assert_eq!(rank.chain, Some((0, proven(32))));
        assert_eq!(latest(&dir.import().unwrap(), 0), data);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn import_is_unverified_and_the_chain_does_the_classifying() {
        let (root, newest) = exported("damage");
        // One flipped file, one deleted: import takes both as found.
        let flipped = root.join(rank_name(0)).join("0001.ckpt");
        let mut bytes = std::fs::read(&flipped).unwrap();
        bytes[40] ^= 1;
        std::fs::write(&flipped, &bytes).unwrap();
        std::fs::remove_file(root.join(rank_name(1)).join("0002.ckpt")).unwrap();
        let dir = ClusterDir::new(&root);
        let loaded = dir.import().unwrap();
        assert_eq!(loaded.tiers.pfs.raw((0, 1)), Some(bytes.into()));
        assert!(loaded.tiers.pfs.quarantined().is_empty());
        // Reading through the chain rebuilds both from the mirror stripes.
        assert_eq!(latest(&loaded, 0), newest[0]);
        assert_eq!(latest(&loaded, 1), newest[1]);
        assert_eq!(loaded.tiers.pfs.quarantined(), [(0, 1)]);
        let report = dir.verify().unwrap();
        assert_eq!(report.count(VerifyStatus::Repairable), 2);
        assert_eq!(report.count(VerifyStatus::Lost), 0);

        // Without the group the deleted newest id is unknowable, but the
        // flipped one is a hole under v0002: typed, and no chain.
        std::fs::remove_dir_all(root.join(GROUP_DIR)).unwrap();
        let report = dir.verify().unwrap();
        let rank0 = &report.ranks[0];
        assert_eq!(rank0.objects[1].status, VerifyStatus::Lost);
        assert!(rank0.objects[1].detail.starts_with("corrupt frame"));
        assert_eq!(rank0.chain, None);
        assert_eq!(report.ranks[1].chain, Some((0, proven(2))));
        let err = dir.import().unwrap().record(0).err().unwrap();
        assert_eq!(err.ckpt_id, 1);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
