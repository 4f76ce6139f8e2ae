//! `ckpt` — de-duplicated checkpoint records on the command line.
//!
//! ```text
//! ckpt create  --out <dir> [--method tree|list|basic|full] [--chunk N]
//!              [--compress off|adaptive|zstd|lz4|...] [--verify-collisions]
//!              [--stats] <snapshot files...>
//! ckpt info    <dir>
//! ckpt stats   <dir>
//! ckpt restore <dir> --version K --out <file> [--stats]
//! ckpt verify  <dir> [--json] [<original snapshot files...>]
//! ```
//!
//! This binary is a shell over `ckpt_runtime`: `create` submits encoded
//! diffs to an [`AsyncRuntime`] and exports its durable chain; every other
//! command imports the directory back into a [`TierChain`] and asks the
//! chain. The directory layout, and the one `verify`, live in
//! [`ClusterDir`]; nothing here frames, compresses, parity-encodes or
//! classifies an object. The snapshots of one rank must have equal, nonzero
//! length (the engine checkpoints a fixed-size buffer, like the paper's GDV
//! array), and `--chunk` is at least `Chunking::MIN_CHUNK_SIZE`; both are
//! checked before anything is written.
//!
//! `--compress` applies the runtime's frame-level compression stage to each
//! record file: the encoded diff goes through the [`CompressionPolicy`]
//! (`adaptive` samples each object and picks a codec; a codec name fixes
//! one; `off` is the default) and is stored in a compressed frame whose
//! checksum covers the compressed bytes. `info`/`stats`/`verify` read the codec flag and
//! decompress transparently; it is the only place checkpoint bytes are
//! compressed. `--verify-collisions` acts inside the de-duplication
//! pipeline, so it takes `--method tree` or `list`; with `basic` or `full`
//! it is a usage error (exit 2).
//!
//! A *compacted* record (chain-compaction GC deleted the files below a
//! rebase point) starts at some version above 0; every command detects the
//! base automatically and requires the head record to be self-contained.
//! `--version` always takes absolute checkpoint ids. A version missing or
//! unrepairable *below* surviving incremental ones is a hole: `verify`
//! types it lost and `restore` fails naming it, never writing older state.
//!
//! `ckpt restore` has one engine, the single-pass one: a newest-to-oldest
//! walk resolves every chunk's provenance, then each resolved region is
//! copied exactly once, whatever the chain's length or base. With originals,
//! `ckpt verify` restores and compares one version at a time the same way.
//!
//! `ckpt verify <dir>` with no originals runs in *integrity mode*: every
//! object is classified verified / repairable / lost by
//! [`ClusterDir::verify`] and each rank's chain proven restorable from its
//! region tables alone — no version is built, no original needed.
//!
//! Missing or malformed operands (an unknown flag, a flag without a value or
//! with one it cannot take, a missing `<dir>`) exit 2 naming the flag;
//! errors about the data exit 1.
//!
//! `--stats` (on `create` and `restore`) and the `stats` subcommand emit a
//! one-line JSON telemetry report on stdout, prefixed with `stats: `. The
//! schema is stable: `{"command", "method", ..., "breakdowns": [...],
//! "metrics": {"counters", "gauges", "histograms", "spans"}}` (see
//! `DESIGN.md` § Observability).

use gpu_dedup_ckpt::dedup::prelude::*;
use gpu_dedup_ckpt::dedup::{Chunking, Diff, RecordIndex};
use gpu_dedup_ckpt::gpu_sim::Device;
use gpu_dedup_ckpt::runtime::cluster_dir::{rank_name, Loaded, Record};
use gpu_dedup_ckpt::runtime::{
    AsyncRuntime, ClusterDir, CompressionPolicy, Layout, RankDedupConfig, RankDedupEngine,
    RankDedupMetrics, RedundancyPolicy, RedundancyStore, RuntimeConfig, StoredObject, TierChain,
    VerifyReport, VerifyStatus,
};
use gpu_dedup_ckpt::telemetry::{JsonWriter, Registry, StageBreakdown};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  ckpt create  --out <dir> [--method tree|list|basic|full] [--chunk N] \
         [--compress off|adaptive|<codec>] \
         [--redundancy off|xor:<k>] [--ranks R] [--rank-dedup] \
         [--verify-collisions] [--stats] <snapshots...>\n  \
         ckpt info    <dir>\n  ckpt stats   <dir>\n  \
         ckpt restore <dir> --version K --out <file> [--stats]\n  \
         ckpt verify  <dir> [--json] [<snapshots...>]   (no snapshots: integrity-only mode)\n\n\
         --verify-collisions applies to --method tree|list only. \
         --redundancy splits the snapshots across R ranks (default: the group \
         size), writes rank####/ record subdirs plus a group/ directory of \
         XOR parity stripes (xor:2 mirrors each rank onto its partner), and \
         makes verify/stats/restore \
         group-aware: a rank whose directory is absent is reported per object \
         as reconstructable-from-group or LOST, never silently skipped, and \
         restores through the group. \
         --rank-dedup shares one content-addressed index across the ranks, \
         storing a chunk first seen by any rank exactly once cluster-wide; \
         verify resolves the cross-rank references and types a dangling one \
         as LOST, never a wrong payload. verify exits 0 clean, 3 when every \
         fault is group-repairable, 4 when anything is LOST."
    );
    ExitCode::from(2)
}

/// The display name of a frame codec id (`raw` for 0).
fn codec_name(codec: u8) -> String {
    if codec == 0 {
        "raw".into()
    } else {
        CompressionPolicy::Fixed(codec).label()
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--stats` is a global flag: strip it wherever it appears.
    let stats = args.iter().any(|a| a == "--stats");
    args.retain(|a| a != "--stats");
    let Some(cmd) = args.first() else {
        return usage();
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "create" => cmd_create(rest, stats),
        "info" => cmd_info(rest),
        "stats" => cmd_stats(rest),
        "restore" => cmd_restore(rest, stats),
        "verify" => cmd_verify(rest),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ckpt: {e}");
            match e.downcast_ref::<CliExit>() {
                Some(x) => ExitCode::from(x.code),
                None => ExitCode::FAILURE,
            }
        }
    }
}

type CliError = Box<dyn std::error::Error>;
type CliResult<T = ()> = Result<T, CliError>;

/// Missing or malformed command-line operands.
const EXIT_USAGE: u8 = 2;
/// Verification found damage the redundancy group can still repair.
const EXIT_REPAIRABLE: u8 = 3;
/// Verification found at least one unrecoverable (LOST) object.
const EXIT_LOST: u8 = 4;

/// An error that carries a stable process exit code. Generic errors keep
/// exiting 1; usage errors exit 2; the verify matrix distinguishes
/// corrupt-but-repairable (3) from lost (4).
#[derive(Debug)]
struct CliExit {
    code: u8,
    msg: String,
}

impl std::fmt::Display for CliExit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for CliExit {}

fn exit_with(code: u8, msg: impl Into<String>) -> CliError {
    Box::new(CliExit {
        code,
        msg: msg.into(),
    })
}

/// Missing or malformed operands: exit 2, whatever the command.
fn usage_error(msg: impl Into<String>) -> CliError {
    exit_with(EXIT_USAGE, msg)
}

/// One command's operands: `--flag value` pairs for the flags it takes,
/// the switches given, and the positional operands in order. An unknown
/// `--flag`, or a flag with no value, is a usage error naming it.
#[derive(Default)]
struct Operands<'a> {
    cmd: &'static str,
    values: Vec<(&'a str, &'a str)>,
    switches: Vec<&'a str>,
    positional: Vec<&'a str>,
}

impl<'a> Operands<'a> {
    fn parse(
        cmd: &'static str,
        args: &'a [String],
        flags: &[&str],
        switches: &[&str],
    ) -> CliResult<Self> {
        let mut ops = Operands {
            cmd,
            ..Default::default()
        };
        let mut args = args.iter().map(String::as_str);
        while let Some(arg) = args.next() {
            if switches.contains(&arg) {
                ops.switches.push(arg);
            } else if flags.contains(&arg) {
                let value = args
                    .next()
                    .ok_or_else(|| usage_error(format!("{cmd}: {arg} needs a value")))?;
                ops.values.push((arg, value));
            } else if arg.starts_with("--") {
                return Err(usage_error(format!("{cmd}: unknown flag {arg}")));
            } else {
                ops.positional.push(arg);
            }
        }
        Ok(ops)
    }

    /// The last value given for `flag`, read by `parse`. A value it rejects
    /// is the usage error "unknown `flag` `what` 'value' (`takes`)".
    fn value<T>(
        &self,
        flag: &str,
        (what, takes): (&str, &str),
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> CliResult<Option<T>> {
        let Some(&(_, value)) = self.values.iter().rev().find(|(f, _)| *f == flag) else {
            return Ok(None);
        };
        let cmd = self.cmd;
        let bad = || usage_error(format!("{cmd}: unknown {flag} {what} '{value}' ({takes})"));
        parse(value).map(Some).ok_or_else(bad)
    }

    /// The `--out` path, which the command needs.
    fn out(&self, what: &str) -> CliResult<PathBuf> {
        let out = self.value("--out", ("path", what), |v| Some(PathBuf::from(v)))?;
        out.ok_or_else(|| usage_error(format!("{}: missing --out <{what}>", self.cmd)))
    }

    /// The one positional operand, the record directory.
    fn dir(&self) -> CliResult<PathBuf> {
        match self.positional[..] {
            [dir] => Ok(PathBuf::from(dir)),
            ref got => Err(usage_error(format!(
                "{}: takes one <dir>, not {}",
                self.cmd,
                got.len()
            ))),
        }
    }
}

/// The object as the chain's PFS stores it — what sits in the record file:
/// frame codec, original length, stored (possibly compressed) payload.
fn stored_object(tiers: &TierChain, id: (u32, u32)) -> Option<StoredObject> {
    tiers.pfs.inspect_object(id).into_object()
}

/// Count and framed bytes (the `group/` file sizes) of a store's group
/// objects.
fn group_inventory(store: &RedundancyStore) -> (u64, u64) {
    let group = store.group_tier();
    let sizes = group.resident().into_iter().filter_map(|k| group.raw(k));
    sizes.fold((0, 0), |(n, bytes), framed| {
        (n + 1, bytes + framed.len() as u64)
    })
}

/// Line prefix naming the rank in a ranked record (nothing in a flat one).
fn rank_prefix(layout: Layout, rank: u32) -> String {
    match layout {
        Layout::Flat => String::new(),
        Layout::Ranked => format!("{} ", rank_name(rank)),
    }
}

/// Import the record `path` belongs to, with the rank `path` names (if it
/// is a member of a ranked record). Import findings go to stderr.
fn import(path: &Path) -> CliResult<(Loaded, Option<u32>)> {
    let (dir, member) = ClusterDir::containing(path);
    let loaded = dir.import()?;
    for note in &loaded.notes {
        eprintln!("ckpt: {note}");
    }
    Ok((loaded, member))
}

/// [`import`] and decode the chain of the rank `path` names (rank 0 of a
/// flat record).
fn open_record(path: &Path) -> CliResult<(Loaded, u32, Record)> {
    let (loaded, member) = import(path)?;
    let rank = match loaded.layout {
        Layout::Flat => 0,
        Layout::Ranked => member.ok_or_else(|| {
            format!(
                "{} is a cluster root: name one of its rank subdirectories",
                path.display()
            )
        })?,
    };
    if !loaded.ranks().contains(&rank) {
        return Err(format!("no checkpoints found in {}", path.display()).into());
    }
    let record = loaded
        .record(rank)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((loaded, rank, record))
}

/// Print the one-line JSON telemetry report: the command-specific header
/// fields, per-checkpoint stage breakdowns, and the registry snapshot.
fn emit_stats_report(
    command: &str,
    header: &[(&str, u64)],
    method: Option<&str>,
    breakdowns: &[StageBreakdown],
    registry: &Registry,
) {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("command").string(command);
    if let Some(m) = method {
        w.key("method").string(m);
    }
    for (k, v) in header {
        w.key(k).u64(*v);
    }
    w.key("breakdowns").begin_array();
    for b in breakdowns {
        b.write_json(&mut w);
    }
    w.end_array();
    w.key("metrics");
    registry.write_json(&mut w);
    w.end_object();
    println!("stats: {}", w.finish());
}

/// `ckpt create`: de-duplicate each snapshot and hand the encoded diff to
/// an [`AsyncRuntime`] — rank-dedup, frame compression, framing and
/// redundancy encoding are the runtime's flush pipeline, not the CLI's —
/// then export the durable chain with [`ClusterDir::export`].
///
/// Without `--ranks`/`--redundancy` the record is flat (one rank, files in
/// `--out`). Otherwise the snapshots are split into `R` contiguous
/// per-rank sequences and the record is ranked. An `--out` that already
/// holds a record ([`ClusterDir::holds_record`]) is refused.
fn cmd_create(args: &[String], stats: bool) -> CliResult {
    let flags = [
        "--out",
        "--method",
        "--chunk",
        "--compress",
        "--redundancy",
        "--ranks",
    ];
    let ops = Operands::parse(
        "create",
        args,
        &flags,
        &["--verify-collisions", "--rank-dedup"],
    )?;
    let out_dir = ops.out("dir")?;
    let method = ops.value("--method", ("name", "tree|list|basic|full"), |v| {
        MethodKind::from_name(v).map(|kind| (kind, v.to_string()))
    })?;
    let (kind, method) = method.unwrap_or((MethodKind::Tree, "tree".into()));
    let chunk = ops.value("--chunk", ("size", "a byte count"), |v| v.parse().ok())?;
    let chunk = chunk.unwrap_or(128);
    if chunk < Chunking::MIN_CHUNK_SIZE {
        return Err(usage_error(format!(
            "create: --chunk {chunk} is below the minimum of {} bytes",
            Chunking::MIN_CHUNK_SIZE
        )));
    }
    // `--compress` is the flush stage (post-dedup, per record file).
    let policy = ops.value(
        "--compress",
        ("policy", "off|adaptive|<codec>"),
        CompressionPolicy::parse,
    )?;
    let policy = policy.unwrap_or(CompressionPolicy::Off);
    let redundancy = ops.value(
        "--redundancy",
        ("policy", "off|xor:<k>"),
        RedundancyPolicy::parse,
    )?;
    let redundancy = redundancy.unwrap_or(RedundancyPolicy::Off);
    let ranks = ops.value("--ranks", ("count", "an integer >= 1"), |v| {
        v.parse().ok().filter(|&r: &usize| r > 0)
    })?;
    let rank_dedup = ops.switches.contains(&"--rank-dedup");
    let snapshots: Vec<PathBuf> = ops.positional.iter().map(PathBuf::from).collect();
    let n = snapshots.len();
    if n == 0 {
        return Err(usage_error("create: no snapshot files given"));
    }
    // Collision verification acts inside the Tree/List pipeline; Basic and
    // Full have nothing it could apply to.
    let mut cfg = TreeConfig::new(chunk);
    if ops.switches.contains(&"--verify-collisions") {
        if !matches!(kind, MethodKind::Tree | MethodKind::List) {
            return Err(usage_error(format!(
                "create: --verify-collisions applies to --method tree|list, not {method}"
            )));
        }
        cfg = cfg.with_collision_verification();
    }

    let group_size = redundancy.group_size().max(1) as usize;
    let (layout, n_ranks) = if redundancy != RedundancyPolicy::Off || ranks.is_some() {
        // A rank count defaults to one full redundancy group.
        (Layout::Ranked, ranks.unwrap_or(group_size))
    } else {
        (Layout::Flat, 1)
    };
    if rank_dedup && layout == Layout::Flat {
        return Err(usage_error(
            "create: --rank-dedup needs a clustered record (--ranks and/or --redundancy)",
        ));
    }
    if n < n_ranks {
        return Err(usage_error(format!(
            "create: {n} snapshots cannot be split across {n_ranks} ranks"
        )));
    }
    if !n_ranks.is_multiple_of(group_size) {
        return Err(usage_error(format!(
            "create: --ranks {n_ranks} is not a multiple of the {} group size {group_size}",
            redundancy.label()
        )));
    }
    // Contiguous split: the first `n % ranks` ranks take one extra.
    let mut next = 0;
    let per_rank: Vec<&[PathBuf]> = (0..n_ranks)
        .map(|rank| {
            let take = n / n_ranks + usize::from(rank < n % n_ranks);
            next += take;
            &snapshots[next - take..next]
        })
        .collect();
    // A rank checkpoints one fixed-size buffer: every snapshot of it has
    // the first one's length, and that length is not 0. Checked before the
    // runtime starts, so a bad input writes nothing.
    for paths in &per_rank {
        let mut want = None;
        for path in *paths {
            let len = std::fs::metadata(path)
                .map_err(|e| format!("{}: {e}", path.display()))?
                .len();
            if len == 0 {
                return Err(format!("{}: empty snapshot", path.display()).into());
            }
            let want = *want.get_or_insert(len);
            if len != want {
                return Err(format!(
                    "{}: {len} bytes, but {} has {want}; the snapshots of one rank must \
                     have equal length",
                    path.display(),
                    paths[0].display()
                )
                .into());
            }
        }
    }

    // A record goes into a new or record-free directory only: a second
    // run's versions would land over the first's low ids, and its high ids
    // would then restore onto them.
    if ClusterDir::new(&out_dir).holds_record() {
        return Err(format!(
            "{}: already holds a record; create writes a new record only where none is",
            out_dir.display()
        )
        .into());
    }

    let registry = Arc::new(Registry::new());
    // The cluster dedup index: one engine shared by every rank, its claims
    // committing in the claimant, so stored-byte totals are deterministic. Ranks submit in order, so later
    // ranks reference chunks the earlier ones claimed.
    let dedup = rank_dedup.then(|| {
        RankDedupEngine::new(
            RankDedupConfig {
                ranks: n_ranks as u32,
                chunk_len: chunk,
            },
            RankDedupMetrics::bound(registry.clone()),
        )
    });
    let rt = AsyncRuntime::start(RuntimeConfig {
        registry: registry.clone(),
        compression: policy,
        redundancy,
        rank_dedup: dedup.clone(),
        ..Default::default()
    });

    let mut ids = Vec::with_capacity(n);
    let mut breakdowns = Vec::new();
    let (mut total_in, mut total_out, mut modeled_sec) = (0u64, 0u64, 0f64);
    for (rank, paths) in (0..).zip(per_rank) {
        let device = Device::a100();
        let mut ckpt = new_checkpointer(kind, device.clone(), cfg);
        let prefix = rank_prefix(layout, rank);
        for (version, path) in paths.iter().enumerate() {
            let data = std::fs::read(path)?;
            let mut span = registry.span("cli/checkpoint");
            let out = ckpt.checkpoint(&data);
            span.add_modeled_sec(out.stats.modeled_sec);
            drop(span);
            let encoded = out.diff.encode();
            let encoded_len = encoded.len();
            let id = (rank, version as u32);
            rt.submit(id.0, id.1, encoded)?;
            rt.wait_durable(&[id]);
            // Sizes reported below are stored payload sizes (the frame
            // header is bookkeeping, not checkpoint data).
            let object = stored_object(rt.tiers(), id)
                .ok_or_else(|| format!("{}: the runtime could not store it", path.display()))?;
            let stored_len = object.payload().len();
            total_in += data.len() as u64;
            total_out += stored_len as u64;
            println!(
                "{prefix}v{version:04}  {:>12} -> {:>12} bytes  (ratio {:>8.2}x)  {}{}",
                data.len(),
                stored_len,
                out.stats.ratio(),
                path.display(),
                if object.codec() != 0 {
                    format!(
                        "  [frame {}: {} -> {stored_len} B]",
                        codec_name(object.codec()),
                        object.uncompressed_len(),
                    )
                } else {
                    String::new()
                },
            );
            registry
                .histogram("cli/snapshot_bytes")
                .record(data.len() as u64);
            // Payload units (pre-compression), comparable across policies;
            // the `compress/*` counters carry the post-compression story.
            registry
                .histogram("cli/encoded_bytes")
                .record(encoded_len as u64);
            breakdowns.push(out.breakdown);
            ids.push(id);
        }
        modeled_sec += device.metrics().modeled_sec();
        // Steady-state memory counters: device-arena lease traffic and
        // historical-record reset/rebuild counts, summed over ranks.
        let mem = ckpt.memory_stats();
        for (name, value) in [
            ("alloc/device_bytes_leased", mem.device_bytes_leased),
            ("alloc/device_bytes_allocated", mem.device_bytes_allocated),
            ("alloc/arena_hits", mem.arena_hits),
            ("alloc/arena_misses", mem.arena_misses),
            ("map/generation_bumps", mem.map_generation_bumps),
            ("map/rehash_rebuilds", mem.map_rehash_rebuilds),
        ] {
            registry.counter(name).add(value);
        }
    }
    rt.wait_redundancy_durable(&ids);
    ClusterDir::new(&out_dir).export(rt.tiers(), layout)?;

    if let Some(store) = rt.tiers().redundancy() {
        let (objects, bytes) = group_inventory(store);
        println!(
            "group: policy {}, {n_ranks} ranks in groups of {group_size}, {objects} objects ({bytes} B)",
            redundancy.label(),
        );
    }
    if let Some(e) = &dedup {
        println!(
            "rank-dedup: {} first-occurrence claims shared across {n_ranks} ranks",
            e.index().claim_count(),
        );
    }
    println!(
        "record: {n} versions{}, {total_in} -> {total_out} bytes ({:.2}x), modeled device time {:.3} ms",
        match layout {
            Layout::Flat => String::new(),
            Layout::Ranked => format!(" across {n_ranks} ranks"),
        },
        total_in as f64 / total_out.max(1) as f64,
        modeled_sec * 1e3,
    );
    if stats {
        registry.counter("cli/versions").add(n as u64);
        let mut header = vec![("versions", n as u64)];
        if layout == Layout::Ranked {
            registry.counter("cli/ranks").add(n_ranks as u64);
            header.push(("ranks", n_ranks as u64));
        }
        header.extend([("input_bytes", total_in), ("stored_bytes", total_out)]);
        emit_stats_report("create", &header, Some(&method), &breakdowns, &registry);
    }
    Ok(())
}

fn cmd_info(args: &[String]) -> CliResult {
    let dir = Operands::parse("info", args, &[], &[])?.dir()?;
    let (loaded, rank, Record { base, diffs }) = open_record(&dir)?;
    println!(
        "record {}: {} versions{}, method {}, chunk {} B, buffer {} bytes",
        dir.display(),
        diffs.len(),
        if base > 0 {
            format!(" (compacted, base v{base:04})")
        } else {
            String::new()
        },
        diffs[0].kind.name(),
        diffs[0].chunk_size,
        diffs[0].data_len,
    );
    let mut total = 0u64;
    for d in &diffs {
        total += d.stored_bytes() as u64;
        let frame_codec = stored_object(&loaded.tiers, (rank, d.ckpt_id)).map_or(0, |o| o.codec());
        println!(
            "  v{:04}  stored {:>10} B  payload {:>10} B  meta {:>8} B  regions {:>6}+{:<6}{}",
            d.ckpt_id,
            d.stored_bytes(),
            d.payload.len(),
            d.metadata_bytes(),
            d.first_regions.len(),
            d.shift_regions.len(),
            if frame_codec != 0 {
                format!("  [frame {}]", codec_name(frame_codec))
            } else {
                String::new()
            },
        );
    }
    let full = diffs[0].data_len * diffs.len() as u64;
    println!(
        "total stored {total} B vs {full} B full ({:.2}x)",
        full as f64 / total.max(1) as f64
    );
    Ok(())
}

/// `ckpt stats <dir>`: offline telemetry report over an existing record —
/// per-version size distributions as histograms, record totals, and for a
/// ranked record the rank-dedup and redundancy-group inventory. A rank
/// whose directory is gone is read through its group like any other.
fn cmd_stats(args: &[String]) -> CliResult {
    let path = Operands::parse("stats", args, &[], &[])?.dir()?;
    let (loaded, member) = import(&path)?;
    let ranks: Vec<u32> = match member {
        Some(rank) => vec![rank],
        None => loaded.ranks().into_iter().collect(),
    };
    let registry = Registry::new();
    let (mut versions, mut stored, mut compressed_frames) = (0u64, 0u64, 0u64);
    // Rank-dedup inventory: counted from the *stored* records (before
    // reference resolution), so `rankdedup/remote_bytes_saved` reports
    // what cross-rank sharing actually kept off the disk.
    let (mut dedup_records, mut dedup_remote_refs, mut dedup_bytes_saved) = (0u64, 0u64, 0u64);
    let mut head: Option<(u32, Diff)> = None;
    for &rank in &ranks {
        let Record { base, diffs } = loaded
            .record(rank)
            .map_err(|e| format!("{} {}: {e}", path.display(), rank_name(rank)))?;
        for d in &diffs {
            registry
                .histogram("record/stored_bytes")
                .record(d.stored_bytes() as u64);
            registry
                .histogram("record/payload_bytes")
                .record(d.payload.len() as u64);
            registry
                .histogram("record/metadata_bytes")
                .record(d.metadata_bytes() as u64);
            registry
                .counter("record/first_regions")
                .add(d.first_regions.len() as u64);
            registry
                .counter("record/shift_regions")
                .add(d.shift_regions.len() as u64);
            stored += d.stored_bytes() as u64;
            let Some(object) = stored_object(&loaded.tiers, (rank, d.ckpt_id)) else {
                continue;
            };
            if object.codec() != 0 {
                compressed_frames += 1;
                registry
                    .counter(&format!("record/frames/{}", codec_name(object.codec())))
                    .inc();
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "`stats` reads each stored record's rank-dedup table; it restores nothing, so the decode is untimed"
            )]
            let dedup = object.decode().ok();
            if let Some(rec) = dedup.and_then(|p| RecordIndex::parse(&p).ok()) {
                dedup_records += 1;
                dedup_remote_refs += (rec.n_entries() - rec.n_local()) as u64;
                dedup_bytes_saved += rec.orig_len.saturating_sub(rec.local_len());
            }
        }
        versions += diffs.len() as u64;
        if head.is_none() {
            head = diffs.into_iter().next().map(|d| (base, d));
        }
    }
    let Some((base, head)) = head else {
        return Err(format!("no checkpoints found in {}", path.display()).into());
    };
    if dedup_records > 0 {
        registry.counter("rankdedup/records").add(dedup_records);
        registry
            .counter("rankdedup/remote_refs")
            .add(dedup_remote_refs);
        registry
            .counter("rankdedup/remote_bytes_saved")
            .add(dedup_bytes_saved);
    }
    if let Some(store) = loaded.tiers.redundancy() {
        let (group_objects, group_bytes) = group_inventory(store);
        for (name, value) in [
            ("redundancy/members", store.member_ids().len() as u64),
            ("redundancy/group_objects", group_objects),
            ("redundancy/group_bytes", group_bytes),
            ("redundancy/group_ranks", store.policy().group_size() as u64),
        ] {
            registry.counter(name).add(value);
        }
    }
    let mut header = vec![("versions", versions)];
    match loaded.layout {
        Layout::Flat => header.push(("base", base as u64)),
        Layout::Ranked => header.push(("ranks", ranks.len() as u64)),
    }
    header.extend([
        ("data_len", head.data_len),
        ("chunk_size", head.chunk_size as u64),
        ("stored_bytes", stored),
        ("compressed_frames", compressed_frames),
    ]);
    emit_stats_report("stats", &header, Some(head.kind.name()), &[], &registry);
    Ok(())
}

fn cmd_restore(args: &[String], stats: bool) -> CliResult {
    let ops = Operands::parse("restore", args, &["--version", "--out"], &[])?;
    let dir = ops.dir()?;
    let out = ops.out("file")?;
    let version = ops.value("--version", ("id", "a checkpoint id"), |v| v.parse().ok())?;
    let (_loaded, _rank, Record { base, diffs }) = open_record(&dir)?;
    let base = base as usize;
    let last = base + diffs.len() - 1;
    let version = version.unwrap_or(last);
    if version < base || version > last {
        return Err(format!("version {version} not in record ({base}..{last})").into());
    }
    let index = version - base;
    let registry = Registry::new();
    let span = stats.then(|| registry.span("cli/restore"));
    let device = Device::a100();
    let (bytes, walk) = restore_version_single_pass(&device, base as u32, &diffs, index)?;
    drop(span);
    #[expect(
        clippy::disallowed_methods,
        reason = "`restore` writes the restored version to `--out`"
    )]
    std::fs::write(&out, &bytes)?;
    println!(
        "restored v{version} ({} bytes) -> {}",
        bytes.len(),
        out.display()
    );
    if stats {
        for (name, value) in [
            ("restore/chains_restored", 1),
            ("restore/records_read", walk.records_visited as u64),
            ("restore/regions_copied", walk.regions_copied),
            ("restore/pieces", walk.pieces),
            ("restore/bytes_copied", walk.bytes_copied),
            ("restore/zero_chunks", walk.zero_chunks),
        ] {
            registry.counter(name).add(value);
        }
        registry
            .histogram("cli/restored_bytes")
            .record(bytes.len() as u64);
        emit_stats_report(
            "restore",
            &[
                ("versions", diffs.len() as u64),
                ("base", base as u64),
                ("version", version as u64),
                ("restored_bytes", bytes.len() as u64),
            ],
            Some(diffs[0].kind.name()),
            &[],
            &registry,
        );
    }
    Ok(())
}

/// The stable `verify --json` report. Schema (field order fixed):
/// `{"command":"verify","mode":...,"clean":...,"verified":N,
///   "repairable":N,"lost":N,"ranks":[{"rank":R,"objects":
///   [{"ckpt_id":K,"status":"verified"|"repairable"|"lost"},..]},..]}`
fn verify_report_json(report: &VerifyReport, [verified, repairable, lost]: [u64; 3]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("command").string("verify");
    w.key("mode").string(match report.layout {
        Layout::Flat => "flat",
        Layout::Ranked => "cluster",
    });
    w.key("clean").bool(repairable == 0 && lost == 0);
    w.key("verified").u64(verified);
    w.key("repairable").u64(repairable);
    w.key("lost").u64(lost);
    w.key("ranks").begin_array();
    for rank in &report.ranks {
        w.begin_object();
        w.key("rank").u64(rank.rank as u64);
        w.key("objects").begin_array();
        for o in &rank.objects {
            w.begin_object();
            w.key("ckpt_id").u64(o.ckpt_id as u64);
            w.key("status").string(o.status.name());
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// `ckpt verify`. With originals: restore each version of one rank's
/// chain in turn and compare it bit for bit. Without: print [`ClusterDir::verify`] —
/// the per-object status is the library's, flat records being the
/// one-rank, no-group case of the same report — and exit on the matrix
/// (0 clean / 3 repairable / 4 lost; a flat record without `--json` keeps
/// its historical exit 1).
fn cmd_verify(args: &[String]) -> CliResult {
    let ops = Operands::parse("verify", args, &[], &["--json"])?;
    let json = ops.switches.contains(&"--json");
    let Some((path, originals)) = ops.positional.split_first() else {
        return Err(usage_error("verify: missing <dir>"));
    };
    let path = Path::new(path);
    if !originals.is_empty() {
        if json {
            return Err(usage_error(
                "verify: --json applies to integrity mode (no originals)",
            ));
        }
        let (_loaded, _rank, Record { base, diffs }) = open_record(path)?;
        if originals.len() != diffs.len() {
            return Err(format!(
                "record has {} versions (from v{base:04}) but {} originals were given",
                diffs.len(),
                originals.len()
            )
            .into());
        }
        let device = Device::a100();
        for (k, path) in originals.iter().enumerate() {
            let (restored, _) = restore_version_single_pass(&device, base, &diffs, k)?;
            if restored != std::fs::read(path)? {
                return Err(format!("version {} does not match {path}", base as usize + k).into());
            }
            println!("v{:04} ok  {path}", base as usize + k);
        }
        println!("all {} versions verified bit-exact", diffs.len());
        return Ok(());
    }

    let (dir, member) = ClusterDir::containing(path);
    let mut report = dir.verify()?;
    report.ranks.retain(|r| member.is_none_or(|m| r.rank == m));
    if report.ranks.is_empty() {
        return Err(format!("no checkpoints found in {}", path.display()).into());
    }
    let flat = report.layout == Layout::Flat;
    for note in &report.notes {
        println!("{note}");
    }
    for rank in &report.ranks {
        let prefix = rank_prefix(report.layout, rank.rank);
        for o in &rank.objects {
            let label = match o.status {
                VerifyStatus::Verified => "ok",
                VerifyStatus::Repairable => "REPAIRABLE",
                VerifyStatus::Lost if flat => "BAD",
                VerifyStatus::Lost => "LOST",
            };
            let sep = if o.detail.is_empty() { "" } else { "  " };
            println!("{prefix}v{:04} {label}{sep}{}", o.ckpt_id, o.detail);
        }
        if let Some((base, walk)) = rank.chain {
            let versions = walk.records_visited;
            if base > 0 {
                println!(
                    "{prefix}record is compacted: first surviving version is v{base:04} (rebase point)"
                );
            }
            println!(
                "{prefix}record integrity ok: {versions} versions, \
                 restore chain replays cleanly from v{base:04}"
            );
        }
    }
    let counts = [
        VerifyStatus::Verified,
        VerifyStatus::Repairable,
        VerifyStatus::Lost,
    ]
    .map(|s| report.count(s));
    if json {
        println!("{}", verify_report_json(&report, counts));
    }
    let [verified, repairable, lost] = counts;
    if lost > 0 {
        return Err(exit_with(
            if flat && !json { 1 } else { EXIT_LOST },
            format!(
                "{lost} of {} object(s) failed verification: LOST \
                 ({repairable} repairable, {verified} verified)",
                verified + repairable + lost
            ),
        ));
    }
    if repairable > 0 {
        return Err(exit_with(
            EXIT_REPAIRABLE,
            format!("{repairable} object(s) repairable from the group ({verified} verified)"),
        ));
    }
    Ok(())
}
