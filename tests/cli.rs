//! End-to-end tests of the `ckpt` command-line tool (create → info →
//! restore → verify) against real files in a temp directory.

// A test drives threads, clocks, files and codecs directly; the rules of
// `clippy.toml` hold production code.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

use std::path::{Path, PathBuf};
use std::process::Command;

fn ckpt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ckpt"))
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("ckpt-cli-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Write three snapshot files with sparse mutations between them.
fn write_snapshots(dir: &Path) -> Vec<PathBuf> {
    write_n_snapshots(dir, 3)
}

fn write_n_snapshots(dir: &Path, n: usize) -> Vec<PathBuf> {
    let mut data: Vec<u8> = (0..64 * 1024u32).map(|i| (i % 251) as u8).collect();
    let mut paths = Vec::new();
    for k in 0..n {
        if k > 0 {
            for j in 0..40 {
                let at = (k * 977 + j * 131) % data.len();
                data[at] = data[at].wrapping_add(1);
            }
        }
        let p = dir.join(format!("snap{k}.bin"));
        std::fs::write(&p, &data).unwrap();
        paths.push(p);
    }
    paths
}

#[test]
fn create_info_restore_verify_round_trip() {
    let tmp = TempDir::new("roundtrip");
    let snaps = write_snapshots(tmp.path());
    let record = tmp.path().join("record");

    // create
    let out = ckpt()
        .args(["create", "--out", record.to_str().unwrap(), "--chunk", "64"])
        .args(snaps.iter().map(|p| p.to_str().unwrap()))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "create failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(record.join("0000.ckpt").exists());
    assert!(record.join("0002.ckpt").exists());

    // info
    let out = ckpt()
        .args(["info", record.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("3 versions"), "{text}");
    assert!(text.contains("method Tree"), "{text}");

    // restore the middle version
    let restored = tmp.path().join("restored.bin");
    let out = ckpt()
        .args([
            "restore",
            record.to_str().unwrap(),
            "--version",
            "1",
            "--out",
            restored.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read(&restored).unwrap(),
        std::fs::read(&snaps[1]).unwrap()
    );

    // verify against all originals
    let out = ckpt()
        .args(["verify", record.to_str().unwrap()])
        .args(snaps.iter().map(|p| p.to_str().unwrap()))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("verified bit-exact"));
}

#[test]
fn create_with_compression_and_other_methods() {
    let tmp = TempDir::new("methods");
    let snaps = write_snapshots(tmp.path());
    for (tag, extra) in [
        ("tree-zstd", vec!["--method", "tree", "--compress", "zstd"]),
        ("list", vec!["--method", "list"]),
        ("list-zstd", vec!["--method", "list", "--compress", "zstd"]),
        ("list-vc", vec!["--method", "list", "--verify-collisions"]),
        ("basic", vec!["--method", "basic"]),
        ("full", vec!["--method", "full"]),
        ("tree-vc", vec!["--method", "tree", "--verify-collisions"]),
    ] {
        let record = tmp.path().join(format!("rec-{tag}"));
        let out = ckpt()
            .args(["create", "--out", record.to_str().unwrap(), "--chunk", "64"])
            .args(&extra)
            .args(snaps.iter().map(|p| p.to_str().unwrap()))
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{tag}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let out = ckpt()
            .args(["verify", record.to_str().unwrap()])
            .args(snaps.iter().map(|p| p.to_str().unwrap()))
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{tag}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // The flush stage compresses whatever method wrote the record: List's
    // (compressible) first occurrences shrink, and the record still
    // restores bit-exactly.
    let stored = |tag: &str| -> u64 {
        std::fs::read_dir(tmp.path().join(format!("rec-{tag}")))
            .unwrap()
            .map(|f| f.unwrap().metadata().unwrap().len())
            .sum()
    };
    assert!(
        stored("list-zstd") < stored("list") / 2,
        "list+zstd {} vs list {}",
        stored("list-zstd"),
        stored("list")
    );
    let restored = tmp.path().join("list-zstd.bin");
    assert!(ckpt()
        .args([
            "restore",
            tmp.path().join("rec-list-zstd").to_str().unwrap()
        ])
        .args(["--out", restored.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert_eq!(
        std::fs::read(&restored).unwrap(),
        std::fs::read(snaps.last().unwrap()).unwrap()
    );
}

/// Extract the one-line JSON report from a command's stdout.
fn stats_json(stdout: &[u8]) -> String {
    let text = String::from_utf8_lossy(stdout);
    let line = text
        .lines()
        .find(|l| l.starts_with("stats: "))
        .unwrap_or_else(|| panic!("no stats line in output:\n{text}"));
    line.trim_start_matches("stats: ").to_string()
}

/// Golden-key (not golden-value) test of the `--stats` JSON reports: the
/// key set is the stable public schema (DESIGN.md § Observability);
/// values vary run to run and are deliberately not pinned.
#[test]
fn stats_reports_have_stable_json_keys() {
    let tmp = TempDir::new("stats");
    let snaps = write_snapshots(tmp.path());
    let record = tmp.path().join("record");

    let out = ckpt()
        .args([
            "create",
            "--stats",
            "--out",
            record.to_str().unwrap(),
            "--chunk",
            "64",
        ])
        .args(snaps.iter().map(|p| p.to_str().unwrap()))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = stats_json(&out.stdout);
    assert!(json.contains("\"command\":\"create\""), "{json}");
    let keys = gpu_dedup_ckpt::telemetry::collect_keys(&json);
    for k in [
        // report envelope
        "command",
        "method",
        "versions",
        "input_bytes",
        "stored_bytes",
        "breakdowns",
        "metrics",
        // registry sections
        "counters",
        "gauges",
        "histograms",
        "spans",
        // per-checkpoint stage breakdowns
        "ckpt_id",
        "stages",
        "name",
        "measured_sec",
        "modeled_sec",
        "total_measured_sec",
        "total_modeled_sec",
        // CLI metrics
        "cli/versions",
        "cli/snapshot_bytes",
        "cli/encoded_bytes",
        "cli/checkpoint",
        // histogram snapshot schema
        "buckets",
        "count",
        "le",
        "sum",
        "min",
        "max",
    ] {
        assert!(
            keys.iter().any(|have| have == k),
            "create report missing key {k:?}: {json}"
        );
    }
    // One stage breakdown per version, in order.
    assert_eq!(keys.iter().filter(|k| *k == "ckpt_id").count(), snaps.len());

    let restored = tmp.path().join("restored.bin");
    let out = ckpt()
        .args([
            "restore",
            "--stats",
            record.to_str().unwrap(),
            "--version",
            "2",
            "--out",
            restored.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = stats_json(&out.stdout);
    assert!(json.contains("\"command\":\"restore\""), "{json}");
    let keys = gpu_dedup_ckpt::telemetry::collect_keys(&json);
    for k in [
        "command",
        "method",
        "versions",
        "version",
        "restored_bytes",
        "breakdowns",
        "metrics",
        "cli/restore",
        "cli/restored_bytes",
        "count",
        "measured_sec",
        "modeled_sec",
    ] {
        assert!(
            keys.iter().any(|have| have == k),
            "restore report missing key {k:?}: {json}"
        );
    }

    // The `stats` subcommand reports on an existing record.
    let out = ckpt()
        .args(["stats", record.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = stats_json(&out.stdout);
    assert!(json.contains("\"command\":\"stats\""), "{json}");
    let keys = gpu_dedup_ckpt::telemetry::collect_keys(&json);
    for k in [
        "versions",
        "data_len",
        "chunk_size",
        "stored_bytes",
        "record/stored_bytes",
        "record/payload_bytes",
        "record/metadata_bytes",
        "record/first_regions",
        "record/shift_regions",
    ] {
        assert!(
            keys.iter().any(|have| have == k),
            "stats report missing key {k:?}: {json}"
        );
    }
}

/// `ckpt verify <dir>` with no originals: integrity-only mode. Checks the
/// on-disk framing, corruption detection, and that an unframed file (the
/// pre-framing format, no longer read) is a damaged frame.
#[test]
fn verify_integrity_mode_and_legacy_fallback() {
    let tmp = TempDir::new("integrity");
    let snaps = write_snapshots(tmp.path());
    let record = tmp.path().join("record");
    assert!(ckpt()
        .args(["create", "--out", record.to_str().unwrap(), "--chunk", "64"])
        .args(snaps.iter().map(|p| p.to_str().unwrap()))
        .status()
        .unwrap()
        .success());

    // Checkpoint files carry the integrity frame magic.
    let framed = std::fs::read(record.join("0001.ckpt")).unwrap();
    assert_eq!(&framed[..4], b"CKF1");

    // Clean record: integrity mode passes without originals.
    let out = ckpt()
        .args(["verify", record.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("record integrity ok"));

    // Flip one payload byte: integrity mode must detect and fail.
    let mut corrupt = framed.clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0x01;
    std::fs::write(record.join("0001.ckpt"), &corrupt).unwrap();
    let out = ckpt()
        .args(["verify", record.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("BAD"));
    assert!(String::from_utf8_lossy(&out.stderr).contains("failed verification"));
    // Full verification against originals must refuse the corrupt frame too.
    let out = ckpt()
        .args(["verify", record.to_str().unwrap()])
        .args(snaps.iter().map(|p| p.to_str().unwrap()))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("corrupt frame"));

    // Strip the 32-byte headers in place (version 1 from its pristine
    // copy): every file is now a frame with a bad magic. Integrity mode
    // types each lost with a corrupt frame's exit code, and restore refuses
    // without writing anything.
    for version in 0..3 {
        let path = record.join(format!("{version:04}.ckpt"));
        let bytes = if version == 1 {
            framed.clone()
        } else {
            std::fs::read(&path).unwrap()
        };
        std::fs::write(&path, &bytes[32..]).unwrap();
    }
    let out = ckpt()
        .args(["verify", record.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for version in 0..3 {
        let bad = format!("v{version:04} BAD  corrupt frame: bad frame magic");
        assert!(stdout.contains(&bad), "{stdout}");
    }
    let restored = tmp.path().join("restored.bin");
    let out = ckpt()
        .args(["restore", record.to_str().unwrap(), "--out"])
        .arg(&restored)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("LOST  corrupt frame"));
    assert!(!restored.exists(), "restore wrote output");
}

/// An unframed file with a forged header field — the pre-framing format,
/// which once reached `Diff::decode` with no checksum in front of it — is
/// typed lost as a damaged frame before anything decodes it: `verify`
/// types it lost, `restore` exits 1 and writes nothing — never a panic
/// (exit 101), never bytes.
#[test]
fn forged_legacy_record_is_a_typed_loss_not_a_panic() {
    let tmp = TempDir::new("forged-legacy");
    let snaps = write_snapshots(tmp.path());
    let record = tmp.path().join("record");
    assert!(ckpt()
        .args(["create", "--out", record.to_str().unwrap(), "--chunk", "64"])
        .args(snaps.iter().map(|p| p.to_str().unwrap()))
        .status()
        .unwrap()
        .success());
    // The newest record, unframed, with its diff's data_len (u64 @12) zeroed.
    let path = record.join("0002.ckpt");
    let mut bytes = std::fs::read(&path).unwrap()[32..].to_vec();
    bytes[12..20].fill(0);
    std::fs::write(&path, &bytes).unwrap();

    let out = ckpt()
        .args(["verify", record.to_str().unwrap(), "--json"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(4), "{stdout}");
    assert!(
        stdout.contains(r#"{"ckpt_id":2,"status":"lost"}"#),
        "{stdout}"
    );
    // Plain flat mode keeps its historical exit 1.
    let out = ckpt()
        .args(["verify", record.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("v0002 BAD  corrupt frame"), "{stdout}");

    let restored = tmp.path().join("restored.bin");
    let out = ckpt()
        .args(["restore", record.to_str().unwrap(), "--out"])
        .arg(&restored)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("v0002 LOST  corrupt frame"), "{stderr}");
    assert!(!restored.exists(), "restore wrote output");
}

/// The diff header's reserved byte — where a dedup-layer payload codec
/// once lived — set inside an intact frame is a typed loss: decode refuses
/// it, `verify` types the version lost, and `restore` writes nothing.
#[test]
fn nonzero_reserved_diff_byte_is_a_typed_loss() {
    use gpu_dedup_ckpt::dedup::diff::DecodeError;
    use gpu_dedup_ckpt::dedup::frame::{decode_frame, encode_frame};
    use gpu_dedup_ckpt::dedup::Diff;
    let tmp = TempDir::new("reserved-byte");
    let snaps = write_snapshots(tmp.path());
    let record = tmp.path().join("record");
    assert!(ckpt()
        .args(["create", "--out", record.to_str().unwrap(), "--chunk", "64"])
        .args(snaps.iter().map(|p| p.to_str().unwrap()))
        .status()
        .unwrap()
        .success());
    // Version 1's diff with its reserved byte (@7) set, re-framed so the
    // frame itself verifies and only the diff is wrong.
    let path = record.join("0001.ckpt");
    let framed = std::fs::read(&path).unwrap();
    let (header, diff) = decode_frame(&framed, Some((0, 1))).unwrap();
    assert_eq!((header.codec, diff[7]), (0, 0));
    let mut diff = diff.to_vec();
    diff[7] = 6;
    assert_eq!(Diff::decode(&diff), Err(DecodeError::Reserved(6)));
    std::fs::write(&path, encode_frame(0, 1, &diff)).unwrap();

    let out = ckpt()
        .args(["verify", record.to_str().unwrap(), "--json"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(4), "{stdout}");
    assert!(
        stdout.contains(r#"{"ckpt_id":1,"status":"lost"}"#),
        "{stdout}"
    );

    let restored = tmp.path().join("restored.bin");
    let out = ckpt()
        .args([
            "restore",
            record.to_str().unwrap(),
            "--version",
            "1",
            "--out",
        ])
        .arg(&restored)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{stderr}");
    assert!(!restored.exists(), "restore wrote output");
}

#[test]
fn helpful_errors() {
    let tmp = TempDir::new("errors");
    // Unknown subcommand → usage, exit 2.
    let out = ckpt().arg("bogus").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    // Missing record dir.
    let out = ckpt()
        .args(["info", tmp.path().join("nope").to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("no checkpoints"));
    // Restoring a version that does not exist.
    let snaps = write_snapshots(tmp.path());
    let record = tmp.path().join("rec");
    assert!(ckpt()
        .args(["create", "--out", record.to_str().unwrap()])
        .args(snaps.iter().map(|p| p.to_str().unwrap()))
        .status()
        .unwrap()
        .success());
    let out = ckpt()
        .args([
            "restore",
            record.to_str().unwrap(),
            "--version",
            "9",
            "--out",
            tmp.path().join("x").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("not in record"));
    // An unknown flag is a usage error naming it, not a snapshot path or
    // record directory that then fails to open.
    let x = tmp.path().join("x");
    let (record, x) = (record.to_str().unwrap(), x.to_str().unwrap());
    let snap = snaps[0].to_str().unwrap();
    for (flag, args) in [
        ("--bogus", vec!["create", "--out", x, "--bogus", snap]),
        ("--bogus", vec!["restore", record, "--bogus", "--out", x]),
        // Gone with the engines it chose between: single-pass is the only
        // restore path.
        (
            "--parallel",
            vec!["restore", record, "--parallel", "--out", x],
        ),
        // Gone with the dedup-layer codec: the flush stage (`--compress`)
        // is the one place checkpoint bytes are compressed.
        (
            "--payload-compress",
            vec!["create", "--out", x, "--payload-compress", "zstd", snap],
        ),
    ] {
        let out = ckpt().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag {flag}")),
            "{args:?}: {stderr}"
        );
    }
    // A dedup-layer flag on a method with no pipeline to apply it to is a
    // usage error naming both, not a silently ignored option.
    for method in ["basic", "full"] {
        let out = ckpt()
            .args(["create", "--out", x, "--method", method])
            .args(["--verify-collisions", snap])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{method}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--verify-collisions") && stderr.contains(method),
            "{method}: {stderr}"
        );
    }
    // Inputs the engine cannot checkpoint are refused before anything runs
    // or is written, naming the flag or the file — never a panic. A chunk
    // below the minimum is a usage error; an empty snapshot, or snapshots
    // of different lengths in one rank, are file errors.
    let empty = tmp.path().join("empty.bin");
    std::fs::write(&empty, b"").unwrap();
    let short = tmp.path().join("short.bin");
    std::fs::write(&short, vec![7u8; 1000]).unwrap();
    let (empty, short) = (empty.to_str().unwrap(), short.to_str().unwrap());
    let mut cases = vec![
        (2, "--chunk 16", vec!["--chunk", "16", snap]),
        (2, "--chunk 31", vec!["--chunk", "31", snap]),
        (1, "empty.bin: empty snapshot", vec![empty]),
        (
            1,
            "empty.bin: empty snapshot",
            vec!["--ranks", "2", snap, empty],
        ),
    ];
    for method in ["tree", "list", "basic", "full"] {
        cases.push((
            1,
            "short.bin: 1000 bytes",
            vec!["--method", method, snap, short],
        ));
    }
    for (code, names, args) in cases {
        let out = ckpt()
            .args(["create", "--out", x])
            .args(&args)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
        assert!(stderr.contains(names), "{args:?}: {stderr}");
        assert!(!Path::new(x).exists(), "{args:?} wrote {x}");
    }
    // Snapshots of different lengths on different ranks are legal.
    let out = ckpt()
        .args([
            "create",
            "--out",
            x,
            "--ranks",
            "2",
            "--rank-dedup",
            snap,
            short,
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = ckpt().args(["verify", x]).output().unwrap();
    assert_eq!(out.status.code(), Some(0));
}

/// Every version restores to its snapshot through the one restore path,
/// and `--stats` always reports the engine's `restore/*` counters.
#[test]
fn every_version_restores_and_stats_count_the_walk() {
    let tmp = TempDir::new("restore-all");
    let snaps = write_snapshots(tmp.path());
    let record = tmp.path().join("record");
    assert!(ckpt()
        .args(["create", "--out", record.to_str().unwrap(), "--chunk", "64"])
        .args(snaps.iter().map(|p| p.to_str().unwrap()))
        .status()
        .unwrap()
        .success());

    for (version, snap) in snaps.iter().enumerate() {
        let restored = tmp.path().join(format!("v{version}.bin"));
        let out = ckpt()
            .args(["restore", record.to_str().unwrap(), "--version"])
            .arg(version.to_string())
            .args(["--out", restored.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "restore v{version}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            std::fs::read(&restored).unwrap(),
            std::fs::read(snap).unwrap(),
            "version {version}"
        );
    }

    let out = ckpt()
        .args([
            "restore",
            record.to_str().unwrap(),
            "--out",
            tmp.path().join("latest.bin").to_str().unwrap(),
            "--stats",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let json = stdout
        .lines()
        .find_map(|l| l.strip_prefix("stats: "))
        .expect("stats line");
    for key in [
        "restore/chains_restored",
        "restore/records_read",
        "restore/regions_copied",
        "restore/pieces",
        "restore/bytes_copied",
        "restore/zero_chunks",
    ] {
        assert!(
            json.contains(&format!("\"{key}\"")),
            "missing {key}: {json}"
        );
    }
}

/// A compacted record (GC removed the files below a self-contained head):
/// info/restore/verify all detect the non-zero base, keep absolute version
/// ids, and refuse a compacted record whose head is not self-contained.
#[test]
fn compacted_record_round_trip_and_head_check() {
    let tmp = TempDir::new("compacted");
    let snaps = write_snapshots(tmp.path());

    // Full-method records are self-contained at every version, so dropping
    // the prefix leaves a valid compacted record with base v0001.
    let record = tmp.path().join("full");
    assert!(ckpt()
        .args([
            "create",
            "--out",
            record.to_str().unwrap(),
            "--method",
            "full"
        ])
        .args(snaps.iter().map(|p| p.to_str().unwrap()))
        .status()
        .unwrap()
        .success());
    std::fs::remove_file(record.join("0000.ckpt")).unwrap();

    let out = ckpt()
        .args(["info", record.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("2 versions (compacted, base v0001)"),
        "{text}"
    );

    // --version is an absolute id: v2 still restores, v0 is gone.
    let restored = tmp.path().join("v2.bin");
    let out = ckpt()
        .args([
            "restore",
            record.to_str().unwrap(),
            "--version",
            "2",
            "--out",
            restored.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read(&restored).unwrap(),
        std::fs::read(&snaps[2]).unwrap()
    );
    let out = ckpt()
        .args([
            "restore",
            record.to_str().unwrap(),
            "--version",
            "0",
            "--out",
            tmp.path().join("v0.bin").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("not in record (1..2)"));

    // Integrity mode replays the surviving chain from the base.
    let out = ckpt()
        .args(["verify", record.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("first surviving version is v0001"), "{text}");
    assert!(text.contains("replays cleanly from v0001"), "{text}");

    // A Tree record's incremental v0001 is NOT self-contained: deleting
    // v0000 must be rejected, not silently replayed against zeros.
    let tree = tmp.path().join("tree");
    assert!(ckpt()
        .args(["create", "--out", tree.to_str().unwrap()])
        .args(snaps.iter().map(|p| p.to_str().unwrap()))
        .status()
        .unwrap()
        .success());
    std::fs::remove_file(tree.join("0000.ckpt")).unwrap();
    let out = ckpt()
        .args(["info", tree.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("not self-contained"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Murmur3 digest over (sorted relative path, file bytes) of a directory
/// tree: any change to a file name, a file's length or a single stored
/// byte moves it.
fn dir_digest(root: &Path) -> String {
    fn walk(root: &Path, dir: &Path, files: &mut Vec<(String, Vec<u8>)>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, files);
            } else {
                let rel = path.strip_prefix(root).unwrap().to_str().unwrap();
                files.push((rel.replace('\\', "/"), std::fs::read(&path).unwrap()));
            }
        }
    }
    let mut files = Vec::new();
    walk(root, root, &mut files);
    files.sort();
    let mut buf = Vec::new();
    for (rel, bytes) in &files {
        buf.extend_from_slice(rel.as_bytes());
        buf.push(0);
        buf.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        buf.extend_from_slice(bytes);
    }
    gpu_dedup_ckpt::hash::murmur3::murmur3_x64_128(&buf, 0).to_hex()
}

/// The version-1 record directories `on_disk_bytes_are_stable` pins, as
/// the version-1 `ckpt create` wrote them from `write_n_snapshots`.
fn v1_fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v1")
}

/// `ckpt verify <record>` exits 0, and every version of every rank of
/// `record` restores to its snapshot: rank `r` of a ranked record holds
/// `snaps[r * per_rank..][..per_rank]`, a flat record all of `snaps`.
fn verify_and_restore_all(tag: &str, record: &Path, snaps: &[PathBuf], ranks: usize, out: &Path) {
    let run = ckpt()
        .args(["verify", record.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "{tag}: {}",
        String::from_utf8_lossy(&run.stdout)
    );
    let per_rank = snaps.len() / ranks;
    for (i, snap) in snaps.iter().enumerate() {
        let (rank, version) = (i / per_rank, i % per_rank);
        let target = if ranks > 1 {
            record.join(format!("rank{rank:04}"))
        } else {
            record.to_path_buf()
        };
        let restored = out.join(format!("{tag}-{i}.bin"));
        let run = ckpt()
            .args(["restore", target.to_str().unwrap()])
            .args(["--version", &version.to_string(), "--out"])
            .arg(&restored)
            .output()
            .unwrap();
        assert!(
            run.status.success(),
            "{tag} rank {rank} v{version}: {}",
            String::from_utf8_lossy(&run.stderr)
        );
        assert_eq!(
            std::fs::read(&restored).unwrap(),
            std::fs::read(snap).unwrap(),
            "{tag} rank {rank} v{version}"
        );
    }
}

/// On-disk byte stability, per frame version. Version 1: the three
/// directories in `tests/fixtures/v1/` are what `ckpt create` wrote from
/// `write_n_snapshots` before the lane-split checksum; their digests were
/// captured from the binary as it stood before `create` moved onto
/// `AsyncRuntime` + `ClusterDir::export`, and they must still verify and
/// restore every version bit-exactly through the current read path.
/// Version 2: what `create` writes today, pinned the same way and read
/// back the same way.
#[test]
fn on_disk_bytes_are_stable() {
    let tmp = TempDir::new("golden");
    let snaps = write_n_snapshots(tmp.path(), 8);
    let cluster = [
        "--ranks",
        "4",
        "--redundancy",
        "xor:4",
        "--rank-dedup",
        "--compress",
        "adaptive",
    ];
    for (tag, extra, n, ranks, v1, v2) in [
        (
            "flat-off",
            &["--compress", "off"][..],
            3,
            1,
            "04b557dc9f1155a3ec23772d0386965c",
            "4a826ddfb2e2e8e80348a82ca69d63cf",
        ),
        (
            "flat-adaptive-list",
            &["--compress", "adaptive", "--method", "list"][..],
            3,
            1,
            "837b97c6463ae02da09508f5072e21b5",
            "6dc437a42daab1258e0833c6b1c68e13",
        ),
        (
            "cluster",
            &cluster[..],
            8,
            4,
            "bf12f87cf7ae848ff838198619162130",
            "30e74cc5087f1e596daaa190dcacb1a6",
        ),
    ] {
        let fixture = v1_fixtures().join(tag);
        assert_eq!(dir_digest(&fixture), v1, "{tag}: version-1 fixture moved");
        let v1_tag = format!("{tag}-v1");
        verify_and_restore_all(&v1_tag, &fixture, &snaps[..n], ranks, tmp.path());

        let record = tmp.path().join(tag);
        let out = ckpt()
            .args(["create", "--out", record.to_str().unwrap()])
            .args(extra)
            .args(snaps[..n].iter().map(|p| p.to_str().unwrap()))
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{tag}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(dir_digest(&record), v2, "{tag}: on-disk bytes moved");
        verify_and_restore_all(tag, &record, &snaps[..n], ranks, tmp.path());
    }
}

/// A version-1 group (its `MANIFEST` has no `version` line, so its member
/// checksums are the serial chain's) rebuilds a lost rank: with the rank
/// directory gone, `verify` types it repairable and `restore` returns its
/// snapshot through the group.
#[test]
fn a_version_1_group_rebuilds_a_lost_rank() {
    fn copy_dir(from: &Path, to: &Path) {
        std::fs::create_dir_all(to).unwrap();
        for entry in std::fs::read_dir(from).unwrap() {
            let path = entry.unwrap().path();
            let dest = to.join(path.file_name().unwrap());
            if path.is_dir() {
                copy_dir(&path, &dest);
            } else {
                std::fs::copy(&path, &dest).unwrap();
            }
        }
    }
    let tmp = TempDir::new("v1-rank-loss");
    let snaps = write_n_snapshots(tmp.path(), 8);
    let record = tmp.path().join("cluster");
    copy_dir(&v1_fixtures().join("cluster"), &record);
    let manifest = std::fs::read_to_string(record.join("group/MANIFEST")).unwrap();
    assert!(manifest.starts_with("policy xor:4\nmember "), "{manifest}");
    std::fs::remove_dir_all(record.join("rank0002")).unwrap();

    let out = ckpt()
        .args(["verify", record.to_str().unwrap()])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(3), "{stdout}");
    assert!(stdout.contains("REPAIRABLE"), "{stdout}");

    let restored = tmp.path().join("rank2.bin");
    let out = ckpt()
        .args([
            "restore",
            record.join("rank0002").to_str().unwrap(),
            "--out",
        ])
        .arg(&restored)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read(&restored).unwrap(),
        std::fs::read(&snaps[5]).unwrap()
    );
}
