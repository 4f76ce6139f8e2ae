//! On-disk corruption sweep: the restore contract ("exact bytes or a typed
//! loss, never a wrong payload") checked against the real filesystem.
//!
//! One clustered record (4 ranks x 2 versions, `xor:4` parity, rank-dedup,
//! adaptive compression) is built from known snapshots. Then, one at a
//! time and from a fixed seed: every file is bit-flipped at three offsets,
//! truncated to three lengths (one of them zero) and deleted, and every
//! rank directory is deleted whole. After each injury:
//!
//! 1. `verify --json` exits 0, 3 or 4 — never 1, 2 or a panic — and its
//!    last stdout line is the covenanted report;
//! 2. exit 0 or 3 means every rank restores (a deleted rank directory
//!    through its group) to that rank's newest original snapshot;
//! 3. whatever `verify` said, a restore that exits 0 wrote exactly the
//!    newest snapshot — never an older version, never other bytes.

// A test drives threads, clocks, files and codecs directly; the rules of
// `clippy.toml` hold production code.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

use gpu_dedup_ckpt::runtime::SplitMix64;
use std::path::{Path, PathBuf};
use std::process::Command;

const RANKS: usize = 4;
const VERSIONS: usize = 2;
const SEED: u64 = 0x5EED_C0DE;

fn ckpt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ckpt"))
}

/// Snapshots sharing most chunks across ranks and versions, so records
/// reference one another through the cluster index and one damaged file
/// can strand several.
fn write_snapshots(dir: &Path) -> Vec<PathBuf> {
    let mut data: Vec<u8> = (0..48 * 1024u32).map(|i| (i % 251) as u8).collect();
    (0..RANKS * VERSIONS)
        .map(|k| {
            for j in 0..200 {
                let at = (k * 2477 + j * 53) % data.len();
                data[at] = data[at].wrapping_add(k as u8 + 1);
            }
            let p = dir.join(format!("snap{k}.bin"));
            std::fs::write(&p, &data).unwrap();
            p
        })
        .collect()
}

/// Every file under `root`, sorted, relative.
fn files_under(root: &Path) -> Vec<PathBuf> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                out.push(path.strip_prefix(root).unwrap().to_path_buf());
            }
        }
    }
    let mut out = Vec::new();
    walk(root, root, &mut out);
    out.sort();
    out
}

/// Check the three properties on the record as it now sits on disk.
fn check(record: &Path, newest: &[Vec<u8>], scratch: &Path, case: &str) {
    let out = ckpt()
        .args(["verify", record.to_str().unwrap(), "--json"])
        .output()
        .unwrap();
    let code = out.status.code();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        matches!(code, Some(0 | 3 | 4)),
        "{case}: verify exited {code:?}\n{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = stdout.lines().last().unwrap_or_default();
    for key in [
        r#"{"command":"verify","mode":"cluster","clean":"#,
        r#""verified":"#,
        r#""repairable":"#,
        r#""lost":"#,
        r#""ranks":[{"rank":"#,
        r#""objects":[{"ckpt_id":"#,
        r#""status":""#,
    ] {
        assert!(report.contains(key), "{case}: report lacks {key}: {report}");
    }
    assert_eq!(
        report.contains(r#""clean":true"#),
        code == Some(0),
        "{case}: {report}"
    );

    let restored = scratch.join("restored.bin");
    for (rank, want) in newest.iter().enumerate() {
        let _ = std::fs::remove_file(&restored);
        let out = ckpt()
            .arg("restore")
            .arg(record.join(format!("rank{rank:04}")))
            .arg("--out")
            .arg(&restored)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        if code != Some(4) {
            assert!(
                out.status.success(),
                "{case}: verify exited {code:?} but rank {rank} does not restore: {stderr}"
            );
        }
        if out.status.success() {
            assert!(
                std::fs::read(&restored).unwrap() == *want,
                "{case}: rank {rank} restored bytes that are not its newest snapshot"
            );
        } else {
            assert_eq!(out.status.code(), Some(1), "{case}: rank {rank}: {stderr}");
        }
    }
}

#[test]
fn every_single_file_injury_lands_in_the_contract() {
    let tmp = std::env::temp_dir().join(format!("ckpt-corruption-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).unwrap();
    let snaps = write_snapshots(&tmp);
    let record = tmp.join("record");
    let out = ckpt()
        .args(["create", "--out", record.to_str().unwrap()])
        .args(["--ranks", "4", "--redundancy", "xor:4", "--rank-dedup"])
        .args(["--compress", "adaptive"])
        .args(&snaps)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Rank r holds snapshots r*VERSIONS .. (r+1)*VERSIONS.
    let newest: Vec<Vec<u8>> = (0..RANKS)
        .map(|r| std::fs::read(&snaps[(r + 1) * VERSIONS - 1]).unwrap())
        .collect();
    check(&record, &newest, &tmp, "pristine");

    let files = files_under(&record);
    assert_eq!(files.len(), 2 * RANKS * VERSIONS + 1, "{files:?}");
    let mut rng = SplitMix64::new(SEED);
    for rel in &files {
        let path = record.join(rel);
        let pristine = std::fs::read(&path).unwrap();
        let len = pristine.len();
        let mut injuries: Vec<(String, Option<Vec<u8>>)> = Vec::new();
        for _ in 0..3 {
            let at = (rng.next() % len as u64) as usize;
            let mask = 1u8 << (rng.next() % 8);
            let mut bytes = pristine.clone();
            bytes[at] ^= mask;
            injuries.push((format!("flip {at}^{mask:#04x}"), Some(bytes)));
        }
        for keep in [
            0,
            1 + (rng.next() as usize) % (len - 1),
            (rng.next() as usize) % len,
        ] {
            injuries.push((
                format!("truncate {keep}/{len}"),
                Some(pristine[..keep].to_vec()),
            ));
        }
        injuries.push(("delete".into(), None));
        for (what, bytes) in injuries {
            match bytes {
                Some(bytes) => std::fs::write(&path, bytes).unwrap(),
                None => std::fs::remove_file(&path).unwrap(),
            }
            check(&record, &newest, &tmp, &format!("{} {what}", rel.display()));
        }
        std::fs::write(&path, &pristine).unwrap();
    }

    for rank in 0..RANKS {
        let dir = record.join(format!("rank{rank:04}"));
        let saved: Vec<(PathBuf, Vec<u8>)> = files_under(&dir)
            .into_iter()
            .map(|rel| (dir.join(&rel), std::fs::read(dir.join(&rel)).unwrap()))
            .collect();
        std::fs::remove_dir_all(&dir).unwrap();
        check(&record, &newest, &tmp, &format!("rank{rank:04}/ deleted"));
        std::fs::create_dir_all(&dir).unwrap();
        for (path, bytes) in saved {
            std::fs::write(path, bytes).unwrap();
        }
    }
    check(&record, &newest, &tmp, "restored to pristine");
    let _ = std::fs::remove_dir_all(&tmp);
}
