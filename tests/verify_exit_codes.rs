//! Exit-code matrix and report-schema stability of `ckpt verify`.
//!
//! The contract, per object: `verified` — exit 0; damage the redundancy
//! group can rebuild — exit 3; anything with no path to a correct payload
//! (including a dangling cross-rank dedup reference) — exit 4; bad usage
//! — exit 2. The machine-readable report (`--json`) keeps one stable
//! schema across redundancy policies and rank-dedup on/off.

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
        let dir = std::env::temp_dir().join(format!("ckpt-exit-test-{tag}-{}", std::process::id()));
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

/// Snapshots whose content repeats with the chunk period, so the per-rank
/// sequences dedup heavily across ranks and versions (the claim winner's
/// record is referenced from everywhere — exactly what dangling-reference
/// typing must survive). Eight files → 4 ranks x 2 versions.
fn write_snapshots(dir: &Path, count: usize) -> Vec<PathBuf> {
    let mut data: Vec<u8> = (0..32 * 1024u32).map(|i| (i % 64) as u8).collect();
    let mut paths = Vec::new();
    for k in 0..count {
        if k > 0 {
            for j in 0..16 {
                let at = (k * 977 + j * 419) % data.len();
                data[at] = data[at].wrapping_add(1);
            }
        }
        let p = dir.join(format!("snap{k}.bin"));
        std::fs::write(&p, &data).unwrap();
        paths.push(p);
    }
    paths
}

fn create_cluster(record: &Path, snaps: &[PathBuf], policy: &str) {
    let out = ckpt()
        .args([
            "create",
            "--out",
            record.to_str().unwrap(),
            "--chunk",
            "64",
            "--ranks",
            "4",
            "--redundancy",
            policy,
            "--rank-dedup",
        ])
        .args(snaps.iter().map(|p| p.to_str().unwrap()))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "create --redundancy {policy} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn verify_json(record: &Path) -> (i32, String) {
    let out = ckpt()
        .args(["verify", record.to_str().unwrap(), "--json"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let json = stdout
        .lines()
        .find(|l| l.starts_with('{'))
        .unwrap_or_default()
        .to_string();
    (out.status.code().unwrap(), json)
}

/// The full matrix, per redundancy policy: clean record → 0, group-
/// repairable damage → 3, unrepairable damage (including dangling
/// cross-rank references) → 4. The clean-record JSON report is
/// byte-identical across policies — one schema, not one per policy.
#[test]
fn verify_exit_code_matrix_across_policies() {
    let mut clean_jsons = Vec::new();
    for policy in ["off", "xor:2"] {
        let tmp = TempDir::new(&format!("matrix-{}", policy.replace(':', "-")));
        let snaps = write_snapshots(tmp.path(), 8);
        let record = tmp.path().join("record");
        create_cluster(&record, &snaps, policy);

        // Clean: exit 0, clean:true, stable schema.
        let (code, json) = verify_json(&record);
        assert_eq!(code, 0, "{policy}: clean record must verify");
        assert!(
            json.starts_with(r#"{"command":"verify","mode":"cluster","clean":true,"verified":8,"#),
            "{policy}: unexpected report head: {json}"
        );
        assert!(
            json.contains(r#""repairable":0,"lost":0,"ranks":["#),
            "{json}"
        );
        clean_jsons.push(json);

        // One flipped payload byte in rank 1's middle checkpoint: with a
        // group it is repairable (exit 3); without, lost (exit 4).
        let victim = record.join("rank0001").join("0001.ckpt");
        let mut bytes = std::fs::read(&victim).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0x40;
        std::fs::write(&victim, &bytes).unwrap();
        let (code, json) = verify_json(&record);
        if policy == "off" {
            assert_eq!(code, 4, "{policy}: corrupt object with no group is lost");
            assert!(json.contains(r#""status":"lost""#), "{json}");
        } else {
            assert_eq!(
                code, 3,
                "{policy}: group must classify the damage repairable"
            );
            assert!(json.contains(r#""status":"repairable""#), "{json}");
            assert!(!json.contains(r#""status":"lost""#), "{json}");
        }
        bytes[at] ^= 0x40;
        std::fs::write(&victim, &bytes).unwrap();

        // Wipe the claim winner's first checkpoint *and* the group store:
        // no reconstruction path remains, and every record referencing it
        // cross-rank must be typed lost — never handed back wrong.
        std::fs::remove_file(record.join("rank0000").join("0000.ckpt")).unwrap();
        let group = record.join("group");
        if group.is_dir() {
            for entry in std::fs::read_dir(&group).unwrap() {
                let p = entry.unwrap().path();
                if p.extension().is_some_and(|e| e == "grp") {
                    std::fs::remove_file(&p).unwrap();
                }
            }
        }
        let (code, json) = verify_json(&record);
        assert_eq!(code, 4, "{policy}: dangling references must exit 4");
        assert!(json.contains(r#""clean":false"#), "{json}");
        assert!(json.contains(r#""status":"lost""#), "{json}");
        // The wiped object itself and at least one *other* rank's
        // now-dangling record are both typed.
        let rank1 = json.split(r#""rank":1"#).nth(1).unwrap_or_default();
        assert!(
            rank1.contains(r#""status":"lost""#),
            "{policy}: a referencing rank must be typed lost: {json}"
        );
    }
    assert_eq!(
        clean_jsons[0], clean_jsons[1],
        "report schema must not depend on the policy"
    );
}

/// Flat (single-rank) records speak the same JSON schema with
/// `"mode":"flat"`, and damage beyond repair exits 4 there too.
#[test]
fn flat_verify_json_shares_the_schema() {
    let tmp = TempDir::new("flat-json");
    let snaps = write_snapshots(tmp.path(), 3);
    let record = tmp.path().join("record");
    let out = ckpt()
        .args(["create", "--out", record.to_str().unwrap(), "--chunk", "64"])
        .args(snaps.iter().map(|p| p.to_str().unwrap()))
        .output()
        .unwrap();
    assert!(out.status.success());

    let (code, json) = verify_json(&record);
    assert_eq!(code, 0);
    assert!(
        json.starts_with(r#"{"command":"verify","mode":"flat","clean":true,"#),
        "{json}"
    );

    let victim = record.join("0002.ckpt");
    let mut bytes = std::fs::read(&victim).unwrap();
    let at = bytes.len() / 2;
    bytes[at] ^= 0x10;
    std::fs::write(&victim, &bytes).unwrap();
    let (code, json) = verify_json(&record);
    assert_eq!(code, 4, "corrupt flat object has no repair path");
    assert!(json.contains(r#""status":"lost""#), "{json}");
}

/// Usage errors are exit 2 — distinct from verification outcomes.
#[test]
fn usage_errors_exit_2() {
    let partner = ["create", "--out", "x", "--redundancy", "partner", "s"];
    let chunk = ["create", "--out", "x", "--chunk", "16", "s"];
    for args in [
        &[][..],
        &["frobnicate"][..],
        &["verify"][..],
        &["info"][..],
        &["restore"][..],
        &["restore", "--out", "y"][..],
        &["create", "s"][..],
        &["create", "--out", "x"][..],
        &["create", "--ranks"][..],
        &partner,
        &chunk,
    ] {
        let out = ckpt().args(args).output().unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "args {args:?} must be a usage error"
        );
    }
    // A malformed flag value is a usage error naming the flag, never a
    // bare parse error.
    for (flag, value) in [
        ("--compress", "bogus"),
        ("--method", "bogus"),
        ("--ranks", "0"),
        ("--ranks", "abc"),
        ("--chunk", "abc"),
        ("--version", "abc"),
    ] {
        let (code, _, stderr) = match flag {
            "--version" => run(&["restore", "r", flag, value, "--out", "y"]),
            _ => run(&["create", "--out", "x", flag, value, "s"]),
        };
        assert_eq!(code, 2, "{flag} {value} must be a usage error: {stderr}");
        let named = stderr.contains(&format!("unknown {flag} "));
        assert!(named && !stderr.contains("invalid digit"), "{stderr}");
    }
    // A mirror is `xor:2`; the policy list names the codes there are.
    let out = ckpt().args(partner).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown --redundancy policy 'partner' (off|xor:<k>)"),
        "{stderr}"
    );
    // A chunk the engine cannot cut is named before any snapshot is read.
    let out = ckpt().args(chunk).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--chunk 16 is below the minimum of 32 bytes"),
        "{stderr}"
    );
}

/// Run `ckpt` and return (exit code, stdout, stderr).
fn run(args: &[&str]) -> (i32, String, String) {
    let out = ckpt().args(args).output().unwrap();
    (
        out.status.code().unwrap(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn create(record: &Path, snaps: &[PathBuf], extra: &[&str]) {
    let out = ckpt()
        .args(["create", "--out", record.to_str().unwrap(), "--chunk", "64"])
        .args(extra)
        .args(snaps.iter().map(|p| p.to_str().unwrap()))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "create {extra:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A version missing below surviving incremental ones is a hole: it is
/// typed `lost` (never a clean report), and `restore` without `--version`
/// fails naming it instead of writing the stale older state. A redundancy
/// group that still knows the id makes it `repairable`, and restore goes
/// through the group.
#[test]
fn holed_chain_is_lost_or_group_repairable_never_stale() {
    let tmp = TempDir::new("hole");
    let snaps = write_snapshots(tmp.path(), 6);
    let out = tmp.path().join("restored.bin");

    // (layout, victim file, the rank's record path, its newest snapshot)
    for (tag, extra, victim, member, newest) in [
        ("flat", &[][..], "0002.ckpt", "", 4),
        (
            "ranks2",
            &["--ranks", "2"][..],
            "rank0001/0001.ckpt",
            "rank0001",
            5,
        ),
        (
            "ranks2-xor2",
            &["--ranks", "2", "--redundancy", "xor:2"][..],
            "rank0001/0001.ckpt",
            "rank0001",
            5,
        ),
    ] {
        let record = tmp.path().join(tag);
        create(&record, &snaps[..=newest], extra);
        std::fs::remove_file(record.join(victim)).unwrap();
        let dir = record.to_str().unwrap();
        let member = record.join(member);
        let (rank, ckpt_id) = if tag == "flat" { (0, 2) } else { (1, 1) };
        let (code, json) = verify_json(&record);
        let rank_objects = json
            .split(&format!(r#""rank":{rank},"#))
            .nth(1)
            .unwrap_or_default();
        let restore = run(&[
            "restore",
            member.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ]);
        let restored = std::fs::read(&out).ok();
        let _ = std::fs::remove_file(&out);

        if tag == "ranks2-xor2" {
            assert_eq!(code, 3, "{tag}: the group still knows the id: {json}");
            assert!(
                rank_objects.contains(&format!(r#"{{"ckpt_id":{ckpt_id},"status":"repairable"}}"#)),
                "{tag}: {json}"
            );
            assert_eq!(run(&["verify", dir]).0, 3, "{tag}");
            assert_eq!(
                restore.0, 0,
                "{tag}: restore goes through the group: {}",
                restore.2
            );
            assert_eq!(restored, std::fs::read(&snaps[newest]).ok(), "{tag}");
            continue;
        }
        assert_eq!(code, 4, "{tag}: a hole must exit 4: {json}");
        assert!(json.contains(r#""clean":false"#), "{tag}: {json}");
        assert!(
            rank_objects.contains(&format!(r#"{{"ckpt_id":{ckpt_id},"status":"lost"}}"#)),
            "{tag}: the missing id itself must be reported: {json}"
        );
        let (code, stdout, _) = run(&["verify", dir]);
        assert_ne!(code, 0, "{tag}: verify without --json must fail too");
        assert_eq!(code == 4, tag != "flat", "{tag}: exit {code}");
        assert!(
            stdout.contains(&format!("v{ckpt_id:04}")),
            "{tag}: {stdout}"
        );
        assert_ne!(restore.0, 0, "{tag}: restore must not write stale state");
        assert!(
            restore.2.contains(&format!("v{ckpt_id:04}")),
            "{tag}: restore must name the missing version: {}",
            restore.2
        );
        assert!(
            restored.is_none(),
            "{tag}: no output file on a failed restore"
        );
    }
}

/// Group objects and the manifest are bytes like any other: damage there
/// keeps `verify` in the 0/3/4 matrix, is reported per object, degrades
/// only the members that need that stripe, and never hides behind a
/// misleading load error in `stats`/`restore`.
#[test]
fn damaged_group_tier_stays_in_the_matrix() {
    let tmp = TempDir::new("group-damage");
    let snaps = write_snapshots(tmp.path(), 8);
    let record = tmp.path().join("record");
    create_cluster(&record, &snaps, "xor:2");
    let dir = record.to_str().unwrap();
    let member = record.join("rank0001");
    let out = tmp.path().join("restored.bin");
    let restore_member = || {
        run(&[
            "restore",
            member.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ])
    };

    // xor:2 hosts rank 1's stripe for checkpoint 1 on rank 0.
    let stripe = record.join("group").join("h0000_c0001.grp");
    let pristine = std::fs::read(&stripe).unwrap();
    for damaged in [
        {
            let mut b = pristine.clone();
            let at = b.len() / 2;
            b[at] ^= 0x04;
            b
        },
        pristine[..10].to_vec(),
    ] {
        std::fs::write(&stripe, damaged).unwrap();
        let (code, stdout, stderr) = run(&["verify", dir, "--json"]);
        assert_eq!(code, 0, "no member needs the stripe yet: {stdout}{stderr}");
        assert!(stdout.contains("group h0000_c0001 BAD"), "{stdout}");
        assert!(stdout.lines().last().unwrap().contains(r#""clean":true"#));
        assert_eq!(run(&["stats", dir]).0, 0);
        assert_eq!(restore_member().0, 0);
        assert_eq!(
            std::fs::read(&out).unwrap(),
            std::fs::read(&snaps[3]).unwrap()
        );
    }

    // Now the one member that needs the damaged stripe loses its file.
    std::fs::remove_file(member.join("0001.ckpt")).unwrap();
    let (code, json) = verify_json(&record);
    assert_eq!(code, 4, "{json}");
    let rank1 = json.split(r#""rank":1,"#).nth(1).unwrap_or_default();
    assert!(
        rank1.starts_with(
            r#""objects":[{"ckpt_id":0,"status":"verified"},{"ckpt_id":1,"status":"lost"}"#
        ),
        "only the object behind the damaged stripe degrades: {json}"
    );
    let (code, _, stderr) = restore_member();
    assert_ne!(code, 0);
    assert!(
        stderr.contains("v0001") && stderr.contains("group cannot rebuild"),
        "{stderr}"
    );
    std::fs::write(&stripe, &pristine).unwrap();
    assert_eq!(verify_json(&record).0, 3, "stripe back: repairable again");

    // A manifest cut mid-line is refused whole (never half-loaded) and
    // says so; with it gone the missing file has no repair path left.
    let manifest = record.join("group").join("MANIFEST");
    let text = std::fs::read(&manifest).unwrap();
    std::fs::write(&manifest, &text[..text.len() - 7]).unwrap();
    let (code, stdout, _) = run(&["verify", dir, "--json"]);
    assert_eq!(code, 4, "{stdout}");
    assert!(stdout.contains("MANIFEST BAD"), "{stdout}");
    assert!(!stdout.contains(r#""status":"repairable""#), "{stdout}");
}

/// A directory whose manifest names a policy there is no code for (an old
/// `policy partner` record) loads no group: the manifest is reported
/// malformed, and damage it would have repaired is typed lost — the
/// record never half-loads or restores wrong bytes.
#[test]
fn unknown_manifest_policy_is_typed_never_silent() {
    let tmp = TempDir::new("partner-manifest");
    let snaps = write_snapshots(tmp.path(), 6);
    let record = tmp.path().join("record");
    create(&record, &snaps, &["--ranks", "2", "--redundancy", "xor:2"]);
    let manifest = record.join("group").join("MANIFEST");
    let text = std::fs::read_to_string(&manifest).unwrap();
    let rest = text.strip_prefix("policy xor:2\n").expect("xor:2 manifest");
    std::fs::write(&manifest, format!("policy partner\n{rest}")).unwrap();
    let victim = record.join("rank0001").join("0001.ckpt");
    let mut bytes = std::fs::read(&victim).unwrap();
    let at = bytes.len() / 2;
    bytes[at] ^= 0x40;
    std::fs::write(&victim, &bytes).unwrap();

    let dir = record.to_str().unwrap();
    let (code, stdout, _) = run(&["verify", dir, "--json"]);
    assert_eq!(code, 4, "{stdout}");
    assert!(
        stdout.contains("group MANIFEST BAD malformed or truncated"),
        "{stdout}"
    );
    let rank1 = stdout.split(r#""rank":1,"#).nth(1).unwrap_or_default();
    assert!(
        rank1.contains(r#"{"ckpt_id":1,"status":"lost"}"#),
        "the damaged object has no group to repair it: {stdout}"
    );
    assert!(!stdout.contains(r#""status":"repairable""#), "{stdout}");

    let out = tmp.path().join("restored.bin");
    let member = record.join("rank0001");
    let (code, _, stderr) = run(&[
        "restore",
        member.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_ne!(code, 0, "{stderr}");
    assert!(!out.exists(), "no output file on a failed restore");
}

/// Every file under `dir`, with its bytes, in path order.
fn tree_bytes(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            files.extend(tree_bytes(&path));
        } else {
            files.push((path.clone(), std::fs::read(&path).unwrap()));
        }
    }
    files.sort();
    files
}

/// A second `create` into a directory that already holds a record is a
/// data error naming the directory, and leaves every file alone: the new
/// run's versions would otherwise land over the old run's low ids, and the
/// old high ids would restore onto them with exit 0.
#[test]
fn create_into_a_used_directory_is_refused() {
    let tmp = TempDir::new("reuse");
    let mut seed = 0x9e37_79b9_7f4a_7c15u64;
    let mut snapshot = |name: &str, base: Option<&[u8]>| -> PathBuf {
        let mut data: Vec<u8> = base.map(<[u8]>::to_vec).unwrap_or_else(|| {
            (0..64 * 1024)
                .map(|_| {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    seed as u8
                })
                .collect()
        });
        if base.is_some() {
            let at = (seed as usize) % (data.len() - 512);
            seed = seed.rotate_left(17) ^ 0x5bd1_e995;
            data[at..at + 512].fill(name.len() as u8 ^ 0xa5);
        }
        let path = tmp.path().join(name);
        std::fs::write(&path, &data).unwrap();
        path
    };
    let a0 = snapshot("a0", None);
    let a0_bytes = std::fs::read(&a0).unwrap();
    let mut first = vec![a0];
    for name in ["a1", "a2", "a3"] {
        first.push(snapshot(name, Some(&a0_bytes)));
    }
    let second = [snapshot("b0", None), snapshot("b1", None)];

    let record = tmp.path().join("d");
    let dir = record.to_str().unwrap();
    let create_from = |snaps: &[PathBuf]| {
        let out = ckpt()
            .args(["create", "--out", dir])
            .args(snaps)
            .output()
            .unwrap();
        (
            out.status.code().unwrap(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let (code, stderr) = create_from(&first);
    assert_eq!(code, 0, "{stderr}");
    let before = tree_bytes(&record);
    assert_eq!(before.len(), 4, "four versions: {before:?}");

    let (code, stderr) = create_from(&second);
    assert_eq!(code, 1, "a second create into {dir}: {stderr}");
    assert!(
        stderr.contains(dir),
        "the refusal names the directory: {stderr}"
    );
    assert!(
        tree_bytes(&record) == before,
        "a refused create changed {dir}"
    );
}
