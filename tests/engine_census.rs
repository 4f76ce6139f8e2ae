//! Engine census: the structural rules neither the compiler nor the lint
//! can hold. The rest live where they are enforced — visibility, the crate
//! graph, per-crate `clippy.toml` bans whose sanctioned sites carry
//! `#[expect(clippy::disallowed_methods, reason = …)]`, exhaustive patterns,
//! the allocation census; DESIGN §6 lists each rule's home.
//!
//! What stays: deleted names, absent files, function-scoped rules, and the
//! bans no site holds (a ban with a sanctioned site in its crate leaves the
//! `expect` unfulfilled when it goes). A list is one space-separated string.

use ckpt_dedup::TreeConfig;
use ckpt_runtime::RedundancyPolicy;
use std::path::{Path, PathBuf};

const ROOT: &str = "clippy.toml";
const DEDUP: &str = "crates/ckpt-dedup/clippy.toml";
const RUNTIME: &str = "crates/ckpt-runtime/clippy.toml";
const BENCH: &str = "crates/ckpt-bench/clippy.toml";

/// The sequential replay, serial Tree and `restore_rank` are oracles only.
#[test]
fn the_oracles_live_in_ckpt_bench() {
    gone("crates/ckpt-dedup/src/restore.rs crates/ckpt-dedup/src/methods/tree_serial.rs crates/ckpt-dedup/src/random_access.rs");
    bench_only("restore_record restore_record_from SerialTreeCheckpointer restore_rank ckpt_bench");
    deleted("Restorer RecordReader");
    let manifest = std::fs::read_to_string(at("Cargo.toml")).unwrap();
    let mut tables = manifest.split("\n[");
    let deps = tables.find(|t| t.starts_with("dependencies]"));
    assert!(!deps.unwrap().contains("ckpt-bench"));
}

/// One checkpointer body for Tree, List and A3; one constructor.
#[test]
fn one_pipeline_body_and_one_constructor() {
    let methods = "crates/ckpt-dedup/src/methods";
    let bodies =
        "basic.rs::checkpoint full.rs::checkpoint mod.rs::checkpoint pipeline.rs::checkpoint";
    only(methods, has(&["fn checkpoint("]), bodies);
    deleted("ScalingMethod");
    let new = "ckpt_dedup::methods::basic::BasicCheckpointer::new ckpt_dedup::methods::list::ListCheckpointer";
    banned(&[ROOT, RUNTIME, BENCH], new);
}

/// One verified pair through a tier, one timed decode, one staging body.
#[test]
fn one_verified_way_through_a_tier() {
    deleted("FrameState try_put");
    let on_decode = "ckpt_runtime::compress::CompressMetrics::on_decode";
    banned(&[ROOT, DEDUP], "ckpt_dedup::frame::decompress_payload");
    banned(&[ROOT, RUNTIME], on_decode);
    banned(&[BENCH], "ckpt_runtime::tier::StoredObject::decode");
    let rt = "crates/ckpt-runtime/src/runtime.rs";
    only(rt, has(&["host.store_object"]), "runtime.rs::stage");
    only(rt, has(&["host.put("]), "");
}

/// Two runtime threads, scoped restore workers, and no wait that polls.
#[test]
fn no_thread_nobody_starts_and_no_wait_that_polls() {
    let polls = "std::thread::Builder::spawn std::thread::Builder::spawn_scoped std::thread::yield_now std::sync::mpsc::Receiver::recv_timeout std::sync::Condvar::wait_timeout parking_lot::Condvar::wait_for";
    let spawn_and_sleep = "std::thread::spawn std::thread::Scope::spawn std::thread::sleep";
    banned(&[ROOT, DEDUP, RUNTIME], polls);
    banned(&[ROOT, DEDUP], spawn_and_sleep);
    banned(&[DEDUP, RUNTIME], "std::fs::write");
    deleted("ClaimExchange");
}

/// Experiment-only code lives in `ckpt-bench`; unset options are gone.
#[test]
fn production_crates_hold_only_what_the_system_runs() {
    gone("crates/ckpt-runtime/src/coordinator.rs crates/ckpt-hash/src/md5.rs crates/ckpt-hash/src/sha256.rs");
    bench_only("run_scaling ScalingConfig Md5 Sha256");
    deleted("RebasePolicy streamed");
}

/// The flush stage compresses; `frame::decompress_payload` decompresses.
#[test]
fn one_compression_stage() {
    deleted("payload_codec");
    let compress = "ckpt_compress::blocks::compress_blocks ckpt_compress::Codec::compress";
    banned(&[ROOT, DEDUP], compress);
    banned(&[ROOT, RUNTIME], "ckpt_compress::blocks::decompress_blocks");
    let decompress = "ckpt_compress::Codec::decompress ckpt_compress::Codec::decompress_into";
    banned(&[ROOT, DEDUP, RUNTIME], decompress);
}

/// One binary, and one fault harness. Its roles, by what they do: a generator
/// hands out a rank's seeded stream, a builder encodes a method-generic or
/// rank-seeded checkpointer's diffs (`runtime_assembly.rs::diffs`, the Tree
/// stream its goldens pin), a runner submits, kills and recovers.
#[test]
fn one_fault_schedule_harness() {
    only("src/bin", has(&["fn main("]), "ckpt.rs::main");
    let tests = "crates/ckpt-runtime/tests";
    let seeded = has(&["wrapping_mul(0x9e37_79b9)"]);
    let draws = |f: &str| seeded(f) && !f.contains("checkpoint(");
    only(tests, draws, "support.rs::draw");
    let generic = |f: &str| f.contains("new_checkpointer(") || f.contains("for method in");
    let builds = |f: &str| f.contains(".diff.encode()") && (generic(f) || seeded(f));
    let builders = "support.rs::build runtime_assembly.rs::diffs";
    only(tests, builds, builders);
    let runs = has(&[".submit(", ".kill()", "recover_report("]);
    only(tests, runs, "support.rs::run");
}

/// One code, `xor:<k>`: nothing dispatches on the policy.
#[test]
fn one_redundancy_code() {
    deleted("Partner");
    let dispatch = |f: &str| f.lines().any(has(&["match ", "policy"]));
    only("crates/ckpt-runtime/src/redundancy.rs", dispatch, "");
}

/// One CKPR writer and one reader, no owned form.
#[test]
fn one_rank_dedup_codec() {
    deleted("RankDedupRecord ClaimLoc");
    let frame = "crates/ckpt-dedup/src/frame.rs";
    only(frame, has(&["Kind::RankDedup.begin("]), "frame.rs::new");
    only(frame, has(&["Kind::RankDedup.open("]), "frame.rs::parse");
}

/// The restore engine names a method only where it lists intervals.
#[test]
fn one_record_index() {
    let restart = "crates/ckpt-dedup/src/restart.rs";
    let sites = "restart.rs::is_self_contained restart.rs::intervals";
    only(restart, has(&["MethodKind::"]), sites);
    deleted("exclusive_scan");
}

// `TreeConfig` keeps the two options something sets, and the redundancy
// policy one code: a new field or variant stops this file compiling.
const _: fn(TreeConfig) = |config| {
    let TreeConfig {
        chunk_size: _,
        verify_collisions: _,
    } = config;
};
const _: fn(RedundancyPolicy) =
    |(RedundancyPolicy::Off | RedundancyPolicy::Xor { group_size: _ })| {};

/// No code in the workspace (comments and strings aside) names these.
fn deleted(names: &str) {
    let dirs = ["src", "crates", "tests", "examples", "bench/src"].map(at);
    for path in dirs.iter().flat_map(|dir| rust_files(dir)) {
        unnamed(&path, names, true);
    }
}

/// No production code outside `ckpt-bench`, their home, names these.
fn bench_only(names: &str) {
    for path in [rust_files(&at("src")), rust_files(&at("crates"))].concat() {
        let shown = path.to_string_lossy();
        if shown.contains("/src/") && !shown.contains("/ckpt-bench/") {
            unnamed(&path, names, false);
        }
    }
}

/// None of these paths exists.
fn gone(paths: &str) {
    let back = paths.split_whitespace().find(|p| at(p).exists());
    assert_eq!(back, None, "a path is back");
}

/// Under `under`, `picks` picks exactly the production functions `sites`.
fn only(under: &str, picks: impl Fn(&str) -> bool, sites: &str) {
    let files = rust_files(&at(under));
    let mut found: Vec<String> = files.iter().flat_map(|p| picked(p, &picks)).collect();
    found.dedup();
    assert_eq!(found.join(" "), sites, "functions under {under}");
}

/// Picks the code that holds every one of `tokens`.
fn has(tokens: &'static [&'static str]) -> impl Fn(&str) -> bool {
    move |code| tokens.iter().all(|t| code.contains(t))
}

/// Each of `tomls` bans each of `paths`.
fn banned(tomls: &[&str], paths: &str) {
    for toml in tomls {
        let text = std::fs::read_to_string(at(toml)).unwrap();
        for path in paths.split_whitespace() {
            let ban = format!("path = \"{path}\"");
            assert!(text.contains(&ban), "{toml} no longer bans `{path}`");
        }
    }
}

fn at(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// `path`'s code (all, or above `#[cfg(test)]`) less comments and strings.
fn code(path: &Path, whole: bool) -> String {
    let text = std::fs::read_to_string(path).unwrap();
    let end = text.find("#[cfg(test)]").filter(|_| !whole);
    let mut code = String::new();
    for line in text[..end.unwrap_or(text.len())].lines() {
        code.extend(line.split("//").next().unwrap().split('"').step_by(2));
        code.push('\n');
    }
    code
}

/// The code of `path` names none of `names`.
fn unnamed(path: &Path, names: &str, whole: bool) {
    let code = code(path, whole);
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let words: Vec<&str> = code.split(|c| !ident(c)).collect();
    for name in names.split_whitespace() {
        assert!(!words.contains(&name), "{} names `{name}`", path.display());
    }
}

/// `file::fn` per production function of `path` (`fn` line to `fn` line) `picks` picks.
fn picked(path: &Path, picks: &impl Fn(&str) -> bool) -> Vec<String> {
    let file = path.file_name().unwrap().to_string_lossy();
    let mut fns: Vec<(String, String)> = Vec::new();
    for line in code(path, false).lines() {
        if let Some(at) = line.find("fn ") {
            let name = &line[at + 3..];
            let name = &name[..name.find(['(', '<']).unwrap_or(name.len())];
            fns.push((format!("{file}::{name}"), String::new()));
        }
        if let Some((_, body)) = fns.last_mut() {
            body.extend([line, "\n"]);
        }
    }
    fns.retain(|(_, body)| picks(body));
    fns.into_iter().map(|(site, _)| site).collect()
}

/// Every `.rs` file at or under `path`, build output aside; `path` must exist.
fn rust_files(path: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(path) else {
        assert!(path.is_file(), "{} does not exist", path.display());
        return vec![path.to_path_buf()];
    };
    let mut files = Vec::new();
    for path in entries.map(|entry| entry.unwrap().path()) {
        if path.is_dir() && !path.ends_with("target") {
            files.extend(rust_files(&path));
        } else if path.extension().is_some_and(|x| x == "rs") {
            files.push(path);
        }
    }
    files.sort();
    files
}
