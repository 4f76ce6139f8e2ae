//! Engine census: production code has exactly one way to rebuild a
//! version — the single-pass engine (`ckpt_dedup::restart`). The
//! sequential replay, the serial Tree checkpointer and the replay of a
//! rank's record survive only as the oracles tests compare the engines
//! against, in `ckpt_bench::oracle`. The crate graph keeps them out of
//! production: `ckpt-dedup`, `ckpt-runtime` and `ckpt-adjoint` cannot
//! depend on `ckpt-bench` (a cycle), and this test fails if the oracles'
//! files come back to `ckpt-dedup`, if a production crate exports one, or
//! if the root package takes `ckpt-bench` as more than a dev-dependency.
//!
//! Method census: the de-duplication pipeline exists once. Tree, List and
//! the A3 ablation are one checkpointer body with three region-building
//! steps, and every binary, runtime and sweep turns a `MethodKind` into a
//! checkpointer through `ckpt_dedup::new_checkpointer`.
//!
//! Tier census: one verified pair moves bytes through a `Tier`
//! (`store_object` / `inspect_object`), one timed function decodes what
//! came out, one staging body writes the host tier, and nothing between a
//! tier's map and the restore engine copies a payload.
//!
//! Thread-and-wait census: the runtime spawns two threads (the flusher,
//! the pipeline's submit tail) plus the scoped workers of a restore, and
//! nothing in it waits by polling — every wait sleeps on the flusher's
//! progress signal, and the only `sleep` calls model time (retry backoff,
//! bandwidth throttle, injected latency).
//!
//! Production census: code that exists only for an experiment lives with
//! the experiment in `ckpt-bench` — the Fig. 6 harness, A1's cryptographic
//! hashes — and the options no binary, runtime or workload sets are gone.
//!
//! Compression census: checkpoint bytes are compressed in one stage, the
//! runtime's flush stage, and decompressed in one function, the frame's.
//!
//! Fault-harness census: the fault schedules are one integration target,
//! `ckpt-runtime`'s `tests/faults/`, whose `support` module builds every
//! workload, runs every submit–kill–recover schedule and audits it; the
//! root package ships one binary.
//!
//! Redundancy census: the group store holds one code, `xor:<k>` stripes
//! keyed `(hosting rank, ckpt)` — a partner mirror is `xor:2` — so nothing
//! dispatches on the policy and a lost rank's stripes are found by key.
//!
//! Rank-dedup codec census: a `CKPR` record has one writer
//! (`frame::RecordWriter`) and one reader (`RecordIndex::parse`), no owned
//! form, and one reference type (`RemoteRef`); nothing outside `frame.rs`
//! knows the layout.
//!
//! Record-index census: the restore engine indexes every method's record
//! one way, as payload and shift intervals merged into one segment list.
//! `restart.rs` names a method only where it lists those intervals (and in
//! the structural `is_self_contained`), and the device has no exclusive
//! scan left to index a Basic record with.

use std::path::{Path, PathBuf};

/// The file's source above its first `#[cfg(test)]`.
fn production_source(path: &Path) -> String {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let end = text.find("#[cfg(test)]").unwrap_or(text.len());
    text[..end].to_string()
}

/// `file::fn` for each non-comment production line of `path` that
/// `matches`, naming the function the line sits in.
fn fns_with(path: &Path, matches: &dyn Fn(&str) -> bool) -> Vec<String> {
    let file = path.file_name().unwrap().to_string_lossy();
    let mut current = String::new();
    let mut hits = Vec::new();
    for line in production_source(path).lines() {
        let code = line.trim_start();
        if code.starts_with("//") {
            continue;
        }
        if let Some(at) = code.find("fn ") {
            let name = &code[at + 3..];
            current = name[..name.find(['(', '<']).unwrap_or(name.len())].to_string();
        }
        if matches(code) {
            hits.push(format!("{file}::{current}"));
        }
    }
    hits
}

fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    files.sort();
    files
}

#[test]
fn the_oracles_live_in_ckpt_bench() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let dedup = root.join("crates/ckpt-dedup/src");
    for gone in ["restore.rs", "methods/tree_serial.rs", "random_access.rs"] {
        assert!(!dedup.join(gone).exists(), "ckpt-dedup/src/{gone} is back");
    }

    // Neither production crate exports an oracle (or a deleted reader).
    let oracles = [
        "restore_record",
        "restore_record_from",
        "SerialTreeCheckpointer",
        "restore_rank",
        "Restorer",
        "RecordReader",
    ];
    let mut exported = Vec::new();
    for lib in ["ckpt-dedup", "ckpt-runtime"] {
        let source = production_source(&root.join(format!("crates/{lib}/src/lib.rs")));
        let code = source.lines().filter(|l| !l.trim_start().starts_with("//"));
        let words = code.flat_map(|l| l.split(|c: char| !c.is_alphanumeric() && c != '_'));
        exported.extend(
            words
                .filter(|w| oracles.contains(w))
                .map(|w| format!("{lib}: {w}")),
        );
    }
    assert!(exported.is_empty(), "an oracle is exported: {exported:?}");

    // The root package takes the oracles' crate as a dev-dependency only,
    // and its source does not name it. (`ckpt-dedup`, `ckpt-runtime` and
    // `ckpt-adjoint` cannot depend on it at all: that would be a cycle.)
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap();
    let mut tables = manifest.split("\n[");
    let deps = tables
        .find(|t| t.starts_with("dependencies]"))
        .expect("[dependencies]");
    assert!(
        !deps.contains("ckpt-bench"),
        "the root package depends on ckpt-bench"
    );
    for path in rust_files_under(&root.join("src")) {
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            !text.contains("ckpt_bench"),
            "{} names ckpt-bench",
            path.display()
        );
    }
}

#[test]
fn one_pipeline_body_and_one_constructor() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let methods = root.join("crates/ckpt-dedup/src/methods");
    // One entry per `impl … Checkpointer for`, named by its file: Full,
    // Basic, the shared pipeline body.
    let mut bodies = Vec::new();
    for path in rust_files(&methods) {
        let file = path.file_name().unwrap().to_string_lossy().into_owned();
        for line in production_source(&path).lines() {
            if line.starts_with("impl") && line.contains(" Checkpointer for ") {
                bodies.push(file.clone());
            }
        }
    }
    assert_eq!(bodies, ["basic.rs", "full.rs", "pipeline.rs"]);
    for step in ["list.rs", "tree_naive.rs"] {
        assert!(
            !production_source(&methods.join(step)).contains("fn checkpoint"),
            "{step} grew a checkpointer body of its own"
        );
    }

    let mut offences = Vec::new();
    for dir in [
        "src",
        "src/bin",
        "crates/ckpt-runtime/src",
        "crates/ckpt-bench/src",
        "crates/ckpt-bench/src/bin",
    ] {
        for path in rust_files(&root.join(dir)) {
            for line in production_source(&path).lines() {
                for name in [
                    "ListCheckpointer::new",
                    "BasicCheckpointer::new",
                    "ScalingMethod",
                ] {
                    if line.contains(name) {
                        let shown = path.strip_prefix(root).unwrap().display();
                        offences.push(format!("{shown}: `{name}` in: {}", line.trim()));
                    }
                }
            }
        }
    }
    assert!(
        offences.is_empty(),
        "a method is built outside ckpt_dedup::new_checkpointer:\n{}",
        offences.join("\n")
    );
}

/// Tier census: bytes go through a `Tier` one verified way each way —
/// `store_object` in, `inspect_object` out — and a stored object is decoded
/// back to its payload by one timed function, `Tier::decode`.
#[test]
fn one_verified_way_through_a_tier() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let runtime = root.join("crates/ckpt-runtime/src");

    // The deleted parallel entry points stay deleted.
    let mut offences = Vec::new();
    for dir in [
        runtime.clone(),
        root.join("src/bin"),
        root.join("crates/ckpt-bench/src"),
    ] {
        for path in rust_files(&dir) {
            for line in production_source(&path).lines() {
                for gone in ["FrameState", ".try_put(", ".clone().decode()"] {
                    if line.contains(gone) {
                        let shown = path.strip_prefix(root).unwrap().display();
                        offences.push(format!("{shown}: `{gone}` in: {}", line.trim()));
                    }
                }
            }
        }
    }
    assert!(
        offences.is_empty(),
        "a second way through a tier grew back:\n{}",
        offences.join("\n")
    );

    let fns_with =
        |file: &str, matches: &dyn Fn(&str) -> bool| fns_with(&runtime.join(file), matches);

    // Decompression happens in the untimed `StoredObject::decode` (for a
    // holder of an object outside any runtime) and the timed `Tier::decode`;
    // inside the runtime only the quarantine diagnostic takes the former.
    let mut decompress = Vec::new();
    let mut untimed = Vec::new();
    for path in rust_files(&runtime) {
        let file = path.file_name().unwrap().to_string_lossy().into_owned();
        decompress.extend(fns_with(&file, &|l| l.contains("decompress_payload(")));
        untimed.extend(fns_with(&file, &|l| l.contains(".decode()")));
    }
    assert_eq!(decompress, ["tier.rs::decode", "tier.rs::decode"]);
    assert_eq!(untimed, ["cluster_dir.rs::loss_detail"]);
    let timed = fns_with("tier.rs", &|l| l.contains("on_decode("));
    assert_eq!(timed, ["tier.rs::decode"]);

    // A record is read once: between a tier's map and the engine nothing
    // copies a payload. `Bytes` and `StoredObject` are reference-counted
    // views, bumped with the `Type::clone(&x)` spelling; the method-call
    // spellings below are how a byte copy would come back.
    let diff = production_source(&root.join("crates/ckpt-dedup/src/diff.rs"));
    let shared = diff
        .find("pub fn decode_shared(")
        .expect("Diff::decode_shared");
    let shared = &diff[shared..shared + diff[shared..].find("\n    }\n").expect("fn end")];
    let copies_bytes = |code: &str| {
        [".to_vec()", ".clone()", ".to_owned()"]
            .iter()
            .any(|c| code.contains(c))
    };
    let mut copies = Vec::new();
    if copies_bytes(shared) {
        copies.push("diff.rs::decode_shared".to_string());
    }
    for file in ["tier.rs", "chain.rs", "restore.rs"] {
        copies.extend(fns_with(file, &copies_bytes));
    }
    assert!(
        copies.is_empty(),
        "a payload copy grew back on the read path: {copies:?}"
    );

    // And the host tier is written from one staging body.
    let stagers = fns_with("runtime.rs", &|l| {
        l.contains("host.store_object") || l.contains("host.put(")
    });
    assert!(!stagers.is_empty(), "runtime.rs no longer stages anything?");
    assert!(
        stagers.iter().all(|f| f == "runtime.rs::stage"),
        "the host tier is written outside AsyncRuntime::stage: {stagers:?}"
    );
}

/// The `ckpt-runtime` source files whose non-test, non-comment code
/// contains `token`.
fn runtime_files_with(token: &str) -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    rust_files(&root.join("crates/ckpt-runtime/src"))
        .iter()
        .filter(|path| {
            production_source(path)
                .lines()
                .any(|l| !l.trim_start().starts_with("//") && l.contains(token))
        })
        .map(|path| path.file_name().unwrap().to_string_lossy().into_owned())
        .collect()
}

#[test]
fn no_thread_nobody_starts_and_no_wait_that_polls() {
    let expected: [(&str, &[&str]); 8] = [
        ("yield_now", &[]),
        ("wait_for(", &[]),
        ("recv_timeout", &[]),
        ("thread::spawn", &["pipeline.rs", "runtime.rs"]),
        // Scoped: joined before the call that spawned them returns.
        (".spawn(", &["restore.rs"]),
        // Modeled time only: injected latency, bandwidth throttle, retry
        // backoff.
        ("sleep(", &["fault.rs", "flusher.rs", "tier.rs"]),
        ("ClaimExchange", &[]),
        // The schedule's private alias; `lib.rs` must not export it.
        ("ClaimBatch", &["rankdedup.rs"]),
    ];
    for (token, files) in expected {
        assert_eq!(
            runtime_files_with(token),
            files,
            "files whose production code has `{token}`"
        );
    }
}

/// The names of the `.rs` files directly under `dir`.
fn file_names(dir: &Path) -> Vec<String> {
    rust_files(dir)
        .iter()
        .map(|path| path.file_name().unwrap().to_string_lossy().into_owned())
        .collect()
}

#[test]
fn production_crates_hold_only_what_the_system_runs() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let crates = root.join("crates");

    // A1's MD5 and SHA-256 live beside the ablation.
    assert_eq!(
        file_names(&crates.join("ckpt-hash/src")),
        ["digest.rs", "lib.rs", "murmur3.rs"]
    );

    // The Fig. 6 harness and its rebase policy left the runtime.
    let runtime = crates.join("ckpt-runtime/src");
    assert!(
        !runtime.join("coordinator.rs").exists(),
        "coordinator.rs is back"
    );
    for token in ["run_scaling", "ScalingConfig", "RebasePolicy"] {
        assert_eq!(
            runtime_files_with(token),
            Vec::<String>::new(),
            "runtime files naming `{token}`"
        );
    }

    // `TreeConfig` keeps the two options something sets; the
    // serialization-stage streaming fork is gone from device and pipeline.
    let tree = production_source(&crates.join("ckpt-dedup/src/methods/tree.rs"));
    let at = tree.find("pub struct TreeConfig {").expect("TreeConfig");
    let body = &tree[at..at + tree[at..].find("\n}").expect("struct end")];
    let fields: Vec<&str> = body
        .lines()
        .filter_map(|l| l.trim().strip_prefix("pub "))
        .filter(|l| !l.starts_with("struct"))
        .collect();
    assert_eq!(fields.len(), 2, "TreeConfig fields: {fields:?}");
    let mut streamed = Vec::new();
    for dir in ["gpu-sim/src", "ckpt-dedup/src", "ckpt-dedup/src/methods"] {
        for path in rust_files(&crates.join(dir)) {
            if production_source(&path).contains("streamed") {
                streamed.push(path.strip_prefix(root).unwrap().display().to_string());
            }
        }
    }
    assert!(streamed.is_empty(), "`streamed` in: {streamed:?}");

    // GC is one call: the runtime's `compact_below` also advances the
    // redundancy group's floors.
    let chain = production_source(&runtime.join("chain.rs"));
    let at = chain.find("pub fn compact_below(").expect("compact_below");
    let gc = &chain[at..at + chain[at..].find("\n}").expect("fn end")];
    assert!(
        gc.contains("tiers.redundancy()") && gc.matches(".compact_below(").count() == 2,
        "compact_below no longer reaches the index and the group:\n{gc}"
    );
}

#[test]
fn one_compression_stage() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in [
        "crates/ckpt-dedup/src",
        "crates/ckpt-dedup/src/methods",
        "crates/ckpt-runtime/src",
        "src/bin",
    ] {
        files.extend(rust_files(&root.join(dir)));
    }
    let (mut compress, mut decompress, mut codec_field) = (Vec::new(), Vec::new(), Vec::new());
    for path in &files {
        // `decompress_blocks(` is not a compression site.
        compress.extend(fns_with(path, &|l| {
            let l = l.replace("decompress", "");
            l.contains("compress_blocks(") || l.contains(".compress(")
        }));
        decompress.extend(fns_with(path, &|l| {
            l.contains("decompress_blocks(") || l.contains(".decompress(")
        }));
        if production_source(path).contains("payload_codec") {
            codec_field.push(path.strip_prefix(root).unwrap().display().to_string());
        }
    }
    // The flush stage: a container encode, and adaptive selection's samples.
    assert_eq!(compress, ["compress.rs::encode", "compress.rs::select"]);
    assert_eq!(decompress, ["frame.rs::decompress_payload"]);
    assert!(
        codec_field.is_empty(),
        "`payload_codec` in: {codec_field:?}"
    );
}

#[test]
fn one_fault_schedule_harness() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    assert_eq!(file_names(&root.join("src/bin")), ["ckpt.rs"]);

    // Three suites pin a workload of their own and run no fault schedule:
    // `runtime_assembly.rs` holds golden digests of its stream,
    // `flush_compression.rs` draws its edit scripts from proptest, and
    // `restore.rs` (the restore engine's and the lineage's tests, outside
    // the crate because they call the oracle in `ckpt-bench`) builds short
    // chains by hand.
    let tests = root.join("crates/ckpt-runtime/tests");
    let mut files = rust_files(&tests);
    files.extend(rust_files(&tests.join("faults")));
    let own_workload = ["runtime_assembly.rs", "flush_compression.rs", "restore.rs"];
    files.retain(|p| !own_workload.iter().any(|f| p.ends_with(f)));

    // `file::fn` for each function of `path` that has every token.
    let fns_with_all = |path: &Path, tokens: &[&str]| -> Vec<String> {
        let mut hits: Option<Vec<String>> = None;
        for token in tokens {
            let mut with = fns_with(path, &|l| l.contains(token));
            with.dedup();
            hits = Some(match hits {
                None => with,
                Some(prev) => prev.into_iter().filter(|f| with.contains(f)).collect(),
            });
        }
        hits.unwrap_or_default()
    };
    // Each role by the code that gives it away: a snapshot generator
    // derives a rank's seeded stream, a record builder encodes a
    // checkpointer's diffs, a runner submits, crashes and recovers.
    let roles: [(&str, &[&str]); 3] = [
        ("snapshot generator", &["wrapping_mul(0x9e37_79b9)"]),
        ("record builder", &[".diff.encode()"]),
        (
            "submit–kill–recover runner",
            &[".submit(", ".kill()", "recover_report("],
        ),
    ];
    for (role, tokens) in roles {
        let defined: Vec<String> = files
            .iter()
            .flat_map(|path| fns_with_all(path, tokens))
            .collect();
        let mut in_files: Vec<&str> = defined
            .iter()
            .map(|f| &f[..f.find("::").unwrap()])
            .collect();
        in_files.dedup();
        assert_eq!(in_files, ["support.rs"], "{role}s: {defined:?}");
    }
}

#[test]
fn one_redundancy_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let path = root.join("crates/ckpt-runtime/src/redundancy.rs");
    let source = production_source(&path);
    let partner: Vec<&str> = source.lines().filter(|l| l.contains("Partner")).collect();
    assert!(partner.is_empty(), "a second code is back: {partner:?}");
    let dispatch = fns_with(&path, &|l| l.contains("match ") && l.contains("policy"));
    assert!(dispatch.is_empty(), "a match on the policy: {dispatch:?}");
    let at = source
        .find("pub struct RedundancyStore {")
        .expect("RedundancyStore");
    let store = &source[at..at + source[at..].find("\n}").expect("struct end")];
    let host_maps: Vec<&str> = store
        .lines()
        .filter(|l| l.contains("hosts") || l.contains("HashMap<ObjectId, u32>"))
        .collect();
    assert!(
        host_maps.is_empty(),
        "a group object's host is its key, not a field: {host_maps:?}"
    );
}

/// Every `.rs` file under `dir`, recursively, skipping build output.
fn rust_files_under(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            if !path.ends_with("target") {
                files.extend(rust_files_under(&path));
            }
        } else if path.extension().is_some_and(|x| x == "rs") {
            files.push(path);
        }
    }
    files.sort();
    files
}

#[test]
fn one_rank_dedup_codec() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut everywhere = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "bench/src"] {
        everywhere.extend(rust_files_under(&root.join(dir)));
    }
    // No owned record beside the writer and the index, and no second
    // reference type beside `RemoteRef`.
    let mut owned = Vec::new();
    for path in &everywhere {
        let text = std::fs::read_to_string(path).unwrap();
        for name in ["RankDedupRecord", "ClaimLoc"] {
            for item in ["struct", "enum", "type", "trait"] {
                if text.contains(&format!("{item} {name}")) {
                    owned.push(format!(
                        "{}: {item} {name}",
                        path.strip_prefix(root).unwrap().display()
                    ));
                }
            }
        }
    }
    assert!(owned.is_empty(), "a second rank-dedup form: {owned:?}");

    // Only `frame.rs` knows the layout: its kind, magic and slot size.
    let mut sources = vec![root.join("src")];
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        sources.push(krate.unwrap().path().join("src"));
    }
    let mut knowers = Vec::new();
    for dir in sources {
        for path in rust_files_under(&dir) {
            let code = production_source(&path);
            let knows = ["Kind::RankDedup", "RANKDEDUP_MAGIC", "RANKDEDUP_ENTRY_LEN"]
                .iter()
                .any(|token| {
                    code.lines()
                        .any(|l| !l.trim_start().starts_with("//") && l.contains(token))
                });
            if knows && !path.ends_with("ckpt-dedup/src/frame.rs") {
                knowers.push(path.strip_prefix(root).unwrap().display().to_string());
            }
        }
    }
    assert!(
        knowers.is_empty(),
        "the CKPR layout is known in: {knowers:?}"
    );

    // Inside it, one function starts a record and one opens one.
    let frame = root.join("crates/ckpt-dedup/src/frame.rs");
    let writers = fns_with(&frame, &|l| l.contains("Kind::RankDedup.begin("));
    let readers = fns_with(&frame, &|l| l.contains("Kind::RankDedup.open("));
    assert_eq!(
        (writers, readers),
        (
            vec!["frame.rs::new".to_string()],
            vec!["frame.rs::parse".to_string()]
        ),
        "CKPR writers and readers"
    );
}

#[test]
fn one_record_index() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let restart = root.join("crates/ckpt-dedup/src/restart.rs");
    let mut by_method = fns_with(&restart, &|l| l.contains("MethodKind::"));
    by_method.dedup();
    assert_eq!(
        by_method,
        ["restart.rs::is_self_contained", "restart.rs::intervals"],
        "functions of the restore engine that name a method"
    );

    let mut scans = Vec::new();
    for path in rust_files(&root.join("crates/gpu-sim/src")) {
        scans.extend(fns_with(&path, &|l| l.contains("fn exclusive_scan")));
    }
    assert!(
        scans.is_empty(),
        "gpu-sim defines an exclusive scan: {scans:?}"
    );
}
