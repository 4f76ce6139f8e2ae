//! `--quick` shapes of all four workloads, untraced and traced: correctness
//! checks and output shape only — no timing is asserted here.

use ckpt_e2e::harness::{run, Options, RunResult};
use ckpt_e2e::spec::{self, Workload, DEFAULT_SEED, END_TO_END, PER_LAYER, WORKLOADS};
use ckpt_telemetry::collect_keys;

fn quick(w: Workload, trace: bool) -> RunResult {
    let mut o = Options::new(w.quick(), DEFAULT_SEED, 0.0);
    o.reps = Some(2);
    o.setup_rounds = 1;
    o.trace = trace;
    if trace {
        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
        o.trace_out = Some(dir.join(format!("trace-{}.json", w.name)));
    }
    let r = run(&o);
    assert!(r.correct(), "{}: {:?}", w.name, r.tally);
    assert_eq!(r.reps, 2);
    r
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    for w in WORKLOADS {
        let r = quick(w, false);
        assert_eq!(r.metrics.len(), END_TO_END.len());
        for m in END_TO_END {
            let got = r
                .metric(m.name)
                .unwrap_or_else(|| panic!("{} lacks {}", w.name, m.name));
            assert_eq!(got.unit, m.unit);
            assert!(
                got.value.is_finite() && got.value > 0.0,
                "{} {} = {}",
                w.name,
                m.name,
                got.value
            );
        }
        // The exact count is the same in every rep, so its spread is nil.
        let stored = &r
            .metric("stored_bytes_per_user_byte")
            .expect("listed")
            .samples;
        assert!(stored.windows(2).all(|p| p[0] == p[1]), "{stored:?}");

        let json = r.result_json();
        let keys = collect_keys(&json);
        assert_eq!(&keys[..4], ["correct", "attempted", "failed", "metrics"]);
        assert!(json.starts_with("{\"correct\":true,\"attempted\":"));
        assert!(!json.contains('\n'));
    }
}

#[test]
fn traced_runs_report_every_layer_and_write_the_trace() {
    for w in WORKLOADS {
        let r = quick(w, true);
        assert_eq!(r.metrics.len(), PER_LAYER.len());
        let value = |name: &str| r.metric(name).unwrap_or_else(|| panic!("{name}")).value;
        for m in PER_LAYER {
            assert!(value(m.name).is_finite(), "{} {}", w.name, m.name);
        }
        for must_be_zero in [
            "gpusim.arena_misses_steady",
            "gpusim.map_rebuilds_steady",
            "runtime.retries",
            "runtime.degraded_flushes",
            "integrity.frames_corrupt",
            "rankdedup.orphans",
        ] {
            assert_eq!(value(must_be_zero), 0.0, "{} {must_be_zero}", w.name);
        }
        // Layers a workload does not run read 0; layers it runs do not.
        let cluster = w.ranks > 1;
        for name in [
            "rankdedup.claims",
            "rankdedup.encode_ms",
            "compress.encode_mbps",
            "redundancy.group_bytes",
            "redundancy.reconstruct_ms",
        ] {
            assert_eq!(value(name) > 0.0, cluster, "{} {name}", w.name);
        }
        let tree = w.method == spec::Method::Tree;
        assert_eq!(value("dedup.stage.leaf_hash_ms") > 0.0, tree, "{}", w.name);
        for name in [
            "hash.murmur3_chunk_gbps",
            "host.memcpy_gbps",
            "dedup.checkpoint_ms",
            "runtime.submit_ms",
            "restore.locate_ms",
            "tier.put_gbps",
            "restart.single_pass_ms",
        ] {
            assert!(value(name) > 0.0, "{} {name}", w.name);
        }
        // The blocked path is tiled by its three layer calls.
        assert!(value("blocked.unattributed_pct").abs() < 5.0, "{}", w.name);

        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("trace-{}.json", w.name));
        let trace = std::fs::read_to_string(&path).expect("trace file written");
        assert!(trace.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{"));
        for span in [
            "rep",
            "phase.write",
            "phase.read",
            "phase.loss",
            "ckpt",
            "dedup.checkpoint",
            "dedup.encode",
            "runtime.submit",
            "restore.locate",
        ] {
            assert!(
                trace.contains(&format!("\"name\":\"{span}\"")),
                "{} lacks span {span}",
                w.name
            );
        }
    }
}

#[test]
fn committed_benchmark_json_is_the_generated_one() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        spec::benchmark_json(),
        "regenerate with `ckpt-e2e --print-benchmark-json`"
    );
}
