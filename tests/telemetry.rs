//! Telemetry invariants across the pipeline.
//!
//! Three properties the observability layer must uphold (DESIGN.md
//! § Observability):
//!
//! 1. Per-checkpoint stage breakdowns *tile* the method's total modeled
//!    time — named stages sum to the total within 5%.
//! 2. Producer-stall accounting is exact at the edges: an unthrottled
//!    runtime reports exactly zero stall, a throttled one under a burst
//!    reports strictly positive stall.
//! 3. `Registry::reset` returns every metric to its initial state.

// A test drives threads, clocks, files and codecs directly; the rules of
// `clippy.toml` hold production code.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

use std::sync::Arc;

use gpu_dedup_ckpt::dedup::prelude::*;
use gpu_dedup_ckpt::gpu_sim::Device;
use gpu_dedup_ckpt::runtime::{AsyncRuntime, RuntimeConfig, TierChain, TierConfig};
use gpu_dedup_ckpt::telemetry::Registry;

/// A short mutating snapshot series: enough churn that every stage of
/// every method does real work.
fn snapshots() -> Vec<Vec<u8>> {
    let mut data: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
    let mut out = vec![data.clone()];
    for k in 0..4 {
        let at = 1000 + 3500 * k;
        data[at..at + 900].fill(0xA0 + k as u8);
        out.push(data.clone());
    }
    out
}

fn assert_breakdown_tiles(
    method_name: &str,
    breakdown: &gpu_dedup_ckpt::telemetry::StageBreakdown,
    stats_modeled_sec: f64,
    expected_stages: &[&str],
) {
    assert!(
        !breakdown.stages.is_empty(),
        "{method_name}: breakdown has no stages"
    );
    for s in expected_stages {
        assert!(
            breakdown.stage(s).is_some(),
            "{method_name}: missing stage {s:?} in {:?}",
            breakdown.stages.iter().map(|s| &s.name).collect::<Vec<_>>()
        );
    }
    // Named stages must sum to the recorded total within 5% (absolute
    // floor guards near-zero totals on tiny inputs).
    let tol = |total: f64| (0.05 * total).max(1e-9);
    let modeled_gap = (breakdown.sum_modeled_sec() - breakdown.total_modeled_sec).abs();
    assert!(
        modeled_gap <= tol(breakdown.total_modeled_sec),
        "{method_name}: stage modeled sum {} vs total {}",
        breakdown.sum_modeled_sec(),
        breakdown.total_modeled_sec,
    );
    // ... and the breakdown total must agree with the method's own
    // CheckpointStats view of modeled time.
    let stats_gap = (breakdown.total_modeled_sec - stats_modeled_sec).abs();
    assert!(
        stats_gap <= tol(stats_modeled_sec),
        "{method_name}: breakdown total {} vs stats.modeled_sec {}",
        breakdown.total_modeled_sec,
        stats_modeled_sec,
    );
    // Wall-clock attribution is contiguous by construction; allow a
    // small absolute slack for the sub-10µs trailing sweep threshold.
    let measured_gap = (breakdown.sum_measured_sec() - breakdown.total_measured_sec).abs();
    assert!(
        measured_gap <= (0.05 * breakdown.total_measured_sec).max(1e-3),
        "{method_name}: stage measured sum {} vs total {}",
        breakdown.sum_measured_sec(),
        breakdown.total_measured_sec,
    );
}

#[test]
fn stage_breakdowns_sum_to_method_totals() {
    let series = snapshots();
    let cases: Vec<(Box<dyn Checkpointer>, &[&str])> = vec![
        (
            Box::new(TreeCheckpointer::new(Device::a100(), TreeConfig::new(128))),
            &[
                "leaf_hash",
                "first_ocur_wave",
                "shift_dupl_wave",
                "metadata_compact",
                "gather_serialize",
                "d2h",
            ][..],
        ),
        (
            Box::new(ListCheckpointer::new(Device::a100(), TreeConfig::new(128))),
            &["leaf_hash", "metadata_compact", "gather_serialize", "d2h"][..],
        ),
        (
            Box::new(BasicCheckpointer::new(Device::a100(), 128)),
            &["leaf_hash", "metadata_compact", "gather_serialize", "d2h"][..],
        ),
        (
            Box::new(FullCheckpointer::new(Device::a100(), 128)),
            &["total"][..],
        ),
    ];
    for (mut method, stages) in cases {
        let name = method.name().to_string();
        for snap in &series {
            let out = method.checkpoint(snap);
            assert_breakdown_tiles(&name, &out.breakdown, out.stats.modeled_sec, stages);
        }
    }
}

#[test]
fn producer_stall_is_zero_without_backpressure() {
    let rt = AsyncRuntime::new();
    for k in 0..4u32 {
        rt.submit_blocking(0, k, vec![k as u8; 256]).unwrap();
    }
    rt.wait_durable(&[(0, 0), (0, 1), (0, 2), (0, 3)]);
    let reg = Arc::clone(rt.telemetry());
    rt.shutdown();
    assert_eq!(reg.counter("runtime/submitted").get(), 4);
    assert_eq!(reg.counter("runtime/durable").get(), 4);
    // Exactly zero: only submissions that found the host tier full may
    // count as stalls, and the default tiers never fill here.
    assert_eq!(reg.counter("runtime/producer_stalls").get(), 0);
    assert_eq!(reg.counter("runtime/producer_stall_ns").get(), 0);
}

#[test]
fn producer_stall_is_positive_under_throttled_backpressure() {
    // Host tier holds two 100-byte objects; the SSD drains at a throttled
    // pace, so a burst of 8 must stall the producer (same scenario as
    // ckpt-runtime's backpressure test, observed through telemetry).
    let tiers = TierChain::with_configs(
        TierConfig {
            name: "host",
            bandwidth_bps: 25.0e9,
            capacity: 220,
        },
        TierConfig {
            name: "ssd",
            bandwidth_bps: 1e6,
            capacity: u64::MAX,
        },
        TierConfig::pfs(),
    );
    let rt = AsyncRuntime::start(RuntimeConfig {
        tiers,
        time_scale: 1.0,
        ..Default::default()
    });
    for k in 0..8u32 {
        rt.submit_blocking(0, k, vec![k as u8; 100]).unwrap();
    }
    let ids: Vec<_> = (0..8u32).map(|k| (0, k)).collect();
    rt.wait_durable(&ids);
    let reg = Arc::clone(rt.telemetry());
    rt.shutdown();
    assert_eq!(reg.counter("runtime/submitted").get(), 8);
    assert_eq!(reg.counter("runtime/durable").get(), 8);
    assert!(
        reg.counter("runtime/producer_stalls").get() > 0,
        "burst must have stalled"
    );
    assert!(
        reg.counter("runtime/producer_stall_ns").get() > 0,
        "stall time must be recorded"
    );
    // Flush latencies were observed on both downstream hops.
    assert_eq!(reg.histogram("tier/ssd/flush_ns").count(), 8);
    assert_eq!(reg.histogram("tier/pfs/flush_ns").count(), 8);
}

#[test]
fn registry_reset_restores_initial_state() {
    let rt = AsyncRuntime::new();
    for k in 0..3u32 {
        rt.submit_blocking(0, k, vec![7; 128]).unwrap();
    }
    rt.wait_durable(&[(0, 0), (0, 1), (0, 2)]);
    let reg = Arc::clone(rt.telemetry());
    rt.shutdown();
    assert!(reg.counter("runtime/submitted").get() > 0);
    assert!(reg.histogram("tier/host/object_bytes").count() > 0);

    reg.reset();
    assert_eq!(reg.counter("runtime/submitted").get(), 0);
    assert_eq!(reg.counter("runtime/durable").get(), 0);
    assert_eq!(reg.counter("runtime/producer_stall_ns").get(), 0);
    assert_eq!(reg.gauge("runtime/queue_depth").get(), 0);
    assert_eq!(reg.gauge("runtime/durable_lag").get(), 0);
    assert_eq!(reg.histogram("tier/host/object_bytes").count(), 0);
    assert_eq!(reg.histogram("tier/host/object_bytes").sum(), 0);
    assert_eq!(reg.histogram("tier/pfs/flush_ns").count(), 0);

    // A reset registry behaves like a fresh one.
    let fresh = Registry::new();
    assert_eq!(reg.snapshot_json(), {
        // Materialize the same metric set on the fresh registry so the
        // schemas line up, all at zero.
        for c in [
            "runtime/submitted",
            "runtime/durable",
            "runtime/producer_stall_ns",
        ] {
            fresh.counter(c);
        }
        fresh.counter("runtime/producer_stalls");
        fresh.counter("tier/host/evictions");
        fresh.counter("tier/ssd/evictions");
        for g in [
            "runtime/queue_depth",
            "runtime/durable_lag",
            "tier/host/used_bytes",
        ] {
            fresh.gauge(g);
        }
        for h in [
            "tier/host/object_bytes",
            "tier/ssd/object_bytes",
            "tier/pfs/object_bytes",
            "tier/ssd/flush_ns",
            "tier/pfs/flush_ns",
        ] {
            fresh.histogram(h);
        }
        fresh.snapshot_json()
    });
}
