//! Observability for the GPU de-duplication checkpointing pipeline.
//!
//! The paper's whole evaluation (§3.2, Figs. 4–6) is about *where time
//! goes* — leaf hashing vs. consolidation waves vs. gather/serialize vs.
//! D2H vs. tier flushes. This crate is the measurement substrate all layers
//! share:
//!
//! - [`Counter`] — monotonic event counts (evictions, stalls, kernels);
//!   [`LazyCounter`] registers one on its first event only;
//! - [`Gauge`] — instantaneous signed levels (queue depth, durable lag);
//! - [`Histogram`] — log₂-bucketed distributions for latencies and sizes;
//! - [`StageClock`] / [`StageBreakdown`] — contiguous per-stage attribution
//!   of both measured wall time and modeled device time for one checkpoint;
//! - [`SpanStats`] + [`Registry::span`] — nestable named spans aggregating
//!   measured/modeled time across calls;
//! - [`Registry`] — owns every metric, resets cleanly, and snapshots to a
//!   stable JSON schema via a hand-rolled writer (no serde).
//!
//! Everything is `Sync`, lock-free on the hot paths (atomics), and
//! dependency-free so any crate in the workspace can use it — including
//! `gpu-sim`, whose modeled clock is *fed into* spans rather than read from
//! here (this crate knows nothing about the simulator).
//!
//! JSON schema (stable keys, alphabetical within each object):
//!
//! ```json
//! {
//!   "counters": { "<name>": 42 },
//!   "gauges": { "<name>": -7 },
//!   "histograms": {
//!     "<name>": { "buckets": [ { "count": 3, "le": 1024 } ],
//!                  "count": 9, "max": 900, "min": 2, "sum": 2048 }
//!   },
//!   "spans": {
//!     "<name>": { "count": 4, "measured_sec": 0.01, "modeled_sec": 0.002 }
//!   }
//! }
//! ```

mod histogram;
mod json;
mod metrics;
mod registry;
mod stage;

pub use histogram::{Histogram, HistogramSnapshot};
pub use json::{collect_keys, JsonWriter};
pub use metrics::{Counter, Gauge, LazyCounter};
pub use registry::{Registry, SpanGuard, SpanStats};
pub use stage::{StageBreakdown, StageClock, StageSample};
