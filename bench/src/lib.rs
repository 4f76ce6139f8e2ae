//! `ckpt-e2e`: one repeatable snapshot → durable → restored benchmark with
//! per-layer attribution. See `README.md` beside this package for the metric
//! and workload definitions and `../BENCHMARK.json` for the contract a later
//! change is measured against.
//!
//! * [`spec`] — workloads, metric tables, bounds, the `BENCHMARK.json` text;
//! * [`run`] — input generation, set-up and one rep (write / read / loss);
//! * [`layers`] — layer micro-measurements of a traced run;
//! * [`harness`] — the measuring loop and the reports built from it;
//! * [`trace`] — spans, self time, Chrome trace-event JSON;
//! * [`stats`] — medians, quartiles, percentiles, bound comparison;
//! * [`env`] — the environment fingerprint.

pub mod env;
pub mod harness;
pub mod layers;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
