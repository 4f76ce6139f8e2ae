//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (§3), plus the ablations listed in `DESIGN.md`.
//!
//! * [`workload`] — ORANGES GDV snapshot sequences over the Table 1 graphs;
//! * [`codecs`] — compressor baselines and the common measurement currency;
//! * [`experiments`] — one driver per table/figure/ablation, each result
//!   listing its fields once and, where it has invariants, its gate; the
//!   Fig. 6 strong-scaling harness lives beside its figure there;
//! * [`md5`], [`sha256`] — the cryptographic hashes ablation A1 compares
//!   against the production Murmur3;
//! * [`oracle`] — the test oracles the production crates' tests reach as a
//!   dev-dependency (the sequential replay is also a sweep's baseline);
//! * [`report`] — the report model, its one table and one JSON renderer.
//!
//! Run `cargo run -p ckpt-bench --release --bin figures -- all` to regenerate
//! everything; see `EXPERIMENTS.md` at the repository root for the recorded
//! paper-vs-measured comparison.

pub mod codecs;
pub mod experiments;
pub mod md5;
pub mod oracle;
pub mod report;
pub mod sha256;
pub mod workload;
