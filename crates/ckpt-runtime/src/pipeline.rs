//! Double-buffered checkpoint submission: overlap checkpoint *i*'s
//! serialize → D2H → runtime-submit tail with checkpoint *i+1*'s hashing.
//!
//! The de-duplication front half of a checkpoint (leaf hashing, the
//! consolidation waves) must run on the device before anything can be
//! emitted, but the tail — encoding the diff to wire format and staging it
//! into the runtime's host tier — only needs the finished diff. This
//! pipeline moves that tail onto a dedicated thread behind a **depth-1
//! bounded channel**, which is exactly a double buffer:
//!
//! * slot A: the tail the worker is currently encoding/submitting;
//! * slot B: the one finished diff the producer may park in the channel.
//!
//! A producer that finishes a third diff while both slots are occupied
//! blocks in [`submit_with`](CheckpointPipeline::submit_with) — that wait is
//! recorded as the `pipeline/enqueue_wait` span, so telemetry distinguishes
//! "overlap achieved" (near-zero wait, `pipeline/inflight` reaching 2) from
//! "tail-bound" (producer stalls on the handoff).
//!
//! # Handoff contract
//!
//! The `produce` closure passed to `submit_with` owns everything the tail
//! needs — typically the diff plus any device-arena leases backing it. The
//! worker runs the closure exactly once (encode + D2H) and submits the bytes
//! to the [`AsyncRuntime`]; the closure's captures are dropped when it
//! returns, so arena leases flow back to the pool from the worker thread.
//! If the pipeline is torn down with jobs still queued, the unrun closures
//! are *dropped* (their captures released, their submissions counted in
//! `aborted`) — a closure is never run twice and never leaks its lease, even
//! when a [`kill`](AsyncRuntime::kill) lands mid-overlap.

use crate::runtime::AsyncRuntime;
use crossbeam::channel::{bounded, Receiver, SyncSender};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Deferred tail work: encodes the checkpoint to wire bytes. Owns the diff
/// and any arena leases; both are released when the closure is consumed (run
/// or dropped).
pub type ProduceFn = Box<dyn FnOnce() -> Vec<u8> + Send>;

struct Job {
    rank: u32,
    ckpt_id: u32,
    produce: ProduceFn,
}

/// Final accounting returned by [`CheckpointPipeline::close`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineStats {
    /// Checkpoints accepted by the runtime's host tier.
    pub submitted: u64,
    /// Checkpoints whose tail ran but whose submit was refused (runtime
    /// killed or host tier full), plus jobs dropped unrun at teardown.
    pub aborted: u64,
    /// High-water mark of checkpoints handed to the pipeline but not yet
    /// submitted. Reaching 2 is the proof of overlap: one tail executing
    /// while the next diff was already handed off. The count includes a
    /// producer blocked in the handoff, so it is bounded by 3 (worker slot +
    /// channel slot + one blocked submitter), never more.
    pub max_inflight: u64,
}

struct Shared {
    submitted: AtomicU64,
    aborted: AtomicU64,
    inflight: AtomicU64,
    max_inflight: AtomicU64,
}

/// The double-buffered submission tail over an [`AsyncRuntime`]. See the
/// module docs for the handoff contract.
pub struct CheckpointPipeline {
    rt: Arc<AsyncRuntime>,
    tx: Option<SyncSender<Job>>,
    worker: Option<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl CheckpointPipeline {
    pub fn new(rt: Arc<AsyncRuntime>) -> Self {
        // Depth 1 = the second buffer of the double buffer; the first is the
        // job the worker holds while running its tail.
        let (tx, rx): (SyncSender<Job>, Receiver<Job>) = bounded(1);
        let shared = Arc::new(Shared {
            submitted: AtomicU64::new(0),
            aborted: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            max_inflight: AtomicU64::new(0),
        });
        let worker = {
            let rt = Arc::clone(&rt);
            let shared = Arc::clone(&shared);
            #[expect(
                clippy::disallowed_methods,
                reason = "the pipeline's submit tail, one of the runtime's two threads"
            )]
            std::thread::spawn(move || worker_loop(rx, rt, shared))
        };
        CheckpointPipeline {
            rt,
            tx: Some(tx),
            worker: Some(worker),
            shared,
        }
    }

    /// Hand checkpoint (`rank`, `ckpt_id`) to the pipeline. Returns as soon
    /// as a buffer slot is free — immediately in steady overlap, blocking
    /// only when the producer is two whole checkpoints ahead of the tail.
    pub fn submit_with(&self, rank: u32, ckpt_id: u32, produce: ProduceFn) {
        let registry = Arc::clone(self.rt.telemetry());
        let depth = self.shared.inflight.fetch_add(1, Ordering::Relaxed) + 1;
        self.shared.max_inflight.fetch_max(depth, Ordering::Relaxed);
        registry.gauge("pipeline/inflight").set(depth as i64);
        let send_result = {
            let _wait = registry.span("pipeline/enqueue_wait");
            self.tx.as_ref().expect("pipeline closed").send(Job {
                rank,
                ckpt_id,
                produce,
            })
        };
        if send_result.is_err() {
            // Worker gone (panic); drop the unrun closure — captures (diff,
            // leases) are released right here on the producer thread.
            self.shared.inflight.fetch_sub(1, Ordering::Relaxed);
            self.shared.aborted.fetch_add(1, Ordering::Relaxed);
            registry.counter("pipeline/aborted").inc();
        }
    }

    /// Current in-flight depth (0, 1, or 2); test/telemetry helper.
    pub fn inflight(&self) -> u64 {
        self.shared.inflight.load(Ordering::Relaxed)
    }

    /// Drain remaining jobs, stop the worker, and report. Does **not**
    /// shut down the underlying runtime.
    pub fn close(mut self) -> PipelineStats {
        self.close_inner()
    }

    fn close_inner(&mut self) -> PipelineStats {
        drop(self.tx.take());
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
        self.rt.telemetry().gauge("pipeline/inflight").set(0);
        PipelineStats {
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            aborted: self.shared.aborted.load(Ordering::Relaxed),
            max_inflight: self.shared.max_inflight.load(Ordering::Relaxed),
        }
    }
}

impl Drop for CheckpointPipeline {
    fn drop(&mut self) {
        if self.tx.is_some() || self.worker.is_some() {
            self.close_inner();
        }
    }
}

fn worker_loop(rx: Receiver<Job>, rt: Arc<AsyncRuntime>, shared: Arc<Shared>) {
    let registry = Arc::clone(rt.telemetry());
    while let Ok(job) = rx.recv() {
        let accepted = {
            let _tail = registry.span("pipeline/tail");
            let bytes = (job.produce)();
            rt.submit(job.rank, job.ckpt_id, bytes).is_ok()
        };
        if accepted {
            shared.submitted.fetch_add(1, Ordering::Relaxed);
            registry.counter("pipeline/submitted").inc();
        } else {
            shared.aborted.fetch_add(1, Ordering::Relaxed);
            registry.counter("pipeline/aborted").inc();
        }
        let depth = shared.inflight.fetch_sub(1, Ordering::Relaxed) - 1;
        registry.gauge("pipeline/inflight").set(depth as i64);
    }
    // Channel disconnected: nothing queued remains (recv drained it), so
    // every accepted job was consumed exactly once.
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    fn payload(tag: u8) -> Vec<u8> {
        vec![tag; 256]
    }

    #[test]
    fn submits_in_order_and_counts() {
        let rt = Arc::new(AsyncRuntime::new());
        let pipe = CheckpointPipeline::new(Arc::clone(&rt));
        for id in 0..4u32 {
            pipe.submit_with(0, id, Box::new(move || payload(id as u8)));
        }
        let stats = pipe.close();
        assert_eq!(stats.submitted, 4);
        assert_eq!(stats.aborted, 0);
        let ids: Vec<_> = (0..4).map(|i| (0, i)).collect();
        rt.wait_durable(&ids);
        assert!(rt.undrainable().is_empty());
        Arc::try_unwrap(rt).ok().unwrap().shutdown();
    }

    #[test]
    fn overlap_reaches_depth_two() {
        let rt = Arc::new(AsyncRuntime::new());
        let pipe = CheckpointPipeline::new(Arc::clone(&rt));
        // Slow tails force the producer ahead: while the worker encodes
        // checkpoint i, checkpoint i+1 parks in the channel slot.
        for id in 0..3u32 {
            pipe.submit_with(
                0,
                id,
                Box::new(move || {
                    std::thread::sleep(Duration::from_millis(20));
                    payload(id as u8)
                }),
            );
        }
        let stats = pipe.close();
        assert_eq!(stats.submitted, 3);
        assert!(
            stats.max_inflight >= 2,
            "depth-1 channel + worker slot must pipeline two checkpoints, saw {}",
            stats.max_inflight
        );
        assert!(
            stats.max_inflight <= 3,
            "double buffer + one blocked producer bounds in-flight at 3, saw {}",
            stats.max_inflight
        );
        Arc::try_unwrap(rt).ok().unwrap().shutdown();
    }

    #[test]
    fn unrun_closures_release_captures_on_teardown() {
        // A produce closure's captures must drop even if the closure never
        // runs (worker torn down first). Model the arena lease with a flag
        // set by a Drop guard.
        struct Guard(Arc<AtomicBool>);
        impl Drop for Guard {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let released = Arc::new(AtomicBool::new(false));
        let guard = Guard(Arc::clone(&released));
        let produce: ProduceFn = Box::new(move || {
            let _g = guard;
            payload(0)
        });
        drop(produce);
        assert!(released.load(Ordering::SeqCst));
    }

    #[test]
    fn kill_mid_overlap_counts_aborts_not_hangs() {
        let rt = Arc::new(AsyncRuntime::new());
        rt.kill();
        let pipe = CheckpointPipeline::new(Arc::clone(&rt));
        for id in 0..3u32 {
            pipe.submit_with(0, id, Box::new(move || payload(id as u8)));
        }
        let stats = pipe.close();
        // Post-kill the host tier still accepts writes but the flusher is
        // gone; submits succeed or abort deterministically — either way the
        // pipeline drains and every job is accounted exactly once.
        assert_eq!(stats.submitted + stats.aborted, 3);
    }
}
