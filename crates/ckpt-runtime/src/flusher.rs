//! The background flusher: one thread draining staged checkpoints down the
//! tier chain, host → SSD → PFS (Fig. 3), evicting from the upper tier once
//! the object is safe one level down.
//!
//! [`Flusher::flush`] is the stage list, top to bottom: poll rank loss →
//! read the staged copy → compress → redundancy-encode → hop host → SSD
//! (degrading to host → PFS when the SSD refuses the object) → hop
//! SSD → PFS. Every hop is the same [`Flusher::hop`]; every tier write
//! and read goes through the one bounded retry in [`crate::tier`].

use crate::chain::TierChain;
use crate::compress::CompressionEngine;
use crate::tier::{ObjectId, ObjectState, StoredObject, Tier};
use ckpt_telemetry::{Counter, Gauge, Histogram, LazyCounter, Registry};
use crossbeam::channel::Receiver;
use parking_lot::{Condvar, Mutex};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub(crate) enum Job {
    Flush(ObjectId),
    Shutdown,
}

/// Pre-resolved telemetry handles for the runtime's hot paths, shared
/// between producers and the flusher thread so neither ever touches the
/// registry lock after construction.
///
/// The names, kinds and meanings are the "Runtime" table of DESIGN.md §7;
/// the lazy ones register on their first event, so fault-free runs export
/// exactly the eager schema.
pub(crate) struct RuntimeMetrics {
    pub registry: Arc<Registry>,
    submitted: Arc<Counter>,
    durable: Arc<Counter>,
    producer_stalls: Arc<Counter>,
    producer_stall_ns: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    durable_lag: Arc<Gauge>,
    host_used_bytes: Arc<Gauge>,
    host_object_bytes: Arc<Histogram>,
    host_evictions: Arc<Counter>,
    ssd_evictions: Arc<Counter>,
    into_ssd: Landing,
    into_pfs: Landing,
    pub retries: LazyCounter,
    degraded_flushes: LazyCounter,
}

/// What a hop records about the tier it lands in: `tier/<t>/flush_ns` and
/// `tier/<t>/object_bytes`.
struct Landing {
    flush_ns: Arc<Histogram>,
    object_bytes: Arc<Histogram>,
}

impl RuntimeMetrics {
    fn new(registry: Arc<Registry>) -> Self {
        let landing = |tier: &str| Landing {
            flush_ns: registry.histogram(&format!("tier/{tier}/flush_ns")),
            object_bytes: registry.histogram(&format!("tier/{tier}/object_bytes")),
        };
        RuntimeMetrics {
            submitted: registry.counter("runtime/submitted"),
            durable: registry.counter("runtime/durable"),
            producer_stalls: registry.counter("runtime/producer_stalls"),
            producer_stall_ns: registry.counter("runtime/producer_stall_ns"),
            queue_depth: registry.gauge("runtime/queue_depth"),
            durable_lag: registry.gauge("runtime/durable_lag"),
            host_used_bytes: registry.gauge("tier/host/used_bytes"),
            host_object_bytes: registry.histogram("tier/host/object_bytes"),
            host_evictions: registry.counter("tier/host/evictions"),
            ssd_evictions: registry.counter("tier/ssd/evictions"),
            into_ssd: landing("ssd"),
            into_pfs: landing("pfs"),
            retries: LazyCounter::new(Some(&registry), "runtime/retries"),
            degraded_flushes: LazyCounter::new(Some(&registry), "runtime/degraded_flushes"),
            registry,
        }
    }

    /// Book-keeping for one accepted submission of `len` bytes; `stalled`
    /// is how long the producer waited on a full host tier, if it did.
    pub fn on_submitted(&self, len: usize, host_used: u64, stalled: Option<Duration>) {
        self.submitted.inc();
        self.durable_lag.add(1);
        self.queue_depth.add(1);
        self.host_object_bytes.record(len as u64);
        self.host_used_bytes.set(host_used as i64);
        if let Some(waited) = stalled {
            self.producer_stalls.inc();
            self.producer_stall_ns
                .add(waited.as_nanos().min(u64::MAX as u128) as u64);
        }
    }
}

/// The one signal every runtime wait sleeps on: a generation the flusher
/// bumps after each event a waiter may be waiting for — a landed hop (the
/// object is one tier down, the source evicted), an object marked
/// undrainable, its own exit — and that `kill` bumps once more. A waiter
/// reads the generation, tests its predicate, and sleeps until the
/// generation moves: a bump between the test and the sleep is seen, not
/// lost.
#[derive(Default)]
pub(crate) struct Progress {
    generation: Mutex<u64>,
    moved: Condvar,
}

impl Progress {
    pub fn generation(&self) -> u64 {
        *self.generation.lock()
    }

    pub fn bump(&self) {
        *self.generation.lock() += 1;
        self.moved.notify_all();
    }

    /// Sleep until the generation is no longer `seen`.
    pub fn wait_past(&self, seen: u64) {
        let mut generation = self.generation.lock();
        while *generation == seen {
            self.moved.wait(&mut generation);
        }
    }
}

/// What the producers (through [`AsyncRuntime`](crate::AsyncRuntime)) and
/// the flusher thread share.
pub(crate) struct Shared {
    pub tiers: TierChain,
    pub m: RuntimeMetrics,
    /// Set by a simulated crash: the flusher stops draining.
    pub killed: AtomicBool,
    pub progress: Progress,
    /// Objects the flusher has given up on (never durable without outside
    /// help); lets `wait_durable` terminate instead of waiting forever.
    pub undrainable: Mutex<HashSet<ObjectId>>,
}

impl Shared {
    pub fn new(tiers: TierChain, registry: Arc<Registry>) -> Self {
        Shared {
            tiers,
            m: RuntimeMetrics::new(registry),
            killed: AtomicBool::new(false),
            progress: Progress::default(),
            undrainable: Mutex::new(HashSet::new()),
        }
    }
}

/// One edge of the drain. Host → PFS is the degraded edge, taken only when
/// the SSD refuses an object.
#[derive(Clone, Copy)]
enum Edge {
    HostToSsd,
    HostToPfs,
    SsdToPfs,
}

/// A source copy could not be read and no deeper tier holds the object: the
/// flusher has marked it undrainable.
struct Stranded;

/// The flusher thread's working set.
pub(crate) struct Flusher {
    pub shared: Arc<Shared>,
    /// Post-dedup compression stage: raw staged payloads are encoded here,
    /// on the shared pool, before their first hop off the host tier — off
    /// the producer's critical path.
    pub engine: CompressionEngine,
    /// Real seconds slept per modeled second of tier bandwidth (0 = never).
    pub time_scale: f64,
}

impl Flusher {
    fn throttle(&self, bytes: u64, bw: f64) {
        if self.time_scale > 0.0 {
            let sec = bytes as f64 / bw * self.time_scale;
            #[expect(
                clippy::disallowed_methods,
                reason = "the bandwidth throttle models a tier's transfer time"
            )]
            std::thread::sleep(Duration::from_secs_f64(sec));
        }
    }

    fn mark_undrainable(&self, id: ObjectId) {
        self.shared.undrainable.lock().insert(id);
        self.shared.progress.bump();
    }

    /// Read `id` from `src` (without decoding) for its next hop, counting
    /// retries. `Ok(None)`: nothing to move from here. A copy that cannot be
    /// read — corrupt (quarantined: it can never drain) or erroring past the
    /// retry budget — strands the object unless one of the `deeper` tiers
    /// already holds it.
    fn read(
        &self,
        src: &Tier,
        deeper: &[&Tier],
        id: ObjectId,
    ) -> Result<Option<StoredObject>, Stranded> {
        match src.inspect_object_with_retry(id, || self.shared.m.retries.inc()) {
            ObjectState::Valid(object) => return Ok(Some(object)),
            ObjectState::Missing => return Ok(None),
            ObjectState::Corrupt(_) => {
                self.shared.tiers.integrity().on_corrupt();
                src.quarantine(id);
            }
            ObjectState::TransientIo => {}
        }
        if deeper.iter().any(|tier| tier.contains(id)) {
            return Ok(None);
        }
        self.mark_undrainable(id);
        Err(Stranded)
    }

    /// Move `object` along one edge: store with retry, throttle on the wire
    /// length (what actually crosses the link), record `flush_ns` and
    /// `object_bytes` on the raw length (so size distributions stay
    /// comparable across compression policies), mark durable when the
    /// target is the PFS, evict the source, then bump the progress signal.
    /// Hands the object back, encoded exactly as handed in, when the target
    /// refuses it.
    fn hop(&self, edge: Edge, id: ObjectId, object: StoredObject) -> Result<(), StoredObject> {
        let (t, m) = (&self.shared.tiers, &self.shared.m);
        let (src, evictions) = match edge {
            Edge::HostToSsd | Edge::HostToPfs => (&t.host, &m.host_evictions),
            Edge::SsdToPfs => (&t.ssd, &m.ssd_evictions),
        };
        let (dst, landing) = match edge {
            Edge::HostToSsd => (&t.ssd, &m.into_ssd),
            Edge::HostToPfs | Edge::SsdToPfs => (&t.pfs, &m.into_pfs),
        };
        let (raw_len, wire_len) = (object.uncompressed_len(), object.stored_len());
        #[expect(
            clippy::disallowed_methods,
            reason = "times a drain hop into `tier/<t>/flush_ns`"
        )]
        let started = Instant::now();
        dst.store_object_with_retry(id, object, || m.retries.inc())
            .map_err(|refused| refused.object)?;
        self.throttle(wire_len, dst.config().bandwidth_bps);
        landing.flush_ns.record_duration(started.elapsed());
        landing.object_bytes.record(raw_len);
        if matches!(edge, Edge::HostToPfs | Edge::SsdToPfs) {
            m.durable.inc();
            m.durable_lag.sub(1);
        }
        if src.evict(id) {
            evictions.inc();
        }
        if matches!(edge, Edge::HostToSsd | Edge::HostToPfs) {
            m.host_used_bytes.set(t.host.used_bytes() as i64);
        }
        self.shared.progress.bump();
        Ok(())
    }

    /// Drain one object down the chain. Compression happens exactly once,
    /// on the way off the host tier; from then on the encoded object moves
    /// verbatim (the SSD → PFS hop and the degraded edge never transcode).
    fn flush(&self, id: ObjectId) {
        let t = &self.shared.tiers;
        // Apply any rank loss queued by the fault hook before touching the
        // tiers; in-flight objects the wipe took (and that never reached
        // the PFS) can only come back via their redundancy group at
        // recovery, so `wait_durable` must not spin on them.
        for wiped in t.poll_rank_loss() {
            if !t.pfs.contains(wiped) {
                self.mark_undrainable(wiped);
            }
        }
        let Ok(staged) = self.read(&t.host, &[&t.ssd, &t.pfs], id) else {
            return;
        };
        if let Some(staged) = staged {
            // Host staging holds raw objects; anything already encoded (a
            // re-flush of a repaired copy) passes through untouched — as
            // does a raw object the policy stores as it is, which keeps
            // the host frame it carries all the way down.
            let object = if staged.is_compressed() {
                staged
            } else {
                self.engine.encode(staged)
            };
            // Redundancy-encode the framed (post-compression) object across
            // its parity group, overlapped with the drain — idempotent, so
            // a degraded re-flush never double-XORs.
            if let Some(group) = t.redundancy() {
                group.encode_member(id, &object);
            }
            if let Err(object) = self.hop(Edge::HostToSsd, id, object) {
                // The SSD refused the object after retry exhaustion (full
                // or persistently erroring): degrade past it.
                self.shared.m.degraded_flushes.inc();
                if self.hop(Edge::HostToPfs, id, object).is_err() {
                    self.mark_undrainable(id);
                }
                return;
            }
        }
        if self.shared.killed.load(Ordering::Relaxed) {
            return;
        }
        if let Ok(Some(object)) = self.read(&t.ssd, &[&t.pfs], id) {
            if self.hop(Edge::SsdToPfs, id, object).is_err() {
                self.mark_undrainable(id);
            }
        }
    }

    pub fn run(&self, rx: Receiver<Job>) {
        for job in rx.iter() {
            match job {
                Job::Shutdown => break,
                Job::Flush(id) => {
                    self.shared.m.queue_depth.sub(1);
                    if self.shared.killed.load(Ordering::Relaxed) {
                        // Simulated node failure: stop draining.
                        break;
                    }
                    self.flush(id);
                }
            }
        }
        // Nothing moves after this: let every waiter re-test.
        self.shared.progress.bump();
    }
}
