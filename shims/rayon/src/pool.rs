//! The persistent work-stealing executor behind every parallel terminal.
//!
//! One global pool is lazily initialized on first use and reused for the
//! life of the process — no per-launch thread spawns. A parallel terminal
//! becomes a *job*: its index space is split into chunks whose boundaries
//! depend only on the item count (never on the thread count — see
//! [`plan`]), the chunks are dealt contiguously into per-participant
//! deques, and participants pop their own deque front-first then steal
//! half a victim's deque from the back in one lock acquisition (chunked
//! stealing). The submitting thread is always participant 0, so a job
//! completes even if every worker stays asleep.
//!
//! Sizing: `RAYON_NUM_THREADS` overrides; otherwise the full
//! `available_parallelism` is used. [`set_active_threads`] further caps (or
//! raises, for oversubscription experiments) how many participants a job
//! uses — the scaling benchmark sweeps it — without touching pool state:
//! workers beyond the active count simply sleep through the job.
//!
//! Liveness rules, chosen so the pool can never deadlock the process:
//! * one job at a time; a submitter that finds the pool busy runs its job
//!   inline on the calling thread (`try_lock`, never a blocking wait);
//! * a terminal launched from inside another terminal's body runs inline
//!   (thread-local re-entrancy flag);
//! * a panicking chunk poisons the job — remaining chunks are drained
//!   without executing — and the payload re-raises on the submitting
//!   thread once every chunk is accounted for.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// Hard cap on pool threads (sanity bound for oversubscription requests).
pub const MAX_POOL_THREADS: usize = 256;

/// Upper bound on chunks per job: enough slack for stealing to balance
/// skewed workloads, small enough that queue traffic stays negligible.
/// A producer's `max_items_per_chunk` overrides it.
const MAX_CHUNKS_PER_JOB: usize = 1024;

thread_local! {
    /// Set while this thread executes inside a parallel section (worker
    /// threads permanently; submitters for the duration of their job).
    static IN_PARALLEL: Cell<bool> = const { Cell::new(false) };
}

/// Lock ignoring poisoning: pool invariants hold regardless of panics in
/// user chunks (those are caught), so a poisoned mutex carries no hazard.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// How a terminal's index space maps onto executor chunks.
///
/// A pure function of the producer's length and its min/max items per
/// chunk: chunk boundaries must not depend on the thread count, so
/// order-sensitive combines (e.g. `reduce` partials) yield bit-identical
/// results at any parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ChunkPlan {
    pub chunk_size: usize,
    pub n_chunks: usize,
}

pub(crate) fn plan<P: crate::Producer>(p: &P) -> ChunkPlan {
    let n_items = p.len();
    if n_items == 0 {
        return ChunkPlan {
            chunk_size: 1,
            n_chunks: 0,
        };
    }
    let chunk_size = p
        .min_items_per_chunk()
        .max(1)
        .max(n_items.div_ceil(MAX_CHUNKS_PER_JOB))
        .min(p.max_items_per_chunk());
    ChunkPlan {
        chunk_size,
        n_chunks: n_items.div_ceil(chunk_size),
    }
}

/// One parallel terminal in flight.
struct Job {
    /// Runs one chunk by index. The reference's lifetime is erased: the
    /// submitting thread blocks until `pending` hits zero before the
    /// underlying closure can go out of scope, and no participant starts a
    /// chunk after that point (queues are empty once pending is zero).
    run: &'static (dyn Fn(usize) + Sync),
    /// Per-participant chunk deques; participant 0 is the submitter.
    queues: Box<[Mutex<VecDeque<usize>>]>,
    /// Chunks not yet finished (executed or drained-after-poison).
    pending: AtomicUsize,
    /// Set by the first panicking chunk; later chunks drain without running.
    poisoned: AtomicBool,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    done: Mutex<()>,
    done_cv: Condvar,
}

// SAFETY: `run` points at a `Sync` closure that outlives the job (see the
// field comment); every other field is already thread-safe.
unsafe impl Send for Job {}
// SAFETY: as for `Send`: participants share `run` only by `&`, which a
// `Sync` closure allows, and every other field synchronizes itself.
unsafe impl Sync for Job {}

impl Job {
    fn new(run: &(dyn Fn(usize) + Sync), participants: usize, n_chunks: usize) -> Self {
        // SAFETY: lifetime erasure justified on the `run` field.
        let run: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(run) };
        let per = n_chunks.div_ceil(participants);
        let queues = (0..participants)
            .map(|p| {
                let lo = (p * per).min(n_chunks);
                let hi = ((p + 1) * per).min(n_chunks);
                Mutex::new((lo..hi).collect::<VecDeque<usize>>())
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Job {
            run,
            queues,
            pending: AtomicUsize::new(n_chunks),
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
            done: Mutex::new(()),
            done_cv: Condvar::new(),
        }
    }
}

struct PoolState {
    /// Bumped per published job so sleeping workers can tell old from new.
    epoch: u64,
    /// The in-flight job and its participant count, if any.
    job: Option<(Arc<Job>, usize)>,
    /// Worker threads spawned so far (they live forever).
    spawned: usize,
}

struct Pool {
    state: Mutex<PoolState>,
    work_cv: Condvar,
    /// Held by the submitting thread for the whole job. `try_lock` only —
    /// a busy pool means the submitter runs inline, never blocks.
    submit: Mutex<()>,
}

static POOL: OnceLock<Pool> = OnceLock::new();
static SPAWNED_EVER: AtomicUsize = AtomicUsize::new(0);
/// 0 = no override (use the configured size).
static ACTIVE_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            epoch: 0,
            job: None,
            spawned: 0,
        }),
        work_cv: Condvar::new(),
        submit: Mutex::new(()),
    })
}

/// Pool size from the environment: `RAYON_NUM_THREADS` if set and positive,
/// else the machine's full `available_parallelism` (no artificial cap).
fn configured_threads() -> usize {
    static CONF: OnceLock<usize> = OnceLock::new();
    *CONF.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
            .clamp(1, MAX_POOL_THREADS)
    })
}

/// Threads the next job may use (override if set, else configured size).
pub fn current_num_threads() -> usize {
    match ACTIVE_OVERRIDE.load(Ordering::Relaxed) {
        0 => configured_threads(),
        n => n.min(MAX_POOL_THREADS),
    }
}

/// Cap (or raise, for oversubscription sweeps) the participants of future
/// jobs. `0` clears the override. Results are bit-identical at any setting
/// by construction; only wall time changes.
pub fn set_active_threads(n: usize) {
    ACTIVE_OVERRIDE.store(n.min(MAX_POOL_THREADS), Ordering::Relaxed);
}

/// Worker threads spawned since process start. Stable across jobs once the
/// pool is warm — the no-respawn property the executor tests assert.
pub fn pool_spawned_threads() -> usize {
    SPAWNED_EVER.load(Ordering::Relaxed)
}

/// Execute `run(c)` for every `c in 0..n_chunks` on the pool, blocking
/// until all chunks complete. Chunks may run on any participant in any
/// order; callers needing determinism index their outputs by chunk.
pub(crate) fn run_chunks(n_chunks: usize, run: &(dyn Fn(usize) + Sync)) {
    let inline = || (0..n_chunks).for_each(run);
    let threads = current_num_threads();
    // Nothing to share out, or a terminal launched from inside another
    // terminal's body: run on the calling thread.
    if n_chunks <= 1 || threads <= 1 || IN_PARALLEL.with(|f| f.get()) {
        return inline();
    }
    let pool = pool();
    let Ok(submit) = pool.submit.try_lock() else {
        // Another thread's job is in flight; inline is always correct.
        return inline();
    };

    let participants = threads.min(n_chunks);
    let job = Arc::new(Job::new(run, participants, n_chunks));
    {
        let mut st = lock(&pool.state);
        while st.spawned + 1 < participants {
            spawn_worker(st.spawned);
            st.spawned += 1;
        }
        st.epoch += 1;
        st.job = Some((Arc::clone(&job), participants));
        pool.work_cv.notify_all();
    }

    IN_PARALLEL.with(|f| f.set(true));
    participate(&job, 0);
    IN_PARALLEL.with(|f| f.set(false));

    // The submitter ran dry; wait for workers to finish their chunks.
    {
        let mut g = lock(&job.done);
        while job.pending.load(Ordering::Acquire) != 0 {
            g = job.done_cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }
    lock(&pool.state).job = None;
    let payload = lock(&job.panic).take();
    drop(submit);
    if let Some(p) = payload {
        resume_unwind(p);
    }
}

fn spawn_worker(index: usize) {
    SPAWNED_EVER.fetch_add(1, Ordering::Relaxed);
    std::thread::Builder::new()
        .name(format!("rayon-shim-worker-{index}"))
        .spawn(move || worker_main(index))
        .expect("failed to spawn pool worker");
}

fn worker_main(index: usize) {
    // Terminals launched from inside a chunk body run inline.
    IN_PARALLEL.with(|f| f.set(true));
    let pool = pool();
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = lock(&pool.state);
            loop {
                if st.epoch != seen_epoch {
                    seen_epoch = st.epoch;
                    if let Some((job, participants)) = st.job.clone() {
                        if index + 1 < participants {
                            break job;
                        }
                        // Not a participant of this job; sleep through it.
                    }
                }
                st = pool.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        participate(&job, index + 1);
    }
}

/// Work loop of one participant: drain own deque, then steal.
fn participate(job: &Job, me: usize) {
    while let Some(c) = take_chunk(job, me) {
        if !job.poisoned.load(Ordering::Relaxed) {
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| (job.run)(c))) {
                let mut slot = lock(&job.panic);
                if slot.is_none() {
                    *slot = Some(p);
                }
                job.poisoned.store(true, Ordering::Relaxed);
            }
        }
        if job.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _g = lock(&job.done);
            job.done_cv.notify_all();
        }
    }
}

fn take_chunk(job: &Job, me: usize) -> Option<usize> {
    if let Some(c) = lock(&job.queues[me]).pop_front() {
        return Some(c);
    }
    let n = job.queues.len();
    for k in 1..n {
        let victim = (me + k) % n;
        let mut vq = lock(&job.queues[victim]);
        let len = vq.len();
        if len == 0 {
            continue;
        }
        // Chunked steal: take the back half in one lock acquisition so a
        // thief services several chunks per contention event.
        let stolen: Vec<usize> = vq.drain(len - len.div_ceil(2)..).collect();
        drop(vq);
        let mut mine = lock(&job.queues[me]);
        mine.extend(stolen[1..].iter().copied());
        return Some(stolen[0]);
    }
    None
}
