//! The pool really runs a job's chunks at the same time: at four active
//! threads, a four-chunk job whose chunks each wait until all four have
//! started completes with every chunk having seen the other three. A pool
//! that ran the job on one thread leaves its first chunk waiting for chunks
//! that cannot start; the shared deadline turns that into a failure, not a
//! hang.
//!
//! This is a test binary of its own, with one test: a submitter that finds
//! another job in flight runs its job inline (`try_lock`, never a blocking
//! wait), so beside the shim's unit tests, whose jobs share the one global
//! pool, the job here could run inline and fail for that reason alone.

use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const CHUNKS: usize = 4;

/// Time every chunk has to see all `CHUNKS` in flight. Waking three idle
/// workers takes microseconds; a serialized pool never gets there.
const DEADLINE: Duration = Duration::from_secs(5);

#[test]
fn four_chunks_are_in_flight_at_once_at_four_threads() {
    rayon::set_active_threads(CHUNKS);
    let started = AtomicUsize::new(0);
    let t0 = Instant::now();
    // `with_max_len(1)`: each index is its own executor chunk.
    let seen: Vec<usize> = (0..CHUNKS)
        .into_par_iter()
        .with_max_len(1)
        .map(|_| {
            started.fetch_add(1, Ordering::AcqRel);
            while started.load(Ordering::Acquire) < CHUNKS && t0.elapsed() < DEADLINE {
                std::thread::sleep(Duration::from_millis(1));
            }
            started.load(Ordering::Acquire)
        })
        .collect();
    rayon::set_active_threads(0);
    assert_eq!(
        seen,
        [CHUNKS; CHUNKS],
        "chunks in flight when each gave up waiting, after {:?}",
        t0.elapsed()
    );
}
