//! Allocation census: a record's bytes are allocated once per tier
//! crossing and never copied on the way to the restore engine.
//!
//! A counting `#[global_allocator]` (its own test binary, so nothing else
//! allocates under it) adds up every byte requested while a window is
//! open, and tracks the bytes live at once and their high-water mark.
//! Every window lives in one `#[test]`: the counts are process-wide.

// A test drives codecs directly; the rules of `clippy.toml` hold
// production code.
#![allow(clippy::disallowed_methods)]

use ckpt_compress::blocks::{compress_blocks, decompress_blocks, DEFAULT_BLOCK_SIZE};
use ckpt_compress::lz::{find_sequences, MatchConfig, Seq};
use ckpt_compress::Lz4Like;
use ckpt_dedup::frame::{RankDedupEntry, RecordIndex};
use ckpt_dedup::prelude::*;
use ckpt_dedup::Bytes;
use ckpt_runtime::compress::SAMPLE_LEN;
use ckpt_runtime::{
    resolve_record, restore_rank_latest_parallel, AsyncRuntime, CompressMetrics, CompressionEngine,
    CompressionPolicy, RankDedupConfig, RankDedupEngine, RankDedupMetrics, TierChain,
};
use gpu_sim::Device;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static REQUESTED: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// `bytes` more are live: raise the high-water mark to meet them.
fn grow(bytes: u64) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded to `System` unchanged; the counters are
// relaxed statistics that no allocation depends on.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        grow(layout.size() as u64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Growth requests the new block whole (it may move).
        REQUESTED.fetch_add(new_size as u64, Ordering::Relaxed);
        // Counted as a move: both blocks are live for a moment.
        grow(new_size as u64);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes requested from the allocator, by any thread, while `f` ran.
fn requested_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = REQUESTED.load(Ordering::Relaxed);
    let out = f();
    (out, REQUESTED.load(Ordering::Relaxed) - before)
}

/// The most bytes live at once while `f` ran, above those live when it
/// started.
fn peak_live_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed).saturating_sub(base))
}

/// What a window may request beyond what its bound names: channels, the
/// reader thread, run lists, telemetry — nothing that grows with a record.
const SLACK: u64 = 256 << 10;

/// Restore a 16-record Tree chain of `data_len`-byte snapshots in
/// `chunk`-byte chunks, whose records are almost all payload (each
/// checkpoint rewrites one contiguous 3/8 of the buffer, so the tables stay
/// a few entries long), on a warm device arena: it may request the restored
/// buffer, and per table entry its decoded form plus the visit's interval,
/// segment and run lists (a fixed multiple of the encoded entry) — and
/// nothing proportional to record payload bytes. The noise continues from
/// `noise`.
fn restore_window(data_len: usize, chunk: usize, noise: &mut u64) {
    const RECORDS: u32 = 16;
    let device = Device::a100();
    let tiers = TierChain::new();
    let mut ckpt = TreeCheckpointer::new(device.clone(), TreeConfig::new(chunk));
    let mut fill = |bytes: &mut [u8]| {
        for b in bytes {
            *noise ^= *noise << 13;
            *noise ^= *noise >> 7;
            *noise ^= *noise << 17;
            *b = *noise as u8;
        }
    };
    let mut data = vec![0u8; data_len];
    fill(&mut data);
    let (mut record_bytes, mut table_bytes) = (0u64, 0u64);
    for k in 0..RECORDS {
        let at = (k as usize * 37_813) % (data_len * 5 / 8);
        fill(&mut data[at..at + data_len * 3 / 8]);
        let diff = ckpt.checkpoint(&data).diff;
        record_bytes += diff.stored_bytes() as u64;
        table_bytes += diff.metadata_bytes() as u64;
        tiers.pfs.put((0, k), diff.encode()).unwrap();
    }
    assert!(
        record_bytes > 5 * data_len as u64 && table_bytes < record_bytes / 100,
        "the chain must be payload-heavy: {record_bytes} B of records, {table_bytes} B of tables"
    );
    // Warm the device arena, as a restarting process's second restore is.
    let warm = restore_rank_latest_parallel(&tiers, &device, 0, None).unwrap();
    assert_eq!(warm.data, data);
    drop(warm);
    let (restored, requested) =
        requested_during(|| restore_rank_latest_parallel(&tiers, &device, 0, None).unwrap());
    assert_eq!((restored.version, &restored.data), (RECORDS - 1, &data));
    let bound = data_len as u64 + 32 * table_bytes + SLACK;
    assert!(
        requested <= bound,
        "a restore of {record_bytes} B of records requested {requested} B (bound {bound} B)"
    );
    assert!(bound < record_bytes / 2, "the bound must exclude one copy");
}

#[test]
fn a_record_is_allocated_once_per_crossing_and_never_copied_to_the_engine() {
    // ---- restore: one output slice, then a chain four and a half slices
    // long, whose slices' scratch comes from the warm arena too ----
    let mut noise = 0x9e37_79b9_7f4a_7c15u64;
    restore_window(1 << 20, 128, &mut noise);
    let sliced = 9 * ckpt_dedup::restart::SLICE_CHUNKS / 2 * 64;
    restore_window(sliced, 64, &mut 0x2545_f491_4f6c_dd1d);

    // ---- container decode: four LZ4 blocks decode on the pool straight
    // into one output, with no block of their own and no concatenation ----
    let raw: Vec<u8> = (0..DEFAULT_BLOCK_SIZE as u32)
        .flat_map(|i| (i / 9).to_le_bytes())
        .collect();
    let container = compress_blocks(&Lz4Like::default(), &raw, DEFAULT_BLOCK_SIZE);
    assert!(
        container.len() < raw.len() / 4,
        "every block must be compressed"
    );
    let (decoded, requested) =
        requested_during(|| decompress_blocks(&Lz4Like::default(), &container, raw.len()));
    assert_eq!(decoded.unwrap(), raw);
    let bound = raw.len() as u64 + SLACK;
    assert!(
        requested <= bound,
        "decoding a 4-block container of {} B requested {requested} B (bound {bound} B)",
        raw.len()
    );

    // ---- drain: host → SSD → PFS of one raw object mints one frame ----
    const OBJECT_LEN: usize = 4 << 20;
    let rt = AsyncRuntime::new();
    let object: Vec<u8> = (0..OBJECT_LEN as u32).map(|i| (i >> 7) as u8).collect();
    let ((), requested) = requested_during(|| {
        rt.submit(3, 0, object).expect("host tier accepts");
        rt.wait_durable(&[(3, 0)]);
    });
    let pfs = rt.tiers().pfs.raw((3, 0)).expect("durable");
    assert_eq!(pfs.len(), OBJECT_LEN + ckpt_dedup::FRAME_HEADER_LEN);
    let bound = pfs.len() as u64 + SLACK;
    assert!(
        requested <= bound,
        "draining a {OBJECT_LEN} B object requested {requested} B (bound {bound} B: one frame)"
    );
    rt.shutdown();

    // ---- rank-dedup encode: a payload the index already holds becomes the
    // record alone — its table is sized from the grid and written in place,
    // not grown into or copied ----
    const CHUNKS: usize = 1 << 16;
    const CHUNK_LEN: usize = 64;
    let engine = RankDedupEngine::new(
        RankDedupConfig {
            ranks: 4,
            chunk_len: CHUNK_LEN,
        },
        RankDedupMetrics::detached(),
    );
    let payload: Vec<u8> = (0..CHUNKS as u32)
        .flat_map(|i| i.to_le_bytes().repeat(CHUNK_LEN / 4))
        .collect();
    engine.encode((0, 0), payload.clone());
    let (record, requested) = requested_during(|| engine.encode((1, 0), payload));
    let index = RecordIndex::parse(&record).unwrap();
    assert_eq!(
        (index.n_entries(), index.n_local()),
        (CHUNKS as u32, 0),
        "every chunk must be a reference"
    );
    let bound = record.len() as u64 + SLACK;
    assert!(
        requested <= bound,
        "encoding {CHUNKS} duplicate chunks requested {requested} B (bound {bound} B: the record)"
    );

    // ---- compression: an entry-table-like object (13-byte slots that
    // mostly count up, as a rank-dedup record's are) costs its outputs and
    // sequence lists — the LZ engine's hash-chain tables are the thread's,
    // not the call's. One participant, so the warm-up call and the counted
    // one meet the same thread's tables ----
    const SLOTS: usize = 26_400;
    let mut object = Vec::with_capacity(SLOTS * 13);
    let mut chunk = 0u32;
    for i in 0..SLOTS as u32 {
        noise ^= noise << 13;
        noise ^= noise >> 7;
        noise ^= noise << 17;
        if noise.is_multiple_of(41) {
            chunk = (noise >> 20) as u32 % 60_000;
        }
        object.push(1);
        object.extend_from_slice(&(noise as u32 >> 30).to_le_bytes());
        object.extend_from_slice(&(i / 6_600).to_le_bytes());
        object.extend_from_slice(&chunk.to_le_bytes());
        chunk += 1;
    }
    let compressor = CompressionEngine::new(
        CompressionPolicy::Adaptive,
        std::sync::Arc::new(CompressMetrics::detached()),
    );
    rayon::set_active_threads(1);
    let warm = compressor.encode(object.clone());
    assert_eq!(
        warm.codec(),
        1,
        "the table must go the way cluster_full's do"
    );
    let copy = object.clone();
    let (stored, requested) = requested_during(|| compressor.encode(copy));
    rayon::set_active_threads(0);
    assert_eq!(stored.payload(), warm.payload());
    // The LZ parses: the sampled Lz4Like trial — its score rules the
    // costlier ZstdLike out untried — then the container's blocks.
    let (lz4, sample) = (MatchConfig::lz4(), &object[..SAMPLE_LEN]);
    let mut parses = vec![(sample, lz4)];
    parses.extend(object.chunks(DEFAULT_BLOCK_SIZE).map(|b| (b, lz4)));
    // A list grown by doubling has asked for under twice its last capacity.
    let lists: usize = parses
        .iter()
        .map(|(d, cfg)| find_sequences(d, cfg).len().next_power_of_two())
        .map(|cap| 2 * cap * std::mem::size_of::<Seq>())
        .sum();
    // Outputs, literal streams and the Cascaded trial's lane and run
    // arrays (several times its sample): nothing per hash bucket, and no
    // room for the ZstdLike trial's output and literals besides.
    let outputs = 3 * object.len();
    let bound = (lists + outputs) as u64 + SLACK;
    assert!(
        requested <= bound,
        "compressing a {} B table requested {requested} B (bound {bound} B)",
        object.len()
    );
    // What the parses allocated when the tables were the call's: 8 B per
    // hash bucket and per input byte.
    let tables: usize = parses.iter().map(|(d, _)| 8 * ((1 << 16) + d.len())).sum();
    assert!(
        outputs as u64 + SLACK < tables as u64,
        "the bound must exclude the tables"
    );

    // ---- rank-dedup resolve: a record whose every cell is a reference
    // into one of eight records, each of those mostly references itself
    // (into a shared base) and read through a compressed tier, so each
    // read decompresses. A referenced record may be held as its local
    // bytes and a few bits per entry; the ones being indexed — one per
    // pool worker — may be held whole; the record being resolved is read
    // in place ----
    const BASE_CHUNKS: usize = 16_384;
    const OWN_CHUNKS: usize = 512;
    const TARGETS: u32 = 8;
    let engine = RankDedupEngine::new(
        RankDedupConfig {
            ranks: TARGETS + 2,
            chunk_len: CHUNK_LEN,
        },
        RankDedupMetrics::detached(),
    );
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut chunks = |n: usize| -> Vec<u8> {
        (0..n * CHUNK_LEN)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect()
    };
    let base = chunks(BASE_CHUNKS);
    let owns: Vec<Vec<u8>> = (0..TARGETS).map(|_| chunks(OWN_CHUNKS)).collect();
    let compressor = CompressionEngine::new(
        CompressionPolicy::parse("lz4").expect("a codec name"),
        std::sync::Arc::new(CompressMetrics::detached()),
    );
    let tiers = TierChain::new();
    engine.encode((0, 0), base.clone());
    let mut targets = Vec::new();
    for (rank, own) in (1..).zip(&owns) {
        let record = engine.encode((rank, 0), [&base[..], own].concat());
        let stored = compressor.encode(record.clone());
        assert_ne!(stored.codec(), 0, "each read must decompress");
        tiers.pfs.store_object((rank, 0), stored).unwrap();
        targets.push(record);
    }
    let top = (TARGETS + 1, 0);
    let original = owns.concat();
    let record = engine.encode(top, original.clone());
    tiers.pfs.put(top, record.clone()).unwrap();
    let index = RecordIndex::parse(&record).unwrap();
    assert_eq!(
        (index.n_entries(), index.n_local()),
        ((owns.len() * OWN_CHUNKS) as u32, 0),
        "every cell must be a reference"
    );
    let referenced: std::collections::BTreeSet<u32> = index
        .entries(&record)
        .filter_map(|e| match e {
            RankDedupEntry::Remote(r) => Some(r.owner_rank),
            RankDedupEntry::Local { .. } => None,
        })
        .collect();
    assert_eq!(referenced, (1..=TARGETS).collect());
    let tables: Vec<RecordIndex> = targets
        .iter()
        .map(|t| RecordIndex::parse(t).unwrap())
        .collect();
    let indexed: u64 = tables
        .iter()
        .map(|t| t.local_len() + t.n_entries() as u64 / 4)
        .sum();
    let largest = targets.iter().map(Vec::len).max().unwrap() as u64;
    // Through a plain fetch closure and through the tier chain's reader,
    // each once pinned to one worker — the serial fetch, index, fetch
    // order — and once on the default pool, where every worker may hold
    // one fetched record.
    let fetch = |id| tiers.pfs.get(id);
    let by_closure = || resolve_record(top, &record, &fetch).unwrap();
    let by_chain = || tiers.locate(top).unwrap();
    let subjects: [(&str, &dyn Fn() -> Bytes); 2] = [
        ("resolve_record over Tier::get", &by_closure),
        ("TierChain::locate", &by_chain),
    ];
    for pinned in [1, 0] {
        rayon::set_active_threads(pinned);
        let workers = rayon::current_num_threads().min(TARGETS as usize) as u64;
        for (subject, resolve) in subjects {
            let (resolved, peak) = peak_live_during(resolve);
            assert_eq!(resolved, original);
            let bound = original.len() as u64 + workers * largest + indexed + SLACK;
            assert!(
                peak <= bound,
                "{subject}: resolving a record over {TARGETS} referenced records on {workers} \
                 worker(s) held {peak} B live at once (bound {bound} B: output {} B, largest \
                 record {largest} B, indexed targets {indexed} B)",
                original.len()
            );
        }
    }
    rayon::set_active_threads(0);
    // What the targets cost held as decoded records: 24 B per entry.
    let decoded: u64 = tables
        .iter()
        .map(|t| t.local_len() + 24 * t.n_entries() as u64)
        .sum();
    let bound = original.len() as u64 + largest + indexed + SLACK;
    assert!(
        original.len() as u64 + decoded > bound,
        "the bound must exclude decoded targets"
    );
}
