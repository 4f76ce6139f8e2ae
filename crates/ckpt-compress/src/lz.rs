//! Shared LZ77 match-finding engine (hash chains) and LEB128 varints.
//!
//! All the LZ-family codecs ([`crate::Lz4Like`], [`crate::SnappyLike`],
//! [`crate::DeflateLike`], [`crate::ZstdLike`]) parse the input into
//! *sequences* — a run of literals followed by a back-reference — using this
//! engine with different window sizes and search depths.

use std::cell::RefCell;

/// Match-finder configuration.
#[derive(Debug, Clone, Copy)]
pub struct MatchConfig {
    /// Maximum back-reference distance.
    pub window: usize,
    /// Minimum match length worth encoding.
    pub min_match: usize,
    /// Maximum match length the target format can encode.
    pub max_match: usize,
    /// Hash-chain probes per position (1 = greedy single probe).
    pub max_chain: usize,
}

impl MatchConfig {
    /// LZ4-style: 64 KiB window, moderate search.
    pub fn lz4() -> Self {
        MatchConfig {
            window: 64 * 1024 - 1,
            min_match: 4,
            max_match: 0xFFF + 19,
            max_chain: 16,
        }
    }

    /// Snappy-style: small window, single-probe greedy (fast, weaker).
    pub fn snappy() -> Self {
        MatchConfig {
            window: 32 * 1024 - 1,
            min_match: 4,
            max_match: 64 + 3,
            max_chain: 1,
        }
    }

    /// Deflate-style: 32 KiB window, decent search.
    pub fn deflate() -> Self {
        MatchConfig {
            window: 32 * 1024 - 1,
            min_match: 3,
            max_match: 258,
            max_chain: 32,
        }
    }

    /// Zstd-style: large window, deep search (best ratio, slowest).
    pub fn zstd() -> Self {
        MatchConfig {
            window: 1 << 20,
            min_match: 3,
            max_match: 1 << 16,
            max_chain: 64,
        }
    }
}

/// One parsed sequence: `lit_len` literals starting at `lit_start`, then a
/// match of `match_len` bytes at distance `offset` (`match_len == 0` only in
/// the final sequence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seq {
    pub lit_start: usize,
    pub lit_len: usize,
    pub offset: usize,
    pub match_len: usize,
}

const HASH_BITS: u32 = 16;
const HASH_SIZE: usize = 1 << HASH_BITS;
/// Empty hash slot / end of chain (positions are `u32`, inputs shorter).
const NIL: u32 = u32::MAX;

#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes(data[i..i + 4].try_into().unwrap());
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Longest common prefix of `data[a..]` and `data[b..]` (`a < b`), capped
/// at `limit <= data.len() - b`. Eight bytes a step: the first set bit of
/// the XOR of two little-endian words is the first byte that differs.
#[inline]
fn match_len(data: &[u8], a: usize, b: usize, limit: usize) -> usize {
    let (x, y) = (&data[a..a + limit], &data[b..b + limit]);
    let mut n = 0;
    for (wx, wy) in x.chunks_exact(8).zip(y.chunks_exact(8)) {
        let diff =
            u64::from_le_bytes(wx.try_into().unwrap()) ^ u64::from_le_bytes(wy.try_into().unwrap());
        if diff != 0 {
            return n + (diff.trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    n + x[n..]
        .iter()
        .zip(&y[n..])
        .take_while(|(p, q)| p == q)
        .count()
}

/// The hash-chain tables, kept per thread (the pool's workers persist) so
/// a parse allocates only its output: 256 KiB of `head` plus 4 B per byte
/// of the longest input this thread has parsed.
struct Tables {
    /// Most recent position per hash bucket; refilled with [`NIL`] per parse.
    head: Vec<u32>,
    /// Previous position in the same bucket. Never cleared: a walk reaches
    /// `prev[p]` only through `head` or another `prev` slot written during
    /// this parse, and `insert` writes `prev[p]` before linking `p`.
    prev: Vec<u32>,
}

thread_local! {
    static TABLES: RefCell<Tables> = const {
        RefCell::new(Tables { head: Vec::new(), prev: Vec::new() })
    };
}

impl Tables {
    #[inline]
    fn insert(&mut self, data: &[u8], pos: usize) {
        let h = hash4(data, pos);
        self.prev[pos] = self.head[h];
        self.head[h] = pos as u32;
    }

    fn parse(&mut self, data: &[u8], cfg: &MatchConfig) -> Vec<Seq> {
        let n = data.len();
        assert!(n < NIL as usize, "LZ input must be shorter than 4 GiB");
        let mut seqs = Vec::new();
        if n == 0 {
            return seqs;
        }
        self.head.clear();
        self.head.resize(HASH_SIZE, NIL);
        if self.prev.len() < n {
            self.prev.resize(n, NIL);
        }
        let mut lit_start = 0usize;
        let mut i = 0usize;

        while i + cfg.min_match <= n && i + 4 <= n {
            // Probe the chain for the best match at i. Only a strictly
            // longer candidate replaces the best, and one that is longer
            // agrees with `i` at byte `best_len` — so a candidate that
            // differs there is skipped uncompared, and the walk ends once
            // nothing longer can exist. Neither changes the parse.
            let limit = cfg.max_match.min(n - i);
            let mut cand = self.head[hash4(data, i)];
            let mut best_len = 0usize;
            let mut best_off = 0usize;
            let mut probes = 0usize;
            while cand != NIL && probes < cfg.max_chain {
                let c = cand as usize;
                if i - c > cfg.window {
                    break;
                }
                if data[c + best_len] == data[i + best_len] {
                    let len = match_len(data, c, i, limit);
                    if len > best_len {
                        best_len = len;
                        best_off = i - c;
                        if len >= limit {
                            break;
                        }
                    }
                }
                cand = self.prev[c];
                probes += 1;
            }

            if best_len >= cfg.min_match {
                seqs.push(Seq {
                    lit_start,
                    lit_len: i - lit_start,
                    offset: best_off,
                    match_len: best_len,
                });
                // Index the positions the match skips over (sparsely for long
                // matches, capped to bound worst-case cost).
                let end = i + best_len;
                let step = if best_len > 256 { 8 } else { 1 };
                let mut p = i;
                while p < end && p + 4 <= n {
                    self.insert(data, p);
                    p += step;
                }
                i = end;
                lit_start = i;
            } else {
                self.insert(data, i);
                i += 1;
            }
        }

        // Final literal-only sequence (possibly empty literals).
        seqs.push(Seq {
            lit_start,
            lit_len: n - lit_start,
            offset: 0,
            match_len: 0,
        });
        seqs
    }
}

/// Parse `data` into sequences. Concatenating, for each sequence, its
/// literals followed by `match_len` bytes copied from `offset` back,
/// reproduces `data` exactly (the round-trip property every format test
/// checks).
pub fn find_sequences(data: &[u8], cfg: &MatchConfig) -> Vec<Seq> {
    TABLES.with_borrow_mut(|tables| tables.parse(data, cfg))
}

/// Append `len` bytes to `out`, each a copy of the byte `offset` back — an
/// LZ match, which may overlap its own output (`offset < len` repeats the
/// last `offset` bytes). The caller has checked `1 <= offset <= out.len()`.
pub fn copy_match(out: &mut Vec<u8>, offset: usize, len: usize) {
    assert!(
        (1..=out.len()).contains(&offset),
        "match offset outside the output"
    );
    let start = out.len() - offset;
    let end = out.len() + len;
    // Everything from `start` on is periodic in `offset`, and stays a whole
    // number of periods long until the last pass, so each pass may copy
    // all of it: the pattern doubles.
    while out.len() < end {
        let n = (out.len() - start).min(end - out.len());
        out.extend_from_within(start..start + n);
    }
}

/// Rebuild the input from its sequences and the original buffer's literal
/// ranges — the engine's own round-trip check (decoders replay their own
/// streams).
pub fn rebuild(data: &[u8], seqs: &[Seq]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len());
    for s in seqs {
        out.extend_from_slice(&data[s.lit_start..s.lit_start + s.lit_len]);
        if s.match_len > 0 {
            copy_match(&mut out, s.offset, s.match_len);
        }
    }
    out
}

/// Write an LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Read the varint length a stream opens with. One past `max_len` — what
/// the caller knows the stream may hold — is corrupt, and says so before
/// anything is reserved for it.
pub fn get_declared_len(
    data: &[u8],
    pos: &mut usize,
    max_len: usize,
) -> Result<usize, crate::CorruptStream> {
    let len = get_varint(data, pos)?;
    if len > max_len as u64 {
        return Err(crate::CorruptStream("declared length exceeds its ceiling"));
    }
    Ok(len as usize)
}

/// Read an LEB128 varint.
pub fn get_varint(data: &[u8], pos: &mut usize) -> Result<u64, crate::CorruptStream> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        if *pos >= data.len() {
            return Err(crate::CorruptStream("varint truncated"));
        }
        let b = data[*pos];
        *pos += 1;
        if shift >= 63 && b > 1 {
            return Err(crate::CorruptStream("varint overflow"));
        }
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The walk `find_sequences` replaced, kept as its oracle: `i64` tables
    /// allocated per call, a byte-at-a-time compare, and a full compare of
    /// every chain candidate.
    fn oracle_find_sequences(data: &[u8], cfg: &MatchConfig) -> Vec<Seq> {
        fn match_len(data: &[u8], a: usize, b: usize, max: usize) -> usize {
            let mut n = 0;
            let limit = max.min(data.len() - b);
            while n < limit && data[a + n] == data[b + n] {
                n += 1;
            }
            n
        }

        let n = data.len();
        let mut seqs = Vec::new();
        if n == 0 {
            return seqs;
        }

        let mut head = vec![-1i64; HASH_SIZE];
        let mut prev = vec![-1i64; n];
        let mut lit_start = 0usize;
        let mut i = 0usize;

        let insert = |head: &mut [i64], prev: &mut [i64], data: &[u8], pos: usize| {
            if pos + 4 <= data.len() {
                let h = hash4(data, pos);
                prev[pos] = head[h];
                head[h] = pos as i64;
            }
        };

        while i + cfg.min_match <= n && i + 4 <= n {
            let h = hash4(data, i);
            let mut cand = head[h];
            let mut best_len = 0usize;
            let mut best_off = 0usize;
            let mut probes = 0usize;
            while cand >= 0 && probes < cfg.max_chain {
                let c = cand as usize;
                if i - c > cfg.window {
                    break;
                }
                let len = match_len(data, c, i, cfg.max_match);
                if len > best_len {
                    best_len = len;
                    best_off = i - c;
                    if len >= cfg.max_match {
                        break;
                    }
                }
                cand = prev[c];
                probes += 1;
            }

            if best_len >= cfg.min_match {
                seqs.push(Seq {
                    lit_start,
                    lit_len: i - lit_start,
                    offset: best_off,
                    match_len: best_len,
                });
                let end = i + best_len;
                let step = if best_len > 256 { 8 } else { 1 };
                let mut p = i;
                while p < end && p + 4 <= n {
                    insert(&mut head, &mut prev, data, p);
                    p += step;
                }
                i = end;
                lit_start = i;
            } else {
                insert(&mut head, &mut prev, data, i);
                i += 1;
            }
        }

        seqs.push(Seq {
            lit_start,
            lit_len: n - lit_start,
            offset: 0,
            match_len: 0,
        });
        seqs
    }

    /// The four shipped configurations plus two that make the rare branches
    /// common: a window that expires after 8 bytes with a single probe, and
    /// a `max_match` most matches hit.
    fn oracle_configs() -> [MatchConfig; 6] {
        [
            MatchConfig::lz4(),
            MatchConfig::snappy(),
            MatchConfig::deflate(),
            MatchConfig::zstd(),
            MatchConfig {
                window: 8,
                min_match: 4,
                max_match: 64,
                max_chain: 1,
            },
            MatchConfig {
                window: 1 << 16,
                min_match: 3,
                max_match: 5,
                max_chain: 8,
            },
        ]
    }

    fn assert_parses_like_the_oracle(data: &[u8]) {
        for cfg in oracle_configs() {
            let seqs = find_sequences(data, &cfg);
            assert_eq!(seqs, oracle_find_sequences(data, &cfg), "{cfg:?}");
            assert_eq!(rebuild(data, &seqs), data);
        }
    }

    /// One stretch of generated input, shaped like what the engine meets.
    #[derive(Debug, Clone)]
    enum Piece {
        /// Fixed-width records that differ in a few bytes (the rank-dedup
        /// entry table is period 13): the hash chain's worst case.
        Table {
            period: usize,
            rows: usize,
            seed: u8,
        },
        /// A run of one byte; past 256 the engine inserts every 8th position.
        Run {
            byte: u8,
            len: usize,
        },
        Noise {
            len: usize,
            seed: u32,
        },
        /// A copy of the input's first `len` bytes, so a match reaches back
        /// over everything in between (and, placed last, ends the input).
        Echo {
            len: usize,
        },
    }

    fn piece() -> impl Strategy<Value = Piece> {
        prop_oneof![
            (1usize..=32, 0usize..600, any::<u8>())
                .prop_map(|(period, rows, seed)| { Piece::Table { period, rows, seed } }),
            (any::<u8>(), 0usize..1200).prop_map(|(byte, len)| Piece::Run { byte, len }),
            (0usize..3000, any::<u32>()).prop_map(|(len, seed)| Piece::Noise { len, seed }),
            (0usize..2000).prop_map(|len| Piece::Echo { len }),
        ]
    }

    fn render(pieces: &[Piece]) -> Vec<u8> {
        let mut out = Vec::new();
        for p in pieces {
            match *p {
                Piece::Table { period, rows, seed } => {
                    for r in 0..rows {
                        let row = (r as u32).wrapping_mul(seed as u32 | 1);
                        out.extend((0..period).map(|k| match k {
                            0 => row as u8,
                            1 => (row >> 8) as u8,
                            _ => seed.wrapping_add(k as u8),
                        }));
                    }
                }
                Piece::Run { byte, len } => out.extend(std::iter::repeat_n(byte, len)),
                Piece::Noise { len, seed } => {
                    let mut x = seed | 1;
                    out.extend((0..len).map(|_| {
                        x ^= x << 13;
                        x ^= x >> 17;
                        x ^= x << 5;
                        (x >> 8) as u8
                    }));
                }
                Piece::Echo { len } => {
                    let n = len.min(out.len());
                    out.extend_from_within(..n);
                }
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn parse_equals_the_old_walk_on_mixed_shapes(
            pieces in prop::collection::vec(piece(), 0..8)
        ) {
            assert_parses_like_the_oracle(&render(&pieces));
        }

        #[test]
        fn parse_equals_the_old_walk_on_tiny_inputs(
            data in prop::collection::vec(0u8..3, 0..12)
        ) {
            assert_parses_like_the_oracle(&data);
        }

        #[test]
        fn parse_equals_the_old_walk_on_noise(
            data in prop::collection::vec(any::<u8>(), 0..4096)
        ) {
            assert_parses_like_the_oracle(&data);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Past 64 KiB the snappy / deflate (32 KiB) and lz4 (64 KiB)
        /// windows expire mid-input; a leading block echoed at the end is
        /// in reach of the zstd window only.
        #[test]
        fn parse_equals_the_old_walk_past_every_window(
            period in 1usize..=32,
            seed in any::<u8>(),
            gap in 60_000usize..90_000,
            tail in prop::collection::vec(piece(), 0..4),
        ) {
            let mut pieces = vec![
                Piece::Table { period, rows: 4000 / period, seed },
                Piece::Noise { len: gap / 2, seed: seed as u32 + 1 },
                Piece::Run { byte: seed, len: 700 },
                Piece::Table { period: 13, rows: gap / 26, seed },
                Piece::Echo { len: 4000 },
            ];
            pieces.extend(tail);
            assert_parses_like_the_oracle(&render(&pieces));
        }
    }

    #[test]
    fn tables_carry_nothing_from_one_parse_to_the_next() {
        // The per-thread `prev` keeps the last parse's chains; a shorter
        // input whose buckets collide with them must not follow one.
        let long = render(&[Piece::Table {
            period: 13,
            rows: 3000,
            seed: 5,
        }]);
        let short = long[7..900].to_vec();
        for cfg in oracle_configs() {
            find_sequences(&long, &cfg);
            assert_eq!(
                find_sequences(&short, &cfg),
                oracle_find_sequences(&short, &cfg)
            );
        }
    }

    #[test]
    fn copy_match_equals_the_byte_loop() {
        let seed: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        for offset in 1..=40 {
            for len in 0..=100 {
                let mut expect = seed.clone();
                for _ in 0..len {
                    expect.push(expect[expect.len() - offset]);
                }
                let mut out = seed.clone();
                copy_match(&mut out, offset, len);
                assert_eq!(out, expect, "offset {offset} len {len}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "match offset outside the output")]
    fn copy_match_refuses_a_zero_offset() {
        copy_match(&mut vec![1, 2, 3], 0, 4);
    }

    #[test]
    fn sequences_rebuild_repetitive_input() {
        let data = b"abcabcabcabcabcabc".repeat(20);
        for cfg in [
            MatchConfig::lz4(),
            MatchConfig::snappy(),
            MatchConfig::deflate(),
            MatchConfig::zstd(),
        ] {
            let seqs = find_sequences(&data, &cfg);
            assert_eq!(rebuild(&data, &seqs), data);
            // Repetitive input must actually produce matches.
            assert!(seqs.iter().any(|s| s.match_len > 0), "{cfg:?}");
        }
    }

    #[test]
    fn overlapping_match_is_produced_for_runs() {
        // A constant run matches at offset 1 (RLE-via-LZ).
        let data = vec![9u8; 300];
        let seqs = find_sequences(&data, &MatchConfig::lz4());
        assert_eq!(rebuild(&data, &seqs), data);
        assert!(seqs.iter().any(|s| s.offset == 1 && s.match_len > 100));
    }

    #[test]
    fn incompressible_input_is_one_literal_run() {
        let data: Vec<u8> = (0..255u8).collect();
        let seqs = find_sequences(&data, &MatchConfig::lz4());
        assert_eq!(seqs.len(), 1);
        assert_eq!(seqs[0].lit_len, data.len());
        assert_eq!(seqs[0].match_len, 0);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert!(find_sequences(&[], &MatchConfig::lz4()).is_empty());
        for n in 1..8 {
            let data = vec![1u8; n];
            let seqs = find_sequences(&data, &MatchConfig::lz4());
            assert_eq!(rebuild(&data, &seqs), data, "len {n}");
        }
    }

    #[test]
    fn max_match_is_respected() {
        let data = vec![5u8; 100_000];
        for cfg in [
            MatchConfig::lz4(),
            MatchConfig::snappy(),
            MatchConfig::deflate(),
        ] {
            let seqs = find_sequences(&data, &cfg);
            assert!(seqs.iter().all(|s| s.match_len <= cfg.max_match), "{cfg:?}");
            assert_eq!(rebuild(&data, &seqs), data);
        }
    }

    #[test]
    fn window_is_respected() {
        // Two identical blocks separated by more than the snappy window:
        // matches must not reference across the gap.
        let mut data = b"unique-block-of-text-1234567890".repeat(4);
        data.extend((0..40_000u32).map(|i| (i % 251) as u8));
        data.extend(b"unique-block-of-text-1234567890".repeat(4));
        let cfg = MatchConfig::snappy();
        let seqs = find_sequences(&data, &cfg);
        assert!(seqs.iter().all(|s| s.offset <= cfg.window));
        assert_eq!(rebuild(&data, &seqs), data);
    }

    #[test]
    fn varint_round_trip() {
        let mut out = Vec::new();
        let vals = [
            0u64,
            1,
            127,
            128,
            300,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX,
        ];
        for &v in &vals {
            put_varint(&mut out, v);
        }
        let mut pos = 0;
        for &v in &vals {
            assert_eq!(get_varint(&out, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, out.len());
    }

    #[test]
    fn varint_rejects_truncation() {
        let mut out = Vec::new();
        put_varint(&mut out, u64::MAX);
        out.pop();
        let mut pos = 0;
        assert!(get_varint(&out, &mut pos).is_err());
    }

    proptest! {
        #[test]
        fn engine_round_trips_any_input(data in prop::collection::vec(any::<u8>(), 0..8192)) {
            for cfg in [MatchConfig::lz4(), MatchConfig::snappy(), MatchConfig::zstd()] {
                let seqs = find_sequences(&data, &cfg);
                prop_assert_eq!(rebuild(&data, &seqs), data.clone());
            }
        }

        #[test]
        fn engine_round_trips_low_entropy(data in prop::collection::vec(0u8..4, 0..8192)) {
            let seqs = find_sequences(&data, &MatchConfig::lz4());
            prop_assert_eq!(rebuild(&data, &seqs), data);
        }

        #[test]
        fn varint_any(v in any::<u64>()) {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            let mut pos = 0;
            prop_assert_eq!(get_varint(&out, &mut pos).unwrap(), v);
        }
    }
}
