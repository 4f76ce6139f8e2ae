//! Self-describing integrity frames for stored checkpoint objects.
//!
//! Every object handed to a storage tier (and every `NNNN.ckpt` file the
//! CLI writes) is wrapped in a fixed 32-byte header so that torn writes,
//! bit flips and misplaced objects are *detected at read time* instead of
//! silently poisoning a restore chain. This mirrors how VeloC/FTI treat
//! per-level integrity verification as a first-class runtime concern.
//!
//! Layout (all fields little-endian):
//!
//! | offset | size | field |
//! |---|---|---|
//! | 0  | 4 | magic `"CKF1"` |
//! | 4  | 2 | format version (2; version 1 is still read) |
//! | 6  | 1 | codec id (0 = stored uncompressed; see [`ckpt_compress::codec_by_id`]) |
//! | 7  | 1 | flags high byte (reserved, 0) |
//! | 8  | 4 | rank id |
//! | 12 | 4 | checkpoint id |
//! | 16 | 8 | stored payload length in bytes (post-compression) |
//! | 24 | 8 | checksum of everything after the header, seeded by the ids |
//! |    |   | *and the codec*, its two halves folded to 64 bits |
//! | 32 | 8 | **codec ≠ 0 only**: uncompressed payload length |
//!
//! The checksum function is the format version's: version 2 (what every
//! writer seals) is the lane-split fold [`murmur3_fold`], which hashes
//! 4 KiB blocks eight at a time and folds their digests; version 1 was one
//! serial [`murmur3_x64_128`] over the whole region and is kept as the
//! reader of version-1 objects. The same holds for
//! the two record formats below, each behind its own version field: a
//! reader takes the function from the version it reads (`Kind::open` hands
//! it to `check_covered`), so objects of either version nest in frames of
//! either. The header's size and fields do not change between versions.
//!
//! The checksum seed mixes `(rank, ckpt_id)` so a frame copied to the wrong
//! object slot fails verification even if its payload is intact, and the
//! codec id so a flipped codec byte can never route an intact payload
//! through the wrong decompressor. Any strict prefix of a valid frame fails
//! verification (the header announces the payload length), which is exactly
//! the artifact a torn write leaves behind.
//!
//! # Compressed frames
//!
//! When the codec byte is nonzero the payload is a
//! [`ckpt_compress::blocks`] container encoded with that codec, and an
//! 8-byte uncompressed-length field sits between the header and the
//! payload. The checksum covers the *compressed* bytes (plus the length
//! field), so corruption is detected without paying for decompression, and
//! [`decompress_payload`] verifies the decompressed size against the recorded
//! one before returning. Legacy frames (flags = 0) are byte-identical to
//! the pre-codec format and keep decoding unchanged — the codec did not
//! need a version of its own.

use crate::util::LeReader;
use ckpt_hash::murmur3::{murmur3_fold, murmur3_x64_128};

/// Length of the uncompressed-length extension field present when the
/// codec byte is nonzero.
pub const FRAME_EXT_LEN: usize = 8;

/// Frame magic: "CKF1".
pub const FRAME_MAGIC: [u8; 4] = *b"CKF1";

/// Frame format version every writer seals (version 1 is still read).
pub const FRAME_VERSION: u16 = 2;

/// Fixed header size preceding the payload.
pub const FRAME_HEADER_LEN: usize = 32;

/// Decoded frame header fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    pub rank: u32,
    pub ckpt_id: u32,
    /// Stored (post-compression) payload length.
    pub payload_len: u64,
    pub checksum: u64,
    /// Codec the payload is encoded with (0 = uncompressed).
    pub codec: u8,
    /// Original payload length (equals `payload_len` when `codec == 0`).
    pub uncompressed_len: u64,
}

/// Why a frame failed verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than one header.
    TooShort { len: usize },
    /// Magic bytes did not match.
    BadMagic,
    /// Unknown format version.
    BadVersion { version: u16 },
    /// Reserved flags field was nonzero.
    BadFlags { flags: u16 },
    /// Header promises more payload than is present (torn write).
    Truncated { expected: u64, have: u64 },
    /// More bytes than the header accounts for.
    TrailingBytes { expected: u64, have: u64 },
    /// Checksum over the payload did not match the header.
    ChecksumMismatch { expected: u64, got: u64 },
    /// Frame ids do not match the slot it was read from.
    IdMismatch {
        expected: (u32, u32),
        got: (u32, u32),
    },
    /// Codec byte names no registered codec.
    UnknownCodec { codec: u8 },
    /// The checksummed payload failed to decompress (encoder-side bug; a
    /// transport bit flip is caught by the checksum first).
    Decompress { codec: u8 },
    /// Decompressed payload length disagrees with the recorded one.
    LengthMismatch { expected: u64, got: u64 },
    /// A rank-dedup entry table slot carries an unknown tag (encoder bug;
    /// a transport bit flip is caught by the record checksum first).
    BadEntryTag { index: u32, tag: u8 },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooShort { len } => {
                write!(f, "frame too short: {len} < {FRAME_HEADER_LEN} bytes")
            }
            FrameError::BadMagic => write!(f, "bad frame magic"),
            FrameError::BadVersion { version } => write!(f, "unknown frame version {version}"),
            FrameError::BadFlags { flags } => {
                write!(f, "reserved frame flags set: {flags:#06x}")
            }
            FrameError::Truncated { expected, have } => {
                write!(f, "truncated frame: payload {have} of {expected} bytes")
            }
            FrameError::TrailingBytes { expected, have } => {
                write!(f, "frame has trailing bytes: {have} > {expected}")
            }
            FrameError::ChecksumMismatch { expected, got } => {
                write!(
                    f,
                    "checksum mismatch: header {expected:#018x}, payload {got:#018x}"
                )
            }
            FrameError::IdMismatch { expected, got } => {
                write!(f, "frame ids {got:?} do not match slot {expected:?}")
            }
            FrameError::UnknownCodec { codec } => {
                write!(f, "unknown frame codec id {codec}")
            }
            FrameError::Decompress { codec } => {
                write!(f, "frame payload failed to decompress (codec {codec})")
            }
            FrameError::LengthMismatch { expected, got } => {
                write!(
                    f,
                    "decompressed length {got} does not match recorded {expected}"
                )
            }
            FrameError::BadEntryTag { index, tag } => {
                write!(f, "rank-dedup entry {index} has unknown tag {tag}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Seed for the payload checksum: mixes both ids so relocated frames fail,
/// and the codec byte so a flipped codec id fails the checksum (not a
/// misdirected decompression). Codec 0 reproduces the legacy seed exactly.
#[inline]
fn checksum_seed(rank: u32, ckpt_id: u32, codec: u8) -> u32 {
    rank.rotate_left(16) ^ ckpt_id ^ 0x9e37_79b9 ^ ((codec as u32) << 24)
}

/// The 64-bit checksum of `region` under `seed` as format `version` defines
/// it — the one place the function is picked: version 1 is one serial
/// Murmur3 chain over the region, every later version the lane-split fold.
/// The digest's halves are folded to 64 bits either way.
#[inline]
fn sum(version: u16, seed: u32, region: &[u8]) -> u64 {
    let d = match version {
        1 => murmur3_x64_128(region, seed),
        _ => murmur3_fold(region, seed),
    };
    d.h1 ^ d.h2.rotate_left(32)
}

/// The 64-bit checksum a version-`version` frame of object `(rank,
/// ckpt_id)` stores in (and is verified against) its header, over
/// everything following the fixed header (`region` = extension field +
/// stored payload; for codec 0 that is just the payload). A redundancy
/// group's member checksum is this over a member's stored bytes.
pub fn checksum64_region(version: u16, rank: u32, ckpt_id: u32, codec: u8, region: &[u8]) -> u64 {
    sum(version, checksum_seed(rank, ckpt_id, codec), region)
}

/// The checksum of `payload` under object ids `(rank, ckpt_id)` as this
/// build's writers seal it: what a new rank-dedup record's
/// `orig_checksum` holds ([`RecordIndex::is_original`] checks it under the
/// version of the record that carries it).
pub fn checksum64(rank: u32, ckpt_id: u32, payload: &[u8]) -> u64 {
    checksum64_region(RANKDEDUP_VERSION, rank, ckpt_id, 0, payload)
}

/// The three self-describing object formats of this module. All open with
/// the same prelude — magic, version, a 16-bit flags word — and all carry a
/// 64-bit checksum field immediately followed by the region it covers, so
/// one reader, one length-and-checksum check and one writer serve the
/// three; each format keeps only its own fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// `CKF1`: the integrity frame around every stored object.
    Frame,
    /// `CKPX`: a redundancy-group parity record.
    Parity,
    /// `CKPR`: a payload rewritten against the cluster dedup index.
    RankDedup,
}

impl Kind {
    const ALL: [Kind; 3] = [Kind::Frame, Kind::Parity, Kind::RankDedup];

    fn magic(self) -> [u8; 4] {
        match self {
            Kind::Frame => FRAME_MAGIC,
            Kind::Parity => PARITY_MAGIC,
            Kind::RankDedup => RANKDEDUP_MAGIC,
        }
    }

    /// The version every writer seals; every version from 1 up to it is
    /// read.
    fn version(self) -> u16 {
        match self {
            Kind::Frame => FRAME_VERSION,
            Kind::Parity => PARITY_VERSION,
            Kind::RankDedup => RANKDEDUP_VERSION,
        }
    }

    /// Fixed header length: fewer bytes than this is `TooShort`.
    fn header_len(self) -> usize {
        match self {
            Kind::Frame => FRAME_HEADER_LEN,
            Kind::Parity => PARITY_HEADER_LEN,
            Kind::RankDedup => RANKDEDUP_HEADER_LEN,
        }
    }

    /// Offset of the checksum field; what it covers starts 8 bytes later.
    fn checksum_at(self) -> usize {
        match self {
            Kind::Frame => 24,
            Kind::Parity => 32,
            Kind::RankDedup => RANKDEDUP_CHECK_OFFSET - 8,
        }
    }

    /// Which format `bytes` opens with, by magic alone (a cheap sniff for
    /// legacy/unframed inputs; says nothing about validity).
    fn sniff(bytes: &[u8]) -> Option<Kind> {
        Kind::ALL
            .into_iter()
            .find(|k| bytes.starts_with(&k.magic()))
    }

    /// Read the prelude: the fixed header must be whole (`TooShort`), then
    /// magic, version and the reserved flag bits are checked, in that
    /// order. A frame keeps its codec in the flags' low byte; the records
    /// reserve the whole word. Returns the version (which names the
    /// object's checksum function), that low byte and a reader positioned
    /// at the format's own fields.
    fn open(self, bytes: &[u8]) -> Result<(u16, u8, LeReader<'_>), FrameError> {
        let short = FrameError::TooShort { len: bytes.len() };
        if bytes.len() < self.header_len() {
            return Err(short);
        }
        let mut r = LeReader::new(bytes);
        let magic = r.take(4).ok_or(short)?;
        let version = r.u16().ok_or(short)?;
        let flags = r.u16().ok_or(short)?;
        if magic != self.magic() {
            return Err(FrameError::BadMagic);
        }
        if !(1..=self.version()).contains(&version) {
            return Err(FrameError::BadVersion { version });
        }
        let reserved = if self == Kind::Frame { 0xff00 } else { 0xffff };
        if flags & reserved != 0 {
            return Err(FrameError::BadFlags { flags });
        }
        Ok((version, flags as u8, r))
    }

    /// Start an object: the prelude, in a buffer sized for `len` bytes.
    fn begin(self, flags: u16, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        out.extend_from_slice(&self.magic());
        out.extend_from_slice(&self.version().to_le_bytes());
        out.extend_from_slice(&flags.to_le_bytes());
        out
    }

    /// Finish an object: patch the checksum of the covered region under
    /// `seed` into the checksum field the format's writer left zeroed.
    fn seal(self, mut out: Vec<u8>, seed: u32) -> Vec<u8> {
        let at = self.checksum_at();
        let sum = sum(self.version(), seed, &out[at + 8..]);
        out[at..at + 8].copy_from_slice(&sum.to_le_bytes());
        out
    }
}

/// The check every decoder runs on the region its checksum covers. The
/// header's length claim is validated against what is actually in the
/// buffer strictly before the checksum touches a byte (so a bit-flipped
/// length field can never drive an allocation or a hash), then stored vs
/// computed under `seed` by the function of the `version` the object's
/// prelude named. Returns the `Truncated` error the format's own field
/// reads use for a region that passes here and still underruns.
fn check_covered(
    covered: &[u8],
    expected: u64,
    stored: u64,
    version: u16,
    seed: u32,
) -> Result<FrameError, FrameError> {
    let have = covered.len() as u64;
    if have < expected {
        return Err(FrameError::Truncated { expected, have });
    }
    if have > expected {
        return Err(FrameError::TrailingBytes { expected, have });
    }
    let got = sum(version, seed, covered);
    if got != stored {
        return Err(FrameError::ChecksumMismatch {
            expected: stored,
            got,
        });
    }
    Ok(FrameError::Truncated { expected, have })
}

fn encode_frame_inner(
    rank: u32,
    ckpt_id: u32,
    codec: u8,
    uncompressed_len: u64,
    payload: &[u8],
) -> Vec<u8> {
    let ext = if codec != 0 { FRAME_EXT_LEN } else { 0 };
    let mut out = Kind::Frame.begin(codec as u16, FRAME_HEADER_LEN + ext + payload.len());
    out.extend_from_slice(&rank.to_le_bytes());
    out.extend_from_slice(&ckpt_id.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&[0u8; 8]); // checksum, patched by `seal`
    if codec != 0 {
        out.extend_from_slice(&uncompressed_len.to_le_bytes());
    }
    out.extend_from_slice(payload);
    Kind::Frame.seal(out, checksum_seed(rank, ckpt_id, codec))
}

/// Wrap `payload` in a verified frame for object `(rank, ckpt_id)`. The
/// payload bytes follow the 32-byte header verbatim.
pub fn encode_frame(rank: u32, ckpt_id: u32, payload: &[u8]) -> Vec<u8> {
    encode_frame_inner(rank, ckpt_id, 0, payload.len() as u64, payload)
}

/// Wrap an already-compressed payload (a [`ckpt_compress::blocks`]
/// container encoded with `codec`) in a frame carrying the codec id and the
/// original length. The checksum covers the compressed bytes.
pub fn encode_frame_compressed(
    rank: u32,
    ckpt_id: u32,
    codec: u8,
    uncompressed_len: u64,
    compressed: &[u8],
) -> Vec<u8> {
    assert!(codec != 0, "codec 0 is the uncompressed frame format");
    assert!(
        ckpt_compress::codec_by_id(codec).is_some(),
        "unregistered codec id {codec}"
    );
    encode_frame_inner(rank, ckpt_id, codec, uncompressed_len, compressed)
}

/// Parse and fully verify a frame, returning the header and a borrowed
/// *stored* payload slice (still compressed when the codec byte is set).
/// Every integrity property is checked: magic, version, codec id, exact
/// length, checksum — and, when `expect` names an object slot, that the
/// frame belongs to it.
pub fn decode_frame(
    bytes: &[u8],
    expect: Option<(u32, u32)>,
) -> Result<(FrameHeader, &[u8]), FrameError> {
    let short = FrameError::TooShort { len: bytes.len() };
    let (version, codec, mut r) = Kind::Frame.open(bytes)?;
    let rank = r.u32().ok_or(short)?;
    let ckpt_id = r.u32().ok_or(short)?;
    let payload_len = r.u64().ok_or(short)?;
    let checksum = r.u64().ok_or(short)?;
    let region = r.rest();
    if codec != 0 && ckpt_compress::codec_by_id(codec).is_none() {
        return Err(FrameError::UnknownCodec { codec });
    }
    let ext = if codec != 0 { FRAME_EXT_LEN as u64 } else { 0 };
    let truncated = check_covered(
        region,
        payload_len.saturating_add(ext),
        checksum,
        version,
        checksum_seed(rank, ckpt_id, codec),
    )?;
    let (uncompressed_len, payload) = if codec != 0 {
        let mut r = LeReader::new(region);
        (r.u64().ok_or(truncated)?, r.rest())
    } else {
        (payload_len, region)
    };
    if let Some(expected) = expect {
        let got = (rank, ckpt_id);
        if got != expected {
            return Err(FrameError::IdMismatch { expected, got });
        }
    }
    let header = FrameHeader {
        rank,
        ckpt_id,
        payload_len,
        checksum,
        codec,
        uncompressed_len,
    };
    Ok((header, payload))
}

/// Verify a frame and (optionally) that it belongs to the given object
/// slot, returning the stored payload slice.
pub fn verify_frame(bytes: &[u8], expect: Option<(u32, u32)>) -> Result<&[u8], FrameError> {
    decode_frame(bytes, expect).map(|(_, payload)| payload)
}

/// Decompress a stored payload extracted from a frame with the given codec
/// byte (0 copies through). Shared by the tier read path, which keeps the
/// encoded bytes around for transcode-free flushing.
#[expect(
    clippy::disallowed_methods,
    reason = "the one decompression of a stored payload"
)]
pub fn decompress_payload(
    codec: u8,
    uncompressed_len: u64,
    stored: &[u8],
) -> Result<Vec<u8>, FrameError> {
    if codec == 0 {
        return Ok(stored.to_vec());
    }
    let c = ckpt_compress::codec_by_id(codec).ok_or(FrameError::UnknownCodec { codec })?;
    let corrupt = |_| FrameError::Decompress { codec };
    // The container's table names its length before anything is allocated
    // for it: one other than the recorded length is refused unread.
    let len = ckpt_compress::blocks::decoded_len(stored).map_err(corrupt)?;
    if len as u64 != uncompressed_len {
        return Err(FrameError::LengthMismatch {
            expected: uncompressed_len,
            got: len as u64,
        });
    }
    ckpt_compress::blocks::decompress_blocks(&*c, stored, len).map_err(corrupt)
}

// ---- Redundancy-group parity records ------------------------------------
//
// Cross-rank redundancy (XOR parity groups) stores *parity records*
// alongside ordinary objects. A parity record is a self-describing payload
// with its own magic — it travels **inside** a standard codec-0
// frame in the group store, so the legacy frame format above is untouched.
//
// Layout (little-endian):
//
// | offset | size | field |
// |---|---|---|
// | 0  | 4 | magic `"CKPX"` |
// | 4  | 2 | record version (2; version 1 is still read) |
// | 6  | 2 | reserved (0) |
// | 8  | 4 | group id |
// | 12 | 4 | stripe index within the group |
// | 16 | 4 | checkpoint id |
// | 20 | 4 | member count `n` |
// | 24 | 8 | parity length in bytes |
// | 32 | 8 | checksum of everything after offset 40, seeded by the ids, |
// |    |   | under the record version's function (the frame's) |
// | 40 | 37·n | member table (rank u32, codec u8, uncompressed_len u64, |
// |    |      | stored_len u64, chunk_len u64, checksum u64) |
// | …  | parity_len | XOR parity bytes |

/// Parity record magic: "CKPX".
pub const PARITY_MAGIC: [u8; 4] = *b"CKPX";

/// Parity record version every writer seals (version 1 is still read).
pub const PARITY_VERSION: u16 = 2;

/// Fixed parity-record header size preceding the member table.
pub const PARITY_HEADER_LEN: usize = 40;

/// Serialized size of one member-table entry.
pub const PARITY_MEMBER_LEN: usize = 37;

/// Metadata a parity record carries for each contributing group member, so
/// a lost member can be reconstructed and verified without any surviving
/// local state of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParityMember {
    pub rank: u32,
    /// Codec of the member's stored (post-compression) payload.
    pub codec: u8,
    pub uncompressed_len: u64,
    /// Stored payload length the member had when it was encoded.
    pub stored_len: u64,
    /// Chunk length the member's payload was striped with.
    pub chunk_len: u64,
    /// [`checksum64_region`]`(version, rank, ckpt_id, codec, payload)` of
    /// the member's stored bytes, under the version of the group that
    /// encoded it (its manifest's) — reconstruction is verified against
    /// this, so a wrong payload can never be returned silently.
    pub checksum: u64,
}

/// One XOR parity stripe of a redundancy group at a given checkpoint id:
/// the running XOR of each contributing member's chunk assigned to this
/// stripe (shorter chunks are implicitly zero-padded), plus every
/// contributor's metadata.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ParityRecord {
    pub group: u32,
    pub stripe: u32,
    pub ckpt_id: u32,
    pub members: Vec<ParityMember>,
    pub parity: Vec<u8>,
}

impl ParityRecord {
    /// Seeds the record checksum with all three ids, so a stripe read from
    /// another group, stripe index or checkpoint fails it.
    fn seed(group: u32, stripe: u32, ckpt_id: u32) -> u32 {
        checksum_seed(group, stripe ^ ckpt_id.rotate_left(8), 0)
    }

    /// Serialize to the layout documented above.
    pub fn encode(&self) -> Vec<u8> {
        let body_len = PARITY_MEMBER_LEN * self.members.len() + self.parity.len();
        let mut out = Kind::Parity.begin(0, PARITY_HEADER_LEN + body_len);
        out.extend_from_slice(&self.group.to_le_bytes());
        out.extend_from_slice(&self.stripe.to_le_bytes());
        out.extend_from_slice(&self.ckpt_id.to_le_bytes());
        out.extend_from_slice(&(self.members.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.parity.len() as u64).to_le_bytes());
        out.extend_from_slice(&[0u8; 8]); // checksum, patched by `seal`
        for m in &self.members {
            out.extend_from_slice(&m.rank.to_le_bytes());
            out.push(m.codec);
            out.extend_from_slice(&m.uncompressed_len.to_le_bytes());
            out.extend_from_slice(&m.stored_len.to_le_bytes());
            out.extend_from_slice(&m.chunk_len.to_le_bytes());
            out.extend_from_slice(&m.checksum.to_le_bytes());
        }
        out.extend_from_slice(&self.parity);
        Kind::Parity.seal(out, Self::seed(self.group, self.stripe, self.ckpt_id))
    }

    /// Parse and fully verify a serialized parity record. Lengths are
    /// validated against the actual buffer before anything is hashed, so a
    /// corrupted count field can never drive an allocation.
    pub fn decode(bytes: &[u8]) -> Result<ParityRecord, FrameError> {
        let short = FrameError::TooShort { len: bytes.len() };
        let (version, _, mut r) = Kind::Parity.open(bytes)?;
        let group = r.u32().ok_or(short)?;
        let stripe = r.u32().ok_or(short)?;
        let ckpt_id = r.u32().ok_or(short)?;
        let n_members = r.u32().ok_or(short)? as u64;
        let parity_len = r.u64().ok_or(short)?;
        let checksum = r.u64().ok_or(short)?;
        let body = r.rest();
        let expected = n_members
            .saturating_mul(PARITY_MEMBER_LEN as u64)
            .saturating_add(parity_len);
        let seed = Self::seed(group, stripe, ckpt_id);
        let truncated = check_covered(body, expected, checksum, version, seed)?;
        let mut r = LeReader::new(body);
        let mut members = Vec::with_capacity(n_members as usize);
        for _ in 0..n_members {
            members.push(ParityMember {
                rank: r.u32().ok_or(truncated)?,
                codec: r.u8().ok_or(truncated)?,
                uncompressed_len: r.u64().ok_or(truncated)?,
                stored_len: r.u64().ok_or(truncated)?,
                chunk_len: r.u64().ok_or(truncated)?,
                checksum: r.u64().ok_or(truncated)?,
            });
        }
        Ok(ParityRecord {
            group,
            stripe,
            ckpt_id,
            members,
            parity: r.rest().to_vec(),
        })
    }
}

// ---- Cluster-wide rank-dedup records ------------------------------------
//
// The cluster dedup index shards the 128-bit chunk-hash space across the
// ranks of a redundancy group; a chunk first seen by *any* rank is stored
// exactly once cluster-wide, and later occurrences are replaced by a
// `RemoteRef` naming the first-occurrence location. A rank-dedup record is
// the payload-level materialization of that: the object's payload is cut on
// a fixed chunk grid, each grid cell becomes either a *local* entry (bytes
// carried inline, in table order) or a *remote* entry (a `RemoteRef`), and
// the original payload's length and checksum ride along so resolution can
// prove a bit-identical reassembly — a dangling or wrong reference is a
// typed loss, never a silently wrong payload.
//
// Like `CKPX`, the record travels **inside** a standard frame (and through
// the compression stage like any other payload), so legacy frames stay
// byte-identical.
//
// Layout (little-endian):
//
// | offset | size | field |
// |---|---|---|
// | 0  | 4 | magic `"CKPR"` |
// | 4  | 2 | record version (2; version 1 is still read) |
// | 6  | 2 | reserved (0) |
// | 8  | 4 | rank |
// | 12 | 4 | checkpoint id |
// | 16 | 8 | checksum of everything after offset 24, seeded by the ids |
// | 24 | 4 | dedup grid chunk length |
// | 28 | 4 | entry count `n` |
// | 32 | 8 | original payload length |
// | 40 | 8 | original payload checksum (the frame checksum of the |
// |    |   | record version under the ids, codec 0) |
// | 48 | 8 | total local bytes |
// | 56 | 13·n | entry table (tag u8; tag 0 = local: len u32, 8 pad bytes; |
// |    |      | tag 1 = remote: owner_rank u32, ckpt_id u32, chunk u32, pad) |
// | …  | local_len | local entries' bytes, concatenated in table order |
//
// The record checksum covers every header field after itself plus the body,
// and its seed mixes `(rank, ckpt_id)` — any single corrupted bit anywhere
// in a record is detected at decode time. Both checksums are the record
// version's function: the serial chain at version 1, the lane-split fold
// from version 2.

/// Rank-dedup record magic: "CKPR".
const RANKDEDUP_MAGIC: [u8; 4] = *b"CKPR";

/// Rank-dedup record version every writer seals (version 1 is still read).
const RANKDEDUP_VERSION: u16 = 2;

/// Fixed rank-dedup header size preceding the entry table.
const RANKDEDUP_HEADER_LEN: usize = 56;

/// Offset at which the record checksum's coverage starts.
const RANKDEDUP_CHECK_OFFSET: usize = 24;

/// Serialized size of one entry-table slot.
const RANKDEDUP_ENTRY_LEN: usize = 13;

/// A cross-rank first-occurrence reference: the chunk's bytes live in
/// entry `chunk` of the rank-dedup record stored as object
/// `(owner_rank, ckpt_id)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RemoteRef {
    pub owner_rank: u32,
    pub ckpt_id: u32,
    /// Entry index inside the referenced record (which must be local
    /// there — references are depth-1 by construction).
    pub chunk: u32,
}

/// One grid cell of a rank-dedup record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankDedupEntry {
    /// The cell's bytes are carried inline (`len` of them, in table order).
    Local { len: u32 },
    /// The cell's bytes are stored once cluster-wide, at the referenced
    /// first-occurrence location.
    Remote(RemoteRef),
}

/// Seed mixing for the record checksum: distinct from both the frame and
/// parity seeds so a record can never masquerade as either.
#[inline]
fn rankdedup_seed(rank: u32, ckpt_id: u32) -> u32 {
    checksum_seed(rank ^ 0x524b_4452, ckpt_id.rotate_left(16), 0)
}

/// The one writer of the layout above: the header and an entry table sized
/// for `n_entries` slots up front, each slot written in place as the caller
/// walks its grid, each local entry's bytes appended behind the table.
/// [`RecordIndex::parse`] is its reader.
#[derive(Debug)]
pub struct RecordWriter {
    out: Vec<u8>,
    id: (u32, u32),
    /// Where the next slot starts.
    next: usize,
    /// Where the table ends and the local region starts.
    local_at: usize,
}

impl RecordWriter {
    /// Start the record of object `(rank, ckpt_id)`, cut on a grid of
    /// `chunk_len`, whose table holds exactly `n_entries` slots.
    pub fn new(rank: u32, ckpt_id: u32, chunk_len: u32, n_entries: u32) -> RecordWriter {
        let local_at = RANKDEDUP_HEADER_LEN + n_entries as usize * RANKDEDUP_ENTRY_LEN;
        let mut out = Kind::RankDedup.begin(0, local_at);
        out.extend_from_slice(&rank.to_le_bytes());
        out.extend_from_slice(&ckpt_id.to_le_bytes());
        out.extend_from_slice(&[0u8; 8]); // checksum, patched by `seal`
        out.extend_from_slice(&chunk_len.to_le_bytes());
        out.extend_from_slice(&n_entries.to_le_bytes());
        // The lengths and the original checksum are patched by `finish`;
        // the slots are written one by one.
        out.resize(local_at, 0);
        RecordWriter {
            out,
            id: (rank, ckpt_id),
            next: RANKDEDUP_HEADER_LEN,
            local_at,
        }
    }

    /// The next slot, tagged `tag`: its 12 bytes after the tag.
    fn slot(&mut self, tag: u8) -> &mut [u8] {
        let at = self.next;
        assert!(at < self.local_at, "rank-dedup table overfull");
        self.next += RANKDEDUP_ENTRY_LEN;
        self.out[at] = tag;
        &mut self.out[at + 1..self.next]
    }

    /// Write a local entry carrying `bytes`; returns its entry index.
    pub fn local(&mut self, bytes: &[u8]) -> u32 {
        let index = (self.next - RANKDEDUP_HEADER_LEN) / RANKDEDUP_ENTRY_LEN;
        let len = u32::try_from(bytes.len()).expect("a local entry's length fits its slot");
        self.slot(0)[..4].copy_from_slice(&len.to_le_bytes());
        self.out.extend_from_slice(bytes);
        index as u32
    }

    /// Write a remote entry naming `r`.
    pub fn remote(&mut self, r: RemoteRef) {
        let slot = self.slot(1);
        slot[..4].copy_from_slice(&r.owner_rank.to_le_bytes());
        slot[4..8].copy_from_slice(&r.ckpt_id.to_le_bytes());
        slot[8..].copy_from_slice(&r.chunk.to_le_bytes());
    }

    /// Record the original payload's length and its [`checksum64`] under
    /// the ids — the lane-split fold of this version, which
    /// [`RecordIndex::is_original`] checks — and seal the record under the
    /// same fold. Panics unless every slot was written.
    pub fn finish(mut self, orig_len: u64, orig_checksum: u64) -> Vec<u8> {
        assert_eq!(self.next, self.local_at, "rank-dedup table short");
        let local_len = (self.out.len() - self.local_at) as u64;
        for (at, field) in [(32, orig_len), (40, orig_checksum), (48, local_len)] {
            self.out[at..at + 8].copy_from_slice(&field.to_le_bytes());
        }
        let (rank, ckpt_id) = self.id;
        Kind::RankDedup.seal(self.out, rankdedup_seed(rank, ckpt_id))
    }
}

/// A verified rank-dedup record's entry table, indexed in place: what a
/// reader needs to find any entry's bytes, without an owned entry list.
///
/// It keeps one bit per entry (local or not), the count of local entries
/// before each 64-entry word, and one offset per local entry (plus the
/// local region's end), so [`local_slice`](Self::local_slice) is a bit
/// test, a popcount and two loads. The index holds no record bytes: the
/// accessors take the buffer it was parsed from, or — for `local_slice` —
/// its [`local_region`](Self::local_region), which a holder may copy out
/// and keep without the table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordIndex {
    pub rank: u32,
    pub ckpt_id: u32,
    pub chunk_len: u32,
    pub orig_len: u64,
    pub orig_checksum: u64,
    n_entries: u32,
    /// Bit `i % 64` of word `i / 64` is set when entry `i` is local.
    is_local: Vec<u64>,
    /// `before[w]`: local entries in words `0..w`.
    before: Vec<u32>,
    /// `offsets[k]`: where the `k`-th local entry starts in the local
    /// region; one more, the region's length, ends the last one.
    offsets: Vec<u64>,
}

impl RecordIndex {
    /// Parse and fully verify a serialized rank-dedup record: the prelude,
    /// the header's length claim before the checksum touches a byte (so a
    /// corrupted count can never drive an allocation), the record checksum,
    /// then — in one pass over the table — every tag and the sum of the
    /// local lengths against the bytes carried.
    pub fn parse(bytes: &[u8]) -> Result<RecordIndex, FrameError> {
        let short = FrameError::TooShort { len: bytes.len() };
        let (version, _, mut r) = Kind::RankDedup.open(bytes)?;
        let rank = r.u32().ok_or(short)?;
        let ckpt_id = r.u32().ok_or(short)?;
        let checksum = r.u64().ok_or(short)?;
        // Everything from here on is what the record checksum covers.
        let covered = r.rest();
        let chunk_len = r.u32().ok_or(short)?;
        let n_entries = r.u32().ok_or(short)?;
        let orig_len = r.u64().ok_or(short)?;
        let orig_checksum = r.u64().ok_or(short)?;
        let local_len = r.u64().ok_or(short)?;
        let expected = ((RANKDEDUP_HEADER_LEN - RANKDEDUP_CHECK_OFFSET) as u64)
            .saturating_add((n_entries as u64).saturating_mul(RANKDEDUP_ENTRY_LEN as u64))
            .saturating_add(local_len);
        let seed = rankdedup_seed(rank, ckpt_id);
        let truncated = check_covered(covered, expected, checksum, version, seed)?;
        // The checksum passed over exactly `expected` bytes, so the table
        // is in the buffer and every count below is bounded by it.
        let n = n_entries as usize;
        let table = r.take(n * RANKDEDUP_ENTRY_LEN).ok_or(truncated)?;
        let words = n.div_ceil(64);
        let mut is_local = Vec::with_capacity(words);
        let mut before = Vec::with_capacity(words);
        // Sized for every entry, trimmed once the pass has counted.
        let mut offsets = Vec::with_capacity(n + 1);
        let mut local_sum = 0u64;
        for (w, slots) in table.chunks(64 * RANKDEDUP_ENTRY_LEN).enumerate() {
            before.push(offsets.len() as u32);
            let mut word = 0u64;
            for (b, slot) in slots.chunks_exact(RANKDEDUP_ENTRY_LEN).enumerate() {
                match slot[0] {
                    0 => {
                        word |= 1 << b;
                        offsets.push(local_sum);
                        local_sum += slot_u32(slot, 1) as u64;
                    }
                    1 => {}
                    tag => {
                        return Err(FrameError::BadEntryTag {
                            index: (w * 64 + b) as u32,
                            tag,
                        })
                    }
                }
            }
            is_local.push(word);
        }
        if local_sum != local_len {
            return Err(FrameError::LengthMismatch {
                expected: local_len,
                got: local_sum,
            });
        }
        offsets.push(local_sum);
        offsets.shrink_to_fit();
        Ok(RecordIndex {
            rank,
            ckpt_id,
            chunk_len,
            orig_len,
            orig_checksum,
            n_entries,
            is_local,
            before,
            offsets,
        })
    }

    /// Whether `bytes` open with the rank-dedup magic: a cheap sniff that
    /// says nothing about validity ([`parse`](Self::parse) decides that).
    pub fn is_record(bytes: &[u8]) -> bool {
        Kind::sniff(bytes) == Some(Kind::RankDedup)
    }

    /// Whether `payload` is the original this record was cut from, by its
    /// `orig_checksum`, taken under the version of `bytes` (the buffer this
    /// index was parsed from): the record's own checksum function.
    pub fn is_original(&self, bytes: &[u8], payload: &[u8]) -> bool {
        let version = u16::from_le_bytes(
            bytes[4..6]
                .try_into()
                .expect("the buffer this index was parsed from"),
        );
        checksum64_region(version, self.rank, self.ckpt_id, 0, payload) == self.orig_checksum
    }

    /// Entries in the table, one per grid cell.
    pub fn n_entries(&self) -> u32 {
        self.n_entries
    }

    /// Entries whose bytes the record carries.
    pub fn n_local(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Bytes the local entries carry, in total.
    pub fn local_len(&self) -> u64 {
        self.offsets[self.offsets.len() - 1]
    }

    /// The local entries' bytes, concatenated in table order, in `bytes`
    /// (the buffer this index was parsed from): its tail.
    pub fn local_region<'a>(&self, bytes: &'a [u8]) -> &'a [u8] {
        bytes
            .get(self.local_at()..)
            .expect("the buffer this index was parsed from")
    }

    /// The entry table, read in place from `bytes` (the buffer this index
    /// was parsed from), in table order.
    pub fn entries<'a>(&self, bytes: &'a [u8]) -> impl Iterator<Item = RankDedupEntry> + 'a {
        bytes
            .get(RANKDEDUP_HEADER_LEN..self.local_at())
            .expect("the buffer this index was parsed from")
            .chunks_exact(RANKDEDUP_ENTRY_LEN)
            .map(|slot| match slot[0] {
                0 => RankDedupEntry::Local {
                    len: slot_u32(slot, 1),
                },
                _ => RankDedupEntry::Remote(RemoteRef {
                    owner_rank: slot_u32(slot, 1),
                    ckpt_id: slot_u32(slot, 5),
                    chunk: slot_u32(slot, 9),
                }),
            })
    }

    /// Borrow the bytes of local entry `index` out of `local`, this
    /// record's [`local_region`](Self::local_region) (or a copy of it).
    /// `None` when the index is out of range or names a remote entry.
    #[inline]
    pub fn local_slice<'a>(&self, local: &'a [u8], index: u32) -> Option<&'a [u8]> {
        let i = index as usize;
        let word = *self.is_local.get(i / 64)?;
        let bit = 1u64 << (i % 64);
        if word & bit == 0 {
            return None;
        }
        let k = self.before[i / 64] as usize + (word & (bit - 1)).count_ones() as usize;
        local.get(self.offsets[k] as usize..self.offsets[k + 1] as usize)
    }

    /// Where the local region starts in the parsed buffer.
    fn local_at(&self) -> usize {
        RANKDEDUP_HEADER_LEN + self.n_entries as usize * RANKDEDUP_ENTRY_LEN
    }
}

/// The little-endian `u32` at `at` in an entry-table slot.
#[inline]
fn slot_u32(slot: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(slot[at..at + 4].try_into().expect("inside a 13-byte slot"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Verify, then decompress through the recorded codec — what a tier
    /// read does with a stored object.
    fn decode_payload(
        bytes: &[u8],
        expect: Option<(u32, u32)>,
    ) -> Result<(FrameHeader, Vec<u8>), FrameError> {
        let (header, stored) = decode_frame(bytes, expect)?;
        let payload = decompress_payload(header.codec, header.uncompressed_len, stored)?;
        Ok((header, payload))
    }

    #[test]
    fn round_trip_preserves_payload() {
        let payload = b"the quick brown fox".to_vec();
        let framed = encode_frame(3, 7, &payload);
        assert_eq!(framed.len(), FRAME_HEADER_LEN + payload.len());
        assert_eq!(Kind::sniff(&framed), Some(Kind::Frame));
        let (header, got) = decode_frame(&framed, None).unwrap();
        assert_eq!(got, &payload[..]);
        assert_eq!(header.rank, 3);
        assert_eq!(header.ckpt_id, 7);
        assert_eq!(header.payload_len, payload.len() as u64);
        assert_eq!(verify_frame(&framed, Some((3, 7))).unwrap(), &payload[..]);
    }

    #[test]
    fn empty_payload_round_trips() {
        let framed = encode_frame(0, 0, &[]);
        assert_eq!(framed.len(), FRAME_HEADER_LEN);
        assert_eq!(verify_frame(&framed, Some((0, 0))).unwrap(), &[] as &[u8]);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let framed = encode_frame(1, 2, b"payload bytes under test");
        for byte in 0..framed.len() {
            for bit in 0..8 {
                let mut bad = framed.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    verify_frame(&bad, Some((1, 2))).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn wrong_slot_is_detected() {
        let framed = encode_frame(1, 2, b"abc");
        assert_eq!(
            verify_frame(&framed, Some((1, 3))).unwrap_err(),
            FrameError::IdMismatch {
                expected: (1, 3),
                got: (1, 2)
            }
        );
        // Without an expectation the frame itself is still valid.
        assert!(verify_frame(&framed, None).is_ok());
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut framed = encode_frame(0, 1, b"xy");
        framed.push(0);
        assert!(matches!(
            decode_frame(&framed, None),
            Err(FrameError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn legacy_bytes_are_not_framed() {
        assert_eq!(Kind::sniff(b"CK"), None);
        assert_eq!(Kind::sniff(b"not a frame"), None);
        assert!(matches!(
            decode_frame(b"not a frame at all, but long enough to parse!", None),
            Err(FrameError::BadMagic)
        ));
    }

    fn compressed_frame(rank: u32, ckpt: u32, payload: &[u8], codec: u8) -> Vec<u8> {
        let c = ckpt_compress::codec_by_id(codec).unwrap();
        let container = ckpt_compress::blocks::compress_blocks(&*c, payload, 4096);
        encode_frame_compressed(rank, ckpt, codec, payload.len() as u64, &container)
    }

    #[test]
    fn compressed_frame_round_trips() {
        let payload: Vec<u8> = (0..50_000u32)
            .flat_map(|i| (i / 13).to_le_bytes())
            .collect();
        let framed = compressed_frame(3, 7, &payload, 6);
        assert!(framed.len() < payload.len(), "counters must compress");
        let (header, stored) = decode_frame(&framed, None).unwrap();
        assert_eq!(header.codec, 6);
        assert_eq!(header.uncompressed_len, payload.len() as u64);
        assert_eq!(header.payload_len, stored.len() as u64);
        let (h2, back) = decode_payload(&framed, Some((3, 7))).unwrap();
        assert_eq!(h2, header);
        assert_eq!(back, payload);
    }

    #[test]
    fn legacy_frames_decode_through_decode_payload() {
        let framed = encode_frame(1, 2, b"plain bytes");
        let (header, back) = decode_payload(&framed, Some((1, 2))).unwrap();
        assert_eq!(header.codec, 0);
        assert_eq!(header.uncompressed_len, header.payload_len);
        assert_eq!(back, b"plain bytes");
    }

    #[test]
    fn every_single_bit_flip_is_detected_in_compressed_frames() {
        let payload: Vec<u8> = (0..4096u32).map(|i| ((i / 32) % 11) as u8).collect();
        let framed = compressed_frame(1, 2, &payload, 1);
        for byte in 0..framed.len() {
            for bit in 0..8 {
                let mut bad = framed.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    decode_payload(&bad, Some((1, 2))).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn unknown_codec_is_typed() {
        let mut framed = encode_frame(0, 0, b"x");
        framed[6] = 0x63; // unregistered codec id
        assert_eq!(
            decode_frame(&framed, None).unwrap_err(),
            FrameError::UnknownCodec { codec: 0x63 }
        );
    }

    #[test]
    fn truncated_length_field_is_rejected_before_any_copy() {
        // A frame whose length field claims far more payload than the
        // buffer holds must fail as Truncated (the defensive check) rather
        // than be trusted.
        let mut framed = encode_frame(0, 0, b"payload");
        framed[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            decode_frame(&framed, None),
            Err(FrameError::Truncated { .. })
        ));
    }

    #[test]
    fn length_mismatch_is_typed() {
        let payload = vec![9u8; 10_000];
        let c = ckpt_compress::codec_by_id(7).unwrap();
        let container = ckpt_compress::blocks::compress_blocks(&*c, &payload, 4096);
        // Record a wrong uncompressed length: checksum verifies (it covers
        // the recorded field), decompression length check must catch it.
        let framed = encode_frame_compressed(0, 0, 7, 9_999, &container);
        assert_eq!(
            decode_payload(&framed, None).unwrap_err(),
            FrameError::LengthMismatch {
                expected: 9_999,
                got: 10_000
            }
        );
    }

    fn sample_parity() -> ParityRecord {
        ParityRecord {
            group: 3,
            stripe: 1,
            ckpt_id: 9,
            members: vec![
                ParityMember {
                    rank: 12,
                    codec: 6,
                    uncompressed_len: 4096,
                    stored_len: 1024,
                    chunk_len: 342,
                    checksum: 0xdead_beef_cafe_f00d,
                },
                ParityMember {
                    rank: 14,
                    codec: 0,
                    uncompressed_len: 512,
                    stored_len: 512,
                    chunk_len: 171,
                    checksum: 0x0123_4567_89ab_cdef,
                },
            ],
            parity: (0..342u32).map(|i| (i % 251) as u8).collect(),
        }
    }

    #[test]
    fn parity_record_round_trips() {
        let rec = sample_parity();
        let bytes = rec.encode();
        assert_eq!(Kind::sniff(&bytes), Some(Kind::Parity));
        assert_eq!(ParityRecord::decode(&bytes).unwrap(), rec);
    }

    #[test]
    fn empty_parity_record_round_trips() {
        let rec = ParityRecord {
            group: 0,
            stripe: 0,
            ckpt_id: 0,
            members: Vec::new(),
            parity: Vec::new(),
        };
        let bytes = rec.encode();
        assert_eq!(bytes.len(), PARITY_HEADER_LEN);
        assert_eq!(ParityRecord::decode(&bytes).unwrap(), rec);
    }

    #[test]
    fn every_parity_bit_flip_is_detected() {
        let bytes = sample_parity().encode();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    ParityRecord::decode(&bad).is_err(),
                    "parity flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn parity_truncation_is_typed_before_allocation() {
        let mut bytes = sample_parity().encode();
        // A corrupted member count must fail as Truncated, not allocate.
        bytes[20..24].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            ParityRecord::decode(&bytes),
            Err(FrameError::Truncated { .. })
        ));
        let whole = sample_parity().encode();
        for cut in 0..whole.len() {
            assert!(
                ParityRecord::decode(&whole[..cut]).is_err(),
                "prefix of {cut} bytes went undetected"
            );
        }
    }

    /// A rank-dedup record's contents, owned: what these tests build
    /// records from, and what reading one back copies out.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Contents {
        rank: u32,
        ckpt_id: u32,
        chunk_len: u32,
        orig_len: u64,
        orig_checksum: u64,
        entries: Vec<RankDedupEntry>,
        /// Local entries' bytes, concatenated in table order.
        local: Vec<u8>,
    }

    impl Contents {
        /// Through the one writer, slot by slot.
        fn write(&self) -> Vec<u8> {
            let n = self.entries.len() as u32;
            let mut w = RecordWriter::new(self.rank, self.ckpt_id, self.chunk_len, n);
            let mut at = 0;
            for (i, e) in self.entries.iter().enumerate() {
                match *e {
                    RankDedupEntry::Local { len } => {
                        let bytes = &self.local[at..at + len as usize];
                        assert_eq!(w.local(bytes), i as u32);
                        at += bytes.len();
                    }
                    RankDedupEntry::Remote(r) => w.remote(r),
                }
            }
            w.finish(self.orig_len, self.orig_checksum)
        }

        /// The owned record's `encode` as it was before the writer
        /// replaced it, kept verbatim as the writer's oracle.
        fn encode_reference(&self) -> Vec<u8> {
            let body_len = RANKDEDUP_ENTRY_LEN * self.entries.len() + self.local.len();
            let mut out = Kind::RankDedup.begin(0, RANKDEDUP_HEADER_LEN + body_len);
            out.extend_from_slice(&self.rank.to_le_bytes());
            out.extend_from_slice(&self.ckpt_id.to_le_bytes());
            out.extend_from_slice(&[0u8; 8]); // checksum, patched by `seal`
            out.extend_from_slice(&self.chunk_len.to_le_bytes());
            out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
            out.extend_from_slice(&self.orig_len.to_le_bytes());
            out.extend_from_slice(&self.orig_checksum.to_le_bytes());
            out.extend_from_slice(&(self.local.len() as u64).to_le_bytes());
            for e in &self.entries {
                match e {
                    RankDedupEntry::Local { len } => {
                        out.push(0);
                        out.extend_from_slice(&len.to_le_bytes());
                        out.extend_from_slice(&[0u8; 8]);
                    }
                    RankDedupEntry::Remote(r) => {
                        out.push(1);
                        out.extend_from_slice(&r.owner_rank.to_le_bytes());
                        out.extend_from_slice(&r.ckpt_id.to_le_bytes());
                        out.extend_from_slice(&r.chunk.to_le_bytes());
                    }
                }
            }
            out.extend_from_slice(&self.local);
            Kind::RankDedup.seal(out, rankdedup_seed(self.rank, self.ckpt_id))
        }

        /// [`RecordIndex::parse`], then the table and local bytes copied out.
        fn read(bytes: &[u8]) -> Result<Contents, FrameError> {
            let index = RecordIndex::parse(bytes)?;
            Ok(Contents {
                rank: index.rank,
                ckpt_id: index.ckpt_id,
                chunk_len: index.chunk_len,
                orig_len: index.orig_len,
                orig_checksum: index.orig_checksum,
                entries: index.entries(bytes).collect(),
                local: index.local_region(bytes).to_vec(),
            })
        }
    }

    fn sample_rankdedup() -> Contents {
        Contents {
            rank: 2,
            ckpt_id: 5,
            chunk_len: 64,
            orig_len: 40 + 3 * 64,
            orig_checksum: 0x1122_3344_5566_7788,
            entries: vec![
                RankDedupEntry::Local { len: 40 },
                RankDedupEntry::Remote(RemoteRef {
                    owner_rank: 0,
                    ckpt_id: 5,
                    chunk: 1,
                }),
                RankDedupEntry::Local { len: 64 },
                RankDedupEntry::Remote(RemoteRef {
                    owner_rank: 2,
                    ckpt_id: 5,
                    chunk: 2,
                }),
            ],
            local: (0..104u32).map(|i| (i % 253) as u8).collect(),
        }
    }

    #[test]
    fn rankdedup_record_round_trips() {
        let rec = sample_rankdedup();
        let bytes = rec.write();
        assert_eq!(Kind::sniff(&bytes), Some(Kind::RankDedup));
        assert!(RecordIndex::is_record(&bytes));
        assert!(!RecordIndex::is_record(&sample_parity().encode()));
        assert_eq!(Contents::read(&bytes).unwrap(), rec);
        let index = RecordIndex::parse(&bytes).unwrap();
        let local = index.local_region(&bytes);
        assert_eq!(index.local_slice(local, 0).unwrap(), &rec.local[..40]);
        assert_eq!(index.local_slice(local, 2).unwrap(), &rec.local[40..]);
        assert_eq!(
            index.local_slice(local, 1),
            None,
            "remote entry has no local bytes"
        );
        assert_eq!(index.local_slice(local, 9), None);
        assert_eq!((index.n_entries(), index.n_local()), (4, 2));
        assert_eq!(index.local_len(), 104);
    }

    /// `local_slice` as a walk of the entry table from 0, summing local
    /// lengths: the oracle for the indexed lookup.
    fn local_slice_linear(rec: &Contents, index: u32) -> Option<&[u8]> {
        let mut at = 0usize;
        for (i, e) in rec.entries.iter().enumerate() {
            match e {
                RankDedupEntry::Local { len } => {
                    let len = *len as usize;
                    if i as u32 == index {
                        return rec.local.get(at..at + len);
                    }
                    at += len;
                }
                RankDedupEntry::Remote(_) => {
                    if i as u32 == index {
                        return None;
                    }
                }
            }
        }
        None
    }

    /// Contents with `cells[i]` as entry `i`'s local length, or a remote
    /// entry for `None`; local bytes count up.
    fn contents_of(cells: &[Option<u32>], remote: impl Fn(usize) -> RemoteRef) -> Contents {
        let entries = cells
            .iter()
            .enumerate()
            .map(|(i, cell)| match *cell {
                Some(len) => RankDedupEntry::Local { len },
                None => RankDedupEntry::Remote(remote(i)),
            })
            .collect();
        let local_len: u32 = cells.iter().flatten().sum();
        Contents {
            rank: 3,
            ckpt_id: 4,
            chunk_len: 8,
            orig_len: 0,
            orig_checksum: 0,
            entries,
            local: (0..local_len).map(|i| (i % 251) as u8).collect(),
        }
    }

    /// The index at its word seams: records of 1, 63, 64, 65 and 130
    /// entries, all local, all remote, alternating, and with zero-length
    /// local entries among the rest. Every index answers what the linear
    /// scan does, and `None` past the end and for every remote entry.
    #[test]
    fn index_local_slice_equals_linear_scan_at_word_seams() {
        // Entry `i`'s local length, or `None` for a remote entry.
        type Cell = fn(usize) -> Option<u32>;
        let shapes: [(&str, Cell); 4] = [
            ("all local", |i| Some(1 + i as u32 % 7)),
            ("all remote", |_| None),
            ("alternating", |i| (i % 2 == 0).then_some(3)),
            ("zero-length locals", |i| match i % 3 {
                0 => Some(0),
                1 => Some(5),
                _ => None,
            }),
        ];
        for n in [1usize, 63, 64, 65, 130] {
            for (shape, cell) in shapes {
                let cells: Vec<Option<u32>> = (0..n).map(cell).collect();
                let rec = contents_of(&cells, |i| RemoteRef {
                    owner_rank: 1,
                    ckpt_id: 2,
                    chunk: i as u32,
                });
                let bytes = rec.write();
                let index = RecordIndex::parse(&bytes).unwrap();
                let region = index.local_region(&bytes);
                assert_eq!(region, rec.local, "{shape}, {n} entries");
                assert_eq!(index.n_entries() as usize, n);
                assert!(index.entries(&bytes).eq(rec.entries.iter().copied()));
                for i in (0..n as u32 + 70).chain([u32::MAX]) {
                    let want = local_slice_linear(&rec, i);
                    assert_eq!(
                        index.local_slice(region, i),
                        want,
                        "{shape}, {n} entries, index {i}"
                    );
                    let remote =
                        matches!(rec.entries.get(i as usize), Some(RankDedupEntry::Remote(_)));
                    if remote || i as usize >= n {
                        assert_eq!(want, None);
                    }
                }
            }
        }
    }

    #[test]
    fn empty_rankdedup_record_round_trips() {
        let rec = Contents {
            rank: 0,
            ckpt_id: 0,
            chunk_len: 64,
            orig_len: 0,
            orig_checksum: checksum64(0, 0, &[]),
            entries: Vec::new(),
            local: Vec::new(),
        };
        let bytes = rec.write();
        assert_eq!(bytes.len(), RANKDEDUP_HEADER_LEN);
        assert_eq!(Contents::read(&bytes).unwrap(), rec);
    }

    #[test]
    #[should_panic(expected = "rank-dedup table short")]
    fn a_short_table_is_a_caller_bug() {
        let mut w = RecordWriter::new(0, 0, 64, 2);
        w.local(b"one");
        w.finish(3, 0);
    }

    #[test]
    #[should_panic(expected = "rank-dedup table overfull")]
    fn an_overfull_table_is_a_caller_bug() {
        let mut w = RecordWriter::new(0, 0, 64, 1);
        w.local(b"one");
        w.local(b"two");
    }

    #[test]
    fn every_rankdedup_bit_flip_is_detected() {
        let bytes = sample_rankdedup().write();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    RecordIndex::parse(&bad).is_err(),
                    "rank-dedup flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn rankdedup_truncation_is_typed_before_allocation() {
        let mut bytes = sample_rankdedup().write();
        // A corrupted entry count must fail as Truncated, not allocate.
        bytes[28..32].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            RecordIndex::parse(&bytes),
            Err(FrameError::Truncated { .. })
        ));
        let whole = sample_rankdedup().write();
        for cut in 0..whole.len() {
            assert!(
                RecordIndex::parse(&whole[..cut]).is_err(),
                "prefix of {cut} bytes went undetected"
            );
        }
    }

    #[test]
    fn rankdedup_bad_entry_tag_is_typed() {
        // Forge a record whose checksum covers a corrupt tag byte: the tag
        // error (not the checksum) must surface, typed with the slot index.
        let mut rec = sample_rankdedup();
        rec.entries[1] = RankDedupEntry::Local { len: 0 };
        let mut bytes = rec.write();
        let tag_at = RANKDEDUP_HEADER_LEN + RANKDEDUP_ENTRY_LEN;
        bytes[tag_at] = 7;
        let bytes = resealed(&bytes, RANKDEDUP_VERSION);
        assert_eq!(
            RecordIndex::parse(&bytes).unwrap_err(),
            FrameError::BadEntryTag { index: 1, tag: 7 }
        );
    }

    #[test]
    fn rankdedup_local_sum_mismatch_is_typed() {
        // Local entry lengths that do not add up to the carried bytes are a
        // typed LengthMismatch even under a recomputed checksum.
        let rec = sample_rankdedup();
        let mut bytes = rec.write();
        bytes[RANKDEDUP_HEADER_LEN + 1] = 41;
        let bytes = resealed(&bytes, RANKDEDUP_VERSION);
        assert!(matches!(
            RecordIndex::parse(&bytes),
            Err(FrameError::LengthMismatch { .. })
        ));
    }

    /// `(wire digest, error-taxonomy digest)` of one encoded object: the
    /// bytes themselves, and the `Debug` of `decode`'s result on the intact
    /// object, on every strict prefix and on every single-bit flip.
    fn wire_and_taxonomy(bytes: &[u8], decode: impl Fn(&[u8]) -> String) -> (String, String) {
        use std::fmt::Write;
        let mut log = decode(bytes);
        for cut in 0..bytes.len() {
            writeln!(log, "\ncut {cut}: {}", decode(&bytes[..cut])).unwrap();
        }
        for bit in 0..bytes.len() * 8 {
            let mut bad = bytes.to_vec();
            bad[bit / 8] ^= 1 << (bit % 8);
            writeln!(log, "flip {bit}: {}", decode(&bad)).unwrap();
        }
        (
            murmur3_x64_128(bytes, 0).to_hex(),
            murmur3_x64_128(log.as_bytes(), 0).to_hex(),
        )
    }

    /// The slot the pinned frames are written for and read from.
    const SLOT: Option<(u32, u32)> = Some((1, 2));

    /// The pinned objects as this build's writers write them, in the order
    /// CKF1, CKF1+codec, CKPX, CKPR.
    fn pinned_objects() -> [Vec<u8>; 4] {
        let payload: Vec<u8> = (0..4096u32).map(|i| ((i / 32) % 11) as u8).collect();
        [
            encode_frame(1, 2, b"payload bytes under test"),
            compressed_frame(1, 2, &payload, 1),
            sample_parity().encode(),
            sample_rankdedup().write(),
        ]
    }

    /// The same four objects as the version-1 writers wrote them, kept as
    /// the bytes those writers produced.
    const V1_OBJECTS: [&[u8]; 4] = [
        include_bytes!("../tests/fixtures/v1/ckf1.bin"),
        include_bytes!("../tests/fixtures/v1/ckf1_codec.bin"),
        include_bytes!("../tests/fixtures/v1/ckpx.bin"),
        include_bytes!("../tests/fixtures/v1/ckpr.bin"),
    ];

    /// `Debug` of what the decoder of pinned object `which` makes of
    /// `bytes`.
    fn decoded(which: usize, bytes: &[u8]) -> String {
        match which {
            0 => format!("{:?}", decode_frame(bytes, SLOT)),
            1 => format!("{:?}", decode_payload(bytes, SLOT)),
            2 => format!("{:?}", ParityRecord::decode(bytes)),
            _ => format!("{:?}", RecordIndex::parse(bytes)),
        }
    }

    /// The error the decoder of pinned object `which` gives `bytes`, if
    /// any.
    fn decode_error(which: usize, bytes: &[u8]) -> Option<FrameError> {
        match which {
            0 => decode_frame(bytes, SLOT).err(),
            1 => decode_payload(bytes, SLOT).err(),
            2 => ParityRecord::decode(bytes).err(),
            _ => RecordIndex::parse(bytes).err(),
        }
    }

    /// `object` with its version field rewritten to `version` and nothing
    /// else touched.
    fn with_version(object: &[u8], version: u16) -> Vec<u8> {
        let mut out = object.to_vec();
        out[4..6].copy_from_slice(&version.to_le_bytes());
        out
    }

    /// `object` (of any of the three formats) sealed again as `version`:
    /// the version field rewritten and the checksum recomputed over what
    /// it covers under that version's function and the format's seed.
    fn resealed(object: &[u8], version: u16) -> Vec<u8> {
        let kind = Kind::sniff(object).expect("an object of this module");
        let word = |at: usize| u32::from_le_bytes(object[at..at + 4].try_into().unwrap());
        let seed = match kind {
            Kind::Frame => checksum_seed(word(8), word(12), object[6]),
            Kind::Parity => ParityRecord::seed(word(8), word(12), word(16)),
            Kind::RankDedup => rankdedup_seed(word(8), word(12)),
        };
        let mut out = with_version(object, version);
        let at = kind.checksum_at();
        let sum = sum(version, seed, &out[at + 8..]);
        out[at..at + 8].copy_from_slice(&sum.to_le_bytes());
        out
    }

    /// The version-1 digests were captured at the commit before the three
    /// preludes became one; the CKPR taxonomy digest again when its reader
    /// became `RecordIndex::parse` (of its log, only the intact record's
    /// `Ok(..)` line differs from the owned decode's). They are taken over
    /// the version-1 objects kept as fixtures, so neither the bytes the
    /// version-1 writers wrote nor the `FrameError` any damaged version-1
    /// input decodes to may move. The version-2 pairs pin the current
    /// writers the same way.
    #[test]
    fn wire_bytes_and_error_taxonomy_are_pinned() {
        let pinned = |objects: [&[u8]; 4]| -> Vec<(String, String)> {
            (0..4)
                .map(|which| wire_and_taxonomy(objects[which], |b| decoded(which, b)))
                .collect()
        };
        let as_strings = |want: [(&str, &str); 4]| -> Vec<(String, String)> {
            want.iter()
                .map(|(w, t)| (w.to_string(), t.to_string()))
                .collect()
        };
        let v1 = [
            (
                "ce38465739672c03c4dbcd2b6939264e",
                "4f418289e3fe6df1235ce7df8e9c501d",
            ),
            (
                "410eaec2377951f766cb03ef4865d619",
                "1fc705487eb3ec2e92752d884afafe14",
            ),
            (
                "fe7982cd3e5fe0aa63e95ab68bb56170",
                "8596afa12351ca725184d6f83c91c4ae",
            ),
            (
                "1e5946a8007aafea42185d33a4c5473d",
                "b8a298f6c90945a845e45f3e9b47ae4d",
            ),
        ];
        let v2 = [
            (
                "f34d2874e72c6178799e6b3120ac5028",
                "cab7a547c0ffad1ccceff4cc5cce0100",
            ),
            (
                "326bb960bff90e69ead934f20327c38b",
                "f3274f4fce7f9f02d028d5c4b4118c71",
            ),
            (
                "79108a40216bd40f9e1ca760b1935eaf",
                "e86331be4d563d5d587d6908977783f2",
            ),
            (
                "e6408cdb159032bacce44c5fe145956f",
                "ebc15a20f4a4aefdd8c75bf1abae2aa7",
            ),
        ];
        let order = "order: CKF1, CKF1+codec, CKPX, CKPR";
        assert_eq!(pinned(V1_OBJECTS), as_strings(v1), "version 1, {order}");
        let current = pinned_objects();
        let current = current.each_ref().map(Vec::as_slice);
        assert_eq!(pinned(current), as_strings(v2), "version 2, {order}");
    }

    /// The two versions of a pinned object differ in their version and
    /// checksum fields only: the current object sealed again as version 1
    /// is the version-1 writers' object byte for byte.
    #[test]
    fn versions_differ_in_the_version_and_checksum_only() {
        for (which, current) in pinned_objects().iter().enumerate() {
            assert_eq!(resealed(current, 1), V1_OBJECTS[which], "object {which}");
            assert_eq!(resealed(V1_OBJECTS[which], 2), *current, "object {which}");
        }
    }

    /// A version field rewritten across the two versions — 1 to 2 or 2 to
    /// 1 — leaves the stored checksum one function's while the reader
    /// takes the other's: the object fails `ChecksumMismatch`, never
    /// decodes.
    #[test]
    fn a_forged_version_fails_the_checksum() {
        for (which, current) in pinned_objects().iter().enumerate() {
            for (object, to) in [(V1_OBJECTS[which], 2), (current.as_slice(), 1)] {
                let got = decode_error(which, &with_version(object, to));
                assert!(
                    matches!(got, Some(FrameError::ChecksumMismatch { .. })),
                    "object {which} forged to version {to}: {got:?}"
                );
            }
        }
    }

    /// A record of either version travels in a frame of either version:
    /// the frame returns the record's bytes, which decode to the record.
    #[test]
    fn records_of_either_version_nest_in_frames_of_either() {
        let current = pinned_objects();
        let records = [V1_OBJECTS[2], &current[2], V1_OBJECTS[3], &current[3]];
        for record in records {
            for frame_version in [1, 2] {
                let framed = resealed(&encode_frame(1, 2, record), frame_version);
                let payload = verify_frame(&framed, SLOT).unwrap();
                assert_eq!(payload, record);
                if RecordIndex::is_record(payload) {
                    assert_eq!(Contents::read(payload).unwrap(), sample_rankdedup());
                } else {
                    assert_eq!(ParityRecord::decode(payload).unwrap(), sample_parity());
                }
            }
        }
    }

    /// A record's `orig_checksum` is read under the record's version: the
    /// original payload passes, another payload does not, and the other
    /// version's checksum of the same payload does not either.
    #[test]
    fn the_original_checksum_follows_the_record_version() {
        let payload: Vec<u8> = (0..9_000u32).map(|i| (i % 241) as u8).collect();
        let mut rec = sample_rankdedup();
        for version in [1, 2] {
            rec.orig_checksum = checksum64_region(version, rec.rank, rec.ckpt_id, 0, &payload);
            let bytes = resealed(&rec.write(), version);
            let index = RecordIndex::parse(&bytes).unwrap();
            assert!(index.is_original(&bytes, &payload), "version {version}");
            assert!(
                !index.is_original(&bytes, &payload[1..]),
                "version {version}"
            );
            let other = resealed(&bytes, 3 - version);
            let index = RecordIndex::parse(&other).unwrap();
            assert!(!index.is_original(&other, &payload), "version {version}");
        }
        assert_eq!(
            checksum64(rec.rank, rec.ckpt_id, &payload),
            checksum64_region(RANKDEDUP_VERSION, rec.rank, rec.ckpt_id, 0, &payload)
        );
    }

    /// Only the empty region has one checksum under both functions (both
    /// are the seed's empty digest): a version rewritten on an empty frame
    /// decodes to the same empty payload.
    #[test]
    fn an_empty_region_has_one_checksum_under_both_versions() {
        let framed = encode_frame(4, 5, &[]);
        assert_eq!(resealed(&framed, 1), with_version(&framed, 1));
        assert_eq!(verify_frame(&with_version(&framed, 1), None), Ok(&[][..]));
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Satellite property: flipping any single header byte of a
            /// valid frame — uncompressed or compressed — always fails
            /// verification with a typed error, never a panic and never a
            /// silent success.
            #[test]
            fn flipping_each_header_byte_is_detected(
                payload in proptest::collection::vec(any::<u8>(), 0..2048),
                rank in any::<u32>(),
                ckpt in any::<u32>(),
                codec in prop_oneof![Just(0u8), 1u8..=7],
                flip in any::<u8>(),
            ) {
                prop_assume!(flip != 0);
                let framed = if codec == 0 {
                    encode_frame(rank, ckpt, &payload)
                } else {
                    compressed_frame(rank, ckpt, &payload, codec)
                };
                let header_len = FRAME_HEADER_LEN
                    + if codec != 0 { FRAME_EXT_LEN } else { 0 };
                for byte in 0..header_len.min(framed.len()) {
                    let mut bad = framed.clone();
                    bad[byte] ^= flip;
                    prop_assert!(
                        decode_payload(&bad, Some((rank, ckpt))).is_err(),
                        "header byte {byte} xor {flip:#04x} went undetected"
                    );
                }
            }

            /// A frame resealed as version 1 decodes to what its
            /// version-2 original does; with only its version rewritten,
            /// either way, it fails the checksum.
            #[test]
            fn either_version_decodes_and_a_forged_one_fails(
                payload in proptest::collection::vec(any::<u8>(), 1..20_000),
                rank in any::<u32>(),
                ckpt in any::<u32>(),
                codec in prop_oneof![Just(0u8), 1u8..=7],
            ) {
                let v2 = if codec == 0 {
                    encode_frame(rank, ckpt, &payload)
                } else {
                    compressed_frame(rank, ckpt, &payload, codec)
                };
                let v1 = resealed(&v2, 1);
                let slot = Some((rank, ckpt));
                let (h1, back1) = decode_payload(&v1, slot).unwrap();
                let (h2, back2) = decode_payload(&v2, slot).unwrap();
                prop_assert_eq!(&back1, &payload);
                prop_assert_eq!(&back2, &payload);
                prop_assert_eq!(
                    (h1.codec, h1.payload_len, h1.uncompressed_len),
                    (h2.codec, h2.payload_len, h2.uncompressed_len)
                );
                for forged in [with_version(&v1, 2), with_version(&v2, 1)] {
                    prop_assert!(matches!(
                        decode_frame(&forged, slot),
                        Err(FrameError::ChecksumMismatch { .. })
                    ));
                }
            }

            #[test]
            fn compressed_frames_roundtrip(
                payload in proptest::collection::vec(any::<u8>(), 0..4096),
                codec in 1u8..=7,
            ) {
                let framed = compressed_frame(5, 9, &payload, codec);
                let (header, back) = decode_payload(&framed, Some((5, 9))).unwrap();
                prop_assert_eq!(header.codec, codec);
                prop_assert_eq!(back, payload);
            }

            /// Fuzz: feeding arbitrary byte strings to every parser in
            /// this module never panics — each either succeeds (the fuzzer
            /// stumbled on a valid object, which the checksums make
            /// astronomically unlikely) or returns a typed [`FrameError`].
            #[test]
            fn arbitrary_bytes_never_panic_any_parser(
                bytes in proptest::collection::vec(any::<u8>(), 0..512),
            ) {
                let _ = decode_frame(&bytes, None);
                let _ = decode_payload(&bytes, Some((1, 2)));
                let _ = ParityRecord::decode(&bytes);
                let _ = RecordIndex::parse(&bytes);
            }

            /// Fuzz: arbitrary bytes *behind valid magic* still land in the
            /// typed taxonomy — the header fields themselves are hostile.
            #[test]
            fn arbitrary_bytes_with_valid_magic_never_panic(
                tail in proptest::collection::vec(any::<u8>(), 0..256),
                which in 0usize..3,
            ) {
                let magic: &[u8; 4] = match which {
                    0 => &FRAME_MAGIC,
                    1 => &PARITY_MAGIC,
                    _ => &RANKDEDUP_MAGIC,
                };
                let mut bytes = magic.to_vec();
                bytes.extend_from_slice(&tail);
                prop_assert!(decode_frame(&bytes, None).is_err() || which == 0);
                prop_assert!(ParityRecord::decode(&bytes).is_err() || which == 1);
                prop_assert!(RecordIndex::parse(&bytes).is_err() || which == 2);
            }

            /// Fuzz: truncating a *valid* object of any of the three
            /// formats at every offset is always a typed error, never a
            /// panic and never a silent success.
            #[test]
            fn truncation_at_every_offset_is_typed(
                payload in proptest::collection::vec(any::<u8>(), 1..512),
                rank in 0u32..8,
                ckpt in 0u32..8,
                codec in prop_oneof![Just(0u8), 1u8..=7],
            ) {
                let framed = if codec == 0 {
                    encode_frame(rank, ckpt, &payload)
                } else {
                    compressed_frame(rank, ckpt, &payload, codec)
                };
                for cut in 0..framed.len() {
                    prop_assert!(decode_frame(&framed[..cut], None).is_err());
                }

                let parity = ParityRecord {
                    group: rank,
                    stripe: 1,
                    ckpt_id: ckpt,
                    members: vec![ParityMember {
                        rank,
                        codec,
                        uncompressed_len: payload.len() as u64,
                        stored_len: payload.len() as u64,
                        chunk_len: 64,
                        checksum: checksum64(rank, ckpt, &payload),
                    }],
                    parity: payload.clone(),
                }
                .encode();
                for cut in 0..parity.len() {
                    prop_assert!(ParityRecord::decode(&parity[..cut]).is_err());
                }

                let half = payload.len() / 2;
                let dedup = Contents {
                    rank,
                    ckpt_id: ckpt,
                    chunk_len: 64,
                    orig_len: payload.len() as u64,
                    orig_checksum: checksum64(rank, ckpt, &payload),
                    entries: vec![
                        RankDedupEntry::Local { len: half as u32 },
                        RankDedupEntry::Remote(RemoteRef {
                            owner_rank: rank ^ 1,
                            ckpt_id: ckpt,
                            chunk: 0,
                        }),
                        RankDedupEntry::Local {
                            len: (payload.len() - half) as u32,
                        },
                    ],
                    local: payload.clone(),
                }
                .write();
                for cut in 0..dedup.len() {
                    prop_assert!(RecordIndex::parse(&dedup[..cut]).is_err());
                }
            }
        }

        /// A record's table, drawn from `seed`: `n` entries shaped by
        /// `shape` (0 random, 1 all local, 2 all remote, 3 alternating),
        /// local lengths from 0 up, reference fields and `orig_len` now and
        /// then at `u32::MAX`.
        fn drawn(seed: u64, n: usize, shape: u8) -> Contents {
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let field = |r: u64| match r % 4 {
                0 => u32::MAX,
                1 => 0,
                _ => (r >> 8) as u32 % 1_000,
            };
            let cells: Vec<Option<u32>> = (0..n)
                .map(|i| {
                    let r = next();
                    let local = match shape {
                        1 => true,
                        2 => false,
                        3 => i % 2 == 0,
                        _ => r & 1 == 0,
                    };
                    local.then_some((r >> 1) as u32 % 40)
                })
                .collect();
            let refs: Vec<RemoteRef> = (0..n)
                .map(|_| RemoteRef {
                    owner_rank: field(next()),
                    ckpt_id: field(next()),
                    chunk: field(next()),
                })
                .collect();
            let mut rec = contents_of(&cells, |i| refs[i]);
            rec.rank = field(next());
            rec.ckpt_id = field(next());
            rec.orig_len = match next() % 3 {
                0 => u32::MAX as u64,
                1 => u64::MAX,
                r => r << 20,
            };
            rec.orig_checksum = next();
            rec
        }

        proptest! {
            /// The writer against the owned encoder it replaced: the same
            /// bytes for any table, and `parse` reads back the same entries
            /// and every local entry's bytes.
            #[test]
            fn writer_writes_what_the_reference_encoder_wrote(
                seed in any::<u64>(),
                n in prop_oneof![0usize..=200, Just(63usize), Just(64), Just(65)],
                shape in 0u8..4,
            ) {
                let rec = drawn(seed, n, shape);
                let bytes = rec.write();
                prop_assert_eq!(&bytes, &rec.encode_reference());
                let index = RecordIndex::parse(&bytes).unwrap();
                prop_assert!(index.entries(&bytes).eq(rec.entries.iter().copied()));
                let region = index.local_region(&bytes);
                for i in 0..n as u32 + 2 {
                    prop_assert_eq!(index.local_slice(region, i), local_slice_linear(&rec, i));
                }
                prop_assert_eq!(Contents::read(&bytes).unwrap(), rec);
            }

            /// The offset table answers exactly what the linear scan does,
            /// for every in-range index (local, zero-length local, remote)
            /// and out-of-range ones.
            #[test]
            fn indexed_local_slice_equals_linear_scan(
                cells in proptest::collection::vec((any::<bool>(), 0u32..48), 0..64),
                far in any::<u32>(),
            ) {
                let cells: Vec<Option<u32>> =
                    cells.iter().map(|&(remote, len)| (!remote).then_some(len)).collect();
                let rec = contents_of(&cells, |i| RemoteRef {
                    owner_rank: i as u32 * 7,
                    ckpt_id: i as u32,
                    chunk: i as u32 ^ 5,
                });
                let bytes = rec.write();
                prop_assert_eq!(&Contents::read(&bytes).unwrap(), &rec);
                let index = RecordIndex::parse(&bytes).unwrap();
                let region = index.local_region(&bytes);
                let n = cells.len() as u32;
                for i in (0..n + 8).chain([far, u32::MAX]) {
                    prop_assert_eq!(index.local_slice(region, i), local_slice_linear(&rec, i));
                }
            }
        }
    }
}
