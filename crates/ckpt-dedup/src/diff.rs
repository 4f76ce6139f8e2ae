//! The serialized incremental-checkpoint ("diff") format.
//!
//! One diff is produced per checkpoint. It packs, in order: a fixed header,
//! method-specific metadata (region tables or a chunk bitmap), and the raw
//! payload of first-occurrence data. The paper's pipeline assembles exactly
//! this object in GPU memory so a single device-to-host transfer moves it
//! (§2.1 "efficient combined serialization of metadata and unique chunks");
//! our encoding is the host-side materialization of that object.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic      [u8;4] = b"GDCD"
//! version    u16
//! kind       u8            (Full / Basic / List / Tree)
//! reserved   u8 = 0
//! ckpt_id    u32
//! data_len   u64
//! chunk_size u32
//! n_first    u32           (regions / changed chunks)
//! n_shift    u32
//! payload_len u64
//! -- kind-specific metadata --
//! Basic:       bitmap of ceil(n_chunks/8) bytes, bit c = chunk c changed
//! List / Tree: n_first × u32 node ids,
//!              n_shift × (u32 node, u32 ref_node, u32 ref_ckpt)
//! Full:        none
//! -- payload: payload_len bytes --
//! ```

use crate::bytes::Bytes;
use crate::chunking::Chunking;
use crate::util::LeReader;
use std::ops::Range;

/// Which checkpointing method produced a diff.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum MethodKind {
    /// Always store the full buffer.
    Full = 0,
    /// Hash chunks, compare with the previous checkpoint position-wise,
    /// store a bitmap plus changed chunks.
    Basic = 1,
    /// Hash chunks against the whole historical record but store one
    /// metadata entry per non-fixed chunk (no compaction).
    List = 2,
    /// The paper's method: Merkle-tree compacted metadata.
    Tree = 3,
}

impl MethodKind {
    pub fn from_u8(v: u8) -> Option<MethodKind> {
        match v {
            0 => Some(MethodKind::Full),
            1 => Some(MethodKind::Basic),
            2 => Some(MethodKind::List),
            3 => Some(MethodKind::Tree),
            _ => None,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            MethodKind::Full => "Full",
            MethodKind::Basic => "Basic",
            MethodKind::List => "List",
            MethodKind::Tree => "Tree",
        }
    }

    /// Inverse of [`name`](Self::name), ignoring ASCII case (`tree` on a
    /// command line, `Tree` in a report).
    pub fn from_name(name: &str) -> Option<MethodKind> {
        (0..4)
            .filter_map(MethodKind::from_u8)
            .find(|k| k.name().eq_ignore_ascii_case(name))
    }
}

/// A shifted-duplicate region: `node`'s data equals the data that first
/// occurred at `ref_node` of checkpoint `ref_ckpt`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShiftRegion {
    pub node: u32,
    pub ref_node: u32,
    pub ref_ckpt: u32,
}

const MAGIC: [u8; 4] = *b"GDCD";
const VERSION: u16 = 1;
const HEADER_BYTES: usize = 4 + 2 + 1 + 1 + 4 + 8 + 4 + 4 + 4 + 8;

/// A decoded (or not-yet-encoded) incremental checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diff {
    pub kind: MethodKind,
    pub ckpt_id: u32,
    /// Length of the original checkpoint buffer.
    pub data_len: u64,
    pub chunk_size: u32,
    /// First-occurrence region roots (node ids), in payload order.
    /// Unused by `Full`; for `Basic` the changed chunks are implied by the
    /// bitmap and this stays empty.
    pub first_regions: Vec<u32>,
    /// Shifted-duplicate regions. Empty for `Full`/`Basic`.
    pub shift_regions: Vec<ShiftRegion>,
    /// `Basic` only: changed-chunk bitmap.
    pub bitmap: Bytes,
    /// Raw bytes of the first-occurrence regions, concatenated in table
    /// order (`Basic`: changed chunks in ascending chunk order; `Full`: the
    /// entire buffer). A decoded diff's bitmap and payload are views of
    /// the record they were parsed from (see [`Diff::decode_shared`]).
    pub payload: Bytes,
}

/// Errors from [`Diff::decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    TooShort,
    BadMagic,
    BadVersion(u16),
    BadKind(u8),
    LengthMismatch {
        expected: usize,
        actual: usize,
    },
    /// `(data_len, chunk_size)` with an empty buffer or a chunk size below
    /// [`Chunking::MIN_CHUNK_SIZE`]: no checkpointer produces one and no
    /// restore path can chunk it.
    BadGeometry(u64, u32),
    /// `(node, n_nodes)`: a region table names a node outside the
    /// `2·n_chunks − 1` nodes of the geometry's tree.
    NodeOutOfRange(u32, u64),
    /// The header's reserved byte is not 0. Records once stored a payload
    /// codec there; compression now happens only at the flush stage.
    Reserved(u8),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::TooShort => write!(f, "buffer too short for diff header"),
            DecodeError::BadMagic => write!(f, "bad magic bytes"),
            DecodeError::BadVersion(v) => write!(f, "unsupported diff version {v}"),
            DecodeError::BadKind(k) => write!(f, "unknown method kind {k}"),
            DecodeError::LengthMismatch { expected, actual } => {
                write!(f, "diff length mismatch: expected {expected}, got {actual}")
            }
            DecodeError::BadGeometry(len, chunk) => {
                write!(f, "bad geometry: {len} bytes in chunks of {chunk}")
            }
            DecodeError::NodeOutOfRange(node, n_nodes) => {
                write!(f, "region node {node} outside a tree of {n_nodes} nodes")
            }
            DecodeError::Reserved(v) => write!(f, "reserved header byte is {v}, not 0"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl Diff {
    /// Number of chunks in the original buffer.
    pub fn n_chunks(&self) -> usize {
        (self.data_len as usize).div_ceil(self.chunk_size as usize)
    }

    /// Bytes of metadata (everything except the payload and the fixed
    /// header). This is the quantity the paper's compaction minimizes.
    pub fn metadata_bytes(&self) -> usize {
        self.first_regions.len() * 4 + self.shift_regions.len() * 12 + self.bitmap.len()
    }

    /// Total size of the encoded diff in bytes — the "incremental checkpoint
    /// size" used for de-duplication ratios.
    pub fn stored_bytes(&self) -> usize {
        HEADER_BYTES + self.metadata_bytes() + self.payload.len()
    }

    /// Byte offset at which the first-occurrence payload starts inside a
    /// valid encoded diff, without decoding the tables. `None` when `buf`
    /// is not a structurally valid diff. The cluster dedup index uses this
    /// to start its chunk grid at the payload — metadata prefixes differ
    /// per rank, but payload bytes of replicated regions align.
    pub fn payload_offset(buf: &[u8]) -> Option<usize> {
        let (h, _) = Header::read(buf).ok()?;
        Some(h.total_len - h.payload_len)
    }

    /// Serialize to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.stored_bytes());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.push(self.kind as u8);
        out.push(0);
        out.extend_from_slice(&self.ckpt_id.to_le_bytes());
        out.extend_from_slice(&self.data_len.to_le_bytes());
        out.extend_from_slice(&self.chunk_size.to_le_bytes());
        out.extend_from_slice(&(self.first_regions.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.shift_regions.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        match self.kind {
            MethodKind::Full => {}
            MethodKind::Basic => out.extend_from_slice(&self.bitmap),
            MethodKind::List | MethodKind::Tree => {
                for &n in &self.first_regions {
                    out.extend_from_slice(&n.to_le_bytes());
                }
                for s in &self.shift_regions {
                    out.extend_from_slice(&s.node.to_le_bytes());
                    out.extend_from_slice(&s.ref_node.to_le_bytes());
                    out.extend_from_slice(&s.ref_ckpt.to_le_bytes());
                }
            }
        }
        out.extend_from_slice(&self.payload);
        debug_assert_eq!(out.len(), self.stored_bytes());
        out
    }

    /// Deserialize from bytes. A decoded diff is safe to hand to any
    /// restore path: its geometry can be chunked and every region-table
    /// node id lies inside the geometry's tree. Parse-then-own, for callers
    /// that hold only a slice: bitmap and payload are copied out of `buf`.
    pub fn decode(buf: &[u8]) -> Result<Diff, DecodeError> {
        Self::parse(buf, |section| Bytes::from(buf[section].to_vec()))
    }

    /// [`decode`](Self::decode) of a shared record: bitmap and payload are
    /// views of `record`, so decoding moves no payload byte.
    pub fn decode_shared(record: &Bytes) -> Result<Diff, DecodeError> {
        Self::parse(record, |section| record.slice(section))
    }

    /// The one parser: header, tables, and the two byte sections handed to
    /// `take` as ranges of `buf`.
    fn parse(buf: &[u8], take: impl Fn(Range<usize>) -> Bytes) -> Result<Diff, DecodeError> {
        let (h, mut r) = Header::read(buf)?;
        // `Header::read` checked the sections against the buffer, so none
        // of the reads below can underrun.
        let underrun = || DecodeError::LengthMismatch {
            expected: h.total_len,
            actual: buf.len(),
        };
        let n_nodes = 2 * h.data_len.div_ceil(h.chunk_size as u64) - 1;
        let in_tree = |node: Option<u32>| {
            let node = node.ok_or_else(underrun)?;
            if (node as u64) < n_nodes {
                Ok(node)
            } else {
                Err(DecodeError::NodeOutOfRange(node, n_nodes))
            }
        };
        let bitmap = take(HEADER_BYTES..HEADER_BYTES + h.bitmap_len);
        r.take(h.bitmap_len).ok_or_else(underrun)?;
        let mut first_regions = Vec::with_capacity(h.n_first);
        for _ in 0..h.n_first {
            first_regions.push(in_tree(r.u32())?);
        }
        let mut shift_regions = Vec::with_capacity(h.n_shift);
        for _ in 0..h.n_shift {
            shift_regions.push(ShiftRegion {
                node: in_tree(r.u32())?,
                ref_node: in_tree(r.u32())?,
                ref_ckpt: r.u32().ok_or_else(underrun)?,
            });
        }
        Ok(Diff {
            kind: h.kind,
            ckpt_id: h.ckpt_id,
            data_len: h.data_len,
            chunk_size: h.chunk_size,
            first_regions,
            shift_regions,
            bitmap,
            payload: take(h.total_len - h.payload_len..h.total_len),
        })
    }
}

/// The fixed header of an encoded diff, checked against the buffer it
/// heads: the section lengths it announces add up to exactly the buffer.
struct Header {
    kind: MethodKind,
    ckpt_id: u32,
    data_len: u64,
    chunk_size: u32,
    /// Region-table entry counts (`List`/`Tree`; 0 for the other kinds,
    /// which carry no tables whatever the header says).
    n_first: usize,
    n_shift: usize,
    /// Bitmap bytes (`Basic` only).
    bitmap_len: usize,
    payload_len: usize,
    /// Header + metadata + payload.
    total_len: usize,
}

impl Header {
    /// Parse and check the header of `buf`; the returned reader stands at
    /// the first metadata byte.
    fn read(buf: &[u8]) -> Result<(Header, LeReader<'_>), DecodeError> {
        let mut r = LeReader::new(buf);
        let magic = r.take(MAGIC.len()).ok_or(DecodeError::TooShort)?;
        let version = r.u16().ok_or(DecodeError::TooShort)?;
        let kind = r.u8().ok_or(DecodeError::TooShort)?;
        let reserved = r.u8().ok_or(DecodeError::TooShort)?;
        let ckpt_id = r.u32().ok_or(DecodeError::TooShort)?;
        let data_len = r.u64().ok_or(DecodeError::TooShort)?;
        let chunk_size = r.u32().ok_or(DecodeError::TooShort)?;
        let n_first = r.u32().ok_or(DecodeError::TooShort)? as usize;
        let n_shift = r.u32().ok_or(DecodeError::TooShort)? as usize;
        let payload_len = r.u64().ok_or(DecodeError::TooShort)? as usize;
        if magic != MAGIC {
            return Err(DecodeError::BadMagic);
        }
        if version != VERSION {
            return Err(DecodeError::BadVersion(version));
        }
        let kind = MethodKind::from_u8(kind).ok_or(DecodeError::BadKind(kind))?;
        if reserved != 0 {
            return Err(DecodeError::Reserved(reserved));
        }
        if data_len == 0 || (chunk_size as usize) < Chunking::MIN_CHUNK_SIZE {
            return Err(DecodeError::BadGeometry(data_len, chunk_size));
        }
        let n_chunks = (data_len as usize).div_ceil(chunk_size as usize);
        let (bitmap_len, n_first, n_shift) = match kind {
            MethodKind::Full => (0, 0, 0),
            MethodKind::Basic => (n_chunks.div_ceil(8), 0, 0),
            MethodKind::List | MethodKind::Tree => (0, n_first, n_shift),
        };
        // Saturating: a forged length can only fail the comparison.
        let total_len =
            (HEADER_BYTES + bitmap_len + n_first * 4 + n_shift * 12).saturating_add(payload_len);
        if buf.len() != total_len {
            return Err(DecodeError::LengthMismatch {
                expected: total_len,
                actual: buf.len(),
            });
        }
        let header = Header {
            kind,
            ckpt_id,
            data_len,
            chunk_size,
            n_first,
            n_shift,
            bitmap_len,
            payload_len,
            total_len,
        };
        Ok((header, r))
    }
}

/// Bitmap helpers used by the `Basic` method.
pub mod bitmap {
    /// Set bit `i` in `bits`.
    #[inline]
    pub fn set(bits: &mut [u8], i: usize) {
        bits[i / 8] |= 1 << (i % 8);
    }

    /// Read bit `i` of `bits`.
    #[inline]
    pub fn get(bits: &[u8], i: usize) -> bool {
        bits[i / 8] & (1 << (i % 8)) != 0
    }

    /// Bytes needed for `n` bits.
    #[inline]
    pub fn bytes_for(n: usize) -> usize {
        n.div_ceil(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree_diff() -> Diff {
        Diff {
            kind: MethodKind::Tree,
            ckpt_id: 3,
            data_len: 1000,
            chunk_size: 64,
            first_regions: vec![1, 12],
            shift_regions: vec![ShiftRegion {
                node: 6,
                ref_node: 3,
                ref_ckpt: 0,
            }],
            bitmap: Default::default(),
            payload: vec![0xab; 192].into(),
        }
    }

    #[test]
    fn tree_diff_round_trip() {
        let d = sample_tree_diff();
        let bytes = d.encode();
        assert_eq!(bytes.len(), d.stored_bytes());
        assert_eq!(Diff::decode(&bytes).unwrap(), d);
    }

    #[test]
    fn full_diff_round_trip() {
        let d = Diff {
            kind: MethodKind::Full,
            ckpt_id: 0,
            data_len: 100,
            chunk_size: 64,
            first_regions: Vec::new(),
            shift_regions: Vec::new(),
            bitmap: Default::default(),
            payload: Vec::from_iter(0..100u8).into(),
        };
        assert_eq!(Diff::decode(&d.encode()).unwrap(), d);
    }

    #[test]
    fn basic_diff_round_trip() {
        let n_chunks = 10usize;
        let mut bm = vec![0u8; bitmap::bytes_for(n_chunks)];
        bitmap::set(&mut bm, 0);
        bitmap::set(&mut bm, 9);
        let d = Diff {
            kind: MethodKind::Basic,
            ckpt_id: 2,
            data_len: 640,
            chunk_size: 64,
            first_regions: Vec::new(),
            shift_regions: Vec::new(),
            bitmap: bm.into(),
            payload: vec![1u8; 128].into(),
        };
        let back = Diff::decode(&d.encode()).unwrap();
        assert_eq!(back, d);
        assert!(bitmap::get(&back.bitmap, 0));
        assert!(!bitmap::get(&back.bitmap, 5));
        assert!(bitmap::get(&back.bitmap, 9));
    }

    #[test]
    fn forged_payload_length_is_a_typed_mismatch_not_an_overflow() {
        // payload_len = u64::MAX used to overflow the expected-length sum.
        let mut bytes = sample_tree_diff().encode();
        bytes[32..40].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            Diff::decode(&bytes),
            Err(DecodeError::LengthMismatch { .. })
        ));
        assert_eq!(Diff::payload_offset(&bytes), None);
    }

    /// Forge every geometry field and every region-table node id of a
    /// valid diff to each boundary value: what no restore path can chunk
    /// or index is a typed error here, and whatever still decodes is safe
    /// to chunk and has every node inside its tree.
    #[test]
    fn forged_geometry_and_node_ids_are_typed_errors() {
        let d = sample_tree_diff();
        let bytes = d.encode();
        let n_nodes = 2 * d.n_chunks() as u32 - 1;
        let min = Chunking::MIN_CHUNK_SIZE as u32;
        let forged = [0, min - 1, n_nodes, u32::MAX];

        // (field offset, width): data_len u64 @12, chunk_size u32 @20.
        for (at, width) in [(12, 8), (20, 4)] {
            for v in forged {
                let mut b = bytes.clone();
                b[at..at + width].copy_from_slice(&(v as u64).to_le_bytes()[..width]);
                match Diff::decode(&b) {
                    Ok(got) => {
                        let ck = Chunking::new(got.data_len as usize, got.chunk_size as usize);
                        let nodes = got
                            .first_regions
                            .iter()
                            .copied()
                            .chain(got.shift_regions.iter().flat_map(|s| [s.node, s.ref_node]));
                        for node in nodes {
                            assert!((node as usize) < 2 * ck.n_chunks() - 1, "@{at}={v}");
                        }
                    }
                    Err(e) => assert!(
                        matches!(
                            e,
                            DecodeError::BadGeometry(..)
                                | DecodeError::NodeOutOfRange(..)
                                | DecodeError::LengthMismatch { .. }
                        ),
                        "@{at}={v}: {e}"
                    ),
                }
            }
        }
        for (at, width, v) in [(12, 8, 0), (20, 4, 0), (20, 4, min - 1)] {
            let mut b = bytes.clone();
            b[at..at + width].copy_from_slice(&(v as u64).to_le_bytes()[..width]);
            assert!(
                matches!(Diff::decode(&b), Err(DecodeError::BadGeometry(..))),
                "@{at}={v}"
            );
        }

        // Node ids: two first regions, then the shift's node and ref_node.
        for at in [40, 44, 48, 52] {
            for v in forged {
                let mut b = bytes.clone();
                b[at..at + 4].copy_from_slice(&v.to_le_bytes());
                let got = Diff::decode(&b);
                if v < n_nodes {
                    assert!(got.is_ok(), "node @{at}={v}: {got:?}");
                } else {
                    assert_eq!(
                        got,
                        Err(DecodeError::NodeOutOfRange(v, n_nodes as u64)),
                        "node @{at}={v}"
                    );
                }
            }
        }
        assert_eq!(Diff::decode(&bytes).unwrap(), d, "valid bytes still decode");
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(Diff::decode(&[]), Err(DecodeError::TooShort));
        let mut bytes = sample_tree_diff().encode();
        bytes[0] = b'X';
        assert_eq!(Diff::decode(&bytes), Err(DecodeError::BadMagic));

        let mut bytes = sample_tree_diff().encode();
        bytes[4] = 99;
        assert!(matches!(
            Diff::decode(&bytes),
            Err(DecodeError::BadVersion(99))
        ));

        let mut bytes = sample_tree_diff().encode();
        bytes[6] = 7;
        assert_eq!(Diff::decode(&bytes), Err(DecodeError::BadKind(7)));

        let mut bytes = sample_tree_diff().encode();
        bytes[7] = 3;
        assert_eq!(Diff::decode(&bytes), Err(DecodeError::Reserved(3)));
        assert_eq!(Diff::payload_offset(&bytes), None);

        let mut bytes = sample_tree_diff().encode();
        bytes.pop();
        assert!(matches!(
            Diff::decode(&bytes),
            Err(DecodeError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn metadata_accounting() {
        let d = sample_tree_diff();
        assert_eq!(d.metadata_bytes(), 2 * 4 + 12);
        assert_eq!(d.stored_bytes(), 40 + 20 + 192);
    }

    #[test]
    fn bitmap_helpers() {
        let mut b = vec![0u8; bitmap::bytes_for(17)];
        assert_eq!(b.len(), 3);
        for i in [0, 7, 8, 16] {
            bitmap::set(&mut b, i);
        }
        for i in 0..17 {
            assert_eq!(bitmap::get(&b, i), [0, 7, 8, 16].contains(&i));
        }
    }
}
