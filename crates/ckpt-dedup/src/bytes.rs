//! [`Bytes`]: an immutable byte buffer that is shared, not copied.
//!
//! A record's bytes are allocated once — when its frame is minted — and
//! from then on every holder (each tier's object map, a `StoredObject` on
//! its way down the chain, the `Diff` a restore feeds the engine) holds a
//! reference-counted view of that one allocation: a clone is a count bump,
//! a [`slice`](Bytes::slice) is a count bump plus a range. Nothing can
//! write through a view, which is what lets tiers share a frame without
//! one tier's damage reaching another's copy.

use std::ops::{Deref, Range};
use std::sync::Arc;

/// A cheaply cloneable, immutable view of a shared byte buffer.
#[derive(Clone, Default)]
pub struct Bytes {
    /// `Arc<Vec<u8>>`, not `Arc<[u8]>`: adopting a `Vec` moves its three
    /// words into the `Arc`, where `Arc<[u8]>::from(vec)` copies the bytes.
    buf: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// A view of `range` of this view (positions relative to it), sharing
    /// the buffer. Panics when the range does not lie inside the view, as
    /// slicing does.
    pub fn slice(&self, range: Range<usize>) -> Bytes {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "range {range:?} outside a view of {} bytes",
            self.len()
        );
        Bytes {
            buf: Arc::clone(&self.buf),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// Do both views show the same bytes of the same allocation? (Equality
    /// compares contents; this tells a shared frame from an equal copy.)
    pub fn shares_with(&self, other: &Bytes) -> bool {
        Arc::ptr_eq(&self.buf, &other.buf) && (self.start, self.end) == (other.start, other.end)
    }
}

impl From<Vec<u8>> for Bytes {
    /// Adopt `buf` without copying it.
    fn from(buf: Vec<u8>) -> Bytes {
        let end = buf.len();
        Bytes {
            buf: Arc::new(buf),
            start: 0,
            end,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        **self == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == **other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adopting_a_vec_keeps_its_allocation() {
        let v = vec![7u8; 4096];
        let at = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), at);
        assert_eq!(b.len(), 4096);
    }

    #[test]
    fn slices_share_and_compare_by_content() {
        let b = Bytes::from((0..100u8).collect::<Vec<u8>>());
        let s = b.slice(10..20);
        assert_eq!(s, (10..20u8).collect::<Vec<u8>>());
        assert_eq!(s.as_ptr(), b[10..].as_ptr());
        let ss = s.slice(2..4);
        assert_eq!(ss, [12u8, 13][..]);
        assert!(ss.shares_with(&b.slice(12..14)));
        // Equal bytes elsewhere are equal, not shared.
        let copy = Bytes::from(vec![12u8, 13]);
        assert_eq!(ss, copy);
        assert!(!ss.shares_with(&copy));
        assert_eq!(Bytes::default().len(), 0);
        assert_eq!(b.slice(100..100).len(), 0);
    }

    #[test]
    #[should_panic(expected = "outside a view")]
    fn slicing_past_the_view_panics() {
        Bytes::from(vec![0u8; 8]).slice(4..8).slice(2..5);
    }
}
