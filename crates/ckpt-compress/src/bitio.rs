//! Bit-granular readers and writers (LSB-first), shared by the Huffman and
//! bit-packing codecs.

use crate::CorruptStream;

/// Writes bits LSB-first into a byte vector.
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    /// Bits accumulated but not yet flushed (low bits are oldest).
    acc: u64,
    /// Number of valid bits in `acc` (< 8 after every `push`).
    n_bits: u32,
}

impl BitWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append the low `n` bits of `value` (`n ≤ 57`).
    #[inline]
    pub fn write(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 57);
        debug_assert!(
            n == 64 || value < (1u64 << n),
            "value {value} exceeds {n} bits"
        );
        self.acc |= value << self.n_bits;
        self.n_bits += n;
        while self.n_bits >= 8 {
            self.out.push(self.acc as u8);
            self.acc >>= 8;
            self.n_bits -= 8;
        }
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.out.len() * 8 + self.n_bits as usize
    }

    /// Flush the tail bits (zero-padded) and return the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        if self.n_bits > 0 {
            self.out.push(self.acc as u8);
        }
        self.out
    }
}

/// Reads bits LSB-first from a byte slice.
#[derive(Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Next byte to load.
    pos: usize,
    acc: u64,
    n_bits: u32,
}

impl<'a> BitReader<'a> {
    pub fn new(data: &'a [u8]) -> Self {
        BitReader {
            data,
            pos: 0,
            acc: 0,
            n_bits: 0,
        }
    }

    #[inline]
    fn refill(&mut self) {
        while self.n_bits <= 56 && self.pos < self.data.len() {
            self.acc |= (self.data[self.pos] as u64) << self.n_bits;
            self.pos += 1;
            self.n_bits += 8;
        }
    }

    /// Read `n ≤ 57` bits. Bits past the end of the stream read as zero only
    /// within the final partial byte; reading past the padded end errors.
    #[inline]
    pub fn read(&mut self, n: u32) -> Result<u64, CorruptStream> {
        debug_assert!(n <= 57);
        self.refill();
        if self.n_bits < n {
            return Err(CorruptStream("bit stream exhausted"));
        }
        let v = if n == 0 {
            0
        } else {
            self.acc & ((1u64 << n) - 1)
        };
        self.acc >>= n;
        self.n_bits -= n;
        Ok(v)
    }

    /// Peek up to `n ≤ 57` bits without consuming (missing bits read as 0).
    #[inline]
    pub fn peek(&mut self, n: u32) -> u64 {
        self.refill();
        if n == 0 {
            return 0;
        }
        self.acc & ((1u64 << n) - 1)
    }

    /// Consume `n` bits previously peeked.
    #[inline]
    pub fn consume(&mut self, n: u32) -> Result<(), CorruptStream> {
        if self.n_bits < n {
            return Err(CorruptStream("bit stream exhausted"));
        }
        self.acc >>= n;
        self.n_bits -= n;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_various_widths() {
        let mut w = BitWriter::new();
        let values: Vec<(u64, u32)> = vec![
            (1, 1),
            (0, 1),
            (0b101, 3),
            (0xff, 8),
            (0x1234, 16),
            (0, 5),
            (0x1f_ffff_ffff, 37),
            (1, 1),
        ];
        for &(v, n) in &values {
            w.write(v, n);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &values {
            assert_eq!(r.read(n).unwrap(), v, "width {n}");
        }
    }

    #[test]
    fn exhaustion_errors() {
        let mut w = BitWriter::new();
        w.write(0b1011, 4);
        let bytes = w.finish(); // one byte: 4 data bits + 4 pad bits
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read(4).unwrap(), 0b1011);
        assert_eq!(r.read(4).unwrap(), 0); // padding readable as zeros
        assert!(r.read(1).is_err());
    }

    #[test]
    fn peek_consume() {
        let mut w = BitWriter::new();
        w.write(0xABCD, 16);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.peek(8), 0xCD);
        r.consume(8).unwrap();
        assert_eq!(r.peek(8), 0xAB);
        r.consume(8).unwrap();
        assert!(r.consume(1).is_err());
    }

    #[test]
    fn bit_len_tracks_writes() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write(1, 3);
        assert_eq!(w.bit_len(), 3);
        w.write(0x7f, 7);
        assert_eq!(w.bit_len(), 10);
    }

    #[test]
    fn long_stream_round_trip() {
        let mut w = BitWriter::new();
        for i in 0..10_000u64 {
            w.write(i % 32, 5);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for i in 0..10_000u64 {
            assert_eq!(r.read(5).unwrap(), i % 32);
        }
    }
}
