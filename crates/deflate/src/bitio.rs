//! LSB-first bit IO as required by RFC 1951.
//!
//! DEFLATE packs data elements starting at the least significant bit of each
//! byte. Huffman codes are packed "most significant bit of the code first",
//! which in this scheme means codes are emitted bit-reversed — the
//! [`reverse_bits`] helper handles that at table-build time. The reader
//! here serves the reference decoder in tests; production decoding reads
//! through the [`Inflater`](crate::Inflater)'s own refill.

#[cfg(test)]
use crate::{Error, Result};

/// LSB-first bit accumulator.
#[derive(Default)]
pub struct LsbWriter {
    bytes: Vec<u8>,
    bit_buf: u64,
    bit_count: u32,
}

impl LsbWriter {
    /// Creates an empty writer.
    #[cfg(test)]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer over a recycled buffer (cleared, capacity kept) —
    /// the session [`Deflater`](crate::Deflater) hands its output vector
    /// back through here so warm compressions allocate nothing.
    pub fn from_vec(mut bytes: Vec<u8>) -> Self {
        bytes.clear();
        Self {
            bytes,
            bit_buf: 0,
            bit_count: 0,
        }
    }

    /// Appends the low `count ≤ 32` bits of `value`, LSB first. The buffer
    /// holds under 32 bits between calls and flushes whole 32-bit words.
    #[inline]
    pub fn write_bits(&mut self, value: u64, count: u32) {
        debug_assert!(count <= 32, "a word flush keeps the buffer under 64 bits");
        self.bit_buf |= value << self.bit_count;
        self.bit_count += count;
        if self.bit_count >= 32 {
            self.bytes
                .extend_from_slice(&(self.bit_buf as u32).to_le_bytes());
            self.bit_buf >>= 32;
            self.bit_count -= 32;
        }
    }

    /// Flushes the buffered bits, padding to a byte boundary with zero
    /// bits (for stored blocks).
    pub fn align_to_byte(&mut self) {
        let bytes = self.bit_count.div_ceil(8) as usize;
        self.bytes
            .extend_from_slice(&self.bit_buf.to_le_bytes()[..bytes]);
        self.bit_buf = 0;
        self.bit_count = 0;
    }

    /// Appends raw bytes (writer must be byte-aligned).
    pub fn write_bytes(&mut self, data: &[u8]) {
        debug_assert_eq!(self.bit_count, 0, "write_bytes requires alignment");
        self.bytes.extend_from_slice(data);
    }

    /// Flushes any partial byte and returns the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        self.align_to_byte();
        self.bytes
    }
}

/// LSB-first bit reader.
#[cfg(test)]
pub struct LsbReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    bit_buf: u64,
    bit_count: u32,
}

#[cfg(test)]
impl<'a> LsbReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            pos: 0,
            bit_buf: 0,
            bit_count: 0,
        }
    }

    #[inline]
    fn refill(&mut self) {
        while self.bit_count <= 56 && self.pos < self.bytes.len() {
            self.bit_buf |= (self.bytes[self.pos] as u64) << self.bit_count;
            self.pos += 1;
            self.bit_count += 8;
        }
    }

    /// Reads `count` bits LSB-first.
    #[inline]
    pub fn read_bits(&mut self, count: u32) -> Result<u64> {
        debug_assert!(count <= 32);
        if count == 0 {
            return Ok(0);
        }
        self.refill();
        if self.bit_count < count {
            return Err(Error::UnexpectedEof);
        }
        let value = self.bit_buf & ((1u64 << count) - 1);
        self.bit_buf >>= count;
        self.bit_count -= count;
        Ok(value)
    }

    /// Reads a single bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<u32> {
        Ok(self.read_bits(1)? as u32)
    }

    /// Discards buffered bits up to the next byte boundary and returns raw
    /// bytes (for stored blocks).
    pub fn read_aligned_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        // Drop sub-byte remainder.
        let drop = self.bit_count % 8;
        self.bit_buf >>= drop;
        self.bit_count -= drop;
        // Return buffered whole bytes to the slice domain.
        let buffered = (self.bit_count / 8) as usize;
        self.pos -= buffered;
        self.bit_buf = 0;
        self.bit_count = 0;
        if self.pos + n > self.bytes.len() {
            return Err(Error::UnexpectedEof);
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
}

/// Reverses the low `count` bits of `code` (DEFLATE codes are emitted
/// most-significant-code-bit first within the LSB-first stream).
#[inline]
pub fn reverse_bits(code: u32, count: u32) -> u32 {
    code.reverse_bits() >> (32 - count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lsb_packing_matches_spec_example() {
        // Writing 0b1 then 0b01 (2 bits) packs as xxxxx_01_1.
        let mut w = LsbWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b01, 2);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b0000_0011]);
    }

    #[test]
    fn writer_reader_roundtrip() {
        let fields = [(5u64, 3u32), (1023, 10), (0, 1), (77, 7), (1, 1)];
        let mut w = LsbWriter::new();
        for &(v, c) in &fields {
            w.write_bits(v, c);
        }
        let bytes = w.finish();
        let mut r = LsbReader::new(&bytes);
        for &(v, c) in &fields {
            assert_eq!(r.read_bits(c).unwrap(), v);
        }
    }

    #[test]
    fn aligned_bytes_after_bits() {
        let mut w = LsbWriter::new();
        w.write_bits(0b101, 3);
        w.align_to_byte();
        w.write_bytes(&[0xAA, 0xBB]);
        let bytes = w.finish();
        let mut r = LsbReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_aligned_bytes(2).unwrap(), &[0xAA, 0xBB]);
    }

    #[test]
    // The 9-bit literals group as 8+1 on purpose: it makes the mirror-image
    // relationship between input and expectation visible.
    #[allow(clippy::unusual_byte_groupings)]
    fn reverse_bits_examples() {
        assert_eq!(reverse_bits(0b100, 3), 0b001);
        assert_eq!(reverse_bits(0b1, 1), 0b1);
        assert_eq!(reverse_bits(0b0111_0100_1, 9), 0b1001_0111_0);
    }

    #[test]
    fn eof_detection() {
        let mut r = LsbReader::new(&[0xFF]);
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
        assert!(r.read_bits(1).is_err());
    }
}
