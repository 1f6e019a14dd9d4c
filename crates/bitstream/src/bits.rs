//! MSB-first bit-level reader and writer.
//!
//! Both ends work a word at a time. The writer packs bits into a 64-bit
//! accumulator and flushes whole 32-bit words to the byte buffer; the reader
//! serves [`BitReader::peek_bits`] from a single unaligned 64-bit load. The
//! wire format is unchanged from the historical bit-at-a-time
//! implementation: the first bit written is the most significant bit of the
//! first byte, and the final byte is zero-padded.

use crate::{Error, Result};

/// Accumulates bits MSB-first into a growable byte buffer.
///
/// The first bit written becomes the most significant bit of the first byte,
/// so a canonical-Huffman decoder can consume codewords by reading one bit at
/// a time in natural (left-to-right) order.
///
/// # Accumulator invariants
///
/// Pending bits live in the low `acc_bits` bits of `acc` (`acc_bits < 32`
/// between calls); bit `acc_bits - 1` is the oldest pending bit — the next
/// one on the wire. Bits at or above `acc_bits` are unspecified garbage, so
/// every flush masks by extraction width rather than trusting the high bits.
/// Whole 32-bit words are flushed with a single big-endian byte-slice append.
#[derive(Default, Clone)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Pending bits (low `acc_bits` bits are valid, MSB-first).
    acc: u64,
    /// Number of pending bits in `acc` (0..=31 between calls).
    acc_bits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with preallocated capacity (in bytes).
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            bytes: Vec::with_capacity(bytes),
            acc: 0,
            acc_bits: 0,
        }
    }

    /// Total number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bytes.len() * 8 + self.acc_bits as usize
    }

    /// Appends a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.push(bit as u64, 1);
    }

    /// Appends the low `count` bits of `value`, most significant first.
    ///
    /// # Panics
    /// Panics if `count > 64`.
    #[inline]
    pub fn write_bits(&mut self, value: u64, count: u32) {
        assert!(count <= 64, "cannot write more than 64 bits at once");
        if count > 32 {
            let low = count - 32;
            self.push((value >> low) & 0xFFFF_FFFF, 32);
            self.push(value & (u64::MAX >> (64 - low)), low);
        } else if count > 0 {
            self.push(value & (u64::MAX >> (64 - count)), count);
        }
    }

    /// Accumulates `count` (1..=32) already-masked bits, flushing a whole
    /// 32-bit word when one is available.
    #[inline]
    fn push(&mut self, value: u64, count: u32) {
        debug_assert!((1..=32).contains(&count));
        debug_assert!(count == 64 || value < (1u64 << count));
        // acc_bits <= 31 on entry, so the shift stays within the u64.
        self.acc = (self.acc << count) | value;
        self.acc_bits += count;
        if self.acc_bits >= 32 {
            self.acc_bits -= 32;
            let word = (self.acc >> self.acc_bits) as u32;
            self.bytes.extend_from_slice(&word.to_be_bytes());
        }
    }

    /// Flushes every whole pending byte to the buffer (`acc_bits < 8`
    /// afterwards).
    fn flush_whole_bytes(&mut self) {
        while self.acc_bits >= 8 {
            self.acc_bits -= 8;
            self.bytes.push((self.acc >> self.acc_bits) as u8);
        }
    }

    /// Pads with zero bits to the next byte boundary.
    pub fn align_to_byte(&mut self) {
        let pad = (8 - (self.acc_bits & 7)) & 7;
        if pad > 0 {
            self.push(0, pad);
        }
        self.flush_whole_bytes();
    }

    /// Consumes the writer, returning the byte buffer (final byte
    /// zero-padded).
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.flush_whole_bytes();
        if self.acc_bits > 0 {
            let byte = ((self.acc as u32) << (8 - self.acc_bits)) as u8;
            self.bytes.push(byte);
        }
        self.bytes
    }

    /// Pads to a byte boundary and borrows the finished buffer — the
    /// reusable sibling of [`Self::into_bytes`], byte-identical output.
    ///
    /// The writer stays alive so a long-lived owner (e.g. a codec session)
    /// can copy the bytes out and [`Self::clear`] for the next stream
    /// without giving up the allocation. Writing more bits after `finish`
    /// without clearing starts a fresh byte-aligned region, which is almost
    /// never what a bit-packed format wants.
    pub fn finish(&mut self) -> &[u8] {
        self.align_to_byte();
        &self.bytes
    }

    /// Resets the writer to empty, keeping the allocated buffer.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.acc = 0;
        self.acc_bits = 0;
    }

    /// Reserves capacity for at least `additional_bytes` more bytes, so a
    /// caller that can bound the upcoming stream pre-sizes the buffer and
    /// the write loop never reallocates.
    pub fn reserve(&mut self, additional_bytes: usize) {
        self.bytes.reserve(additional_bytes);
    }
}

/// Reads bits MSB-first from a byte slice.
///
/// Two access styles share one cursor:
///
/// * exact reads — [`read_bit`](Self::read_bit) /
///   [`read_bits`](Self::read_bits) return [`Error::UnexpectedEof`] when the
///   stream runs dry;
/// * speculative reads — [`peek_bits`](Self::peek_bits) returns up to
///   [`PEEK_MAX`](Self::PEEK_MAX) upcoming bits **zero-padded past the end
///   of the stream** without advancing, and [`consume`](Self::consume)
///   advances after the caller has validated the decode. Table-driven
///   Huffman decoding peeks a fixed window, looks the entry up, checks the
///   entry's true length against [`remaining_bits`](Self::remaining_bits),
///   and only then consumes.
#[derive(Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Next bit position from the start of the slice.
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Largest `count` a single [`peek_bits`](Self::peek_bits) can serve:
    /// one unaligned 64-bit load minus up to 7 bits of intra-byte offset.
    pub const PEEK_MAX: u32 = 57;

    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Number of bits remaining.
    pub fn remaining_bits(&self) -> usize {
        self.bytes.len() * 8 - self.pos
    }

    /// Current bit offset from the start.
    pub fn bit_pos(&self) -> usize {
        self.pos
    }

    /// Returns the next `count` bits without advancing, zero-padded when the
    /// stream has fewer than `count` bits left.
    ///
    /// # Panics
    /// Panics (debug) if `count > PEEK_MAX`.
    #[inline]
    pub fn peek_bits(&self, count: u32) -> u64 {
        debug_assert!(count <= Self::PEEK_MAX, "peek window exceeds 57 bits");
        if count == 0 {
            return 0;
        }
        let byte_ix = self.pos >> 3;
        let bit_off = (self.pos & 7) as u32;
        let word = if byte_ix + 8 <= self.bytes.len() {
            u64::from_be_bytes(self.bytes[byte_ix..byte_ix + 8].try_into().unwrap())
        } else {
            let mut buf = [0u8; 8];
            if byte_ix < self.bytes.len() {
                let n = self.bytes.len() - byte_ix;
                buf[..n].copy_from_slice(&self.bytes[byte_ix..]);
            }
            u64::from_be_bytes(buf)
        };
        (word << bit_off) >> (64 - count)
    }

    /// Advances past `count` bits previously validated via
    /// [`peek_bits`](Self::peek_bits).
    ///
    /// Saturates at the end of the stream, so a decoder bug cannot push the
    /// cursor out of range; callers check
    /// [`remaining_bits`](Self::remaining_bits) before consuming.
    #[inline]
    pub fn consume(&mut self, count: u32) {
        debug_assert!(count as usize <= self.remaining_bits(), "consume overrun");
        self.pos = (self.pos + count as usize).min(self.bytes.len() * 8);
    }

    /// Reads a single bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool> {
        if self.pos >= self.bytes.len() * 8 {
            return Err(Error::UnexpectedEof);
        }
        let bit = self.peek_bits(1);
        self.pos += 1;
        Ok(bit == 1)
    }

    /// Reads `count` bits MSB-first into the low bits of a `u64`.
    ///
    /// # Panics
    /// Panics if `count > 64`.
    #[inline]
    pub fn read_bits(&mut self, count: u32) -> Result<u64> {
        assert!(count <= 64, "cannot read more than 64 bits at once");
        if self.remaining_bits() < count as usize {
            return Err(Error::UnexpectedEof);
        }
        if count == 0 {
            return Ok(0);
        }
        if count <= Self::PEEK_MAX {
            let value = self.peek_bits(count);
            self.pos += count as usize;
            Ok(value)
        } else {
            let low = count - 32;
            let hi = self.peek_bits(32);
            self.pos += 32;
            let lo = self.peek_bits(low);
            self.pos += low as usize;
            Ok((hi << low) | lo)
        }
    }

    /// Skips forward to the next byte boundary.
    pub fn align_to_byte(&mut self) {
        self.pos = (self.pos + 7) & !7;
    }
}

/// A windowed cursor over a [`BitReader`]: one unaligned load serves many
/// peek/consume rounds.
///
/// [`BitReader::peek_bits`] costs an unaligned 64-bit load per call, which is
/// fine when each peek decodes a whole symbol pair but wasteful when a
/// decoder peeks small windows in a tight loop. `BitCursor` caches
/// [`WINDOW_BITS`](Self::WINDOW_BITS) upcoming bits and serves
/// [`peek`](Self::peek) / [`consume`](Self::consume) from the cached word;
/// [`refill`](Self::refill) commits the consumed bits to the underlying
/// reader and re-peeks. Like `peek_bits`, the window is **zero-padded past
/// the end of the stream**, so lookups stay safe near EOF as long as the
/// caller validates true bit counts against
/// [`remaining_bits`](Self::remaining_bits) before consuming.
///
/// Typical loop shape:
///
/// ```text
/// while more_symbols {
///     cursor.refill();
///     while cursor.window_remaining() >= WORST_CASE_BITS && more_symbols {
///         let w = cursor.peek(WORST_CASE_BITS);
///         // ... validate, then cursor.consume(actual_bits) ...
///     }
/// }
/// ```
pub struct BitCursor<'a> {
    reader: BitReader<'a>,
    /// Cached upcoming bits, right-aligned in the low `WINDOW_BITS` bits.
    window: u64,
    /// Bits of `window` already consumed (not yet committed to `reader`).
    used: u32,
}

impl<'a> BitCursor<'a> {
    /// Bits cached per [`refill`](Self::refill) (= [`BitReader::PEEK_MAX`]).
    pub const WINDOW_BITS: u32 = BitReader::PEEK_MAX;

    /// Creates a cursor at the reader's current position, with a full
    /// window.
    pub fn new(reader: BitReader<'a>) -> Self {
        let window = reader.peek_bits(Self::WINDOW_BITS);
        Self {
            reader,
            window,
            used: 0,
        }
    }

    /// Commits consumed bits to the underlying reader and re-peeks a full
    /// window. Idempotent when nothing was consumed.
    #[inline]
    pub fn refill(&mut self) {
        if self.used > 0 {
            self.reader.consume(self.used);
            self.used = 0;
        }
        self.window = self.reader.peek_bits(Self::WINDOW_BITS);
    }

    /// Unconsumed bits left in the cached window.
    #[inline]
    pub fn window_remaining(&self) -> u32 {
        Self::WINDOW_BITS - self.used
    }

    /// True bits remaining in the stream (window-consumed bits already
    /// deducted).
    #[inline]
    pub fn remaining_bits(&self) -> usize {
        self.reader.remaining_bits() - self.used as usize
    }

    /// Returns the next `count` bits from the window without advancing,
    /// zero-padded past the end of the stream.
    ///
    /// # Panics
    /// Panics (debug) if `count` exceeds
    /// [`window_remaining`](Self::window_remaining).
    #[inline]
    pub fn peek(&self, count: u32) -> u64 {
        debug_assert!(
            self.used + count <= Self::WINDOW_BITS,
            "peek past cached window"
        );
        if count == 0 {
            return 0;
        }
        (self.window >> (Self::WINDOW_BITS - self.used - count)) & (u64::MAX >> (64 - count))
    }

    /// The unconsumed window left-aligned in a `u64`: the next bit is bit
    /// 63, and the [`window_remaining`](Self::window_remaining) bits below
    /// it are followed by zeros. One shift of this word serves a peek at
    /// any offset in the window.
    #[inline]
    pub fn peek_aligned(&self) -> u64 {
        (self.window << (64 - Self::WINDOW_BITS)) << self.used
    }

    /// Advances past `count` bits previously validated via
    /// [`peek`](Self::peek) and [`remaining_bits`](Self::remaining_bits).
    #[inline]
    pub fn consume(&mut self, count: u32) {
        debug_assert!(
            self.used + count <= Self::WINDOW_BITS,
            "consume past cached window"
        );
        debug_assert!(count as usize <= self.remaining_bits(), "consume overrun");
        self.used += count;
    }

    /// Commits consumed bits, runs `f` against the underlying reader for a
    /// non-windowed excursion (e.g. a slow-path symbol decode), then
    /// re-primes the window at the reader's new position.
    ///
    /// Wrapping the excursion in a closure means the cached window can never
    /// be observed stale — a raw `&mut BitReader` accessor would let a
    /// caller advance the reader and then peek yesterday's bits.
    #[inline]
    pub fn with_reader<R>(&mut self, f: impl FnOnce(&mut BitReader<'a>) -> R) -> R {
        if self.used > 0 {
            self.reader.consume(self.used);
            self.used = 0;
        }
        let out = f(&mut self.reader);
        self.window = self.reader.peek_bits(Self::WINDOW_BITS);
        out
    }

    /// Commits consumed bits and returns the underlying reader, positioned
    /// just past the last consumed bit.
    #[inline]
    pub fn into_reader(mut self) -> BitReader<'a> {
        self.reader.consume(self.used);
        self.reader
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_pack_msb_first() {
        let mut w = BitWriter::new();
        for bit in [true, false, true, true, false, false, false, true] {
            w.write_bit(bit);
        }
        assert_eq!(w.into_bytes(), vec![0b1011_0001]);
    }

    #[test]
    fn multi_bit_fields_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xFFFF, 16);
        w.write_bits(0, 5);
        w.write_bits(u64::MAX, 64);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(16).unwrap(), 0xFFFF);
        assert_eq!(r.read_bits(5).unwrap(), 0);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
    }

    #[test]
    fn high_garbage_bits_are_masked() {
        // write_bits must use only the low `count` bits of the value.
        let mut w = BitWriter::new();
        w.write_bits(u64::MAX, 3);
        w.write_bits(u64::MAX, 5);
        assert_eq!(w.into_bytes(), vec![0xFF]);
    }

    #[test]
    fn high_garbage_bits_are_masked_in_split_writes() {
        // Regression: counts of 33..=63 go through the two-halves path,
        // whose high half must also be masked — garbage above `count` used
        // to corrupt pending accumulator bits.
        for count in [33u32, 40, 57, 63] {
            let mut w = BitWriter::new();
            w.write_bit(false);
            w.write_bits(u64::MAX, count);
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            assert!(
                !r.read_bit().unwrap(),
                "leading bit dirtied (count {count})"
            );
            assert_eq!(
                r.read_bits(count).unwrap(),
                u64::MAX >> (64 - count),
                "count {count}"
            );
        }
    }

    #[test]
    fn bit_len_counts_partial_bytes() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(0b11, 2);
        assert_eq!(w.bit_len(), 2);
        w.write_bits(0, 6);
        assert_eq!(w.bit_len(), 8);
        w.write_bit(true);
        assert_eq!(w.bit_len(), 9);
    }

    #[test]
    fn align_pads_with_zeros() {
        let mut w = BitWriter::new();
        w.write_bit(true);
        w.align_to_byte();
        w.write_bits(0xAB, 8);
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0b1000_0000, 0xAB]);
        let mut r = BitReader::new(&bytes);
        assert!(r.read_bit().unwrap());
        r.align_to_byte();
        assert_eq!(r.read_bits(8).unwrap(), 0xAB);
    }

    #[test]
    fn eof_is_detected_not_panicked() {
        let bytes = [0xFFu8];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
        assert_eq!(r.read_bit(), Err(Error::UnexpectedEof));
        assert_eq!(r.read_bits(4), Err(Error::UnexpectedEof));
    }

    #[test]
    fn zero_width_read_is_zero() {
        let mut r = BitReader::new(&[]);
        assert_eq!(r.read_bits(0).unwrap(), 0);
    }

    #[test]
    fn remaining_bits_tracks_position() {
        let bytes = [0u8; 4];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.remaining_bits(), 32);
        r.read_bits(5).unwrap();
        assert_eq!(r.remaining_bits(), 27);
        assert_eq!(r.bit_pos(), 5);
    }

    #[test]
    fn peek_does_not_advance_and_zero_pads() {
        let bytes = [0b1011_0001u8, 0xFF];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.peek_bits(4), 0b1011);
        assert_eq!(r.peek_bits(4), 0b1011, "peek must not advance");
        r.consume(4);
        assert_eq!(r.peek_bits(4), 0b0001);
        r.consume(4);
        // 8 bits remain; a 12-bit peek zero-pads the tail.
        assert_eq!(r.peek_bits(12), 0b1111_1111_0000);
        assert_eq!(r.remaining_bits(), 8);
    }

    #[test]
    fn peek_beyond_empty_stream_is_zero() {
        let r = BitReader::new(&[]);
        assert_eq!(r.peek_bits(57), 0);
    }

    #[test]
    fn peek_window_spans_unaligned_word_boundaries() {
        let bytes: Vec<u8> = (0..16).map(|i| (i * 37) as u8).collect();
        let mut r = BitReader::new(&bytes);
        r.consume(5);
        let peeked = r.peek_bits(57);
        let mut check = r.clone();
        assert_eq!(check.read_bits(57).unwrap(), peeked);
    }

    #[test]
    fn cursor_matches_plain_peek_consume() {
        // Windowed peek/consume must track the reader exactly across refills
        // and mixed field widths.
        let bytes: Vec<u8> = (0..64).map(|i| (i * 151 + 13) as u8).collect();
        let widths = [3u32, 11, 1, 22, 7, 5, 13, 2, 17];
        let mut plain = BitReader::new(&bytes);
        let mut cursor = BitCursor::new(BitReader::new(&bytes));
        let mut wi = 0;
        loop {
            let count = widths[wi % widths.len()];
            wi += 1;
            if plain.remaining_bits() < count as usize {
                break;
            }
            if cursor.window_remaining() < count {
                cursor.refill();
            }
            assert_eq!(cursor.peek(count), plain.peek_bits(count));
            assert_eq!(cursor.remaining_bits(), plain.remaining_bits());
            cursor.consume(count);
            plain.consume(count);
        }
        cursor.refill();
        assert_eq!(cursor.remaining_bits(), plain.remaining_bits());
    }

    #[test]
    fn cursor_aligned_peek_matches_peek() {
        let bytes: Vec<u8> = (0..16).map(|i| (i * 151 + 13) as u8).collect();
        let mut cursor = BitCursor::new(BitReader::new(&bytes));
        for count in [0u32, 3, 11, 20] {
            cursor.consume(count);
            let aligned = cursor.peek_aligned();
            assert_eq!(aligned >> (64 - 13), cursor.peek(13));
            assert_eq!(aligned << cursor.window_remaining(), 0);
        }
    }

    #[test]
    fn cursor_zero_pads_past_end() {
        let bytes = [0xFFu8];
        let mut cursor = BitCursor::new(BitReader::new(&bytes));
        assert_eq!(cursor.remaining_bits(), 8);
        assert_eq!(cursor.peek(12), 0b1111_1111_0000);
        cursor.consume(8);
        assert_eq!(cursor.remaining_bits(), 0);
        cursor.refill();
        assert_eq!(cursor.peek(16), 0);
    }

    #[test]
    fn cursor_reader_excursion_reprimes_the_window() {
        let bytes = [0b1011_0001u8, 0xC3, 0x5A];
        let mut cursor = BitCursor::new(BitReader::new(&bytes));
        assert_eq!(cursor.peek(4), 0b1011);
        cursor.consume(4);
        // Excursion through the raw reader commits the 4 consumed bits and
        // re-primes the window at the reader's new position.
        cursor.with_reader(|r| {
            assert_eq!(r.bit_pos(), 4);
            assert_eq!(r.read_bits(4).unwrap(), 0b0001);
        });
        assert_eq!(cursor.peek(8), 0xC3);
        cursor.consume(8);
        cursor.refill();
        assert_eq!(cursor.peek(8), 0x5A);
        assert_eq!(cursor.remaining_bits(), 8);
    }

    #[test]
    fn cursor_hands_back_its_reader_past_the_consumed_bits() {
        let bytes = [0b1011_0001u8, 0xC3];
        let mut cursor = BitCursor::new(BitReader::new(&bytes));
        cursor.consume(5);
        let mut r = cursor.into_reader();
        assert_eq!(r.bit_pos(), 5);
        assert_eq!(r.read_bits(3).unwrap(), 0b001);
    }

    #[test]
    fn consume_saturates_at_end() {
        let bytes = [0u8; 2];
        let mut r = BitReader::new(&bytes);
        r.read_bits(15).unwrap();
        // Saturating consume: only 1 bit remains, but a (buggy) larger
        // consume must not push the cursor out of range in release builds.
        if cfg!(debug_assertions) {
            r.consume(1);
        } else {
            r.consume(8);
        }
        assert_eq!(r.remaining_bits(), 0);
    }
}
