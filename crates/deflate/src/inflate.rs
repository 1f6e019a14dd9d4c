//! Table-driven DEFLATE decoding (RFC 1951 §3.2), the mirror of
//! [`Deflater`](crate::Deflater).
//!
//! An [`Inflater`] owns fixed-size decode tables, so a warm one inflates
//! with no allocation beyond growing the caller's output buffer. Each block
//! rebuilds them in place from its code lengths:
//!
//! * every table entry is one packed `u32` holding the entry's kind
//!   (literal, length or distance base, end of block, subtable, invalid),
//!   its base value, its extra-bit count and its code length;
//! * the literal/length table has an 11-bit primary and the distance table
//!   an 8-bit one; a longer code resolves through one subtable under its
//!   primary prefix, up to DEFLATE's 15-bit maximum;
//! * the bit reader refills eight bytes per load.
//!
//! The decode loop checks nothing per symbol while 16 input bytes and one
//! match's worth of output room remain: every peek then holds real stream
//! bits, so a lookup can only fail on a corrupt code. A checked loop, one
//! symbol at a time, decodes the stream tail, so truncated and corrupt
//! streams return the same typed errors wherever they end.

use crate::blocks::{CLC_ORDER, DIST_BASE, DIST_EXTRA, LENGTH_BASE, LENGTH_EXTRA};
use crate::{Error, Result};

/// Primary width of the literal/length table.
const LITLEN_BITS: u32 = 11;
/// Primary width of the distance table.
const DIST_BITS: u32 = 8;
/// Width of the code-length (precode) table: its codes are at most 7 bits.
const PRECODE_BITS: u32 = 7;
/// DEFLATE's longest code.
const MAX_LEN: u32 = 15;

/// Entries a table needs in the worst case: the primary, plus one subtable
/// of `2^(15 − bits)` entries per symbol, since each subtable holds at
/// least one code (incomplete codes included).
const fn table_entries(bits: u32, symbols: usize) -> usize {
    (1 << bits) + symbols * (1 << (MAX_LEN - bits))
}
const LITLEN_ENTRIES: usize = table_entries(LITLEN_BITS, 288);
const DIST_ENTRIES: usize = table_entries(DIST_BITS, 30);

// Entry layout: bits 0–4 the code length (a subtable pointer holds the
// primary width), bits 5–9 the extra-bit count (a subtable pointer holds
// its width), bits 10–12 the kind, bits 16–31 the base: the literal byte,
// the length or distance base, the precode symbol, or the subtable start.
// A zero entry is invalid: no code starts with those bits.
const LEN_MASK: u32 = 0x1F;
const EXTRA_SHIFT: u32 = 5;
const KIND_MASK: u32 = 7 << 10;
const INVALID: u32 = 0;
const LITERAL: u32 = 1 << 10;
const BASE_EXTRA: u32 = 2 << 10;
const END_OF_BLOCK: u32 = 3 << 10;
const SUB: u32 = 4 << 10;

/// Output room the unchecked loop needs: three literals, then one longest
/// match whose 8-byte copies may run 7 bytes past its end.
const OUT_MARGIN: usize = 3 + 258 + 8;

#[inline(always)]
fn code_len(e: u32) -> u32 {
    e & LEN_MASK
}

#[inline(always)]
fn extra_bits(e: u32) -> u32 {
    (e >> EXTRA_SHIFT) & 0x1F
}

#[inline(always)]
fn base(e: u32) -> u32 {
    e >> 16
}

/// The entry (without its code length) of literal/length symbol `sym`.
/// Symbols 286 and 287 exist only in the fixed code and decode to an
/// invalid entry that still carries its code length.
fn litlen_entry(sym: usize) -> u32 {
    match sym {
        0..=255 => LITERAL | (sym as u32) << 16,
        256 => END_OF_BLOCK,
        257..=285 => {
            let i = sym - 257;
            BASE_EXTRA | (LENGTH_BASE[i] as u32) << 16 | LENGTH_EXTRA[i] << EXTRA_SHIFT
        }
        _ => INVALID,
    }
}

fn dist_entry(sym: usize) -> u32 {
    BASE_EXTRA | (DIST_BASE[sym] as u32) << 16 | DIST_EXTRA[sym] << EXTRA_SHIFT
}

fn precode_entry(sym: usize) -> u32 {
    LITERAL | (sym as u32) << 16
}

/// Fills `table` with the canonical code of `lengths` at a primary width
/// of `bits`, `entry(sym)` giving each symbol's entry without its length.
/// Indices no code reaches stay invalid, so incomplete codes decode until
/// the stream spells a missing code.
///
/// # Errors
/// [`Error::Corrupt`] when the lengths oversubscribe the code space.
fn build_table(
    table: &mut [u32],
    bits: u32,
    lengths: &[u8],
    entry: impl Fn(usize) -> u32,
) -> Result<()> {
    let mut count = [0u32; 16];
    for &l in lengths {
        count[l as usize] += 1;
    }
    count[0] = 0;
    let kraft: u32 = (1..=15).map(|l| count[l] << (15 - l)).sum();
    if kraft > 1 << 15 {
        return Err(Error::Corrupt("oversubscribed huffman table"));
    }
    let mut next = [0u32; 16];
    let mut code = 0u32;
    for l in 1..=15 {
        code = (code + count[l - 1]) << 1;
        next[l] = code;
    }
    let primary = 1usize << bits;
    let mask = primary - 1;
    table[..primary].fill(INVALID);
    // Codes arrive most-significant bit first inside an LSB-first stream,
    // so a code indexes the table bit-reversed.
    let mut reversed = [0u16; 288];
    let mut depth = [0u8; 1 << LITLEN_BITS];
    let mut long = false;
    for (sym, &l) in lengths.iter().enumerate() {
        let l = l as u32;
        if l == 0 {
            continue;
        }
        let rev = next[l as usize].reverse_bits() >> (32 - l);
        next[l as usize] += 1;
        reversed[sym] = rev as u16;
        if l <= bits {
            let e = entry(sym) | l;
            let mut i = rev as usize;
            while i < primary {
                table[i] = e;
                i += 1 << l;
            }
        } else {
            let d = &mut depth[rev as usize & mask];
            *d = (*d).max((l - bits) as u8);
            long = true;
        }
    }
    if !long {
        return Ok(());
    }
    // One subtable per primary prefix of a long code, as wide as its
    // deepest code.
    let mut end = primary;
    for (prefix, &d) in depth[..primary].iter().enumerate() {
        if d > 0 {
            let width = 1usize << d;
            table[end..end + width].fill(INVALID);
            table[prefix] = SUB | (end as u32) << 16 | (d as u32) << EXTRA_SHIFT | bits;
            end += width;
        }
    }
    for (sym, &l) in lengths.iter().enumerate() {
        let l = l as u32;
        if l <= bits {
            continue;
        }
        let rev = reversed[sym] as usize;
        let sub = table[rev & mask];
        let (start, width) = (base(sub) as usize, 1usize << extra_bits(sub));
        let e = entry(sym) | l;
        let mut i = rev >> bits;
        while i < width {
            table[start + i] = e;
            i += 1 << (l - bits);
        }
    }
    Ok(())
}

/// LSB-first bit reader over the whole input. Bits of `buf` above `avail`
/// are the stream's next bits where they were loaded, and zero past the
/// end of the input, so a peek is always the zero-padded stream.
#[derive(Clone, Copy)]
struct Bits<'a> {
    data: &'a [u8],
    pos: usize,
    buf: u64,
    avail: u32,
}

impl<'a> Bits<'a> {
    /// Loads eight bytes at once; the caller guarantees they exist.
    #[inline(always)]
    fn refill_fast(&mut self) {
        let bytes = &self.data[self.pos..self.pos + 8];
        let word = u64::from_le_bytes(bytes.try_into().expect("an 8-byte slice"));
        self.buf |= word << self.avail;
        self.pos += ((63 - self.avail) >> 3) as usize;
        self.avail |= 56;
    }

    /// Loads byte by byte up to the end of the input (at most 63 bits, so
    /// an eight-byte refill can follow).
    #[inline]
    fn refill(&mut self) {
        while self.avail < 56 && self.pos < self.data.len() {
            self.buf |= (self.data[self.pos] as u64) << self.avail;
            self.pos += 1;
            self.avail += 8;
        }
    }

    #[inline(always)]
    fn consume(&mut self, n: u32) {
        self.buf >>= n;
        self.avail -= n;
    }

    /// Reads `n ≤ 32` bits.
    ///
    /// # Errors
    /// [`Error::UnexpectedEof`] when fewer than `n` bits remain.
    fn read_bits(&mut self, n: u32) -> Result<u32> {
        self.refill();
        if self.avail < n {
            return Err(Error::UnexpectedEof);
        }
        let value = (self.buf & ((1u64 << n) - 1)) as u32;
        self.consume(n);
        Ok(value)
    }

    /// Drops the bits up to the next byte boundary and returns the next
    /// `n` bytes (stored blocks).
    fn aligned_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.pos -= (self.avail / 8) as usize;
        self.buf = 0;
        self.avail = 0;
        let bytes = self
            .data
            .get(self.pos..self.pos + n)
            .ok_or(Error::UnexpectedEof)?;
        self.pos += n;
        Ok(bytes)
    }

    /// Decodes one code with every step checked: the stream tail's path.
    ///
    /// # Errors
    /// [`Error::Corrupt`] when no code starts with the zero-padded peek,
    /// [`Error::UnexpectedEof`] when the code runs past the input.
    fn decode(&mut self, table: &[u32], bits: u32) -> Result<u32> {
        self.refill();
        let e = lookup(table, bits, self.buf);
        let len = code_len(e);
        if len == 0 {
            return Err(Error::Corrupt("invalid huffman code"));
        }
        if len > self.avail {
            return Err(Error::UnexpectedEof);
        }
        self.consume(len);
        Ok(e)
    }
}

/// The entry for the code at the bottom of `buf`, through its subtable
/// where the primary entry points to one.
#[inline(always)]
fn lookup(table: &[u32], bits: u32, buf: u64) -> u32 {
    let e = table[buf as usize & ((1 << bits) - 1)];
    if e & KIND_MASK != SUB {
        return e;
    }
    table[base(e) as usize + ((buf >> bits) as usize & ((1 << extra_bits(e)) - 1))]
}

/// Copies `len` bytes from `dist` back, byte-serially where the two
/// ranges overlap. Copies of 8 bytes at a time may write up to 7 bytes
/// past the match, which `buf` has room for.
#[inline(always)]
fn copy_match(buf: &mut [u8], op: usize, dist: usize, len: usize) {
    let src = op - dist;
    if dist >= 8 {
        let (mut s, mut d) = (src, op);
        while d < op + len {
            let word: [u8; 8] = buf[s..s + 8].try_into().expect("an 8-byte slice");
            buf[d..d + 8].copy_from_slice(&word);
            s += 8;
            d += 8;
        }
    } else if dist == 1 {
        let b = buf[src];
        buf[op..op + len].fill(b);
    } else {
        for i in 0..len {
            buf[op + i] = buf[src + i];
        }
    }
}

/// A reusable DEFLATE decompressor.
///
/// Owns the literal/length, distance and code-length decode tables, which
/// every block rebuilds in place, so a warm `Inflater` decodes with no
/// allocation beyond growing the output vector.
/// [`crate::deflate_decompress`] and [`crate::gzip_decompress`] run one.
pub struct Inflater {
    tables: Box<Tables>,
    /// The tables hold the fixed code (RFC 1951 §3.2.6), so a run of fixed
    /// blocks builds it once.
    fixed: bool,
}

struct Tables {
    litlen: [u32; LITLEN_ENTRIES],
    dist: [u32; DIST_ENTRIES],
    precode: [u32; 1 << PRECODE_BITS],
}

impl Default for Inflater {
    fn default() -> Self {
        Self::new()
    }
}

impl Inflater {
    /// An inflater with empty tables.
    pub fn new() -> Self {
        Self {
            tables: Box::new(Tables {
                litlen: [INVALID; LITLEN_ENTRIES],
                dist: [INVALID; DIST_ENTRIES],
                precode: [INVALID; 1 << PRECODE_BITS],
            }),
            fixed: false,
        }
    }

    /// Decompresses the complete DEFLATE stream `data` into `out`,
    /// replacing its contents (its capacity is reused). Bytes after the
    /// final block are ignored.
    ///
    /// # Errors
    /// [`Error::UnexpectedEof`] for a truncated stream and
    /// [`Error::Corrupt`] for a malformed one.
    pub fn inflate_into(&mut self, data: &[u8], out: &mut Vec<u8>) -> Result<()> {
        // Output is written by index and truncated at the end, so bytes a
        // previous call left are overwritten rather than zeroed again.
        reserve(out, 0, data.len());
        let mut op = 0;
        let result = self.blocks(data, out, &mut op);
        out.truncate(op);
        result
    }

    /// Decodes every block of `data` into `out`, advancing `op` past each
    /// block it completes.
    fn blocks(&mut self, data: &[u8], out: &mut Vec<u8>, op: &mut usize) -> Result<()> {
        let mut bits = Bits {
            data,
            pos: 0,
            buf: 0,
            avail: 0,
        };
        loop {
            let header = bits.read_bits(3)?;
            *op = match header >> 1 {
                0b00 => stored_block(&mut bits, out, *op)?,
                0b01 => {
                    if !self.fixed {
                        self.build_fixed();
                    }
                    self.codes_block(&mut bits, out, *op)?
                }
                0b10 => {
                    self.fixed = false;
                    self.read_dynamic_tables(&mut bits)?;
                    self.codes_block(&mut bits, out, *op)?
                }
                _ => return Err(Error::Corrupt("reserved block type")),
            };
            if header & 1 == 1 {
                return Ok(());
            }
        }
    }

    fn build_fixed(&mut self) {
        let mut lengths = [8u8; 288];
        lengths[144..256].fill(9);
        lengths[256..280].fill(7);
        let t = &mut *self.tables;
        build_table(&mut t.litlen, LITLEN_BITS, &lengths, litlen_entry)
            .expect("the fixed code is complete");
        build_table(&mut t.dist, DIST_BITS, &[5; 30], dist_entry)
            .expect("the fixed code is not oversubscribed");
        self.fixed = true;
    }

    /// Reads a dynamic block's code-length code and code lengths and
    /// builds its literal/length and distance tables.
    fn read_dynamic_tables(&mut self, bits: &mut Bits<'_>) -> Result<()> {
        let hlit = bits.read_bits(5)? as usize + 257;
        let hdist = bits.read_bits(5)? as usize + 1;
        let hclen = bits.read_bits(4)? as usize + 4;
        if hlit > 286 || hdist > 30 {
            return Err(Error::Corrupt("table sizes out of range"));
        }
        let mut cl_lengths = [0u8; 19];
        for &s in CLC_ORDER.iter().take(hclen) {
            cl_lengths[s] = bits.read_bits(3)? as u8;
        }
        let t = &mut *self.tables;
        build_table(&mut t.precode, PRECODE_BITS, &cl_lengths, precode_entry)?;
        let total = hlit + hdist;
        let mut lengths = [0u8; 286 + 30];
        let mut n = 0usize;
        while n < total {
            let sym = base(bits.decode(&t.precode, PRECODE_BITS)?);
            let (value, run) = match sym {
                0..=15 => (sym as u8, 1),
                16 => {
                    let prev = *n
                        .checked_sub(1)
                        .map(|p| &lengths[p])
                        .ok_or(Error::Corrupt("repeat with no prior length"))?;
                    (prev, bits.read_bits(2)? as usize + 3)
                }
                17 => (0, bits.read_bits(3)? as usize + 3),
                _ => (0, bits.read_bits(7)? as usize + 11),
            };
            if n + run > total {
                return Err(Error::Corrupt("code-length overrun"));
            }
            lengths[n..n + run].fill(value);
            n += run;
        }
        build_table(&mut t.litlen, LITLEN_BITS, &lengths[..hlit], litlen_entry)?;
        build_table(&mut t.dist, DIST_BITS, &lengths[hlit..total], dist_entry)
    }

    /// Decodes one Huffman-coded block into `out` from `op`, returning the
    /// output position after it.
    fn codes_block(&self, bits: &mut Bits<'_>, out: &mut Vec<u8>, mut op: usize) -> Result<usize> {
        let litlen = &self.tables.litlen[..];
        let dist = &self.tables.dist[..];
        loop {
            if self.unchecked(bits, out, &mut op)? {
                return Ok(op);
            }
            // Checked: one symbol, every read bounded by the input.
            let e = bits.decode(litlen, LITLEN_BITS)?;
            match e & KIND_MASK {
                LITERAL => {
                    reserve(out, op, 1);
                    out[op] = base(e) as u8;
                    op += 1;
                }
                END_OF_BLOCK => return Ok(op),
                BASE_EXTRA => {
                    let length = (base(e) + bits.read_bits(extra_bits(e))?) as usize;
                    let d = bits.decode(dist, DIST_BITS)?;
                    let distance = (base(d) + bits.read_bits(extra_bits(d))?) as usize;
                    if distance > op {
                        return Err(Error::Corrupt("distance beyond output start"));
                    }
                    reserve(out, op, length);
                    for i in op..op + length {
                        out[i] = out[i - distance];
                    }
                    op += length;
                }
                _ => return Err(invalid_litlen(e)),
            }
        }
    }

    /// The unchecked loop: decodes while 16 bytes of input are left (every
    /// peek then holds real stream bits, and two 8-byte refills fit) and
    /// `out` has room for three literals and a match. Returns whether it
    /// reached the end of the block. The reader runs on a local copy, which
    /// the compiler keeps in registers.
    #[inline]
    fn unchecked(&self, bits: &mut Bits<'_>, out: &mut [u8], op: &mut usize) -> Result<bool> {
        let litlen = &self.tables.litlen[..];
        let dist = &self.tables.dist[..];
        let (Some(in_end), Some(out_end)) = (
            bits.data.len().checked_sub(16),
            out.len().checked_sub(OUT_MARGIN),
        ) else {
            return Ok(false);
        };
        let mut b = *bits;
        let mut o = *op;
        let mut end_of_block = false;
        while b.pos <= in_end && o <= out_end {
            b.refill_fast();
            let mut e = lookup(litlen, LITLEN_BITS, b.buf);
            if e & KIND_MASK == LITERAL {
                // A literal takes at most 15 of the ≥ 56 bits, so after two
                // of them ≥ 26 bits remain: enough for a third symbol's code
                // and length extras.
                b.consume(code_len(e));
                out[o] = base(e) as u8;
                o += 1;
                e = lookup(litlen, LITLEN_BITS, b.buf);
                if e & KIND_MASK == LITERAL {
                    b.consume(code_len(e));
                    out[o] = base(e) as u8;
                    o += 1;
                    e = lookup(litlen, LITLEN_BITS, b.buf);
                    if e & KIND_MASK == LITERAL {
                        b.consume(code_len(e));
                        out[o] = base(e) as u8;
                        o += 1;
                        continue;
                    }
                }
            }
            match e & KIND_MASK {
                BASE_EXTRA => {
                    let (len, extra) = (code_len(e), extra_bits(e));
                    let length = base(e) + ((b.buf >> len) as u32 & ((1 << extra) - 1));
                    b.consume(len + extra);
                    b.refill_fast();
                    let d = lookup(dist, DIST_BITS, b.buf);
                    if d == INVALID {
                        return Err(Error::Corrupt("invalid huffman code"));
                    }
                    let (len, extra) = (code_len(d), extra_bits(d));
                    let distance =
                        (base(d) + ((b.buf >> len) as u32 & ((1 << extra) - 1))) as usize;
                    b.consume(len + extra);
                    if distance > o {
                        return Err(Error::Corrupt("distance beyond output start"));
                    }
                    copy_match(out, o, distance, length as usize);
                    o += length as usize;
                }
                LITERAL => {
                    b.consume(code_len(e));
                    out[o] = base(e) as u8;
                    o += 1;
                }
                END_OF_BLOCK => {
                    b.consume(code_len(e));
                    end_of_block = true;
                    break;
                }
                _ => return Err(invalid_litlen(e)),
            }
        }
        *bits = b;
        *op = o;
        Ok(end_of_block)
    }
}

/// The error for a literal/length entry that is not a symbol: no code at
/// all, or one of the fixed code's reserved symbols 286 and 287.
#[cold]
fn invalid_litlen(e: u32) -> Error {
    if code_len(e) == 0 {
        Error::Corrupt("invalid huffman code")
    } else {
        Error::Corrupt("literal/length symbol out of range")
    }
}

/// Grows `out` so `n` bytes fit at `op` with the unchecked loop's margin
/// after them, so the unchecked loop resumes at once. The length doubles,
/// so the growth stays linear, but only up to the capacity a warm buffer
/// already has; past it, `Vec` doubles the capacity itself.
#[inline]
fn reserve(out: &mut Vec<u8>, op: usize, n: usize) {
    let need = op + n + OUT_MARGIN;
    if need > out.len() {
        let len = (2 * out.len()).clamp(need, out.capacity().max(need));
        out.resize(len, 0);
    }
}

/// Copies a stored block's bytes to `out` at `op`.
fn stored_block(bits: &mut Bits<'_>, out: &mut Vec<u8>, op: usize) -> Result<usize> {
    let header = bits.aligned_bytes(4)?;
    let len = u16::from_le_bytes([header[0], header[1]]);
    let nlen = u16::from_le_bytes([header[2], header[3]]);
    if len != !nlen {
        return Err(Error::Corrupt("stored block LEN/NLEN mismatch"));
    }
    let payload = bits.aligned_bytes(len as usize)?;
    reserve(out, op, payload.len());
    out[op..op + payload.len()].copy_from_slice(payload);
    Ok(op + payload.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::reference;
    use crate::lz77::structured_corpus;
    use crate::{Deflater, Effort};

    /// splitmix64 bytes.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    /// Inputs for the oracle: runs, short periods (overlapping copies at
    /// distances 1–7), noise, and every length 0–8.
    fn small_inputs() -> Vec<Vec<u8>> {
        let mut runs = Vec::new();
        for i in 0..600usize {
            runs.extend(std::iter::repeat_n((i % 5) as u8, 1 + i % 300));
        }
        let mut inputs = vec![runs, noise(16 * 1024, 7)];
        for period in 1..=7u8 {
            let mut v: Vec<u8> = (0..3000u32).map(|i| (i % period as u32) as u8).collect();
            v.extend(noise(64, period as u64));
            v.extend((0..3000u32).map(|i| (i % period as u32) as u8 ^ 0x55));
            inputs.push(v);
        }
        let corpus = structured_corpus();
        inputs.push(corpus[..20_000].to_vec());
        inputs.push(corpus[corpus.len() - 20_000..].to_vec());
        for len in 0..=8 {
            inputs.push(vec![0; len]);
            inputs.push((0..len as u8).collect());
            inputs.push((0..len).map(|i| [1, 2, 1][i % 3]).collect());
        }
        inputs
    }

    /// Both decoders agree on `stream`: equal output, or both fail.
    fn agree(inflater: &mut Inflater, out: &mut Vec<u8>, stream: &[u8], what: &str) {
        let got = inflater.inflate_into(stream, out).map(|()| out.clone());
        let want = reference::decompress(stream);
        match (&got, &want) {
            (Ok(a), Ok(b)) => assert!(a == b, "{what}: outputs differ"),
            (Err(_), Err(_)) => {}
            _ => panic!(
                "{what}: inflater {:?} vs reference {:?}",
                got.err(),
                want.err()
            ),
        }
    }

    #[test]
    fn inflater_matches_the_reference() {
        let mut inflater = Inflater::new();
        let mut out = Vec::new();
        let mut inputs = small_inputs();
        inputs.push(structured_corpus());
        for (n, data) in inputs.iter().enumerate() {
            for effort in [Effort::Fast, Effort::Default, Effort::Best] {
                let mut deflater = Deflater::with_effort(effort);
                for split in [true, false] {
                    deflater.set_split(split);
                    let stream = deflater.compress(data).to_vec();
                    let what = format!("input {n} ({} B) at {effort:?} split {split}", data.len());
                    inflater.inflate_into(&stream, &mut out).unwrap();
                    assert!(out == *data, "{what}: does not roundtrip");
                    if data.len() > 100_000 || effort != Effort::Default {
                        continue;
                    }
                    // Truncations, and single bit flips spread over the
                    // stream: headers, tables, codes and the tail.
                    let bits = stream.len() * 8;
                    for cut in (0..stream.len()).step_by(stream.len().div_ceil(24)) {
                        agree(
                            &mut inflater,
                            &mut out,
                            &stream[..cut],
                            &format!("{what} cut {cut}"),
                        );
                    }
                    let mut flipped = stream.clone();
                    for bit in (0..bits).step_by(bits.div_ceil(64)).chain(0..bits.min(48)) {
                        flipped[bit / 8] ^= 1 << (bit % 8);
                        agree(
                            &mut inflater,
                            &mut out,
                            &flipped,
                            &format!("{what} flip {bit}"),
                        );
                        flipped[bit / 8] ^= 1 << (bit % 8);
                    }
                }
            }
        }
        // Hand-built streams: fixed blocks (including the reserved symbols
        // 286/287 and distance codes 30/31), stored blocks and the
        // reserved block type, from raw bits.
        for seed in 0..400u64 {
            let mut stream = noise(12 + (seed % 40) as usize, seed);
            stream[0] = (stream[0] & !0b110) | [0b010, 0b000, 0b110, 0b100][seed as usize % 4];
            agree(
                &mut inflater,
                &mut out,
                &stream,
                &format!("raw seed {seed}"),
            );
        }
    }

    /// Builds a table over `lengths` with symbols as bases and returns it.
    fn table(lengths: &[u8], bits: u32) -> Result<Vec<u32>> {
        let mut t = vec![0u32; LITLEN_ENTRIES];
        build_table(&mut t, bits, lengths, precode_entry)?;
        Ok(t)
    }

    /// Canonical codes of `lengths`, most significant bit first.
    fn canonical(lengths: &[u8]) -> Vec<u32> {
        let count = |l: u8| lengths.iter().filter(|&&x| x == l && l > 0).count() as u32;
        let mut next = [0u32; 16];
        let mut code = 0;
        for (l, first) in next.iter_mut().enumerate().skip(1) {
            code = (code + count(l as u8 - 1)) << 1;
            *first = code;
        }
        lengths
            .iter()
            .map(|&l| {
                let c = next[l as usize];
                next[l as usize] += 1;
                c
            })
            .collect()
    }

    /// Every code resolves to its symbol and length wherever it sits in a
    /// peek window whose other bits are arbitrary.
    fn assert_codes_resolve(lengths: &[u8], bits: u32) {
        let t = table(lengths, bits).unwrap();
        for (sym, (&l, &code)) in lengths.iter().zip(&canonical(lengths)).enumerate() {
            if l == 0 {
                continue;
            }
            let rev = (code.reverse_bits() >> (32 - l as u32)) as u64;
            for filler in [0u64, u64::MAX, 0xA5A5_A5A5_A5A5_A5A5, 0x0123_4567_89AB_CDEF] {
                let e = lookup(&t, bits, rev | filler << l);
                assert_eq!(
                    (base(e) as usize, code_len(e)),
                    (sym, l as u32),
                    "symbol {sym} of length {l} under filler {filler:#x}"
                );
            }
        }
    }

    #[test]
    fn codes_resolve_under_any_filler_bits() {
        assert_codes_resolve(&[2, 2, 3, 4, 4, 3], LITLEN_BITS);
        assert_codes_resolve(&[3, 3, 3, 3, 3, 2, 4, 4], DIST_BITS);
        let mut fixed = [8u8; 288];
        fixed[144..256].fill(9);
        fixed[256..280].fill(7);
        assert_codes_resolve(&fixed, LITLEN_BITS);
    }

    #[test]
    fn long_codes_resolve_through_subtables() {
        // A complete chain 1, 2, …, 15, 15: codes of 12–15 bits sit past
        // the 11-bit primary, and 9–15 past the 8-bit one.
        let chain: Vec<u8> = (1..=15).chain([15]).collect();
        for bits in [LITLEN_BITS, DIST_BITS] {
            assert_codes_resolve(&chain, bits);
            let t = table(&chain, bits).unwrap();
            let codes = canonical(&chain);
            for (&l, &code) in chain.iter().zip(&codes) {
                let rev = code.reverse_bits() >> (32 - l as u32);
                let primary = t[rev as usize & ((1 << bits) - 1)];
                assert_eq!(primary & KIND_MASK == SUB, l as u32 > bits, "length {l}");
            }
        }
        // Many 15-bit codes under distinct prefixes: subtables fill the
        // worst-case capacity without overrunning it.
        let mut wide = vec![15u8; 288];
        wide[0] = 1;
        assert_codes_resolve(&wide, LITLEN_BITS);
    }

    #[test]
    fn unreached_indices_are_invalid() {
        // One 1-bit code: the other half of the code space has no code.
        let t = table(&[1], LITLEN_BITS).unwrap();
        assert_eq!(base(lookup(&t, LITLEN_BITS, 0)), 0);
        assert_eq!(lookup(&t, LITLEN_BITS, 1), INVALID);
        // No codes at all.
        let t = table(&[0; 19], PRECODE_BITS).unwrap();
        assert!(t[..1 << PRECODE_BITS].iter().all(|&e| e == INVALID));
        // An incomplete long code leaves holes inside its subtable.
        let t = table(&[1, 15], LITLEN_BITS).unwrap();
        let rev = 1u64; // code `1000…0` reversed
        assert_eq!(code_len(lookup(&t, LITLEN_BITS, rev)), 15);
        assert_eq!(lookup(&t, LITLEN_BITS, rev | 1 << 14), INVALID);
    }

    #[test]
    fn oversubscribed_codes_are_rejected() {
        assert!(table(&[1, 1, 1], LITLEN_BITS).is_err());
        assert!(table(&[1, 2, 2], LITLEN_BITS).is_ok());
    }

    #[test]
    fn warm_inflater_reuses_its_output_buffer() {
        let data = structured_corpus();
        let stream = Deflater::new().compress(&data).to_vec();
        let mut inflater = Inflater::new();
        let mut out = Vec::new();
        inflater.inflate_into(&stream, &mut out).unwrap();
        let capacity = out.capacity();
        inflater.inflate_into(&stream, &mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(out.capacity(), capacity);
    }
}
