//! Two-level table-driven canonical-Huffman decoding.
//!
//! A [`DecodeLut`] turns "walk the first-code table one bit at a time" into
//! "peek a fixed window, index a table": codes no longer than the primary
//! width resolve with a single lookup on the peeked window; longer codes
//! land on a *subtable* entry whose overflow table covers up to
//! [`MAX_SUB_BITS`] further bits. Codes deeper than that (only reachable
//! with adversarial frequency profiles — [`crate::MAX_CODE_LEN`] is 48) are
//! marked [`Lookup::Slow`] and the caller falls back to its bit-walking
//! oracle.
//!
//! The primary width is a function of the code lengths alone. By default
//! it is the longest code length, capped at [`PRIMARY_BITS`] (11 bits:
//! 2^11 × 8 B = 16 KiB, which stays in L1). A table whose codes longer
//! than 11 bits hold at least half the code space (Σ 2^-len ≥ 1/2, about
//! half the symbols of the stream it was built for) widens to
//! `min(max_len, WIDE_PRIMARY_BITS)`, at most 15 bits (256 KiB, inside a
//! per-core L2). The ~13-bit codes of a 2^14-symbol quantization alphabet
//! then resolve in one lookup instead of primary → subtable. A table whose
//! long codes are rare keeps the L1-sized primary, where the few subtable
//! codes cost less than an L2 miss on every lookup.
//!
//! The table decodes the MSB-first quantization-code stream: the index is
//! the upcoming bits read left to right, so a code of length `l ≤ P` owns
//! the contiguous range `code << (P-l) ..` of the primary table.
//! (DEFLATE's LSB-first codes decode through `szr-deflate`'s own tables.)
//!
//! Primary entries carry up to **two** whole codes: where the bits left
//! after the first code already spell a second one, the entry holds both.
//! The decode loop does two dependent lookups per `2P`-bit peek, so one
//! peek yields up to four symbols; [`DecodeLut::root`] still reports the
//! first code of an entry, so single-symbol callers read the same array.
//!
//! Entry layout (`u64`; a zeroed entry is [`Lookup::Invalid`]):
//!
//! | bits   | symbol entry                   | other entry (bits 0–7 zero)    |
//! |--------|--------------------------------|--------------------------------|
//! | 0–3    | `L`: bits of its codes, 1..=15 | 0                              |
//! | 4–7    | second code's length, 0 = none | 0                              |
//! | 8–15   | first symbol, bits 0–7         | kind: Invalid/Sub/Slow/Long    |
//! | 16–35  | first symbol, bits 8–27        | code length or subtable width  |
//! | 36–63  | second symbol                  | symbol (Long) or subtable base |
//!
//! `L` is what the decode loop consumes, and the symbol count is "which of
//! the two length fields are non-zero", so a non-symbol entry in the
//! second lookup drops out as zero codes without a branch.
//!
//! "Long" is a single code of 16 or more bits, which only subtables hold.
//! Symbols need 28 bits ([`crate::MAX_ALPHABET`] is 2^28); a code for a
//! larger symbol is left to the slow path.

use szr_bitstream::BitCursor;

/// Width of the primary lookup table in bits for tables whose long codes
/// hold under half the code space (2^11 × 8 B = 16 KiB).
pub const PRIMARY_BITS: u32 = 11;

/// Widest primary table, for tables whose codes longer than
/// [`PRIMARY_BITS`] hold at least half the code space (2^15 × 8 B =
/// 256 KiB). On the 13-bit-per-code stream of a 2^14-symbol alphabet, 15
/// bits decoded faster than 13 or 14; 16 would not fit a pair's 4-bit
/// length field.
pub const WIDE_PRIMARY_BITS: u32 = 15;

// A pair's total length must fit its 4-bit field.
const _: () = assert!(WIDE_PRIMARY_BITS < 16);

/// Maximum overflow-subtable width; codes longer than the primary width
/// plus `MAX_SUB_BITS` decode via the caller's slow path.
pub const MAX_SUB_BITS: u32 = 11;

/// Cap on all subtable entries together: the 11-bit primary's worst case,
/// so a wider primary cannot make an adversarial length table allocate
/// more. Groups past the cap are marked Slow.
const MAX_SUB_ENTRIES: usize = 1 << (PRIMARY_BITS + MAX_SUB_BITS);

// Kinds of non-symbol entries (bits 8–15). Kind 0 is Invalid, so a zeroed
// entry decodes to "no codeword starts here".
const KIND_SUB: u64 = 1;
const KIND_SLOW: u64 = 2;
const KIND_LONG: u64 = 3;

const SYMBOL_MASK: u64 = (1 << 28) - 1;
const SLOW: u64 = KIND_SLOW << 8;

/// A non-symbol entry.
#[inline]
fn other(kind: u64, n: u32, payload: u32) -> u64 {
    ((payload as u64) << 36) | ((n as u64) << 16) | (kind << 8)
}

/// A single code: a short one as a symbol entry, a long one as Long, and a
/// symbol beyond 28 bits as Slow.
#[inline]
fn single(symbol: u32, len: u32) -> u64 {
    if symbol as u64 > SYMBOL_MASK {
        SLOW
    } else if len < 16 {
        ((symbol as u64) << 8) | len as u64
    } else {
        other(KIND_LONG, len, symbol)
    }
}

/// Joins a single-code entry and the first code of a symbol entry whose
/// lengths sum to at most 15.
#[inline]
fn pair(single: u64, next: u64) -> u64 {
    let len = first_len(next) as u64;
    (single + len) | (len << 4) | ((next >> 8 & SYMBOL_MASK) << 36)
}

/// Bits of an entry's codes (`L`); 0 for a non-symbol entry.
#[inline]
fn codes_len(entry: u64) -> u32 {
    (entry & 0xF) as u32
}

/// Length of a symbol entry's second code; 0 for a single or non-symbol
/// entry.
#[inline]
fn second_len(entry: u64) -> u32 {
    ((entry >> 4) & 0xF) as u32
}

/// Length of a symbol entry's first code.
#[inline]
fn first_len(entry: u64) -> u32 {
    codes_len(entry) - second_len(entry)
}

/// Symbols in an entry: 1 or 2 for a symbol entry, 0 otherwise.
#[inline]
fn count(entry: u64) -> usize {
    (codes_len(entry) != 0) as usize + (second_len(entry) != 0) as usize
}

/// Result of a primary- or subtable lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// A complete codeword: consume `len` bits, emit `symbol`.
    Symbol {
        /// Decoded symbol.
        symbol: u32,
        /// True codeword length in bits (what the caller must consume).
        len: u32,
    },
    /// The peeked prefix continues into an overflow subtable: peek
    /// `primary_bits + bits` in total and call [`DecodeLut::sub`].
    Sub {
        /// Subtable base (opaque, pass to [`DecodeLut::sub`]).
        base: u32,
        /// Subtable index width in bits.
        bits: u32,
    },
    /// Code is deeper than the table covers: use the bit-walking fallback.
    Slow,
    /// No codeword starts with the peeked bits: the stream is corrupt (or
    /// truncated into the zero padding).
    Invalid,
}

#[inline]
fn unpack(entry: u64) -> Lookup {
    let len = codes_len(entry);
    if len != 0 {
        return Lookup::Symbol {
            symbol: ((entry >> 8) & SYMBOL_MASK) as u32,
            len: first_len(entry),
        };
    }
    let n = ((entry >> 16) & 0xFF) as u32;
    let payload = (entry >> 36) as u32;
    match (entry >> 8) & 0xFF {
        KIND_SUB => Lookup::Sub {
            base: payload,
            bits: n,
        },
        KIND_SLOW => Lookup::Slow,
        KIND_LONG => Lookup::Symbol {
            symbol: payload,
            len: n,
        },
        _ => Lookup::Invalid,
    }
}

/// A two-level decode table over canonical-Huffman (length, code) pairs.
pub struct DecodeLut {
    /// Primary index width (see the module doc).
    primary_bits: u32,
    /// Primary table (first `1 << primary_bits` entries) + subtables.
    entries: Vec<u64>,
}

impl DecodeLut {
    /// Builds the table from per-symbol code lengths and canonical code
    /// values (`codes[s]` is valid where `lengths[s] > 0`).
    ///
    /// The lengths must describe a Kraft-feasible code (the caller has
    /// already validated them); unreached indices stay [`Lookup::Invalid`].
    pub fn build(lengths: &[u32], codes: &[u64]) -> Self {
        let mut lut = Self {
            primary_bits: 0,
            entries: Vec::new(),
        };
        lut.rebuild(lengths, codes);
        lut
    }

    /// [`Self::build`] into this table's own entry buffer, so a decoder
    /// that meets a new table per band allocates only when the table
    /// outgrows every earlier one.
    pub fn rebuild(&mut self, lengths: &[u32], codes: &[u64]) {
        let max_len = lengths.iter().copied().max().unwrap_or(0);
        // Code-space share of the codes longer than PRIMARY_BITS, in units
        // of 2^-62 (a Kraft-feasible code sums to at most 2^62).
        let long_share = lengths
            .iter()
            .filter(|&&len| len > PRIMARY_BITS)
            .fold(0u64, |acc, &len| {
                acc.saturating_add((1u64 << 62).checked_shr(len).unwrap_or(0))
            });
        let primary_bits = if long_share >= 1 << 61 {
            max_len.min(WIDE_PRIMARY_BITS)
        } else {
            max_len.clamp(1, PRIMARY_BITS)
        };
        let psize = 1usize << primary_bits;
        let entries = &mut self.entries;
        entries.clear();
        entries.resize(psize, 0);

        // Short codes fill their share of the primary table directly.
        for (sym, (&len, &code)) in lengths.iter().zip(codes).enumerate() {
            if len == 0 || len > primary_bits {
                continue;
            }
            let start = (code << (primary_bits - len)) as usize;
            let copies = 1usize << (primary_bits - len);
            entries[start..start + copies].fill(single(sym as u32, len));
        }

        // An index whose bits after the first code spell a whole second
        // code holds both. Pairing rewrites only the second-code fields, so
        // the in-place scan reads every other index's first code intact.
        for ix in 0..psize {
            let len = codes_len(entries[ix]);
            if len == 0 || len >= primary_bits {
                continue;
            }
            let next = entries[(ix << len) & (psize - 1)];
            if codes_len(next) != 0 && len + first_len(next) <= primary_bits {
                entries[ix] = pair(entries[ix], next);
            }
        }

        // Long codes group by their primary-width prefix, an index no short
        // code reaches; each group gets an overflow subtable sized for its
        // deepest member (or a Slow marker when MAX_SUB_BITS, or the
        // subtable budget, cannot reach it). The prefix's own entry first
        // collects the group's depth as a Sub entry without a base…
        for (&len, &code) in lengths.iter().zip(codes) {
            if len <= primary_bits {
                continue;
            }
            let prefix = (code >> (len - primary_bits)) as usize;
            let depth = (entries[prefix] >> 16 & 0xFF) as u32;
            entries[prefix] = other(KIND_SUB, depth.max(len - primary_bits), 0);
        }
        // …then, in prefix order, gets its subtable's base or Slow.
        for prefix in 0..psize {
            let entry = entries[prefix];
            if codes_len(entry) != 0 || entry >> 8 & 0xFF != KIND_SUB {
                continue;
            }
            let depth = (entry >> 16 & 0xFF) as u32;
            if depth > MAX_SUB_BITS || entries.len() - psize + (1 << depth) > MAX_SUB_ENTRIES {
                entries[prefix] = SLOW;
            } else {
                let base = entries.len() as u32;
                entries.resize(entries.len() + (1usize << depth), 0);
                entries[prefix] = other(KIND_SUB, depth, base);
            }
        }
        for (sym, (&len, &code)) in lengths.iter().zip(codes).enumerate() {
            if len <= primary_bits {
                continue;
            }
            let tail = len - primary_bits;
            let prefix = (code >> tail) as usize;
            let Lookup::Sub { base, bits: depth } = unpack(entries[prefix]) else {
                continue; // Slow-marked group
            };
            let rel = (code & ((1u64 << tail) - 1)) as usize;
            let start = base as usize + (rel << (depth - tail));
            let copies = 1usize << (depth - tail);
            entries[start..start + copies].fill(single(sym as u32, len));
        }
        self.primary_bits = primary_bits;
    }

    /// Primary index width: peek this many bits for [`Self::root`].
    #[inline]
    pub fn primary_bits(&self) -> u32 {
        self.primary_bits
    }

    /// Looks up the peeked primary window (`primary_bits` upcoming bits).
    /// An entry holding two codes reports the first.
    #[inline]
    pub fn root(&self, peeked: u64) -> Lookup {
        unpack(self.entries[(peeked as usize) & ((1 << self.primary_bits) - 1)])
    }

    /// Resolves an overflow lookup: `index` is the `bits` stream bits that
    /// follow the primary window (the low `bits` bits of a peek of
    /// `primary_bits + bits`).
    #[inline]
    pub fn sub(&self, base: u32, bits: u32, index: u64) -> Lookup {
        unpack(self.entries[base as usize + ((index as usize) & ((1 << bits) - 1))])
    }

    /// Decodes whole windows of the stream from `cursor` into `out`
    /// until fewer than four slots are left or a window needs the caller's
    /// single-symbol path; returns the number of symbols written.
    ///
    /// Each `2·primary_bits` peek takes two dependent lookups. The first
    /// reads the high half of the window; the second reads `primary_bits`
    /// bits from the end of the first entry's codes, which the window always
    /// covers. Each entry yields one or two codes, so a window yields up to
    /// four. A subtable code in the first lookup resolves too: a
    /// subtable is never wider than its primary, so `primary_bits + sub`
    /// bits fit the window. A non-symbol second lookup waits for the next
    /// window. The loop returns early on a Slow or Invalid first lookup, and
    /// when the codes run past the bits really left in the stream (the
    /// window is zero-padded there); it consumes only what it wrote.
    pub(crate) fn decode_windows(&self, cursor: &mut BitCursor<'_>, out: &mut [u32]) -> usize {
        let p = self.primary_bits;
        let peek = 2 * p;
        let entries = &self.entries[..];
        // Index of the `p` bits at the top of a left-aligned window.
        let top = |w: u64| (w >> (64 - p)) as usize;
        let mut i = 0;
        // A fresh window always holds ≥ 2·p bits (p ≤ 15, window 57), so
        // each refill guarantees inner-loop progress.
        loop {
            cursor.refill();
            while cursor.window_remaining() >= peek {
                let Some(quad) = out.get_mut(i..i + 4) else {
                    return i;
                };
                let window = cursor.peek_aligned();
                let first = entries[top(window)];
                let len = codes_len(first);
                if len == 0 {
                    let Lookup::Sub { base, bits } = unpack(first) else {
                        return i;
                    };
                    debug_assert!(bits <= p, "a subtable is never wider than its primary");
                    let sub = (window << p) >> (64 - bits);
                    let Lookup::Symbol { symbol, len } = self.sub(base, bits, sub) else {
                        return i;
                    };
                    if cursor.remaining_bits() < len as usize {
                        return i;
                    }
                    cursor.consume(len);
                    quad[0] = symbol;
                    i += 1;
                    continue;
                }
                let second = entries[top(window << len)];
                let total = len + codes_len(second);
                if cursor.remaining_bits() < total as usize {
                    return i;
                }
                cursor.consume(total);
                let n = 1 + (second_len(first) != 0) as usize;
                quad[0] = (first >> 8 & SYMBOL_MASK) as u32;
                quad[1] = (first >> 36) as u32;
                quad[n] = (second >> 8 & SYMBOL_MASK) as u32;
                quad[n + 1] = (second >> 36) as u32;
                i += n + count(second);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Canonical codes from lengths (msb convention, as HuffmanCodec).
    fn canonical_codes(lengths: &[u32]) -> Vec<u64> {
        let max = lengths.iter().copied().max().unwrap_or(0);
        let mut count = vec![0u64; max as usize + 1];
        for &l in lengths {
            if l > 0 {
                count[l as usize] += 1;
            }
        }
        let mut next = vec![0u64; max as usize + 2];
        let mut code = 0u64;
        for l in 1..=max as usize {
            code = (code + count[l - 1]) << 1;
            next[l] = code;
        }
        lengths
            .iter()
            .map(|&l| {
                if l == 0 {
                    0
                } else {
                    let c = next[l as usize];
                    next[l as usize] += 1;
                    c
                }
            })
            .collect()
    }

    /// Decodes one symbol from explicit bits using the table (MSB order).
    fn decode_msb(lut: &DecodeLut, bits: &[bool]) -> Option<(u32, u32)> {
        let peek = |n: u32| -> u64 {
            let mut v = 0u64;
            for i in 0..n as usize {
                v = (v << 1) | bits.get(i).map_or(0, |&b| b as u64);
            }
            v
        };
        match lut.root(peek(lut.primary_bits())) {
            Lookup::Symbol { symbol, len } => Some((symbol, len)),
            Lookup::Sub { base, bits: sb } => {
                match lut.sub(base, sb, peek(lut.primary_bits() + sb)) {
                    Lookup::Symbol { symbol, len } => Some((symbol, len)),
                    _ => None,
                }
            }
            _ => None,
        }
    }

    #[test]
    fn short_codes_resolve_in_the_primary_table() {
        // RFC-style example: lengths 2,3,3,3,3,3,4,4 over 8 symbols.
        let lengths = [2u32, 3, 3, 3, 3, 3, 4, 4];
        let codes = canonical_codes(&lengths);
        let lut = DecodeLut::build(&lengths, &codes);
        for (sym, (&len, &code)) in lengths.iter().zip(&codes).enumerate() {
            let bits: Vec<bool> = (0..len).rev().map(|i| (code >> i) & 1 == 1).collect();
            assert_eq!(decode_msb(&lut, &bits), Some((sym as u32, len)));
        }
    }

    #[test]
    fn long_codes_route_through_subtables() {
        // A skewed chain: symbol s has length s+1 (up to 16) — symbols 11..
        // exceed PRIMARY_BITS and must land in a subtable.
        let lengths: Vec<u32> = (1..=16).collect();
        // Kraft sum: sum 2^-l for l=1..16 < 1, feasible.
        let codes = canonical_codes(&lengths);
        let lut = DecodeLut::build(&lengths, &codes);
        for (sym, (&len, &code)) in lengths.iter().zip(&codes).enumerate() {
            let bits: Vec<bool> = (0..len).rev().map(|i| (code >> i) & 1 == 1).collect();
            assert_eq!(
                decode_msb(&lut, &bits),
                Some((sym as u32, len)),
                "sym {sym}"
            );
        }
    }

    /// A flat 12-bit code with one 12-bit slot handed to a chain
    /// `13, 14, ..=max, max`, so codes longer than 11 bits hold the whole
    /// code space.
    fn flat_with_chain(max: u32) -> Vec<u32> {
        let mut lengths = vec![12u32; 4095];
        lengths.extend(13..=max);
        lengths.push(max);
        lengths
    }

    #[test]
    fn codes_beyond_table_reach_are_marked_slow() {
        // Lengths up to 27: the table widens to WIDE_PRIMARY_BITS = 15,
        // whose reach is 15 + MAX_SUB_BITS = 26 bits.
        let lengths = flat_with_chain(27);
        let codes = canonical_codes(&lengths);
        let lut = DecodeLut::build(&lengths, &codes);
        assert_eq!(lut.primary_bits(), WIDE_PRIMARY_BITS);
        // The deepest codes share the all-ones prefix; its primary entry
        // must be Slow.
        let deep = lengths.len() - 1;
        let prefix = codes[deep] >> (27 - lut.primary_bits());
        assert_eq!(lut.root(prefix), Lookup::Slow);
        // The 12-bit codes still decode directly.
        assert_eq!(decode_msb(&lut, &[false; 12]), Some((0, 12)));

        // A chain 1..=24 keeps the 11-bit primary (its long codes hold
        // little code space), whose reach is 11 + 11 = 22 bits.
        let lengths: Vec<u32> = (1..=24).collect();
        let codes = canonical_codes(&lengths);
        let lut = DecodeLut::build(&lengths, &codes);
        assert_eq!(lut.primary_bits(), PRIMARY_BITS);
        assert_eq!(lut.root(codes[23] >> (24 - PRIMARY_BITS)), Lookup::Slow);
        assert_eq!(decode_msb(&lut, &[false]), Some((0, 1)));
    }

    #[test]
    fn rebuild_in_place_matches_a_fresh_build() {
        // One table rebuilt through narrow, wide-with-Slow, subtable and
        // one-symbol codes, in both directions of size.
        let tables = [
            (1..=7).chain([7]).collect::<Vec<u32>>(),
            flat_with_chain(27),
            (1..=24).collect(),
            vec![1],
            flat_with_chain(20),
        ];
        let mut lut = DecodeLut::build(&[1], &[0]);
        for lengths in &tables {
            let codes = canonical_codes(lengths);
            lut.rebuild(lengths, &codes);
            let fresh = DecodeLut::build(lengths, &codes);
            assert_eq!(lut.primary_bits, fresh.primary_bits);
            assert_eq!(lut.entries, fresh.entries);
        }
    }

    #[test]
    fn primary_width_follows_the_code_lengths() {
        let width =
            |lengths: &[u32]| DecodeLut::build(lengths, &canonical_codes(lengths)).primary_bits();
        // Up to 11 bits: the longest code's length.
        let chain = |max: u32| -> Vec<u32> { (1..=max).chain([max]).collect() };
        assert_eq!(width(&chain(7)), 7);
        assert_eq!(width(&chain(11)), 11);
        // Longer codes that hold little of the code space keep 11 bits.
        assert_eq!(width(&chain(20)), 11);
        // Codes longer than 11 bits holding at least half of it widen the
        // primary to the longest code, up to 15 bits.
        let half_long: Vec<u32> = [1].into_iter().chain([12; 2048]).collect();
        assert_eq!(width(&half_long), 12);
        assert_eq!(width(&flat_with_chain(13)), 13);
        assert_eq!(width(&flat_with_chain(15)), 15);
        assert_eq!(width(&flat_with_chain(20)), 15);
        // Just under half stays at 11.
        let under: Vec<u32> = [1, 12].into_iter().chain([13; 4093]).collect();
        assert_eq!(width(&under), 11);
    }

    /// Encodes `symbols`, runs the window loop into `slots` outputs, and
    /// returns the symbols it wrote and the bits it consumed.
    fn run_windows(
        lut: &DecodeLut,
        lengths: &[u32],
        symbols: &[u32],
        slots: usize,
    ) -> (Vec<u32>, usize) {
        let codes = canonical_codes(lengths);
        let mut w = szr_bitstream::BitWriter::new();
        for &s in symbols {
            w.write_bits(codes[s as usize], lengths[s as usize]);
        }
        let bytes = w.into_bytes();
        let mut cursor = BitCursor::new(szr_bitstream::BitReader::new(&bytes));
        let mut out = vec![u32::MAX; slots];
        let n = lut.decode_windows(&mut cursor, &mut out);
        out.truncate(n);
        (out, cursor.into_reader().bit_pos())
    }

    #[test]
    fn msb_entries_hold_two_codes_and_windows_yield_four() {
        // Lengths 1, 2, 3, 3: `0`, `10`, `110`, `111`.
        let lengths = [1u32, 2, 3, 3];
        let codes = canonical_codes(&lengths);
        let lut = DecodeLut::build(&lengths, &codes);
        assert_eq!(lut.primary_bits(), 3);
        // `0 10` is two codes in one entry; root reports the first.
        assert_eq!(lut.root(0b010), Lookup::Symbol { symbol: 0, len: 1 });
        // With four slots the loop stops after one 6-bit window.
        // `010 010`: two entries of two codes each.
        assert_eq!(
            run_windows(&lut, &lengths, &[0, 1, 0, 1, 3], 4),
            (vec![0, 1, 0, 1], 6)
        );
        // `110 111`: one code per entry.
        assert_eq!(run_windows(&lut, &lengths, &[2, 3, 3], 4), (vec![2, 3], 6));
        // `0 110`: symbol 0 alone, then symbol 2 read from bit 1.
        assert_eq!(
            run_windows(&lut, &lengths, &[0, 2, 3, 3], 4),
            (vec![0, 2], 4)
        );
        // Longer runs match the stream up to the last four slots.
        let stream = [0, 2, 1, 1, 3, 0, 0, 0, 1, 2, 0, 3, 1, 0];
        let (got, bits) = run_windows(&lut, &lengths, &stream, stream.len());
        assert!(got.len() > stream.len() - 4);
        assert_eq!(got, stream[..got.len()]);
        assert_eq!(
            bits,
            got.iter().map(|&s| lengths[s as usize] as usize).sum()
        );
    }

    #[test]
    fn windows_resolve_subtable_codes() {
        // The last three codes (16, 17 and 17 bits) sit in the subtable
        // under the all-ones 15-bit prefix.
        let lengths = flat_with_chain(17);
        let codes = canonical_codes(&lengths);
        let lut = DecodeLut::build(&lengths, &codes);
        assert_eq!(lut.primary_bits(), 15);
        // A 13-bit primary code leaves room for a 12-bit code in the same
        // window; a subtable code is alone in its window.
        let s13 = 4095;
        assert_eq!(
            run_windows(&lut, &lengths, &[s13, 0, 0], 4),
            (vec![s13, 0], 25)
        );
        for sym in [4098u32, 4099, 4100] {
            let len = lengths[sym as usize] as usize;
            assert_eq!(
                run_windows(&lut, &lengths, &[sym, 0, 0], 4),
                (vec![sym], len)
            );
        }
    }

    #[test]
    fn unreached_indices_are_invalid() {
        // Single 1-bit code: index 1 has no codeword.
        let lut = DecodeLut::build(&[1], &[0]);
        assert_eq!(lut.root(0), Lookup::Symbol { symbol: 0, len: 1 });
        assert_eq!(lut.root(1), Lookup::Invalid);
    }
}
