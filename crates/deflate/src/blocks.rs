//! DEFLATE block encoding and decoding (RFC 1951 §3.2).
//!
//! The encode side is built around a reusable [`Deflater`]: matcher state,
//! token buffer, splitter histograms, and Huffman scratch all live on the
//! struct, so a warm session compresses with no allocation beyond growing
//! its recycled output buffer. Block boundaries come from the
//! content-aware splitter (see [`crate::splitter`]); every emitted block
//! independently picks dynamic, fixed, or stored coding by exact bit cost.

use crate::bitio::{reverse_bits, LsbWriter};
use crate::lz77::{probe_match_bits, Effort, LzState, Token};
use crate::splitter::Splitter;

/// Length-code base values for symbols 257..=285.
pub(crate) const LENGTH_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
/// Extra bits per length code.
pub(crate) const LENGTH_EXTRA: [u32; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];
/// Distance-code base values for symbols 0..=29.
pub(crate) const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
/// Extra bits per distance code.
pub(crate) const DIST_EXTRA: [u32; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];
/// Order in which code-length-code lengths are transmitted.
pub(crate) const CLC_ORDER: [usize; 19] = [
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
];

/// Lit/len alphabet size on the encode side (285 is the last used symbol).
const LITLEN_SYMS: usize = 286;
/// Distance alphabet size.
const DIST_SYMS: usize = 30;
/// hlit + hdist upper bound: the dynamic-header length vector.
const ALL_SYMS: usize = LITLEN_SYMS + DIST_SYMS;

/// Length-code index (symbol − 257) of every match length, indexed by
/// `length − 3` (zlib's `_length_code`).
const LENGTH_CODE: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut code = 0;
    // Later codes overwrite: length 258 is code 28, not code 27's top.
    while code < 29 {
        let base = LENGTH_BASE[code] as usize - 3;
        let mut i = 0;
        while i < 1 << LENGTH_EXTRA[code] && base + i < 256 {
            table[base + i] = code as u8;
            i += 1;
        }
        code += 1;
    }
    table
};

/// Distance code of every distance `d`: entry `d − 1` below 257, entry
/// `256 + ((d − 1) >> 7)` above (zlib's `_dist_code`; from code 16 on each
/// code spans whole 128-distance steps).
const DIST_CODE: [u8; 512] = {
    let mut table = [0u8; 512];
    let mut code = 0;
    while code < 30 {
        let base = DIST_BASE[code] as usize - 1;
        let mut i = 0;
        while i < 1 << DIST_EXTRA[code] {
            let d = base + i;
            table[if d < 256 { d } else { 256 + (d >> 7) }] = code as u8;
            i += 1;
        }
        code += 1;
    }
    table
};

/// (symbol, extra bit count, extra bits value) of a match length.
#[inline]
pub(crate) fn length_symbol(len: u16) -> (u16, u32, u16) {
    debug_assert!((3..=258).contains(&len));
    let code = LENGTH_CODE[len as usize - 3] as usize;
    (
        257 + code as u16,
        LENGTH_EXTRA[code],
        len - LENGTH_BASE[code],
    )
}

/// (symbol, extra bit count, extra bits value) of a match distance.
#[inline]
pub(crate) fn dist_symbol(dist: u16) -> (u16, u32, u16) {
    debug_assert!(dist >= 1);
    let d = dist as usize - 1;
    let code = DIST_CODE[if d < 256 { d } else { 256 + (d >> 7) }] as usize;
    (code as u16, DIST_EXTRA[code], dist - DIST_BASE[code])
}

// ---------------------------------------------------------------------------
// Huffman construction (max code length 15, RFC-conformant canonical codes).
// ---------------------------------------------------------------------------

/// Builds length-limited Huffman code lengths for `freqs` (limit `max_len`)
/// into `lengths`, allocation-free: a sorted-leaf two-queue merge over
/// fixed-size node arrays replaces the old heap-and-`Vec` build.
fn build_lengths_into(freqs: &[u32], max_len: u32, lengths: &mut [u32]) {
    debug_assert!(freqs.len() <= LITLEN_SYMS);
    debug_assert_eq!(freqs.len(), lengths.len());
    lengths.fill(0);
    let mut leaves = [(0u64, 0u16); LITLEN_SYMS];
    let mut n = 0usize;
    for (sym, &f) in freqs.iter().enumerate() {
        if f > 0 {
            leaves[n] = (f as u64, sym as u16);
            n += 1;
        }
    }
    match n {
        0 => return,
        1 => {
            lengths[leaves[0].1 as usize] = 1;
            return;
        }
        _ => {}
    }
    leaves[..n].sort_unstable();
    // Two-queue Huffman merge: leaves (sorted ascending) in one queue,
    // internal nodes (created in nondecreasing weight order) in the other.
    // Node ids: 0..n are leaves in sorted order, n..2n-1 are internal.
    let total = 2 * n - 1;
    let mut weight = [0u64; 2 * LITLEN_SYMS - 1];
    let mut parent = [0u16; 2 * LITLEN_SYMS - 1];
    for (i, &(w, _)) in leaves[..n].iter().enumerate() {
        weight[i] = w;
    }
    let mut li = 0usize; // next unconsumed leaf
    let mut ii = n; // next unconsumed internal node
    let mut next = n; // next internal node id to create
    while next < total {
        let a = if li < n && (ii >= next || weight[li] <= weight[ii]) {
            li += 1;
            li - 1
        } else {
            ii += 1;
            ii - 1
        };
        let b = if li < n && (ii >= next || weight[li] <= weight[ii]) {
            li += 1;
            li - 1
        } else {
            ii += 1;
            ii - 1
        };
        weight[next] = weight[a] + weight[b];
        parent[a] = next as u16;
        parent[b] = next as u16;
        next += 1;
    }
    // Parents always have larger ids than children, so one reverse sweep
    // resolves every depth from the root (id total-1, depth 0).
    let mut depth = [0u32; 2 * LITLEN_SYMS - 1];
    for node in (0..total - 1).rev() {
        depth[node] = depth[parent[node] as usize] + 1;
    }
    for (i, &(_, sym)) in leaves[..n].iter().enumerate() {
        lengths[sym as usize] = depth[i].max(1);
    }
    // Limit to max_len with a Kraft fixup (deepen the deepest shallow code).
    let mut over = false;
    for l in lengths.iter_mut() {
        if *l > max_len {
            *l = max_len;
            over = true;
        }
    }
    if over {
        let budget = 1u64 << max_len;
        let mut kraft: u64 = lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 1u64 << (max_len - l))
            .sum();
        while kraft > budget {
            let i = lengths
                .iter()
                .enumerate()
                .filter(|&(_, &l)| l > 0 && l < max_len)
                .max_by_key(|&(_, &l)| l)
                .map(|(i, _)| i)
                .expect("fixup always has a candidate");
            kraft -= 1u64 << (max_len - lengths[i] - 1);
            lengths[i] += 1;
        }
        // Deepening steps can overshoot below the budget, leaving an
        // *incomplete* code — strict inflaters (zlib, gzip) reject those
        // outright. Shorten the deepest codes whose Kraft step fits the
        // deficit (a max-length code always does, step 1) until the code
        // space is exactly full.
        while kraft < budget {
            let deficit = budget - kraft;
            let i = lengths
                .iter()
                .enumerate()
                .filter(|&(_, &l)| l > 1 && (1u64 << (max_len - l)) <= deficit)
                .max_by_key(|&(_, &l)| l)
                .map(|(i, _)| i)
                .expect("a max-length code always fits the deficit");
            kraft += 1u64 << (max_len - lengths[i]);
            lengths[i] -= 1;
        }
    }
}

/// Canonical code values from lengths (RFC 1951 §3.2.2 algorithm), stored
/// bit-reversed: DEFLATE sends a code's most significant bit first inside
/// its LSB-first stream, so emission writes these as they are.
/// Allocation-free (DEFLATE lengths never exceed 15).
fn assign_codes_into(lengths: &[u32], codes: &mut [u32]) {
    debug_assert_eq!(lengths.len(), codes.len());
    let mut bl_count = [0u32; 16];
    for &l in lengths {
        debug_assert!(l <= 15);
        if l > 0 {
            bl_count[l as usize] += 1;
        }
    }
    let mut next_code = [0u32; 16];
    let mut code = 0u32;
    for bits in 1..=15usize {
        code = (code + bl_count[bits - 1]) << 1;
        next_code[bits] = code;
    }
    for (i, &l) in lengths.iter().enumerate() {
        codes[i] = if l == 0 {
            0
        } else {
            let c = next_code[l as usize];
            next_code[l as usize] += 1;
            reverse_bits(c, l)
        };
    }
}

#[inline]
fn fixed_litlen_len(sym: usize) -> u32 {
    match sym {
        0..=143 => 8,
        144..=255 => 9,
        256..=279 => 7,
        _ => 8,
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Run-length encodes a code-length sequence into CL symbols
/// (16 = repeat previous 3–6, 17 = zeros 3–10, 18 = zeros 11–138),
/// written into `out` (sized for one symbol per input length). Returns the
/// symbol count.
fn rle_code_lengths(lengths: &[u32], out: &mut [(u16, u32, u16)]) -> usize {
    let mut n = 0usize;
    let mut push = |sym: u16, extra_bits: u32, extra: u16, n: &mut usize| {
        out[*n] = (sym, extra_bits, extra);
        *n += 1;
    };
    let mut i = 0usize;
    while i < lengths.len() {
        let cur = lengths[i];
        let mut run = 1usize;
        while i + run < lengths.len() && lengths[i + run] == cur {
            run += 1;
        }
        if cur == 0 {
            let mut left = run;
            while left >= 11 {
                let take = left.min(138);
                push(18, 7, (take - 11) as u16, &mut n);
                left -= take;
            }
            if left >= 3 {
                push(17, 3, (left - 3) as u16, &mut n);
                left = 0;
            }
            for _ in 0..left {
                push(0, 0, 0, &mut n);
            }
        } else {
            push(cur as u16, 0, 0, &mut n);
            let mut left = run - 1;
            while left >= 3 {
                let take = left.min(6);
                push(16, 2, (take - 3) as u16, &mut n);
                left -= take;
            }
            for _ in 0..left {
                push(cur as u16, 0, 0, &mut n);
            }
        }
        i += run;
    }
    n
}

/// A fully planned dynamic-block header: the CL-coded length sequence and
/// its exact transmitted bit count (what `dynamic_cost` prices and what
/// emission writes — one plan, so priced and actual bits cannot drift).
struct DynHeader {
    hlit: usize,
    hdist: usize,
    hclen: usize,
    cl_lengths: [u32; 19],
    cl_syms: [(u16, u32, u16); ALL_SYMS],
    n_cl: usize,
    bits: u64,
}

impl Default for DynHeader {
    fn default() -> Self {
        Self {
            hlit: 257,
            hdist: 1,
            hclen: 4,
            cl_lengths: [0; 19],
            cl_syms: [(0, 0, 0); ALL_SYMS],
            n_cl: 0,
            bits: 0,
        }
    }
}

fn plan_dynamic_header(litlen_lengths: &[u32], dist_lengths: &[u32], hdr: &mut DynHeader) {
    // HLIT/HDIST: trailing zeros may be trimmed but minimums apply.
    let hlit = litlen_lengths
        .iter()
        .rposition(|&l| l > 0)
        .map(|p| p + 1)
        .unwrap_or(0)
        .max(257);
    let hdist = dist_lengths
        .iter()
        .rposition(|&l| l > 0)
        .map(|p| p + 1)
        .unwrap_or(0)
        .max(1);
    let mut all = [0u32; ALL_SYMS];
    all[..hlit].copy_from_slice(&litlen_lengths[..hlit]);
    all[hlit..hlit + hdist].copy_from_slice(&dist_lengths[..hdist]);
    hdr.n_cl = rle_code_lengths(&all[..hlit + hdist], &mut hdr.cl_syms);

    let mut cl_freq = [0u32; 19];
    for &(sym, _, _) in &hdr.cl_syms[..hdr.n_cl] {
        cl_freq[sym as usize] += 1;
    }
    build_lengths_into(&cl_freq, 7, &mut hdr.cl_lengths);
    // A single-symbol CL code would be incomplete (one 1-bit code fills
    // half the space), and zlib rejects incomplete *code-length* codes
    // even in the single-code case it tolerates elsewhere. Pad with the
    // earliest unused symbol in transmission order so the 1-bit code
    // space is exactly full at minimal HCLEN cost.
    if hdr.cl_lengths.iter().filter(|&&l| l > 0).count() == 1 {
        let pad = CLC_ORDER
            .iter()
            .copied()
            .find(|&s| hdr.cl_lengths[s] == 0)
            .expect("19 symbols cannot all be used by a single-symbol code");
        hdr.cl_lengths[pad] = 1;
    }
    hdr.hclen = CLC_ORDER
        .iter()
        .rposition(|&s| hdr.cl_lengths[s] > 0)
        .map(|p| p + 1)
        .unwrap_or(4)
        .max(4);
    hdr.hlit = hlit;
    hdr.hdist = hdist;
    let mut bits = 14u64 + 3 * hdr.hclen as u64; // HLIT+HDIST+HCLEN fields
    for &(sym, extra_bits, _) in &hdr.cl_syms[..hdr.n_cl] {
        bits += hdr.cl_lengths[sym as usize] as u64 + extra_bits as u64;
    }
    hdr.bits = bits;
}

/// Per-block encode scratch: frequency tables, planned code lengths and
/// canonical codes, and the dynamic-header plan. One lives on the
/// [`Deflater`]; the splitter borrows it while pricing candidate blocks.
pub(crate) struct BlockScratch {
    pub(crate) litlen_freq: [u32; LITLEN_SYMS],
    pub(crate) dist_freq: [u32; DIST_SYMS],
    litlen_lengths: [u32; LITLEN_SYMS],
    litlen_codes: [u32; LITLEN_SYMS],
    dist_lengths: [u32; DIST_SYMS],
    dist_codes: [u32; DIST_SYMS],
    cl_codes: [u32; 19],
    hdr: DynHeader,
}

impl Default for BlockScratch {
    fn default() -> Self {
        Self {
            litlen_freq: [0; LITLEN_SYMS],
            dist_freq: [0; DIST_SYMS],
            litlen_lengths: [0; LITLEN_SYMS],
            litlen_codes: [0; LITLEN_SYMS],
            dist_lengths: [0; DIST_SYMS],
            dist_codes: [0; DIST_SYMS],
            cl_codes: [0; 19],
            hdr: DynHeader::default(),
        }
    }
}

/// How a block will be coded, chosen by exact bit cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BlockKind {
    Stored,
    Fixed,
    Dynamic,
}

/// Exact transmitted size of the dynamic encoding currently planned in
/// `scratch` (3-bit block header + table header + coded tokens + extras).
fn dynamic_cost(scratch: &BlockScratch) -> u64 {
    let mut bits = 3 + scratch.hdr.bits;
    for (sym, (&f, &l)) in scratch
        .litlen_freq
        .iter()
        .zip(&scratch.litlen_lengths)
        .enumerate()
    {
        bits += f as u64 * l as u64;
        if sym >= 257 {
            bits += f as u64 * LENGTH_EXTRA[sym - 257] as u64;
        }
    }
    for (sym, (&f, &l)) in scratch
        .dist_freq
        .iter()
        .zip(&scratch.dist_lengths)
        .enumerate()
    {
        bits += f as u64 * (l + DIST_EXTRA[sym]) as u64;
    }
    bits
}

/// Exact transmitted size under the fixed code tables.
fn fixed_cost(litlen_freq: &[u32; LITLEN_SYMS], dist_freq: &[u32; DIST_SYMS]) -> u64 {
    let mut bits = 3u64;
    for (sym, &f) in litlen_freq.iter().enumerate() {
        bits += f as u64 * fixed_litlen_len(sym) as u64;
        if sym >= 257 {
            bits += f as u64 * LENGTH_EXTRA[sym - 257] as u64;
        }
    }
    for (sym, &f) in dist_freq.iter().enumerate() {
        bits += f as u64 * (5 + DIST_EXTRA[sym]) as u64;
    }
    bits
}

/// Stored-block size, priced with worst-case byte alignment (≤ 7 pad bits
/// per 64 KiB chunk — the only non-exact term in block pricing).
fn stored_cost(byte_len: usize) -> u64 {
    let chunks = byte_len.div_ceil(65_535).max(1) as u64;
    chunks * (3 + 7 + 32) + 8 * byte_len as u64
}

/// Plans Huffman tables for the frequencies in `scratch` (which must
/// already count the end-of-block symbol) and returns the cheapest coding
/// with its exact bit cost. The dynamic plan stays in `scratch` for
/// emission.
pub(crate) fn price_block(scratch: &mut BlockScratch, byte_len: usize) -> (u64, BlockKind) {
    build_lengths_into(&scratch.litlen_freq, 15, &mut scratch.litlen_lengths);
    build_lengths_into(&scratch.dist_freq, 15, &mut scratch.dist_lengths);
    // RFC: when no distances occur, one dummy code keeps decoders happy.
    if scratch.dist_lengths.iter().all(|&l| l == 0) {
        scratch.dist_lengths[0] = 1;
    }
    plan_dynamic_header(
        &scratch.litlen_lengths,
        &scratch.dist_lengths,
        &mut scratch.hdr,
    );
    let dyn_bits = dynamic_cost(scratch);
    let fixed_bits = fixed_cost(&scratch.litlen_freq, &scratch.dist_freq);
    let stored_bits = stored_cost(byte_len);
    if stored_bits <= dyn_bits && stored_bits <= fixed_bits {
        (stored_bits, BlockKind::Stored)
    } else if fixed_bits <= dyn_bits {
        (fixed_bits, BlockKind::Fixed)
    } else {
        (dyn_bits, BlockKind::Dynamic)
    }
}

#[inline]
fn put_sym(w: &mut LsbWriter, lengths: &[u32], codes: &[u32], sym: usize) {
    let len = lengths[sym];
    debug_assert!(len > 0, "symbol {sym} has no code");
    w.write_bits(codes[sym] as u64, len);
}

fn write_tokens(
    w: &mut LsbWriter,
    tokens: &[Token],
    litlen_lengths: &[u32],
    litlen_codes: &[u32],
    dist_lengths: &[u32],
    dist_codes: &[u32],
) {
    for &t in tokens {
        match t {
            Token::Literal(b) => put_sym(w, litlen_lengths, litlen_codes, b as usize),
            Token::Match { len, dist } => {
                let (sym, eb, ev) = length_symbol(len);
                put_sym(w, litlen_lengths, litlen_codes, sym as usize);
                if eb > 0 {
                    w.write_bits(ev as u64, eb);
                }
                let (dsym, deb, dev) = dist_symbol(dist);
                put_sym(w, dist_lengths, dist_codes, dsym as usize);
                if deb > 0 {
                    w.write_bits(dev as u64, deb);
                }
            }
        }
    }
    put_sym(w, litlen_lengths, litlen_codes, 256); // end of block
}

fn emit_stored(w: &mut LsbWriter, raw: &[u8], is_final: bool) {
    if raw.is_empty() {
        w.write_bits(is_final as u64, 1);
        w.write_bits(0b00, 2);
        w.align_to_byte();
        w.write_bytes(&[0, 0, 0xFF, 0xFF]);
        return;
    }
    let mut chunks = raw.chunks(65_535).peekable();
    while let Some(chunk) = chunks.next() {
        let this_final = is_final && chunks.peek().is_none();
        w.write_bits(this_final as u64, 1);
        w.write_bits(0b00, 2);
        w.align_to_byte();
        let len = chunk.len() as u16;
        w.write_bytes(&len.to_le_bytes());
        w.write_bytes(&(!len).to_le_bytes());
        w.write_bytes(chunk);
    }
}

#[allow(clippy::too_many_arguments)]
fn emit_block(
    w: &mut LsbWriter,
    data: &[u8],
    tokens: &[Token],
    byte_start: usize,
    byte_end: usize,
    is_final: bool,
    kind: BlockKind,
    scratch: &mut BlockScratch,
) {
    match kind {
        BlockKind::Stored => emit_stored(w, &data[byte_start..byte_end], is_final),
        BlockKind::Fixed => {
            // The fixed code is canonical over the full 288-symbol alphabet
            // (286/287 are reserved but shape the code space).
            let mut lengths = [0u32; 288];
            for (sym, l) in lengths.iter_mut().enumerate() {
                *l = fixed_litlen_len(sym);
            }
            let mut codes = [0u32; 288];
            assign_codes_into(&lengths, &mut codes);
            let dist_lengths = [5u32; 30];
            let mut dist_codes = [0u32; 30];
            assign_codes_into(&dist_lengths, &mut dist_codes);
            w.write_bits(is_final as u64, 1);
            w.write_bits(0b01, 2);
            write_tokens(w, tokens, &lengths, &codes, &dist_lengths, &dist_codes);
        }
        BlockKind::Dynamic => {
            // Emission writes exactly the plan `price_block` left in scratch.
            assign_codes_into(&scratch.litlen_lengths, &mut scratch.litlen_codes);
            assign_codes_into(&scratch.dist_lengths, &mut scratch.dist_codes);
            assign_codes_into(&scratch.hdr.cl_lengths, &mut scratch.cl_codes);
            w.write_bits(is_final as u64, 1);
            w.write_bits(0b10, 2);
            w.write_bits((scratch.hdr.hlit - 257) as u64, 5);
            w.write_bits((scratch.hdr.hdist - 1) as u64, 5);
            w.write_bits((scratch.hdr.hclen - 4) as u64, 4);
            for &s in CLC_ORDER.iter().take(scratch.hdr.hclen) {
                w.write_bits(scratch.hdr.cl_lengths[s] as u64, 3);
            }
            for &(sym, extra_bits, extra) in &scratch.hdr.cl_syms[..scratch.hdr.n_cl] {
                put_sym(w, &scratch.hdr.cl_lengths, &scratch.cl_codes, sym as usize);
                if extra_bits > 0 {
                    w.write_bits(extra as u64, extra_bits);
                }
            }
            write_tokens(
                w,
                tokens,
                &scratch.litlen_lengths,
                &scratch.litlen_codes,
                &scratch.dist_lengths,
                &scratch.dist_codes,
            );
        }
    }
}

/// Counters from the most recent [`Deflater::compress`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeflateStats {
    /// DEFLATE blocks emitted.
    pub blocks: u64,
    /// Content-aware block boundaries that survived merge-back and beat the
    /// fixed segmentation (0 when splitting is off or fixed blocks won).
    pub split_boundaries: u64,
    /// Literal tokens in the LZ stream.
    pub literal_tokens: u64,
    /// Back-reference tokens in the LZ stream.
    pub match_tokens: u64,
}

/// [`Deflater::estimate_saving`] also prices the payload as one
/// literal-only block per segment of this many bytes (the LZ77 window), so
/// a payload whose statistics shift, such as a Huffman table ahead of its
/// code stream, is priced as the block splitter would code it.
const ESTIMATE_SEGMENT: usize = 32 * 1024;

/// A reusable DEFLATE compressor.
///
/// Owns the LZ77 matcher state ([`LzState`]), the token buffer, the
/// splitter's chunk histograms, the Huffman scratch, and a recycled output
/// buffer — so a warm `Deflater` compresses without allocating (beyond
/// first-time growth of those buffers). [`CodecSession`]s hold one as part
/// of their entropy scratch; one-shot callers get the same code path via
/// [`crate::deflate_compress`].
///
/// [`CodecSession`]: https://docs.rs/szr-core
#[derive(Default)]
pub struct Deflater {
    effort: Effort,
    split: bool,
    lz: LzState,
    tokens: Vec<Token>,
    splitter: Splitter,
    scratch: BlockScratch,
    probe: Vec<u32>,
    out: Vec<u8>,
    stats: DeflateStats,
}

impl Deflater {
    /// A deflater at [`Effort::Default`] with content-aware splitting on.
    pub fn new() -> Self {
        Self {
            split: true,
            ..Self::default()
        }
    }

    /// A deflater at the given effort (splitting on).
    pub fn with_effort(effort: Effort) -> Self {
        Self {
            effort,
            ..Self::new()
        }
    }

    /// Sets the matcher effort for subsequent compressions.
    pub fn set_effort(&mut self, effort: Effort) {
        self.effort = effort;
    }

    /// Enables or disables content-aware block splitting (off falls back to
    /// fixed 64 Ki-token blocks — the historical behavior).
    pub fn set_split(&mut self, split: bool) {
        self.split = split;
    }

    /// Counters from the most recent [`compress`](Self::compress) call.
    pub fn stats(&self) -> DeflateStats {
        self.stats
    }

    /// Compresses `data` into a complete DEFLATE stream held in the
    /// deflater's recycled output buffer (valid until the next call).
    pub fn compress(&mut self, data: &[u8]) -> &[u8] {
        self.stats = DeflateStats::default();
        self.lz.tokenize_into(data, self.effort, &mut self.tokens);
        let mut w = LsbWriter::from_vec(std::mem::take(&mut self.out));
        if self.tokens.is_empty() {
            // Empty stream: one final, empty stored block.
            self.stats.blocks = 1;
            emit_stored(&mut w, &[], true);
            self.out = w.finish();
            return &self.out;
        }
        for t in &self.tokens {
            match t {
                Token::Literal(_) => self.stats.literal_tokens += 1,
                Token::Match { .. } => self.stats.match_tokens += 1,
            }
        }
        self.splitter
            .split(&self.tokens, self.split, &mut self.scratch, &mut self.stats);
        let n_spans = self.splitter.spans.len();
        self.stats.blocks = n_spans as u64;
        for i in 0..n_spans {
            let span = self.splitter.spans[i];
            self.splitter.span_freqs(span, &mut self.scratch);
            let (_, kind) = price_block(&mut self.scratch, span.byte_end - span.byte_start);
            emit_block(
                &mut w,
                data,
                &self.tokens[span.token_start..span.token_end],
                span.byte_start,
                span.byte_end,
                i + 1 == n_spans,
                kind,
                &mut self.scratch,
            );
        }
        self.out = w.finish();
        &self.out
    }

    /// Predicts what [`compress`](Self::compress) would save on `data`:
    /// `data.len()` minus the deflated length, in bytes, negative when the
    /// pass would grow it. It costs a few nanoseconds per byte, against
    /// tens for the pass. One counting pass builds the byte histogram and
    /// the block pricer prices `data` exactly as one literal-only block,
    /// the block DEFLATE writes when it finds no match. A short hash probe
    /// then credits each repeat it finds with the bits its bytes cost as
    /// literals in that block, less the cost of a match token. A payload
    /// longer than one 32 KiB segment is also priced as one literal-only
    /// block per segment, and the cheaper of the two predictions wins. The
    /// prediction reads low where the block splitter's boundaries or
    /// matches the probe misses would pay.
    pub fn estimate_saving(&mut self, data: &[u8]) -> i64 {
        let scratch = &mut self.scratch;
        let segmented = data.len() > ESTIMATE_SEGMENT;
        let mut total = [0u32; 256];
        let mut segmented_bits = 0u64;
        for segment in data.chunks(ESTIMATE_SEGMENT) {
            let counts = count_bytes(segment);
            for (t, &c) in total.iter_mut().zip(&counts) {
                *t += c;
            }
            if segmented {
                segmented_bits += price_literals(scratch, &counts, segment.len());
            }
        }
        let whole_bits = price_literals(scratch, &total, data.len());
        let match_bits = probe_match_bits(data, &scratch.litlen_lengths, &mut self.probe);
        let mut predicted_bits = whole_bits.saturating_sub(match_bits);
        if segmented {
            predicted_bits = predicted_bits.min(segmented_bits);
        }
        data.len() as i64 - predicted_bits.div_ceil(8) as i64
    }

    /// [`compress`](Self::compress) into a fresh `Vec`.
    pub fn compress_to_vec(&mut self, data: &[u8]) -> Vec<u8> {
        self.compress(data).to_vec()
    }
}

/// Prices byte `counts` as one literal-only block of `byte_len` bytes,
/// leaving its plan in `scratch`.
fn price_literals(scratch: &mut BlockScratch, counts: &[u32; 256], byte_len: usize) -> u64 {
    scratch.litlen_freq.fill(0);
    scratch.litlen_freq[..256].copy_from_slice(counts);
    scratch.litlen_freq[256] = 1; // end-of-block
    scratch.dist_freq.fill(0);
    price_block(scratch, byte_len).0
}

/// The byte histogram of `data`. Four interleaved tables keep runs of one
/// byte value from serializing on a single counter.
fn count_bytes(data: &[u8]) -> [u32; 256] {
    let mut tables = [[0u32; 256]; 4];
    let mut quads = data.chunks_exact(4);
    for q in &mut quads {
        tables[0][q[0] as usize] += 1;
        tables[1][q[1] as usize] += 1;
        tables[2][q[2] as usize] += 1;
        tables[3][q[3] as usize] += 1;
    }
    for &b in quads.remainder() {
        tables[0][b as usize] += 1;
    }
    std::array::from_fn(|byte| tables.iter().map(|t| t[byte]).sum())
}

/// Compresses `data` into a complete DEFLATE stream (one-shot; repeated
/// callers should hold a [`Deflater`] to reuse its scratch).
pub fn compress(data: &[u8]) -> Vec<u8> {
    Deflater::new().compress_to_vec(data)
}

/// The decoder `Inflater` replaced, kept as its equivalence oracle: a
/// bit-at-a-time canonical decode over an LSB-first reader, one symbol and
/// one output byte at a time.
#[cfg(test)]
pub(crate) mod reference {
    use super::{CLC_ORDER, DIST_BASE, DIST_EXTRA, LENGTH_BASE, LENGTH_EXTRA};
    use crate::bitio::LsbReader;
    use crate::{Error, Result};

    /// Canonical decoder over the code lengths.
    pub(crate) struct HuffDecoder {
        /// count[l] = number of codes of length l.
        count: [u32; 16],
        /// first canonical code of each length.
        first_code: [u32; 16],
        /// index into `symbols` of the first code of each length.
        first_index: [u32; 16],
        /// symbols sorted by (length, symbol).
        symbols: Vec<u16>,
    }

    impl HuffDecoder {
        pub(crate) fn from_lengths(lengths: &[u32]) -> Result<Self> {
            let mut count = [0u32; 16];
            for &l in lengths {
                if l > 15 {
                    return Err(Error::Corrupt("code length exceeds 15"));
                }
                if l > 0 {
                    count[l as usize] += 1;
                }
            }
            let mut kraft: u64 = 0;
            for l in 1..=15u32 {
                kraft += (count[l as usize] as u64) << (15 - l);
            }
            if kraft > 1 << 15 {
                return Err(Error::Corrupt("oversubscribed huffman table"));
            }
            let mut first_code = [0u32; 16];
            let mut first_index = [0u32; 16];
            let mut code = 0u32;
            let mut index = 0u32;
            for l in 1..=15usize {
                code <<= 1;
                first_code[l] = code;
                first_index[l] = index;
                code += count[l];
                index += count[l];
            }
            let mut symbols: Vec<u16> = (0..lengths.len() as u16)
                .filter(|&s| lengths[s as usize] > 0)
                .collect();
            symbols.sort_by_key(|&s| (lengths[s as usize], s));
            Ok(Self {
                count,
                first_code,
                first_index,
                symbols,
            })
        }

        fn decode(&self, reader: &mut LsbReader<'_>) -> Result<u16> {
            let mut code = 0u32;
            for len in 1..=15usize {
                code = (code << 1) | reader.read_bit()?;
                let n = self.count[len];
                if n > 0 {
                    let offset = code.wrapping_sub(self.first_code[len]);
                    if offset < n {
                        return Ok(self.symbols[(self.first_index[len] + offset) as usize]);
                    }
                }
            }
            Err(Error::Corrupt("invalid huffman code"))
        }
    }

    fn inflate_block(
        reader: &mut LsbReader<'_>,
        out: &mut Vec<u8>,
        litlen: &HuffDecoder,
        dist: &HuffDecoder,
    ) -> Result<()> {
        loop {
            let sym = litlen.decode(reader)?;
            match sym {
                0..=255 => out.push(sym as u8),
                256 => return Ok(()),
                257..=285 => {
                    let idx = (sym - 257) as usize;
                    let len =
                        LENGTH_BASE[idx] as usize + reader.read_bits(LENGTH_EXTRA[idx])? as usize;
                    let dsym = dist.decode(reader)? as usize;
                    if dsym >= 30 {
                        return Err(Error::Corrupt("distance symbol out of range"));
                    }
                    let d = DIST_BASE[dsym] as usize + reader.read_bits(DIST_EXTRA[dsym])? as usize;
                    if d > out.len() {
                        return Err(Error::Corrupt("distance beyond output start"));
                    }
                    let start = out.len() - d;
                    for i in 0..len {
                        let b = out[start + i];
                        out.push(b);
                    }
                }
                _ => return Err(Error::Corrupt("literal/length symbol out of range")),
            }
        }
    }

    fn read_dynamic_tables(reader: &mut LsbReader<'_>) -> Result<(HuffDecoder, HuffDecoder)> {
        let hlit = reader.read_bits(5)? as usize + 257;
        let hdist = reader.read_bits(5)? as usize + 1;
        let hclen = reader.read_bits(4)? as usize + 4;
        if hlit > 286 || hdist > 30 {
            return Err(Error::Corrupt("table sizes out of range"));
        }
        let mut cl_lengths = [0u32; 19];
        for &s in CLC_ORDER.iter().take(hclen) {
            cl_lengths[s] = reader.read_bits(3)? as u32;
        }
        let cl = HuffDecoder::from_lengths(&cl_lengths)?;
        let mut all = Vec::with_capacity(hlit + hdist);
        while all.len() < hlit + hdist {
            let sym = cl.decode(reader)?;
            match sym {
                0..=15 => all.push(sym as u32),
                16 => {
                    let &prev = all
                        .last()
                        .ok_or(Error::Corrupt("repeat with no prior length"))?;
                    let n = reader.read_bits(2)? as usize + 3;
                    all.extend(std::iter::repeat_n(prev, n));
                }
                17 => {
                    let n = reader.read_bits(3)? as usize + 3;
                    all.extend(std::iter::repeat_n(0u32, n));
                }
                18 => {
                    let n = reader.read_bits(7)? as usize + 11;
                    all.extend(std::iter::repeat_n(0u32, n));
                }
                _ => return Err(Error::Corrupt("invalid code-length symbol")),
            }
        }
        if all.len() != hlit + hdist {
            return Err(Error::Corrupt("code-length overrun"));
        }
        let litlen = HuffDecoder::from_lengths(&all[..hlit])?;
        let dist = HuffDecoder::from_lengths(&all[hlit..])?;
        Ok((litlen, dist))
    }

    /// Decompresses a complete DEFLATE stream.
    pub(crate) fn decompress(data: &[u8]) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        let mut reader = LsbReader::new(data);
        loop {
            let bfinal = reader.read_bit()?;
            let btype = reader.read_bits(2)?;
            match btype {
                0b00 => {
                    let header = reader.read_aligned_bytes(4)?;
                    let len = u16::from_le_bytes([header[0], header[1]]);
                    let nlen = u16::from_le_bytes([header[2], header[3]]);
                    if len != !nlen {
                        return Err(Error::Corrupt("stored block LEN/NLEN mismatch"));
                    }
                    let payload = reader.read_aligned_bytes(len as usize)?;
                    out.extend_from_slice(payload);
                }
                0b01 => {
                    let mut fixed = [8u32; 288];
                    fixed[144..256].fill(9);
                    fixed[256..280].fill(7);
                    let litlen = HuffDecoder::from_lengths(&fixed)?;
                    let dist = HuffDecoder::from_lengths(&[5; 30])?;
                    inflate_block(&mut reader, &mut out, &litlen, &dist)?;
                }
                0b10 => {
                    let (litlen, dist) = read_dynamic_tables(&mut reader)?;
                    inflate_block(&mut reader, &mut out, &litlen, &dist)?;
                }
                _ => return Err(Error::Corrupt("reserved block type")),
            }
            if bfinal == 1 {
                return Ok(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deflate_decompress as decompress;
    use crate::lz77::structured_corpus;

    #[test]
    fn length_symbols_match_rfc() {
        assert_eq!(length_symbol(3), (257, 0, 0));
        assert_eq!(length_symbol(10), (264, 0, 0));
        assert_eq!(length_symbol(11), (265, 1, 0));
        assert_eq!(length_symbol(12), (265, 1, 1));
        assert_eq!(length_symbol(13), (266, 1, 0));
        assert_eq!(length_symbol(257), (284, 5, 30));
        assert_eq!(length_symbol(258), (285, 0, 0));
        // Every length lands in its code's range, 258 alone in code 28.
        for len in 3..=258u16 {
            let (sym, extra_bits, extra) = length_symbol(len);
            let code = sym as usize - 257;
            assert_eq!(len, LENGTH_BASE[code] + extra, "length {len}");
            assert!(extra < 1 << extra_bits && extra_bits == LENGTH_EXTRA[code]);
            assert_eq!(code == 28, len == 258);
        }
    }

    #[test]
    fn dist_symbols_match_rfc() {
        assert_eq!(dist_symbol(1), (0, 0, 0));
        assert_eq!(dist_symbol(4), (3, 0, 0));
        assert_eq!(dist_symbol(5), (4, 1, 0));
        assert_eq!(dist_symbol(6), (4, 1, 1));
        assert_eq!(dist_symbol(24577), (29, 13, 0));
        assert_eq!(dist_symbol(32768), (29, 13, 8191));
        // Every distance lands in its code's range.
        for dist in 1..=32768u16 {
            let (code, extra_bits, extra) = dist_symbol(dist);
            assert_eq!(dist, DIST_BASE[code as usize] + extra, "distance {dist}");
            assert!(extra < 1 << extra_bits && extra_bits == DIST_EXTRA[code as usize]);
        }
    }

    #[test]
    fn canonical_codes_follow_rfc_example() {
        // RFC 1951 §3.2.2 worked example: lengths (3,3,3,3,3,2,4,4) yield
        // codes 010,011,100,101,110,00,1110,1111, stored bit-reversed.
        let lengths = [3u32, 3, 3, 3, 3, 2, 4, 4];
        let mut codes = [0u32; 8];
        assign_codes_into(&lengths, &mut codes);
        let canonical: Vec<u32> = codes
            .iter()
            .zip(&lengths)
            .map(|(&c, &l)| reverse_bits(c, l))
            .collect();
        assert_eq!(
            canonical,
            vec![0b010, 0b011, 0b100, 0b101, 0b110, 0b00, 0b1110, 0b1111]
        );
    }

    #[test]
    fn scratch_huffman_build_is_optimal_on_known_freqs() {
        // Frequencies 1,1,2,4: optimal depths 3,3,2,1 (cost 14 bits).
        let freqs = [1u32, 1, 2, 4];
        let mut lengths = [0u32; 4];
        build_lengths_into(&freqs, 15, &mut lengths);
        assert_eq!(lengths, [3, 3, 2, 1]);
        // Kraft inequality holds with equality for a full tree.
        let kraft: f64 = lengths.iter().map(|&l| 0.5f64.powi(l as i32)).sum();
        assert!((kraft - 1.0).abs() < 1e-12);
    }

    #[test]
    fn length_limited_codes_are_exactly_complete() {
        // Fibonacci-like frequencies force the unconstrained Huffman tree
        // far past any practical length limit; the over-limit fixup then
        // deepens codes and must restore an *exactly* complete code —
        // strict inflaters (zlib, gzip) reject incomplete length sets.
        for (syms, max_len) in [(19usize, 7u32), (40, 7), (286, 15), (30, 15)] {
            let mut freqs = vec![0u32; syms];
            let (mut a, mut b) = (1u64, 1u64);
            for f in freqs.iter_mut() {
                *f = a.min(u32::MAX as u64) as u32;
                let next = (a + b).min(u32::MAX as u64);
                a = b;
                b = next;
            }
            let mut lengths = vec![0u32; syms];
            build_lengths_into(&freqs, max_len, &mut lengths);
            let kraft: u64 = lengths
                .iter()
                .filter(|&&l| l > 0)
                .map(|&l| 1u64 << (max_len - l))
                .sum();
            assert_eq!(
                kraft,
                1u64 << max_len,
                "{syms} syms at max_len {max_len}: incomplete code"
            );
            assert!(lengths.iter().all(|&l| l <= max_len));
        }
    }

    #[test]
    fn rle_compacts_zero_runs() {
        let mut lengths = vec![0u32; 140];
        lengths[0] = 5;
        let mut out = [(0u16, 0u32, 0u16); ALL_SYMS];
        let n = rle_code_lengths(&lengths, &mut out);
        // 5, then 139 zeros -> one 18-run of 138 and one literal zero.
        assert_eq!(out[0].0, 5);
        assert_eq!(out[1].0, 18);
        assert_eq!(out[1].2, 127); // 138 - 11
        assert_eq!(out[2].0, 0);
        assert_eq!(n, 3);
    }

    #[test]
    fn decoder_rejects_oversubscribed_tables() {
        use reference::HuffDecoder;
        assert!(HuffDecoder::from_lengths(&[1, 1, 1]).is_err());
        assert!(HuffDecoder::from_lengths(&[1, 2, 2]).is_ok());
    }

    #[test]
    fn stored_block_roundtrip() {
        // Force the stored path with incompressible input shorter than any
        // dynamic header.
        let data: Vec<u8> = (0..=255u8).collect();
        let packed = compress(&data);
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn empty_input_is_a_single_stored_block() {
        let packed = compress(&[]);
        // BFINAL=1, BTYPE=00, aligned LEN=0/NLEN=0xFFFF.
        assert_eq!(packed, vec![0b0000_0001, 0, 0, 0xFF, 0xFF]);
        assert_eq!(decompress(&packed).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn multi_block_inputs_roundtrip() {
        // > 64 Ki tokens forces multiple blocks.
        let data: Vec<u8> = (0..200_000u64)
            .map(|i| {
                let h = i.wrapping_mul(0xA076_1D64_78BD_642F);
                ((h >> 56) ^ (h >> 13)) as u8
            })
            .collect();
        let packed = compress(&data);
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn overlapping_match_decodes_byte_serially() {
        let data = b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa".to_vec();
        let packed = compress(&data);
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    /// 24 × 32 KiB segments cycling text, zeros and hash noise: a fixed
    /// 64 Ki-token block straddles several content phases and pays for one
    /// shared Huffman table, the case content-aware splitting exists for.
    fn mixed_segments() -> Vec<u8> {
        let seg = 32 * 1024;
        let words: &[u8] = b"the quick brown band of floats jumped over the lazy archive ";
        let mut data = Vec::with_capacity(24 * seg);
        for s in 0..24 {
            let end = (s + 1) * seg;
            match s % 3 {
                0 => {
                    while data.len() < end {
                        data.extend_from_slice(words);
                    }
                    data.truncate(end);
                }
                1 => data.resize(end, 0),
                _ => {
                    for i in data.len() as u64..end as u64 {
                        data.push((i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8);
                    }
                }
            }
        }
        data
    }

    #[test]
    fn split_blocks_never_beat_by_fixed_blocks_on_structured_corpus() {
        for data in [structured_corpus(), mixed_segments()] {
            let mut adaptive = Deflater::new();
            let mut fixed = Deflater::new();
            fixed.set_split(false);
            let split_len = adaptive.compress(&data).len();
            let fixed_len = fixed.compress(&data).len();
            assert!(
                split_len <= fixed_len,
                "split {split_len} > fixed {fixed_len}"
            );
            assert_eq!(decompress(adaptive.compress(&data)).unwrap(), data);
            assert_eq!(decompress(fixed.compress(&data)).unwrap(), data);
        }
    }

    #[test]
    fn estimate_saving_tracks_the_pass() {
        // Bytes with matches but a near-flat histogram: the literal-only
        // price finds almost nothing, the match probe most of the rest.
        let patterned: Vec<u8> = (0..100_000u64)
            .map(|i| {
                let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                ((h ^ (h >> 29)) & 0xFF) as u8
            })
            .collect();
        let mut d = Deflater::new();
        for data in [
            patterned,
            vec![42u8; 200_000],
            structured_corpus(),
            mixed_segments(),
        ] {
            let n = data.len() as i64;
            let estimate = d.estimate_saving(&data);
            let actual = n - d.compress(&data).len() as i64;
            assert!(
                estimate <= actual && 2 * estimate >= actual,
                "{n} bytes: estimate {estimate}, actual {actual}"
            );
        }
        // Noise: neither saves anything worth a pass.
        let mut state = 1u64;
        let noise: Vec<u8> = (0..100_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect();
        assert!(d.estimate_saving(&noise) <= 0);
        assert!(d.compress(&noise).len() >= noise.len());
    }

    #[test]
    fn deflater_reuse_matches_one_shot_output() {
        let inputs: [&[u8]; 3] = [b"reuse me reuse me reuse me", &[0u8; 4096], b"short"];
        let mut d = Deflater::new();
        for input in inputs {
            assert_eq!(d.compress(input), compress(input).as_slice());
        }
    }

    #[test]
    fn stats_report_blocks_and_token_mix() {
        let data = structured_corpus();
        let mut d = Deflater::new();
        d.compress(&data);
        let stats = d.stats();
        assert!(stats.blocks >= 1);
        assert!(stats.match_tokens > 0, "structured data must find matches");
        assert!(stats.literal_tokens > 0);
    }
}
