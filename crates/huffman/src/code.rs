//! Canonical Huffman code construction, encoding, and decoding.

use crate::lut::{DecodeLut, Lookup};
use szr_bitstream::{BitCursor, BitReader, BitWriter, Error, Result};

/// Hard ceiling on codeword length.
///
/// 48 bits keeps any codeword (plus slack) inside a `u64` while being far
/// deeper than real quantization-code distributions ever need; the limit only
/// binds on adversarial frequency profiles (Fibonacci-like), where a
/// Kraft-sum fixup redistributes depth.
pub const MAX_CODE_LEN: u32 = 48;

/// A canonical Huffman code over a `u32` alphabet.
///
/// Construction produces one code length per symbol (0 = symbol unused);
/// canonical code values are derived from the lengths alone, which is what
/// makes the serialized table compact.
pub struct HuffmanCodec {
    /// Code length per symbol; 0 for unused symbols.
    lengths: Vec<u32>,
    /// Canonical code value per symbol (valid when length > 0).
    codes: Vec<u64>,
    /// Decode table: symbols sorted by (length, symbol).
    sorted_symbols: Vec<u32>,
    /// First canonical code value for each length 1..=MAX_CODE_LEN.
    first_code: [u64; (MAX_CODE_LEN + 1) as usize],
    /// Index into `sorted_symbols` of the first code of each length.
    first_index: [u32; (MAX_CODE_LEN + 1) as usize],
    /// Number of codes of each length.
    count: [u32; (MAX_CODE_LEN + 1) as usize],
    /// Two-level decode table, built lazily on the first table-driven
    /// decode so encode-only codecs (compression, size estimation) never
    /// pay for it.
    lut: std::sync::OnceLock<DecodeLut>,
}

/// The empty code: no symbol has a codeword. A decoder's codec cache
/// starts from it and rebuilds it in place ([`HuffmanCodec::rebuild_with`]).
impl Default for HuffmanCodec {
    fn default() -> Self {
        Self {
            lengths: Vec::new(),
            codes: Vec::new(),
            sorted_symbols: Vec::new(),
            first_code: [0; (MAX_CODE_LEN + 1) as usize],
            first_index: [0; (MAX_CODE_LEN + 1) as usize],
            count: [0; (MAX_CODE_LEN + 1) as usize],
            lut: std::sync::OnceLock::new(),
        }
    }
}

impl HuffmanCodec {
    /// Builds an optimal (length-limited) code from symbol frequencies.
    ///
    /// Symbols with zero frequency get no code. A single-symbol alphabet
    /// receives a 1-bit code so the payload remains self-delimiting.
    pub fn from_frequencies(freqs: &[u64]) -> Self {
        let lengths = build_lengths(freqs);
        Self::from_lengths(&lengths).expect("construction yields valid lengths")
    }

    /// Rebuilds a codec from a code-length table (e.g. read from an archive).
    ///
    /// Returns `None` if the lengths violate the Kraft inequality or exceed
    /// [`MAX_CODE_LEN`], which indicates a corrupt table.
    pub fn from_lengths(lengths: &[u32]) -> Option<Self> {
        let mut codec = Self {
            lengths: lengths.to_vec(),
            ..Self::default()
        };
        codec.derive().then_some(codec)
    }

    /// [`Self::from_lengths`] into this codec's own buffers: `fill` writes
    /// the new code lengths into the (cleared) length table, and every
    /// derived table is rebuilt in place — the decode table too, when one
    /// was built — so a decoder meeting a new table per band allocates
    /// only when a table outgrows the earlier ones.
    ///
    /// # Errors
    /// `fill`'s error, or [`Error::Corrupt`] when the lengths are not a
    /// valid code; the codec is then left empty (it codes no symbol).
    pub fn rebuild_with(&mut self, fill: impl FnOnce(&mut Vec<u32>) -> Result<()>) -> Result<()> {
        let lut = self.lut.take();
        self.lengths.clear();
        let filled = fill(&mut self.lengths);
        if filled.is_err() || !self.derive() {
            self.lengths.clear();
            self.derive();
            return filled.and(Err(Error::Corrupt("invalid huffman lengths")));
        }
        if let Some(mut lut) = lut {
            lut.rebuild(&self.lengths, &self.codes);
            let _ = self.lut.set(lut);
        }
        Ok(())
    }

    /// Derives the canonical codes and decode tables from `self.lengths`,
    /// reusing their buffers; `false` (tables unspecified) when the lengths
    /// are not a valid code.
    fn derive(&mut self) -> bool {
        let lengths = &self.lengths;
        let mut count = [0u32; (MAX_CODE_LEN + 1) as usize];
        for &len in lengths {
            if len > MAX_CODE_LEN {
                return false;
            }
            if len > 0 {
                count[len as usize] += 1;
            }
        }
        // Kraft: sum of 2^(MAX-len) must not exceed 2^MAX.
        let mut kraft: u128 = 0;
        for len in 1..=MAX_CODE_LEN {
            kraft += (count[len as usize] as u128) << (MAX_CODE_LEN - len);
        }
        if kraft > 1u128 << MAX_CODE_LEN {
            return false;
        }

        let mut first_code = [0u64; (MAX_CODE_LEN + 1) as usize];
        let mut first_index = [0u32; (MAX_CODE_LEN + 1) as usize];
        let mut code = 0u64;
        let mut index = 0u32;
        for len in 1..=MAX_CODE_LEN as usize {
            code <<= 1;
            first_code[len] = code;
            first_index[len] = index;
            code += count[len] as u64;
            index += count[len];
        }

        // Symbols in (length, symbol) order: each length's run starts at
        // its first index and fills in symbol order. The canonical code of
        // a symbol is its length's first code plus its rank in that run.
        self.sorted_symbols.clear();
        self.sorted_symbols.resize(index as usize, 0);
        self.codes.clear();
        self.codes.resize(lengths.len(), 0);
        let mut next = first_index;
        for (sym, &len) in lengths.iter().enumerate() {
            if len > 0 {
                let len = len as usize;
                self.sorted_symbols[next[len] as usize] = sym as u32;
                self.codes[sym] = first_code[len] + (next[len] - first_index[len]) as u64;
                next[len] += 1;
            }
        }
        self.first_code = first_code;
        self.first_index = first_index;
        self.count = count;
        true
    }

    /// Code length per symbol (0 = unused).
    pub fn lengths(&self) -> &[u32] {
        &self.lengths
    }

    /// Number of symbols with a code.
    pub fn used_symbols(&self) -> usize {
        self.sorted_symbols.len()
    }

    /// Total payload bits this codec would emit for the given frequencies.
    pub fn payload_bits(&self, freqs: &[u64]) -> u64 {
        freqs
            .iter()
            .zip(&self.lengths)
            .map(|(&f, &l)| f * l as u64)
            .sum()
    }

    /// Encodes one symbol.
    ///
    /// # Panics
    /// Panics if the symbol has no code (zero frequency at build time).
    #[inline]
    pub fn encode(&self, symbol: u32, out: &mut BitWriter) {
        let len = self.lengths[symbol as usize];
        assert!(len > 0, "symbol {symbol} has no code");
        out.write_bits(self.codes[symbol as usize], len);
    }

    /// Encodes a full symbol stream.
    pub fn encode_all(&self, symbols: &[u32], out: &mut BitWriter) {
        for &s in symbols {
            self.encode(s, out);
        }
    }

    /// Encodes `symbol` if this codec has a codeword for it, returning
    /// `false` (writer untouched) otherwise — the coverage test of the fused
    /// quantize→encode path, where a reused table may lack a codeword for a
    /// rare code and the caller falls back to rebuilding.
    #[inline]
    pub fn try_encode(&self, symbol: u32, out: &mut BitWriter) -> bool {
        match self.lengths.get(symbol as usize) {
            Some(&len) if len > 0 => {
                out.write_bits(self.codes[symbol as usize], len);
                true
            }
            _ => false,
        }
    }

    /// Decodes one symbol by canonical first-code walking — the bit-at-a-time
    /// oracle the table-driven path falls back to (and is property-tested
    /// against).
    #[inline]
    pub fn decode(&self, bits: &mut BitReader<'_>) -> Result<u32> {
        let mut code = 0u64;
        for len in 1..=MAX_CODE_LEN as usize {
            code = (code << 1) | bits.read_bit()? as u64;
            let n = self.count[len];
            if n > 0 {
                let offset = code.wrapping_sub(self.first_code[len]);
                if offset < n as u64 {
                    return Ok(
                        self.sorted_symbols[(self.first_index[len] + offset as u32) as usize]
                    );
                }
            }
        }
        Err(Error::Corrupt("huffman code exceeds maximum length"))
    }

    /// Decodes one symbol through the two-level table: peek the primary
    /// window, look up, validate the true length against the bits actually
    /// remaining, consume. Codes deeper than the table covers fall back to
    /// [`Self::decode`].
    #[inline]
    fn decode_fast(&self, lut: &DecodeLut, bits: &mut BitReader<'_>) -> Result<u32> {
        let lookup = match lut.root(bits.peek_bits(lut.primary_bits())) {
            Lookup::Sub { base, bits: sub } => {
                let window = bits.peek_bits(lut.primary_bits() + sub);
                lut.sub(base, sub, window)
            }
            other => other,
        };
        match lookup {
            Lookup::Symbol { symbol, len } => {
                if bits.remaining_bits() < len as usize {
                    return Err(Error::UnexpectedEof);
                }
                bits.consume(len);
                Ok(symbol)
            }
            Lookup::Slow => self.decode(bits),
            // Zero padding past the true end of the stream can steer the
            // peek into a hole of the table; either way no codeword starts
            // with these bits.
            Lookup::Invalid | Lookup::Sub { .. } => {
                if bits.remaining_bits() < MAX_CODE_LEN as usize {
                    Err(Error::UnexpectedEof)
                } else {
                    Err(Error::Corrupt("no huffman code starts with peeked bits"))
                }
            }
        }
    }

    /// Decodes exactly `n` symbols.
    pub fn decode_all(&self, bits: &mut BitReader<'_>, n: usize) -> Result<Vec<u32>> {
        let mut out = Vec::with_capacity(n);
        self.decode_all_into(bits, n, &mut out)?;
        Ok(out)
    }

    /// Decodes exactly `n` symbols into a caller-provided buffer (cleared
    /// first), so batch consumers can reuse one allocation across streams.
    ///
    /// Runs the same multi-symbol table loop as
    /// [`SymbolDecoder::decode_into`] (up to four symbols per windowed peek)
    /// over a cursor on `bits`, and leaves `bits` just past the `n`-th code.
    /// Results are bit-for-bit those of [`Self::decode`], which the
    /// property tests pin.
    pub fn decode_all_into(
        &self,
        bits: &mut BitReader<'_>,
        n: usize,
        out: &mut Vec<u32>,
    ) -> Result<()> {
        out.clear();
        out.resize(n, 0);
        let mut decoder = SymbolDecoder {
            codec: self,
            lut: self.lut(),
            cursor: BitCursor::new(bits.clone()),
            remaining: n,
        };
        let result = decoder.decode_into(out);
        *bits = decoder.cursor.into_reader();
        result
    }

    /// Decodes exactly `n` symbols through the bit-walking oracle — kept
    /// public as the baseline for equivalence tests and the entropy bench.
    pub fn decode_all_slow(&self, bits: &mut BitReader<'_>, n: usize) -> Result<Vec<u32>> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.decode(bits)?);
        }
        Ok(out)
    }

    /// Opens a pull-based symbol source over `payload` holding exactly
    /// `count` symbols — the streaming sibling of [`Self::decode_all_into`]
    /// for consumers that reconstruct as they decode instead of staging the
    /// whole symbol vector.
    ///
    /// The decoder runs the table's multi-symbol loop (two lookups per
    /// windowed peek, each yielding up to two codes) over a cached
    /// [`BitCursor`] window, so one unaligned load amortizes across several
    /// peeks. `decode_all_into` runs the same loop, so the two paths agree
    /// decision for decision, which the property tests pin.
    pub fn stream_decoder<'b>(&self, payload: &'b [u8], count: usize) -> SymbolDecoder<'_, 'b> {
        SymbolDecoder {
            codec: self,
            lut: self.lut(),
            cursor: BitCursor::new(BitReader::new(payload)),
            remaining: count,
        }
    }

    /// The decode table, built on first use.
    fn lut(&self) -> &DecodeLut {
        self.lut
            .get_or_init(|| DecodeLut::build(&self.lengths, &self.codes))
    }
}

/// Pull-based Huffman symbol source (see [`HuffmanCodec::stream_decoder`]).
///
/// Symbols come out in stream order via [`decode_one`](Self::decode_one) or
/// batch-wise via [`decode_into`](Self::decode_into); drawing more than the
/// declared `count` is an error, and corrupt or truncated payloads abort at
/// the first bad symbol exactly like the staged decode.
pub struct SymbolDecoder<'c, 'b> {
    codec: &'c HuffmanCodec,
    lut: &'c DecodeLut,
    cursor: BitCursor<'b>,
    remaining: usize,
}

impl SymbolDecoder<'_, '_> {
    /// Symbols left to draw.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Decodes the next symbol without touching the draw budget.
    #[inline]
    fn next_symbol(&mut self) -> Result<u32> {
        let p = self.lut.primary_bits();
        if self.cursor.window_remaining() < p {
            self.cursor.refill();
        }
        if let Lookup::Symbol { symbol, len } = self.lut.root(self.cursor.peek(p)) {
            if self.cursor.remaining_bits() >= len as usize {
                self.cursor.consume(len);
                return Ok(symbol);
            }
        }
        // Subtable / deep / corrupt / EOF: the single-symbol table walk on
        // the raw reader (identical error classification to the staged
        // path); the excursion re-primes the window.
        let Self {
            codec, lut, cursor, ..
        } = self;
        cursor.with_reader(|r| codec.decode_fast(lut, r))
    }

    /// Decodes one symbol.
    #[inline]
    pub fn decode_one(&mut self) -> Result<u32> {
        if self.remaining == 0 {
            return Err(Error::Corrupt("symbol stream overdrawn"));
        }
        let symbol = self.next_symbol()?;
        self.remaining -= 1;
        Ok(symbol)
    }

    /// Fills `out` with the next `out.len()` symbols — the batch fast path:
    /// the table's multi-symbol loop (up to four symbols per windowed peek,
    /// every length checked against the bits really left before it is
    /// consumed). Slow, invalid and stream-tail cases decode one symbol
    /// through the raw reader, and the last `< 4` symbols go one at a time.
    pub fn decode_into(&mut self, out: &mut [u32]) -> Result<()> {
        let n = out.len();
        if n > self.remaining {
            return Err(Error::Corrupt("symbol stream overdrawn"));
        }
        let mut i = 0usize;
        while i + 4 <= n {
            i += self.lut.decode_windows(&mut self.cursor, &mut out[i..]);
            if i + 4 > n {
                break;
            }
            let Self {
                codec, lut, cursor, ..
            } = &mut *self;
            out[i] = cursor.with_reader(|r| codec.decode_fast(lut, r))?;
            i += 1;
        }
        for slot in &mut out[i..] {
            *slot = self.next_symbol()?;
        }
        self.remaining -= n;
        Ok(())
    }
}

/// Computes optimal code lengths (with limiting) for the given frequencies.
fn build_lengths(freqs: &[u64]) -> Vec<u32> {
    let used: Vec<u32> = (0..freqs.len() as u32)
        .filter(|&s| freqs[s as usize] > 0)
        .collect();
    let mut lengths = vec![0u32; freqs.len()];
    match used.len() {
        0 => return lengths,
        1 => {
            // A lone symbol still needs 1 bit so the stream is decodable.
            lengths[used[0] as usize] = 1;
            return lengths;
        }
        _ => {}
    }

    // Two-queue Huffman build: leaves sorted by frequency in one queue,
    // merged packages appended to the other; both stay sorted, so each merge
    // is O(1) and the whole build is O(n log n) in the sort.
    let mut leaves: Vec<(u64, u32)> = used.iter().map(|&s| (freqs[s as usize], s)).collect();
    leaves.sort_unstable();

    // Tree nodes: (left child, right child); leaves are 0..used, internals
    // follow. parent[] tracked to derive depths afterwards.
    let n = leaves.len();
    let mut parent = vec![usize::MAX; 2 * n - 1];
    let mut leaf_q = 0usize; // next unconsumed leaf
    let mut pkg_q: std::collections::VecDeque<(u64, usize)> =
        std::collections::VecDeque::with_capacity(n);
    let mut next_node = n;

    let take_min = |leaf_q: &mut usize,
                    pkg_q: &mut std::collections::VecDeque<(u64, usize)>|
     -> (u64, usize) {
        let leaf_w = leaves.get(*leaf_q).map(|&(w, _)| w);
        let pkg_w = pkg_q.front().map(|&(w, _)| w);
        match (leaf_w, pkg_w) {
            (Some(lw), Some(pw)) if lw <= pw => {
                let node = *leaf_q;
                *leaf_q += 1;
                (lw, node)
            }
            (Some(_), Some(_)) | (None, Some(_)) => pkg_q.pop_front().unwrap(),
            (Some(lw), None) => {
                let node = *leaf_q;
                *leaf_q += 1;
                (lw, node)
            }
            (None, None) => unreachable!("queues exhausted mid-build"),
        }
    };

    for _ in 0..n - 1 {
        let (w1, n1) = take_min(&mut leaf_q, &mut pkg_q);
        let (w2, n2) = take_min(&mut leaf_q, &mut pkg_q);
        parent[n1] = next_node;
        parent[n2] = next_node;
        pkg_q.push_back((w1.saturating_add(w2), next_node));
        next_node += 1;
    }

    // Depth of each leaf = number of parent hops to the root.
    let root = next_node - 1;
    let mut depth = vec![0u32; 2 * n - 1];
    // Internal nodes were created in increasing order and a child always has
    // a smaller node id than its parent, so a reverse scan fills depths.
    for node in (0..2 * n - 1).rev() {
        if node != root {
            depth[node] = depth[parent[node]] + 1;
        }
    }
    for (leaf_ix, &(_, sym)) in leaves.iter().enumerate() {
        lengths[sym as usize] = depth[leaf_ix].max(1);
    }

    limit_lengths(&mut lengths);
    lengths
}

/// Clamps code lengths to [`MAX_CODE_LEN`] and restores the Kraft inequality.
fn limit_lengths(lengths: &mut [u32]) {
    let mut over = false;
    for l in lengths.iter_mut() {
        if *l > MAX_CODE_LEN {
            *l = MAX_CODE_LEN;
            over = true;
        }
    }
    if !over {
        return;
    }
    // Kraft excess after clamping, in units of 2^-MAX_CODE_LEN.
    let budget: u128 = 1u128 << MAX_CODE_LEN;
    let mut kraft: u128 = lengths
        .iter()
        .filter(|&&l| l > 0)
        .map(|&l| 1u128 << (MAX_CODE_LEN - l))
        .sum();
    // Deepen the shallowest deepenable codes until feasible. Each increment
    // of a length ℓ < MAX frees 2^(MAX-ℓ-1).
    while kraft > budget {
        let candidate = lengths
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l > 0 && l < MAX_CODE_LEN)
            .max_by_key(|&(_, &l)| l)
            .map(|(i, _)| i)
            .expect("kraft excess implies a deepenable code exists");
        kraft -= 1u128 << (MAX_CODE_LEN - lengths[candidate] - 1);
        lengths[candidate] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_symbols_get_one_bit_each() {
        let codec = HuffmanCodec::from_frequencies(&[10, 90]);
        assert_eq!(codec.lengths(), &[1, 1]);
    }

    #[test]
    fn skew_yields_shorter_codes_for_common_symbols() {
        // freq 1,1,2,4: classic chain -> lengths 3,3,2,1.
        let codec = HuffmanCodec::from_frequencies(&[1, 1, 2, 4]);
        assert_eq!(codec.lengths(), &[3, 3, 2, 1]);
    }

    #[test]
    fn single_symbol_stream_is_decodable() {
        let codec = HuffmanCodec::from_frequencies(&[0, 5, 0]);
        let mut w = BitWriter::new();
        codec.encode_all(&[1, 1, 1], &mut w);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(codec.decode_all(&mut r, 3).unwrap(), vec![1, 1, 1]);
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let freqs: Vec<u64> = (1..=40).map(|i| i * i).collect();
        let codec = HuffmanCodec::from_frequencies(&freqs);
        let coded: Vec<(u64, u32)> = (0..freqs.len())
            .map(|s| (codec.codes[s], codec.lengths[s]))
            .collect();
        for (i, &(ci, li)) in coded.iter().enumerate() {
            for (j, &(cj, lj)) in coded.iter().enumerate() {
                if i == j {
                    continue;
                }
                let l = li.min(lj);
                assert!(
                    ci >> (li - l) != cj >> (lj - l),
                    "codes for {i} and {j} share a prefix"
                );
            }
        }
    }

    #[test]
    fn fibonacci_frequencies_hit_length_limit_and_stay_valid() {
        // Fibonacci frequencies force maximal Huffman depth (n-1). With 80
        // symbols the unlimited depth would be 79 > MAX_CODE_LEN.
        let mut freqs = vec![0u64; 80];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut() {
            *f = a;
            let c = a.saturating_add(b);
            a = b;
            b = c;
        }
        let codec = HuffmanCodec::from_frequencies(&freqs);
        assert!(codec.lengths().iter().all(|&l| l <= MAX_CODE_LEN));
        // Roundtrip to prove the limited code still decodes.
        let symbols: Vec<u32> = (0..80u32).chain((0..80).rev()).collect();
        let mut w = BitWriter::new();
        codec.encode_all(&symbols, &mut w);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(codec.decode_all(&mut r, symbols.len()).unwrap(), symbols);
    }

    #[test]
    fn from_lengths_rejects_kraft_violation() {
        // Three 1-bit codes cannot coexist.
        assert!(HuffmanCodec::from_lengths(&[1, 1, 1]).is_none());
        assert!(HuffmanCodec::from_lengths(&[1, 1]).is_some());
        assert!(HuffmanCodec::from_lengths(&[MAX_CODE_LEN + 1]).is_none());
    }

    #[test]
    fn rebuild_in_place_matches_from_lengths() {
        let mut fib = vec![0u64; 80];
        let (mut a, mut b) = (1u64, 1u64);
        for f in fib.iter_mut() {
            *f = a;
            (a, b) = (b, a.saturating_add(b));
        }
        let tables: Vec<Vec<u64>> = vec![
            vec![10, 90],
            (1..=4000).map(|i| 1 + (i % 97) * (i % 13)).collect(),
            fib,
            vec![0, 5, 0],
            (1..=40).map(|i| i * i).collect(),
        ];
        let mut codec = HuffmanCodec::default();
        for freqs in &tables {
            let fresh = HuffmanCodec::from_frequencies(freqs);
            codec
                .rebuild_with(|lengths| {
                    lengths.extend_from_slice(fresh.lengths());
                    Ok(())
                })
                .unwrap();
            assert_eq!(codec.lengths, fresh.lengths);
            assert_eq!(codec.codes, fresh.codes);
            assert_eq!(codec.sorted_symbols, fresh.sorted_symbols);
            assert_eq!(codec.first_code, fresh.first_code);
            assert_eq!(codec.first_index, fresh.first_index);
            assert_eq!(codec.count, fresh.count);
            // Decoding builds (or, from the second table on, rebuilds) the
            // decode table.
            let symbols: Vec<u32> = (0..freqs.len() as u32)
                .filter(|&s| freqs[s as usize] > 0)
                .cycle()
                .take(3 * freqs.len())
                .collect();
            let mut w = BitWriter::new();
            fresh.encode_all(&symbols, &mut w);
            let bytes = w.into_bytes();
            let mut out = Vec::new();
            codec
                .decode_all_into(&mut BitReader::new(&bytes), symbols.len(), &mut out)
                .unwrap();
            assert_eq!(out, symbols);
        }
        // A table that is not a code leaves the codec empty.
        let err = codec.rebuild_with(|lengths| {
            lengths.extend_from_slice(&[1, 1, 1]);
            Ok(())
        });
        assert!(err.is_err());
        assert_eq!(codec.used_symbols(), 0);
        assert!(codec.lengths().is_empty());
    }

    #[test]
    fn payload_bits_matches_encoded_size() {
        let freqs = vec![100u64, 30, 10, 5];
        let codec = HuffmanCodec::from_frequencies(&freqs);
        let mut symbols = Vec::new();
        for (s, &f) in freqs.iter().enumerate() {
            symbols.extend(std::iter::repeat_n(s as u32, f as usize));
        }
        let mut w = BitWriter::new();
        codec.encode_all(&symbols, &mut w);
        assert_eq!(w.bit_len() as u64, codec.payload_bits(&freqs));
    }
}
