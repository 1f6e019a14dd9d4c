//! LZ77 string matching with hash chains and lazy evaluation.
//!
//! The matcher state lives in a reusable [`LzState`] — a hash-head table
//! plus a window-bounded `prev` ring — so repeated compressions (a
//! session's per-band DEFLATE post-pass) allocate nothing once warm. The
//! search depth / laziness trade-off is an [`Effort`] level.

/// Maximum backward distance (RFC 1951 window).
pub const MAX_DIST: usize = 32 * 1024;
/// Minimum useful match length.
pub const MIN_MATCH: usize = 3;
/// Maximum match length.
pub const MAX_MATCH: usize = 258;

const HASH_SIZE: usize = 1 << 15;
const NIL: u32 = u32::MAX;

/// Matcher effort: how hard to look for back-references.
///
/// Levels map to the zlib-style knobs (hash-chain probe budget, one-step
/// lazy evaluation, and the "good enough" length that stops the search):
///
/// | level     | max chain | lazy | good-enough |
/// |-----------|-----------|------|-------------|
/// | `Fast`    | 32        | no   | 32          |
/// | `Default` | 128       | yes  | 96          |
/// | `Best`    | 1024      | yes  | 258         |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Effort {
    /// Shallow chains, greedy-only: highest throughput.
    Fast,
    /// The zlib level-6-like balance (the historical behavior here).
    #[default]
    Default,
    /// Deep chains, always lazy, never settles early: best ratio.
    Best,
}

impl Effort {
    #[inline]
    fn params(self) -> (usize, bool, usize) {
        // (max_chain, lazy, good_enough)
        match self {
            Effort::Fast => (32, false, 32),
            Effort::Default => (128, true, 96),
            Effort::Best => (1024, true, MAX_MATCH),
        }
    }
}

/// One LZ77 token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// A literal byte.
    Literal(u8),
    /// A back-reference: copy `len` bytes from `dist` bytes back.
    Match {
        /// 3..=258.
        len: u16,
        /// 1..=32768.
        dist: u16,
    },
}

/// Multiplicative hash of the 3 bytes at `pos`, read with one `u32` load
/// where 4 bytes remain.
#[inline]
fn hash(data: &[u8], pos: usize) -> usize {
    let v = match data.get(pos..pos + 4) {
        Some(word) => u32::from_le_bytes(word.try_into().unwrap()) & 0x00FF_FFFF,
        None => (data[pos] as u32) | ((data[pos + 1] as u32) << 8) | ((data[pos + 2] as u32) << 16),
    };
    (v.wrapping_mul(0x9E37_79B1) >> 17) as usize & (HASH_SIZE - 1)
}

/// Longest common prefix of `data[a..]` and `data[b..]`, capped at
/// `MAX_MATCH`.
#[inline]
fn match_len(data: &[u8], a: usize, b: usize) -> usize {
    let limit = (data.len() - b).min(MAX_MATCH);
    let mut len = 0usize;
    // Compare 8 bytes at a time.
    while len + 8 <= limit {
        let x = u64::from_le_bytes(data[a + len..a + len + 8].try_into().unwrap());
        let y = u64::from_le_bytes(data[b + len..b + len + 8].try_into().unwrap());
        let diff = x ^ y;
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while len < limit && data[a + len] == data[b + len] {
        len += 1;
    }
    len
}

/// Slots in the match probe's table (12 hash bits, 16 KiB).
const PROBE_SLOTS: usize = 1 << 12;
/// What the match probe charges for one match: a length code, a distance
/// code and its extra bits, about what a rare match costs in a
/// literal-dominated block.
const PROBE_MATCH_BITS: u64 = 30;
/// The match probe scans the first `PROBE_WINDOW` bytes of every
/// `PROBE_STRIDE`, a quarter of the input.
const PROBE_WINDOW: usize = 256;
const PROBE_STRIDE: usize = 1024;

/// The probe table slot of a 4-byte window.
#[inline]
fn probe_slot(word: u32) -> usize {
    (word.wrapping_mul(0x9E37_79B1) >> 20) as usize
}

/// A short hash probe for the bytes LZ77 matches would cover. It scans a
/// quarter of `data`, the first [`PROBE_WINDOW`] bytes of every
/// [`PROBE_STRIDE`], keeping the latest position of each hashed 4-byte
/// window in `table` (refilled to [`PROBE_SLOTS`] slots, one per hash, no
/// chains) and reading four windows from each 8-byte load. Every in-window
/// candidate that really repeats is extended, and the scan resumes after
/// the match. Each match found is credited with the bits its bytes cost as
/// literals under `lengths` (a literal code over the byte alphabet), less
/// [`PROBE_MATCH_BITS`]. Returns the summed credit in bits, scaled from the
/// bytes scanned to all of `data`.
pub(crate) fn probe_match_bits(data: &[u8], lengths: &[u32], table: &mut Vec<u32>) -> u64 {
    table.clear();
    table.resize(PROBE_SLOTS, NIL);
    let table: &mut [u32; PROBE_SLOTS] = table.as_mut_slice().try_into().unwrap();
    // Past `last_load`, no 8-byte load fits.
    let last_load = data.len().saturating_sub(7);
    let mut saved = 0u64;
    let mut scanned = 0usize;
    let mut pos = 0usize;
    for start in (0..last_load).step_by(PROBE_STRIDE) {
        pos = pos.max(start);
        let from = pos;
        let end = (start + PROBE_WINDOW).min(last_load);
        'scan: while pos < end {
            let quad = u64::from_le_bytes(data[pos..pos + 8].try_into().unwrap());
            for k in 0..4 {
                let word = (quad >> (8 * k)) as u32;
                let at = pos + k;
                let slot = probe_slot(word);
                let candidate = table[slot] as usize;
                table[slot] = at as u32;
                if candidate < at
                    && at - candidate <= MAX_DIST
                    && u32::from_le_bytes(data[candidate..candidate + 4].try_into().unwrap())
                        == word
                {
                    let len = match_len(data, candidate, at);
                    let literal_bits: u64 = data[at..at + len]
                        .iter()
                        .map(|&b| lengths[b as usize] as u64)
                        .sum();
                    saved += literal_bits.saturating_sub(PROBE_MATCH_BITS);
                    pos = at + len;
                    continue 'scan;
                }
            }
            pos += 4;
        }
        scanned += pos.saturating_sub(from);
        // Between windows, every fourth position is only recorded, so a
        // repeat of the unscanned bytes is still found from the next window.
        let mut at = pos.max(start + PROBE_WINDOW);
        while at < (start + PROBE_STRIDE).min(last_load) {
            let word = u32::from_le_bytes(data[at..at + 4].try_into().unwrap());
            table[probe_slot(word)] = at as u32;
            at += 4;
        }
    }
    if scanned == 0 {
        return 0;
    }
    (saved as u128 * data.len() as u128 / scanned as u128) as u64
}

/// Reusable matcher scratch: hash heads plus a 32 KiB `prev` ring.
///
/// Chains store absolute positions. The ring slot for position `p` is
/// `p & (MAX_DIST - 1)`; because the ring is exactly one window deep and
/// chain walks stop at `MAX_DIST`, an in-window chain entry can never have
/// been overwritten by a newer position during a single tokenize pass —
/// only `head` needs clearing between inputs, never the ring.
pub struct LzState {
    head: Box<[u32]>,
    prev: Box<[u32]>,
}

impl Default for LzState {
    fn default() -> Self {
        Self::new()
    }
}

impl LzState {
    /// Allocates the matcher tables (the only allocation this state makes).
    pub fn new() -> Self {
        Self {
            head: vec![NIL; HASH_SIZE].into_boxed_slice(),
            prev: vec![NIL; MAX_DIST].into_boxed_slice(),
        }
    }

    /// Tokenizes `data` into `tokens` (cleared first) with greedy matching
    /// plus optional one-position lazy evaluation, per `effort`.
    ///
    /// Each position is hashed once, for its chain walk and its insert. A
    /// lazy probe that defers a literal hands its `pos + 1` search to the
    /// next step unless the literal's insert joined that chain (equal
    /// hashes); otherwise the next step would repeat the same walk.
    pub fn tokenize_into(&mut self, data: &[u8], effort: Effort, tokens: &mut Vec<Token>) {
        tokens.clear();
        let n = data.len();
        assert!(
            n < u32::MAX as usize - MAX_MATCH,
            "input too large for LZ77"
        );
        if n < MIN_MATCH + 1 {
            tokens.extend(data.iter().map(|&b| Token::Literal(b)));
            return;
        }
        tokens.reserve(n / 4 + 16);
        self.head.fill(NIL);
        let (max_chain, lazy, good_enough) = effort.params();
        let head = &mut self.head;
        let prev = &mut self.prev;

        let find_best = |head: &[u32], prev: &[u32], pos: usize, h: usize| -> (usize, usize) {
            let limit = (n - pos).min(MAX_MATCH);
            let mut best_len = 0usize;
            let mut best_dist = 0usize;
            let mut candidate = head[h];
            let mut chain = 0usize;
            while candidate != NIL && chain < max_chain {
                let c = candidate as usize;
                if c >= pos || pos - c > MAX_DIST {
                    break;
                }
                // A candidate that disagrees at `best_len` cannot beat it.
                if best_len < limit && data[c + best_len] == data[pos + best_len] {
                    let len = match_len(data, c, pos);
                    if len > best_len {
                        best_len = len;
                        best_dist = pos - c;
                        if len >= good_enough {
                            break;
                        }
                    }
                }
                // Chains are strictly decreasing; anything else is a stale
                // ring entry from a prior window lap.
                let next = prev[c & (MAX_DIST - 1)];
                if next >= candidate {
                    break;
                }
                candidate = next;
                chain += 1;
            }
            (best_len, best_dist)
        };

        let insert = |head: &mut [u32], prev: &mut [u32], pos: usize, h: usize| {
            prev[pos & (MAX_DIST - 1)] = head[h];
            head[h] = pos as u32;
        };

        let mut pos = 0usize;
        // The lazy probe's hash of `pos`, and its search when still valid.
        let mut carried: Option<(usize, Option<(usize, usize)>)> = None;
        while pos + MIN_MATCH <= n {
            let (h, searched) = carried.take().unwrap_or_else(|| (hash(data, pos), None));
            let (len, dist) = searched.unwrap_or_else(|| find_best(head, prev, pos, h));
            if len >= MIN_MATCH {
                // Lazy evaluation: would starting at pos+1 do strictly better?
                if lazy && pos + 1 + MIN_MATCH <= n && len < good_enough {
                    let next_hash = hash(data, pos + 1);
                    let next = find_best(head, prev, pos + 1, next_hash);
                    if next.0 > len {
                        tokens.push(Token::Literal(data[pos]));
                        insert(head, prev, pos, h);
                        carried = Some((next_hash, (next_hash != h).then_some(next)));
                        pos += 1;
                        continue;
                    }
                }
                tokens.push(Token::Match {
                    len: len as u16,
                    dist: dist as u16,
                });
                insert(head, prev, pos, h);
                for p in pos + 1..(pos + len).min(n - MIN_MATCH + 1) {
                    insert(head, prev, p, hash(data, p));
                }
                pos += len;
                continue;
            }
            tokens.push(Token::Literal(data[pos]));
            insert(head, prev, pos, h);
            pos += 1;
        }
        tokens.extend(data[pos..].iter().map(|&b| Token::Literal(b)));
    }
}

/// Tokenizes `data` with a throwaway [`LzState`] at [`Effort::Default`]
/// (test convenience; real callers hold an `LzState`).
#[cfg(test)]
pub fn tokenize(data: &[u8]) -> Vec<Token> {
    let mut state = LzState::new();
    let mut tokens = Vec::new();
    state.tokenize_into(data, Effort::Default, &mut tokens);
    tokens
}

/// Expands tokens back to bytes (test oracle for the matcher).
#[cfg(test)]
pub fn expand(tokens: &[Token]) -> Vec<u8> {
    let mut out = Vec::new();
    for &t in tokens {
        match t {
            Token::Literal(b) => out.push(b),
            Token::Match { len, dist } => {
                let start = out.len() - dist as usize;
                // Overlapping copies are byte-serial by definition.
                for i in 0..len as usize {
                    let b = out[start + i];
                    out.push(b);
                }
            }
        }
    }
    out
}

/// A corpus whose statistics shift mid-stream: text, then a tight numeric
/// alphabet, then binary float bytes (test input for the matcher and the
/// block splitter).
#[cfg(test)]
pub fn structured_corpus() -> Vec<u8> {
    let mut data = Vec::new();
    for i in 0..6000u32 {
        data.extend_from_slice(b"the quick brown fox jumps over the lazy dog ");
        if i % 7 == 0 {
            data.extend_from_slice(b"PACKET-HEADER-v2;");
        }
    }
    for i in 0..300_000u32 {
        data.push(b'0' + (i % 10) as u8);
    }
    for i in 0..150_000u32 {
        let x = (i as f32 * 0.001).sin();
        data.extend_from_slice(&x.to_le_bytes());
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tokenizer as it was before hashes were shared and lazy probes
    /// carried: every search and insert hashes its bytes one at a time.
    /// [`LzState::tokenize_into`] must emit exactly its tokens.
    fn reference_tokenize(state: &mut LzState, data: &[u8], effort: Effort) -> Vec<Token> {
        let hash = |pos: usize| {
            let v =
                (data[pos] as u32) | ((data[pos + 1] as u32) << 8) | ((data[pos + 2] as u32) << 16);
            (v.wrapping_mul(0x9E37_79B1) >> 17) as usize & (HASH_SIZE - 1)
        };
        let n = data.len();
        if n < MIN_MATCH + 1 {
            return data.iter().map(|&b| Token::Literal(b)).collect();
        }
        let mut tokens = Vec::new();
        state.head.fill(NIL);
        let (max_chain, lazy, good_enough) = effort.params();
        let head = &mut state.head;
        let prev = &mut state.prev;
        let find_best = |head: &[u32], prev: &[u32], pos: usize| -> (usize, usize) {
            let mut best_len = 0usize;
            let mut best_dist = 0usize;
            let mut candidate = head[hash(pos)];
            let mut chain = 0usize;
            while candidate != NIL && chain < max_chain {
                let c = candidate as usize;
                if c >= pos || pos - c > MAX_DIST {
                    break;
                }
                let len = match_len(data, c, pos);
                if len > best_len {
                    best_len = len;
                    best_dist = pos - c;
                    if len >= good_enough {
                        break;
                    }
                }
                let next = prev[c & (MAX_DIST - 1)];
                if next >= candidate {
                    break;
                }
                candidate = next;
                chain += 1;
            }
            (best_len, best_dist)
        };
        let insert = |head: &mut [u32], prev: &mut [u32], pos: usize| {
            if pos + MIN_MATCH <= n {
                let h = hash(pos);
                prev[pos & (MAX_DIST - 1)] = head[h];
                head[h] = pos as u32;
            }
        };
        let mut pos = 0usize;
        while pos < n {
            if pos + MIN_MATCH > n {
                tokens.push(Token::Literal(data[pos]));
                pos += 1;
                continue;
            }
            let (len, dist) = find_best(head, prev, pos);
            if len >= MIN_MATCH {
                let take_now = if lazy && pos + 1 + MIN_MATCH <= n && len < good_enough {
                    let (next_len, _) = find_best(head, prev, pos + 1);
                    next_len <= len
                } else {
                    true
                };
                if take_now {
                    tokens.push(Token::Match {
                        len: len as u16,
                        dist: dist as u16,
                    });
                    for p in pos..pos + len {
                        insert(head, prev, p);
                    }
                    pos += len;
                    continue;
                }
            }
            tokens.push(Token::Literal(data[pos]));
            insert(head, prev, pos);
            pos += 1;
        }
        tokens
    }

    /// splitmix64 bytes: nothing for the matcher to find.
    fn noise(len: usize) -> Vec<u8> {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
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

    #[test]
    fn tokenizer_matches_the_reference_at_every_effort() {
        let mut runs = Vec::new();
        for i in 0..4000usize {
            runs.extend(std::iter::repeat_n((i % 5) as u8, 1 + i % 300));
        }
        // Pairs of bytes repeating at short periods: equal hashes at
        // `pos` and `pos + 1`, the case a carried lazy probe must not
        // survive.
        let periodic: Vec<u8> = (0..50_000u32)
            .map(|i| [9, 9, 9, 4][(i % 4) as usize])
            .collect();
        let mut inputs = vec![structured_corpus(), noise(64 * 1024), runs, periodic];
        for len in 0..=8 {
            inputs.push(vec![0; len]);
            inputs.push((0..len as u8).collect());
            inputs.push((0..len).map(|i| [1, 2, 1][i % 3]).collect());
        }
        let mut state = LzState::new();
        let mut oracle = LzState::new();
        let mut tokens = Vec::new();
        for data in &inputs {
            for effort in [Effort::Fast, Effort::Default, Effort::Best] {
                state.tokenize_into(data, effort, &mut tokens);
                assert!(
                    tokens == reference_tokenize(&mut oracle, data, effort),
                    "{} bytes at {effort:?}",
                    data.len()
                );
            }
        }
    }

    #[test]
    fn tokens_expand_to_original() {
        let data = b"abcabcabcabcabc hello hello hello".to_vec();
        let tokens = tokenize(&data);
        assert_eq!(expand(&tokens), data);
        assert!(
            tokens.len() < data.len(),
            "repetition should produce matches"
        );
    }

    #[test]
    fn short_input_is_all_literals() {
        let data = b"ab".to_vec();
        let tokens = tokenize(&data);
        assert_eq!(tokens, vec![Token::Literal(b'a'), Token::Literal(b'b')]);
    }

    #[test]
    fn run_collapses_to_overlapping_match() {
        let data = vec![7u8; 300];
        let tokens = tokenize(&data);
        assert_eq!(expand(&tokens), data);
        // 1 literal + overlapping dist-1 matches.
        assert!(tokens.len() <= 3, "got {} tokens", tokens.len());
        assert!(matches!(tokens[1], Token::Match { dist: 1, .. }));
    }

    #[test]
    fn match_len_is_capped() {
        let data = vec![1u8; 1000];
        assert_eq!(match_len(&data, 0, 1), MAX_MATCH);
    }

    #[test]
    fn incompressible_data_expands_correctly() {
        let data: Vec<u8> = (0..5000u32)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                ((h >> 33) & 0xFF) as u8
            })
            .collect();
        let tokens = tokenize(&data);
        assert_eq!(expand(&tokens), data);
    }

    #[test]
    fn distant_repeats_within_window_are_found() {
        let mut data = vec![0u8; 10_000];
        let phrase = b"SIGNATURE-PHRASE-1234567890";
        data[100..100 + phrase.len()].copy_from_slice(phrase);
        data[9000..9000 + phrase.len()].copy_from_slice(phrase);
        let tokens = tokenize(&data);
        assert_eq!(expand(&tokens), data);
        let has_far_match = tokens.iter().any(
            |t| matches!(t, Token::Match { dist, len } if *dist as usize > 8000 && *len as usize >= phrase.len() - 2),
        );
        assert!(has_far_match, "the distant phrase repeat should match");
    }

    #[test]
    fn every_effort_level_expands_to_original() {
        let mut data = Vec::new();
        for i in 0..4000u32 {
            data.push((i % 7) as u8);
            if i % 97 == 0 {
                data.extend_from_slice(b"burst-of-structured-text");
            }
        }
        for effort in [Effort::Fast, Effort::Default, Effort::Best] {
            let mut state = LzState::new();
            let mut tokens = Vec::new();
            state.tokenize_into(&data, effort, &mut tokens);
            assert_eq!(expand(&tokens), data, "effort {effort:?}");
        }
    }

    #[test]
    fn reused_state_is_equivalent_to_fresh_state() {
        let first = b"first input with first input repeats".to_vec();
        let second: Vec<u8> = (0..3000u32).map(|i| (i % 13) as u8).collect();
        let mut reused = LzState::new();
        let mut tokens = Vec::new();
        reused.tokenize_into(&first, Effort::Default, &mut tokens);
        reused.tokenize_into(&second, Effort::Default, &mut tokens);
        let fresh = tokenize(&second);
        assert_eq!(tokens, fresh, "stale state must not leak across inputs");
    }

    #[test]
    fn deeper_effort_never_produces_more_tokens() {
        // More chain probes can only find equal-or-longer matches.
        let mut data = Vec::new();
        for i in 0..20_000u64 {
            let h = i.wrapping_mul(0x2545_F491_4F6C_DD1D);
            data.push(if i % 3 == 0 { (h >> 60) as u8 } else { 7 });
        }
        let mut state = LzState::new();
        let mut fast = Vec::new();
        let mut best = Vec::new();
        state.tokenize_into(&data, Effort::Fast, &mut fast);
        state.tokenize_into(&data, Effort::Best, &mut best);
        assert_eq!(expand(&fast), data);
        assert_eq!(expand(&best), data);
        assert!(
            best.len() <= fast.len(),
            "best {} fast {}",
            best.len(),
            fast.len()
        );
    }
}
