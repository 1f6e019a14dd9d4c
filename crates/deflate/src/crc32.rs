//! Table-driven CRC-32 (the IEEE 802.3 polynomial gzip uses), eight bytes
//! per step ("slicing-by-8"): every band archive is sealed by CRCs over its
//! whole Huffman and escape sections, so the checksum runs over nearly every
//! compressed byte.

/// Reflected CRC-32 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `t[0]` is the classic byte table; `t[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, so eight table lookups fold eight bytes.
fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    for (i, entry) in t[0].iter_mut().enumerate() {
        let mut crc = i as u32;
        for _ in 0..8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
        }
        *entry = crc;
    }
    for i in 0..256 {
        for k in 1..8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
        }
    }
    t
}

fn shared_tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(tables)
}

/// CRC-32 of `data` (initial value 0, as gzip expects).
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    h.finish()
}

/// Incremental CRC-32 hasher over the same polynomial as [`crc32`].
///
/// Lets writers checksum byte spans as they are produced (e.g. hashing a
/// serialized header in place) without staging them into a contiguous
/// scratch buffer — feeding the same bytes in any split yields the same
/// digest as one [`crc32`] call.
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    crc: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Starts a fresh digest.
    pub fn new() -> Self {
        Self { crc: 0xFFFF_FFFF }
    }

    /// Folds `data` into the digest.
    pub fn update(&mut self, data: &[u8]) {
        let t = shared_tables();
        let mut crc = self.crc;
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.crc = crc;
    }

    /// Finalizes and returns the CRC-32 value.
    pub fn finish(self) -> u32 {
        !self.crc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn sensitivity_to_single_bit() {
        let a = crc32(b"hello world");
        let b = crc32(b"hello worle");
        assert_ne!(a, b);
    }

    /// The bitwise definition of the CRC, one bit at a time.
    fn bitwise_crc32(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 == 1 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn eight_byte_steps_match_the_bitwise_definition() {
        let data: Vec<u8> = (0..1000u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        // Every length 0..=40 covers each remainder after 0..=5 full steps;
        // the long input covers many steps.
        for len in (0..=40).chain([999, 1000]) {
            assert_eq!(crc32(&data[..len]), bitwise_crc32(&data[..len]), "{len}");
        }
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in [0, 1, 7, data.len() / 2, data.len()] {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), crc32(data));
        }
    }
}
