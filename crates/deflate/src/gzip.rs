//! The gzip container (RFC 1952): header, DEFLATE payload, CRC-32 + ISIZE
//! trailer.

use crate::blocks;
use crate::crc32::crc32;
use crate::{deflate_decompress, Error, Result};

/// Compresses `data` into a gzip member (what the paper's GZIP baseline
/// produces).
pub fn gzip_compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 32);
    // Header: magic, CM=8 (deflate), FLG=0, MTIME=0, XFL=0, OS=255 (unknown).
    out.extend_from_slice(&[0x1F, 0x8B, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xFF]);
    out.extend_from_slice(&blocks::compress(data));
    out.extend_from_slice(&crc32(data).to_le_bytes());
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    out
}

/// Decompresses a gzip member, verifying the CRC-32 and length trailer.
pub fn gzip_decompress(data: &[u8]) -> Result<Vec<u8>> {
    if data.len() < 18 {
        return Err(Error::UnexpectedEof);
    }
    if data[0] != 0x1F || data[1] != 0x8B {
        return Err(Error::Corrupt("bad gzip magic"));
    }
    if data[2] != 0x08 {
        return Err(Error::Corrupt("unsupported compression method"));
    }
    let flg = data[3];
    let mut pos = 10usize;
    // FEXTRA
    if flg & 0x04 != 0 {
        if pos + 2 > data.len() {
            return Err(Error::UnexpectedEof);
        }
        let xlen = u16::from_le_bytes([data[pos], data[pos + 1]]) as usize;
        pos += 2 + xlen;
    }
    // FNAME / FCOMMENT: zero-terminated strings.
    for flag in [0x08u8, 0x10] {
        if flg & flag != 0 {
            while pos < data.len() && data[pos] != 0 {
                pos += 1;
            }
            pos += 1;
        }
    }
    // FHCRC
    if flg & 0x02 != 0 {
        pos += 2;
    }
    if pos + 8 > data.len() {
        return Err(Error::UnexpectedEof);
    }
    let payload = &data[pos..data.len() - 8];
    let out = deflate_decompress(payload)?;
    let trailer = &data[data.len() - 8..];
    let crc = u32::from_le_bytes(trailer[0..4].try_into().unwrap());
    let isize = u32::from_le_bytes(trailer[4..8].try_into().unwrap());
    if crc32(&out) != crc || out.len() as u32 != isize {
        return Err(Error::ChecksumMismatch);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let data = b"gzip container roundtrip test data, repeated: \
                     gzip container roundtrip test data"
            .to_vec();
        let packed = gzip_compress(&data);
        assert_eq!(gzip_decompress(&packed).unwrap(), data);
    }

    #[test]
    fn header_is_rfc1952() {
        let packed = gzip_compress(b"x");
        assert_eq!(&packed[..3], &[0x1F, 0x8B, 0x08]);
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let mut packed = gzip_compress(&vec![5u8; 1000]);
        let mid = packed.len() / 2;
        packed[mid] ^= 0x01;
        assert!(gzip_decompress(&packed).is_err());
    }

    #[test]
    fn empty_input_roundtrips() {
        let packed = gzip_compress(b"");
        assert_eq!(gzip_decompress(&packed).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn truncated_member_errors() {
        let packed = gzip_compress(b"some data worth compressing");
        assert!(gzip_decompress(&packed[..10]).is_err());
    }
}
