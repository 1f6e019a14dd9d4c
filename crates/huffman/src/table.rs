//! Run-length serialization of code-length tables.
//!
//! A quantization-code alphabet of 2^m symbols typically uses only a narrow
//! band around the zero-difference code, so the length table is almost all
//! zeros. We store it as (length, run) varint pairs, which reduces a 65 536
//! entry table to a few dozen bytes.

use szr_bitstream::{ByteReader, ByteWriter, Error, Result};

/// Writes a code-length table as RLE (length, run) varint pairs.
pub fn write_lengths(out: &mut ByteWriter, lengths: &[u32]) {
    let mut i = 0usize;
    let mut runs = 0u64;
    let mut body = ByteWriter::new();
    while i < lengths.len() {
        let len = lengths[i];
        let mut run = 1usize;
        while i + run < lengths.len() && lengths[i + run] == len {
            run += 1;
        }
        body.write_varint(len as u64);
        body.write_varint(run as u64);
        runs += 1;
        i += run;
    }
    out.write_varint(runs);
    out.write_bytes(body.as_bytes());
}

/// Reads a code-length table previously written by [`write_lengths`].
///
/// `alphabet` is the expected total number of symbols; a mismatch marks the
/// stream as corrupt.
pub fn read_lengths(reader: &mut ByteReader<'_>, alphabet: usize) -> Result<Vec<u32>> {
    let mut lengths = Vec::with_capacity(alphabet);
    read_lengths_into(reader, alphabet, &mut lengths)?;
    Ok(lengths)
}

/// [`read_lengths`] appended to `lengths`, which the caller passes empty
/// (its capacity is reused).
pub fn read_lengths_into(
    reader: &mut ByteReader<'_>,
    alphabet: usize,
    lengths: &mut Vec<u32>,
) -> Result<()> {
    let runs = reader.read_varint()?;
    for _ in 0..runs {
        let len = reader.read_varint()?;
        let run = reader.read_varint()? as usize;
        // checked_add: a crafted run near usize::MAX must not wrap past the
        // bound check and drive a huge extend.
        let covered = lengths
            .len()
            .checked_add(run)
            .ok_or(Error::Corrupt("length table overflows alphabet"))?;
        if len > u32::MAX as u64 || covered > alphabet {
            return Err(Error::Corrupt("length table overflows alphabet"));
        }
        lengths.extend(std::iter::repeat_n(len as u32, run));
    }
    if lengths.len() != alphabet {
        return Err(Error::Corrupt("length table does not cover alphabet"));
    }
    Ok(())
}

/// Walks past a table written by [`write_lengths`] without materializing it,
/// so a container can locate the raw table span (e.g. as a cache key) before
/// deciding whether to rebuild the codec. Validates the same bounds as
/// [`read_lengths`].
pub fn skip_lengths(reader: &mut ByteReader<'_>, alphabet: usize) -> Result<()> {
    let runs = reader.read_varint()?;
    let mut covered = 0usize;
    for _ in 0..runs {
        let len = reader.read_varint()?;
        let run = reader.read_varint()? as usize;
        covered = covered
            .checked_add(run)
            .ok_or(Error::Corrupt("length table overflows alphabet"))?;
        if len > u32::MAX as u64 || covered > alphabet {
            return Err(Error::Corrupt("length table overflows alphabet"));
        }
    }
    if covered != alphabet {
        return Err(Error::Corrupt("length table does not cover alphabet"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_table_roundtrips_compactly() {
        let mut lengths = vec![0u32; 65_536];
        lengths[32_700] = 3;
        lengths[32_701] = 3;
        lengths[32_702] = 2;
        lengths[0] = 9;
        let mut w = ByteWriter::new();
        write_lengths(&mut w, &lengths);
        let bytes = w.into_bytes();
        assert!(bytes.len() < 64, "RLE table took {} bytes", bytes.len());
        let mut r = ByteReader::new(&bytes);
        assert_eq!(read_lengths(&mut r, 65_536).unwrap(), lengths);
    }

    #[test]
    fn dense_table_roundtrips() {
        let lengths: Vec<u32> = (0..256).map(|i| (i % 15) as u32).collect();
        let mut w = ByteWriter::new();
        write_lengths(&mut w, &lengths);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(read_lengths(&mut r, 256).unwrap(), lengths);
    }

    #[test]
    fn wrong_alphabet_size_is_corrupt() {
        let lengths = vec![1u32, 1];
        let mut w = ByteWriter::new();
        write_lengths(&mut w, &lengths);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(read_lengths(&mut r, 3).is_err());
    }

    #[test]
    fn skip_matches_read_position_and_verdicts() {
        let mut lengths = vec![0u32; 1024];
        lengths[7] = 4;
        lengths[8] = 4;
        lengths[500] = 2;
        let mut w = ByteWriter::new();
        write_lengths(&mut w, &lengths);
        w.write_varint(0xDEAD); // trailing data the skip must stop before
        let bytes = w.into_bytes();
        let mut read = ByteReader::new(&bytes);
        let mut skip = ByteReader::new(&bytes);
        read_lengths(&mut read, 1024).unwrap();
        skip_lengths(&mut skip, 1024).unwrap();
        assert_eq!(read.pos(), skip.pos());
        assert_eq!(skip.read_varint().unwrap(), 0xDEAD);

        // Same corruption verdicts as read_lengths.
        let mut w = ByteWriter::new();
        write_lengths(&mut w, &[1u32, 1]);
        let bytes = w.into_bytes();
        assert!(skip_lengths(&mut ByteReader::new(&bytes), 3).is_err());
    }

    #[test]
    fn overflowing_run_is_corrupt() {
        let mut w = ByteWriter::new();
        w.write_varint(1); // one run
        w.write_varint(5); // length 5
        w.write_varint(10); // run of 10 into alphabet of 4
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(read_lengths(&mut r, 4).is_err());
    }
}
