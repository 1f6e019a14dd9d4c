//! Integrity-layer integration tests: v3 checksum framing, the
//! `DecodePolicy` contract, v1/v2 backward compatibility, and salvage
//! decode on the stream and chunked containers.

use szr::parallel::{decompress_chunked, BandExecutor, Strategy};
use szr::telemetry::{Counter, RecordingSink};
use szr::{
    compress, decompress, decompress_with_policy, inspect, inspect_layout, Config, DecodePolicy,
    ErrorBound, StreamCompressor, StreamDecompressor, SzError, Tensor,
};

fn field() -> Tensor<f32> {
    Tensor::from_fn([40, 30], |ix| {
        ((ix[0] as f32) * 0.17).sin() * 4.0 + ((ix[1] as f32) * 0.09).cos()
    })
}

fn band_archive() -> Vec<u8> {
    compress(&field(), &Config::new(ErrorBound::Absolute(1e-3))).unwrap()
}

/// v3 archives decode identically under Strict and Verify, and Verify adds
/// real protection: flipping any single byte must either be rejected or
/// leave the decode bit-identical (the only unchecked bits are DEFLATE
/// padding, which cannot alter content).
#[test]
fn verify_policy_rejects_or_tolerates_every_single_byte_flip() {
    let pristine = band_archive();
    let reference: Tensor<f32> = decompress(&pristine).unwrap();
    let verified = decompress_with_policy::<f32>(&pristine, DecodePolicy::Verify).unwrap();
    assert!(
        reference
            .as_slice()
            .iter()
            .zip(verified.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "Strict and Verify must agree on an intact archive"
    );

    for pos in 0..pristine.len() {
        let mut copy = pristine.clone();
        copy[pos] ^= 0x10;
        match decompress_with_policy::<f32>(&copy, DecodePolicy::Verify) {
            Err(_) => {}
            Ok(out) => {
                assert!(
                    out.as_slice()
                        .iter()
                        .zip(reference.as_slice())
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "byte {pos}: flip decoded to different values under Verify"
                );
            }
        }
    }
}

/// Section-named diagnostics: header damage names the header, payload
/// damage names a sealed section.
#[test]
fn verify_errors_name_the_damaged_section() {
    let pristine = band_archive();

    // Bytes 9..17 are the error-bound f64; a low mantissa flip keeps the
    // header parseable so only the header CRC can catch it.
    let mut header_hit = pristine.clone();
    header_hit[9] ^= 0x01;
    match decompress_with_policy::<f32>(&header_hit, DecodePolicy::Verify) {
        Err(SzError::Corrupt(msg)) => {
            assert!(
                msg.starts_with("header:"),
                "expected header error, got {msg:?}"
            )
        }
        other => panic!("header damage must fail Verify, got {other:?}"),
    }

    // Byte len-9 sits inside the stored payload, just before the 8-byte
    // CRC trailer.
    let mut payload_hit = pristine.clone();
    let at = payload_hit.len() - 9;
    payload_hit[at] ^= 0xFF;
    match decompress_with_policy::<f32>(&payload_hit, DecodePolicy::Verify) {
        Err(SzError::Corrupt(msg)) => assert!(
            msg.starts_with("table:") || msg.starts_with("payload:"),
            "expected a sealed-section error, got {msg:?}"
        ),
        other => panic!("payload damage must fail Verify, got {other:?}"),
    }

    // inspect_layout applies the same checks without reconstructing.
    assert!(inspect_layout(&header_hit).is_err());
    assert!(inspect_layout(&payload_hit).is_err());
    assert!(inspect_layout(&pristine).is_ok());
}

/// Strip the v3 checksums from an archive, producing the legacy v1 layout:
/// version byte back to 1 (or 2 for shared-stream), the 4-byte header CRC
/// removed, the 8-byte trailer dropped.
fn downconvert_to_legacy(v3: &[u8]) -> Vec<u8> {
    assert_eq!(&v3[..4], b"SZR1");
    let version = v3[4];
    assert!(version == 3 || version == 4, "writer must emit v3 framing");
    // Header: magic(4) version(1) type(1) layers(1) bits(1) decor(1)
    // eb(8) then varint rank + varint dims, then the u32 header CRC.
    let mut at = 17;
    let read_varint = |bytes: &[u8], at: &mut usize| -> u64 {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let b = bytes[*at];
            *at += 1;
            v |= u64::from(b & 0x7F) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    };
    let rank = read_varint(v3, &mut at);
    for _ in 0..rank {
        read_varint(v3, &mut at);
    }
    let mut legacy = Vec::with_capacity(v3.len() - 12);
    legacy.extend_from_slice(&v3[..at]); // header fields
    legacy[4] = version - 2; // v3 -> v1, v4 -> v2
    legacy.extend_from_slice(&v3[at + 4..v3.len() - 8]); // skip CRC, drop trailer
    legacy
}

#[test]
fn legacy_v1_archives_decode_byte_identically_to_v3() {
    let v3 = band_archive();
    let legacy = downconvert_to_legacy(&v3);
    assert_eq!(
        legacy.len(),
        v3.len() - 12,
        "v3 adds exactly 12 checksum bytes"
    );

    let from_v3: Tensor<f32> = decompress(&v3).unwrap();
    let from_v1: Tensor<f32> = decompress(&legacy).unwrap();
    assert!(
        from_v3
            .as_slice()
            .iter()
            .zip(from_v1.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "legacy archive must decode byte-identically"
    );

    // The legacy archive still decodes under Verify — there is simply
    // nothing to check — and inspect reports it as unchecksummed.
    let verified = decompress_with_policy::<f32>(&legacy, DecodePolicy::Verify).unwrap();
    assert_eq!(verified.as_slice().len(), from_v3.as_slice().len());
    assert!(inspect(&v3).unwrap().checksummed);
    assert!(!inspect(&legacy).unwrap().checksummed);
}

/// Stream salvage: damage one band's payload; the other bands must decode
/// bit-identically and the report must name exactly the victim.
#[test]
fn stream_salvage_recovers_intact_bands() {
    let data = field();
    let config = Config::new(ErrorBound::Absolute(1e-3));
    let mut enc = StreamCompressor::<f32>::new(&[30], 10, config).unwrap();
    for rows in data.as_slice().chunks(10 * 30) {
        enc.push(rows).unwrap();
    }
    let stream = enc.finish().unwrap();

    let reference = StreamDecompressor::<f32>::new(&stream)
        .unwrap()
        .collect_all()
        .unwrap();

    // Locate band 2's bytes and hit its payload.
    let probe = StreamDecompressor::<f32>::new(&stream).unwrap();
    let slices = probe.band_slices().unwrap();
    assert_eq!(slices.len(), 4);
    let base = stream.as_ptr() as usize;
    let victim_start = slices[2].as_ptr() as usize - base;
    let victim_len = slices[2].len();
    let mut damaged = stream.clone();
    damaged[victim_start + victim_len - 9] ^= 0xFF;

    let (out, report) = StreamDecompressor::<f32>::new(&damaged)
        .unwrap()
        .collect_all_salvage(f32::NAN)
        .unwrap();
    assert_eq!(report.bands, 4);
    assert_eq!(report.recovered, vec![0, 1, 3]);
    assert_eq!(report.damaged.len(), 1);
    assert_eq!(report.damaged[0].band, 2);
    let (lo, hi) = report.damaged[0].byte_range;
    assert_eq!((lo, hi), (victim_start, victim_start + victim_len));

    let row = 30;
    for r in 0..40 {
        let got = &out.as_slice()[r * row..(r + 1) * row];
        let want = &reference.as_slice()[r * row..(r + 1) * row];
        if (20..30).contains(&r) {
            assert!(
                got.iter().all(|v| v.is_nan()),
                "damaged rows must carry fill"
            );
        } else {
            assert!(
                got.iter()
                    .zip(want)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "intact row {r} must be bit-identical"
            );
        }
    }
}

/// Chunked salvage reports the SalvagedBands counter through telemetry and
/// keeps working when the shared Huffman table itself is destroyed: the
/// self-contained bands (if any) or none recover, but nothing panics.
#[test]
fn chunked_salvage_emits_telemetry_and_survives_table_loss() {
    let data = field();
    let config = Config::new(ErrorBound::Absolute(1e-3));
    let pristine = szr::parallel::compress_chunked(&data, &config, 4, 2).unwrap();
    let reference: Tensor<f32> = decompress_chunked(&pristine, 2).unwrap();

    let mut damaged = pristine.clone();
    let last = damaged.chunks[3].len() - 9;
    damaged.chunks[3][last] ^= 0x55;

    let sink = RecordingSink::new();
    let executor = BandExecutor {
        threads: 2,
        sink: Some(&sink),
    };
    let (out, report) = executor.salvage::<f32>(&damaged, f32::NAN).unwrap();
    assert_eq!(report.damaged.len(), 1);
    assert_eq!(report.damaged[0].band, 3);
    let counted = sink
        .report()
        .counters
        .iter()
        .find(|(c, _)| *c == Counter::SalvagedBands)
        .map(|&(_, v)| v);
    assert_eq!(
        counted,
        Some(1),
        "salvage must report the damaged-band counter"
    );
    let intact = 30 * (40 - 40 / 4);
    assert!(
        out.as_slice()[..intact]
            .iter()
            .zip(&reference.as_slice()[..intact])
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "bands before the victim must be bit-identical"
    );

    // Destroy the shared table: every shared-stream band is lost, the
    // self-contained bands still recover, and the decode returns a report
    // instead of panicking.
    let shared = BandExecutor::new(2)
        .compress(&data, &config, 4, Strategy::Shared)
        .unwrap();
    let mut broken = shared.clone();
    let table = broken
        .shared_table
        .as_mut()
        .expect("homogeneous bands share a table");
    table.truncate(table.len() / 2);
    let (filled, report) = BandExecutor::new(2)
        .salvage::<f32>(&broken, 0.0_f32)
        .unwrap();
    assert_eq!(filled.len(), data.len());
    assert!(!report.is_clean(), "table loss must surface as damage");
    let streamed: Vec<usize> = (0..shared.chunks.len())
        .filter(|&b| inspect(&shared.chunks[b]).unwrap().shared_stream)
        .collect();
    assert_eq!(
        report.damaged.iter().map(|d| d.band).collect::<Vec<_>>(),
        streamed,
        "exactly the shared-stream bands are lost with the table"
    );
}
