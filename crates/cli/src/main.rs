//! `szr` — command-line error-bounded compression for raw scientific data.
//!
//! ```text
//! szr compress   --input data.bin --dims 1800x3600 --dtype f32 --rel 1e-4 --output data.szr
//! szr decompress --input data.szr --output data.bin
//! szr inspect    --input data.szr
//! szr stat       --input data.szr
//! szr extract    --input data.szr --region 100:200 --output roi.bin
//! szr verify     --input data.szr
//! szr eval       --input data.bin --dims 1800x3600 --dtype f32 --rel 1e-4 [--codec sz14]
//! szr plan       --input data.bin --dims 1800x3600 --target-ratio 20
//! szr gen        --dataset atm --variable TS --scale medium --output ts.bin
//! ```
//!
//! Raw files are flat little-endian arrays in row-major order, the layout
//! HPC applications dump (`--dims` lists extents slowest-first).

mod args;
mod commands;

use args::Args;

const USAGE: &str = "\
szr — error-bounded lossy compression for scientific data (SZ-1.4)

USAGE:
  szr compress   --input FILE --dims AxBxC --rel EB | --abs EB [options] --output FILE
  szr decompress --input FILE --output FILE [--threads N] [--telemetry[=json]]
                 [--salvage[=json] [--fill V]]
  szr inspect    --input FILE
  szr stat       --input FILE
  szr extract    --input FILE --region A:B --output FILE [--threads N]
  szr verify     --input FILE
  szr eval       --input FILE --dims AxBxC (--rel EB | --abs EB) [--codec NAME]
  szr plan       --input FILE --dims AxBxC (--target-ratio R | --rel EB | --abs EB) [options]
  szr gen        --dataset atm|aps|hurricane [--variable V] [--scale S] --output FILE

COMPRESS OPTIONS:
  --dtype f32|f64        element type (default f32)
  --abs EB               absolute error bound
  --rel EB               value-range-based relative bound
  --pointwise-rel EB     pointwise relative bound (log-domain mode)
  --layers N             prediction layers 1..8 (default 1)
  --bits M               fixed 2^M-1 quantization intervals, M in 2..28
                         (default adaptive)
  --decorrelate          whiten error autocorrelation (costs ~1 bit/value)
  --no-lossless-pass     skip the DEFLATE post-pass (faster, larger)
  --escape-lz            trial-compress the escape stream with DEFLATE and
                         store it compressed when that actually wins
                         (v5/v6 framing; helps clustered/repeating escapes)
  --auto                 plan the configuration from a sample first
                         (with --abs/--rel: smallest output under the bound;
                         with --target-ratio R: best quality reaching R)
  --telemetry[=json]     print a pipeline telemetry report on stdout after
                         the summary: per-stage spans, codec counters, and
                         per-band records (also valid on decompress)
  --chunks N             write a chunked container (SZCK): the tensor splits
                         into N independently decodable bands, compressed in
                         parallel and sealed with a random-access band index
  --threads N            worker threads for chunked containers (default 4)

OUTPUT FILES:
  --output FILE is rewritten in place and sized to the result, never
  truncated to zero first. A decode that fails removes its output (except
  under --salvage, which keeps the recovered data). Pipes and devices
  (e.g. /dev/null) are written as a stream.

DECOMPRESS OPTIONS:
  --salvage[=json]       verify each band's checksums and keep going past
                         damaged bands: intact bands decode exactly, damaged
                         bands are filled with --fill (default 0), and a
                         salvage report (text or JSON) prints on stdout.
                         Exits nonzero when any band was lost.
  --fill V               fill value for salvaged (damaged) regions

INSPECT:
  walks every archive section without reconstructing data. Handles band
  archives (v1/v2 legacy, v3/v4 checksummed, v5/v6 escape-LZ), chunked
  containers (SZCK),
  stream containers (SZST), and pointwise-relative archives (SZRL); corrupt
  input reports the failing section (header / table / payload / band N /
  index). For indexed chunked containers the band index section prints each
  band's offset, length, and rows plus the index CRC.

STAT:
  header-only metadata for any archive family — dims, dtype, band count,
  format version, error bound, index presence — without touching payload
  bytes. O(header), not O(archive).

EXTRACT:
  decodes only the bands covering rows A..B (slowest dim) of a chunked
  container through its random-access band index, writing the exact row
  range as raw output. O(touched bands), never O(archive).

VERIFY:
  checks archive integrity — structure plus the v3 per-section CRC32
  checksums — without reconstructing any values, for the same four archive
  families as inspect. Exits nonzero naming the failing section on damage;
  v1/v2 archives verify structurally (they carry no checksums).

EVAL OPTIONS:
  --codec sz14|zfp|sz11|isabela|fpzip|gzip   (default sz14)

PLAN OPTIONS:
  --target-ratio R       reach compression ratio >= R with the least error
  --codecs a,b,c         restrict the search (default sz14,zfp,sz11,isabela,fpzip)
  --report FILE          also write the plan report to FILE
  (prints 'infeasible: ...' and exits 0 when no config reaches the goal)

GEN OPTIONS:
  --variable TS|FREQSH|SNOWHLND|CDNUMC       (ATM only; default TS)
  --scale small|medium|full                  (default medium)
  --seed N                                   (default 42)
";

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() || raw[0] == "--help" || raw[0] == "help" {
        eprint!("{USAGE}");
        std::process::exit(if raw.is_empty() { 2 } else { 0 });
    }
    let parsed = match Args::parse(
        &raw,
        &[
            "decorrelate",
            "no-lossless-pass",
            "escape-lz",
            "auto",
            "telemetry",
            "salvage",
        ],
    ) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match parsed.command.as_str() {
        "compress" => commands::compress(&parsed),
        "decompress" => commands::decompress(&parsed),
        "inspect" => commands::inspect(&parsed),
        "stat" => commands::stat(&parsed),
        "extract" => commands::extract(&parsed),
        "verify" => commands::verify(&parsed),
        "eval" => commands::eval(&parsed),
        "plan" => commands::plan(&parsed),
        "gen" => commands::generate(&parsed),
        other => Err(format!("unknown subcommand {other:?}")),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
