//! Subcommand implementations for the `szr` binary.
//!
//! Every file a command writes (`--output`, `--report`) goes through one
//! helper, `Output`: an existing file is rewritten in place and sized to
//! the result, never truncated to zero first, and a decode that fails after
//! its output was opened removes that output (`--salvage` keeps its partial
//! output by design). Chunked decodes (`decompress` of an SZCK container,
//! `extract`) write each band's rows from the worker that decoded it, at
//! the rows' offsets in the file; a pipe or device output instead gets an
//! in-memory decode and one sequential write.

use crate::args::{parse_dims, Args};
use std::sync::Arc;
use std::time::Instant;
use szr_core::{Config, ErrorBound, ScalarFloat};
use szr_metrics::ErrorStats;
use szr_telemetry::{time_it, RecordingSink, TelemetrySink};
use szr_tensor::Tensor;

type CmdResult = Result<(), String>;

/// What `--telemetry[=json]` asked for.
#[derive(Clone, Copy, PartialEq)]
enum TelemetryMode {
    Off,
    Text,
    Json,
}

fn telemetry_mode(args: &Args) -> Result<TelemetryMode, String> {
    match args.switch_or_value("telemetry") {
        None => Ok(TelemetryMode::Off),
        Some(None) | Some(Some("text")) => Ok(TelemetryMode::Text),
        Some(Some("json")) => Ok(TelemetryMode::Json),
        Some(Some(other)) => Err(format!("--telemetry={other:?} (expected text or json)")),
    }
}

/// Fresh recording sink when telemetry was requested.
fn telemetry_sink(mode: TelemetryMode) -> Option<Arc<RecordingSink>> {
    (mode != TelemetryMode::Off).then(|| Arc::new(RecordingSink::new()))
}

fn attach_sink<T: ScalarFloat>(
    session: &mut szr_core::CodecSession<T>,
    sink: Option<&Arc<RecordingSink>>,
) {
    if let Some(sink) = sink {
        session.set_telemetry(Some(sink.clone() as Arc<dyn TelemetrySink>));
    }
}

/// Prints the collected report on stdout (the summary stays on stderr, so
/// `szr compress --telemetry=json ... | jq` pipes cleanly).
fn emit_report(mode: TelemetryMode, sink: &RecordingSink) {
    let report = sink.report();
    match mode {
        TelemetryMode::Json => println!("{}", report.to_json()),
        _ => print!("{}", report.to_text()),
    }
}

fn fmt_dims(dims: &[usize]) -> String {
    dims.iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("x")
}

/// Bytes converted per read or write in the raw-file helpers, which stream
/// through one buffer of this size instead of a second full-size copy.
const RAW_IO_CHUNK: usize = 64 * 1024;

fn read_raw<T: ScalarFloat>(path: &str, dims: &[usize]) -> Result<Tensor<T>, String> {
    use std::io::Read;
    let cannot = |e: std::io::Error| format!("cannot read {path}: {e}");
    let mut file = std::fs::File::open(path).map_err(cannot)?;
    let len = file.metadata().map_err(cannot)?.len();
    let elem = T::BITS as usize / 8;
    let count = dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
    let (count, expected) = count
        .and_then(|n| Some((n, n.checked_mul(elem)?)))
        .ok_or_else(|| format!("{dims:?} x {} overflows the address space", T::NAME))?;
    if len != expected as u64 {
        return Err(format!(
            "{path}: {len} bytes but {dims:?} x {} needs {expected}",
            T::NAME,
        ));
    }
    let mut values = vec![T::from_f64(0.0); count];
    let mut buf = vec![0u8; RAW_IO_CHUNK];
    for out in values.chunks_mut(RAW_IO_CHUNK / elem) {
        let chunk = &mut buf[..out.len() * elem];
        file.read_exact(chunk).map_err(cannot)?;
        for (v, c) in out.iter_mut().zip(chunk.chunks_exact(elem)) {
            let mut bits = [0u8; 8];
            bits[..elem].copy_from_slice(c);
            *v = T::from_bits_u64(u64::from_le_bytes(bits));
        }
    }
    Ok(Tensor::from_vec(dims, values))
}

/// A file the CLI writes, opened to be rewritten in place: created when
/// missing, never truncated to zero, and (when it is a regular file) sized
/// to the bytes it will hold before any is written. Truncating a file to
/// zero and refilling it is what filesystems read as "replace this file"
/// (ext4 flushes such a file's new blocks when it closes), so the old
/// bytes are overwritten instead. An `Output` dropped before
/// [`Output::finish`] removes the file, so a failed decode leaves no
/// output behind. Pipes and devices are written as they are and never
/// removed.
struct Output<'p> {
    file: std::fs::File,
    path: &'p str,
    regular: bool,
    finished: bool,
}

impl<'p> Output<'p> {
    /// Opens `path` for `len` bytes.
    fn open(path: &'p str, len: usize) -> Result<Self, String> {
        let cannot = |e: std::io::Error| format!("cannot write {path}: {e}");
        let file = std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(cannot)?;
        let mut out = Output {
            regular: file.metadata().map_err(cannot)?.is_file(),
            file,
            path,
            finished: false,
        };
        if out.regular {
            if let Err(e) = out.file.set_len(len as u64) {
                // Not written yet: a file that cannot be sized is left as
                // it was.
                out.finished = true;
                return Err(cannot(e));
            }
        }
        Ok(out)
    }

    /// The error for a failed write to this output.
    fn cannot(&self, e: std::io::Error) -> String {
        format!("cannot write {}: {e}", self.path)
    }

    /// Writes `bytes` from the current position (the start, for a fresh
    /// `Output`).
    fn write_all(&self, bytes: &[u8]) -> CmdResult {
        use std::io::Write;
        (&self.file).write_all(bytes).map_err(|e| self.cannot(e))
    }

    /// Writes `values` little-endian from the current position.
    fn write_values<T: ScalarFloat>(&self, values: &[T]) -> CmdResult {
        use std::io::Write;
        le_chunks(values, |_, bytes| (&self.file).write_all(bytes)).map_err(|e| self.cannot(e))
    }

    /// Keeps the output.
    fn finish(mut self) {
        self.finished = true;
    }
}

impl Drop for Output<'_> {
    fn drop(&mut self) {
        if !self.finished && self.regular {
            let _ = std::fs::remove_file(self.path);
        }
    }
}

/// Hands `values` to `write` as little-endian bytes, [`RAW_IO_CHUNK`] at a
/// time, each chunk with its byte offset into `values`.
fn le_chunks<T: ScalarFloat>(
    values: &[T],
    mut write: impl FnMut(u64, &[u8]) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let elem = T::BITS as usize / 8;
    let mut buf = vec![0u8; RAW_IO_CHUNK.min(values.len() * elem)];
    let mut at = 0u64;
    for values in values.chunks(RAW_IO_CHUNK / elem) {
        let chunk = &mut buf[..values.len() * elem];
        for (c, &v) in chunk.chunks_exact_mut(elem).zip(values) {
            c.copy_from_slice(&v.to_bits_u64().to_le_bytes()[..elem]);
        }
        write(at, chunk)?;
        at += chunk.len() as u64;
    }
    Ok(())
}

/// Writes all of `bytes` at byte `offset` of `file`, leaving its cursor
/// alone on Unix; safe to call from several threads at disjoint offsets.
#[cfg(unix)]
fn write_all_at(file: &std::fs::File, bytes: &[u8], offset: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::write_all_at(file, bytes, offset)
}

#[cfg(windows)]
fn write_all_at(file: &std::fs::File, mut bytes: &[u8], mut offset: u64) -> std::io::Result<()> {
    use std::os::windows::fs::FileExt;
    while !bytes.is_empty() {
        match file.seek_write(bytes, offset)? {
            0 => return Err(std::io::ErrorKind::WriteZero.into()),
            n => {
                bytes = &bytes[n..];
                offset += n as u64;
            }
        }
    }
    Ok(())
}

/// Writes `bytes` to `path` through an [`Output`].
fn write_file(path: &str, bytes: &[u8]) -> CmdResult {
    let out = Output::open(path, bytes.len())?;
    out.write_all(bytes)?;
    out.finish();
    Ok(())
}

/// Writes a tensor to `path` as a raw little-endian file through an
/// [`Output`].
fn write_raw<T: ScalarFloat>(path: &str, data: &Tensor<T>) -> CmdResult {
    let out = Output::open(path, std::mem::size_of_val(data.as_slice()))?;
    out.write_values(data.as_slice())?;
    out.finish();
    Ok(())
}

/// Runs a chunked decode `plan` into the raw file `path`. On a regular
/// file, the band workers write every band's rows at their offsets
/// themselves as soon as the band decodes: no full-size tensor is built and
/// no serial write follows the decode. Any other output (a pipe, a device)
/// takes an in-memory decode and one sequential write.
fn decode_plan_to<T: ScalarFloat + Send + Sync>(
    executor: &szr_parallel::BandExecutor<'_>,
    plan: &szr_parallel::BandPlan<'_, T>,
    path: &str,
) -> CmdResult {
    let policy = szr_core::DecodePolicy::Strict;
    let elem = T::BITS as usize / 8;
    let out = Output::open(path, plan.len() * elem)?;
    if out.regular {
        let row_bytes = (plan.row_elems() * elem) as u64;
        executor
            .decode_each(plan, policy, |row, values: &[T]| {
                let base = row as u64 * row_bytes;
                le_chunks(values, |at, bytes| {
                    write_all_at(&out.file, bytes, base + at)
                })
                .map_err(|e| -> Box<dyn std::error::Error + Send + Sync> { out.cannot(e).into() })
            })
            .map_err(|e| e.to_string())?;
    } else {
        let mut values = vec![T::from_f64(0.0); plan.len()];
        executor
            .decode_into(plan, policy, &mut values)
            .map_err(|e| e.to_string())?;
        out.write_values(&values)?;
    }
    out.finish();
    Ok(())
}

fn build_config(args: &Args) -> Result<Config, String> {
    let abs = args.get_parse::<f64>("abs")?;
    let rel = args.get_parse::<f64>("rel")?;
    let bound = match (abs, rel) {
        (Some(a), Some(r)) => ErrorBound::Both { abs: a, rel: r },
        (Some(a), None) => ErrorBound::Absolute(a),
        (None, Some(r)) => ErrorBound::Relative(r),
        (None, None) => return Err("need --abs and/or --rel (or --pointwise-rel)".into()),
    };
    let mut config = Config::new(bound);
    if let Some(layers) = args.get_parse::<usize>("layers")? {
        config = config.with_layers(layers);
    }
    if let Some(bits) = args.get_parse::<u32>("bits")? {
        config = config.with_interval_bits(bits);
    }
    if args.switch("decorrelate") {
        config = config.with_decorrelation();
    }
    if args.switch("no-lossless-pass") {
        config = config.without_lossless_pass();
    }
    if args.switch("escape-lz") {
        config = config.with_escape_lz();
    }
    config.validate().map_err(|e| e.to_string())?;
    Ok(config)
}

/// Builds the planning goal from `--target-ratio` / `--abs` / `--rel`.
fn plan_goal(args: &Args) -> Result<szr_planner::Goal, String> {
    let abs = args.get_parse::<f64>("abs")?;
    let rel = args.get_parse::<f64>("rel")?;
    if let Some(ratio) = args.get_parse::<f64>("target-ratio")? {
        // A target-ratio plan picks its own error bound, so a bound flag
        // alongside it would be silently ignored — reject the combination
        // instead of letting a stated bound go unenforced.
        if abs.is_some() || rel.is_some() {
            return Err(
                "--target-ratio and --abs/--rel are different goals; give exactly one".into(),
            );
        }
        return Ok(szr_planner::Goal::TargetRatio { ratio });
    }
    let bound = match (abs, rel) {
        (Some(a), Some(r)) => ErrorBound::Both { abs: a, rel: r },
        (Some(a), None) => ErrorBound::Absolute(a),
        (None, Some(r)) => ErrorBound::Relative(r),
        (None, None) => return Err("need --target-ratio, --abs, or --rel".into()),
    };
    Ok(szr_planner::Goal::MaxError { bound })
}

/// Plans an SZ config for `compress --auto` and logs the choice. Also
/// returns the model's estimated bits/value so telemetry can report the
/// planned-versus-achieved drift.
fn auto_config<T: ScalarFloat + szr_metrics::Real>(
    args: &Args,
    data: &Tensor<T>,
) -> Result<(szr_core::Config, f64), String> {
    let goal = plan_goal(args)?;
    let planner =
        szr_planner::Planner::with_options(data, szr_planner::PlannerOptions::default().sz_only());
    let report = planner.plan(&goal).map_err(|e| e.to_string())?;
    let chosen = report.chosen();
    let config = chosen
        .codec
        .sz_config()
        .expect("sz-only plans always choose the SZ codec");
    eprintln!(
        "auto: layers {} / 2^{} - 1 intervals at eb {:.6e} (est {:.2}x, {:.2} bits/value)",
        config.layers,
        match config.intervals {
            szr_core::IntervalMode::Fixed { bits } => bits,
            _ => unreachable!("planned configs pin interval bits"),
        },
        chosen.estimate.max_abs_error,
        chosen.estimate.ratio,
        chosen.estimate.bits_per_value,
    );
    Ok((config, chosen.estimate.bits_per_value))
}

/// `szr compress`
pub fn compress(args: &Args) -> CmdResult {
    let input = args.need("input")?;
    let output = args.need("output")?;
    let dims = parse_dims(args.need("dims")?)?;
    let dtype = args.get("dtype").unwrap_or("f32");
    let pw = args.get_parse::<f64>("pointwise-rel")?;
    let auto = args.switch("auto");
    let chunks = args.get_parse::<usize>("chunks")?;
    let threads = args.get_parse::<usize>("threads")?.unwrap_or(4);
    let mode = telemetry_mode(args)?;
    let sink = telemetry_sink(mode);

    /// The mode flags `compress` threads through its typed inner fns.
    #[derive(Clone, Copy)]
    struct PackOpts {
        pw: Option<f64>,
        auto: bool,
        chunks: Option<usize>,
        threads: usize,
    }

    fn pack<T: ScalarFloat + szr_metrics::Real + Send + Sync>(
        args: &Args,
        data: &Tensor<T>,
        opts: PackOpts,
        sink: Option<&Arc<RecordingSink>>,
    ) -> Result<Vec<u8>, String> {
        let PackOpts {
            pw,
            auto,
            chunks,
            threads,
        } = opts;
        if let Some(bands) = chunks {
            if pw.is_some() {
                return Err("--chunks does not support --pointwise-rel (log-domain mode)".into());
            }
            if auto {
                return Err("--chunks and --auto do not combine; give explicit bounds".into());
            }
            if bands == 0 {
                return Err("--chunks needs at least one band".into());
            }
            let cfg = build_config(args)?;
            let executor = szr_parallel::BandExecutor {
                threads,
                sink: sink.map(|s| s.as_ref()),
            };
            let archive = executor
                .compress(data, &cfg, bands, szr_parallel::Strategy::Independent)
                .map_err(|e| e.to_string())?;
            return Ok(archive.to_bytes());
        }
        match (pw, auto) {
            (Some(_), true) => {
                Err("--auto does not support --pointwise-rel (log-domain mode)".into())
            }
            (Some(_), _) if sink.is_some() => {
                Err("--telemetry does not support --pointwise-rel (log-domain mode)".into())
            }
            (Some(eb), false) => {
                let cfg = build_config_pw(args)?;
                szr_core::compress_pointwise_rel(data, eb, &cfg).map_err(|e| e.to_string())
            }
            (None, true) => {
                let (config, estimate) = auto_config(args, data)?;
                let mut session = szr_core::CodecSession::new(config).map_err(|e| e.to_string())?;
                attach_sink(&mut session, sink);
                session.set_planned_bits_per_value(Some(estimate));
                session.compress(data).map_err(|e| e.to_string())
            }
            (None, false) => {
                let mut session =
                    szr_core::CodecSession::new(build_config(args)?).map_err(|e| e.to_string())?;
                attach_sink(&mut session, sink);
                session.compress(data).map_err(|e| e.to_string())
            }
        }
    }
    fn pack_timed<T: ScalarFloat + szr_metrics::Real + Send + Sync>(
        args: &Args,
        input: &str,
        dims: &[usize],
        opts: PackOpts,
        sink: Option<&Arc<RecordingSink>>,
    ) -> Result<(Vec<u8>, usize, szr_telemetry::Throughput), String> {
        let data = read_raw::<T>(input, dims)?;
        let raw_bytes = data.len() * (T::BITS as usize / 8);
        let (archive, timing) = time_it(raw_bytes, || pack(args, &data, opts, sink));
        Ok((archive?, raw_bytes, timing))
    }
    let opts = PackOpts {
        pw,
        auto,
        chunks,
        threads,
    };
    let (archive, raw_bytes, timing) = match dtype {
        "f32" => pack_timed::<f32>(args, input, &dims, opts, sink.as_ref())?,
        "f64" => pack_timed::<f64>(args, input, &dims, opts, sink.as_ref())?,
        other => return Err(format!("unknown --dtype {other:?}")),
    };
    write_file(output, &archive)?;
    eprintln!(
        "{input} -> {output}: {} -> {} bytes (CF {:.2}x) in {:.2}s ({:.1} MB/s)",
        raw_bytes,
        archive.len(),
        raw_bytes as f64 / archive.len() as f64,
        timing.elapsed.as_secs_f64(),
        timing.mb_per_sec(),
    );
    if let Some(sink) = &sink {
        emit_report(mode, sink);
    }
    Ok(())
}

/// Config for the pointwise path (its bound field is a placeholder).
fn build_config_pw(args: &Args) -> Result<Config, String> {
    let mut config = Config::new(ErrorBound::Absolute(1.0));
    if let Some(layers) = args.get_parse::<usize>("layers")? {
        config = config.with_layers(layers);
    }
    if let Some(bits) = args.get_parse::<u32>("bits")? {
        config = config.with_interval_bits(bits);
    }
    Ok(config)
}

/// What `--salvage[=json]` asked for.
#[derive(Clone, Copy, PartialEq)]
enum SalvageMode {
    Off,
    Text,
    Json,
}

fn salvage_mode(args: &Args) -> Result<SalvageMode, String> {
    match args.switch_or_value("salvage") {
        None => Ok(SalvageMode::Off),
        Some(None) | Some(Some("text")) => Ok(SalvageMode::Text),
        Some(Some("json")) => Ok(SalvageMode::Json),
        Some(Some(other)) => Err(format!("--salvage={other:?} (expected text or json)")),
    }
}

/// `szr decompress`
pub fn decompress(args: &Args) -> CmdResult {
    let input = args.need("input")?;
    let output = args.need("output")?;
    let mode = telemetry_mode(args)?;
    let sink = telemetry_sink(mode);
    let threads = args.get_parse::<usize>("threads")?.unwrap_or(4);
    let archive = std::fs::read(input).map_err(|e| format!("cannot read {input}: {e}"))?;
    if salvage_mode(args)? != SalvageMode::Off {
        if sink.is_some() {
            return Err("--salvage and --telemetry do not combine".into());
        }
        return decompress_salvage(args, input, output, &archive, threads);
    }
    // Pointwise-relative archives carry their own magic and type tag.
    if archive.starts_with(b"SZRL") {
        if sink.is_some() {
            return Err("--telemetry does not support pointwise-relative archives".into());
        }
        let t0 = Instant::now();
        match archive.get(4) {
            Some(0) => {
                let data: Tensor<f32> =
                    szr_core::decompress_pointwise_rel(&archive).map_err(|e| e.to_string())?;
                write_raw(output, &data)?;
                eprintln!(
                    "{input} -> {output}: {} f32 values (pointwise-relative) in {:.2}s",
                    data.len(),
                    t0.elapsed().as_secs_f64()
                );
            }
            _ => {
                let data: Tensor<f64> =
                    szr_core::decompress_pointwise_rel(&archive).map_err(|e| e.to_string())?;
                write_raw(output, &data)?;
                eprintln!(
                    "{input} -> {output}: {} f64 values (pointwise-relative) in {:.2}s",
                    data.len(),
                    t0.elapsed().as_secs_f64()
                );
            }
        }
        return Ok(());
    }
    // Stream containers (SZST) decode every band into one output sized from
    // the stream trailer.
    if archive.starts_with(b"SZST") {
        if sink.is_some() {
            return Err("--telemetry does not support stream archives".into());
        }
        fn unpack<T: ScalarFloat>(archive: &[u8], output: &str) -> Result<Vec<usize>, String> {
            let decoder = szr_core::StreamDecompressor::<T>::new(archive)
                .map_err(|e| format!("container: {e}"))?;
            let data = decoder.collect_all().map_err(|e| e.to_string())?;
            write_raw(output, &data)?;
            Ok(data.dims().to_vec())
        }
        let t0 = Instant::now();
        let (dims, dtype) = match archive.get(4) {
            Some(1) => (unpack::<f64>(&archive, output)?, "f64"),
            _ => (unpack::<f32>(&archive, output)?, "f32"),
        };
        eprintln!(
            "{input} -> {output}: {} {dtype} values ({}, stream) in {:.2}s",
            dims.iter().product::<usize>(),
            fmt_dims(&dims),
            t0.elapsed().as_secs_f64(),
        );
        return Ok(());
    }
    // Chunked containers (SZCK) decode every band in parallel, straight
    // into the output file. The v2 band index is deliberately ignored on
    // this path — the sequential band walk is authoritative, so a damaged
    // index never blocks a full decode.
    if archive.starts_with(b"SZCK") {
        let container = szr_parallel::ChunkedArchive::from_bytes(&archive)
            .map_err(|e| format!("container: {e}"))?;
        let first = container
            .chunks
            .first()
            .ok_or_else(|| "container: no bands".to_string())?;
        let info = szr_core::inspect(first).map_err(|e| format!("band 0: {e}"))?;
        let total: usize = container.dims.iter().product();
        let raw_bytes = total * if info.dtype == "f32" { 4 } else { 8 };
        let executor = szr_parallel::BandExecutor {
            threads,
            sink: sink.as_deref(),
        };
        fn unpack<T: ScalarFloat + Send + Sync>(
            executor: &szr_parallel::BandExecutor<'_>,
            container: &szr_parallel::ChunkedArchive,
            output: &str,
        ) -> CmdResult {
            let plan = szr_parallel::BandPlan::<T>::full(container).map_err(|e| e.to_string())?;
            decode_plan_to(executor, &plan, output)
        }
        let (result, timing) = time_it(raw_bytes, || match info.dtype {
            "f32" => unpack::<f32>(&executor, &container, output),
            _ => unpack::<f64>(&executor, &container, output),
        });
        result?;
        eprintln!(
            "{input} -> {output}: {} {} values ({}, {} bands) in {:.2}s ({:.1} MB/s)",
            total,
            info.dtype,
            fmt_dims(&container.dims),
            container.chunks.len(),
            timing.elapsed.as_secs_f64(),
            timing.mb_per_sec(),
        );
        if let Some(sink) = &sink {
            emit_report(mode, sink);
        }
        return Ok(());
    }
    let info = szr_core::inspect(&archive).map_err(|e| e.to_string())?;
    let raw_bytes = info.len() * if info.dtype == "f32" { 4 } else { 8 };
    let (result, timing) = time_it(raw_bytes, || -> CmdResult {
        match info.dtype {
            "f32" => {
                let mut session = szr_core::CodecSession::<f32>::decoder();
                attach_sink(&mut session, sink.as_ref());
                let data = session.decompress(&archive).map_err(|e| e.to_string())?;
                write_raw(output, &data)
            }
            _ => {
                let mut session = szr_core::CodecSession::<f64>::decoder();
                attach_sink(&mut session, sink.as_ref());
                let data = session.decompress(&archive).map_err(|e| e.to_string())?;
                write_raw(output, &data)
            }
        }
    });
    result?;
    eprintln!(
        "{input} -> {output}: {} {} values ({}) in {:.2}s ({:.1} MB/s)",
        info.len(),
        info.dtype,
        fmt_dims(&info.dims),
        timing.elapsed.as_secs_f64(),
        timing.mb_per_sec(),
    );
    if let Some(sink) = &sink {
        emit_report(mode, sink);
    }
    Ok(())
}

/// `szr decompress --salvage`: verify every band's checksums, decode what
/// is intact, fill damaged regions, and print the salvage report. Exits
/// nonzero (command error) when any band was lost, after writing the
/// partial output — the recovered data is the point of the mode.
fn decompress_salvage(
    args: &Args,
    input: &str,
    output: &str,
    archive: &[u8],
    threads: usize,
) -> CmdResult {
    let json = salvage_mode(args)? == SalvageMode::Json;
    let fill = args.get_parse::<f64>("fill")?.unwrap_or(0.0);

    fn emit(input: &str, output: &str, report: &szr_core::SalvageReport, json: bool) -> CmdResult {
        println!(
            "{}",
            if json {
                report.to_json()
            } else {
                report.to_text()
            }
        );
        if report.is_clean() {
            eprintln!(
                "{input} -> {output}: all {} bands verified and recovered",
                report.bands
            );
            Ok(())
        } else {
            Err(format!(
                "{input}: {} of {} bands damaged (recovered output written to {output})",
                report.damaged.len(),
                report.bands,
            ))
        }
    }

    fn salvage_chunked<T: ScalarFloat + Send + Sync>(
        container: &szr_parallel::ChunkedArchive,
        fill: f64,
        output: &str,
        threads: usize,
    ) -> Result<szr_core::SalvageReport, String> {
        let (data, report) = szr_parallel::BandExecutor::new(threads)
            .salvage::<T>(container, T::from_f64(fill))
            .map_err(|e| e.to_string())?;
        write_raw(output, &data)?;
        Ok(report)
    }

    fn salvage_stream<T: ScalarFloat>(
        archive: &[u8],
        fill: f64,
        output: &str,
    ) -> Result<szr_core::SalvageReport, String> {
        let decoder = szr_core::StreamDecompressor::<T>::new(archive).map_err(|e| e.to_string())?;
        let (data, report) = decoder
            .collect_all_salvage(T::from_f64(fill))
            .map_err(|e| e.to_string())?;
        write_raw(output, &data)?;
        Ok(report)
    }

    let report = match archive.get(..4) {
        Some(b"SZCK") => {
            let container = szr_parallel::ChunkedArchive::from_bytes(archive)
                .map_err(|e| format!("container: {e}"))?;
            let first = container
                .chunks
                .first()
                .ok_or_else(|| "container: no bands to salvage".to_string())?;
            match szr_core::inspect(first).map(|info| info.dtype) {
                Ok("f64") => salvage_chunked::<f64>(&container, fill, output, threads)?,
                // Damaged first band: fall back to f32, the common case; a
                // wrong guess shows up as per-band type errors, not a panic.
                _ => salvage_chunked::<f32>(&container, fill, output, threads)?,
            }
        }
        Some(b"SZST") => match archive.get(4) {
            Some(1) => salvage_stream::<f64>(archive, fill, output)?,
            _ => salvage_stream::<f32>(archive, fill, output)?,
        },
        Some(b"SZRL") => {
            return Err(
                "pointwise-relative archives have no per-band structure to salvage; \
                 use `szr verify` to check integrity"
                    .into(),
            )
        }
        _ => {
            // A single band archive either verifies and decodes whole or is
            // lost whole; run the verifying decode and report accordingly.
            let info = szr_core::inspect(archive).map_err(|e| e.to_string())?;
            let policy = szr_core::DecodePolicy::Salvage;
            let result: Result<(), String> = match info.dtype {
                "f64" => szr_core::decompress_with_policy::<f64>(archive, policy)
                    .map_err(|e| e.to_string())
                    .and_then(|data| write_raw(output, &data)),
                _ => szr_core::decompress_with_policy::<f32>(archive, policy)
                    .map_err(|e| e.to_string())
                    .and_then(|data| write_raw(output, &data)),
            };
            let mut report = szr_core::SalvageReport {
                bands: 1,
                recovered: Vec::new(),
                damaged: Vec::new(),
                fill,
            };
            match result {
                Ok(()) => report.recovered.push(0),
                Err(e) => report.damaged.push(szr_core::BandDamage {
                    band: 0,
                    byte_range: (0, archive.len()),
                    error: e,
                }),
            }
            report
        }
    };
    emit(input, output, &report, json)
}

/// `szr verify` — integrity check (structure + v3 section checksums) for
/// all four archive families, without reconstructing any values. Prints a
/// per-family summary on success; fails naming the damaged section.
pub fn verify(args: &Args) -> CmdResult {
    let input = args.need("input")?;
    let archive = std::fs::read(input).map_err(|e| format!("cannot read {input}: {e}"))?;
    match archive.get(..4) {
        Some(b"SZCK") => {
            let container = szr_parallel::ChunkedArchive::from_bytes(&archive)
                .map_err(|e| format!("container: {e}"))?;
            if let Some(table) = &container.shared_table {
                szr_huffman::deserialize_codec(table)
                    .map_err(|e| format!("shared huffman table: {e}"))?;
            }
            let mut checksummed = 0usize;
            for (i, chunk) in container.chunks.iter().enumerate() {
                let layout =
                    szr_core::inspect_layout(chunk).map_err(|e| format!("band {i}: {e}"))?;
                checksummed += usize::from(layout.info.checksummed);
            }
            println!(
                "ok: chunked container, {} bands verified ({checksummed} checksummed)",
                container.chunks.len()
            );
        }
        Some(b"SZST") => {
            let slices =
                match archive.get(4) {
                    Some(1) => szr_core::StreamDecompressor::<f64>::new(&archive)
                        .and_then(|d| d.band_slices()),
                    _ => szr_core::StreamDecompressor::<f32>::new(&archive)
                        .and_then(|d| d.band_slices()),
                }
                .map_err(|e| format!("container: {e}"))?;
            let mut checksummed = 0usize;
            for (i, slice) in slices.iter().enumerate() {
                let layout =
                    szr_core::inspect_layout(slice).map_err(|e| format!("band {i}: {e}"))?;
                checksummed += usize::from(layout.info.checksummed);
            }
            println!(
                "ok: stream container, {} bands verified ({checksummed} checksummed)",
                slices.len()
            );
        }
        Some(b"SZRL") => {
            szr_core::verify_pointwise_rel(&archive).map_err(|e| e.to_string())?;
            println!("ok: pointwise-relative archive verified");
        }
        _ => {
            let layout = szr_core::inspect_layout(&archive).map_err(|e| e.to_string())?;
            println!(
                "ok: band archive verified ({})",
                match (layout.info.checksummed, layout.info.escape_lz) {
                    (true, true) => "v5/v6, all section checksums match, escape stream inflates",
                    (true, false) => "v3/v4, all section checksums match",
                    _ => "legacy v1/v2, structural checks only",
                }
            );
        }
    }
    Ok(())
}

/// `szr inspect` — section-by-section archive introspection without
/// reconstructing data. Dispatches on the magic: band archives (v1 and
/// shared-stream v2), chunked containers (SZCK), stream containers (SZST),
/// and pointwise-relative archives (SZRL). Corrupt input fails with the
/// offending section named.
pub fn inspect(args: &Args) -> CmdResult {
    let input = args.need("input")?;
    let archive = std::fs::read(input).map_err(|e| format!("cannot read {input}: {e}"))?;
    println!("file            : {input}");
    match archive.get(..4) {
        Some(b"SZCK") => inspect_chunked(&archive),
        Some(b"SZST") => inspect_stream(&archive),
        Some(b"SZRL") => inspect_pointwise(&archive),
        _ => inspect_band(&archive),
    }
}

fn inspect_band(archive: &[u8]) -> CmdResult {
    let layout = szr_core::inspect_layout(archive).map_err(|e| e.to_string())?;
    let info = &layout.info;
    println!(
        "kind            : {}",
        match (info.shared_stream, info.checksummed, info.escape_lz) {
            (true, _, true) => "band archive (v6, shared-table stream, checksummed, escape-LZ)",
            (true, true, false) => "band archive (v4, shared-table stream, checksummed)",
            (true, false, false) => "band archive (v2, shared-table stream)",
            (false, _, true) => "band archive (v5, self-contained, checksummed, escape-LZ)",
            (false, true, false) => "band archive (v3, self-contained, checksummed)",
            (false, false, false) => "band archive (v1, self-contained)",
        }
    );
    println!("dtype           : {}", info.dtype);
    println!("dims            : {}", fmt_dims(&info.dims));
    println!("points          : {}", info.len());
    println!("error bound     : {:.6e} (absolute)", info.error_bound);
    println!("layers          : {}", info.layers);
    println!("intervals       : 2^{} - 1", info.interval_bits);
    println!("decorrelated    : {}", info.decorrelated);
    println!(
        "post-pass       : {}",
        if layout.deflate_post_pass {
            "DEFLATE"
        } else {
            "none"
        }
    );
    println!(
        "huffman block   : {} bytes ({} code stream + {} table framing)",
        layout.huffman_bytes,
        layout.code_stream_bytes,
        layout.huffman_bytes - layout.code_stream_bytes,
    );
    match (layout.table_symbols, layout.table_depth) {
        (Some(symbols), Some(depth)) => {
            println!("huffman table   : {symbols} symbols, max code length {depth}");
        }
        _ => println!("huffman table   : shared (lives in the owning container)"),
    }
    println!(
        "escape stream   : {} bytes{}",
        layout.unpredictable_bytes,
        if info.escape_lz {
            " (inflated; stored deflated)"
        } else {
            ""
        }
    );
    println!("archive bytes   : {}", info.archive_bytes);
    println!("compression     : {:.2}x", info.compression_factor());
    Ok(())
}

/// One compact line per band inside a container listing.
fn band_line(i: usize, bytes: usize, layout: &szr_core::BandLayout) -> String {
    format!(
        "  band {i:<4}: {} · {bytes} bytes ({} huffman + {} escapes{})",
        fmt_dims(&layout.info.dims),
        layout.huffman_bytes,
        layout.unpredictable_bytes,
        match (layout.deflate_post_pass, layout.info.escape_lz) {
            (true, true) => ", deflated, escape-LZ",
            (true, false) => ", deflated",
            (false, true) => ", escape-LZ",
            (false, false) => "",
        },
    )
}

fn inspect_chunked(archive: &[u8]) -> CmdResult {
    let container =
        szr_parallel::ChunkedArchive::from_bytes(archive).map_err(|e| format!("container: {e}"))?;
    println!("kind            : chunked container (SZCK)");
    println!("dims            : {}", fmt_dims(&container.dims));
    match &container.shared_table {
        Some(table) => println!("shared table    : {} bytes", table.len()),
        None => println!("shared table    : none (per-band tables)"),
    }
    println!("bands           : {}", container.chunks.len());
    for (i, chunk) in container.chunks.iter().enumerate() {
        let layout = szr_core::inspect_layout(chunk).map_err(|e| format!("band {i}: {e}"))?;
        println!("{}", band_line(i, chunk.len(), &layout));
    }
    // The band index is its own archive section: a damaged index fails
    // inspect with "index:" named, even though full decodes survive it.
    match archive.get(4) {
        Some(1) => println!("band index      : none (legacy v1 container)"),
        _ => {
            let index =
                szr_parallel::ChunkedArchive::peek_index(archive).map_err(|e| e.to_string())?;
            println!(
                "band index      : {} entries, crc 0x{:08X}",
                index.bands(),
                index.crc
            );
            for (i, entry) in index.entries.iter().enumerate() {
                println!(
                    "  index {i:<3}: offset {} · {} bytes · {} rows",
                    entry.offset, entry.len, entry.rows
                );
            }
        }
    }
    Ok(())
}

/// `szr stat` — header-only metadata for any archive family. Never touches
/// payload bytes: O(header), not O(archive).
pub fn stat(args: &Args) -> CmdResult {
    let input = args.need("input")?;
    let bytes = std::fs::read(input).map_err(|e| format!("cannot read {input}: {e}"))?;
    let s = szr_server::stat(&bytes).map_err(|e| e.to_string())?;
    println!("file            : {input}");
    println!("family          : {}", s.family.name());
    println!("dtype           : {}", s.dtype.unwrap_or("unknown"));
    println!("dims            : {}", fmt_dims(&s.dims));
    println!("bands           : {}", s.bands);
    if let Some(version) = s.version {
        println!("version         : {version}");
    }
    match s.error_bound {
        Some(eb) => println!("error bound     : {eb:.6e}"),
        None => println!("error bound     : unknown (first band unreadable)"),
    }
    println!("indexed         : {}", if s.indexed { "yes" } else { "no" });
    println!("archive bytes   : {}", s.archive_bytes);
    Ok(())
}

/// `szr extract` — ROI decode through the chunked band index: only the
/// bands covering `--region A:B` (a slowest-dimension row range) are
/// decoded, and the output is trimmed to exactly those rows.
pub fn extract(args: &Args) -> CmdResult {
    let input = args.need("input")?;
    let output = args.need("output")?;
    let region = args.need("region")?;
    let threads = args.get_parse::<usize>("threads")?.unwrap_or(4);
    let (start, end) = region
        .split_once(':')
        .and_then(|(a, b)| Some((a.parse::<usize>().ok()?, b.parse::<usize>().ok()?)))
        .ok_or_else(|| format!("--region {region:?} (expected START:END row range)"))?;
    let bytes = std::fs::read(input).map_err(|e| format!("cannot read {input}: {e}"))?;
    if !bytes.starts_with(b"SZCK") {
        return Err("extract needs a chunked container (SZCK); recompress with --chunks N".into());
    }
    let index = szr_parallel::band_index(&bytes).map_err(|e| e.to_string())?;
    let (touched, _) = index
        .bands_covering_rows(start..end)
        .map_err(|e| e.to_string())?;
    let first = index
        .band_slice(&bytes, touched.start)
        .map_err(|e| e.to_string())?;
    let dtype = szr_core::inspect(first)
        .map_err(|e| format!("band {}: {e}", touched.start))?
        .dtype;
    fn unpack<T: ScalarFloat + Send + Sync>(
        bytes: &[u8],
        index: &szr_parallel::BandIndex,
        rows: std::ops::Range<usize>,
        threads: usize,
        output: &str,
    ) -> Result<usize, String> {
        let plan =
            szr_parallel::BandPlan::<T>::rows(bytes, index, rows).map_err(|e| e.to_string())?;
        decode_plan_to(&szr_parallel::BandExecutor::new(threads), &plan, output)?;
        Ok(plan.dims()[0])
    }
    let t0 = Instant::now();
    let rows = match dtype {
        "f32" => unpack::<f32>(&bytes, &index, start..end, threads, output)?,
        _ => unpack::<f64>(&bytes, &index, start..end, threads, output)?,
    };
    eprintln!(
        "{input} -> {output}: rows {start}..{end} ({rows} rows, {dtype}) via bands {}..{} of {} ({}) in {:.2}s",
        touched.start,
        touched.end,
        index.bands(),
        if index.from_index {
            "indexed seek"
        } else {
            "sequential walk"
        },
        t0.elapsed().as_secs_f64(),
    );
    Ok(())
}

fn inspect_stream(archive: &[u8]) -> CmdResult {
    println!("kind            : stream container (SZST)");
    match archive.get(4) {
        Some(0) => inspect_stream_typed::<f32>(archive),
        Some(1) => inspect_stream_typed::<f64>(archive),
        tag => Err(format!("container: unknown stream type tag {tag:?}")),
    }
}

fn inspect_stream_typed<T: ScalarFloat>(archive: &[u8]) -> CmdResult {
    let decoder =
        szr_core::StreamDecompressor::<T>::new(archive).map_err(|e| format!("container: {e}"))?;
    println!("dtype           : {}", T::NAME);
    println!("inner dims      : {}", fmt_dims(decoder.inner_dims()));
    println!("bands           : {}", decoder.remaining_bands());
    let slices = decoder
        .band_slices()
        .map_err(|e| format!("container: {e}"))?;
    for (i, slice) in slices.iter().enumerate() {
        let layout = szr_core::inspect_layout(slice).map_err(|e| format!("band {i}: {e}"))?;
        println!("{}", band_line(i, slice.len(), &layout));
    }
    Ok(())
}

fn inspect_pointwise(archive: &[u8]) -> CmdResult {
    println!("kind            : pointwise-relative archive (SZRL, log-domain)");
    let dtype = match archive.get(4) {
        Some(0) => "f32",
        _ => "f64",
    };
    println!("dtype           : {dtype}");
    println!("archive bytes   : {}", archive.len());
    println!("(log-domain archives carry no section table; decompress to measure)");
    Ok(())
}

/// `szr eval` — compress+decompress in memory, print quality metrics.
pub fn eval(args: &Args) -> CmdResult {
    let input = args.need("input")?;
    let dims = parse_dims(args.need("dims")?)?;
    let codec = args.get("codec").unwrap_or("sz14");
    let data = read_raw::<f32>(input, &dims)?;
    let range = szr_metrics::value_range(data.as_slice());
    let eb = match (args.get_parse::<f64>("abs")?, args.get_parse::<f64>("rel")?) {
        (Some(a), _) => a,
        (None, Some(r)) => r * range,
        (None, None) => return Err("need --abs or --rel".into()),
    };
    let raw_bytes = data.len() * 4;

    let t0 = Instant::now();
    let (packed, out): (Vec<u8>, Tensor<f32>) = match codec {
        "sz14" => {
            // One session drives both directions: the decompress replay
            // reuses the compress pass's kernel and scratch.
            let config = build_config_eval(args, eb)?;
            let mut session =
                szr_core::CodecSession::<f32>::new(config).map_err(|e| e.to_string())?;
            let packed = session.compress(&data).map_err(|e| e.to_string())?;
            let out = session.decompress(&packed).map_err(|e| e.to_string())?;
            (packed, out)
        }
        "zfp" => {
            let packed =
                szr_zfp::zfp_compress(&data, szr_zfp::ZfpMode::FixedAccuracy { tolerance: eb });
            let out = szr_zfp::zfp_decompress(&packed).map_err(|e| e.to_string())?;
            (packed, out)
        }
        "sz11" => {
            let packed = szr_sz11::sz11_compress(&data, eb);
            let out = szr_sz11::sz11_decompress(&packed).map_err(|e| e.to_string())?;
            (packed, out)
        }
        "isabela" => {
            let packed = szr_isabela::isabela_compress(&data, &szr_isabela::IsabelaConfig::new(eb))
                .map_err(|e| e.to_string())?;
            let out = szr_isabela::isabela_decompress(&packed).map_err(|e| e.to_string())?;
            (packed, out)
        }
        "fpzip" => {
            let packed = szr_fpzip::fpzip_compress(&data);
            let out = szr_fpzip::fpzip_decompress(&packed).map_err(|e| e.to_string())?;
            (packed, out)
        }
        "gzip" => {
            let bytes: Vec<u8> = data
                .as_slice()
                .iter()
                .flat_map(|v| v.to_le_bytes())
                .collect();
            let packed = szr_deflate::gzip_compress(&bytes);
            let back = szr_deflate::gzip_decompress(&packed).map_err(|e| e.to_string())?;
            let floats: Vec<f32> = back
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
                .collect();
            (packed, Tensor::from_vec(&dims[..], floats))
        }
        other => return Err(format!("unknown --codec {other:?}")),
    };
    let elapsed = t0.elapsed().as_secs_f64();
    let stats = ErrorStats::compute(data.as_slice(), out.as_slice());
    println!("codec           : {codec}");
    println!("bound (absolute): {eb:.6e}");
    println!(
        "size            : {} -> {} bytes (CF {:.2}x, {:.2} bits/value)",
        raw_bytes,
        packed.len(),
        raw_bytes as f64 / packed.len() as f64,
        packed.len() as f64 * 8.0 / data.len() as f64
    );
    println!("max abs error   : {:.6e}", stats.max_abs);
    println!("max rel error   : {:.6e}", stats.max_rel);
    println!("RMSE / NRMSE    : {:.6e} / {:.6e}", stats.rmse, stats.nrmse);
    println!("PSNR            : {:.2} dB", stats.psnr);
    println!("Pearson rho     : {:.9}", stats.pearson);
    println!(
        "bound respected : {}",
        if stats.max_abs <= eb { "yes" } else { "NO" }
    );
    println!("round trip      : {elapsed:.2}s");
    Ok(())
}

fn build_config_eval(args: &Args, eb: f64) -> Result<Config, String> {
    let mut config = Config::new(ErrorBound::Absolute(eb));
    if let Some(layers) = args.get_parse::<usize>("layers")? {
        config = config.with_layers(layers);
    }
    if let Some(bits) = args.get_parse::<u32>("bits")? {
        config = config.with_interval_bits(bits);
    }
    if args.switch("decorrelate") {
        config = config.with_decorrelation();
    }
    config.validate().map_err(|e| e.to_string())?;
    Ok(config)
}

/// `szr plan` — estimate ratio/quality per codec and pick a configuration
/// without compressing the full file.
pub fn plan(args: &Args) -> CmdResult {
    let input = args.need("input")?;
    let dims = parse_dims(args.need("dims")?)?;
    match args.get("dtype").unwrap_or("f32") {
        "f32" => plan_typed(args, read_raw::<f32>(input, &dims)?),
        "f64" => plan_typed(args, read_raw::<f64>(input, &dims)?),
        other => Err(format!("unknown --dtype {other:?}")),
    }
}

fn plan_typed<T: ScalarFloat + szr_metrics::Real>(args: &Args, data: Tensor<T>) -> CmdResult {
    let goal = plan_goal(args)?;
    let mut opts = szr_planner::PlannerOptions::default();
    if let Some(list) = args.get("codecs") {
        opts.codecs = list
            .split(',')
            .map(|name| {
                szr_planner::CodecKind::parse(name.trim())
                    .ok_or_else(|| format!("unknown codec {name:?} in --codecs"))
            })
            .collect::<Result<Vec<_>, _>>()?;
    }
    let t0 = Instant::now();
    let planner = szr_planner::Planner::with_options(&data, opts);
    match planner.plan(&goal) {
        Ok(report) => {
            let chosen = report.chosen();
            let text = report.to_text();
            if let Some(path) = args.get("report") {
                write_file(path, text.as_bytes())?;
            }
            print!("{text}");
            eprintln!(
                "plan: {} — est {:.2}x ({:.2} bits/value), est max err {:.3e}, \
                 {} candidates in {:.2}s",
                chosen.codec.name(),
                chosen.estimate.ratio,
                chosen.estimate.bits_per_value,
                chosen.estimate.max_abs_error,
                report.candidates.len(),
                t0.elapsed().as_secs_f64()
            );
            Ok(())
        }
        // Infeasibility is a successful answer, not a failure: report it on
        // stdout — and into --report, so a sweep never reads a stale file
        // from an earlier feasible run — then exit 0.
        Err(szr_planner::PlanError::Infeasible(msg)) => {
            let line = format!("infeasible: {msg}\n");
            if let Some(path) = args.get("report") {
                write_file(path, line.as_bytes())?;
            }
            print!("{line}");
            Ok(())
        }
        Err(e) => Err(e.to_string()),
    }
}

/// `szr gen`
pub fn generate(args: &Args) -> CmdResult {
    use szr_datagen::{aps, atm, hurricane, AtmVariable, Scale};
    let output = args.need("output")?;
    let dataset = args.need("dataset")?;
    let scale = match args.get("scale").unwrap_or("medium") {
        "small" => Scale::Small,
        "medium" => Scale::Medium,
        "full" => Scale::Full,
        other => return Err(format!("unknown --scale {other:?}")),
    };
    let seed = args.get_parse::<u64>("seed")?.unwrap_or(42);
    let data = match dataset {
        "atm" => {
            let var = match args.get("variable").unwrap_or("TS") {
                "TS" => AtmVariable::Ts,
                "FREQSH" => AtmVariable::Freqsh,
                "SNOWHLND" => AtmVariable::Snowhlnd,
                "CDNUMC" => AtmVariable::Cdnumc,
                other => return Err(format!("unknown --variable {other:?}")),
            };
            let (r, c) = scale.atm_dims();
            atm(var, r, c, seed)
        }
        "aps" => {
            let (r, c) = scale.aps_dims();
            aps(r, c, seed)
        }
        "hurricane" => {
            let (l, r, c) = scale.hurricane_dims();
            hurricane(l, r, c, seed)
        }
        other => return Err(format!("unknown --dataset {other:?}")),
    };
    write_raw(output, &data)?;
    eprintln!(
        "wrote {output}: {} f32 values, dims {}",
        data.len(),
        data.dims()
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("x")
    );
    Ok(())
}
