//! The concurrent archive service: bounded admission, work-stealing band
//! execution, and O(touched-bands) region reads.
//!
//! [`ArchiveService`] owns a [`SessionPool`] and a fixed set of worker
//! threads draining per-worker [`WorkQueues`]. A submitted job is split
//! into one task per band at admission; workers claim their own queue's
//! tasks front-first and steal from the most loaded peer when idle, so a
//! straggler band cannot serialize the rest of a job — or other jobs —
//! behind it. Admission is bounded: at most `queue_jobs` jobs are in flight,
//! and the configured [`Backpressure`] policy decides whether an over-limit
//! submit blocks or is rejected (counted, and surfaced through the
//! service's telemetry sink as `rejected_jobs`).
//!
//! The tasks are `szr-parallel`'s own band tasks: compress jobs cut bands
//! with its [`BandSplit`] and run [`compress_band`] per task, and decode
//! jobs run [`BandIndex::decode_band_into`] on *serialized* archives (so a
//! region read seeks straight to the covered bands). A decode job's output
//! is allocated once, when the job is admitted; each band task decodes into
//! a buffer its worker owns and copies the band's kept rows into the job
//! output. Service output is therefore bit-identical to the chunked drivers
//! by construction.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use szr_core::{check_declared_len, Config, DecodePolicy, ScalarFloat, SzError};
use szr_huffman::HuffmanCodec;
use szr_parallel::{
    band_index, compress_band, shared_codec, BandIndex, BandSplit, ChunkedArchive, WorkQueues,
};
use szr_telemetry::{Counter, RecordingSink, TelemetrySink};
use szr_tensor::{Shape, Tensor};

use crate::pool::SessionPool;
use crate::ServiceError;

/// What happens to a submit that finds the service at its job limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// The submitting thread waits for a slot.
    Block,
    /// The submit returns [`ServiceError::Rejected`] immediately.
    Reject,
}

/// Construction parameters for [`ArchiveService`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker threads (and pooled sessions). At least one.
    pub workers: usize,
    /// Maximum jobs in flight (admitted, not yet completed). Zero is only
    /// meaningful with [`Backpressure::Reject`] (every submit rejects —
    /// the deterministic backpressure test fixture); with `Block` it would
    /// deadlock every submitter, so construction refuses it.
    pub queue_jobs: usize,
    /// Over-limit submit behavior.
    pub backpressure: Backpressure,
    /// Config every pooled session is armed with. Compress jobs under a
    /// different config re-arm the checked-out session per task.
    pub session_config: Config,
}

/// Monotonic service counters ([`ArchiveService::stats`] snapshot).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs admitted.
    pub submitted: u64,
    /// Jobs fully completed (result delivered to the handle).
    pub completed: u64,
    /// Submits turned away under [`Backpressure::Reject`].
    pub rejected: u64,
    /// Submits that had to wait under [`Backpressure::Block`].
    pub blocked: u64,
    /// Band tasks executed.
    pub bands_executed: u64,
    /// Cross-worker task steals.
    pub steals: u64,
}

/// One compressed band's pending archive, filled by whichever worker ran
/// the task.
type BandSlot = Mutex<Option<Result<Vec<u8>, SzError>>>;

enum JobKind<T: ScalarFloat> {
    Compress {
        data: Arc<Tensor<T>>,
        config: Config,
        split: BandSplit,
        /// Band archives, by band.
        chunks: Vec<BandSlot>,
    },
    Decompress(DecodeJob<T>),
}

/// A full decode or region read: the covering bands of a serialized
/// archive, decoded into one output.
struct DecodeJob<T: ScalarFloat> {
    bytes: Arc<Vec<u8>>,
    index: BandIndex,
    codec: Option<Box<HuffmanCodec>>,
    /// Bands to decode; task `slot` decodes band `bands.start + slot`.
    bands: Range<usize>,
    /// Each covering band's first row within the covering bands' rows.
    starts: Vec<usize>,
    /// The rows of the covering bands the result keeps.
    keep: Range<usize>,
    /// The result's values: reserved at admission and filled band by band,
    /// each band task copying its kept rows in.
    out: Mutex<Vec<T>>,
    /// The first failing band and its error.
    failed: Mutex<Option<(usize, SzError)>>,
}

const OUT_POISONED: &str = "a band task panicked while copying into the job output";
const FAILED_POISONED: &str = "a band task panicked while recording its failure";

impl<T: ScalarFloat> DecodeJob<T> {
    /// A job decoding bands `bands` of `bytes` and keeping rows `keep` of
    /// them. The index's extents place every band and size every band
    /// task's buffer, so they are checked here, before the job is queued:
    /// each against its band's header and bytes, the covering bands must
    /// hold the kept rows, and the output is bounded by the bytes present.
    fn new(
        bytes: Arc<Vec<u8>>,
        index: BandIndex,
        bands: Range<usize>,
        keep: Range<usize>,
    ) -> Result<Self, SzError> {
        index.check_bands::<T>(&bytes, bands.clone())?;
        let codec = shared_codec(index.shared_table_slice(&bytes))?.map(Box::new);
        let starts: Vec<usize> = index.entries[bands.clone()]
            .iter()
            .scan(0, |row, entry| {
                let start = *row;
                *row += entry.rows;
                Some(start)
            })
            .collect();
        let covered = starts
            .last()
            .map_or(0, |&s| s + index.entries[bands.end - 1].rows);
        if keep.end > covered {
            return Err(SzError::Corrupt(
                "index: covering bands hold fewer rows than declared".into(),
            ));
        }
        check_declared_len(keep.len() * index.row_elems(), bytes.len())?;
        Ok(DecodeJob {
            bytes,
            index,
            codec,
            bands,
            starts,
            keep,
            out: Mutex::new(Vec::new()),
            failed: Mutex::new(None),
        })
    }

    /// Reserves the output once the job is admitted, never while its
    /// submitter is blocked. Nothing is written yet: zeroing memory every
    /// value of which a band overwrites would be a wasted pass.
    fn allocate(&self) {
        *self.out.lock().expect(OUT_POISONED) =
            Vec::with_capacity(self.keep.len() * self.index.row_elems());
    }

    /// Decodes band task `slot` into `buf`, a buffer its worker owns, and
    /// copies the band's kept rows into the job output under its lock.
    /// `buf`'s prior contents are never read, so it only grows.
    ///
    /// Bands mostly land in order and append. One that lands ahead of an
    /// earlier band first fills the earlier band's rows with zeros, which
    /// that band overwrites when it lands; the output's length therefore
    /// always ends on a band.
    fn run_band(
        &self,
        session: &mut szr_core::CodecSession<T>,
        slot: usize,
        buf: &mut Vec<T>,
    ) -> Result<(), SzError> {
        let band = self.bands.start + slot;
        let row_elems = self.index.row_elems();
        let start = self.starts[slot];
        let rows = self.index.entries[band].rows;
        if buf.len() < rows * row_elems {
            buf.resize(rows * row_elems, T::from_f64(0.0));
        }
        let whole = &mut buf[..rows * row_elems];
        self.index
            .decode_band_into(session, &self.bytes, band, self.codec.as_deref(), whole)?;
        let (lo, hi) = (
            start.max(self.keep.start),
            (start + rows).min(self.keep.end),
        );
        let kept = &whole[(lo - start) * row_elems..(hi - start) * row_elems];
        let at = (lo - self.keep.start) * row_elems;
        let mut out = self.out.lock().expect(OUT_POISONED);
        if out.len() <= at {
            out.resize(at, T::from_f64(0.0));
            out.extend_from_slice(kept);
        } else {
            out[at..at + kept.len()].copy_from_slice(kept);
        }
        Ok(())
    }

    /// Records a band's failure; the lowest band's error is the job's.
    fn fail(&self, slot: usize, error: SzError) {
        let mut failed = self.failed.lock().expect(FAILED_POISONED);
        if failed.as_ref().is_none_or(|&(first, _)| slot < first) {
            *failed = Some((slot, error));
        }
    }

    /// The job's result once every band task has run.
    fn finish(&self) -> Result<Tensor<T>, SzError> {
        if let Some((_, error)) = self.failed.lock().expect(FAILED_POISONED).take() {
            return Err(error);
        }
        let mut dims = self.index.dims.clone();
        dims[0] = self.keep.len();
        let out = std::mem::take(&mut *self.out.lock().expect(OUT_POISONED));
        Ok(Tensor::from_vec(Shape::new(&dims), out))
    }
}

/// The result channel a handle waits on.
enum JobOutput<T: ScalarFloat> {
    Archive(Vec<u8>),
    Tensor(Tensor<T>),
}

struct JobState<T: ScalarFloat> {
    done: Mutex<Option<Result<JobOutput<T>, ServiceError>>>,
    cond: Condvar,
}

impl<T: ScalarFloat> JobState<T> {
    fn fulfill(&self, result: Result<JobOutput<T>, ServiceError>) {
        *self.done.lock().unwrap() = Some(result);
        self.cond.notify_all();
    }

    fn wait(&self) -> Result<JobOutput<T>, ServiceError> {
        let mut done = self.done.lock().unwrap();
        loop {
            if let Some(result) = done.take() {
                return result;
            }
            done = self.cond.wait(done).unwrap();
        }
    }
}

struct Job<T: ScalarFloat> {
    kind: JobKind<T>,
    policy: DecodePolicy,
    sink: Option<Arc<RecordingSink>>,
    /// Band tasks the job fans out to.
    tasks: usize,
    remaining: AtomicUsize,
    state: Arc<JobState<T>>,
}

struct Task<T: ScalarFloat> {
    job: Arc<Job<T>>,
    slot: usize,
}

/// Pending handle for a compress job; consume with
/// [`CompressHandle::wait`] for the serialized indexed archive.
pub struct CompressHandle<T: ScalarFloat>(Arc<JobState<T>>);

impl<T: ScalarFloat> CompressHandle<T> {
    /// Blocks until the job completes; returns the archive bytes.
    pub fn wait(self) -> Result<Vec<u8>, ServiceError> {
        match self.0.wait()? {
            JobOutput::Archive(bytes) => Ok(bytes),
            JobOutput::Tensor(_) => unreachable!("compress jobs produce archives"),
        }
    }
}

/// Pending handle for a decompress / region-read job; consume with
/// [`TensorHandle::wait`] for the decoded tensor.
pub struct TensorHandle<T: ScalarFloat>(Arc<JobState<T>>);

impl<T: ScalarFloat> TensorHandle<T> {
    /// Blocks until the job completes; returns the decoded tensor.
    pub fn wait(self) -> Result<Tensor<T>, ServiceError> {
        match self.0.wait()? {
            JobOutput::Tensor(tensor) => Ok(tensor),
            JobOutput::Archive(_) => unreachable!("decode jobs produce tensors"),
        }
    }
}

struct AdmissionState {
    active_jobs: usize,
    shutdown: bool,
}

struct Shared<T: ScalarFloat> {
    pool: SessionPool<T>,
    queues: WorkQueues<Task<T>>,
    state: Mutex<AdmissionState>,
    /// Woken on new work, job completion, and shutdown; workers and
    /// blocked submitters both wait here.
    cond: Condvar,
    queue_jobs: usize,
    backpressure: Backpressure,
    sink: Option<Arc<RecordingSink>>,
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    blocked: AtomicU64,
    bands_executed: AtomicU64,
}

/// The concurrent archive service (see module docs).
pub struct ArchiveService<T: ScalarFloat> {
    shared: Arc<Shared<T>>,
    workers: Vec<JoinHandle<()>>,
}

impl<T: ScalarFloat + Send + Sync + 'static> ArchiveService<T> {
    /// Builds the pool, queues, and worker threads.
    pub fn new(config: ServiceConfig) -> Result<Self, ServiceError> {
        Self::with_telemetry(config, None)
    }

    /// [`ArchiveService::new`] with a service-level telemetry sink:
    /// rejected submits are counted as `rejected_jobs` when they happen,
    /// and scheduler steals flush as `scheduler_steals` on drop.
    pub fn with_telemetry(
        config: ServiceConfig,
        sink: Option<Arc<RecordingSink>>,
    ) -> Result<Self, ServiceError> {
        config
            .session_config
            .validate()
            .map_err(ServiceError::Codec)?;
        if config.queue_jobs == 0 && config.backpressure == Backpressure::Block {
            return Err(ServiceError::Codec(SzError::InvalidConfig(
                "a zero-job queue under blocking backpressure deadlocks every submit",
            )));
        }
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            pool: SessionPool::new(config.session_config, workers).map_err(ServiceError::Codec)?,
            queues: WorkQueues::new(workers),
            state: Mutex::new(AdmissionState {
                active_jobs: 0,
                shutdown: false,
            }),
            cond: Condvar::new(),
            queue_jobs: config.queue_jobs,
            backpressure: config.backpressure,
            sink,
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            blocked: AtomicU64::new(0),
            bands_executed: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Ok(ArchiveService {
            shared,
            workers: handles,
        })
    }

    /// Pre-sizes every pooled session's caches for bands shaped
    /// `band_dims` (see [`SessionPool::warm`]).
    pub fn warm(&self, band_dims: &[usize]) -> Result<(), ServiceError> {
        self.shared
            .pool
            .warm(band_dims)
            .map_err(ServiceError::Codec)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            completed: self.shared.completed.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            blocked: self.shared.blocked.load(Ordering::Relaxed),
            bands_executed: self.shared.bands_executed.load(Ordering::Relaxed),
            steals: self.shared.queues.steals(),
        }
    }

    /// Submits a chunked compression of `data` into `num_chunks` bands
    /// under `config`. The archive bytes are bit-identical to
    /// `szr_parallel::compress_chunked(data, config, num_chunks, _)`
    /// serialized via `to_bytes` (indexed v2), regardless of worker count
    /// or scheduling.
    pub fn submit_compress(
        &self,
        data: Arc<Tensor<T>>,
        config: Config,
        num_chunks: usize,
        sink: Option<Arc<RecordingSink>>,
    ) -> Result<CompressHandle<T>, ServiceError> {
        config.validate().map_err(ServiceError::Codec)?;
        let split = BandSplit::new(data.dims(), num_chunks);
        let state = Arc::new(JobState {
            done: Mutex::new(None),
            cond: Condvar::new(),
        });
        let job = Arc::new(Job {
            tasks: split.bands(),
            remaining: AtomicUsize::new(split.bands()),
            kind: JobKind::Compress {
                data,
                config,
                chunks: (0..split.bands()).map(|_| Mutex::new(None)).collect(),
                split,
            },
            policy: DecodePolicy::Strict,
            sink,
            state: Arc::clone(&state),
        });
        self.admit(job)?;
        Ok(CompressHandle(state))
    }

    /// Submits a full decode of a serialized chunked archive. Byte-
    /// identical to `szr_parallel::decompress_chunked` on the parsed
    /// archive.
    pub fn submit_decompress(
        &self,
        bytes: Arc<Vec<u8>>,
        policy: DecodePolicy,
        sink: Option<Arc<RecordingSink>>,
    ) -> Result<TensorHandle<T>, ServiceError> {
        let index = band_index(&bytes).map_err(ServiceError::Codec)?;
        let bands = 0..index.bands();
        let keep = 0..index.dims[0];
        self.submit_decode(bytes, index, bands, keep, policy, sink)
    }

    /// Submits an ROI read of slowest-dimension rows `rows`: only the
    /// covering bands are decoded (located through the band index — O(1)
    /// seeks on indexed archives), and the result is trimmed to exactly
    /// the requested rows.
    pub fn read_region(
        &self,
        bytes: Arc<Vec<u8>>,
        rows: Range<usize>,
        policy: DecodePolicy,
        sink: Option<Arc<RecordingSink>>,
    ) -> Result<TensorHandle<T>, ServiceError> {
        let index = band_index(&bytes).map_err(ServiceError::Codec)?;
        let (bands, first_row) = index
            .bands_covering_rows(rows.clone())
            .map_err(ServiceError::Codec)?;
        let keep = rows.start - first_row..rows.end - first_row;
        self.submit_decode(bytes, index, bands, keep, policy, sink)
    }

    fn submit_decode(
        &self,
        bytes: Arc<Vec<u8>>,
        index: BandIndex,
        bands: Range<usize>,
        keep: Range<usize>,
        policy: DecodePolicy,
        sink: Option<Arc<RecordingSink>>,
    ) -> Result<TensorHandle<T>, ServiceError> {
        let decode = DecodeJob::new(bytes, index, bands, keep).map_err(ServiceError::Codec)?;
        let state = Arc::new(JobState {
            done: Mutex::new(None),
            cond: Condvar::new(),
        });
        let job = Arc::new(Job {
            tasks: decode.bands.len(),
            remaining: AtomicUsize::new(decode.bands.len()),
            kind: JobKind::Decompress(decode),
            policy,
            sink,
            state: Arc::clone(&state),
        });
        self.admit(job)?;
        Ok(TensorHandle(state))
    }

    /// Bounded admission: applies the backpressure policy, then fans the
    /// job out as one task per band, round-robin across worker queues.
    fn admit(&self, job: Arc<Job<T>>) -> Result<(), ServiceError> {
        let shared = &self.shared;
        let mut state = shared.state.lock().unwrap();
        while state.active_jobs >= shared.queue_jobs {
            if state.shutdown {
                return Err(ServiceError::ShuttingDown);
            }
            match shared.backpressure {
                Backpressure::Reject => {
                    shared.rejected.fetch_add(1, Ordering::Relaxed);
                    if let Some(sink) = &shared.sink {
                        sink.counter(Counter::RejectedJobs, 1);
                    }
                    return Err(ServiceError::Rejected {
                        queued: state.active_jobs,
                        capacity: shared.queue_jobs,
                    });
                }
                Backpressure::Block => {
                    shared.blocked.fetch_add(1, Ordering::Relaxed);
                    state = shared.cond.wait(state).unwrap();
                }
            }
        }
        if state.shutdown {
            return Err(ServiceError::ShuttingDown);
        }
        shared.submitted.fetch_add(1, Ordering::Relaxed);
        if let JobKind::Decompress(decode) = &job.kind {
            decode.allocate();
        }
        let tasks = job.tasks;
        if tasks == 0 {
            // Degenerate empty job: complete it inline, never occupying a
            // slot.
            finalize(shared, &job);
            drop(state);
            shared.cond.notify_all();
            return Ok(());
        }
        state.active_jobs += 1;
        for slot in 0..tasks {
            shared.queues.push(
                slot % shared.queues.workers(),
                Task {
                    job: Arc::clone(&job),
                    slot,
                },
            );
        }
        drop(state);
        shared.cond.notify_all();
        Ok(())
    }
}

impl<T: ScalarFloat> Drop for ArchiveService<T> {
    fn drop(&mut self) {
        self.shared.state.lock().unwrap().shutdown = true;
        self.shared.cond.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        if let Some(sink) = &self.shared.sink {
            let steals = self.shared.queues.steals();
            if steals > 0 {
                sink.counter(Counter::SchedulerSteals, steals);
            }
        }
    }
}

fn worker_loop<T: ScalarFloat + Send + Sync>(shared: &Shared<T>) {
    let w = shared.queues.register();
    // The band buffer decode tasks decode into, reused across every band
    // this worker runs.
    let mut band_buf: Vec<T> = Vec::new();
    loop {
        if let Some(task) = shared.queues.pop(w) {
            run_task(shared, &task, &mut band_buf);
            continue;
        }
        // Tasks are pushed under the state lock, so re-checking emptiness
        // under it closes the push-vs-sleep race.
        let state = shared.state.lock().unwrap();
        if !shared.queues.is_empty() {
            continue;
        }
        if state.shutdown {
            return;
        }
        drop(shared.cond.wait(state).unwrap());
    }
}

fn run_task<T: ScalarFloat + Send + Sync>(
    shared: &Shared<T>,
    task: &Task<T>,
    band_buf: &mut Vec<T>,
) {
    let job = &task.job;
    {
        let mut session = shared.pool.checkout();
        if let Some(sink) = &job.sink {
            session.set_telemetry(Some(Arc::clone(sink) as Arc<dyn TelemetrySink>));
        }
        match &job.kind {
            JobKind::Compress {
                data,
                config,
                split,
                chunks,
            } => {
                // A session may still be armed by an earlier job's config.
                if session.config() != Some(config) {
                    session.set_config(*config).expect("validated at submit")
                }
                let out = compress_band(&mut session, data.as_slice(), split, task.slot);
                *chunks[task.slot].lock().unwrap() = Some(out);
            }
            JobKind::Decompress(decode) => {
                session.set_decode_policy(job.policy);
                if let Err(e) = decode.run_band(&mut session, task.slot, band_buf) {
                    decode.fail(task.slot, e);
                }
            }
        }
        if job.sink.is_some() {
            session.set_telemetry(None);
        }
    }
    shared.bands_executed.fetch_add(1, Ordering::Relaxed);
    if job.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        finalize(shared, job);
        // A finished job frees an admission slot; wake blocked submitters
        // (and idle workers, harmlessly).
        let mut state = shared.state.lock().unwrap();
        state.active_jobs -= 1;
        drop(state);
        shared.cond.notify_all();
    }
}

/// Assembles a job's result and fulfills the handle. Called exactly once,
/// by whichever worker finishes the last task (or inline for empty jobs).
fn finalize<T: ScalarFloat>(shared: &Shared<T>, job: &Job<T>) {
    let result = match &job.kind {
        JobKind::Compress { data, chunks, .. } => chunks
            .iter()
            .map(|slot| {
                slot.lock()
                    .unwrap()
                    .take()
                    .expect("finalize runs after every task stored its slot")
            })
            .collect::<Result<_, _>>()
            .map(|chunks| {
                let archive = ChunkedArchive {
                    dims: data.dims().to_vec(),
                    chunks,
                    shared_table: None,
                };
                JobOutput::Archive(archive.to_bytes())
            }),
        JobKind::Decompress(decode) => decode.finish().map(JobOutput::Tensor),
    };
    shared.completed.fetch_add(1, Ordering::Relaxed);
    job.state.fulfill(result.map_err(ServiceError::Codec));
}

#[cfg(test)]
mod tests {
    use super::*;
    use szr_core::{CodecSession, ErrorBound};
    use szr_parallel::{compress_chunked, decompress_chunked};

    /// Bands that land in any order — here last to first, so every band
    /// but the last lands ahead of an earlier one — fill the job output
    /// exactly as a full decode's rows.
    #[test]
    fn decode_job_bands_land_in_any_order() {
        let data = Tensor::from_fn([60usize, 24], |ix| {
            ((ix[0] as f32) * 0.17).sin() * 3.0 + (ix[1] as f32) * 0.01
        });
        let archive =
            compress_chunked(&data, &Config::new(ErrorBound::Absolute(1e-3)), 6, 1).unwrap();
        let full: Tensor<f32> = decompress_chunked(&archive, 1).unwrap();
        let bytes = Arc::new(archive.to_bytes());
        let index = band_index(&bytes).unwrap();
        let mut session = CodecSession::<f32>::decoder();
        let mut buf = Vec::new();
        for rows in [13..47usize, 0..60] {
            let (bands, first_row) = index.bands_covering_rows(rows.clone()).unwrap();
            let keep = rows.start - first_row..rows.end - first_row;
            let job =
                DecodeJob::new(Arc::clone(&bytes), index.clone(), bands.clone(), keep).unwrap();
            job.allocate();
            for slot in (0..bands.len()).rev() {
                job.run_band(&mut session, slot, &mut buf).unwrap();
            }
            let got = job.finish().unwrap();
            assert_eq!(got.dims(), &[rows.len(), 24]);
            assert_eq!(
                got.as_slice(),
                &full.as_slice()[rows.start * 24..rows.end * 24]
            );
        }
    }
}
