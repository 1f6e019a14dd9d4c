//! Host calibration and peak-RSS readout.

use std::hint::black_box;
use std::time::Instant;

use crate::report::median;

/// What the host can do in parallel, measured at the start of every run.
#[derive(Debug, Clone, Copy)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub cpus: usize,
    /// One fixed CPU-bound loop on 1 thread vs. on `cpus` threads at once:
    /// `cpus × t1 / t_cpus`. Below 1.5 the host cannot show thread scaling.
    pub parallel_speedup: f64,
}

/// Xorshift iterations of the calibration loop (tens of milliseconds).
const SPIN_ITERS: u64 = 20_000_000;

fn spin() -> u64 {
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..SPIN_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x)
}

fn timed_spin(threads: usize) -> f64 {
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(spin);
        }
    });
    t.elapsed().as_secs_f64()
}

pub fn calibrate() -> Host {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let one = median(&[timed_spin(1), timed_spin(1), timed_spin(1)]);
    let all = median(&[timed_spin(cpus), timed_spin(cpus), timed_spin(cpus)]);
    Host {
        cpus,
        parallel_speedup: cpus as f64 * one / all,
    }
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as laid out by glibc on 64-bit Linux.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

fn max_rss_mb(who: i32) -> f64 {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the C layout
    // and `who` is one of the two selectors getrusage(2) accepts.
    let rc = unsafe { getrusage(who, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    // ru_maxrss is in KiB on Linux.
    usage.maxrss as f64 * 1024.0 / 1e6
}

/// Peak resident set of this process, in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    max_rss_mb(RUSAGE_SELF)
}

/// Largest peak resident set among waited-for child processes, in MB.
pub fn children_peak_rss_mb() -> f64 {
    max_rss_mb(RUSAGE_CHILDREN)
}
