//! Host facts the benchmark reports next to its figures: process CPU
//! time, peak resident set and the usable core count.

/// `struct timespec` of the C library (64-bit Linux layout).
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time consumed so far by every thread of this process.
pub fn process_cpu() -> std::time::Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed so far by the calling thread.
pub fn thread_cpu() -> std::time::Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

fn cpu_clock(clock: i32) -> std::time::Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed `timespec` for the
    // duration of the call, and both CPU-time clocks used here are
    // supported by every Linux kernel this code targets.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    std::time::Duration::new(
        u64::try_from(ts.tv_sec).expect("CPU time is non-negative"),
        u32::try_from(ts.tv_nsec).expect("tv_nsec below one second"),
    )
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
