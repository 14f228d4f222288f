//! Process resource readings: CPU time and peak resident memory.

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// `RUSAGE_SELF`: every thread of this process.
const RUSAGE_SELF: i32 = 0;

/// User plus system CPU seconds this process has used so far.
///
/// # Panics
///
/// If `getrusage` fails, which it cannot for `RUSAGE_SELF` and a valid
/// pointer.
#[must_use]
pub fn cpu_seconds() -> f64 {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` laid out as
    // the 64-bit Linux C definition (two `timeval`s of two `i64` each,
    // then fourteen `long`s), so the call writes only inside it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&usage.utime) + secs(&usage.stime)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
///
/// # Panics
///
/// If `/proc/self/status` is unreadable or lacks `VmHWM`.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM present in /proc/self/status");
    kb / 1024.0
}
