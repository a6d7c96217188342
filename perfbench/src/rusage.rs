//! Process CPU time and peak resident set size from `getrusage(2)`.

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: TimeVal,
    stime: TimeVal,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn read() -> RUsage {
    let mut usage = RUsage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` with the C
    // layout for 64-bit Linux, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail on a valid buffer"
    );
    usage
}

/// User plus system CPU seconds used by this process (all threads).
pub fn cpu_seconds() -> f64 {
    let u = read();
    let secs = |t: &TimeVal| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&u.utime) + secs(&u.stime)
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    read().maxrss_kb as f64 / 1024.0
}
