//! A host-speed reference, so that time metrics survive a shared host.
//!
//! On a shared machine the memory system's speed drifts by 10–30% over
//! tens of seconds as other tenants load it, and the agreement stack —
//! allocation-heavy and pointer-chasing — slows with it. A fixed probe
//! kernel that is bound by the same memory system slows by the same
//! factor. [`Clock`] runs the probe between the segments it times and
//! reports every segment in *reference seconds*: the measured time times
//! `REF_PROBE_NS / probe_ns`, the probe's reference time over its time
//! around the segment. On an unloaded host the two read alike.
//!
//! The probe first reads its whole buffer, so what the timed random
//! accesses find in the caches does not depend on what the measured
//! code left there. The buffer is many times a core's L2 and a large
//! share of the last-level cache all tenants share, so how much of it
//! stays cached, and how fast the misses return, depends on what the
//! other tenants do.

use std::hint::black_box;
use std::time::Instant;

use crate::rusage;

/// Words in the probe buffer: 32 MiB.
const PROBE_WORDS: usize = 1 << 22;
/// Bytes the probe buffer adds to the process's resident set.
pub const PROBE_BYTES: usize = PROBE_WORDS * 8;
/// Random read-modify-writes per probe.
const PROBE_ACCESSES: usize = 100_000;
/// Nanoseconds one probe takes on the reference host, a 2-vCPU shared
/// x86-64 VM (Xeon, 2.0 GHz): the median over many runs, at the loads
/// that host sees.
pub const REF_PROBE_NS: f64 = 2.3e6;
/// Probes whose median sets the current speed: a window a few hundred
/// milliseconds wide, far shorter than the host's slow phases.
const WINDOW: usize = 5;
/// Probe times kept for [`Clock::probe_ns`]; reserved up front, so a
/// probe never allocates (the traced run counts allocations).
const KEPT: usize = 8192;

/// Times code in reference seconds.
pub struct Clock {
    buf: Vec<u64>,
    state: u64,
    /// The latest probe times, oldest first, at most [`WINDOW`].
    recent: Vec<f64>,
    /// The run's probe times, for [`Clock::probe_ns`].
    all: Vec<f64>,
}

/// One timed segment.
#[derive(Clone, Copy, Debug, Default)]
pub struct Span {
    /// Wall time, in reference seconds.
    pub wall_s: f64,
    /// User+system CPU time of the whole process, in reference seconds.
    pub cpu_s: f64,
    /// Wall time as the host's clock read it.
    pub raw_wall_s: f64,
}

impl std::ops::AddAssign for Span {
    fn add_assign(&mut self, o: Span) {
        self.wall_s += o.wall_s;
        self.cpu_s += o.cpu_s;
        self.raw_wall_s += o.raw_wall_s;
    }
}

impl Span {
    /// Reference seconds per raw second over this span (1 if empty).
    pub fn factor(&self) -> f64 {
        if self.raw_wall_s > 0.0 {
            self.wall_s / self.raw_wall_s
        } else {
            1.0
        }
    }
}

impl Clock {
    /// A clock with its buffer resident and its window full.
    pub fn new() -> Clock {
        let mut c = Clock {
            buf: vec![1; PROBE_WORDS],
            state: 0x9e37_79b9_7f4a_7c15,
            recent: Vec::with_capacity(WINDOW),
            all: Vec::with_capacity(KEPT),
        };
        for _ in 0..WINDOW {
            c.probe();
        }
        c
    }

    /// Runs the probe once and records its time.
    fn probe(&mut self) {
        black_box(self.buf.iter().fold(0u64, |a, &w| a.wrapping_add(w)));
        let start = Instant::now();
        let mut x = self.state;
        let n = self.buf.len();
        for _ in 0..PROBE_ACCESSES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) % n;
            self.buf[i] = self.buf[i].wrapping_add(x);
        }
        black_box(&self.buf);
        self.state = x;
        let ns = start.elapsed().as_nanos() as f64;
        if self.recent.len() == WINDOW {
            self.recent.remove(0);
        }
        self.recent.push(ns);
        if self.all.len() < KEPT {
            self.all.push(ns);
        }
    }

    /// Reference seconds per raw second at the host's current speed.
    /// Allocation-free, like [`Clock::probe`].
    fn factor(&self) -> f64 {
        let mut w = [0.0; WINDOW];
        let w = &mut w[..self.recent.len()];
        w.copy_from_slice(&self.recent);
        w.sort_by(f64::total_cmp);
        let mid = w.len() / 2;
        let median = if w.len() % 2 == 1 {
            w[mid]
        } else {
            (w[mid - 1] + w[mid]) / 2.0
        };
        REF_PROBE_NS / median
    }

    /// Runs `f` and times it: the raw times, scaled by the mean of the
    /// speed factors just before and just after it.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (Span, T) {
        let before = self.factor();
        let cpu = rusage::cpu_seconds();
        let start = Instant::now();
        let out = f();
        let raw_wall_s = start.elapsed().as_secs_f64();
        let raw_cpu_s = rusage::cpu_seconds() - cpu;
        self.probe();
        let k = (before + self.factor()) / 2.0;
        let span = Span {
            wall_s: raw_wall_s * k,
            cpu_s: raw_cpu_s * k,
            raw_wall_s,
        };
        (span, out)
    }

    /// The median probe time of the run so far, in nanoseconds: how
    /// loaded the host was.
    pub fn probe_ns(&self) -> f64 {
        crate::stats::median(&self.all)
    }
}
