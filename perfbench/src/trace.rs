//! The traced run's instruments. Every layer is measured from outside,
//! by timing calls into its public functions from this file:
//!
//! - [`Traced`] is a pure forwarding `Process` wrapper that times
//!   `on_start` / `on_batch` (the whole protocol stack) and splits each
//!   batch's time pro rata over the message families it carries;
//! - [`TimedObserver`] times `Observer::after_event` (the invariant
//!   monitor);
//! - [`codec_replay`] times `encode_frame` / `decode_frame` /
//!   `frame_len` over batches [`Traced`] captured;
//! - [`field_kernels`] times the `Domain` interpolation kernels.
//!
//! The probe is thread-local: the simulator is single-threaded, and
//! tests running side by side each get their own.

use std::any::Any;
use std::cell::RefCell;
use std::fmt::Debug;
use std::hint::black_box;
use std::time::Instant;

use sba::field::{Domain, Field, Gf61, Poly};
use sba::net::{decode_frame, encode_frame, frame_len, FramedWire, Kinded, Outbox, Pid, Reader};
use sba::sim::{Observer, ObserverStats, Process};

use crate::alloc::{self, Region};

/// Message families, by the prefix of their `Kinded::kind` label.
pub const FAMILIES: [&str; 5] = ["rb", "mw", "svss", "coin", "aba"];

/// The family index of a kind label (`"rb/echo"` → 0), if it has one.
pub fn family(kind: &str) -> Option<usize> {
    let head = kind.split('/').next()?;
    FAMILIES.iter().position(|f| *f == head)
}

/// What the wrappers measured since the last [`reset`].
#[derive(Default)]
pub struct Probe {
    /// Nanoseconds inside `on_start` / `on_batch`.
    pub stack_ns: u64,
    /// Messages handed to `on_batch`.
    pub msgs: u64,
    /// `on_batch` time apportioned to each family by member count.
    pub family_ns: [f64; 5],
    /// Messages of each family handed to `on_batch`.
    pub family_msgs: [u64; 5],
    /// Members whose kind label has no family (must stay 0).
    pub unknown_msgs: u64,
    /// `on_batch` time spent on batches mixing two or more families.
    pub mixed_ns: u64,
    /// Nanoseconds inside `Observer::after_event`.
    pub monitor_ns: u64,
    /// Invariant checks the observer reported.
    pub monitor_checks: u64,
    /// Violations the observer reported.
    pub monitor_violations: u64,
    batches_seen: u64,
    sample_every: u64,
    sample_batches: usize,
    /// Captured batches, as a `Vec<Vec<M>>` for the run's message type.
    sample: Option<Box<dyn Any>>,
}

/// Batches captured per run, at most.
const SAMPLE_CAP: usize = 4096;

thread_local! {
    static PROBE: RefCell<Probe> = RefCell::new(Probe::default());
}

/// Clears the probe; every `sample_every`-th batch is captured for the
/// codec replay (0 captures none).
pub fn reset(sample_every: u64) {
    PROBE.with(|p| {
        *p.borrow_mut() = Probe {
            sample_every,
            ..Probe::default()
        }
    });
}

/// Takes what the probe measured, leaving it cleared.
pub fn take() -> Probe {
    PROBE.with(|p| std::mem::take(&mut *p.borrow_mut()))
}

impl Probe {
    /// The captured batches (empty if none were, or `M` is not the
    /// message type they were captured as).
    pub fn take_sample<M: 'static>(&mut self) -> Vec<Vec<M>> {
        self.sample
            .take()
            .and_then(|b| b.downcast::<Vec<Vec<M>>>().ok())
            .map(|b| *b)
            .unwrap_or_default()
    }

    fn capture<M: Clone + 'static>(&mut self, msgs: &[M]) {
        self.batches_seen += 1;
        if self.sample_every == 0
            || !self.batches_seen.is_multiple_of(self.sample_every)
            || self.sample_batches >= SAMPLE_CAP
        {
            return;
        }
        self.sample_batches += 1;
        self.sample
            .get_or_insert_with(|| Box::new(Vec::<Vec<M>>::new()))
            .downcast_mut::<Vec<Vec<M>>>()
            .expect("one message type per probe")
            .push(msgs.to_vec());
    }

    fn record_batch(&mut self, ns: u64, fam: [u64; 5], unknown: u64) {
        let total: u64 = fam.iter().sum::<u64>() + unknown;
        self.stack_ns += ns;
        self.msgs += total;
        self.unknown_msgs += unknown;
        if total == 0 {
            return;
        }
        for (f, &k) in fam.iter().enumerate() {
            self.family_msgs[f] += k;
            self.family_ns[f] += ns as f64 * k as f64 / total as f64;
        }
        if fam.iter().filter(|&&k| k > 0).count() + usize::from(unknown > 0) > 1 {
            self.mixed_ns += ns;
        }
    }
}

/// A pure forwarding wrapper: every call goes to the inner process
/// unchanged; the wrapper only times the stack calls, counts members per
/// family, and copies a deterministic sample of batches for the codec
/// replay. `repr(transparent)` lets [`TimedObserver`] hand the wrapped
/// table to an observer written for the inner process type.
#[repr(transparent)]
pub struct Traced<P>(pub P);

fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let prev = alloc::enter(Region::Stack);
    let start = Instant::now();
    let r = f();
    let ns = start.elapsed().as_nanos() as u64;
    alloc::leave(prev);
    (r, ns)
}

fn families<M: Kinded>(msgs: &[M]) -> ([u64; 5], u64) {
    let mut fam = [0u64; 5];
    let mut unknown = 0;
    for m in msgs {
        match family(m.kind()) {
            Some(f) => fam[f] += 1,
            None => unknown += 1,
        }
    }
    (fam, unknown)
}

impl<M, P> Process<M> for Traced<P>
where
    M: Clone + Kinded + 'static,
    P: Process<M>,
{
    fn on_start(&mut self, out: &mut Outbox<M>) {
        let ((), ns) = timed(|| self.0.on_start(out));
        PROBE.with(|p| p.borrow_mut().stack_ns += ns);
    }

    fn on_message(&mut self, from: Pid, msg: M, out: &mut Outbox<M>) {
        let (fam, unknown) = families(std::slice::from_ref(&msg));
        let ((), ns) = timed(|| self.0.on_message(from, msg, out));
        PROBE.with(|p| p.borrow_mut().record_batch(ns, fam, unknown));
    }

    fn on_batch(&mut self, from: Pid, msgs: &mut Vec<M>, out: &mut Outbox<M>) {
        let (fam, unknown) = families(msgs);
        PROBE.with(|p| p.borrow_mut().capture(msgs));
        let ((), ns) = timed(|| self.0.on_batch(from, msgs, out));
        PROBE.with(|p| p.borrow_mut().record_batch(ns, fam, unknown));
    }

    fn done(&self) -> bool {
        self.0.done()
    }

    fn down(&self) -> bool {
        self.0.down()
    }

    fn recoveries(&self) -> u64 {
        self.0.recoveries()
    }
}

/// Times an observer written for `P` over a table of [`Traced<P>`].
pub struct TimedObserver<O>(pub O);

impl<P, O: Observer<P>> Observer<Traced<P>> for TimedObserver<O> {
    fn after_event(&mut self, now: u64, events: u64, procs: &[Traced<P>]) -> ObserverStats {
        // SAFETY: `Traced<P>` is `repr(transparent)` over `P`, so a slice
        // of one has the layout of a slice of the other; the borrow is
        // shared and lives no longer than `procs`.
        let inner = unsafe { std::slice::from_raw_parts(procs.as_ptr().cast::<P>(), procs.len()) };
        let prev = alloc::enter(Region::Monitor);
        let start = Instant::now();
        let stats = self.0.after_event(now, events, inner);
        let ns = start.elapsed().as_nanos() as u64;
        alloc::leave(prev);
        PROBE.with(|p| {
            let mut p = p.borrow_mut();
            p.monitor_ns += ns;
            p.monitor_checks += stats.checks;
            p.monitor_violations += stats.violations;
        });
        stats
    }
}

/// Codec cost over a replayed sample, per message.
pub struct CodecStats {
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub frame_len_ns: f64,
    pub bytes_per_msg: f64,
}

/// Median nanoseconds per pass of `pass`, repeated for at least
/// `min_secs` (and at least three passes).
fn median_pass_ns(min_secs: f64, mut pass: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < 3 || start.elapsed().as_secs_f64() < min_secs {
        let t = Instant::now();
        pass();
        times.push(t.elapsed().as_nanos() as f64);
    }
    crate::stats::median(&times)
}

/// Checks the frame round trip on every sampled batch, then times the
/// three codec entry points over the whole sample.
///
/// # Errors
///
/// A batch whose decoded frame differs from it, whose encoding is not
/// `frame_len` bytes long, or which fails to decode.
pub fn codec_replay<M>(sample: &[Vec<M>], min_secs: f64) -> Result<CodecStats, String>
where
    M: FramedWire + PartialEq + Debug,
{
    let msgs: usize = sample.iter().map(Vec::len).sum();
    if msgs == 0 {
        return Err("codec replay: no batches were captured".into());
    }
    let mut frames = Vec::with_capacity(sample.len());
    for (i, batch) in sample.iter().enumerate() {
        let mut buf = Vec::new();
        encode_frame(batch, &mut buf);
        if buf.len() != frame_len(batch) {
            return Err(format!(
                "codec: batch {i} encodes to {} bytes but frame_len says {}",
                buf.len(),
                frame_len(batch)
            ));
        }
        let mut r = Reader::new(&buf);
        let back: Vec<M> =
            decode_frame(&mut r).map_err(|e| format!("codec: batch {i} fails to decode: {e:?}"))?;
        if &back != batch || r.remaining() != 0 {
            return Err(format!("codec: batch {i} does not survive the round trip"));
        }
        frames.push(buf);
    }
    let bytes: usize = frames.iter().map(Vec::len).sum();
    let per = |ns: f64| ns / msgs as f64;
    let share = min_secs / 3.0;
    let mut buf = Vec::with_capacity(frames.iter().map(Vec::len).max().unwrap_or(0));
    let encode_ns = median_pass_ns(share, || {
        for b in sample {
            buf.clear();
            encode_frame(black_box(b), &mut buf);
            black_box(&buf);
        }
    });
    let decode_ns = median_pass_ns(share, || {
        for f in &frames {
            let out: Vec<M> = decode_frame(&mut Reader::new(black_box(f))).expect("checked above");
            black_box(out);
        }
    });
    let frame_len_ns = median_pass_ns(share, || {
        for b in sample {
            black_box(frame_len(black_box(b)));
        }
    });
    Ok(CodecStats {
        encode_ns: per(encode_ns),
        decode_ns: per(decode_ns),
        frame_len_ns: per(frame_len_ns),
        bytes_per_msg: bytes as f64 / msgs as f64,
    })
}

/// Field-kernel cost at one degree, nanoseconds per call.
pub struct FieldStats {
    pub interpolate_ns: f64,
    pub interpolate_at_zero_ns: f64,
    pub batch_verify_ns: f64,
}

/// Times `Domain::interpolate`, `interpolate_at_zero` and the checked
/// batch verification (`interpolate_checked_at_zero` over an `n − t`
/// quorum) for a seeded degree-`t` polynomial on the `n = 3t + 1`
/// domain, after checking each returns the right answer.
///
/// # Errors
///
/// A kernel that does not recover the polynomial or its secret.
pub fn field_kernels(t: usize, seed: u64, min_secs: f64) -> Result<FieldStats, String> {
    let n = 3 * t + 1;
    let domain: Domain<Gf61> = Domain::new(n);
    let mut state = seed;
    let coeffs: Vec<Gf61> = (0..=t)
        .map(|_| Gf61::from_u64(crate::stats::splitmix(&mut state)))
        .collect();
    let poly = Poly::from_coeffs(coeffs);
    let secret = poly.constant_term();
    let at = |i: u64| (i, poly.eval_at_index(i));
    let pts: Vec<(u64, Gf61)> = (1..=t as u64 + 1).map(at).collect();
    let quorum: Vec<(u64, Gf61)> = (1..=(n - t) as u64).map(at).collect();
    if domain.interpolate(&pts).ok().as_ref() != Some(&poly)
        || domain.interpolate_at_zero(&pts) != Ok(secret)
        || domain.interpolate_checked_at_zero(&quorum, t) != Some(secret)
    {
        return Err(format!(
            "field: t = {t} kernels do not recover the polynomial"
        ));
    }
    let share = min_secs / 3.0;
    const CALLS: usize = 64;
    let per_call = |ns: f64| ns / CALLS as f64;
    let interpolate_ns = median_pass_ns(share, || {
        for _ in 0..CALLS {
            black_box(domain.interpolate(black_box(&pts)).expect("checked above"));
        }
    });
    let at_zero_ns = median_pass_ns(share, || {
        for _ in 0..CALLS {
            black_box(
                domain
                    .interpolate_at_zero(black_box(&pts))
                    .expect("checked above"),
            );
        }
    });
    let verify_ns = median_pass_ns(share, || {
        for _ in 0..CALLS {
            black_box(domain.interpolate_checked_at_zero(black_box(&quorum), t));
        }
    });
    Ok(FieldStats {
        interpolate_ns: per_call(interpolate_ns),
        interpolate_at_zero_ns: per_call(at_zero_ns),
        batch_verify_ns: per_call(verify_ns),
    })
}
