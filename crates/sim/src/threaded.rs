//! The system runtime: one OS thread per process, over one of two links.
//!
//! The same [`Process`] state machines that run in the deterministic
//! simulator run here under OS-scheduler nondeterminism, as a realism
//! check (experiment E10): protocol outcomes must hold on both links.
//!
//! One worker loop serves both [`RuntimeKind`]s. Each destination's
//! messages from one `on_start` / [`Process::on_batch`] call leave as one
//! **frame**. On [`RuntimeKind::Threaded`] the frame goes into the peer's
//! channel. On [`RuntimeKind::Socket`] it is written with
//! [`tcp::write_frame`] (the canonical frame bytes the byte-complexity
//! experiments charge) onto a loopback TCP mesh, and per-peer reader
//! threads forward it into that same channel, so a slow consumer never
//! deadlocks the mesh. Self-sends always take the channel. Every frame
//! is charged `5 + frame_len` bytes, so [`ThreadedStats::bytes`] has one
//! unit on both links.
//!
//! Each thread drains its channel, groups the messages by sender
//! (per-sender FIFO preserved; interleaving across senders is a legal
//! asynchronous schedule), and hands each group to [`Process::on_batch`].
//!
//! Shutdown is by **quiescence detection**: a shared in-flight counter is
//! incremented per message before its frame leaves and decremented only
//! after the recipient has processed it and dispatched the consequences,
//! so `done == n && in_flight == 0` proves nothing is queued or
//! mid-delivery anywhere. At the wall-clock limit every undelivered
//! message is counted in [`ThreadedStats::dropped`] instead of vanishing.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use sba_net::tcp::{self, MeshEndpoint};
use sba_net::{frame_len, FramedWire, Outbox, Pid};

use crate::{Process, SimMsg};

/// How long a thread parks in `recv_timeout` before re-checking the
/// quiescence and deadline conditions.
const POLL: Duration = Duration::from_millis(1);

/// Which link carries frames between the worker threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuntimeKind {
    /// Crossbeam channels.
    Threaded,
    /// A full loopback TCP mesh ([`tcp::loopback_mesh`]).
    Socket,
}

impl RuntimeKind {
    /// Both links, in reporting order.
    pub const ALL: [RuntimeKind; 2] = [RuntimeKind::Threaded, RuntimeKind::Socket];

    /// The stable name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            RuntimeKind::Threaded => "threaded",
            RuntimeKind::Socket => "socket",
        }
    }
}

/// Statistics from a system-runtime run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadedStats {
    /// Messages moved between threads (including self-sends).
    pub messages: u64,
    /// Per-sender [`Process::on_batch`] deliveries.
    pub batches: u64,
    /// Framed bytes: `5 + frame_len` per frame on both links (on the
    /// socket link, exactly the bytes written).
    pub bytes: u64,
    /// Messages that were sent but never delivered: sends to an
    /// already-exited peer plus queue residue at the wall-clock limit.
    /// Always 0 for a run that ends in quiescence.
    pub dropped: u64,
    /// Whether every process reported done before the wall-clock limit.
    pub all_done: bool,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

/// The counters every worker thread shares; see the module docs for the
/// quiescence protocol they implement.
#[derive(Default)]
struct RunShared {
    /// Processes currently reporting [`Process::done`]. Maintained by
    /// *transition*: a thread adjusts it whenever its process's `done()`
    /// flips in either direction, so a crash-recover process that
    /// un-dones during its outage is subtracted back out instead of
    /// latching the counter high (and ending the run early).
    done: AtomicUsize,
    /// Messages sent but not yet fully processed by their recipient.
    in_flight: AtomicU64,
    messages: AtomicU64,
    batches: AtomicU64,
    bytes: AtomicU64,
    dropped: AtomicU64,
    /// Set once by whichever thread first observes quiescence or the
    /// deadline; every thread exits promptly once it is up.
    shutdown: AtomicBool,
}

impl RunShared {
    /// Syncs a process's `done()` into the shared counter by transition.
    fn sync_done(&self, was: &mut bool, now: bool) {
        if now != *was {
            if now {
                self.done.fetch_add(1, Ordering::SeqCst);
            } else {
                self.done.fetch_sub(1, Ordering::SeqCst);
            }
            *was = now;
        }
    }

    /// Whether the run is globally quiescent: every process done and no
    /// message queued or mid-delivery anywhere.
    fn quiescent(&self, n: usize) -> bool {
        self.done.load(Ordering::SeqCst) == n && self.in_flight.load(Ordering::SeqCst) == 0
    }

    /// Accounts `k` in-flight messages that will never be delivered.
    fn drop_messages(&self, k: u64) {
        self.in_flight.fetch_sub(k, Ordering::SeqCst);
        self.dropped.fetch_add(k, Ordering::Relaxed);
    }

    fn stats(&self, n: usize, elapsed: Duration) -> ThreadedStats {
        // Whatever is still marked in flight after every thread joined
        // was never delivered (stuck in a queue or a socket buffer when
        // the deadline hit); fold it into the dropped count so every
        // sent message is accounted either delivered or dropped.
        let residue = self.in_flight.swap(0, Ordering::SeqCst);
        ThreadedStats {
            messages: self.messages.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed) + residue,
            all_done: self.done.load(Ordering::SeqCst) == n,
            elapsed,
        }
    }
}

/// Reusable per-pid grouping buffers (first-appearance order, per-pid
/// FIFO preserved): incoming messages are grouped by sender, outgoing
/// ones by destination.
struct BatchBuckets<M> {
    buckets: Vec<Vec<M>>,
    order: Vec<usize>,
}

impl<M> BatchBuckets<M> {
    fn new(n: usize) -> Self {
        BatchBuckets {
            buckets: (0..n).map(|_| Vec::new()).collect(),
            order: Vec::with_capacity(n),
        }
    }

    fn push(&mut self, p: Pid, msg: M) {
        let idx = (p.index() - 1) as usize;
        if self.buckets[idx].is_empty() {
            self.order.push(idx);
        }
        self.buckets[idx].push(msg);
    }

    /// Hands every staged group to `deliver(p, msgs)`, clearing the
    /// buckets (capacity retained unless `deliver` takes the vector).
    fn deliver(&mut self, mut deliver: impl FnMut(Pid, &mut Vec<M>)) {
        for &idx in &self.order {
            deliver(Pid::new(idx as u32 + 1), &mut self.buckets[idx]);
            self.buckets[idx].clear();
        }
        self.order.clear();
    }
}

/// One frame in a channel: its sender and its messages.
type Frame<M> = (Pid, Vec<M>);

/// One process's sending side: its links to every peer and the buffers
/// reused across every flush.
struct Link<M> {
    me: Pid,
    /// Every process's channel, indexed by pid − 1.
    channels: Vec<Sender<Frame<M>>>,
    /// The mesh endpoint on the socket link; `None` on the channel link.
    mesh: Option<MeshEndpoint>,
    out: Outbox<M>,
    outgoing: BatchBuckets<M>,
    scratch: Vec<u8>,
    shared: Arc<RunShared>,
}

impl<M: SimMsg + FramedWire> Link<M> {
    /// Drains the outbox: each destination's messages leave as one frame,
    /// counted in flight *before* it is visible to the receiver, so
    /// `in_flight == 0` proves global quiescence.
    fn flush(&mut self) {
        let Link {
            me,
            channels,
            mesh,
            out,
            outgoing,
            scratch,
            shared,
        } = self;
        for env in out.drain_iter() {
            shared.messages.fetch_add(1, Ordering::Relaxed);
            outgoing.push(env.to, env.msg);
        }
        outgoing.deliver(|to, msgs| {
            let k = msgs.len() as u64;
            shared.in_flight.fetch_add(k, Ordering::SeqCst);
            let sent = match mesh {
                Some(endpoint) if to != *me => {
                    tcp::write_frame(&mut endpoint.stream(to), *me, msgs, scratch)
                        .ok()
                        .map(|bytes| bytes as u64)
                }
                _ => {
                    let bytes = (5 + frame_len(msgs)) as u64;
                    let channel = &channels[(to.index() - 1) as usize];
                    channel
                        .send((*me, std::mem::take(msgs)))
                        .ok()
                        .map(|()| bytes)
                }
            };
            match sent {
                Some(bytes) => {
                    shared.bytes.fetch_add(bytes, Ordering::Relaxed);
                }
                // The peer is gone (deadline teardown): account the loss.
                None => shared.drop_messages(k),
            }
        });
    }
}

/// Runs each process on its own thread over the `kind` link until all
/// report [`Process::done`] **and** every in-flight message has been
/// drained, or `wall_limit` elapses; returns the processes (for output
/// inspection) and run statistics.
///
/// Unlike the simulator this is *not* deterministic — that is the point.
///
/// # Panics
///
/// Panics if `procs` is empty, or for [`RuntimeKind::Socket`] unless
/// `2 <= procs.len() <= MAX_N` (a mesh needs two endpoints).
///
/// # Errors
///
/// Propagates socket errors from mesh construction. Errors on an
/// established stream during the run are not fatal: the affected
/// messages are counted in [`ThreadedStats::dropped`].
pub fn run<M, P>(
    procs: Vec<P>,
    kind: RuntimeKind,
    wall_limit: Duration,
) -> io::Result<(Vec<P>, ThreadedStats)>
where
    M: SimMsg + FramedWire,
    P: Process<M> + 'static,
{
    let n = procs.len();
    assert!(n > 0, "the system runtime needs at least one process");
    let mut mesh = match kind {
        RuntimeKind::Threaded => None,
        RuntimeKind::Socket => Some(tcp::loopback_mesh(n)?.into_iter()),
    };
    let (channels, receivers): (Vec<_>, Vec<_>) = (0..n).map(|_| unbounded()).unzip();
    let shared = Arc::new(RunShared::default());
    let started = Instant::now();
    let deadline = started + wall_limit;

    let handles: Vec<_> = procs
        .into_iter()
        .zip(receivers)
        .zip(Pid::all(n))
        .map(|((proc_, rx), me)| {
            let link = Link {
                me,
                channels: channels.clone(),
                mesh: mesh.as_mut().and_then(Iterator::next),
                out: Outbox::new(me),
                outgoing: BatchBuckets::new(n),
                scratch: Vec::new(),
                shared: Arc::clone(&shared),
            };
            std::thread::spawn(move || worker(proc_, rx, link, deadline))
        })
        .collect();

    let procs: Vec<P> = handles
        .into_iter()
        .map(|h| h.join().expect("process thread panicked"))
        .collect();
    Ok((procs, shared.stats(n, started.elapsed())))
}

fn worker<M, P>(mut proc_: P, rx: Receiver<Frame<M>>, mut link: Link<M>, deadline: Instant) -> P
where
    M: SimMsg + FramedWire,
    P: Process<M>,
{
    let n = link.channels.len();
    let shared = Arc::clone(&link.shared);
    // Socket link: one reader thread per peer stream decodes frames into
    // this worker's channel. A reader exits on clean EOF (the peer shut
    // down at a frame boundary) or any stream error (teardown).
    let readers: Vec<_> = link
        .mesh
        .iter()
        .flat_map(|endpoint| endpoint.clone_streams().expect("stream clone failed"))
        .flatten()
        .map(|mut stream| {
            let inbox = link.channels[(link.me.index() - 1) as usize].clone();
            std::thread::spawn(move || {
                while let Ok(Some(frame)) = tcp::read_frame::<M>(&mut stream) {
                    if inbox.send(frame).is_err() {
                        break;
                    }
                }
            })
        })
        .collect();
    let mut inbox = BatchBuckets::new(n);
    let mut was_done = false;

    proc_.on_start(&mut link.out);
    link.flush();
    shared.sync_done(&mut was_done, proc_.done());

    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        if shared.quiescent(n) || Instant::now() >= deadline {
            shared.shutdown.store(true, Ordering::SeqCst);
            break;
        }
        match rx.recv_timeout(POLL) {
            Ok(first) => {
                let mut drained = 0u64;
                let rest = std::iter::from_fn(|| rx.try_recv().ok());
                for (from, msgs) in std::iter::once(first).chain(rest) {
                    drained += msgs.len() as u64;
                    for m in msgs {
                        inbox.push(from, m);
                    }
                }
                inbox.deliver(|from, msgs| {
                    shared.batches.fetch_add(1, Ordering::Relaxed);
                    proc_.on_batch(from, msgs, &mut link.out);
                    link.flush();
                });
                shared.sync_done(&mut was_done, proc_.done());
                // Only now are the drained messages fully consumed:
                // their consequences are already counted in flight, so
                // the counter can never dip to 0 with work pending.
                shared.in_flight.fetch_sub(drained, Ordering::SeqCst);
            }
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }

    // Teardown: close every stream (wakes this endpoint's readers with
    // EOF *and* errors out any peer still writing to us), join the
    // readers, then account whatever is still queued here — nothing,
    // when shutdown came from quiescence.
    if let Some(endpoint) = &link.mesh {
        endpoint.shutdown_all();
    }
    for r in readers {
        let _ = r.join();
    }
    let residue: u64 = std::iter::from_fn(|| rx.try_recv().ok())
        .map(|(_, msgs)| msgs.len() as u64)
        .sum();
    shared.drop_messages(residue);
    proc_
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the processes `make` builds over each link in turn.
    fn on_both_links<P: Process<u64> + 'static>(
        make: impl Fn(Pid) -> P,
        n: usize,
        wall: Duration,
    ) -> impl Iterator<Item = (RuntimeKind, Vec<P>, ThreadedStats)> {
        RuntimeKind::ALL.into_iter().map(move |kind| {
            let (procs, stats) = run(Pid::all(n).map(&make).collect(), kind, wall).unwrap();
            (kind, procs, stats)
        })
    }

    const WALL: Duration = Duration::from_secs(10);

    /// Every process greets every other; done after hearing from all.
    struct Greeter {
        n: usize,
        heard: std::collections::BTreeSet<Pid>,
        batches_seen: u64,
    }

    impl Process<u64> for Greeter {
        fn on_start(&mut self, out: &mut Outbox<u64>) {
            let me = out.me();
            for p in Pid::all(self.n).filter(|&p| p != me) {
                out.send(p, u64::from(me.index()));
            }
        }
        fn on_message(&mut self, from: Pid, _msg: u64, _out: &mut Outbox<u64>) {
            self.heard.insert(from);
        }
        fn on_batch(&mut self, from: Pid, msgs: &mut Vec<u64>, out: &mut Outbox<u64>) {
            self.batches_seen += 1;
            for msg in msgs.drain(..) {
                self.on_message(from, msg, out);
            }
        }
        fn done(&self) -> bool {
            self.heard.len() == self.n - 1
        }
    }

    fn greeters_finish_on(kind: RuntimeKind) {
        let n = 5;
        let make = |_| Greeter {
            n,
            heard: Default::default(),
            batches_seen: 0,
        };
        let (procs, stats) = run(Pid::all(n).map(make).collect(), kind, WALL).unwrap();
        assert!(stats.all_done, "{kind:?} did not finish: {stats:?}");
        assert!(procs.iter().all(|p| p.done()));
        assert_eq!(stats.messages, (n * (n - 1)) as u64);
        // Every greeting is its own frame on both links: 4-byte
        // length + pid byte + 4-byte member count + one 8-byte u64.
        assert_eq!(stats.bytes, stats.messages * (4 + 1 + 4 + 8), "{kind:?}");
        assert_eq!(stats.dropped, 0, "{kind:?}: quiescent run drops nothing");
        // Deliveries arrive via on_batch, and batches can't outnumber
        // messages.
        let batches: u64 = procs.iter().map(|p| p.batches_seen).sum();
        assert_eq!(batches, stats.batches);
        assert!(batches >= 1 && batches <= stats.messages);
    }

    #[test]
    fn all_greeters_finish() {
        greeters_finish_on(RuntimeKind::Threaded);
    }

    #[test]
    fn greeters_finish_over_real_sockets() {
        greeters_finish_on(RuntimeKind::Socket);
    }

    fn wall_limit_terminates_stuck_runs_on(kind: RuntimeKind) {
        /// Never done, never sends: the run must end by the wall limit.
        struct Stuck;
        impl Process<u64> for Stuck {
            fn on_start(&mut self, _out: &mut Outbox<u64>) {}
            fn on_message(&mut self, _from: Pid, _msg: u64, _out: &mut Outbox<u64>) {}
        }
        let started = Instant::now();
        let (_, stats) = run(vec![Stuck, Stuck], kind, Duration::from_millis(100)).unwrap();
        assert!(!stats.all_done, "{kind:?}");
        assert!(started.elapsed() < Duration::from_secs(5), "{kind:?}");
    }

    #[test]
    fn wall_limit_terminates_stuck_runs() {
        wall_limit_terminates_stuck_runs_on(RuntimeKind::Threaded);
    }

    #[test]
    fn wall_limit_terminates_stuck_socket_runs() {
        wall_limit_terminates_stuck_runs_on(RuntimeKind::Socket);
    }

    /// p2 is done at start, un-dones at the first poke, and re-dones at
    /// the second — the crash-recover shape that used to leave a latched
    /// done counter permanently overcounted. p2 acks the first poke and
    /// p1 sends the second only on that ack, so p2 is seen un-done
    /// between two deliveries.
    struct Flicker {
        pokes: u64,
    }

    impl Process<u64> for Flicker {
        fn on_start(&mut self, out: &mut Outbox<u64>) {
            if out.me() == Pid::new(1) {
                out.send(Pid::new(2), 1);
            }
        }
        fn on_message(&mut self, from: Pid, _msg: u64, out: &mut Outbox<u64>) {
            if out.me() == Pid::new(1) {
                out.send(from, 2);
                return;
            }
            self.pokes += 1;
            if self.pokes == 1 {
                out.send(from, 0);
            }
        }
        fn done(&self) -> bool {
            // Done at 0 pokes (start), not-done at 1, done again at 2.
            self.pokes != 1
        }
    }

    #[test]
    fn done_regression_is_subtracted_not_latched() {
        for (kind, procs, stats) in on_both_links(|_| Flicker { pokes: 0 }, 2, WALL) {
            assert!(
                stats.all_done,
                "{kind:?}: run must wait out the un-done window"
            );
            assert_eq!(procs[1].pokes, 2, "{kind:?}: both pokes delivered");
            assert_eq!((stats.messages, stats.dropped), (3, 0), "{kind:?}");
        }
    }

    /// In-flight traffic at the moment everyone reports done must still
    /// be drained (delivered or counted), never silently lost.
    struct ChattyDone {
        n: usize,
        received: u64,
    }

    impl Process<u64> for ChattyDone {
        fn on_start(&mut self, out: &mut Outbox<u64>) {
            // A storm of sends to everyone, but done() is true from the
            // start: a runtime that raced teardown would lose these.
            let me = out.me();
            for round in 0..50u64 {
                for p in Pid::all(self.n).filter(|&p| p != me) {
                    out.send(p, round);
                }
            }
        }
        fn on_message(&mut self, _from: Pid, _msg: u64, _out: &mut Outbox<u64>) {
            self.received += 1;
        }
        fn done(&self) -> bool {
            true
        }
    }

    #[test]
    fn in_flight_messages_drain_before_join() {
        let n = 4;
        let make = |_| ChattyDone { n, received: 0 };
        for (kind, procs, stats) in on_both_links(make, n, WALL) {
            assert!(stats.all_done, "{kind:?}");
            assert_eq!(stats.dropped, 0, "{kind:?}: no message may be lost");
            let received: u64 = procs.iter().map(|p| p.received).sum();
            assert_eq!(received, stats.messages, "{kind:?}: every send delivered");
            assert_eq!(stats.messages, 50 * (n * (n - 1)) as u64);
        }
    }

    /// Echoes every received value back once; pid 1 seeds a broadcast
    /// that includes itself, exercising the self-send channel path.
    struct EchoOnce {
        me: Pid,
        n: usize,
        received: u64,
    }

    impl Process<u64> for EchoOnce {
        fn on_start(&mut self, out: &mut Outbox<u64>) {
            if self.me == Pid::new(1) {
                out.broadcast(Pid::all(self.n), 7);
            }
        }
        fn on_message(&mut self, from: Pid, msg: u64, out: &mut Outbox<u64>) {
            self.received += 1;
            if from == Pid::new(1) && self.me != Pid::new(1) {
                out.send(from, msg + 1);
            }
        }
        fn done(&self) -> bool {
            let expected = if self.me == Pid::new(1) { self.n } else { 1 };
            self.received == expected as u64
        }
    }

    #[test]
    fn self_sends_ride_the_loopback_channel() {
        let n = 4;
        let make = |me| EchoOnce { me, n, received: 0 };
        for (kind, procs, stats) in on_both_links(make, n, WALL) {
            assert!(stats.all_done, "{kind:?}: echo did not finish: {stats:?}");
            // n broadcast deliveries (incl. self) + n-1 echoes back.
            assert_eq!(stats.messages, (2 * n - 1) as u64, "{kind:?}");
            assert_eq!(stats.dropped, 0, "{kind:?}");
            assert_eq!(procs[0].received, n as u64, "{kind:?}");
        }
    }
}
