//! System runtimes for the cluster: the same protocol stack a
//! [`Cluster`](crate::Cluster) simulates, run on OS threads over
//! channels or over real loopback TCP sockets ([`sba_sim::threaded`]),
//! with a live decision watch riding every delivery.
//!
//! The deterministic simulator stays the correctness *oracle*: it
//! explores adversarial schedules reproducibly and pins exact
//! message/byte gauges. These runtimes are the realism check — the OS
//! scheduler (and the kernel's socket machinery) supplies a schedule no
//! seed describes, and the protocol outcomes must still hold. A
//! [`ScenarioPlan`]'s runtime-independent core — `n`, `t`, seed, coin
//! construction, roles — carries over via
//! [`ScenarioPlan::cluster_config`]; its scheduler layers and timed
//! events are schedule concerns and do not (the OS *is* the scheduler
//! here).
//!
//! Safety is not only checked at the end: every process is wrapped in a
//! [`WatchedProcess`] that re-reads its decision state after each
//! delivered batch and folds it into a shared [`DecisionWatch`] — the
//! threaded counterpart of the simulator's
//! [`InvariantMonitor`](crate::InvariantMonitor) — so agreement-so-far,
//! decision stability, and validity violations are localized to the
//! batch that exposed them, even in a run that never terminates.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use sba_net::{Outbox, Pid};
pub use sba_sim::threaded::RuntimeKind;
use sba_sim::threaded::ThreadedStats;
use sba_sim::Process;

use crate::cluster::{ClusterProcess, Msg};
use crate::ScenarioPlan;

/// How many violations are kept verbatim; later ones are only counted
/// (a persistent violation re-fires on every subsequent batch).
const MAX_RECORDED: usize = 64;

/// One safety violation observed by the [`DecisionWatch`], localized to
/// the delivered batch that exposed it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WatchViolation {
    /// The watch's global batch counter when the violation was observed
    /// (there is no virtual time outside the simulator).
    pub at_batch: u64,
    /// Which invariant failed (`"agreement"`, `"decision-stability"`,
    /// `"validity"`).
    pub invariant: &'static str,
    /// Human-readable specifics (who, what values).
    pub detail: String,
}

struct WatchState {
    /// Honest-unanimous proposal, if the honest proposers all agree —
    /// validity then pins every honest decision to it.
    unanimous: Option<bool>,
    /// Whether pid `i+1` is honest (fixed at build: mid-run corruption
    /// is a simulator concern).
    honest: Vec<bool>,
    /// Last observed decision per process.
    decisions: Vec<Option<bool>>,
    batches: u64,
    checks: u64,
    violations_total: u64,
    violations: Vec<WatchViolation>,
}

/// The live safety net of a threaded or socket run: every
/// [`WatchedProcess`] reports its decision state here after each
/// delivered batch, and the watch re-checks the paper's safety
/// properties against the decisions reported so far:
///
/// - **agreement-so-far** — no two honest decisions differ;
/// - **decision stability** — a decision never changes once made;
/// - **validity** — if every honest proposer proposed the same bit, any
///   honest decision equals it.
///
/// (Shun-related invariants stay with the simulator's monitor: they
/// need the cross-process honest-set view only the simulator's
/// single-threaded event loop can read consistently.)
pub struct DecisionWatch {
    state: Mutex<WatchState>,
}

impl DecisionWatch {
    /// A watch over `inputs.len()` processes; `honest[i]` tells whether
    /// pid `i+1` runs the honest protocol (crash-recover counts).
    pub fn new(inputs: &[Option<bool>], honest: &[bool]) -> Self {
        assert_eq!(inputs.len(), honest.len());
        // Only honest proposers count toward unanimity; bystanders
        // (input None) never break it. No proposer at all means no pin.
        let mut unanimous: Option<Option<bool>> = None;
        for (i, input) in inputs.iter().enumerate() {
            if !honest[i] {
                continue;
            }
            if let Some(b) = *input {
                unanimous = match unanimous {
                    None => Some(Some(b)),
                    Some(Some(prev)) if prev == b => Some(Some(b)),
                    _ => Some(None),
                };
            }
        }
        DecisionWatch {
            state: Mutex::new(WatchState {
                unanimous: unanimous.flatten(),
                honest: honest.to_vec(),
                decisions: vec![None; inputs.len()],
                batches: 0,
                checks: 0,
                violations_total: 0,
                violations: Vec::new(),
            }),
        }
    }

    /// Records process `pid`'s current decision and re-checks the
    /// safety properties. Called by [`WatchedProcess`] after every
    /// delivered batch.
    pub fn observe(&self, pid: Pid, decision: Option<bool>) {
        let mut s = self.state.lock().expect("watch poisoned");
        s.batches += 1;
        let i = (pid.index() - 1) as usize;
        if !s.honest[i] {
            return;
        }
        s.checks += 3;
        let at_batch = s.batches;
        let prev = s.decisions[i];
        if let Some(p) = prev {
            if decision != Some(p) {
                record(
                    &mut s,
                    at_batch,
                    "decision-stability",
                    format!("{pid:?} decided {p} but now reports {decision:?}"),
                );
            }
        }
        if let Some(d) = decision {
            for j in 0..s.decisions.len() {
                if j != i && s.honest[j] && s.decisions[j] == Some(!d) {
                    record(
                        &mut s,
                        at_batch,
                        "agreement",
                        format!("{pid:?} decided {d} but pid {} decided {}", j + 1, !d),
                    );
                    break;
                }
            }
            if let Some(u) = s.unanimous {
                if d != u {
                    record(
                        &mut s,
                        at_batch,
                        "validity",
                        format!("{pid:?} decided {d} against unanimous proposal {u}"),
                    );
                }
            }
            s.decisions[i] = Some(d);
        }
    }

    /// The watch's findings: `(checks, violations_total, recorded)`.
    pub fn snapshot(&self) -> (u64, u64, Vec<WatchViolation>) {
        let s = self.state.lock().expect("watch poisoned");
        (s.checks, s.violations_total, s.violations.clone())
    }
}

fn record(s: &mut WatchState, at_batch: u64, invariant: &'static str, detail: String) {
    s.violations_total += 1;
    if s.violations.len() < MAX_RECORDED {
        s.violations.push(WatchViolation {
            at_batch,
            invariant,
            detail,
        });
    }
}

/// A [`ClusterProcess`] that reports its decision state to a shared
/// [`DecisionWatch`] after every delivered batch — the monitored unit
/// the system runtimes actually run.
pub struct WatchedProcess {
    pid: Pid,
    inner: ClusterProcess,
    watch: Arc<DecisionWatch>,
}

impl WatchedProcess {
    fn report(&self) {
        let decision = self.inner.node().and_then(|n| n.decision(0));
        self.watch.observe(self.pid, decision);
    }

    /// The wrapped cluster process.
    pub fn inner(&self) -> &ClusterProcess {
        &self.inner
    }
}

impl Process<Msg> for WatchedProcess {
    fn on_start(&mut self, out: &mut Outbox<Msg>) {
        self.inner.on_start(out);
        self.report();
    }
    fn on_message(&mut self, from: Pid, msg: Msg, out: &mut Outbox<Msg>) {
        self.inner.on_message(from, msg, out);
        self.report();
    }
    fn on_batch(&mut self, from: Pid, msgs: &mut Vec<Msg>, out: &mut Outbox<Msg>) {
        self.inner.on_batch(from, msgs, out);
        self.report();
    }
    fn done(&self) -> bool {
        self.inner.done()
    }
    fn down(&self) -> bool {
        self.inner.down()
    }
    fn recoveries(&self) -> u64 {
        self.inner.recoveries()
    }
}

/// Outcome of a threaded or socket cluster run.
#[derive(Clone, Debug)]
pub struct RuntimeReport {
    /// Which runtime produced this report.
    pub kind: RuntimeKind,
    /// Runtime statistics (messages, batches, bytes, drops, wall time).
    pub stats: ThreadedStats,
    /// Per-process decision (index `i` is pid `i+1`; `None` for
    /// corrupted and undecided processes).
    pub decisions: Vec<Option<bool>>,
    /// The honest pids.
    pub honest: Vec<Pid>,
    /// Safety evaluations the [`DecisionWatch`] performed.
    pub checks: u64,
    /// Total violations observed (including beyond the recording cap).
    pub violations_total: u64,
    /// The first recorded violations, verbatim.
    pub violations: Vec<WatchViolation>,
}

impl RuntimeReport {
    /// Whether every honest process decided.
    pub fn all_decided(&self) -> bool {
        self.honest
            .iter()
            .all(|p| self.decisions[(p.index() - 1) as usize].is_some())
    }

    /// Whether all honest decisions agree (vacuously true with none).
    pub fn agreement(&self) -> bool {
        let mut vals = self.decisions.iter().flatten();
        let Some(first) = vals.next() else {
            return true;
        };
        vals.all(|v| v == first)
    }

    /// Whether the watch saw no violation for the whole run.
    pub fn ok(&self) -> bool {
        self.violations_total == 0
    }
}

/// Runs a plan's cluster under a system runtime: the plan's
/// runtime-independent core ([`ScenarioPlan::cluster_config`]) builds
/// the process table, `kind` picks the transport, and the OS supplies
/// the schedule. Scheduler layers and timed events in the plan are
/// ignored (they describe simulated schedules). The run ends when every
/// process is done and all traffic has drained, or at `wall_limit`.
///
/// # Panics
///
/// Panics unless `n > 3t`, `inputs.len() == n`, the role table passes
/// [`ClusterConfig::processes`](crate::ClusterConfig::processes) — and,
/// for [`RuntimeKind::Socket`], `n >= 2`.
///
/// # Errors
///
/// Propagates socket setup errors ([`RuntimeKind::Socket`] only).
pub fn run_plan(
    kind: RuntimeKind,
    plan: &ScenarioPlan,
    inputs: &[Option<bool>],
    wall_limit: Duration,
) -> std::io::Result<RuntimeReport> {
    let config = plan.cluster_config();
    let (procs, _) = config.processes(inputs);
    let n = config.n();
    // The reporting-honest set: crash-recover processes count (they are
    // omission-faulted and expected to decide), Byzantine ones do not.
    let honest_flags: Vec<bool> = procs.iter().map(ClusterProcess::is_honest).collect();
    let honest: Vec<Pid> = honest_flags
        .iter()
        .enumerate()
        .filter(|(_, &h)| h)
        .map(|(k, _)| Pid::new(k as u32 + 1))
        .collect();
    let watch = Arc::new(DecisionWatch::new(inputs, &honest_flags));
    let watched: Vec<WatchedProcess> = procs
        .into_iter()
        .enumerate()
        .map(|(k, inner)| WatchedProcess {
            pid: Pid::new(k as u32 + 1),
            inner,
            watch: Arc::clone(&watch),
        })
        .collect();

    let (watched, stats) = sba_sim::threaded::run(watched, kind, wall_limit)?;

    let mut decisions = vec![None; n];
    for (k, w) in watched.iter().enumerate() {
        if w.inner.is_honest() {
            if let Some(node) = w.inner.node() {
                decisions[k] = node.decision(0);
            }
        }
    }
    let (checks, violations_total, violations) = watch.snapshot();
    Ok(RuntimeReport {
        kind,
        stats,
        decisions,
        honest,
        checks,
        violations_total,
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watch_flags_agreement_and_validity_breaks() {
        let watch = DecisionWatch::new(&[Some(true), Some(true), Some(true)], &[true, true, true]);
        watch.observe(Pid::new(1), Some(true));
        watch.observe(Pid::new(2), Some(false)); // breaks agreement AND validity
        let (checks, total, violations) = watch.snapshot();
        assert_eq!(checks, 6);
        assert_eq!(total, 2);
        assert!(violations.iter().any(|v| v.invariant == "agreement"));
        assert!(violations.iter().any(|v| v.invariant == "validity"));
    }

    #[test]
    fn watch_flags_decision_instability() {
        let watch = DecisionWatch::new(&[Some(true), Some(false)], &[true, true]);
        watch.observe(Pid::new(1), Some(true));
        watch.observe(Pid::new(1), None); // a decision may never regress
        let (_, total, violations) = watch.snapshot();
        assert_eq!(total, 1);
        assert_eq!(violations[0].invariant, "decision-stability");
    }

    #[test]
    fn watch_ignores_corrupted_processes_and_split_inputs() {
        // Split inputs: no unanimity pin. Pid 2 is corrupted: its
        // (nonsense) reports must not count.
        let watch = DecisionWatch::new(&[Some(true), Some(false)], &[true, false]);
        watch.observe(Pid::new(1), Some(true));
        watch.observe(Pid::new(2), Some(false));
        watch.observe(Pid::new(2), None);
        let (_, total, _) = watch.snapshot();
        assert_eq!(total, 0);
    }
}
