//! The four workloads, each a closed loop: one agreement (or one share
//! session) in flight at a time, the next started when the previous one
//! has been checked.
//!
//! Every instance has an untraced form, built through the public API a
//! user would call (`Cluster::new`, `ScenarioPlan::build_with_inputs`,
//! `run_plan`), and — for the simulator workloads — a traced form, the
//! same process table behind [`Traced`] wrappers in a `Simulation` built
//! here. [`Outcome`] is what both forms must agree on exactly.

use std::sync::Arc;
use std::time::Duration;

use sba::field::{Domain, Field, Gf61};
use sba::net::{MwId, Outbox, Pid};
use sba::sim::threaded::ThreadedStats;
use sba::sim::{schedulers, Metrics, Process, SimMsg, Simulation};
use sba::svss::SvssMsg;
use sba::{
    run_plan, AbaMsg, Cluster, ClusterProcess, ClusterReport, InvariantMonitor, Params, Role,
    RuntimeKind, ScenarioPlan, SvssEngine, SvssEvent, Zoo,
};

use crate::alloc;
use crate::calib::{Clock, Span};
use crate::trace::{self, family, Probe, TimedObserver, Traced};

/// The agreement stack's wire message.
pub type Msg = AbaMsg<Gf61>;

/// The seed of the two pinned schedules (`scc_n7`, `mw_share_n96`).
pub const PINNED_SEED: u64 = 15;
/// Messages of the pinned n = 7 agreement (the `scc_larger_system` pin).
pub const SCC_N7_MESSAGES: u64 = 8_049_900;
/// Event budget per agreement; every workload decides far below it.
const MAX_EVENTS: u64 = 60_000_000;
/// Event budget per share session.
const MW_MAX_EVENTS: u64 = 4_000_000_000;
/// Wall-clock limit of one socket agreement.
const SOCKET_LIMIT: Duration = Duration::from_secs(30);

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Full SCC agreement, n = 7, t = 2, split inputs, seed 15, in the sim.
    SccN7,
    /// One moderated MW-SVSS share session, n = 96, t = 31, seed 15.
    MwShareN96,
    /// n = 4 agreements with p4 lying about shares, one per seed.
    ByzN4Sweep,
    /// n = 4 benign agreements over loopback TCP, one per seed.
    SocketN4,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::SccN7,
        Workload::MwShareN96,
        Workload::ByzN4Sweep,
        Workload::SocketN4,
    ];

    /// The name the command line and the documents use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SccN7 => "scc_n7",
            Workload::MwShareN96 => "mw_share_n96",
            Workload::ByzN4Sweep => "byz_n4_sweep",
            Workload::SocketN4 => "socket_n4",
        }
    }

    /// Resolves a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The fault bound `t`: also the degree of the workload's field
    /// kernels.
    pub fn t(self) -> usize {
        match self {
            Workload::SccN7 => 2,
            Workload::MwShareN96 => 31,
            Workload::ByzN4Sweep | Workload::SocketN4 => 1,
        }
    }

    /// Wall seconds one untraced instance takes on the reference host
    /// under load, the clock's probes (and for `socket_n4` the sim twin)
    /// included. It turns `--seconds` into a fixed number of instances,
    /// so a seed names the same instances on any host.
    fn nominal_s(self) -> f64 {
        match self {
            Workload::SccN7 => 8.0,
            Workload::MwShareN96 => 7.0,
            Workload::ByzN4Sweep => 0.15,
            Workload::SocketN4 => 0.26,
        }
    }

    /// Instances an untraced run of `seconds` makes: as many as fit at
    /// the nominal cost, and at least one; the sweeps make at least 100,
    /// for a p90 with ten samples beyond it.
    pub fn instances(self, seconds: f64) -> usize {
        let min = match self {
            Workload::SccN7 | Workload::MwShareN96 => 1,
            Workload::ByzN4Sweep | Workload::SocketN4 => 100,
        };
        ((seconds / self.nominal_s()) as usize).max(min)
    }

    /// Instances a traced run of `seconds` makes. A traced simulator
    /// instance runs twice (untraced, then traced at about 1.1 times the
    /// cost), and the kernels take a few seconds of their own.
    pub fn traced_instances(self, seconds: f64) -> usize {
        let (cost, min) = match self {
            Workload::SccN7 | Workload::MwShareN96 => (2.1, 1),
            Workload::ByzN4Sweep => (2.1, 10),
            Workload::SocketN4 => (1.3, 10),
        };
        ((0.85 * seconds / (cost * self.nominal_s())) as usize).max(min)
    }

    /// Events per timed chunk of a simulator run, about 150 ms of
    /// work; the clock's probe runs between chunks. A `byz_n4_sweep`
    /// agreement is one chunk.
    fn chunk_events(self) -> u64 {
        match self {
            Workload::SccN7 => 2_000,
            Workload::MwShareN96 => 100_000,
            Workload::ByzN4Sweep | Workload::SocketN4 => u64::MAX,
        }
    }

    /// The seed of instance `i` of a run started with `seed`. The pinned
    /// workloads always run seed 15; the sweeps run consecutive seeds.
    pub fn instance_seed(self, seed: u64, i: usize) -> u64 {
        match self {
            Workload::SccN7 | Workload::MwShareN96 => PINNED_SEED,
            Workload::ByzN4Sweep | Workload::SocketN4 => seed.wrapping_add(i as u64),
        }
    }
}

/// One measured, checked instance. Times are in reference seconds (see
/// [`crate::calib`]).
#[derive(Clone, Debug, Default)]
pub struct Sample {
    /// The instance's seed.
    pub seed: u64,
    /// Building the instance: process tables, domains, simulator or
    /// socket mesh.
    pub setup_s: f64,
    /// Running it to the end (all honest processes halted or done).
    pub run_s: f64,
    /// Process CPU seconds over set-up and run.
    pub cpu_s: f64,
    /// Set-up and run wall time as the host's clock read it.
    pub raw_wall_s: f64,
    /// Messages sent (simulator: network sends; socket: every envelope).
    pub messages: u64,
    /// Framed bytes sent.
    pub bytes: u64,
    /// Simulated time until every honest process halted (socket: of the
    /// same plan in the simulator).
    pub virtual_ticks: u64,
    /// Whether it terminated (a liveness failure otherwise).
    pub terminated: bool,
    /// The safety checks it failed; empty if it passed them all.
    pub failures: Vec<String>,
}

/// Everything a traced and an untraced run of one simulator instance
/// must agree on, bit for bit.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// Whether every honest process halted (or completed its share).
    pub terminated: bool,
    /// Whether each process is honest.
    pub honest: Vec<bool>,
    /// Per-process decision (`None` for corrupted or undecided ones).
    pub decisions: Vec<Option<bool>>,
    /// The latest honest decision round.
    pub max_round: u32,
    /// `(shunner, shunned)` events seen by honest processes.
    pub shun_pairs: usize,
    /// The simulator's counters, per-kind breakdown included.
    pub metrics: Metrics,
    /// The run digest, where the untraced path enables it.
    pub digest: Option<u64>,
}

impl Outcome {
    fn of_report(report: &ClusterReport, cluster: &Cluster) -> Outcome {
        Outcome {
            terminated: report.terminated,
            honest: cluster
                .sim()
                .processes()
                .map(ClusterProcess::is_honest)
                .collect(),
            decisions: report.decisions.clone(),
            max_round: report.max_round,
            shun_pairs: report.shun_pairs.len(),
            metrics: report.metrics.clone(),
            digest: cluster.digest(),
        }
    }

    /// The same report [`Cluster::run`] derives, read off a wrapped table.
    fn of_traced(sim: &Simulation<Msg, Traced<ClusterProcess>>, terminated: bool) -> Outcome {
        let mut o = Outcome {
            terminated,
            honest: Vec::new(),
            decisions: Vec::new(),
            max_round: 0,
            shun_pairs: 0,
            metrics: sim.metrics().clone(),
            digest: sim.digest(),
        };
        for Traced(p) in sim.processes() {
            let honest = p.is_honest();
            o.honest.push(honest);
            let node = p.node().filter(|_| honest);
            o.decisions.push(node.and_then(|n| n.decision(0)));
            if let Some(r) = node.and_then(|n| n.decision_round(0)) {
                o.max_round = o.max_round.max(r);
            }
            if honest {
                let shuns = p.events().unwrap_or_default().iter();
                o.shun_pairs += shuns
                    .filter(|e| matches!(e, sba::AbaEvent::Shunned { .. }))
                    .count();
            }
        }
        o
    }

    fn of_share(metrics: &Metrics, terminated: bool) -> Outcome {
        Outcome {
            terminated,
            honest: Vec::new(),
            decisions: Vec::new(),
            max_round: 0,
            shun_pairs: 0,
            metrics: metrics.clone(),
            digest: None,
        }
    }
}

/// Per-family `(messages, bytes)` from `Metrics::per_kind_sorted`,
/// checked to sum exactly to the run's totals.
///
/// # Errors
///
/// A kind label outside every family, or sums that miss the totals.
pub fn family_totals(m: &Metrics) -> Result<[(u64, u64); 5], String> {
    let mut fam = [(0u64, 0u64); 5];
    for (kind, (msgs, bytes)) in m.per_kind_sorted() {
        let f = family(kind).ok_or_else(|| format!("kind {kind:?} belongs to no family"))?;
        fam[f].0 += msgs;
        fam[f].1 += bytes;
    }
    let msgs: u64 = fam.iter().map(|f| f.0).sum();
    let bytes: u64 = fam.iter().map(|f| f.1).sum();
    if (msgs, bytes) != (m.messages_sent, m.bytes_sent) {
        return Err(format!(
            "families sum to {msgs} messages / {bytes} bytes, the run sent {} / {}",
            m.messages_sent, m.bytes_sent
        ));
    }
    Ok(fam)
}

/// Whether the instance terminated: every honest process halted, and
/// in an agreement every honest process decided.
fn terminated(o: &Outcome) -> bool {
    o.terminated
        && o.decisions
            .iter()
            .zip(&o.honest)
            .all(|(d, &honest)| d.is_some() || !honest)
}

/// The safety checks of one simulated instance; termination is
/// [`terminated`]'s.
fn check(w: Workload, o: &Outcome, inputs: &[Option<bool>]) -> Vec<String> {
    let mut f = Vec::new();
    if let Err(e) = family_totals(&o.metrics) {
        f.push(e);
    }
    if o.metrics.monitor_violations != 0 {
        f.push(format!(
            "{} monitor violations",
            o.metrics.monitor_violations
        ));
    }
    if w == Workload::SccN7 && o.metrics.messages_sent != SCC_N7_MESSAGES {
        f.push(format!(
            "sent {} messages, the seed-15 pin is {SCC_N7_MESSAGES}",
            o.metrics.messages_sent
        ));
    }
    if w == Workload::MwShareN96 {
        return f;
    }
    let n = inputs.len();
    let t = w.t();
    let honest_inputs: Vec<bool> = (0..n)
        .filter(|&i| o.honest[i])
        .filter_map(|i| inputs[i])
        .collect();
    let mut decided = Vec::new();
    for i in (0..n).filter(|&i| o.honest[i]) {
        match o.decisions[i] {
            Some(d) if !honest_inputs.contains(&d) => {
                f.push(format!("validity: p{} decided {d}, no honest input", i + 1))
            }
            Some(d) => decided.push(d),
            None => {}
        }
    }
    if decided.windows(2).any(|w| w[0] != w[1]) {
        f.push("agreement: honest decisions differ".to_string());
    }
    if o.shun_pairs > t * (n - t) {
        f.push(format!(
            "{} shun pairs exceed t(n-t) = {}",
            o.shun_pairs,
            t * (n - t)
        ));
    }
    f
}

// ---------------------------------------------------------------------
// Instance construction
// ---------------------------------------------------------------------

/// The split-input vector: p1 proposes 1, p2 proposes 0, and so on.
pub fn split_inputs(n: usize) -> Vec<Option<bool>> {
    (0..n).map(|i| Some(i % 2 == 0)).collect()
}

/// The `byz_n4_sweep` plan for one seed: p4 forges every share it
/// reveals (offset 9), the invariant monitor rides every event.
pub fn byz_plan(seed: u64) -> ScenarioPlan {
    let mut plan = ScenarioPlan::new("byz_n4_sweep", 4, 1, seed);
    plan.roles
        .push((Pid::new(4), Role::LyingShares { delta: 9 }));
    plan.monitor = true;
    plan
}

/// The `socket_n4` plan and its unanimous inputs for one seed.
pub fn socket_plan(seed: u64) -> (ScenarioPlan, Vec<Option<bool>>) {
    (
        Zoo::Benign.plan(4, 1, seed),
        vec![Some(seed.is_multiple_of(2)); 4],
    )
}

/// One process of the share workload: an `SvssEngine` running a single
/// moderated MW-SVSS share session (dealer p1, moderator p2) — the
/// `experiments e13` unit workload.
struct MwShareProc {
    engine: SvssEngine<Gf61>,
    id: MwId,
    secret: Gf61,
    completed: bool,
}

impl MwShareProc {
    fn flush(&mut self, sends: Vec<(Pid, SvssMsg<Gf61>)>, out: &mut Outbox<SvssMsg<Gf61>>) {
        for (to, m) in sends {
            out.send(to, m);
        }
        for ev in self.engine.take_events() {
            if matches!(ev, SvssEvent::MwShareCompleted(i) if i == self.id) {
                self.completed = true;
            }
        }
    }
}

impl Process<SvssMsg<Gf61>> for MwShareProc {
    fn on_start(&mut self, out: &mut Outbox<SvssMsg<Gf61>>) {
        let mut sends = Vec::new();
        if self.engine.me() == self.id.dealer() {
            self.engine.mw_share(self.id, self.secret, &mut sends);
        }
        if self.engine.me() == self.id.moderator() {
            self.engine
                .mw_set_moderator_input(self.id, self.secret, &mut sends);
        }
        self.flush(sends, out);
    }

    fn on_message(&mut self, from: Pid, msg: SvssMsg<Gf61>, out: &mut Outbox<SvssMsg<Gf61>>) {
        self.on_batch(from, &mut vec![msg], out);
    }

    fn on_batch(
        &mut self,
        from: Pid,
        msgs: &mut Vec<SvssMsg<Gf61>>,
        out: &mut Outbox<SvssMsg<Gf61>>,
    ) {
        let mut sends = Vec::new();
        self.engine.on_batch(from, msgs, &mut sends);
        self.flush(sends, out);
    }

    fn done(&self) -> bool {
        self.completed
    }
}

/// The share workload's process table: n = 96, t = 31, one shared
/// domain (as `e13` builds it).
fn mw_procs() -> Vec<MwShareProc> {
    let n = 96;
    let params = Params::new(n, (n - 1) / 3).expect("n > 3t");
    let domain: Arc<Domain<Gf61>> = Arc::new(Domain::new(n));
    let id = MwId::standalone(1, Pid::new(1), Pid::new(2));
    Pid::all(n)
        .map(|p| MwShareProc {
            engine: SvssEngine::with_domain(
                p,
                params,
                PINNED_SEED ^ (u64::from(p.index()) << 32),
                Arc::clone(&domain),
            ),
            id,
            secret: Gf61::from_u64(7),
            completed: false,
        })
        .collect()
}

fn mw_sim<P: Process<SvssMsg<Gf61>>>(procs: Vec<P>) -> Simulation<SvssMsg<Gf61>, P> {
    Simulation::new(procs, schedulers::uniform(8), PINNED_SEED)
}

/// The agreement a simulator instance runs: the plan's core and
/// scheduler, its inputs, and whether the untraced path hashes a digest.
struct Agreement {
    plan: ScenarioPlan,
    inputs: Vec<Option<bool>>,
    digest: bool,
}

impl Agreement {
    fn of(w: Workload, seed: u64) -> Agreement {
        match w {
            Workload::SccN7 => Agreement {
                plan: ScenarioPlan::new("scc_n7", 7, 2, seed),
                inputs: split_inputs(7),
                digest: false,
            },
            Workload::ByzN4Sweep => Agreement {
                plan: byz_plan(seed),
                inputs: split_inputs(4),
                digest: true,
            },
            Workload::SocketN4 => {
                let (plan, inputs) = socket_plan(seed);
                Agreement {
                    plan,
                    inputs,
                    digest: true,
                }
            }
            Workload::MwShareN96 => unreachable!("the share workload is not an agreement"),
        }
    }

    /// Builds through the public API: `Cluster::new` for the pinned
    /// agreement (exactly `scc_larger_system`), the plan otherwise.
    fn build(&self) -> Cluster {
        if self.digest {
            self.plan.build_with_inputs(&self.inputs).into_cluster()
        } else {
            Cluster::new(self.plan.cluster_config(), &self.inputs)
        }
    }

    /// The same process table and scheduler behind [`Traced`] wrappers,
    /// the monitor behind a [`TimedObserver`].
    fn build_traced(&self) -> Simulation<Msg, Traced<ClusterProcess>> {
        let (procs, _) = self.plan.cluster_config().processes(&self.inputs);
        let scheduler = self.plan.layers[0].build();
        let mut sim = Simulation::new(
            procs.into_iter().map(Traced).collect(),
            scheduler,
            self.plan.seed,
        );
        if self.digest {
            sim.enable_digest();
        }
        if self.plan.monitor {
            let monitor = InvariantMonitor::new(self.inputs.clone());
            sim.set_observer(Box::new(TimedObserver(monitor)));
        }
        sim
    }
}

// ---------------------------------------------------------------------
// Running instances
// ---------------------------------------------------------------------

/// Runs `sim` to the end (every process done, quiescence, or
/// `max_events`) in timed chunks of `chunk` events.
fn run_chunked<M: SimMsg, P: Process<M>>(
    clock: &mut Clock,
    chunk: u64,
    sim: &mut Simulation<M, P>,
    max_events: u64,
) -> Span {
    let mut span = Span::default();
    let mut left = max_events;
    loop {
        let (s, o) = clock.time(|| sim.run_until_all_done(chunk.min(left)));
        span += s;
        left -= o.events;
        if o.all_done || o.quiescent || left == 0 {
            return span;
        }
    }
}

/// Builds one instance of `w` and drops it, timing only the build.
pub fn setup_only(clock: &mut Clock, w: Workload, seed: u64) -> f64 {
    let span = match w {
        Workload::MwShareN96 => clock.time(|| mw_sim(mw_procs())).0,
        _ => {
            let a = Agreement::of(w, seed);
            clock.time(|| a.build()).0
        }
    };
    span.wall_s
}

fn sample_of(seed: u64, setup: Span, run: Span, o: &Outcome, failures: Vec<String>) -> Sample {
    Sample {
        seed,
        setup_s: setup.wall_s,
        run_s: run.wall_s,
        cpu_s: setup.cpu_s + run.cpu_s,
        raw_wall_s: setup.raw_wall_s + run.raw_wall_s,
        messages: o.metrics.messages_sent,
        bytes: o.metrics.bytes_sent,
        virtual_ticks: o.metrics.virtual_time,
        terminated: terminated(o),
        failures,
    }
}

/// One untraced simulator instance and its outcome (for `socket_n4`,
/// its plan in the simulator). The run is timed in chunks; chunking
/// does not change the schedule, and `Cluster::run` makes the report.
pub fn run_sim(clock: &mut Clock, w: Workload, seed: u64) -> (Sample, Outcome) {
    let (setup, run, o, inputs) = match w {
        Workload::MwShareN96 => {
            let (setup, mut sim) = clock.time(|| mw_sim(mw_procs()));
            let run = run_chunked(clock, w.chunk_events(), &mut sim, MW_MAX_EVENTS);
            let o = Outcome::of_share(sim.metrics(), sim.all_done());
            (setup, run, o, Vec::new())
        }
        _ => {
            let a = Agreement::of(w, seed);
            let (setup, mut cluster) = clock.time(|| a.build());
            let run = run_chunked(clock, w.chunk_events(), cluster.sim_mut(), MAX_EVENTS);
            let o = Outcome::of_report(&cluster.run(0), &cluster);
            (setup, run, o, a.inputs)
        }
    };
    let failures = check(w, &o, &inputs);
    (sample_of(seed, setup, run, &o, failures), o)
}

/// One socket agreement through `run_plan`, plus its plan's run in the
/// simulator (the source of `virtual_ticks`, which a socket run lacks).
pub fn run_socket(clock: &mut Clock, seed: u64) -> (Sample, Option<ThreadedStats>) {
    let (plan, inputs) = socket_plan(seed);
    let (span, report) = clock.time(|| run_plan(RuntimeKind::Socket, &plan, &inputs, SOCKET_LIMIT));
    let mut failures = Vec::new();
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            failures.push(format!("socket set-up failed: {e}"));
            let sample = Sample {
                seed,
                failures,
                ..Sample::default()
            };
            return (sample, None);
        }
    };
    let stats = report.stats;
    let input = inputs[0];
    if !report.agreement() {
        failures.push("socket agreement broken".to_string());
    }
    if report.decisions.iter().flatten().any(|&d| Some(d) != input) {
        failures.push("socket validity broken: decided against unanimous input".to_string());
    }
    if !report.ok() {
        failures.push(format!(
            "{} decision-watch violations",
            report.violations_total
        ));
    }
    if stats.dropped > 0 {
        failures.push(format!("{} envelopes dropped", stats.dropped));
    }
    let (twin, _) = run_sim(clock, Workload::SocketN4, seed);
    failures.extend(twin.failures.iter().map(|e| format!("sim twin: {e}")));
    // `run_plan` reports its run time; the rest of its wall time is
    // set-up (process tables, mesh connect, joins).
    let raw_run_s = stats.elapsed.as_secs_f64().min(span.raw_wall_s);
    let k = span.factor();
    let sample = Sample {
        seed,
        setup_s: (span.raw_wall_s - raw_run_s) * k,
        run_s: raw_run_s * k,
        cpu_s: span.cpu_s,
        raw_wall_s: span.raw_wall_s,
        messages: stats.messages,
        bytes: stats.bytes,
        virtual_ticks: twin.virtual_ticks,
        terminated: stats.all_done && report.all_decided() && twin.terminated,
        failures,
    };
    (sample, Some(stats))
}

/// What one traced simulator instance measured.
pub struct TracedRun {
    /// Wall seconds of the traced run (set-up excluded), in reference
    /// seconds.
    pub run_s: f64,
    /// Reference seconds per raw second over the run: scales the
    /// probe's raw nanoseconds.
    pub factor: f64,
    /// The wrappers' probe.
    pub probe: Probe,
    /// Allocations during the run, by region.
    pub allocs: [u64; 3],
    /// The traced run's outcome.
    pub outcome: Outcome,
}

/// Runs `w`'s instance for `seed` untraced, then traced, and checks the
/// traced run reproduced the untraced one exactly. `sample_every` sets
/// the codec capture rate.
pub fn run_pair(
    clock: &mut Clock,
    w: Workload,
    seed: u64,
    sample_every: u64,
) -> (Sample, TracedRun) {
    let (mut sample, untraced) = run_sim(clock, w, seed);
    fn run<M: SimMsg, P: Process<M>>(
        clock: &mut Clock,
        w: Workload,
        sim: &mut Simulation<M, P>,
        max_events: u64,
        sample_every: u64,
    ) -> (Span, Probe, [u64; 3]) {
        trace::reset(sample_every);
        alloc::set_counting(true);
        let span = run_chunked(clock, w.chunk_events(), sim, max_events);
        let allocs = alloc::counts();
        alloc::set_counting(false);
        (span, trace::take(), allocs)
    }
    let (span, probe, allocs, outcome) = match w {
        Workload::MwShareN96 => {
            let mut sim = mw_sim(mw_procs().into_iter().map(Traced).collect());
            let (span, probe, allocs) = run(clock, w, &mut sim, MW_MAX_EVENTS, sample_every);
            let o = Outcome::of_share(sim.metrics(), sim.all_done());
            (span, probe, allocs, o)
        }
        _ => {
            let mut sim = Agreement::of(w, seed).build_traced();
            let (span, probe, allocs) = run(clock, w, &mut sim, MAX_EVENTS, sample_every);
            let o = Outcome::of_traced(&sim, sim.all_done());
            (span, probe, allocs, o)
        }
    };
    let traced = TracedRun {
        run_s: span.wall_s,
        factor: span.factor(),
        probe,
        allocs,
        outcome,
    };
    if traced.outcome != untraced {
        let (a, b) = (&untraced.metrics, &traced.outcome.metrics);
        sample.failures.push(format!(
            "traced run diverged: messages {} vs {}, bytes {} vs {}, ticks {} vs {}",
            a.messages_sent,
            b.messages_sent,
            a.bytes_sent,
            b.bytes_sent,
            a.virtual_time,
            b.virtual_time
        ));
    }
    if traced.probe.unknown_msgs != 0 {
        sample.failures.push(format!(
            "{} delivered messages belong to no family",
            traced.probe.unknown_msgs
        ));
    }
    if traced.probe.monitor_violations != 0 {
        sample.failures.push(format!(
            "{} monitor violations in the traced run",
            traced.probe.monitor_violations
        ));
    }
    (sample, traced)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sba::ClusterConfig;

    /// The wrapper-built simulation is the `Cluster::new` run: same
    /// decisions, messages, bytes, virtual time, per-kind counts.
    #[test]
    fn traced_simulation_equals_cluster_new() {
        for seed in [3, 4] {
            let inputs = split_inputs(4);
            let mut cluster = Cluster::new(ClusterConfig::new(4, 1).seed(seed), &inputs);
            let report = cluster.run(MAX_EVENTS);
            let expected = Outcome::of_report(&report, &cluster);

            let agreement = Agreement {
                plan: ScenarioPlan::new("equivalence", 4, 1, seed),
                inputs,
                digest: false,
            };
            let mut sim = agreement.build_traced();
            let done = sim.run_until_all_done(MAX_EVENTS).all_done;
            assert_eq!(Outcome::of_traced(&sim, done), expected, "seed {seed}");
            assert!(expected.terminated && expected.decisions.iter().all(Option::is_some));
        }
    }

    /// The seed argument fixes the sweep's seed list, and with it every
    /// instance's schedule.
    #[test]
    fn sweep_seed_list_is_deterministic() {
        let w = Workload::ByzN4Sweep;
        let seeds = |s| (0..5).map(|i| w.instance_seed(s, i)).collect::<Vec<_>>();
        assert_eq!(seeds(40), vec![40, 41, 42, 43, 44]);
        assert_eq!(seeds(40), seeds(40));
        let clock = &mut Clock::new();
        let (a, oa) = run_sim(clock, w, 41);
        let (b, ob) = run_sim(clock, w, 41);
        assert!(a.failures.is_empty(), "{:?}", a.failures);
        assert_eq!(oa, ob);
        assert!(oa.digest.is_some());
        assert_eq!((a.messages, a.bytes), (b.messages, b.bytes));
        let (_, oc) = run_sim(clock, w, 42);
        assert_ne!(oa.digest, oc.digest, "different seeds, different schedules");
        assert_eq!(Workload::SccN7.instance_seed(40, 3), PINNED_SEED);
    }

    /// A run cut into timed chunks is the run `Cluster::run` makes in
    /// one go, and its span is in reference seconds.
    #[test]
    fn chunked_run_equals_one_go() {
        let a = Agreement::of(Workload::ByzN4Sweep, 5);
        let mut whole = a.build();
        let expected = Outcome::of_report(&whole.run(MAX_EVENTS), &whole);
        let clock = &mut Clock::new();
        let mut chunked = a.build();
        let span = run_chunked(clock, 50, chunked.sim_mut(), MAX_EVENTS);
        assert_eq!(Outcome::of_report(&chunked.run(0), &chunked), expected);
        assert!(expected.terminated && expected.digest.is_some());
        assert!(span.wall_s > 0.0 && span.raw_wall_s > 0.0 && span.factor().is_finite());
    }

    /// `--seconds` fixes the instance count, whatever the host's speed.
    #[test]
    fn instance_counts_follow_seconds() {
        let counts = |s| Workload::ALL.map(|w| w.instances(s));
        assert_eq!(counts(25.0), [3, 3, 166, 100]);
        assert_eq!(counts(0.0), [1, 1, 100, 100]);
        assert!(Workload::ALL.iter().all(|w| w.traced_instances(25.0) >= 1));
    }

    /// A traced pair reproduces the untraced counts and passes every
    /// check, monitor included.
    #[test]
    fn traced_pair_matches_untraced() {
        let (sample, traced) = run_pair(&mut Clock::new(), Workload::ByzN4Sweep, 7, 5);
        assert!(sample.failures.is_empty(), "{:?}", sample.failures);
        assert_eq!(traced.outcome.metrics.messages_sent, sample.messages);
        assert!(traced.probe.monitor_checks > 0);
        assert!(traced.probe.msgs > 0 && traced.allocs[1] > 0);
    }

    #[test]
    fn family_totals_reject_unknown_kinds() {
        let mut m = Metrics::new();
        m.messages_sent = 1;
        m.bytes_sent = 3;
        m.per_kind.insert("rb/echo", (1, 3));
        assert_eq!(family_totals(&m).unwrap()[0], (1, 3));
        m.per_kind.insert("gossip/x", (1, 1));
        assert!(family_totals(&m).is_err());
    }
}
