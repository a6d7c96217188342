//! The repository benchmark: closed-loop agreement workloads, their
//! end-to-end metrics, and a traced run that splits the cost by layer.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is 0
//! only if every check passed. See `README.md` beside this crate.

mod alloc;
mod calib;
mod report;
mod rusage;
mod stats;
mod trace;
mod workloads;

#[cfg(test)]
mod tests;

use std::fmt::Debug;
use std::process::ExitCode;
use std::time::Instant;

use sba::field::Gf61;
use sba::net::FramedWire;
use sba::svss::SvssMsg;

use calib::Clock;
use report::Report;
use stats::{mean, median, quantile};
use trace::FAMILIES;
use workloads::{Msg, Sample, TracedRun, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-up-only builds per simulator run, for a steady `setup_s` median.
const SETUP_REPS: usize = 25;
/// A run starts no new instance after this many times `--seconds`,
/// whatever its instance count says; on the reference host it never
/// gets there.
const OVERRUN: f64 = 2.0;
/// Nor after this many seconds (the run must end within 180 s).
const HARD_CAP_S: f64 = 120.0;
/// Seconds spent timing each of the codec replay and the field kernels.
const KERNEL_SECS: f64 = 0.6;

/// Parsed command line.
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        traced: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => parsed.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                parsed.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" {
        parsed.workload = Some(
            Workload::from_name(&workload).ok_or_else(|| format!("unknown workload {workload}"))?,
        );
    }
    Ok(parsed)
}

/// Whether a closed loop that has made `done` of its `count` instances
/// since `start` should start another. Only a host far slower than the
/// reference stops it early.
fn keep_going(start: Instant, done: usize, plan: Plan) -> bool {
    done == 0 || (done < plan.count && start.elapsed().as_secs_f64() <= plan.limit_s)
}

/// How many instances a run makes, and when it stops early.
#[derive(Clone, Copy)]
struct Plan {
    count: usize,
    limit_s: f64,
}

impl Plan {
    fn of(count: usize, seconds: f64) -> Plan {
        Plan {
            count,
            limit_s: (OVERRUN * seconds).min(HARD_CAP_S),
        }
    }
}

/// Counts the failed instances. A safety failure also becomes an error,
/// which makes the run incorrect; an instance that did not terminate is
/// a failed operation, reported but not an incorrect output.
fn count_failures(samples: &[Sample], errors: &mut Vec<String>) -> usize {
    let mut failed = 0;
    for s in samples {
        if !s.terminated {
            eprintln!("instance with seed {} did not terminate", s.seed);
        }
        if !s.failures.is_empty() {
            errors.push(format!("seed {}: {}", s.seed, s.failures.join("; ")));
        }
        failed += usize::from(!s.terminated || !s.failures.is_empty());
    }
    failed
}

/// Peak resident set of the workload, less the clock's probe buffer.
fn peak_rss_mb() -> f64 {
    rusage::peak_rss_mb() - calib::PROBE_BYTES as f64 / (1024.0 * 1024.0)
}

/// The untraced run: the end-to-end metrics.
fn untraced(w: Workload, seed: u64, plan: Plan) -> Report {
    let clock = &mut Clock::new();
    let mut setups: Vec<f64> = Vec::new();
    if w != Workload::SocketN4 {
        setups.extend((0..SETUP_REPS).map(|_| workloads::setup_only(clock, w, seed)));
    }
    let start = Instant::now();
    let mut samples: Vec<Sample> = Vec::new();
    while keep_going(start, samples.len(), plan) {
        let s = w.instance_seed(seed, samples.len());
        let sample = match w {
            Workload::SocketN4 => workloads::run_socket(clock, s).0,
            _ => workloads::run_sim(clock, w, s).0,
        };
        setups.push(sample.setup_s);
        samples.push(sample);
    }
    let of = |f: fn(&Sample) -> f64| samples.iter().map(f).collect::<Vec<f64>>();
    let run_ms: Vec<f64> = of(|s| s.run_s * 1e3);
    if samples.len() <= 10 {
        eprintln!("# {} run ms per instance: {run_ms:.1?}", w.name());
    }
    println!(
        "# {}: median wall {:.4} s as the host's clock read it, {:.2} s in all over \
         {:.2} s; probe median {:.0} ns (reference {:.0} ns)",
        w.name(),
        median(&of(|s| s.raw_wall_s)),
        of(|s| s.raw_wall_s).iter().sum::<f64>(),
        start.elapsed().as_secs_f64(),
        clock.probe_ns(),
        calib::REF_PROBE_NS
    );
    let ticks = of(|s| s.virtual_ticks as f64);
    let mut errors = Vec::new();
    Report {
        attempted: samples.len(),
        failed: count_failures(&samples, &mut errors),
        errors,
        metrics: vec![
            ("wall_s", median(&of(|s| s.setup_s + s.run_s))),
            ("cpu_s", median(&of(|s| s.cpu_s))),
            ("setup_s", median(&setups)),
            ("peak_rss_mb", peak_rss_mb()),
            ("decide_ms_p50", median(&run_ms)),
            ("decide_ms_p90", quantile(&run_ms, 0.9)),
            ("virtual_ticks_p50", median(&ticks)),
            ("virtual_ticks_p90", quantile(&ticks, 0.9)),
            ("messages", median(&of(|s| s.messages as f64))),
            ("bytes", median(&of(|s| s.bytes as f64))),
        ],
    }
}

/// Per-layer metrics of the simulator workloads, from traced pairs.
/// Times are in reference nanoseconds: each instance's raw wrapper
/// times scaled by its run's factor.
fn sim_layers(pairs: &[(Sample, TracedRun)], out: &mut Vec<(&'static str, f64)>) {
    let k = pairs.len() as f64;
    let sum = |f: &dyn Fn(&TracedRun) -> f64| pairs.iter().map(|(_, t)| f(t)).sum::<f64>();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let stack_ns = sum(&|t| t.probe.stack_ns as f64 * t.factor);
    let monitor_ns = sum(&|t| t.probe.monitor_ns as f64 * t.factor);
    let self_ns = sum(&|t| t.run_s * 1e9) - stack_ns - monitor_ns;
    let events = sum(&|t| t.outcome.metrics.events as f64);
    let batches = sum(&|t| t.outcome.metrics.batches_sent as f64);
    let sent = sum(&|t| t.outcome.metrics.messages_sent as f64);
    let handled = sum(&|t| t.probe.msgs as f64);
    let stack_allocs = sum(&|t| t.allocs[1] as f64);
    out.extend([
        ("sim.self_s", self_ns / 1e9 / k),
        ("sim.ns_per_event", ratio(self_ns, events)),
        ("sim.events", events / k),
        ("sim.batches", batches / k),
        ("sim.msgs_per_batch", ratio(sent, batches)),
        (
            "sim.peak_inflight_bytes",
            sum(&|t| t.outcome.metrics.inflight_peak_bytes as f64) / k,
        ),
        ("sim.allocs", sum(&|t| t.allocs[0] as f64) / k),
        ("stack.s", stack_ns / 1e9 / k),
        ("stack.ns_per_msg", ratio(stack_ns, handled)),
        ("stack.allocs", stack_allocs / k),
        ("stack.allocs_per_msg", ratio(stack_allocs, handled)),
        (
            "handle.mixed_batch_share",
            ratio(sum(&|t| t.probe.mixed_ns as f64 * t.factor), stack_ns),
        ),
        ("monitor.s", monitor_ns / 1e9 / k),
        (
            "monitor.checks",
            sum(&|t| t.probe.monitor_checks as f64) / k,
        ),
        (
            "monitor.ns_per_check",
            ratio(monitor_ns, sum(&|t| t.probe.monitor_checks as f64)),
        ),
    ]);
    const HANDLE: [&str; 5] = [
        "handle.rb.ns_per_msg",
        "handle.mw.ns_per_msg",
        "handle.svss.ns_per_msg",
        "handle.coin.ns_per_msg",
        "handle.aba.ns_per_msg",
    ];
    const MSGS: [&str; 5] = ["rb.msgs", "mw.msgs", "svss.msgs", "coin.msgs", "aba.msgs"];
    const BYTES: [&str; 5] = [
        "rb.bytes",
        "mw.bytes",
        "svss.bytes",
        "coin.bytes",
        "aba.bytes",
    ];
    for f in 0..FAMILIES.len() {
        let ns = sum(&|t| t.probe.family_ns[f] * t.factor);
        out.push((
            HANDLE[f],
            ratio(ns, sum(&|t| t.probe.family_msgs[f] as f64)),
        ));
        let totals =
            |t: &TracedRun| workloads::family_totals(&t.outcome.metrics).unwrap_or_default()[f];
        out.push((MSGS[f], sum(&|t| totals(t).0 as f64) / k));
        out.push((BYTES[f], sum(&|t| totals(t).1 as f64) / k));
    }
    let rounds: Vec<f64> = pairs
        .iter()
        .map(|(_, t)| f64::from(t.outcome.max_round))
        .collect();
    out.extend([
        ("aba.rounds_mean", mean(&rounds)),
        ("aba.rounds_max", rounds.iter().copied().fold(0.0, f64::max)),
        ("dmm.shun_pairs", sum(&|t| t.outcome.shun_pairs as f64) / k),
    ]);
    let untraced_s = mean(&pairs.iter().map(|(s, _)| s.run_s).collect::<Vec<_>>());
    let traced_s = mean(&pairs.iter().map(|(_, t)| t.run_s).collect::<Vec<_>>());
    out.extend([
        ("trace.overhead_s", traced_s - untraced_s),
        ("trace.untraced_run_s", untraced_s),
        ("trace.traced_run_s", traced_s),
    ]);
}

/// Replays the batches `t` captured through the codec.
fn replay<M>(t: &mut TracedRun) -> Result<(trace::CodecStats, usize), String>
where
    M: FramedWire + PartialEq + Debug + 'static,
{
    let sample: Vec<Vec<M>> = t.probe.take_sample();
    let stats = trace::codec_replay(&sample, KERNEL_SECS)?;
    Ok((stats, sample.iter().map(Vec::len).sum()))
}

/// The traced run: the per-layer metrics.
fn traced(w: Workload, seed: u64, plan: Plan) -> Report {
    let clock = &mut Clock::new();
    let mut metrics: Vec<(&'static str, f64)> = Vec::new();
    let mut errors = Vec::new();
    let start = Instant::now();
    let mut samples: Vec<Sample> = Vec::new();
    // Batches are captured for the codec replay from the first traced
    // instance: one batch in `every`.
    let every = match w {
        Workload::SccN7 | Workload::MwShareN96 => 997,
        Workload::ByzN4Sweep | Workload::SocketN4 => 5,
    };
    let mut codec = Err("codec replay: no traced instance ran".to_string());
    if w == Workload::SocketN4 {
        // The runtime layer, timed from outside through `run_plan`.
        let mut runs = Vec::new();
        while keep_going(start, runs.len(), plan) {
            let (s, stats) = workloads::run_socket(clock, w.instance_seed(seed, runs.len()));
            samples.push(s.clone());
            runs.push((s, stats));
        }
        let setup_ms: Vec<f64> = runs.iter().map(|(s, _)| s.setup_s * 1e3).collect();
        let total = |f: fn(&sba::sim::threaded::ThreadedStats) -> u64| {
            runs.iter()
                .filter_map(|(_, st)| st.as_ref())
                .map(f)
                .sum::<u64>() as f64
        };
        let msgs = total(|st| st.messages);
        metrics.extend([
            ("runtime.setup_ms", median(&setup_ms)),
            (
                "runtime.msgs_per_batch",
                msgs / total(|st| st.batches).max(1.0),
            ),
            (
                "runtime.bytes_per_msg",
                total(|st| st.bytes) / msgs.max(1.0),
            ),
            ("runtime.dropped", total(|st| st.dropped)),
            ("trace.instances", runs.len() as f64),
        ]);
        // The codec sample comes from this seed's plan in the simulator.
        let (s, mut t) = workloads::run_pair(clock, w, seed, every);
        codec = replay::<Msg>(&mut t);
        samples.push(s);
    } else {
        let mut pairs = Vec::new();
        while keep_going(start, pairs.len(), plan) {
            let rate = if pairs.is_empty() { every } else { 0 };
            let seed = w.instance_seed(seed, pairs.len());
            let (s, mut t) = workloads::run_pair(clock, w, seed, rate);
            if pairs.is_empty() {
                codec = if w == Workload::MwShareN96 {
                    replay::<SvssMsg<Gf61>>(&mut t)
                } else {
                    replay::<Msg>(&mut t)
                };
            }
            samples.push(s.clone());
            pairs.push((s, t));
        }
        sim_layers(&pairs, &mut metrics);
        metrics.push(("trace.instances", pairs.len() as f64));
    }

    match codec {
        Ok((c, sample_msgs)) => metrics.extend([
            ("codec.encode_ns_per_msg", c.encode_ns),
            ("codec.decode_ns_per_msg", c.decode_ns),
            ("codec.frame_len_ns_per_msg", c.frame_len_ns),
            ("codec.bytes_per_msg", c.bytes_per_msg),
            ("codec.sample_msgs", sample_msgs as f64),
        ]),
        Err(e) => errors.push(e),
    }
    let (interp, at_zero, verify) = match w.t() {
        1 => (
            "field.interpolate_ns.t1",
            "field.interpolate_at_zero_ns.t1",
            "field.batch_verify_ns.t1",
        ),
        2 => (
            "field.interpolate_ns.t2",
            "field.interpolate_at_zero_ns.t2",
            "field.batch_verify_ns.t2",
        ),
        _ => (
            "field.interpolate_ns.t31",
            "field.interpolate_at_zero_ns.t31",
            "field.batch_verify_ns.t31",
        ),
    };
    match trace::field_kernels(w.t(), seed, KERNEL_SECS) {
        Ok(f) => metrics.extend([
            (interp, f.interpolate_ns),
            (at_zero, f.interpolate_at_zero_ns),
            (verify, f.batch_verify_ns),
        ]),
        Err(e) => errors.push(e),
    }
    metrics.push(("host.probe_ns", clock.probe_ns()));
    // Layers this workload does not exercise read 0.
    for (name, _) in report::PER_LAYER {
        if !metrics.iter().any(|(k, _)| *k == name) {
            metrics.push((name, 0.0));
        }
    }
    Report {
        attempted: samples.len(),
        failed: count_failures(&samples, &mut errors),
        errors,
        metrics,
    }
}

/// Runs every workload, each in a child process of its own (so its peak
/// RSS is its own), relaying their output.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let child = std::process::Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .output();
        match child {
            Ok(out) => {
                print!("{}", String::from_utf8_lossy(&out.stdout));
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
                ok &= out.status.success();
            }
            Err(e) => {
                eprintln!("{}: cannot start: {e}", w.name());
                ok = false;
            }
        }
    }
    println!(
        "{{\"correct\": {ok}, \"workloads\": {}}}",
        Workload::ALL.len()
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let Some(w) = args.workload else {
        return run_all(&args);
    };
    let mut r = if args.traced {
        traced(
            w,
            args.seed,
            Plan::of(w.traced_instances(args.seconds), args.seconds),
        )
    } else {
        untraced(
            w,
            args.seed,
            Plan::of(w.instances(args.seconds), args.seconds),
        )
    };
    println!(
        "# {} seed={} trace={} instances={} failed={}",
        w.name(),
        args.seed,
        u8::from(args.traced),
        r.attempted,
        r.failed
    );
    for (name, unit) in report::table(args.traced) {
        if let Some((_, v)) = r.metrics.iter().find(|(k, _)| k == name) {
            println!("{}.{name} = {v} {unit}", w.name());
        }
    }
    let line = report::render(args.traced, &r).unwrap_or_else(|e| {
        r.errors.push(e);
        format!(
            "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
            r.attempted, r.failed
        )
    });
    for e in &r.errors {
        eprintln!("check failed: {e}");
    }
    println!("{line}");
    if r.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
