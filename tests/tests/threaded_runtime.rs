//! Experiment E10's backbone: the same protocol state machines over real
//! threads, linked by channels or by real loopback TCP sockets
//! (OS-scheduler nondeterminism), must still reach agreement; protocol
//! outcomes are runtime-independent. The deterministic simulator is the
//! oracle: where an outcome is schedule-independent (unanimous inputs
//! pin the decision bit through validity), both links must reproduce it
//! bit-for-bit.

use std::time::Duration;

use sba::field::Gf61;
use sba::scenario::{PlanCoin, Zoo};
use sba::sim::threaded;
use sba::{run_plan, AbaConfig, AbaNode, AbaProcess, Params, Pid, RuntimeKind};

const WALL: Duration = Duration::from_secs(120);

/// Bare SCC agreement processes at n = 4, `input(i)` proposed by pid `i`,
/// run on the channel link.
fn run_scc_n4(seed: u64, input: impl Fn(u32) -> bool) -> Vec<AbaProcess<Gf61>> {
    let params = Params::new(4, 1).unwrap();
    let procs: Vec<AbaProcess<Gf61>> = (1..=4u32)
        .map(|i| {
            let config = AbaConfig::scc(params, seed ^ (u64::from(i) << 32));
            let node: AbaNode<Gf61> = AbaNode::new(Pid::new(i), config);
            AbaProcess::new(node, vec![(0, input(i))])
        })
        .collect();
    let (procs, stats) = threaded::run(procs, RuntimeKind::Threaded, WALL).unwrap();
    assert!(stats.all_done, "threaded run timed out: {stats:?}");
    procs
}

#[test]
fn threaded_agreement_n4() {
    let procs = run_scc_n4(5, |i| i % 2 == 0);
    let decisions: Vec<bool> = procs
        .iter()
        .map(|p| p.node().decision(0).expect("decided"))
        .collect();
    assert!(
        decisions.iter().all(|&d| d == decisions[0]),
        "threaded disagreement: {decisions:?}"
    );
}

#[test]
fn threaded_unanimous_validity() {
    for p in &run_scc_n4(9, |_| true) {
        assert_eq!(p.node().decision(0), Some(true));
    }
}

/// With unanimous inputs, validity pins the decided bit in *every*
/// schedule — so sim and system runs must decide identically, on both
/// links. (With split inputs the decided bit is schedule-dependent,
/// which is why the split-input tests below assert agreement only.)
#[test]
fn threaded_matches_sim_outcomes_across_zoo_n7() {
    // Scheduler-flavored scenarios: the oracle coin keeps runs short.
    // (CrashRecover is covered at n=4 below with the SCC coin — its
    // 500-delivery recovery window needs real coin traffic to elapse;
    // an oracle run goes quiet before the victim can come back.)
    let inputs: Vec<Option<bool>> = vec![Some(true); 7];
    for zoo in [Zoo::Benign, Zoo::HealedPartition, Zoo::Rushing] {
        let mut plan = zoo.plan(7, 2, 11);
        plan.coin = PlanCoin::Oracle { seed: 42 };

        let sim_report = plan.build_with_inputs(&inputs).run(60_000_000);
        assert!(sim_report.terminated, "{}: sim timed out", plan.name);
        assert!(sim_report.agreement(), "{}: sim disagreement", plan.name);
        let sim_bit = sim_report.decisions.iter().flatten().next().copied();
        assert_eq!(sim_bit, Some(true), "{}: validity pins true", plan.name);

        for kind in RuntimeKind::ALL {
            let what = format!("{} over {}", plan.name, kind.name());
            let report = run_plan(kind, &plan, &inputs, WALL).unwrap();
            assert!(report.stats.all_done, "{what}: timed out");
            assert!(report.ok(), "{what}: watch saw {:?}", report.violations);
            assert!(report.all_decided(), "{what}: not all decided");
            assert!(report.agreement(), "{what}: disagreement");
            for &p in &report.honest {
                assert_eq!(
                    report.decisions[(p.index() - 1) as usize],
                    sim_bit,
                    "{what}: decision diverges from sim for {p:?}"
                );
            }
            assert_eq!(report.stats.dropped, 0, "{what}: quiescent run drops");
            assert!(report.stats.batches > 0, "{what}: on_batch never ran");
        }
    }
}

/// A crash-recover process under the real SCC coin (its traffic volume
/// is what lets the 500-delivery outage elapse): the victim must come
/// back, catch up, and decide the same pinned bit in the sim and on
/// both links.
#[test]
fn threaded_crash_recover_matches_sim_n4() {
    let inputs: Vec<Option<bool>> = vec![Some(true); 4];
    let plan = Zoo::CrashRecover.plan(4, 1, 7);

    let sim_report = plan.build_with_inputs(&inputs).run(60_000_000);
    assert!(sim_report.terminated, "sim timed out");
    assert_eq!(
        sim_report.decisions.iter().flatten().count(),
        4,
        "the recovered process decides too"
    );
    assert!(sim_report.decisions.iter().all(|d| *d == Some(true)));

    for kind in RuntimeKind::ALL {
        let report = run_plan(kind, &plan, &inputs, WALL).unwrap();
        assert!(report.stats.all_done, "{kind:?} run timed out");
        assert!(report.ok(), "{kind:?}: watch saw {:?}", report.violations);
        assert_eq!(report.honest.len(), 4, "crash-recover stays honest");
        assert!(report.all_decided(), "{kind:?}");
        assert!(
            report.decisions.iter().all(|d| *d == Some(true)),
            "{kind:?}"
        );
    }
}

/// Split inputs: the decided bit is the OS scheduler's to pick, but
/// agreement and the live watch must hold regardless, on both links.
#[test]
fn threaded_split_inputs_agree_n7() {
    let inputs: Vec<Option<bool>> = (0..7).map(|i| Some(i % 2 == 0)).collect();
    let mut plan = Zoo::Benign.plan(7, 2, 13);
    plan.coin = PlanCoin::Oracle { seed: 7 };
    for kind in RuntimeKind::ALL {
        let report = run_plan(kind, &plan, &inputs, WALL).unwrap();
        assert!(report.stats.all_done, "{kind:?} run timed out");
        assert!(report.ok(), "{kind:?}: watch saw {:?}", report.violations);
        assert!(report.all_decided(), "{kind:?}");
        assert!(
            report.agreement(),
            "{kind:?} disagreement: {:?}",
            report.decisions
        );
    }
}

/// The full stack over real loopback TCP: frames encoded, shipped
/// through the kernel, decoded, delivered as batches — and the
/// protocol still decides with agreement.
#[test]
fn socket_runtime_reaches_agreement_n4() {
    let inputs: Vec<Option<bool>> = (0..4).map(|i| Some(i % 2 == 0)).collect();
    let mut plan = Zoo::Benign.plan(4, 1, 17);
    plan.coin = PlanCoin::Oracle { seed: 3 };
    let report = run_plan(RuntimeKind::Socket, &plan, &inputs, WALL).unwrap();
    assert!(report.stats.all_done, "socket run timed out");
    assert!(report.ok(), "watch saw {:?}", report.violations);
    assert!(report.all_decided());
    assert!(report.agreement(), "disagreement: {:?}", report.decisions);
    assert_eq!(report.stats.dropped, 0, "quiescent run drops nothing");
    assert!(report.stats.bytes > 0, "bytes crossed real sockets");
}

/// Unanimous inputs over sockets: validity pins the bit end-to-end.
#[test]
fn socket_unanimous_validity_n4() {
    let inputs: Vec<Option<bool>> = vec![Some(false); 4];
    let mut plan = Zoo::Benign.plan(4, 1, 19);
    plan.coin = PlanCoin::Oracle { seed: 5 };
    let report = run_plan(RuntimeKind::Socket, &plan, &inputs, WALL).unwrap();
    assert!(report.stats.all_done, "socket run timed out");
    assert!(report.ok(), "watch saw {:?}", report.violations);
    for &p in &report.honest {
        assert_eq!(report.decisions[(p.index() - 1) as usize], Some(false));
    }
}
