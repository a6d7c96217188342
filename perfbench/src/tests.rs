//! The benchmark's own contract: what it prints is what `BENCHMARK.json`
//! declares.

use super::*;

/// `(name, unit)` pairs of one section of `BENCHMARK.json`, read with
/// plain string scanning (the file is small and written by hand).
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section} is declared"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closed string");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn tables_match_benchmark_json() {
    assert_eq!(declared("end_to_end"), owned(&report::END_TO_END));
    assert_eq!(declared("per_layer"), owned(&report::PER_LAYER));
}

#[test]
fn render_prints_exactly_the_table() {
    let full = |traced: bool| Report {
        attempted: 1,
        failed: 0,
        errors: Vec::new(),
        metrics: report::table(traced)
            .iter()
            .map(|(n, _)| (*n, 1.5))
            .collect(),
    };
    let line = report::render(false, &full(false)).expect("complete report renders");
    for (name, unit) in report::END_TO_END {
        assert!(line.contains(&format!(
            "\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}"
        )));
    }
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));

    let mut missing = full(false);
    missing.metrics.pop();
    assert!(report::render(false, &missing).is_err());
    let mut extra = full(false);
    extra.metrics.push(("sim.events", 1.0));
    assert!(report::render(false, &extra).is_err());
    let mut nan = full(true);
    nan.metrics[0].1 = f64::NAN;
    assert!(report::render(true, &nan).is_err());
}

/// Both modes of a real (shortened) run print every declared metric.
#[test]
fn both_modes_print_every_declared_metric() {
    for (traced_mode, r) in [
        (false, untraced(Workload::ByzN4Sweep, 11, Plan::of(2, 60.0))),
        (true, traced(Workload::ByzN4Sweep, 11, Plan::of(2, 60.0))),
    ] {
        assert!(r.correct(), "failed {} errors {:?}", r.failed, r.errors);
        assert_eq!(r.attempted, 2);
        let line = report::render(traced_mode, &r).expect("every metric present");
        for (name, _) in report::table(traced_mode) {
            assert!(line.contains(&format!("\"{name}\":")), "{name} printed");
        }
    }
}

#[test]
fn arguments_parse_and_reject() {
    let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let a = parse_args(&args(
        "--workload socket_n4 --seed 9 --seconds 12 --trace 1",
    ))
    .unwrap();
    assert_eq!(a.workload, Some(Workload::SocketN4));
    assert_eq!((a.seed, a.seconds, a.traced), (9, 12.0, true));
    assert_eq!(parse_args(&args("--workload all")).unwrap().workload, None);
    assert!(parse_args(&args("--workload nope")).is_err());
    assert!(parse_args(&args("--workload scc_n7 --trace 2")).is_err());
    assert!(parse_args(&args("--seed 1")).is_err());
}
