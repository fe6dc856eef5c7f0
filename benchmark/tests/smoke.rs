//! Smoke-size self-test: every workload, traced and untraced, at a tiny
//! population passes its output checks and emits exactly the metrics
//! `BENCHMARK.json` names, each with a finite value.

use uli_benchmark::{run, Options, Workload};

/// `"name"` values of the entries in one top-level array of
/// `BENCHMARK.json`.
fn names(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits beside the benchmark directory");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closed string")].to_string())
        .collect()
}

fn check(workload: Workload, trace: bool) {
    let outcome = run(&Options {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        users: Some(300),
    });
    assert!(outcome.correct, "{workload:?} trace={trace}: checks failed");
    assert_eq!(outcome.failed, 0);
    assert!(outcome.attempted > 0);
    let got: Vec<String> = outcome.metrics.iter().map(|m| m.0.clone()).collect();
    let want = names(if trace { "per_layer" } else { "end_to_end" });
    assert_eq!(got, want, "{workload:?} trace={trace}: metric names");
    for (name, value, _) in &outcome.metrics {
        assert!(value.is_finite(), "{name} = {value}");
    }
    let line = outcome.to_json();
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
}

#[test]
fn deliver_smoke() {
    check(Workload::Deliver, false);
    check(Workload::Deliver, true);
}

#[test]
fn analyze_smoke() {
    check(Workload::Analyze, false);
    check(Workload::Analyze, true);
}

#[test]
fn serve_smoke() {
    check(Workload::Serve, false);
    check(Workload::Serve, true);
}
