//! Self-tests of the benchmark: every workload at a tiny budget, with
//! and without tracing, passes its output checks and emits exactly the
//! metrics `BENCHMARK.json` declares, with the declared units and
//! directions.

use acic_bench::json::Json;
use acic_perfbench::metrics::{result_line, Metric};
use acic_perfbench::{run, Params, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn list<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    match doc.get(key) {
        Some(Json::Arr(items)) => items,
        other => panic!("{key} is not a list: {other:?}"),
    }
}

fn field<'a>(item: &'a Json, key: &str) -> &'a str {
    item.get(key)
        .and_then(Json::str_val)
        .unwrap_or_else(|| panic!("missing {key} in {item:?}"))
}

/// Declared metrics of one section: name → (unit, better).
fn declared(doc: &Json, section: &str) -> BTreeMap<String, (String, String)> {
    list(doc, section)
        .iter()
        .map(|m| {
            (
                field(m, "name").to_string(),
                (field(m, "unit").to_string(), field(m, "better").to_string()),
            )
        })
        .collect()
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn check_emitted(metrics: &[Metric], want: &BTreeMap<String, (String, String)>, what: &str) {
    let mut seen = BTreeMap::new();
    for m in metrics {
        assert!(is_name(&m.name), "{what}: bad metric name {:?}", m.name);
        assert!(
            is_unit(m.unit),
            "{what}: bad unit {:?} of {}",
            m.unit,
            m.name
        );
        assert!(m.value.is_finite(), "{what}: {} = {}", m.name, m.value);
        let prior = seen.insert(
            m.name.clone(),
            (m.unit.to_string(), m.better.as_str().to_string()),
        );
        assert!(prior.is_none(), "{what}: {} emitted twice", m.name);
    }
    assert_eq!(
        &seen, want,
        "{what}: emitted metrics differ from BENCHMARK.json"
    );
}

#[test]
fn tiny_runs_pass_their_checks_and_emit_the_declared_metrics() {
    let doc = benchmark_json();
    let end_to_end = declared(&doc, "end_to_end");
    let per_layer = declared(&doc, "per_layer");
    // One scratch directory for the whole process: the trace store the
    // Runner replays from is configured once per process.
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-selftest");
    let _ = std::fs::remove_dir_all(&scratch);
    for workload in Workload::ALL {
        for trace in [false, true] {
            let what = format!("{} trace={trace}", workload.name());
            let p = Params {
                instructions: 300_000,
                ..Params::new(workload, 7, 0.0, trace, scratch.clone())
            };
            let outcome = run(&p).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert!(outcome.ledger.attempted > 0, "{what}: nothing attempted");
            assert_eq!(outcome.ledger.failures, Vec::<String>::new(), "{what}");
            let want = if trace { &per_layer } else { &end_to_end };
            check_emitted(&outcome.metrics, want, &what);
            let line = Json::parse(&result_line(&outcome.ledger, &outcome.metrics))
                .unwrap_or_else(|e| panic!("{what}: result line is not JSON: {e}"));
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)), "{what}");
            let Json::Obj(keys) = &line else {
                panic!("{what}: result line is not an object")
            };
            let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{what}"
            );
            if trace {
                assert!(!outcome.tracer.spans().is_empty(), "{what}: no spans");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn benchmark_json_declares_the_workloads_and_a_bounded_setup_time() {
    let doc = benchmark_json();
    let names: Vec<&str> = list(&doc, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
    for m in list(&doc, "end_to_end") {
        let bound = m.get("bound").and_then(Json::num).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
    }
    let setup = list(&doc, "end_to_end")
        .iter()
        .find(|m| field(m, "name") == "setup_s")
        .expect("setup_s declared");
    assert_eq!(
        (field(setup, "unit"), field(setup, "better")),
        ("s", "lower")
    );
    let max_bound = list(&doc, "end_to_end")
        .iter()
        .filter_map(|m| m.get("bound").and_then(Json::num))
        .fold(0.0, f64::max);
    assert_eq!(setup.get("bound").and_then(Json::num), Some(max_bound));
}
