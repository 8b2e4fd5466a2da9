//! Runs every workload briefly, untraced and traced, at the default seed
//! and checks the result line against `BENCHMARK.json`: each named metric
//! is present with its unit, and every operation succeeded.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use serde_json::Value;

fn object(v: &Value) -> &BTreeMap<String, Value> {
    v.as_object()
        .unwrap_or_else(|| panic!("expected an object, got {v:?}"))
}

fn string(v: &Value) -> &str {
    match v {
        Value::String(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn array(v: &Value) -> &[Value] {
    match v {
        Value::Array(a) => a,
        other => panic!("expected an array, got {other:?}"),
    }
}

fn number(v: &Value) -> f64 {
    match v {
        Value::Number(n) => n.as_f64(),
        other => panic!("expected a number, got {other:?}"),
    }
}

/// `(name, unit)` of every metric the benchmark declares under `key`.
fn declared(spec: &Value, key: &str) -> Vec<(String, String)> {
    array(&object(spec)[key])
        .iter()
        .map(|m| {
            (
                string(&object(m)["name"]).to_string(),
                string(&object(m)["unit"]).to_string(),
            )
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> BTreeMap<String, Value> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seconds", "1", "--trace", trace])
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(last).expect("the last line is JSON");
    object(&result).clone()
}

#[test]
fn every_workload_reports_its_declared_metrics() {
    let spec_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec: Value =
        serde_json::from_str(&std::fs::read_to_string(spec_path).expect("BENCHMARK.json"))
            .expect("valid JSON");
    let e2e = declared(&spec, "end_to_end");
    let layers = declared(&spec, "per_layer");
    for w in array(&object(&spec)["workloads"]) {
        let workload = string(&object(w)["name"]);
        for (trace, names) in [("0", &e2e), ("1", &layers)] {
            let result = run(workload, trace);
            let keys: Vec<&str> = result.keys().map(String::as_str).collect();
            assert_eq!(
                keys,
                ["attempted", "correct", "failed", "metrics"],
                "{workload}"
            );
            assert_eq!(
                result["correct"],
                Value::Bool(true),
                "{workload} trace {trace}"
            );
            assert_eq!(number(&result["failed"]), 0.0, "{workload} trace {trace}");
            assert!(
                number(&result["attempted"]) >= 1.0,
                "{workload} trace {trace}"
            );
            let metrics = object(&result["metrics"]);
            assert_eq!(
                metrics.len(),
                names.len(),
                "{workload} trace {trace}: {:?}",
                metrics.keys()
            );
            for (name, unit) in names {
                let m = object(
                    metrics
                        .get(name)
                        .unwrap_or_else(|| panic!("{workload}: no {name}")),
                );
                assert_eq!(string(&m["unit"]), unit, "{workload}: unit of {name}");
                assert!(number(&m["value"]).is_finite(), "{workload}: {name}");
            }
            if trace == "0" {
                assert_eq!(
                    number(&object(&metrics["success_rate"])["value"]),
                    1.0,
                    "{workload}"
                );
            }
        }
    }
}
