//! Runs every workload in `--smoke` mode, untraced and traced, and
//! checks the result line against `BENCHMARK.json`: every metric it
//! names is emitted with its unit and a finite value, and nothing
//! failed. An API change that breaks the benchmark fails here.

use std::process::Command;

use symbol_obs::json::{self, Value};

fn spec() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

/// `(name, unit)` of every metric listed under `key`.
fn metrics(spec: &Value, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f| {
                m.get(f)
                    .and_then(Value::as_str)
                    .expect("metric field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_workload_emits_every_metric_without_failures() {
    let spec = spec();
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workload list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("workload name")
                .to_string()
        })
        .collect();
    assert_eq!(
        workloads,
        ["tables", "sweep", "serve_short", "serve_long"],
        "workload set"
    );
    for workload in &workloads {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", workload, "--seed", "7", "--seconds", "0"])
                .args(["--trace", trace, "--smoke", "--out"])
                .arg(env!("CARGO_TARGET_TMPDIR"))
                .output()
                .expect("perfbench runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace={trace}: {}\n{stdout}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result = json::parse(last).expect("the result line is JSON");
            let field = |f| result.get(f).unwrap_or_else(|| panic!("{f} in {last}"));
            assert_eq!(field("correct"), &Value::Bool(true), "{last}");
            assert_eq!(field("failed").as_u64(), Some(0), "{last}");
            assert!(field("attempted").as_u64() >= Some(1), "{last}");
            let emitted = field("metrics").as_obj().expect("metrics object");
            let expected = metrics(&spec, key);
            assert_eq!(emitted.len(), expected.len(), "{workload} {key}: {last}");
            for (name, unit) in expected {
                let m = field("metrics")
                    .get(&name)
                    .unwrap_or_else(|| panic!("{workload} trace={trace} lacks {name}"));
                let value = m.get("value").and_then(Value::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload} {name}: {last}"
                );
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
            }
        }
    }
}
