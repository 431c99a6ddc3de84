//! The benchmark's own checks, run end to end on short `dashboard` runs:
//! a correct run passes and prints exactly the metrics `BENCHMARK.json`
//! lists, and a corrupted reference answer makes the run fail.

use presto_common::json::Json;
use std::process::Command;

fn run(extra: &[&str]) -> (i32, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_presto-perfbench"))
        .args(["--workload", "dashboard", "--seed", "7", "--seconds", "1"])
        .args(extra)
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let json = Json::parse(last).unwrap_or_else(|e| panic!("result line `{last}`: {e}"));
    (out.status.code().unwrap_or(-1), json)
}

fn manifest_names(key: &str) -> Vec<(String, String)> {
    let text = include_str!("../../BENCHMARK.json");
    let json = Json::parse(text).expect("BENCHMARK.json parses");
    let mut names: Vec<(String, String)> = json
        .field_arr(key)
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.field_str("name").expect("name").to_string(),
                m.field_str("unit").expect("unit").to_string(),
            )
        })
        .collect();
    names.sort();
    names
}

fn printed(result: &Json) -> Vec<(String, String)> {
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("no metrics object");
    };
    metrics
        .iter()
        .map(|(name, m)| (name.clone(), m.field_str("unit").expect("unit").to_string()))
        .collect()
}

#[test]
fn correct_run_prints_every_listed_metric() {
    let (code, result) = run(&["--trace", "0"]);
    assert_eq!(code, 0);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(result.field_u64("failed").ok(), Some(0));
    assert!(result.field_u64("attempted").unwrap_or(0) > 0);
    assert_eq!(printed(&result), manifest_names("end_to_end"));
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("no metrics object");
    };
    for (name, m) in metrics {
        let v = m.field_f64("value").expect("numeric value");
        assert!(v > 0.0, "{name} is {v}; end-to-end metrics are never 0");
    }

    let (code, result) = run(&["--trace", "1"]);
    assert_eq!(code, 0);
    assert_eq!(printed(&result), manifest_names("per_layer"));
}

#[test]
fn corrupted_reference_fails_the_run() {
    let (code, result) = run(&["--trace", "0", "--corrupt-reference"]);
    assert_eq!(code, 1);
    assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
    assert!(result.field_u64("failed").unwrap_or(0) > 0);
}
