//! Every workload at `--quick` sizes: the result line carries exactly the metrics
//! `BENCHMARK.json` declares, each once, finite, with its unit; the outputs check
//! correct; the exact counters repeat between two traced runs.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use xtrapulp_benchmark::harness::{END_TO_END, EXACT_COUNTERS, PER_LAYER};

const BIN: &str = env!("CARGO_BIN_EXE_xtrapulp-benchmark");

/// The string values of `"key": "..."` pairs in `text`, in order.
fn string_values<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
    let needle = format!("\"{key}\"");
    text.match_indices(&needle)
        .map(|(at, _)| {
            let rest = &text[at + needle.len()..];
            let open = rest.find('"').expect("a string value follows the key") + 1;
            let close = open + rest[open..].find('"').expect("the string value ends");
            &rest[open..close]
        })
        .collect()
}

/// The `[...]` array that follows `"key"` in `BENCHMARK.json`.
fn section<'a>(json: &'a str, key: &str) -> &'a str {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let open = start + json[start..].find('[').expect("the key holds an array");
    let close = open + json[open..].find(']').expect("the array ends");
    &json[open..=close]
}

/// `name -> unit` of one metric list of `BENCHMARK.json`.
fn declared(json: &str, key: &str) -> BTreeMap<String, String> {
    let list = section(json, key);
    let names = string_values(list, "name");
    let units = string_values(list, "unit");
    assert_eq!(names.len(), units.len());
    names
        .into_iter()
        .zip(units)
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

/// One quick run: `name -> (value, unit)` of its result line.
fn run(workload: &str, trace: bool) -> BTreeMap<String, (f64, String)> {
    let output = Command::new(BIN)
        .args(["--workload", workload, "--seed", "42", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--quick"])
        .args(["--out-dir", env!("CARGO_TARGET_TMPDIR")])
        .output()
        .expect("the benchmark binary starts");
    assert!(
        output.status.success(),
        "{workload} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("output is UTF-8");
    let line = stdout.lines().last().expect("a result line is printed");
    for key in [
        "\"correct\":true",
        "\"attempted\":",
        "\"failed\":0",
        "\"metrics\":{",
    ] {
        assert!(line.contains(key), "{workload}: no {key} in {line}");
    }
    let metrics = line.split_once("\"metrics\":{").unwrap().1;
    let mut out = BTreeMap::new();
    for field in metrics.split("},") {
        let name = field.split('"').nth(1).expect("a metric name");
        let value: f64 = field
            .split_once("\"value\":")
            .and_then(|(_, rest)| rest.split(',').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{workload}: {name} has no numeric value"));
        let unit = string_values(field, "unit")[0].to_string();
        assert!(value.is_finite(), "{workload}: {name} is {value}");
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad metric name {name}"
        );
        assert!(
            out.insert(name.to_string(), (value, unit)).is_none(),
            "{workload}: {name} printed twice"
        );
    }
    out
}

fn assert_matches(
    workload: &str,
    printed: &BTreeMap<String, (f64, String)>,
    declared: &BTreeMap<String, String>,
) {
    let printed_units: BTreeMap<String, String> = printed
        .iter()
        .map(|(n, (_, u))| (n.clone(), u.clone()))
        .collect();
    assert_eq!(
        &printed_units, declared,
        "{workload}: metrics differ from BENCHMARK.json"
    );
}

#[test]
fn quick_runs_print_every_declared_metric() {
    let start = Instant::now();
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let json = std::fs::read_to_string(manifest.join("../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repo root");
    let end_to_end = declared(&json, "end_to_end");
    let per_layer = declared(&json, "per_layer");
    let table = |t: &[(&str, &str)]| -> BTreeMap<String, String> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(end_to_end, table(END_TO_END));
    assert_eq!(per_layer, table(PER_LAYER));
    let workloads = string_values(section(&json, "workloads"), "name");
    assert_eq!(workloads.len(), 4);
    for name in EXACT_COUNTERS {
        assert!(
            per_layer.contains_key(*name),
            "{name} is not a per-layer metric"
        );
    }

    for workload in workloads {
        let untraced = run(workload, false);
        assert_matches(workload, &untraced, &end_to_end);
        for (name, (value, _)) in &untraced {
            assert!(*value > 0.0, "{workload}: end-to-end {name} is {value}");
        }
        let first = run(workload, true);
        let second = run(workload, true);
        assert_matches(workload, &first, &per_layer);
        for name in EXACT_COUNTERS {
            assert_eq!(
                first[*name].0, second[*name].0,
                "{workload}: exact counter {name} differs between two runs"
            );
        }
        let trace_file =
            Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("trace-{workload}.json"));
        let trace = std::fs::read_to_string(&trace_file).expect("the traced run wrote its spans");
        assert!(trace.trim_end().ends_with("\"claim\":null}"));
    }
    // Twelve quick runs take 6-10 s on an undisturbed box (the target is < 20 s);
    // the limit leaves room for the bursts in which the hypervisor triples that.
    let elapsed = start.elapsed().as_secs_f64();
    assert!(elapsed < 60.0, "quick runs took {elapsed:.1} s");
}
