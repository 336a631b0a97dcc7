//! `--selfcheck N`: noise calibration. Runs every workload N times (seeds 1..=N) in
//! two sets on one build, the way the driver judges the benchmark, and writes
//! `NOISE.md`: per workload and end-to-end metric the min, median, max and spread
//! (interquartile range over median) of each set, and how far the second set's
//! median moved from the first's. One traced run per set and workload checks that
//! the exact counters repeat.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use crate::harness::{Workload, END_TO_END, EXACT_COUNTERS};

pub struct Plan {
    /// Runs per set and workload (at least 5).
    pub runs: usize,
    /// `--seconds` handed to every run.
    pub seconds: f64,
    /// Where `NOISE.md` goes.
    pub out: PathBuf,
}

const SETS: usize = 2;
/// Seed of the traced runs whose exact counters are compared between sets.
const TRACE_SEED: u64 = 42;

/// One child run's result line.
struct RunResult {
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

/// Run this executable on one workload and parse the last line it prints.
fn child(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{} seed {seed} exited with {}: {}",
            workload.name(),
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    parse_result(line).ok_or_else(|| format!("unparseable result line: {line}"))
}

/// Parse the result line this benchmark prints (not general JSON): the `correct`
/// flag and each metric's value.
fn parse_result(line: &str) -> Option<RunResult> {
    let inner = line.split_once("\"metrics\":{")?.1;
    let mut metrics = BTreeMap::new();
    for field in inner.split("},") {
        let name = field.split('"').nth(1)?;
        let value = field.split_once("\"value\":")?.1.split(',').next()?;
        metrics.insert(name.to_string(), value.parse().ok()?);
    }
    Some(RunResult {
        correct: line.contains("\"correct\":true"),
        metrics,
    })
}

/// First and third quartile, as Python's `statistics.quantiles(values, n=4)`
/// (the exclusive method) gives them.
fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("metrics are finite"));
    let m = sorted.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Median as Python's `statistics.median` gives it (mean of the middle two for an
/// even count).
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("values are finite"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Interquartile range as a share of the median.
fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

pub fn run(plan: &Plan) -> ExitCode {
    match calibrate(plan) {
        Ok(report) => match std::fs::write(&plan.out, report) {
            Ok(()) => {
                println!("wrote {}", plan.out.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("cannot write {}: {e}", plan.out.display());
                ExitCode::FAILURE
            }
        },
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

fn calibrate(plan: &Plan) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Benchmark noise\n\n\
         Written by `xtrapulp-benchmark --selfcheck {runs} --seconds {seconds}` on one build: \
         {SETS} sets of {runs} untraced runs per workload (seeds 1..={runs}), on {cpus} CPUs.\n\n\
         `spread` is the distance between the first and third quartile of a set's {runs} \
         values (Python's `statistics.quantiles(values, n=4)`) as a share of their median; \
         `shift` is how far the second set's median lies from the first's, as a share of \
         the first. `BENCHMARK.json` sets each bound to three times the spread seen here, \
         or to the 25% cap where that is more.\n",
        runs = plan.runs,
        seconds = plan.seconds,
        cpus = std::thread::available_parallelism().map_or(0, |n| n.get()),
    );

    // values[workload][set][metric] -> one value per run
    let mut incorrect: Vec<String> = Vec::new();
    let mut wide: Vec<String> = Vec::new();
    let mut counters_repeat = true;
    for workload in Workload::ALL {
        let mut sets: Vec<BTreeMap<String, Vec<f64>>> = Vec::new();
        let mut counters: Vec<BTreeMap<String, f64>> = Vec::new();
        for set in 0..SETS {
            let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
            for seed in 1..=plan.runs as u64 {
                eprintln!("set {set} {} seed {seed}", workload.name());
                let result = child(workload, seed, plan.seconds, false)?;
                if !result.correct {
                    incorrect.push(format!("{} seed {seed} (set {set})", workload.name()));
                }
                for (name, value) in result.metrics {
                    values.entry(name).or_default().push(value);
                }
            }
            sets.push(values);
            eprintln!("set {set} {} traced", workload.name());
            let traced = child(workload, TRACE_SEED, plan.seconds, true)?;
            if !traced.correct {
                incorrect.push(format!("{} traced (set {set})", workload.name()));
            }
            counters.push(traced.metrics);
        }

        let _ = writeln!(
            out,
            "## {}\n\n| metric | unit | set | min | median | max | spread | shift |\n\
             |---|---|---|---|---|---|---|---|",
            workload.name()
        );
        for (name, unit) in END_TO_END {
            let first = median(&sets[0][*name]);
            for (set, values) in sets.iter().enumerate() {
                let values = &values[*name];
                let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let mid = median(values);
                let shift = if set == 0 {
                    String::new()
                } else {
                    format!("{:+.2}%", (mid / first - 1.0) * 100.0)
                };
                let spread = spread(values);
                if spread > 0.10 {
                    wide.push(format!("{} `{name}` set {set}", workload.name()));
                }
                let _ = writeln!(
                    out,
                    "| {name} | {unit} | {set} | {lo:.6} | {mid:.6} | {hi:.6} | {:.2}% | {shift} |",
                    spread * 100.0
                );
            }
        }
        let _ = writeln!(out, "\nEvery run, in seed order:\n");
        for (name, _) in END_TO_END {
            for (set, values) in sets.iter().enumerate() {
                let listed: Vec<String> = values[*name].iter().map(|v| format!("{v:.4}")).collect();
                let _ = writeln!(out, "- `{name}` set {set}: {}", listed.join(" "));
            }
        }
        let differing: Vec<&str> = EXACT_COUNTERS
            .iter()
            .copied()
            .filter(|name| counters[0].get(*name) != counters[1].get(*name))
            .collect();
        counters_repeat &= differing.is_empty();
        let _ = writeln!(
            out,
            "\nExact counters of the two traced runs (seed {TRACE_SEED}): {}\n",
            if differing.is_empty() {
                "identical".to_string()
            } else {
                format!("DIFFER: {}", differing.join(", "))
            }
        );
    }
    let or_none = |list: &[String]| match list {
        [] => "none".to_string(),
        _ => list.join(", "),
    };
    let _ = writeln!(
        out,
        "Runs whose outputs failed their checks: {}. Exact counters repeat: \
         {counters_repeat}.\n\nSpread above a tenth (could not be brought within it on this \
         box): {}.",
        or_none(&incorrect),
        or_none(&wide)
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 4.5));
        assert_eq!(spread(&[3.0, 1.0, 4.0, 1.0, 5.0]), 3.5 / 3.0);
    }

    #[test]
    fn result_line_round_trips() {
        let line = "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\
                    \"latency_s\":{\"value\":1.25,\"unit\":\"s\"},\
                    \"throughput_per_s\":{\"value\":4e5,\"unit\":\"1/s\"}}}";
        let parsed = parse_result(line).expect("parses");
        assert!(parsed.correct);
        assert_eq!(parsed.metrics["latency_s"], 1.25);
        assert_eq!(parsed.metrics["throughput_per_s"], 4e5);
    }
}
