//! `bench-history append --label L [--file P]` runs the repo benchmark as `BENCHMARK.json`
//! declares it (read from the working directory) and appends one full-width entry to
//! `BENCH_history.json`; `bench-history check [--file P]` validates that file and compares
//! its newest entry with the one before it. See `xtrapulp_bench::history`.

use std::path::PathBuf;
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

use xtrapulp_bench::history::{append, check, Spec, SEED};

fn usage() -> ! {
    eprintln!(
        "usage: bench-history append --label L [--file PATH]\n\
         \x20      bench-history check [--file PATH]\n\
         run from the repository root: BENCHMARK.json is read from the working directory"
    );
    std::process::exit(2);
}

/// Run the benchmark's command once and return the last line it printed.
fn run_benchmark(spec: &Spec, workload: &str, traced: bool) -> Result<String, String> {
    let trace = if traced { "1" } else { "0" };
    eprintln!(
        "bench-history: {workload} --trace {trace} ({} s)",
        spec.run_seconds
    );
    let output = Command::new(&spec.command[0])
        .args(&spec.command[1..])
        .args(["--workload", workload, "--trace", trace])
        .args(["--seed", &SEED.to_string()])
        .args(["--seconds", &spec.run_seconds.to_string()])
        .output()
        .map_err(|e| format!("cannot run {}: {e}", spec.command[0]))?;
    if !output.status.success() {
        let stderr = String::from_utf8_lossy(&output.stderr);
        return Err(format!(
            "{workload} --trace {trace} exited with {}: {stderr}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().rev().find(|line| !line.trim().is_empty());
    last.map(str::to_string)
        .ok_or(format!("{workload} --trace {trace} printed nothing"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut label = None;
    let mut file = PathBuf::from("BENCH_history.json");
    let mut rest = args.iter().skip(1);
    while let Some(flag) = rest.next() {
        match (flag.as_str(), rest.next()) {
            ("--label", Some(value)) => label = Some(value.clone()),
            ("--file", Some(value)) => file = PathBuf::from(value),
            _ => usage(),
        }
    }
    // `append` takes a label and `check` takes none, so the label says which this is.
    let label = match (args.first().map(String::as_str), label) {
        (Some("append"), Some(label)) => Some(label),
        (Some("check"), None) => None,
        _ => usage(),
    };
    let spec = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))
        .and_then(|text| Spec::parse(&text));
    let outcome = spec.and_then(|spec| match &label {
        Some(label) => {
            let t = SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_secs());
            append(&spec, label, &file, t, &mut |w, traced| {
                run_benchmark(&spec, w, traced)
            })
        }
        None => std::fs::read_to_string(&file)
            .map_err(|e| format!("no history at {}: {e}", file.display()))
            .and_then(|body| check(&spec, &body)),
    });
    match outcome {
        Ok(report) => println!("{}", report.trim_end()),
        Err(problem) => {
            eprintln!("bench-history: {}", problem.trim_end());
            std::process::exit(1);
        }
    }
}
