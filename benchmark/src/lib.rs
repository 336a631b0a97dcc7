//! The repo benchmark: one command runs one workload, checks its outputs and prints
//! every metric by name and unit. See README.md and ../BENCHMARK.json.
//!
//! ```text
//! xtrapulp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! xtrapulp-benchmark --selfcheck <N>      # noise calibration, writes NOISE.md
//! ```
//!
//! The last line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics of an untraced run, or
//! the per-layer metrics of a traced one.

mod analytics;
mod cold;
pub mod harness;
mod heap;
mod micro;
mod selfcheck;
mod serve;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::{Config, Metrics, Workload};

#[global_allocator]
static ALLOCATOR: heap::CountingAllocator = heap::CountingAllocator;

/// What the command line asked for.
enum Request {
    Run(Config),
    Selfcheck(selfcheck::Plan),
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: xtrapulp-benchmark --workload <{}> [--seed <n>] [--seconds <s>] \
         [--trace <0|1>] [--quick] [--out-dir <dir>]\n       \
         xtrapulp-benchmark --selfcheck <runs per set> [--seconds <s>] [--out <NOISE.md>]",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Request, String> {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut quick = false;
    let mut out_dir = PathBuf::from("benchmark/out");
    let mut selfcheck_runs = None;
    let mut noise_path = PathBuf::from("benchmark/NOISE.md");

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        let bad = |what: &str| format!("{flag}: {what}\n{}", usage());
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::from_name(name).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| bad("not a whole number"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| bad("not a number"))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err(bad("must be a non-negative number"));
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            "--quick" => quick = true,
            "--out-dir" => out_dir = PathBuf::from(value()?),
            "--selfcheck" => {
                let runs: usize = value()?.parse().map_err(|_| bad("not a whole number"))?;
                if runs < 5 {
                    return Err(bad("needs at least 5 runs per set"));
                }
                selfcheck_runs = Some(runs);
            }
            "--out" => noise_path = PathBuf::from(value()?),
            _ => return Err(format!("unknown argument {flag}\n{}", usage())),
        }
    }
    if let Some(runs) = selfcheck_runs {
        return Ok(Request::Selfcheck(selfcheck::Plan {
            runs,
            seconds,
            out: noise_path,
        }));
    }
    Ok(Request::Run(Config {
        workload: workload.ok_or_else(usage)?,
        seed,
        seconds,
        trace,
        quick,
        out_dir,
    }))
}

/// Write a traced run's spans and per-layer metrics to `<out-dir>/trace-<workload>.json`.
fn write_trace(cfg: &Config, summary: &trace::Summary, metrics: &Metrics) {
    let path = cfg
        .out_dir
        .join(format!("trace-{}.json", cfg.workload.name()));
    summary
        .write(&path, cfg.workload.name(), &metrics.to_json())
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
}

fn run(cfg: &Config) -> ExitCode {
    let outcome = match cfg.workload {
        Workload::ColdRmat | Workload::ColdTcp => cold::run(cfg),
        Workload::ServeChurn => serve::run(cfg),
        Workload::AnalyticsChurn => analytics::run(cfg),
    };
    for (name, value, unit) in outcome.metrics.rows() {
        println!("{name:<36} {value:>18.6} {unit}");
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        outcome.metrics.to_json()
    );
    ExitCode::SUCCESS
}

/// Run the command line `args` (without the program name).
pub fn cli(args: &[String]) -> ExitCode {
    match parse(args) {
        Ok(Request::Run(cfg)) => run(&cfg),
        Ok(Request::Selfcheck(plan)) => selfcheck::run(&plan),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
