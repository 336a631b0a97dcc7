//! `xtrapulp-lint` — the workspace static-analysis gate. See LINT.md for the
//! rule catalogue.
//!
//! ```text
//! xtrapulp-lint [--root DIR] [--json] [--verbose]
//! ```
//!
//! Exit codes: 0 = clean, 1 = findings, 2 = usage/IO error.

use std::path::PathBuf;
use std::process::ExitCode;
use xtrapulp_lint::{lint_workspace, render_json};

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json = false;
    let mut verbose = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage("--root needs a value"),
            },
            "--json" => json = true,
            "--verbose" => verbose = true,
            "--help" | "-h" => {
                eprintln!(
                    "xtrapulp-lint: workspace static analysis (rules R1-R5, see LINT.md)\n\
                     usage: xtrapulp-lint [--root DIR] [--json] [--verbose]"
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let (findings, files) = match lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtrapulp-lint: scanning {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if verbose {
        eprintln!(
            "xtrapulp-lint: scanned {} files under {}",
            files.len(),
            root.display()
        );
    }

    if json {
        println!("{}", render_json(&findings));
    } else {
        for f in &findings {
            println!("{f}");
        }
        eprintln!("xtrapulp-lint: {} finding(s)", findings.len());
    }

    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("xtrapulp-lint: {msg} (try --help)");
    ExitCode::from(2)
}
