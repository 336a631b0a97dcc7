//! See the library crate (`src/lib.rs`) and README.md.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    xtrapulp_benchmark::cli(&args)
}
