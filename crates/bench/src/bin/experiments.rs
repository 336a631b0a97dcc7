//! `experiments <name>|all [--json]`: regenerate one table or figure of the paper's
//! evaluation, or all of them. `XTRAPULP_SCALE` multiplies the graph sizes; `--json` adds
//! one machine-readable line per job ahead of each table.

use xtrapulp_bench::experiments::{find, EXPERIMENTS};
use xtrapulp_bench::{parse_scale, Harness};

fn usage(problem: &str) -> ! {
    eprintln!("experiments: {problem}\nusage: experiments <name>|all [--json]\n");
    for (name, paper, _) in EXPERIMENTS {
        eprintln!("  {name:<24}{paper}");
    }
    eprintln!("\nXTRAPULP_SCALE=<positive number> multiplies graph sizes (default 1.0, clamped to [0.05, 64])");
    std::process::exit(2);
}

fn main() {
    let mut selected = None;
    let mut json = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            name if selected.is_some() => usage(&format!("unexpected argument '{name}'")),
            "all" => selected = Some(EXPERIMENTS.to_vec()),
            name => match find(name) {
                Some(&experiment) => selected = Some(vec![experiment]),
                None => usage(&format!("unknown experiment '{name}'")),
            },
        }
    }
    let Some(selected) = selected else {
        usage("no experiment named");
    };
    let scale = match std::env::var("XTRAPULP_SCALE") {
        Ok(raw) => parse_scale(&raw).unwrap_or_else(|problem| usage(&problem)),
        Err(std::env::VarError::NotPresent) => 1.0,
        Err(error) => usage(&format!("XTRAPULP_SCALE: {error}")),
    };

    for (name, _, run) in selected {
        // Sessions live for one experiment, so `all` never holds more rank threads
        // than its widest experiment needs.
        let mut harness = Harness::new(name, scale, json);
        if let Err(error) = run(&mut harness) {
            eprintln!("experiments: {name} failed: {error}");
            std::process::exit(1);
        }
    }
}
