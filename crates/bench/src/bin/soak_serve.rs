//! Soak smoke: run a serving session for a few hundred epochs and assert the
//! health plane's memory accounting holds up — the byte gauges stay bounded
//! (no unaccounted, monotonically-growing structure) and, past a fixed
//! allocator-noise tolerance, the accounted growth explains at least 80% of
//! the process's RSS growth over the soak window — and that the published
//! quality has not drifted: warm epochs patch the part counts they carry
//! instead of counting the graph, so the last snapshot's quality must equal
//! an evaluation of its parts over the live graph from scratch. A release
//! build runs with `debug_assert`s off, so this is the check that holds there.
//!
//! The measurement window opens *after* a warmup (session spawn, allocator
//! high-water marks, first epochs) so the comparison is steady-state churn
//! against steady-state gauges, not process bring-up against them.
//!
//! Exit 0 when every assertion holds; exit 1 with a machine-readable summary
//! otherwise. CI runs this as the soak-smoke job.

use std::time::Duration;

use xtrapulp::metrics::PartitionQuality;
use xtrapulp::PartitionParams;
use xtrapulp_api::{Method, PartitionJob, ServingSession, UpdateBatch};
use xtrapulp_gen::{GraphConfig, GraphKind};
use xtrapulp_obs::mem;

struct Options {
    epochs: u64,
    warmup: u64,
    nranks: usize,
    scale: u32,
    /// Allocator/page-cache noise allowance before RSS growth must be
    /// explained by the gauges.
    tolerance_bytes: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: soak_serve [--epochs N] [--warmup N] [--nranks R] [--scale S] [--tolerance-mb M]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Options {
        epochs: 200,
        warmup: 16,
        nranks: 4,
        scale: 13,
        tolerance_bytes: 24 * 1024 * 1024,
    };
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--epochs" => opts.epochs = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--warmup" => opts.warmup = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--nranks" => opts.nranks = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--scale" => opts.scale = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--tolerance-mb" => {
                let mb: u64 = value(&mut i).parse().unwrap_or_else(|_| usage());
                opts.tolerance_bytes = mb * 1024 * 1024;
            }
            _ => usage(),
        }
        i += 1;
    }
    if opts.epochs == 0 || opts.nranks == 0 {
        usage();
    }
    opts
}

fn main() {
    let opts = parse_args();
    std::process::exit(run(&opts));
}

fn run(opts: &Options) -> i32 {
    let n: u64 = 1 << opts.scale;
    let base = GraphConfig::new(
        GraphKind::BarabasiAlbert {
            num_vertices: n,
            edges_per_vertex: 8,
        },
        42,
    )
    .generate();
    let job =
        PartitionJob::new(Method::XtraPulp).with_params(PartitionParams::with_parts(opts.nranks));
    let serving = match ServingSession::spawn(opts.nranks, base.to_csr(), job) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serving session failed to spawn: {e}");
            return 1;
        }
    };
    let store = serving.store();
    let wait = Duration::from_secs(600);

    let mut next_vertex = n;
    let mut ingest_epoch = |target: u64| -> bool {
        let mut batch = UpdateBatch::new();
        batch
            .add_vertices(1)
            .insert_edge(next_vertex, next_vertex % 64)
            .insert_edge(next_vertex, next_vertex % 1024);
        next_vertex += 1;
        if let Err(e) = serving.ingest(batch) {
            eprintln!("ingest failed at epoch {target}: {e}");
            return false;
        }
        if store.wait_for_epoch(target, wait).is_none() {
            eprintln!("epoch {target} never published within {wait:?}");
            return false;
        }
        true
    };

    // Warmup: let the pipeline reach steady state before opening the window.
    for epoch in 1..=opts.warmup {
        if !ingest_epoch(epoch) {
            return 1;
        }
    }
    mem::sample_process();
    let accounted_start = mem::accounted_total();
    let rss_start = mem::rss_bytes().unwrap_or(0);

    // The soak window: churn epochs, sampling the gauges as a scraper would.
    let mut accounted_peak = accounted_start;
    for epoch in opts.warmup + 1..=opts.warmup + opts.epochs {
        if !ingest_epoch(epoch) {
            return 1;
        }
        if epoch % 25 == 0 {
            mem::sample_process();
            accounted_peak = accounted_peak.max(mem::accounted_total());
        }
    }
    mem::sample_process();
    let accounted_end = mem::accounted_total();
    let rss_end = mem::rss_bytes().unwrap_or(rss_start);
    accounted_peak = accounted_peak.max(accounted_end);

    // The scrape itself must expose what we just asserted on.
    let text = xtrapulp_obs::registry::render();
    let scrape_ok = text.contains("mem_bytes{subsystem=\"epoch_store\"}")
        && text.contains("mem_bytes{subsystem=\"ingest_queue\"}")
        && text.contains("process_rss_bytes");

    // Bounded: the gauges must not record runaway growth. The delta log is the
    // only structure that legitimately grows during the window (capped at its
    // retention limit), so steady-state accounting stays within a small
    // multiple of where the window opened.
    let bound = accounted_start.saturating_mul(8).max(64 * 1024 * 1024);
    let bounded = accounted_peak <= bound;

    // Explained: past the allocator-noise tolerance, accounted growth must
    // cover at least 80% of RSS growth — anything else is a structure the
    // health plane is blind to.
    let rss_growth = rss_end.saturating_sub(rss_start);
    let accounted_growth = accounted_end.saturating_sub(accounted_start);
    let unexplained = rss_growth.saturating_sub(accounted_growth);
    let explained =
        unexplained <= opts.tolerance_bytes || accounted_growth as f64 >= 0.8 * rss_growth as f64;

    // Drift: the last snapshot against its parts evaluated over the live graph.
    let last = store.current();
    let drift = match serving.shutdown() {
        Ok((mut session, _)) => {
            let fresh = PartitionQuality::evaluate(&session.csr(), &last.parts, last.num_parts);
            (fresh != last.quality).then(|| format!("published {:?}, live {fresh:?}", last.quality))
        }
        Err(e) => Some(format!("shutdown failed: {e}")),
    };
    if let Some(drift) = &drift {
        eprintln!("quality drifted at epoch {}: {drift}", last.epoch);
    }
    let drift_free = drift.is_none();

    let verdict = bounded && explained && scrape_ok && drift_free;
    println!(
        "{{\"soak\":\"{}\",\"epochs\":{},\"final_epoch\":{},\
         \"accounted_start\":{accounted_start},\"accounted_end\":{accounted_end},\
         \"accounted_peak\":{accounted_peak},\"bound\":{bound},\
         \"rss_start\":{rss_start},\"rss_end\":{rss_end},\
         \"rss_growth\":{rss_growth},\"accounted_growth\":{accounted_growth},\
         \"unexplained_bytes\":{unexplained},\"tolerance_bytes\":{},\
         \"bounded\":{bounded},\"explained\":{explained},\"scrape_ok\":{scrape_ok},\
         \"drift_free\":{drift_free}}}",
        if verdict { "pass" } else { "fail" },
        opts.epochs,
        store.epoch(),
        opts.tolerance_bytes,
    );
    if verdict {
        0
    } else {
        1
    }
}
