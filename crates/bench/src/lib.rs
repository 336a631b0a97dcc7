//! # xtrapulp-bench
//!
//! The measurement harness of the reproduction, three programs over one library:
//!
//! * `experiments <name>|all [--json]` regenerates the tables and figures of the paper's
//!   evaluation (§IV–V), scaled to a single machine. [`experiments::EXPERIMENTS`] is the
//!   table of them, each named after what it reproduces (`table1_graphs` → Table I,
//!   `fig4_quality` → Fig. 4, …; `trillion_scale` extrapolates §V-A.2) and printing the
//!   same rows/series the paper reports, so the *shape* of each result — which method
//!   wins, by roughly what factor, where the crossovers fall — can be compared against
//!   the publication. Every partitioning job goes through a [`Harness`], which keeps one
//!   [`Session`] per rank count; `--json` adds one machine-readable line per job.
//! * `bench-history append|check` ([`history`]) keeps `BENCH_history.json`, the per-PR
//!   trajectory of the repo benchmark (`BENCHMARK.json`, `benchmark/`): one line per
//!   entry holding every end-to-end and per-layer metric of every workload.
//! * `perf_smoke` gates the deterministic work counters against `perf_baseline.json`.
//!
//! `soak-serve` and `xtrapulp-mp` are drills rather than measurements and share nothing
//! with the library. [`json`] is the one JSON reader all of the above use.
//!
//! `XTRAPULP_SCALE` (a positive number, default 1.0, clamped to [0.05, 64]) multiplies
//! the experiments' graph sizes, so the same table runs in seconds as a smoke test or at
//! larger sizes for more faithful measurements.

pub mod experiments;
pub mod history;
pub mod json;

use std::collections::btree_map::{BTreeMap, Entry};
use std::time::Instant;

use xtrapulp::{try_xtrapulp_partition, PartitionError, PartitionParams};
use xtrapulp_api::{Method, PartitionJob, PartitionReport, Session};
use xtrapulp_gen::{GraphKind, TableIPreset};
use xtrapulp_graph::{Csr, DistGraph, Distribution};

/// Parse a value of `XTRAPULP_SCALE`: anything that is not a positive number is an
/// error, and the result is clamped to [0.05, 64].
pub fn parse_scale(raw: &str) -> Result<f64, String> {
    match raw.trim().parse::<f64>() {
        Ok(x) if x.is_finite() && x > 0.0 => Ok(x.clamp(0.05, 64.0)),
        _ => Err(format!(
            "XTRAPULP_SCALE must be a positive number, got '{raw}'"
        )),
    }
}

/// What an experiment runs on: the invocation's scale and `--json` switch, and one
/// persistent [`Session`] per rank count, spawned on first use.
pub struct Harness {
    experiment: &'static str,
    scale: f64,
    json: bool,
    sessions: BTreeMap<usize, Session>,
}

impl Harness {
    /// A harness for the experiment called `experiment`.
    pub fn new(experiment: &'static str, scale: f64, json: bool) -> Harness {
        Harness {
            experiment,
            scale,
            json,
            sessions: BTreeMap::new(),
        }
    }

    /// Scale a vertex count, keeping at least 1024 vertices.
    pub fn scaled(&self, n: u64) -> u64 {
        ((n as f64 * self.scale) as u64).max(1024)
    }

    /// Generate the proxy of a paper graph with its size field scaled.
    pub fn proxy_graph(&self, name: &str) -> Result<Csr, String> {
        let preset = TableIPreset::by_name(name)
            .ok_or_else(|| format!("no preset proxy for paper graph '{name}'"))?;
        let mut config = preset.config;
        let scale = self.scale;
        let side =
            |cells: &mut u64, f: f64, min: u64| *cells = ((*cells as f64 * f) as u64).max(min);
        use GraphKind::*;
        match &mut config.kind {
            Rmat { scale: s, .. } => {
                *s = (*s as i32 + scale.log2().round() as i32).clamp(8, 26) as u32
            }
            ErdosRenyi { num_vertices, .. }
            | RandHd { num_vertices, .. }
            | BarabasiAlbert { num_vertices, .. }
            | SmallWorld { num_vertices, .. }
            | WebCrawl { num_vertices, .. } => *num_vertices = self.scaled(*num_vertices),
            Grid2d { width, height, .. } => {
                side(width, scale.sqrt(), 8);
                side(height, scale.sqrt(), 8);
            }
            Grid3d { nx, ny, nz, .. } => {
                side(nx, scale.cbrt(), 4);
                side(ny, scale.cbrt(), 4);
                side(nz, scale.cbrt(), 4);
            }
        }
        Ok(config.generate().to_csr())
    }

    /// The block-distributed session of `nranks` ranks.
    pub fn session(&mut self, nranks: usize) -> Result<&mut Session, PartitionError> {
        Ok(match self.sessions.entry(nranks) {
            Entry::Occupied(kept) => kept.into_mut(),
            Entry::Vacant(slot) => slot.insert(Session::new(nranks)?),
        })
    }

    /// Run one registry method as a job on the `nranks`-rank session: the wall seconds of
    /// the whole submission (graph distribution included) and the job's report.
    pub fn job(
        &mut self,
        nranks: usize,
        method: Method,
        csr: &Csr,
        params: &PartitionParams,
    ) -> Result<(f64, PartitionReport), PartitionError> {
        let session = self.session(nranks)?;
        let timer = Instant::now();
        let report = session.submit(&PartitionJob::new(method).with_params(*params), csr)?;
        Ok((timer.elapsed().as_secs_f64(), report))
    }

    /// The scaling studies' measurement (Figs. 1–2, §V-A.2): XtraPuLP on a hashed
    /// distribution, timed without the graph distribution and maximised over the ranks,
    /// as the paper times it. Returns the seconds with the job's label-propagation
    /// sweeps and scored vertices, which a [`PartitionReport`] does not carry.
    pub fn partition_only(
        &mut self,
        nranks: usize,
        csr: &Csr,
        params: &PartitionParams,
    ) -> Result<(f64, u64, u64), PartitionError> {
        let per_rank = self.session(nranks)?.execute(|ctx| {
            let graph = DistGraph::from_csr(ctx, Distribution::Hashed, csr);
            let timer = Instant::now();
            // Validation is deterministic, so every rank takes the same branch.
            let result = try_xtrapulp_partition(ctx, &graph, params)?;
            let seconds = ctx.allreduce_max_f64(&[timer.elapsed().as_secs_f64()])[0];
            Ok((seconds, result.lp_sweeps, result.vertices_scored))
        });
        // The time is allreduced and the counters are global: rank 0 speaks for all.
        let none = Err(PartitionError::InvalidRanks { got: 0 });
        per_rank.into_iter().next().unwrap_or(none)
    }

    /// Under `--json`, print one line tagging `report`'s summary with this experiment
    /// and `graph`. Labels are JSON-escaped, so no graph name can corrupt the stream.
    pub fn emit_report(&self, graph: &str, report: &PartitionReport) {
        let fields = format!("\"report\":{}", report.to_json_summary());
        self.emit_line("graph", graph, &fields);
    }

    /// Under `--json`, print `{"experiment":…,"<key>":"<label>",<fields>}`.
    pub fn emit_line(&self, key: &str, label: &str, fields: &str) {
        if self.json {
            let mut line = String::from("{\"experiment\":");
            serde::write_json_str(self.experiment, &mut line);
            line.push_str(&format!(",\"{key}\":"));
            serde::write_json_str(label, &mut line);
            println!("{line},{fields}}}");
        }
    }
}

/// Print a markdown table: `header` and every row are cells joined by `" | "`.
pub fn print_table(title: &str, header: &str, rows: &[String]) {
    println!("\n## {title}\n\n| {header} |");
    println!("|{}|", vec!["---"; header.split(" | ").count()].join("|"));
    for row in rows {
        println!("| {row} |");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_parsed_strictly_and_clamped() {
        assert_eq!(parse_scale("0.25"), Ok(0.25));
        assert_eq!(parse_scale(" 4 "), Ok(4.0));
        assert_eq!(parse_scale("0.001"), Ok(0.05));
        assert_eq!(parse_scale("1e9"), Ok(64.0));
        for bad in ["", "fast", "0", "-1", "NaN", "inf"] {
            assert!(parse_scale(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn proxy_graphs_scale_and_unknown_names_are_errors() {
        let harness = Harness::new("test", 0.05, false);
        for name in ["lj", "rmat_22", "uk-2002", "nlpkkt160"] {
            let csr = harness.proxy_graph(name).expect(name);
            assert!(csr.num_vertices() > 0 && csr.num_edges() > 0, "{name}");
        }
        assert!(harness
            .proxy_graph("not-a-real-graph")
            .is_err_and(|e| e.contains("no preset proxy")));
        assert_eq!(harness.scaled(1 << 20), 52428);
        assert_eq!(harness.scaled(2048), 1024);
    }
}
