//! `BENCH_history.json`: the per-PR trajectory of the repo benchmark.
//!
//! The file is a JSON array with one entry object per line, so appending extends it
//! textually and diffs stay line-per-run. `append` runs every workload `BENCHMARK.json`
//! declares, untraced for the end-to-end metrics and traced for the per-layer ones, and
//! records them all in one entry:
//!
//! ```json
//! {"t":1790000000,"label":"pr18","seed":42,"run_seconds":20,"workloads":{"cold_rmat":{"latency_s":0.59,…,"core.init_s":0.01,…},…}}
//! ```
//!
//! `check` compares the newest entry with the one before it: end-to-end metrics by the
//! `better`/`bound` `BENCHMARK.json` gives them, per-layer metrics as a diff. The first
//! seven entries of the committed file predate this format (four keys of a private
//! scale-12 job); entries whose schemas differ are not compared.

use std::io::Write;
use std::path::Path;

use crate::json::Flat;

/// The seed every recorded run uses.
pub const SEED: u64 = 42;

/// A metric `BENCHMARK.json` declares.
pub struct Metric {
    pub name: String,
    pub lower_is_better: bool,
    /// How far an end-to-end metric may worsen, as a fraction of the older value.
    pub bound: f64,
}

/// What `BENCHMARK.json` declares.
pub struct Spec {
    pub command: Vec<String>,
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Spec {
    /// Read the text of a `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let flat = Flat::parse(text)?;
        let strings = |list: &str, field: &str| -> Result<Vec<String>, String> {
            let text_at = |i: &&str| {
                let path = format!("{list}/{i}{field}");
                flat.str(&path)
                    .map(str::to_string)
                    .ok_or(format!("BENCHMARK.json: no string at {path}"))
            };
            flat.children(list).iter().map(text_at).collect()
        };
        let metrics = |list: &str| -> Result<Vec<Metric>, String> {
            let better = strings(list, "/better")?;
            let names = strings(list, "/name")?.into_iter().zip(better).enumerate();
            names
                .map(|(i, (name, better))| {
                    Ok(Metric {
                        name,
                        lower_is_better: match better.as_str() {
                            "lower" => true,
                            "higher" => false,
                            other => return Err(format!("BENCHMARK.json: better = {other:?}")),
                        },
                        bound: flat.num(&format!("{list}/{i}/bound")).unwrap_or(0.0),
                    })
                })
                .collect()
        };
        let spec = Spec {
            command: strings("command", "")?,
            run_seconds: (flat.num("run_seconds")).ok_or("BENCHMARK.json: no run_seconds")?,
            workloads: strings("workloads", "/name")?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        };
        if spec.command.is_empty() || spec.workloads.is_empty() || spec.end_to_end.is_empty() {
            return Err("BENCHMARK.json: command, workloads or end_to_end is empty".to_string());
        }
        Ok(spec)
    }
}

/// The values of `metrics` in one result line of the benchmark
/// (`{"correct":…,"attempted":…,"failed":…,"metrics":{"<name>":{"value":…,"unit":…},…}}`).
fn read_result<'m>(line: &str, metrics: &'m [Metric]) -> Result<Vec<(&'m str, f64)>, String> {
    let flat = Flat::parse(line)?;
    match flat.num("failed") {
        Some(0.0) => {}
        Some(failed) => return Err(format!("{failed} operations failed")),
        None => return Err("the result line has no `failed` count".to_string()),
    }
    metrics
        .iter()
        .map(|m| {
            flat.num(&format!("metrics/{}/value", m.name))
                .map(|value| (m.name.as_str(), value))
                .ok_or(format!("the result line lacks declared metric {}", m.name))
        })
        .collect()
}

/// The entry lines of a history file: one object per line, between the array brackets.
fn entry_lines(body: &str) -> impl Iterator<Item = &str> {
    body.lines()
        .map(|line| line.trim().trim_end_matches(','))
        .filter(|line| line.starts_with('{'))
}

/// Measure one entry and append it to `file`, returning the entry. `run(workload, traced)`
/// runs the benchmark once at [`SEED`] for `spec.run_seconds` and returns its result line.
/// Nothing is written unless every run reports `failed` = 0 and every declared metric;
/// the file is replaced by rename, so a failed write leaves the old history in place.
pub fn append(
    spec: &Spec,
    label: &str,
    file: &Path,
    t: u64,
    run: &mut dyn FnMut(&str, bool) -> Result<String, String>,
) -> Result<String, String> {
    let mut entry = format!("{{\"t\":{t},\"label\":");
    serde::write_json_str(label, &mut entry);
    entry.push_str(&format!(
        ",\"seed\":{SEED},\"run_seconds\":{},\"workloads\":{{",
        spec.run_seconds
    ));
    for (i, workload) in spec.workloads.iter().enumerate() {
        let mut fields = Vec::new();
        for (traced, metrics) in [(false, &spec.end_to_end), (true, &spec.per_layer)] {
            let line = run(workload, traced)?;
            let values = read_result(&line, metrics)
                .map_err(|e| format!("{workload} --trace {}: {e}", traced as u8))?;
            for (name, value) in values {
                let mut field = String::new();
                serde::write_json_str(name, &mut field);
                fields.push(format!("{field}:{value}"));
            }
        }
        if i > 0 {
            entry.push(',');
        }
        serde::write_json_str(workload, &mut entry);
        entry.push_str(&format!(":{{{}}}", fields.join(",")));
    }
    entry.push_str("}}");

    let existing = match std::fs::read_to_string(file) {
        Ok(body) => body,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(format!("cannot read {}: {e}", file.display())),
    };
    let mut body = String::from("[\n");
    for line in entry_lines(&existing) {
        body.push_str(line);
        body.push_str(",\n");
    }
    body.push_str(&entry);
    body.push_str("\n]\n");
    let mut tmp = file.as_os_str().to_owned();
    tmp.push(".tmp");
    std::fs::File::create(&tmp)
        .and_then(|mut f| f.write_all(body.as_bytes()).and_then(|()| f.sync_all()))
        .and_then(|()| std::fs::rename(&tmp, file))
        .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
    Ok(entry)
}

/// Validate the history in `body` and compare its newest entry with the one before it.
/// `Ok` carries the report of a passing check; `Err` the reason it failed — an entry
/// that does not parse, a newest entry lacking something `spec` declares, or an
/// end-to-end metric worse than its bound.
pub fn check(spec: &Spec, body: &str) -> Result<String, String> {
    let entries = entry_lines(body)
        .enumerate()
        .map(|(i, line)| Flat::parse(line).map_err(|e| format!("entry {}: {e}", i + 1)))
        .collect::<Result<Vec<Flat>, String>>()?;
    let mut report = format!("bench-history: {} entries\n", entries.len());
    let [.., before, newest] = entries.as_slice() else {
        return Ok(report + "fewer than two entries: nothing to compare\n");
    };
    let label = |entry: &Flat| entry.str("label").unwrap_or("?").to_string();
    let value = |entry: &Flat, w: &str, m: &Metric| entry.num(&format!("workloads/{w}/{}", m.name));
    let declared: Vec<(&str, &Metric)> = (spec.workloads.iter())
        .flat_map(|w| (spec.end_to_end.iter().chain(&spec.per_layer)).map(move |m| (w.as_str(), m)))
        .collect();
    // A legacy newest entry promises nothing; a full-width one promises everything declared.
    let legacy = newest.children("workloads").is_empty();
    let missing = |entry: &Flat| declared.iter().find(|(w, m)| value(entry, w, m).is_none());
    if let (false, Some((w, m))) = (legacy, missing(newest)) {
        return Err(format!("entry `{}` lacks {w}/{}", label(newest), m.name));
    }
    if legacy || missing(before).is_some() {
        let (old, new) = (label(before), label(newest));
        return Ok(
            report + &format!("`{old}` and `{new}` record different metrics: not compared\n")
        );
    }

    report += &format!("`{}` -> `{}`\n", label(before), label(newest));
    // How far `m` worsened on `w`, as a fraction of the older value (negative: it
    // improved), and the line that says so.
    let change = |w: &str, m: &Metric| {
        let old = value(before, w, m).unwrap_or(0.0);
        let new = value(newest, w, m).unwrap_or(0.0);
        let delta = if m.lower_is_better {
            new - old
        } else {
            old - new
        };
        let worse = if delta == 0.0 { 0.0 } else { delta / old.abs() };
        let direction = match worse {
            w if w > 0.0 => "worse",
            w if w < 0.0 => "better",
            _ => "unchanged",
        };
        let percent = 100.0 * worse.abs();
        (
            worse,
            format!("  {:<36}{old} -> {new}  {percent:.1}% {direction}", m.name),
        )
    };
    let mut regressions = 0;
    for w in &spec.workloads {
        report += &format!("{w}: end to end\n");
        for m in &spec.end_to_end {
            let (worse, line) = change(w, m);
            let verdict = if worse > m.bound {
                regressions += 1;
                "WORSE THAN BOUND"
            } else {
                "ok"
            };
            report += &format!("{line} (bound {:.0}%) {verdict}\n", 100.0 * m.bound);
        }
        let mut moved: Vec<_> = (spec.per_layer.iter().map(|m| change(w, m)))
            .filter(|(worse, _)| *worse != 0.0)
            .collect();
        moved.sort_by(|a, b| b.0.abs().total_cmp(&a.0.abs()));
        let (count, of) = (moved.len(), spec.per_layer.len());
        report += &format!("{w}: per layer, {count} of {of} moved\n");
        report.extend(moved.into_iter().map(|(_, line)| line + "\n"));
    }
    if regressions > 0 {
        return Err(report + &format!("end-to-end metrics worse than their bound: {regressions}\n"));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
        "command": ["cargo", "run", "--"], "paths": ["benchmark"], "run_seconds": 20,
        "workloads": [{"name": "cold_rmat", "why": "w"}, {"name": "serve_churn", "why": "w"}],
        "end_to_end": [{"name": "latency_s", "unit": "s", "better": "lower", "bound": 0.25},
                       {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}],
        "per_layer": [{"name": "core.init_s", "unit": "s", "better": "lower"},
                      {"name": "core.lp_sweeps", "unit": "count", "better": "lower"}]}"#;

    const LEGACY: &str = "[\n{\"t\":1,\"label\":\"seed\",\"scale\":12,\"nranks\":4,\"metrics\":{\"partition_seconds\":0.12,\"edge_cut\":33477}},\n{\"t\":2,\"label\":\"pr13\",\"scale\":12,\"nranks\":4,\"metrics\":{\"partition_seconds\":0.07,\"edge_cut\":33477}}\n]\n";

    /// The benchmark's result line for a run whose latency is `latency`.
    fn result_line(traced: bool, latency: f64, failed: u64) -> String {
        let metrics = if traced {
            r#""core.init_s":{"value":0.011,"unit":"s"},"core.lp_sweeps":{"value":120,"unit":"count"}"#.to_string()
        } else {
            format!(
                r#""latency_s":{{"value":{latency},"unit":"s"}},"throughput_per_s":{{"value":{},"unit":"1/s"}}"#,
                1000.0 / latency
            )
        };
        format!(
            "{{\"correct\":{},\"attempted\":64,\"failed\":{failed},\"metrics\":{{{metrics}}}}}",
            failed == 0
        )
    }

    fn temp_file(name: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("bench-history-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn the_real_benchmark_json_parses_to_four_workloads_of_seven_and_seventy_five() {
        let spec = Spec::parse(include_str!("../../../BENCHMARK.json")).unwrap();
        assert_eq!(spec.command[..2], ["cargo", "run"]);
        assert_eq!(spec.run_seconds, 20.0);
        assert_eq!(spec.workloads.len(), 4);
        assert_eq!((spec.end_to_end.len(), spec.per_layer.len()), (7, 75));
        let throughput = &spec.end_to_end[1];
        assert!(!throughput.lower_is_better && throughput.bound == 0.25);
    }

    #[test]
    fn entries_round_trip_and_regressions_fail_in_the_declared_direction() {
        let spec = Spec::parse(SPEC).unwrap();
        let file = temp_file("round-trip");
        std::fs::write(&file, LEGACY).unwrap();
        let mut runs = Vec::new();
        let mut record = |label: &str, latency: f64| {
            let mut run = |w: &str, traced: bool| {
                runs.push(format!("{w}/{traced}"));
                Ok(result_line(traced, latency, 0))
            };
            append(&spec, label, &file, 7, &mut run).unwrap()
        };

        // A legacy predecessor is skipped, not failed on.
        let entry = record("pr\"18\\a", 0.5);
        let flat = Flat::parse(&entry).unwrap();
        assert_eq!(flat.str("label"), Some("pr\"18\\a"));
        assert_eq!(
            flat.num("workloads/serve_churn/core.lp_sweeps"),
            Some(120.0)
        );
        let body = std::fs::read_to_string(&file).unwrap();
        assert!(body.starts_with(LEGACY.trim_end_matches("\n]\n")), "{body}");
        assert!(check(&spec, &body).unwrap().contains("not compared"));

        // Within the bound either way passes; the diff names what moved.
        record("slower", 0.6);
        let report = check(&spec, &std::fs::read_to_string(&file).unwrap()).unwrap();
        assert!(
            report.contains("latency_s") && report.contains("0 of 2 moved"),
            "{report}"
        );
        // Better by any margin passes.
        record("faster", 0.2);
        check(&spec, &std::fs::read_to_string(&file).unwrap()).unwrap();
        // Past the bound fails: latency up 4x (lower is better), throughput down 4x.
        record("regressed", 0.8);
        let body = std::fs::read_to_string(&file).unwrap();
        let report = check(&spec, &body).unwrap_err();
        assert!(report.contains("worse than their bound: 4"), "{report}");
        assert_eq!(entry_lines(&body).count(), 6);
        assert_eq!(runs.len(), 4 * 4);
        assert_eq!(runs[..2], ["cold_rmat/false", "cold_rmat/true"]);
        std::fs::remove_file(&file).unwrap();
    }

    #[test]
    fn failed_operations_or_a_missing_metric_write_nothing() {
        let spec = Spec::parse(SPEC).unwrap();
        let file = temp_file("refused");
        std::fs::write(&file, LEGACY).unwrap();
        let mut failing = |_: &str, traced: bool| Ok(result_line(traced, 0.5, 3));
        let error = append(&spec, "x", &file, 7, &mut failing).unwrap_err();
        assert!(error.contains("3 operations failed"), "{error}");
        let mut partial = |_: &str, _: bool| Ok(result_line(false, 0.5, 0));
        let error = append(&spec, "x", &file, 7, &mut partial).unwrap_err();
        assert!(
            error.contains("lacks declared metric core.init_s"),
            "{error}"
        );
        let mut truncated = |_: &str, _: bool| Ok("{\"correct\":true,\"attem".to_string());
        assert!(append(&spec, "x", &file, 7, &mut truncated).is_err());
        assert_eq!(std::fs::read_to_string(&file).unwrap(), LEGACY);
        std::fs::remove_file(&file).unwrap();
    }

    #[test]
    fn check_rejects_a_corrupt_line_and_a_narrow_newest_entry() {
        let spec = Spec::parse(SPEC).unwrap();
        assert!(check(&spec, "[\n{\"t\":1,\"label\":\"a\n]\n").is_err());
        let narrow = "[\n{\"label\":\"a\",\"workloads\":{\"cold_rmat\":{\"latency_s\":1}}},\n{\"label\":\"b\",\"workloads\":{\"cold_rmat\":{\"latency_s\":1}}}\n]\n";
        assert!(check(&spec, narrow)
            .unwrap_err()
            .contains("`b` lacks cold_rmat/throughput_per_s"));
        assert!(check(&spec, LEGACY).unwrap().contains("not compared"));
    }
}
