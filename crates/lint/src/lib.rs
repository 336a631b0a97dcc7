//! # xtrapulp-lint
//!
//! Workspace-aware static analysis for the XtraPuLP reproduction. The
//! codebase stakes hard correctness claims — bit-identical partitions across
//! thread counts, backends and crash/recovery; deadlock-free collectives with
//! typed failure — and this crate enforces the coding invariants those claims
//! depend on, as a blocking CI gate:
//!
//! - **R1 collective-symmetry** — a `CommCtx`/`Transport` collective
//!   reachable only under rank-dependent control flow is a divergence/
//!   deadlock hazard.
//! - **R2 atomic-ordering audit** — every `Ordering::Relaxed`/`SeqCst` in
//!   non-test code needs an adjacent `// ordering:` justification; mixed
//!   ordering classes on one atomic field are reported.
//! - **R3 lock discipline** — a `Mutex`/`RwLock` guard live across a
//!   collective or transport send/recv is an error.
//! - **R4 determinism** — wall-clock / ambient randomness inside the
//!   bit-identical partitioner and analytics kernels is flagged.
//! - **R5 panic hygiene** — `unwrap`/`expect`/peer-data indexing in library
//!   code, unless annotated at the site.
//!
//! See `LINT.md` at the workspace root for the full rule catalogue and the
//! annotation grammar. The lexer and block/scope parser are hand-rolled (no
//! `syn`), consistent with the offline `vendor/` policy.

pub mod engine;
pub mod lexer;

use std::fmt;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    R1CollectiveSymmetry,
    R2AtomicOrdering,
    R3LockDiscipline,
    R4Determinism,
    R5PanicHygiene,
}

impl Rule {
    pub fn id(&self) -> &'static str {
        match self {
            Rule::R1CollectiveSymmetry => "R1",
            Rule::R2AtomicOrdering => "R2",
            Rule::R3LockDiscipline => "R3",
            Rule::R4Determinism => "R4",
            Rule::R5PanicHygiene => "R5",
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            Rule::R1CollectiveSymmetry => "collective-symmetry",
            Rule::R2AtomicOrdering => "atomic-ordering",
            Rule::R3LockDiscipline => "lock-discipline",
            Rule::R4Determinism => "determinism",
            Rule::R5PanicHygiene => "panic-hygiene",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: Rule,
    pub file: String,
    pub line: usize,
    pub message: String,
}

impl Finding {
    pub fn new(rule: Rule, file: &str, line: usize, message: String) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line,
            message,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}({}): {}",
            self.file,
            self.line,
            self.rule.id(),
            self.rule.name(),
            self.message
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    Lib,
    Bin,
    Example,
    Bench,
    Test,
}

/// Classify a repo-relative path. Test classification is structural: a
/// `tests/` directory component or a `tests.rs` file (the workspace's
/// `#[cfg(test)] mod tests;` convention).
pub fn classify(path: &str) -> FileKind {
    let norm = path.replace('\\', "/");
    let components: Vec<&str> = norm.split('/').collect();
    let stem = components
        .last()
        .and_then(|f| f.strip_suffix(".rs"))
        .unwrap_or("");
    if components.contains(&"tests") || stem == "tests" {
        FileKind::Test
    } else if components.contains(&"examples") {
        FileKind::Example
    } else if components.contains(&"benches") {
        FileKind::Bench
    } else if components.contains(&"bin") || stem == "main" {
        FileKind::Bin
    } else {
        FileKind::Lib
    }
}

/// Path prefixes whose library code is a deterministic (bit-identical)
/// surface: the partitioner and analytics kernels plus the graph/update
/// structures they run over. Wall-clock and ambient randomness here is an R4
/// finding unless annotated.
pub fn default_deterministic_prefixes() -> Vec<String> {
    [
        "crates/core/src",
        "crates/multilevel/src",
        "crates/analytics/src",
        "crates/graph/src",
        "crates/dynamic/src",
        "crates/spmv/src",
        "crates/gen/src",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Lint a single source text under its repo-relative path.
pub fn lint_source(path: &str, source: &str) -> Vec<Finding> {
    engine::lint_source(path, source, &default_deterministic_prefixes())
}

/// Directories never scanned: third-party stand-ins, build output, the lint
/// crate's own fixture corpus (which contains deliberate violations), and the
/// repo benchmark — a measurement harness in a workspace of its own
/// (`benchmark/Cargo.toml`), not library code of this one.
const SKIP_DIRS: &[&str] = &[
    "vendor",
    "target",
    ".git",
    "fixtures",
    "node_modules",
    "benchmark",
];

/// Walk the workspace and lint every `.rs` file. Returns the findings plus
/// the list of scanned files (for `--verbose` / diagnostics).
pub fn lint_workspace(root: &Path) -> std::io::Result<(Vec<Finding>, Vec<String>)> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut findings = Vec::new();
    for rel in &files {
        let source = std::fs::read_to_string(root.join(rel))?;
        findings.extend(lint_source(rel, &source));
    }
    findings.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then(a.line.cmp(&b.line))
            .then(a.rule.id().cmp(b.rule.id()))
    });
    Ok((findings, files))
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Render findings as the stable machine-readable JSON document consumed by
/// CI tooling. Schema (version 2):
/// `{"version":2,"clean":bool,"total":N,
///   "findings":[{"rule","rule_name","file","line","message"}]}`
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("{");
    out.push_str("\"version\":2,");
    out.push_str(&format!("\"clean\":{},", findings.is_empty()));
    out.push_str(&format!("\"total\":{},", findings.len()));
    out.push_str("\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"rule\":{},\"rule_name\":{},\"file\":{},\"line\":{},\"message\":{}}}",
            json_str(f.rule.id()),
            json_str(f.rule.name()),
            json_str(&f.file),
            f.line,
            json_str(&f.message)
        ));
    }
    out.push_str("]}");
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
