//! The self-run gate: the workspace holds zero findings of every rule (a
//! finding is fixed or annotated at its site; there is no baseline), and the
//! binary fails on a fresh violation and on a flag it does not know.

use std::path::PathBuf;
use std::process::{Command, Output};
use xtrapulp_lint::lint_workspace;

fn lint_bin(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xtrapulp-lint"))
        .args(args)
        .output()
        .expect("lint bin runs")
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

#[test]
fn workspace_is_clean() {
    let root = workspace_root();
    let (findings, files) = lint_workspace(&root).expect("workspace scan succeeds");
    assert!(
        files.len() > 50,
        "scan looks truncated: only {} files",
        files.len()
    );
    assert!(
        findings.is_empty(),
        "workspace has lint findings:\n{}",
        findings
            .iter()
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn scratch_violation_fails_the_bin() {
    // Acceptance drill: drop a rank-conditional allreduce and an unjustified
    // Ordering::Relaxed into a scratch workspace; the tool must exit non-zero
    // naming file, line and rule.
    let dir = std::env::temp_dir().join(format!("xtrapulp-lint-scratch-{}", std::process::id()));
    let src = dir.join("crates/scratch/src");
    std::fs::create_dir_all(&src).expect("scratch tree");
    std::fs::write(
        src.join("lib.rs"),
        "pub fn f(ctx: &Ctx, c: &C) {\n\
         \x20   if ctx.rank() == 0 {\n\
         \x20       ctx.allreduce_sum_u64(&[1]);\n\
         \x20   }\n\
         \x20   c.n.fetch_add(1, Ordering::Relaxed);\n\
         }\n",
    )
    .expect("scratch file");

    let out = lint_bin(&["--root", dir.to_str().expect("utf8 tmp path")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "expected non-zero exit, got {:?}\n{stdout}",
        out.status
    );
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(
        stdout.contains("crates/scratch/src/lib.rs:3: R1(collective-symmetry)"),
        "{stdout}"
    );
    assert!(
        stdout.contains("crates/scratch/src/lib.rs:5: R2(atomic-ordering)"),
        "{stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn removed_baseline_flags_are_usage_errors() {
    for args in [
        &["--allow", "baseline.toml"][..],
        &["--no-allow"],
        &["--write-baseline"],
    ] {
        let out = lint_bin(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("unknown argument"), "{args:?}: {stderr}");
    }
}
