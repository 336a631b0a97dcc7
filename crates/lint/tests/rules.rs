//! Fixture-based positive/negative tests for every rule and `--json` schema
//! stability.

use xtrapulp_lint::{lint_source, render_json, Finding, Rule};

#[test]
fn r1_must_trigger() {
    let findings = lint_source(
        "crates/comm/src/fixture.rs",
        include_str!("fixtures/r1_trigger.rs"),
    );
    let r1: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.rule == Rule::R1CollectiveSymmetry)
        .collect();
    assert_eq!(r1.len(), 4, "one per fixture site: {findings:?}");
    // The scratch-file acceptance: findings name file, line and rule.
    let msg = r1[0].to_string();
    assert!(msg.contains("crates/comm/src/fixture.rs:6"), "{msg}");
    assert!(msg.contains("R1"), "{msg}");
    assert!(msg.contains("allreduce_sum_u64"), "{msg}");
    assert!(r1.iter().any(|f| f.message.contains("barrier")));
    assert!(r1.iter().any(|f| f.message.contains("broadcast")));
    assert!(r1.iter().any(|f| f.message.contains("export_flight")));
}

#[test]
fn r1_must_not_trigger() {
    let findings = lint_source(
        "crates/comm/src/fixture.rs",
        include_str!("fixtures/r1_clean.rs"),
    );
    assert!(
        findings
            .iter()
            .all(|f| f.rule != Rule::R1CollectiveSymmetry),
        "{findings:?}"
    );
}

#[test]
fn r2_must_trigger() {
    let findings = lint_source(
        "crates/obs/src/fixture.rs",
        include_str!("fixtures/r2_trigger.rs"),
    );
    let r2: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.rule == Rule::R2AtomicOrdering)
        .collect();
    // Three unjustified sites + one mixed-class report on `flag`.
    assert_eq!(r2.len(), 4, "{findings:?}");
    assert!(r2
        .iter()
        .any(|f| f.message.contains("mixed ordering classes") && f.message.contains("`flag`")));
}

#[test]
fn r2_must_not_trigger() {
    let findings = lint_source(
        "crates/obs/src/fixture.rs",
        include_str!("fixtures/r2_clean.rs"),
    );
    assert!(
        findings.iter().all(|f| f.rule != Rule::R2AtomicOrdering),
        "{findings:?}"
    );
}

#[test]
fn r3_must_trigger() {
    let findings = lint_source(
        "crates/serve/src/fixture.rs",
        include_str!("fixtures/r3_trigger.rs"),
    );
    let r3: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.rule == Rule::R3LockDiscipline)
        .collect();
    assert_eq!(r3.len(), 4, "{findings:?}");
    assert!(r3.iter().any(|f| f.message.contains("`g`")));
    assert!(r3.iter().any(|f| f.message.contains("`stats`")));
    assert!(r3.iter().any(|f| f.message.contains("send")));
    assert!(r3.iter().any(|f| f.message.contains("exscan_sum_u64")));
}

#[test]
fn r3_must_not_trigger() {
    let findings = lint_source(
        "crates/serve/src/fixture.rs",
        include_str!("fixtures/r3_clean.rs"),
    );
    assert!(
        findings.iter().all(|f| f.rule != Rule::R3LockDiscipline),
        "{findings:?}"
    );
}

#[test]
fn r4_must_trigger_in_deterministic_scope() {
    let findings = lint_source(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/r4_trigger.rs"),
    );
    let r4: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.rule == Rule::R4Determinism)
        .collect();
    assert_eq!(r4.len(), 3, "{findings:?}");
}

#[test]
fn r4_must_not_trigger() {
    let findings = lint_source(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/r4_clean.rs"),
    );
    assert!(
        findings.iter().all(|f| f.rule != Rule::R4Determinism),
        "{findings:?}"
    );
    // The same triggering code is fine outside the deterministic prefixes
    // (obs/serve timing code is the exempt domain).
    let outside = lint_source(
        "crates/obs/src/fixture.rs",
        include_str!("fixtures/r4_trigger.rs"),
    );
    assert!(
        outside.iter().all(|f| f.rule != Rule::R4Determinism),
        "{outside:?}"
    );
}

#[test]
fn r5_must_trigger() {
    let findings = lint_source(
        "crates/graph/src/fixture.rs",
        include_str!("fixtures/r5_trigger.rs"),
    );
    let r5: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.rule == Rule::R5PanicHygiene)
        .collect();
    assert_eq!(r5.len(), 3, "{findings:?}");
    assert!(r5.iter().any(|f| f.message.contains("peer-supplied")));
}

#[test]
fn r5_must_not_trigger() {
    let findings = lint_source(
        "crates/graph/src/fixture.rs",
        include_str!("fixtures/r5_clean.rs"),
    );
    assert!(
        findings.iter().all(|f| f.rule != Rule::R5PanicHygiene),
        "{findings:?}"
    );
    // Library-only rule: the same code under bin/test paths is exempt.
    for path in [
        "crates/bench/src/bin/tool.rs",
        "crates/graph/tests/io.rs",
        "examples/demo.rs",
    ] {
        let f = lint_source(path, include_str!("fixtures/r5_trigger.rs"));
        assert!(
            f.iter().all(|x| x.rule != Rule::R5PanicHygiene),
            "{path}: {f:?}"
        );
    }
}

#[test]
fn json_schema_is_stable() {
    let findings = vec![Finding::new(
        Rule::R1CollectiveSymmetry,
        "crates/x/src/a.rs",
        7,
        "collective `barrier` under \"rank\" flow".into(),
    )];
    let json = render_json(&findings);
    // Schema version 2: exact top-level keys and finding keys, stable order.
    assert_eq!(
        json,
        "{\"version\":2,\"clean\":false,\"total\":1,\
         \"findings\":[{\"rule\":\"R1\",\"rule_name\":\"collective-symmetry\",\
         \"file\":\"crates/x/src/a.rs\",\"line\":7,\
         \"message\":\"collective `barrier` under \\\"rank\\\" flow\"}]}"
    );
    assert_eq!(
        render_json(&[]),
        "{\"version\":2,\"clean\":true,\"total\":0,\"findings\":[]}"
    );
}
