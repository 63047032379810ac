//! Fixture-driven checks: each deliberately-bad tree under `fixtures/`
//! trips exactly its rule, the waived tree is clean, and — the gate that
//! matters — the real repo root is clean.

use std::path::{Path, PathBuf};

use cole_lint::{dump_orderings, lint_dir, Finding};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

fn lint_fixture(name: &str) -> Vec<Finding> {
    lint_dir(&fixture(name)).unwrap()
}

#[test]
fn bad_seek_then_read_is_caught() {
    let findings = lint_fixture("bad_seek_then_read");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "seek-then-read");
    assert_eq!(findings[0].path, Path::new("src/lib.rs"));
    assert_eq!(findings[0].line, 8);
}

#[test]
fn bad_killpoint_adjacency_is_caught() {
    let findings = lint_fixture("bad_killpoint");
    // Both the fsync and the rename lack a kill point.
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings.iter().all(|f| f.rule == "killpoint-adjacency"));
    assert!(findings
        .iter()
        .all(|f| f.path == Path::new("crates/core/src/manifest.rs")));
}

#[test]
fn missing_forbid_unsafe_is_caught() {
    let findings = lint_fixture("bad_forbid_unsafe");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "forbid-unsafe");
}

#[test]
fn the_one_sanctioned_unsafe_site_is_clean() {
    // `crates/hash` with `deny`, one waived and justified `unsafe`, and an
    // `unsafe` inside a test module that does not count.
    let findings = lint_fixture("good_unsafe_exception");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn a_second_unsafe_in_the_excepted_crate_is_caught() {
    let findings = lint_fixture("bad_unsafe_second_site");
    // Both sites are reported: the linter cannot know which one is new.
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings.iter().all(|f| f.rule == "forbid-unsafe"));
    assert!(findings
        .iter()
        .all(|f| f.message.contains("exactly one") && f.message.contains("found 2")));
    let paths: Vec<&Path> = findings.iter().map(|f| f.path.as_path()).collect();
    assert_eq!(
        paths,
        [
            Path::new("crates/hash/src/lib.rs"),
            Path::new("crates/hash/src/sha_ni.rs")
        ]
    );
}

#[test]
fn an_unsafe_site_without_a_safety_comment_is_caught() {
    let findings = lint_fixture("bad_unsafe_no_safety");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "forbid-unsafe");
    assert_eq!(findings[0].path, Path::new("crates/hash/src/lib.rs"));
    assert_eq!(findings[0].line, 11);
    assert!(
        findings[0].message.contains("SAFETY:"),
        "{}",
        findings[0].message
    );
}

#[test]
fn unaudited_ordering_is_caught() {
    let findings = lint_fixture("bad_ordering");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "ordering-audit");
    assert!(
        findings[0].message.contains("SeqCst"),
        "{}",
        findings[0].message
    );
}

#[test]
fn bare_lock_unwrap_is_caught() {
    let findings = lint_fixture("bad_lock_unwrap");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "lock-unwrap");
}

#[test]
fn waived_and_test_code_sites_are_clean() {
    let findings = lint_fixture("good_waived");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn lock_order_inversion_nesting_and_stale_class_are_caught() {
    let findings = lint_fixture("bad_lock_order");
    assert_eq!(findings.len(), 3, "{findings:?}");
    assert!(findings.iter().all(|f| f.rule == "lock-order"));
    let messages: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
    assert!(
        messages.iter().any(|m| m.contains("rank inversion")),
        "{messages:?}"
    );
    assert!(
        messages.iter().any(|m| m.contains("same-class nesting")),
        "{messages:?}"
    );
    assert!(
        messages
            .iter()
            .any(|m| m.contains("`ghost`") && m.contains("stale")),
        "{messages:?}"
    );
    // The stale-class finding anchors to the declaration file itself.
    assert!(findings
        .iter()
        .any(|f| f.path == Path::new("LOCKS.md") && f.line == 0));
}

#[test]
fn condvar_wait_outside_a_loop_is_caught() {
    let findings = lint_fixture("bad_condvar_wait");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "condvar-wait-loop");
    assert_eq!(findings[0].path, Path::new("src/lib.rs"));
    assert_eq!(findings[0].line, 17, "the bare wait, not the looped one");
}

#[test]
fn panic_sites_reachable_from_decode_are_caught() {
    let findings = lint_fixture("bad_panic_path");
    // One finding per line of `body`: arithmetic, indexing, expect. The
    // waived site and the encode-path index must stay silent.
    assert_eq!(findings.len(), 3, "{findings:?}");
    assert!(findings.iter().all(|f| f.rule == "panic-path"));
    assert!(findings
        .iter()
        .all(|f| f.path == Path::new("crates/protocol/src/parse.rs")));
    let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![20, 21, 22], "{findings:?}");
    assert!(findings.iter().all(|f| f.message.contains("`body`")));
}

#[test]
fn error_taxonomy_drift_is_caught() {
    let findings = lint_fixture("bad_error_taxonomy");
    // Undocumented variant, wrong tag, stale row.
    assert_eq!(findings.len(), 3, "{findings:?}");
    assert!(findings.iter().all(|f| f.rule == "error-taxonomy"));
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("`ErrorCode::Timeout`")
                && f.path == Path::new("crates/protocol/src/frame.rs")),
        "{findings:?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("`Busy`") && f.message.contains("wire tag 9")),
        "{findings:?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("`Ghost`") && f.path == Path::new("ERRORS.md")),
        "{findings:?}"
    );
}

#[test]
fn a_second_proof_construction_site_is_caught() {
    let findings = lint_fixture("bad_single_read_path");
    // The construction, not the `match` arm below it.
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "single-read-path");
    assert_eq!(findings[0].path, Path::new("crates/core/src/engine.rs"));
    assert_eq!(findings[0].line, 9);
    assert!(
        findings[0].message.contains("RunUnsearched"),
        "{}",
        findings[0].message
    );
}

#[test]
fn read_rs_proof_decode_patterns_and_tests_may_name_the_variants() {
    let findings = lint_fixture("good_single_read_path");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn repo_tree_is_clean() {
    let findings = lint_dir(&repo_root()).unwrap();
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn repo_ordering_dump_matches_the_audit() {
    // Every file the dump observes must appear in ORDERINGS.md — the
    // clean `repo_tree_is_clean` run implies it, but this pins the audit
    // file itself to the tree so a deleted table row fails loudly here.
    let table = dump_orderings(&repo_root()).unwrap();
    let audit = std::fs::read_to_string(repo_root().join("ORDERINGS.md")).unwrap();
    for line in table.lines().filter(|l| l.contains(".rs")) {
        let path = line
            .split('`')
            .nth(1)
            .expect("dump row has a backticked path");
        assert!(
            audit.contains(&format!("`{path}`")),
            "ORDERINGS.md is missing an entry for {path}"
        );
    }
}
