//! One fixture per lint, asserting the exact `file:line` each lint reports,
//! plus a self-run over the real workspace that must come back clean (this is
//! the same gate CI runs via `cargo run -p analyze --bin arieslint`).

use analyze::{
    apply_allowlist, find_crash_points, lint_crash_points, lint_latch_census, lint_no_panic,
    lint_no_wait_under_latch, lint_ordering_census, lint_wal_coverage, parse_allowlist,
    run_source_lints, Finding, ALLOWLIST_MAX,
};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

fn at(findings: &[Finding], lint: &str) -> Vec<(String, usize)> {
    findings
        .iter()
        .filter(|f| f.lint == lint)
        .map(|f| (f.file.clone(), f.line))
        .collect()
}

#[test]
fn census_flags_unannotated_and_misordered_sites() {
    let (sites, findings) = lint_latch_census("census.rs", &fixture("census.rs"));
    assert_eq!(
        at(&findings, "latch-annotation"),
        vec![("census.rs".to_string(), 4)]
    );
    assert_eq!(
        at(&findings, "latch-rank-order"),
        vec![("census.rs".to_string(), 8)]
    );
    // 5 annotated sites enter the census (the unannotated one on line 4 is a
    // finding, not a census entry); the conditional one is recorded as such.
    assert_eq!(sites.len(), 5);
    assert_eq!(
        sites
            .iter()
            .filter(|s| s.qualifier == analyze::RankQualifier::Conditional)
            .count(),
        1
    );
}

#[test]
fn no_wait_flags_blocking_request_under_live_guard() {
    let findings = lint_no_wait_under_latch("no_wait.rs", &fixture("no_wait.rs"));
    assert_eq!(
        at(&findings, "no-wait-under-latch"),
        vec![("no_wait.rs".to_string(), 5)]
    );
}

#[test]
fn no_panic_skips_test_modules() {
    let findings = lint_no_panic("no_panic.rs", &fixture("no_panic.rs"));
    assert_eq!(at(&findings, "no-panic"), vec![("no_panic.rs".to_string(), 4)]);
}

#[test]
fn ordering_census_flags_bare_sites_and_skips_cmp_and_tests() {
    let (sites, findings) = lint_ordering_census("ordering.rs", &fixture("ordering.rs"));
    // The two bare sites are findings; cmp::Ordering and the test module
    // never enter the census.
    assert_eq!(
        at(&findings, "ordering-annotation"),
        vec![("ordering.rs".to_string(), 14), ("ordering.rs".to_string(), 18)]
    );
    assert!(findings[0].msg.contains("Relaxed"), "msg: {}", findings[0].msg);
    let locs: Vec<(String, usize)> = sites.iter().map(|s| (s.file.clone(), s.line)).collect();
    assert_eq!(
        locs,
        vec![
            ("ordering.rs".to_string(), 5),
            ("ordering.rs".to_string(), 10),
            ("ordering.rs".to_string(), 28),
        ]
    );
    assert_eq!(sites[0].ops, vec!["Acquire".to_string()]);
}

#[test]
fn crash_point_registry_finds_duplicates_and_unreached() {
    let mut sites = find_crash_points("crash_points_a.rs", &fixture("crash_points_a.rs"));
    sites.extend(find_crash_points(
        "crash_points_b.rs",
        &fixture("crash_points_b.rs"),
    ));
    assert_eq!(sites.len(), 3);

    let dups = lint_crash_points(&sites, None);
    assert_eq!(
        at(&dups, "crash-point-dup"),
        vec![("crash_points_b.rs".to_string(), 3)]
    );

    // With a reached list naming only fx.dup, fx.only_a is unreached.
    let reached = vec!["fx.dup".to_string()];
    let findings = lint_crash_points(&sites, Some(&reached));
    assert_eq!(
        at(&findings, "crash-point-unreached"),
        vec![("crash_points_a.rs".to_string(), 5)]
    );
}

#[test]
fn wal_coverage_reports_missing_undo_dispatch() {
    let fakeroot = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/fakeroot");
    let findings = lint_wal_coverage(&fakeroot).unwrap();
    let cov = at(&findings, "wal-coverage");
    assert_eq!(cov.len(), 1, "findings: {findings:?}");
    assert_eq!(cov[0].0, "crates/btree/src/apply.rs");
    assert!(findings[0].msg.contains("IndexBody::RemoveKey"));
    assert!(findings[0].msg.contains("undo_body"));
}

#[test]
fn allowlist_filters_stales_and_overflows() {
    let fp = analyze::fp8(".expect(\"latch held\")");
    let (allow, pf) = parse_allowlist(&format!(
        "# comment\n\
         crates/x/src/a.rs no-panic {fp} — head exists under the mutex\n\
         crates/x/src/b.rs no-panic deadbeef — never fired\n\
         crates/x/src/c.rs:10 no-panic — legacy line-keyed entry\n",
    ));
    assert_eq!(allow.len(), 2);
    // The retired `<path>:<line>` format is a format error, not silently
    // accepted with a bogus key.
    assert_eq!(at(&pf, "allow-format"), vec![("lint.allow".to_string(), 4)]);

    let mk = |line: usize| Finding {
        file: "crates/x/src/a.rs".to_string(),
        line,
        lint: "no-panic",
        fp: fp.clone(),
        msg: "boom".to_string(),
    };
    // Two findings on identical flagged lines share a fingerprint: one
    // entry covers both, at any line number.
    let out = apply_allowlist(vec![mk(10), mk(44)], &allow);
    // Both a.rs findings are suppressed; the b.rs entry is stale (line 3).
    assert_eq!(at(&out, "allow-stale"), vec![("lint.allow".to_string(), 3)]);
    assert_eq!(out.len(), 1);

    let big: String = (0..ALLOWLIST_MAX + 1)
        .map(|i| format!("crates/x/src/a.rs no-panic {i:08x} — reason\n"))
        .collect();
    let (_, pf) = parse_allowlist(&big);
    assert_eq!(at(&pf, "allow-overflow"), vec![("lint.allow".to_string(), 1)]);
}

#[test]
fn fingerprints_key_on_trimmed_content() {
    // Indentation changes don't move the key; content changes do.
    assert_eq!(analyze::fp8("    a.load()  "), analyze::fp8("a.load()"));
    assert_ne!(analyze::fp8("a.load()"), analyze::fp8("b.load()"));
    assert_eq!(analyze::fp8("x").len(), 8);
    // Synthetic findings (empty fp) can never be allowlisted away.
    let (allow, _) = parse_allowlist("lint.allow/x allow-stale 00000000 — nope\n");
    let f = vec![Finding {
        file: "lint.allow/x".to_string(),
        line: 1,
        lint: "allow-stale",
        fp: String::new(),
        msg: "stale".to_string(),
    }];
    let out = apply_allowlist(f, &allow);
    assert_eq!(out.len(), 2, "finding survives and the entry goes stale");
}

// ---------------------------------------------------------------------------
// Self-run: the workspace itself must be clean under the committed allowlist
// ---------------------------------------------------------------------------

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

#[test]
fn workspace_is_clean_under_committed_allowlist() {
    let root = workspace_root();
    let report = run_source_lints(&root, None).unwrap();
    let allow_text = std::fs::read_to_string(root.join("lint.allow")).unwrap_or_default();
    let (allow, allow_findings) = parse_allowlist(&allow_text);
    assert!(allow.len() <= ALLOWLIST_MAX);
    let mut findings = apply_allowlist(report.findings, &allow);
    findings.extend(allow_findings);
    assert!(
        findings.is_empty(),
        "workspace lint findings:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The census should be substantial — an empty census means the scanner
    // silently stopped seeing the engine.
    assert!(report.census.len() >= 50, "census: {}", report.census.len());
    assert!(report.crash_points.len() >= 40);
    // Every atomic-ordering site in the engine is annotated and counted; an
    // empty census would mean the scanner stopped seeing the atomics.
    assert!(
        report.ordering_sites.len() >= 50,
        "ordering sites: {}",
        report.ordering_sites.len()
    );
}
