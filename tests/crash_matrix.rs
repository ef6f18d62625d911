//! The crash matrix: the full torture enumeration under `cargo test`.
//!
//! Every crash point the seeded workload reaches is armed at its first and
//! last hit, and with the log tail forced (all but the `wal.*` points), and
//! the recovery guarantees are checked at each; then the harness crashes
//! inside recovery itself at every point restart reaches, checking
//! restart's progress gauges at each crash, and inside a standby's pull,
//! apply and promotion.

use ariesim_bench::torture::run_torture;
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// Each `crash_point!("name")` in `crates/*/src` with its number of
/// declarations, skipping comment lines and a file's trailing
/// `#[cfg(test)] mod`.
fn declared_crash_points() -> BTreeMap<String, usize> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let (mut names, mut todo) = (BTreeMap::new(), vec![crates.clone()]);
    while let Some(path) = todo.pop() {
        let in_src = path.strip_prefix(&crates).unwrap().iter().nth(1) == Some("src".as_ref());
        if path.is_dir() {
            todo.extend(fs::read_dir(&path).unwrap().map(|e| e.unwrap().path()));
        } else if in_src && path.extension() == Some("rs".as_ref()) {
            let text = fs::read_to_string(&path).unwrap();
            let code = text.lines().filter(|l| !l.trim_start().starts_with("//"));
            let lines: Vec<&str> = code.collect();
            let test_mod =
                |w: &[&str]| w[0].trim() == "#[cfg(test)]" && w[1].trim().starts_with("mod ");
            let end = lines.windows(2).position(test_mod).unwrap_or(lines.len());
            for line in &lines[..end] {
                for rest in line.split("crash_point!(\"").skip(1) {
                    let name = rest.split('"').next().unwrap_or_default();
                    *names.entry(name.to_string()).or_insert(0) += 1;
                }
            }
        }
    }
    names
}

#[test]
fn crash_matrix_bounded_enumeration() {
    let report = run_torture().expect("torture harness must run");

    let failures: Vec<String> = report
        .runs
        .iter()
        .filter_map(|r| {
            r.error
                .as_ref()
                .map(|e| format!("{} ({} hit {}): {e}", r.point, r.mode, r.hit))
        })
        .collect();
    assert!(
        failures.is_empty(),
        "recovery failed at {} crash point(s):\n  {}",
        failures.len(),
        failures.join("\n  ")
    );

    // Every crash point in the source is declared once and reached by the
    // workload, and the workload reaches no other.
    let reached: BTreeMap<String, usize> = report.points.iter().map(|p| (p.clone(), 1)).collect();
    assert_eq!(
        declared_crash_points(),
        reached,
        "crash_point! names in crates/*/src (left) against the names torture reached (right)"
    );

    // Every armed run must actually have crashed — an unfired arm of a
    // recorded hit means record and replay diverged (lost determinism).
    let unfired: Vec<&str> = report
        .runs
        .iter()
        .filter(|r| !r.fired)
        .map(|r| r.point.as_str())
        .collect();
    assert!(
        unfired.is_empty(),
        "recorded points did not fire when armed (nondeterministic workload?): {unfired:?}"
    );
}
