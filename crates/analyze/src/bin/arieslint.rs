//! `arieslint` — run the repo's custom lint suite.
//!
//! ```text
//! cargo run -p analyze --bin arieslint                      # source lints
//! cargo run -p analyze --bin arieslint -- --census          # + census table
//! cargo run -p analyze --bin arieslint -- --crash-points F  # + reachability
//! ```
//!
//! Exits nonzero on any finding. The allowlist is `lint.allow` at the repo
//! root; see the crate docs for the format.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn find_root(start: &Path) -> PathBuf {
    let mut cur = start.to_path_buf();
    loop {
        let manifest = cur.join("Cargo.toml");
        if manifest.exists() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return cur;
                }
            }
        }
        if !cur.pop() {
            return start.to_path_buf();
        }
    }
}

fn main() -> ExitCode {
    let mut crash_points_file: Option<PathBuf> = None;
    let mut root_arg: Option<PathBuf> = None;
    let mut census = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--crash-points" => crash_points_file = args.next().map(PathBuf::from),
            "--root" => root_arg = args.next().map(PathBuf::from),
            "--census" => census = true,
            "--help" | "-h" => {
                println!(
                    "arieslint [--root DIR] [--census] [--crash-points FILE]\n\
                     \n\
                     Run the source lint suite over the workspace (latch census +\n\
                     rank order, no-wait-under-latch, panic audit, atomics-ordering\n\
                     census, crash-point registry, WAL-record coverage), filtered\n\
                     through lint.allow. --crash-points adds the reachability audit\n\
                     against a `torture --list-points` output file."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("arieslint: unknown argument {other:?} (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let root = root_arg.unwrap_or_else(|| find_root(&cwd));

    let reached: Option<Vec<String>> = match &crash_points_file {
        Some(p) => match std::fs::read_to_string(p) {
            Ok(t) => Some(
                t.lines()
                    .filter_map(|l| l.split_whitespace().next())
                    .map(str::to_string)
                    .collect(),
            ),
            Err(e) => {
                eprintln!("arieslint: cannot read {}: {e}", p.display());
                return ExitCode::from(2);
            }
        },
        None => None,
    };

    let report = match analyze::run_source_lints(&root, reached.as_deref()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("arieslint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    let allow_text =
        std::fs::read_to_string(root.join("lint.allow")).unwrap_or_default();
    let (allow, allow_findings) = analyze::parse_allowlist(&allow_text);
    let mut findings = analyze::apply_allowlist(report.findings, &allow);
    findings.extend(allow_findings);

    if census {
        print!("{}", analyze::census_table(&report.census));
        print!("{}", analyze::ordering_table(&report.ordering_sites));
    }
    println!(
        "arieslint: {} latch sites, {} ordering sites, {} crash points, \
         {} allowlist entries",
        report.census.len(),
        report.ordering_sites.len(),
        report.crash_points.len(),
        allow.len()
    );

    if findings.is_empty() {
        println!("arieslint: clean");
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            println!("{f}");
        }
        println!("arieslint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}
