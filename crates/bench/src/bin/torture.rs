//! Crash-point torture runner.
//!
//! Enumerates every registered crash point a seeded workload reaches,
//! crashes at each one (and inside recovery itself), runs restart recovery,
//! and checks the recovered database against a trace-derived oracle. See
//! `ariesim_bench::torture` for the harness and EXPERIMENTS.md for
//! reference output.
//!
//! Usage: `cargo run --release -p ariesim-bench --bin torture -- [--quick]
//! [--verbose] [--progress] [--seed=N]`

use ariesim_bench::torture::{run_torture, TortureConfig};

fn main() {
    let mut cfg = TortureConfig::default();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => cfg.quick = true,
            "--verbose" | "-v" => cfg.verbose = true,
            "--progress" => cfg.progress = true,
            s if s.starts_with("--seed=") => match s["--seed=".len()..].parse() {
                Ok(n) => cfg.seed = n,
                Err(_) => {
                    eprintln!("torture: bad seed in {s:?}");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "torture [--quick] [--verbose] [--progress] [--seed=N]\n\
                     \n\
                     --quick        bounded enumeration for CI (first hit per point,\n\
                     \u{20}              forced-tail variants only for SMO windows)\n\
                     --verbose      one line per armed run\n\
                     --progress     after the matrix, recover the crash image once\n\
                     \u{20}              more with live phase/LSN/pages gauges printed\n\
                     --seed=N       workload seed (default 0x5eedca5e)"
                );
                return;
            }
            other => {
                eprintln!("torture: unknown argument {other:?} (try --help)");
                std::process::exit(2);
            }
        }
    }

    println!(
        "torture: enumerating crash points (seed {:#x}, {} mode)",
        cfg.seed,
        if cfg.quick { "quick" } else { "full" }
    );
    let report = match run_torture(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("torture: harness error: {e}");
            std::process::exit(1);
        }
    };

    let failures = report.failures();
    println!(
        "torture: {} distinct crash points, {} armed runs ({} crashed), \
         {} failures, {:.2}s",
        report.points.len(),
        report.runs.len(),
        report.crashes(),
        failures.len(),
        report.elapsed.as_secs_f64()
    );
    if !failures.is_empty() {
        for f in &failures {
            eprintln!(
                "torture: FAIL {} ({} hit {}): {}",
                f.point,
                f.mode,
                f.hit,
                f.error.as_deref().unwrap_or("?")
            );
        }
        std::process::exit(1);
    }
    if report.points.len() < 25 {
        eprintln!(
            "torture: only {} distinct points enumerated (expected >= 25) — \
             workload no longer reaches the instrumented boundaries",
            report.points.len()
        );
        std::process::exit(1);
    }
}
