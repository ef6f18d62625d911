//! Model-checker CLI.
//!
//! ```text
//! model --list                         # harnesses and expectations
//! model --quick                        # CI preset: run every harness, check expectations
//! model --harness NAME [--preemptions N] [--seed S] [--max-schedules N]
//! model replay <trace.jsonl>           # re-execute a recorded schedule exactly
//! ```
//!
//! Exit codes: 0 = expectations met, 1 = a harness misbehaved (a Pass
//! harness failed, a Race harness survived, or a replay diverged), 2 = bad
//! usage. `--quick` writes every failure trace under `target/model/` so a
//! CI log line is always one `model replay` away from a local repro.

use std::path::PathBuf;
use std::process::ExitCode;

use ariesim_model::harness::{self, Expect, Harness};
use ariesim_model::trace::Trace;
use ariesim_model::{ExploreResult, ModelOptions};

fn usage() -> ExitCode {
    eprintln!(
        "usage: model --list\n       model --quick [--preemptions N] [--seed S]\n       \
         model --harness NAME [--preemptions N] [--seed S] [--max-schedules N] [--trace-out FILE]\n       \
         model replay <trace.jsonl>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }
    if args[0] == "replay" {
        return cmd_replay(&args[1..]);
    }

    let mut opts = ModelOptions::default();
    let mut list = false;
    let mut quick = false;
    let mut name: Option<String> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--list" => list = true,
            "--quick" => quick = true,
            "--harness" => match it.next() {
                Some(n) => name = Some(n.clone()),
                None => return usage(),
            },
            "--trace-out" => match it.next() {
                Some(p) => trace_out = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--preemptions" | "--seed" | "--max-schedules" => {
                let Some(v) = it.next().and_then(|v| v.parse::<u64>().ok()) else {
                    return usage();
                };
                match a.as_str() {
                    "--preemptions" => opts.preemptions = v as usize,
                    "--seed" => opts.seed = v,
                    _ => opts.max_schedules = v,
                }
            }
            "--no-sleep-sets" => opts.sleep_sets = false,
            _ => return usage(),
        }
    }

    if list {
        for h in harness::registry() {
            println!(
                "{:26} {:4} {}",
                h.name,
                match h.expect {
                    Expect::Pass => "pass",
                    Expect::Race => "race",
                },
                h.about
            );
        }
        return ExitCode::SUCCESS;
    }
    if quick {
        return cmd_quick(&opts);
    }
    let Some(name) = name else { return usage() };
    let Some(h) = harness::find(&name) else {
        eprintln!("model: unknown harness {name:?} (try --list)");
        return ExitCode::from(2);
    };
    let res = harness::run(&h, &opts);
    report(&h, &res, &opts);
    if let (Some(f), Some(path)) = (&res.failure, &trace_out) {
        if let Err(e) = write_trace(path, &f.trace) {
            eprintln!("model: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("model: trace written to {}", path.display());
    }
    if expectation_met(&h, &res) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The CI preset: every harness under the default bound, failure traces
/// saved under target/model/.
fn cmd_quick(opts: &ModelOptions) -> ExitCode {
    let out_dir = PathBuf::from("target/model");
    let mut ok = true;
    for h in harness::registry() {
        let res = harness::run(&h, opts);
        report(&h, &res, opts);
        if let Some(f) = &res.failure {
            let path = out_dir.join(format!("{}.trace.jsonl", h.name));
            match write_trace(&path, &f.trace) {
                Ok(()) => println!("model:   trace: {}", path.display()),
                Err(e) => eprintln!("model:   trace write failed: {e}"),
            }
        }
        if !expectation_met(&h, &res) {
            ok = false;
        }
    }
    if ok {
        println!("model: all expectations met");
        ExitCode::SUCCESS
    } else {
        println!("model: EXPECTATIONS VIOLATED");
        ExitCode::FAILURE
    }
}

fn cmd_replay(args: &[String]) -> ExitCode {
    let [path] = args else { return usage() };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("model: reading {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace = match Trace::parse(&text) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("model: parsing {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(h) = harness::find(&trace.harness) else {
        eprintln!(
            "model: trace names harness {:?}, which this build does not have",
            trace.harness
        );
        return ExitCode::FAILURE;
    };
    println!(
        "model: replaying {} steps against {}",
        trace.steps.len(),
        h.name
    );
    let res = harness::run_replay(&h, &trace);
    if let Some(d) = &res.diverged {
        eprintln!("model: REPLAY DIVERGED: {d}");
        return ExitCode::FAILURE;
    }
    match (&res.failure, &trace.failure) {
        (Some(got), _) => {
            println!("model: schedule failed as recorded: {got}");
            ExitCode::SUCCESS
        }
        (None, Some(want)) => {
            eprintln!("model: REPLAY PASSED but the trace recorded: {want}");
            ExitCode::FAILURE
        }
        (None, None) => {
            println!("model: schedule completed cleanly (trace recorded no failure)");
            ExitCode::SUCCESS
        }
    }
}

fn expectation_met(h: &Harness, res: &ExploreResult) -> bool {
    match h.expect {
        Expect::Pass => res.failure.is_none(),
        Expect::Race => res.failure.is_some(),
    }
}

fn report(h: &Harness, res: &ExploreResult, opts: &ModelOptions) {
    let verdict = match (&res.failure, h.expect) {
        (Some(_), Expect::Race) => "race found (expected)",
        (Some(_), Expect::Pass) => "FAILURE",
        (None, Expect::Pass) if res.complete => "pass (exhaustive)",
        (None, Expect::Pass) => "pass (budget reached)",
        (None, Expect::Race) => "RACE NOT FOUND",
    };
    println!(
        "model: {:26} {} — {} schedules (+{} pruned), {} decisions, bound {}, {:.2?}",
        h.name, verdict, res.schedules, res.pruned, res.decisions, opts.preemptions, res.wall
    );
    if let Some(f) = &res.failure {
        println!(
            "model:   schedule {} ({} steps): {}",
            f.trace.schedule,
            f.trace.steps.len(),
            first_line(&f.message)
        );
    }
}

fn first_line(s: &str) -> &str {
    s.lines().next().unwrap_or(s)
}

fn write_trace(path: &std::path::Path, trace: &Trace) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, trace.to_jsonl())
}
