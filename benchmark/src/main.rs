//! The benchmark's one command. See `README.md` beside this crate.
//!
//! ```text
//! ariesim-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                   [--reps N] [--clients N] [--report FILE] [--quick]
//! ariesim-benchmark compare A.json B.json
//! ```
//!
//! With `--trace` (how the driver calls it) each repetition prints its
//! metrics and, as the last line, the result object of the contract:
//! `--trace 0` the end-to-end metrics, `--trace 1` the per-layer ones.
//! Without `--trace` every selected workload runs `--reps` untraced
//! repetitions and then one traced run, and both sets are summarised.

use ariesim_benchmark::host::HostRecord;
use ariesim_benchmark::metrics::{self, Value};
use ariesim_benchmark::report::{compare, Report};
use ariesim_benchmark::run::{
    run_traced, run_untraced, Phase, Rounds, RunParams, Traced, Untraced,
};
use ariesim_benchmark::spec::{self, Workload, WORKLOADS};
use ariesim_benchmark::workdir::{out_dir, WorkDir};
use ariesim_benchmark::{ladder, trace};
use ariesim_obs::json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Cli {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    reps: usize,
    clients: Option<usize>,
    report: PathBuf,
    quick: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: WORKLOADS.iter().collect(),
        seed: 1,
        seconds: 10.0,
        trace: None,
        reps: 5,
        clients: None,
        report: out_dir().join("report.json"),
        quick: false,
    };
    let (mut seconds_given, mut reps_given) = (false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            cli.quick = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                let w = spec::workload(value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; one of {names:?}")
                })?;
                cli.workloads = vec![w];
            }
            "--seed" => cli.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cli.seconds = value.parse().map_err(|_| bad())?;
                seconds_given = true;
            }
            "--trace" => {
                cli.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--reps" => {
                cli.reps = value.parse().map_err(|_| bad())?;
                reps_given = true;
            }
            "--clients" => cli.clients = Some(value.parse().map_err(|_| bad())?),
            "--report" => cli.report = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    if cli.reps == 0 || cli.clients == Some(0) {
        return Err("--reps and --clients must be at least 1".into());
    }
    // The driver's call is one repetition; so is a smoke run.
    if !reps_given && (cli.trace.is_some() || cli.quick) {
        cli.reps = 1;
    }
    if cli.quick && !seconds_given {
        cli.seconds = 0.5;
    }
    Ok(cli)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` beside this crate (no process is
/// started); `None` where the checkout is not a git repository.
fn head_commit() -> Option<String> {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).parent()?.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return Some(head.trim().to_string()); // detached
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

/// Facts of this host and build, recorded with every report.
fn host_facts() -> Vec<(&'static str, String)> {
    let commit = head_commit().unwrap_or_else(|| "unknown (not a git checkout)".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    vec![
        ("nproc", nproc().to_string()),
        ("commit", commit),
        ("profile", profile.to_string()),
        ("os", std::env::consts::OS.to_string()),
        ("arch", std::env::consts::ARCH.to_string()),
    ]
}

/// Clients a workload runs with here: never more than the host has cores.
fn clients_for(w: &Workload, requested: Option<usize>) -> Result<usize, String> {
    let n = nproc();
    match requested {
        Some(c) if c > n => Err(format!(
            "--clients {c} exceeds the {n} CPUs of this host; refusing to oversubscribe"
        )),
        Some(c) => Ok(c.min(w.clients)),
        None => Ok(w.clients.min(n)),
    }
}

fn print_values(title: &str, values: &[Value]) {
    println!("{title}");
    for v in values {
        println!("  {:<36} {:>18.4} {}", v.name, v.value, v.unit);
    }
}

/// The last line the driver reads.
fn result_line(correct: bool, attempted: u64, failed: u64, values: &[Value]) -> String {
    let mut ms = json::Object::new();
    for v in values {
        let mut m = json::Object::new();
        m.field_f64("value", v.value);
        m.field_str("unit", v.unit);
        ms.field_raw(v.name, &m.finish());
    }
    let mut o = json::Object::new();
    o.field_bool("correct", correct);
    o.field_u64("attempted", attempted);
    o.field_u64("failed", failed);
    o.field_raw("metrics", &ms.finish());
    o.finish()
}

/// Operations attempted, operations failed plus oracle violations, and the
/// first few reasons.
struct Tally {
    attempted: u64,
    failed: u64,
    reasons: Vec<String>,
}

impl Tally {
    fn of_untraced(u: &Untraced) -> Tally {
        let mut t = Tally {
            attempted: 0,
            failed: 0,
            reasons: Vec::new(),
        };
        for segment in u.segments() {
            t.add_phase(&segment.timed);
            t.add_phase(&segment.probe);
        }
        for round in &u.rounds {
            t.add_violations(&round.aftermath.violations);
        }
        t
    }

    fn add_phase(&mut self, phase: &Phase) {
        self.attempted += phase.attempted();
        self.failed += phase.failed();
        let firsts = phase.clients.iter().filter_map(|c| c.first_failure.clone());
        self.reasons
            .extend(firsts.take(5usize.saturating_sub(self.reasons.len())));
    }

    fn add_violations(&mut self, violations: &[String]) {
        self.failed += violations.len() as u64;
        self.reasons.extend(violations.iter().take(5).cloned());
    }

    fn add_traced(&mut self, t: &Traced) {
        self.add_phase(&t.phase);
        self.add_violations(&t.aftermath.violations);
    }

    fn correct(&self) -> bool {
        self.failed == 0
    }
}

struct Runner<'a> {
    cli: &'a Cli,
    e2e: Report,
    layers: Report,
    all_correct: bool,
}

impl Runner<'_> {
    /// Rounds of an untraced repetition. One that feeds the end-to-end
    /// metrics adds rounds until its timings settle; the reference repetition
    /// of a traced run feeds counts and ungated tails, and a smoke run feeds
    /// nothing, so neither does.
    fn rounds(&self, until_settled: bool) -> Rounds {
        let least = if self.cli.quick { 1 } else { spec::ROUNDS };
        let extend = until_settled && !self.cli.quick;
        Rounds {
            least,
            most: if extend { spec::MOST_ROUNDS } else { least },
            extend_for_s: spec::EXTEND_FOR * self.cli.seconds,
            wait_step_s: spec::WAIT_STEP * self.cli.seconds,
            wait_until_s: spec::WAIT_UNTIL * self.cli.seconds,
        }
    }

    fn params<'p>(
        &self,
        w: &'p Workload,
        seed: u64,
        clients: usize,
        work: &'p WorkDir,
    ) -> RunParams<'p> {
        RunParams {
            workload: w,
            seed,
            seconds: self.cli.seconds,
            clients,
            work: work.path(),
        }
    }

    /// One untraced repetition → the end-to-end metrics.
    fn untraced(&mut self, w: &Workload, seed: u64, clients: usize) -> Result<(), String> {
        let work = WorkDir::new(w.name).map_err(|e| e.to_string())?;
        // A smoke run is no measure of the host and leaves no record of it.
        let mut host = (!self.cli.quick).then(|| HostRecord::load(&out_dir().join("host-speed")));
        let params = self.params(w, seed, clients, &work);
        let u =
            run_untraced(&params, &self.rounds(true), host.as_mut()).map_err(|e| e.to_string())?;
        let values = metrics::end_to_end(&u);
        let tally = Tally::of_untraced(&u);
        let set = format!(
            "end-to-end ({} rounds, {} s waiting for the host)",
            u.rounds.len(),
            u.waited_s
        );
        self.finish(w, seed, &set, &values, &tally, false);
        Ok(())
    }

    /// One traced run → the per-layer metrics: an untraced reference
    /// repetition, a traced repetition and the ladder.
    fn traced(&mut self, w: &Workload, seed: u64, clients: usize) -> Result<(), String> {
        let work = WorkDir::new(w.name).map_err(|e| e.to_string())?;
        let p = self.params(w, seed, clients, &work);
        let u = run_untraced(&p, &self.rounds(false), None).map_err(|e| e.to_string())?;
        let t = run_traced(&p).map_err(|e| e.to_string())?;
        let trace_file = out_dir().join(format!("trace-{}.jsonl", w.name));
        trace::write_jsonl(&trace_file, &t.logs).map_err(|e| e.to_string())?;
        let scale = if self.cli.quick { 0.02 } else { 1.0 };
        let l = ladder::measure(work.path(), scale).map_err(|e| e.to_string())?;
        let values = metrics::per_layer(&u, &t, &l);
        let mut tally = Tally::of_untraced(&u);
        tally.add_traced(&t);
        println!(
            "{} spans of {} traced operations written to {}",
            t.logs.iter().map(|l| l.spans.len()).sum::<usize>(),
            t.phase.committed(),
            trace_file.display()
        );
        self.finish(w, seed, "per-layer", &values, &tally, true);
        Ok(())
    }

    fn finish(
        &mut self,
        w: &Workload,
        seed: u64,
        set: &str,
        values: &[Value],
        tally: &Tally,
        layers: bool,
    ) {
        print_values(&format!("{} seed {seed}: {set} metrics", w.name), values);
        for reason in &tally.reasons {
            println!("  FAILED: {reason}");
        }
        let report = if layers {
            &mut self.layers
        } else {
            &mut self.e2e
        };
        report.record(w.name, values);
        self.all_correct &= tally.correct();
        if self.cli.trace.is_some() {
            println!(
                "{}",
                result_line(tally.correct(), tally.attempted, tally.failed, values)
            );
        }
    }
}

fn run(cli: &Cli) -> Result<bool, String> {
    let facts = host_facts();
    println!("ariesim benchmark — closed loop, one process; host:");
    for (k, v) in &facts {
        println!("  {k}: {v}");
    }
    println!(
        "engine options: defaults but for frames — DataOnly locking, Clock eviction, no \
         background writer, leader-mode group commit, fsync off on every run (crashes are \
         simulated by Db::crash()); {} rows of 15 B key + {} B payload loaded through {} frames",
        spec::ROWS,
        spec::PAYLOAD_LEN,
        spec::LOAD_FRAMES
    );
    if cli.quick {
        println!("--quick: a smoke run of the same code paths; never report these numbers");
    }
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;

    let mut runner = Runner {
        cli,
        e2e: Report::default(),
        layers: Report::default(),
        all_correct: true,
    };
    for w in &cli.workloads {
        let clients = clients_for(w, cli.clients)?;
        println!(
            "workload {}: {clients} client(s), {} frames, {} to {} rounds of {} ops/client ({:?}, \
             read:scan:insert:update:delete {}:{}:{}:{}:{}), seconds {}",
            w.name,
            w.frames,
            runner.rounds(true).least,
            runner.rounds(true).most,
            spec::op_count(
                w.ops_per_client as f64,
                cli.seconds / spec::REFERENCE_SECONDS
            ),
            w.dist,
            w.mix.read,
            w.mix.scan,
            w.mix.insert,
            w.mix.update,
            w.mix.delete,
            cli.seconds
        );
        for rep in 0..cli.reps as u64 {
            let seed = cli.seed + rep;
            match cli.trace {
                Some(false) => runner.untraced(w, seed, clients)?,
                Some(true) => runner.traced(w, seed, clients)?,
                None => {
                    runner.untraced(w, seed, clients)?;
                    if rep + 1 == cli.reps as u64 {
                        runner.traced(w, cli.seed, clients)?;
                    }
                }
            }
        }
    }

    if cli.trace.is_none() {
        print!(
            "\nend-to-end, over {} repetition(s):\n{}",
            cli.reps,
            runner.e2e.render()
        );
        print!("\nper layer, one traced run:\n{}", runner.layers.render());
        let mut report = runner.e2e.clone();
        for (w, metrics) in runner.layers.workloads {
            report.workloads.entry(w).or_default().extend(metrics);
        }
        report.host = facts.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        std::fs::write(&cli.report, report.to_json()).map_err(|e| e.to_string())?;
        println!("report written to {}", cli.report.display());
    }
    Ok(runner.all_correct)
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let load = |p: &str| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Report::from_json(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (table, worse, unresolved) = compare(&load(a)?, &load(b)?);
    print!("{table}");
    println!("{worse} worse, {unresolved} unresolved");
    Ok(worse == 0 && unresolved == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.as_slice() {
        [cmd, a, b] if cmd == "compare" => compare_files(a, b),
        _ => parse(&args).and_then(|cli| run(&cli)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}
