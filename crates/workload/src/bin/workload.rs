//! `workload` — run the YCSB-style harness and emit `BENCH_<topic>.json`.
//!
//! ```text
//! workload baseline    [flags]   standalone engine -> BENCH_workload_baseline.json
//! workload replication [flags]   primary/standby pair -> BENCH_replication.json
//! workload all         [flags]   all of the above
//! workload validate FILE...      check BENCH files against the v1 schema
//!
//! flags:
//!   --quick          small preset (CI smoke: keyspace 500, 500 ops/thread)
//!   --out DIR        where BENCH files go (default .)
//!   --threads LIST   comma-separated thread counts (default 1,8)
//!   --ops N          operations per thread
//!   --keyspace N     preloaded key population
//!   --theta F        zipfian skew (0 < F < 1); --uniform for uniform
//!   --mix R:I:U:D    operation mix weights (default 70:15:10:5)
//!   --seed N         RNG seed
//!   --progress       live replication progress (lag + applied LSN) on stderr
//!   --metrics FILE   dump the metrics registry in Prometheus text format
//!   --trace FILE     dump the primary's event ring as JSONL (for foldtrace)
//! ```

use ariesim_common::tmp::TempDir;
use ariesim_db::{Db, DbOptions};
use ariesim_obs::{Obs, ObsHandle};
use ariesim_repl::ReplPair;
use ariesim_workload::{
    bench_json, load, run, validate, KeyDist, MixSpec, RunResult, Target, WorkloadConfig,
};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

struct Args {
    command: String,
    quick: bool,
    out: PathBuf,
    threads: Vec<usize>,
    ops: Option<u64>,
    keyspace: Option<u64>,
    theta: Option<f64>,
    uniform: bool,
    mix: Option<MixSpec>,
    seed: Option<u64>,
    progress: bool,
    metrics: Option<PathBuf>,
    trace: Option<PathBuf>,
    files: Vec<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: workload <baseline|replication|all> \
         [--quick] [--out DIR] [--threads N,M] [--ops N] [--keyspace N] \
         [--theta F | --uniform] [--mix R:I:U:D] [--seed N] \
         [--progress] [--metrics FILE] [--trace FILE]\n\
         \x20      workload validate FILE..."
    );
    ExitCode::FAILURE
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or("missing command")?;
    let mut args = Args {
        command,
        quick: false,
        out: PathBuf::from("."),
        threads: vec![1, 8],
        ops: None,
        keyspace: None,
        theta: None,
        uniform: false,
        mix: None,
        seed: None,
        progress: false,
        metrics: None,
        trace: None,
        files: Vec::new(),
    };
    while let Some(a) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--quick" => args.quick = true,
            "--uniform" => args.uniform = true,
            "--progress" => args.progress = true,
            "--metrics" => args.metrics = Some(PathBuf::from(value("--metrics")?)),
            "--trace" => args.trace = Some(PathBuf::from(value("--trace")?)),
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--threads" => {
                args.threads = value("--threads")?
                    .split(',')
                    .map(|t| t.parse().map_err(|_| format!("bad thread count {t:?}")))
                    .collect::<Result<_, _>>()?;
                if args.threads.is_empty() {
                    return Err("--threads needs at least one count".into());
                }
            }
            "--ops" => args.ops = Some(value("--ops")?.parse().map_err(|e| format!("--ops: {e}"))?),
            "--keyspace" => {
                args.keyspace = Some(
                    value("--keyspace")?
                        .parse()
                        .map_err(|e| format!("--keyspace: {e}"))?,
                )
            }
            "--theta" => {
                args.theta = Some(
                    value("--theta")?
                        .parse()
                        .map_err(|e| format!("--theta: {e}"))?,
                )
            }
            "--mix" => {
                args.mix = Some(MixSpec::parse(&value("--mix")?).map_err(|e| e.to_string())?)
            }
            "--seed" => {
                args.seed = Some(value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?)
            }
            other if !other.starts_with('-') && args.command == "validate" => {
                args.files.push(PathBuf::from(other))
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn config_for(args: &Args, threads: usize) -> WorkloadConfig {
    let (def_ops, def_keyspace) = if args.quick { (500, 500) } else { (10_000, 10_000) };
    WorkloadConfig {
        threads,
        ops_per_thread: args.ops.unwrap_or(def_ops),
        keyspace: args.keyspace.unwrap_or(def_keyspace),
        payload: 100,
        dist: if args.uniform {
            KeyDist::Uniform
        } else {
            KeyDist::Zipfian(args.theta.unwrap_or(0.99))
        },
        mix: args.mix.unwrap_or(MixSpec::CRUD),
        seed: args.seed.unwrap_or(0x5EED),
        standby_read_fraction: 0.5,
    }
}

fn db_options() -> DbOptions {
    DbOptions {
        frames: 2048,
        ..DbOptions::default()
    }
}

fn print_run(label: &str, r: &RunResult) {
    println!(
        "  {label}: {} threads, {} ops in {:.2}s = {:.0} ops/s \
         (p50 read {}ns, p99 read {}ns, p99 commit {}ns, aborts {}, \
         standby reads {}, max lag {}B / {} LSNs)",
        r.threads,
        r.ops,
        r.elapsed.as_secs_f64(),
        r.throughput(),
        r.read.p50(),
        r.read.p99(),
        r.commit.p99(),
        r.aborts,
        r.standby_reads,
        r.max_lag_bytes,
        r.max_lag_lsn_delta,
    );
    // Commit-path attribution: where the operation wall time actually went.
    let wall = r.wall_ns.max(1);
    let mut parts: Vec<String> = r
        .breakdown
        .named()
        .iter()
        .filter(|(_, self_ns, _)| *self_ns > 0)
        .map(|(name, self_ns, _)| {
            format!("{name} {:.1}%", 100.0 * *self_ns as f64 / wall as f64)
        })
        .collect();
    if parts.is_empty() {
        parts.push("none recorded".into());
    }
    println!(
        "    breakdown ({:.1}% of {:.1}ms op wall time attributed): {}",
        100.0 * r.attribution_coverage(),
        r.wall_ns as f64 / 1e6,
        parts.join(", ")
    );
}

/// Dump the full metrics registry for an obs domain as Prometheus text.
/// Overwritten per run; the file holds the most recent run's metrics.
fn dump_metrics(path: &PathBuf, obs: &ObsHandle) -> Result<(), String> {
    let reg = ariesim_obs::registry::for_obs(obs);
    write_file(path, &reg.render_prometheus())
}

/// Dump an obs domain's event ring as JSONL (input for `foldtrace`).
/// Overwritten per run; the file holds the most recent run's events.
fn dump_trace(path: &PathBuf, obs: &ObsHandle) -> Result<(), String> {
    write_file(path, &obs.ring.dump_jsonl())
}

fn write_file(path: &PathBuf, text: &str) -> Result<(), String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
    }
    std::fs::write(path, text).map_err(|e| e.to_string())?;
    println!("wrote {}", path.display());
    Ok(())
}

/// One fresh engine per thread count: runs must not see each other's
/// inserted keys or warmed pool.
fn bench_baseline(args: &Args) -> Result<String, String> {
    let mut runs = Vec::new();
    for &threads in &args.threads {
        let cfg = config_for(args, threads);
        let dir = TempDir::new("workload-baseline");
        let db = Db::open_with_obs(dir.path(), db_options(), Obs::enabled(4096))
            .map_err(|e| e.to_string())?;
        load(&db, &cfg).map_err(|e| e.to_string())?;
        let r = run(&Target::Standalone(&db), &cfg).map_err(|e| e.to_string())?;
        db.verify_consistency().map_err(|e| e.to_string())?;
        print_run("baseline", &r);
        if let Some(path) = &args.metrics {
            dump_metrics(path, db.obs())?;
        }
        if let Some(path) = &args.trace {
            dump_trace(path, db.obs())?;
        }
        runs.push(r);
    }
    Ok(bench_json("workload_baseline", &config_for(args, 0), &runs))
}

fn bench_replication(args: &Args) -> Result<String, String> {
    let mut runs = Vec::new();
    for &threads in &args.threads {
        let cfg = config_for(args, threads);
        let dir = TempDir::new("workload-repl");
        let db = Db::open_with_obs(
            &dir.path().join("primary"),
            db_options(),
            Obs::enabled(4096),
        )
        .map_err(|e| e.to_string())?;
        load(&db, &cfg).map_err(|e| e.to_string())?;
        let pair = ReplPair::create(db, &dir.path().join("standby"), Obs::enabled(4096))
            .map_err(|e| e.to_string())?;
        // `--progress`: while run() drives traffic, a sampler thread polls
        // the standby's lag gauges and applied watermark, printing a line
        // whenever they move.
        let r = if args.progress {
            let stop = AtomicBool::new(false);
            std::thread::scope(|s| {
                let standby = &pair.standby;
                let sampler = s.spawn(|| {
                    let mut last = (u64::MAX, u64::MAX);
                    while !stop.load(Ordering::Acquire) {
                        let lag = &standby.obs().gauge.repl_lag;
                        let now = (lag.bytes.last(), standby.applied_lsn().0);
                        if now != last {
                            eprintln!(
                                "    progress: applied lsn {}, lag {}B ({} LSNs)",
                                now.1,
                                now.0,
                                lag.lsn_delta.last()
                            );
                            last = now;
                        }
                        std::thread::sleep(Duration::from_millis(50));
                    }
                });
                let r = run(&Target::Repl(&pair), &cfg);
                stop.store(true, Ordering::Release);
                sampler.join().expect("progress sampler panicked");
                r
            })
        } else {
            run(&Target::Repl(&pair), &cfg)
        }
        .map_err(|e| e.to_string())?;
        if let Some(path) = &args.metrics {
            dump_metrics(path, pair.primary.obs())?;
        }
        if let Some(path) = &args.trace {
            dump_trace(path, pair.primary.obs())?;
        }
        let rows = pair
            .primary
            .verify_consistency()
            .map_err(|e| e.to_string())?
            .rows;
        let standby_rows = pair.standby.count("kv_pk").map_err(|e| e.to_string())?;
        if standby_rows != rows {
            return Err(format!(
                "standby diverged after drain: {standby_rows} keys vs primary {rows} rows"
            ));
        }
        print_run("replication", &r);
        runs.push(r);
    }
    Ok(bench_json("replication", &config_for(args, 0), &runs))
}

fn write_bench(out_dir: &PathBuf, topic: &str, text: &str) -> Result<(), String> {
    validate(text).map_err(|e| format!("self-check of emitted JSON failed: {e}"))?;
    std::fs::create_dir_all(out_dir).map_err(|e| e.to_string())?;
    let path = out_dir.join(format!("BENCH_{topic}.json"));
    std::fs::write(&path, text).map_err(|e| e.to_string())?;
    println!("wrote {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("workload: {e}");
            return usage();
        }
    };
    let result = match args.command.as_str() {
        "baseline" => bench_baseline(&args)
            .and_then(|text| write_bench(&args.out, "workload_baseline", &text)),
        "replication" => bench_replication(&args)
            .and_then(|text| write_bench(&args.out, "replication", &text)),
        "all" => bench_baseline(&args)
            .and_then(|text| write_bench(&args.out, "workload_baseline", &text))
            .and_then(|()| bench_replication(&args))
            .and_then(|text| write_bench(&args.out, "replication", &text)),
        "validate" => {
            if args.files.is_empty() {
                return usage();
            }
            let mut res = Ok(());
            for f in &args.files {
                match std::fs::read_to_string(f)
                    .map_err(|e| e.to_string())
                    .and_then(|text| validate(&text).map_err(|e| e.to_string()))
                {
                    Ok(topic) => println!("{}: valid ({topic})", f.display()),
                    Err(e) => {
                        eprintln!("{}: INVALID: {e}", f.display());
                        res = Err("validation failed".to_string());
                    }
                }
            }
            res
        }
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("workload: {e}");
            ExitCode::FAILURE
        }
    }
}
