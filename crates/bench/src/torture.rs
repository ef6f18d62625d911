//! The crash-recovery torture harness.
//!
//! Drives a seeded, deterministic mixed workload (inserts causing splits, a
//! rolled-back transaction spanning an SMO, deletes emptying pages, a fuzzy
//! checkpoint, a pool flush, and a loser left in flight), enumerates every
//! [`ariesim_fault`] crash point the workload reaches, then re-runs the
//! workload once per point with that point armed: the run crashes there,
//! restart recovery runs, and the recovered database is checked against a
//! trace-derived oracle:
//!
//! * **(a)** every key of every committed transaction is present;
//! * **(b)** every key touched only by uncommitted transactions is absent;
//! * **(c)** `verify_consistency` passes — B+-tree structural invariants
//!   hold and heap/index agree exactly;
//! * **(d)** the observability monitor reports zero redo traversals (redo
//!   stayed page-oriented) and no latch-protocol violations.
//!
//! A second phase crashes *inside recovery itself*: the harness builds a
//! crash image with dirty pages and a loser, records every point reached by
//! restart, and for each one crashes mid-recovery and recovers again —
//! ARIES restart must be restartable.
//!
//! The oracle needs no guessing about the ambiguous crash-during-commit
//! window: a transaction counts as committed exactly when its Commit record
//! is in the *recovered* log, which is recovery's own criterion.

use crate::XorShift;
use ariesim_common::tmp::TempDir;
use ariesim_common::{Error, Lsn, Result};
use ariesim_db::{Db, DbOptions, FetchCond, Row};
use ariesim_fault as fault;
use ariesim_obs::{recovery_phase, Obs, ObsHandle};
use ariesim_repl::fork_standby;
use ariesim_wal::RecordKind;
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Workload trace
// ---------------------------------------------------------------------------

/// One data operation on the torture table.
#[derive(Clone, Debug)]
pub enum Op {
    Insert(u32),
    Delete(u32),
}

/// How a trace transaction ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnKind {
    Commit,
    Rollback,
    /// Left in flight with its records forced to the log: the loser restart
    /// must roll back.
    LeaveOpen,
}

/// One step of the scripted workload.
#[derive(Clone, Debug)]
pub enum Step {
    Txn { kind: TxnKind, ops: Vec<Op> },
    Checkpoint,
    FlushPool,
}

/// Shuffled `Insert` ops for key numbers `lo..hi`.
fn perm_ops(rng: &mut XorShift, lo: u32, hi: u32) -> Vec<Op> {
    let mut v: Vec<u32> = (lo..hi).collect();
    for i in (1..v.len()).rev() {
        let j = rng.below((i + 1) as u32) as usize;
        v.swap(i, j);
    }
    v.into_iter().map(Op::Insert).collect()
}

/// The standard torture trace. Sized so that (with [`db_options`]'s small
/// pool and the padded keys below) the workload provably crosses every SMO
/// boundary: leaf splits with rechaining, a split inside a transaction that
/// rolls back (dummy-CLR skip during undo), page deletions up the left edge,
/// dirty-page eviction, a fuzzy checkpoint, and an in-flight loser.
pub fn standard_trace(seed: u64) -> Vec<Step> {
    let mut rng = XorShift(seed | 1);
    let mut perm = |lo: u32, hi: u32| -> Vec<Op> { perm_ops(&mut rng, lo, hi) };
    vec![
        Step::Txn {
            kind: TxnKind::Commit,
            ops: perm(0, 140),
        },
        Step::Txn {
            kind: TxnKind::Commit,
            ops: perm(140, 300),
        },
        Step::Checkpoint,
        Step::Txn {
            kind: TxnKind::Rollback,
            ops: perm(300, 340),
        },
        Step::FlushPool,
        Step::Txn {
            kind: TxnKind::Commit,
            ops: (0..130).map(Op::Delete).collect(),
        },
        // Refill the emptied low range: these land in the leftmost leaf,
        // whose split — a leaf WITH a right neighbour — exercises the
        // next-pointer rechain window (`smo.split.rechained`), which
        // rightmost-leaf splits never do.
        Step::Txn {
            kind: TxnKind::Commit,
            ops: perm(0, 130),
        },
        Step::Txn {
            kind: TxnKind::LeaveOpen,
            ops: perm(400, 430),
        },
    ]
}

/// The replication torture trace, plus the step index at which the standby
/// is forked. The pre-fork phase commits a base population (copied as base
/// backup); the post-fork phase commits, rolls back, deletes, and leaves a
/// loser in flight — all of it pulled by the standby after each step and,
/// at the end, survived through promotion.
pub fn repl_trace(seed: u64) -> (Vec<Step>, usize) {
    let mut rng = XorShift(seed | 3);
    let trace = vec![
        // Phase A (pre-fork): the base backup's contents.
        Step::Txn {
            kind: TxnKind::Commit,
            ops: perm_ops(&mut rng, 0, 120),
        },
        // ---- standby forked here ----
        Step::Txn {
            kind: TxnKind::Commit,
            ops: perm_ops(&mut rng, 120, 200),
        },
        // A checkpoint whose master-record pointer the standby must adopt.
        Step::Checkpoint,
        Step::Txn {
            kind: TxnKind::Rollback,
            ops: perm_ops(&mut rng, 300, 330),
        },
        Step::Txn {
            kind: TxnKind::Commit,
            ops: (0..40).map(Op::Delete).collect(),
        },
        Step::Txn {
            kind: TxnKind::LeaveOpen,
            ops: perm_ops(&mut rng, 400, 420),
        },
    ];
    (trace, 1)
}

/// Indexed key for trace key number `n`: padded so a leaf holds ~100 keys
/// and the trace's 300 inserts split several times.
pub fn key_of(n: u32) -> Vec<u8> {
    format!("k{n:06}-{:-<40}", "").into_bytes()
}

fn row_of(n: u32) -> Row {
    Row::new(vec![
        key_of(n),
        format!("payload-{n}-{:x<160}", "").into_bytes(),
    ])
}

/// Every key number the trace touches (for presence/absence spot checks).
pub fn touched_keys(trace: &[Step]) -> BTreeSet<u32> {
    let mut s = BTreeSet::new();
    for step in trace {
        if let Step::Txn { ops, .. } = step {
            for op in ops {
                match op {
                    Op::Insert(n) | Op::Delete(n) => {
                        s.insert(*n);
                    }
                }
            }
        }
    }
    s
}

/// Pool sized small enough that the workload's working set forces dirty
/// evictions (the `pool.evict.*` crash points), large enough for the deepest
/// simultaneous pin chain.
pub fn db_options() -> DbOptions {
    DbOptions {
        frames: 12,
        ..DbOptions::default()
    }
}

/// Open the database and run DDL. Runs with hooks cold (DDL catalog
/// persistence is force-written outside the log discipline; crashing there
/// is not a recoverable scenario by design) — the caller activates the
/// fault registry afterwards.
pub fn prologue(dir: &Path) -> Result<Arc<Db>> {
    let db = Db::open(dir, db_options())?;
    db.create_table("t", 2)?;
    db.create_index("t_pk", "t", 0, true)?;
    Ok(db)
}

/// Execute the trace. Appends `(txn_id, step_index)` to `started` at each
/// begin so the oracle can map recovered Commit records back to trace
/// transactions even if the run crashes mid-step. Returns the engine (for
/// the harness to crash or inspect) on completion.
pub fn drive_steps(
    db: Arc<Db>,
    trace: &[Step],
    started: &mut Vec<(u64, usize)>,
) -> Result<Arc<Db>> {
    for (idx, step) in trace.iter().enumerate() {
        match step {
            Step::Checkpoint => {
                db.checkpoint()?;
            }
            Step::FlushPool => {
                db.pool.flush_all()?;
            }
            Step::Txn { kind, ops } => {
                let txn = db.begin();
                started.push((txn.id.0, idx));
                for op in ops {
                    match op {
                        Op::Insert(n) => {
                            db.insert_row(&txn, "t", &row_of(*n))?;
                        }
                        Op::Delete(n) => {
                            let (rid, _) = db
                                .fetch_via(&txn, "t_pk", &key_of(*n), FetchCond::Eq)?
                                .ok_or_else(|| {
                                    Error::Internal(format!("trace deletes absent key {n}"))
                                })?;
                            db.delete_row(&txn, "t", rid)?;
                        }
                    }
                }
                match kind {
                    TxnKind::Commit => db.commit(&txn)?,
                    TxnKind::Rollback => db.rollback(&txn)?,
                    TxnKind::LeaveOpen => db.log.flush_all()?,
                }
            }
        }
    }
    Ok(db)
}

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

/// Keys that must exist after recovery: replay, in execution order, the ops
/// of every trace transaction whose Commit record made it into the recovered
/// log. (That is recovery's own commit criterion, so the ambiguous
/// crash-during-commit window resolves identically for oracle and engine.)
pub fn expected_keys(db: &Db, trace: &[Step], started: &[(u64, usize)]) -> BTreeSet<u32> {
    let committed: BTreeSet<u64> = db
        .log
        .scan(Lsn::NULL)
        .filter_map(|r| r.ok())
        .filter(|r| r.kind == RecordKind::Commit)
        .map(|r| r.txn.0)
        .collect();
    let mut keys = BTreeSet::new();
    for &(txn_id, idx) in started {
        if !committed.contains(&txn_id) {
            continue;
        }
        if let Step::Txn { ops, .. } = &trace[idx] {
            for op in ops {
                match op {
                    Op::Insert(n) => {
                        keys.insert(*n);
                    }
                    Op::Delete(n) => {
                        keys.remove(n);
                    }
                }
            }
        }
    }
    keys
}

/// Check the four recovery guarantees against the oracle. `Err` carries a
/// human-readable description of the first violation.
pub fn verify_recovered(
    db: &Arc<Db>,
    expected: &BTreeSet<u32>,
    touched: &BTreeSet<u32>,
) -> std::result::Result<(), String> {
    // (c) structure + heap/index agreement.
    let report = db
        .verify_consistency()
        .map_err(|e| format!("consistency check failed: {e}"))?;
    if report.rows != expected.len() {
        return Err(format!(
            "row count mismatch: expected {}, recovered {}",
            expected.len(),
            report.rows
        ));
    }
    // (d) page-oriented redo and clean latch protocol throughout recovery.
    let mon = db.pool.obs().monitor.snapshot();
    if !mon.clean() {
        return Err(format!("monitor violations after recovery: {mon:?}"));
    }
    // (a) + (b): every touched key present iff the oracle says so.
    let txn = db.begin();
    for &n in touched {
        let found = db
            .fetch_via(&txn, "t_pk", &key_of(n), FetchCond::Eq)
            .map_err(|e| format!("fetch of key {n}: {e}"))?
            .is_some();
        let want = expected.contains(&n);
        if found != want {
            return Err(format!(
                "key {n}: {} after recovery but oracle says {}",
                if found { "present" } else { "absent" },
                if want { "present" } else { "absent" }
            ));
        }
    }
    db.commit(&txn).map_err(|e| format!("verify txn commit: {e}"))?;
    Ok(())
}

// ---------------------------------------------------------------------------
// The torture runner
// ---------------------------------------------------------------------------

/// Runner knobs.
#[derive(Clone, Debug)]
pub struct TortureConfig {
    pub seed: u64,
    /// Bounded enumeration for CI: first hit of each point only, forced-tail
    /// variants only for the SMO windows.
    pub quick: bool,
    /// Print one line per run.
    pub verbose: bool,
    /// After the matrix, recover the pristine crash image once more with
    /// live progress gauges sampled to stdout (`--progress`).
    pub progress: bool,
}

impl Default for TortureConfig {
    fn default() -> Self {
        TortureConfig {
            seed: 0x5eed_ca5e,
            quick: false,
            verbose: false,
            progress: false,
        }
    }
}

/// Outcome of one armed run.
#[derive(Clone, Debug)]
pub struct RunResult {
    pub point: String,
    /// "flushed" | "forced" | "recovery" | "repl".
    pub mode: &'static str,
    /// Which hit of the point was armed.
    pub hit: u64,
    /// Whether the armed point actually fired.
    pub fired: bool,
    pub error: Option<String>,
}

/// Aggregate result of a torture run.
#[derive(Debug, Default)]
pub struct TortureReport {
    /// Distinct crash-point names enumerated (workload + recovery phases).
    pub points: Vec<String>,
    pub runs: Vec<RunResult>,
    pub elapsed: Duration,
}

impl TortureReport {
    pub fn failures(&self) -> Vec<&RunResult> {
        self.runs.iter().filter(|r| r.error.is_some()).collect()
    }

    pub fn crashes(&self) -> usize {
        self.runs.iter().filter(|r| r.fired).count()
    }

    pub fn ok(&self) -> bool {
        self.runs.iter().all(|r| r.error.is_none())
    }
}

/// Copy a database directory file-by-file (crash images are flat).
pub fn copy_dir(src: &Path, dst: &Path) -> Result<()> {
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), dst.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// One workload-phase run: arm `point` at `hit`, drive the trace to the
/// crash, check the crashed engine's monitor (the WAL rule at every
/// write-back up to the crash, and the latch protocol), recover, verify.
fn workload_run(
    point: &str,
    hit: u64,
    forced: bool,
    trace: &[Step],
    touched: &BTreeSet<u32>,
) -> Result<RunResult> {
    let dir = TempDir::new("torture-run");
    let db = prologue(dir.path())?;
    if forced {
        let log = db.log.clone();
        fault::set_pre_crash_hook(move || {
            let _ = log.flush_all();
        });
        fault::arm_forced(point, hit);
    } else {
        fault::arm(point, hit);
    }
    fault::activate();
    let mut started = Vec::new();
    let crashed_obs = db.obs().clone();
    let out = fault::run_to_crash(|| drive_steps(db, trace, &mut started));
    fault::disarm();
    fault::clear_pre_crash_hook();
    let mut error = None;
    let fired = match out {
        fault::Outcome::Crashed(sig) => {
            debug_assert_eq!(sig.point, point);
            true
        }
        fault::Outcome::Completed(r) => {
            match r {
                Ok(db) => drop(db.crash()), // unreached: crash at the end instead
                Err(e) => error = Some(format!("workload error: {e}")),
            }
            false
        }
    };
    let mon = crashed_obs.monitor.snapshot();
    if error.is_none() && !mon.clean() {
        error = Some(format!("monitor violations before the crash: {mon:?}"));
    }
    if error.is_none() {
        match Db::open(dir.path(), db_options()) {
            Err(e) => error = Some(format!("recovery failed: {e}")),
            Ok(db) => {
                let expected = expected_keys(&db, trace, &started);
                error = verify_recovered(&db, &expected, touched).err();
            }
        }
    }
    Ok(RunResult {
        point: point.to_string(),
        mode: if forced { "forced" } else { "flushed" },
        hit,
        fired,
        error,
    })
}

/// The post-fork half of the replication scenario, run on the harness
/// thread (crash arming is thread-scoped, so the standby's pull, ingest and
/// apply are pumped inline, not on a pumper thread): fork a standby of
/// `primary`, drive the post-fork trace steps with a full pull-ingest-apply
/// drain after each, then fail the primary over and promote. Extends `started` with `(txn_id, combined-trace index)` as it
/// goes, so the oracle survives a crash anywhere inside.
fn drive_repl_scenario(
    primary: Arc<Db>,
    standby_dir: &Path,
    trace: &[Step],
    fork_at: usize,
    started: &mut Vec<(u64, usize)>,
) -> Result<Arc<Db>> {
    let standby = fork_standby(&primary, standby_dir, ariesim_obs::Obs::disabled())?;
    for (i, step) in trace[fork_at..].iter().enumerate() {
        let mut tmp = Vec::new();
        drive_steps(primary.clone(), std::slice::from_ref(step), &mut tmp)?;
        started.extend(tmp.into_iter().map(|(t, _)| (t, fork_at + i)));
        standby.sync()?;
    }
    drop(primary);
    standby.promote()
}

/// One replication-phase run: drive the pre-fork trace cold, arm `point`
/// at `hit`, run the fork/pull/apply/promote scenario to the crash, then
/// recover the standby's directory and verify it against the oracle — the
/// standby's own recovered log decides which transactions count as
/// committed, exactly as an unplanned failover would.
fn repl_run(
    point: &str,
    hit: u64,
    trace: &[Step],
    fork_at: usize,
    touched: &BTreeSet<u32>,
) -> Result<RunResult> {
    let dir = TempDir::new("torture-repl");
    let standby_dir = dir.path().join("standby");
    let db = prologue(&dir.path().join("primary"))?;
    let mut started = Vec::new();
    let db = drive_steps(db, &trace[..fork_at], &mut started)?;
    fault::arm(point, hit);
    fault::activate();
    let out = fault::run_to_crash(|| {
        drive_repl_scenario(db, &standby_dir, trace, fork_at, &mut started)
    });
    fault::disarm();
    let mut error = None;
    let fired = match out {
        fault::Outcome::Crashed(sig) => {
            debug_assert_eq!(sig.point, point);
            true
        }
        fault::Outcome::Completed(r) => {
            match r {
                // Completed without firing: fail the *promoted* engine too
                // and verify its recovery below.
                Ok(promoted) => drop(promoted.crash()),
                Err(e) => error = Some(format!("replication scenario error: {e}")),
            }
            false
        }
    };
    if error.is_none() {
        match Db::open(&standby_dir, db_options()) {
            Err(e) => error = Some(format!("standby recovery failed: {e}")),
            Ok(sdb) => {
                let expected = expected_keys(&sdb, trace, &started);
                error = verify_recovered(&sdb, &expected, touched).err();
            }
        }
    }
    Ok(RunResult {
        point: point.to_string(),
        mode: "repl",
        hit,
        fired,
        error,
    })
}

/// Enumerate the crash points the standard workload (plus the restart of its
/// crash image) reaches, without arming any of them. One record pass, no
/// armed runs: this is the ground truth for `arieslint --crash-points`.
pub fn list_points(cfg: &TortureConfig) -> Result<Vec<(String, u64)>> {
    let _x = fault::exclusive();
    let trace = standard_trace(cfg.seed);
    let dir = TempDir::new("torture-list");
    let db = prologue(dir.path())?;
    fault::record();
    fault::activate();
    let mut started = Vec::new();
    let db = drive_steps(db, &trace, &mut started)?;
    fault::disarm();
    let mut points: Vec<(String, u64)> = fault::recorded()
        .into_iter()
        .map(|(n, h)| (n.to_string(), h))
        .collect();
    let image = db.crash();
    let recdir = dir.path().join("rec");
    copy_dir(&image, &recdir)?;
    fault::record();
    fault::activate();
    let db = Db::open(&recdir, db_options())?;
    fault::disarm();
    drop(db);
    for (name, hits) in fault::recorded() {
        match points.iter_mut().find(|(n, _)| n == name) {
            Some((_, h)) => *h += hits,
            None => points.push((name.to_string(), hits)),
        }
    }

    // The replication scenario reaches the pull/ingest/apply/promote points
    // none of the above can: fork a standby mid-trace, drain it after every
    // step, promote at the end.
    let (rtrace, fork_at) = repl_trace(cfg.seed);
    let rdir = TempDir::new("torture-list-repl");
    let db = prologue(&rdir.path().join("primary"))?;
    let mut rstarted = Vec::new();
    let db = drive_steps(db, &rtrace[..fork_at], &mut rstarted)?;
    fault::record();
    fault::activate();
    let promoted = drive_repl_scenario(
        db,
        &rdir.path().join("standby"),
        &rtrace,
        fork_at,
        &mut rstarted,
    )?;
    fault::disarm();
    drop(promoted);
    for (name, hits) in fault::recorded() {
        match points.iter_mut().find(|(n, _)| n == name) {
            Some((_, h)) => *h += hits,
            None => points.push((name.to_string(), hits)),
        }
    }
    points.sort();
    Ok(points)
}

/// Print one progress line when the recovery gauges moved. The restart
/// thread's gauge stores are relaxed and a sample may catch adjacent
/// instants, so within one phase a sample that would step the redo LSN or
/// page count *backwards* is discarded as stale — the printed sequence is
/// monotone per phase by construction.
fn print_recovery_sample(obs: &ObsHandle, last: &mut Option<(u64, u64, u64, u64, u64)>) {
    let r = &obs.gauge.recovery;
    let now = (
        r.phase.last(),
        r.current_lsn.last(),
        r.target_lsn.last(),
        r.pages_redone.last(),
        r.losers_remaining.last(),
    );
    if let Some(prev) = *last {
        if now == prev {
            return;
        }
        if now.0 == prev.0 && (now.1 < prev.1 || now.3 < prev.3) {
            return; // stale cross-gauge read within a phase
        }
    }
    println!(
        "    recovery: phase {:<8} lsn {}/{} pages_redone {} losers_remaining {}",
        recovery_phase::name(now.0),
        now.1,
        now.2,
        now.3,
        now.4
    );
    *last = Some(now);
}

/// Recover a crash image once with an enabled obs domain, sampling the
/// live recovery-progress gauges from a second thread (the `--progress`
/// surface). A final synchronous sample guarantees at least one line even
/// when recovery finishes between two sampler wakeups.
pub fn recover_with_progress(image: &Path) -> Result<()> {
    let obs = Obs::enabled(4096);
    let stop = AtomicBool::new(false);
    let db = std::thread::scope(|s| {
        let sampler_obs = obs.clone();
        let stop = &stop;
        let sampler = s.spawn(move || {
            let mut last = None;
            while !stop.load(Ordering::Acquire) {
                print_recovery_sample(&sampler_obs, &mut last);
                std::thread::sleep(Duration::from_micros(200));
            }
        });
        let db = Db::open_with_obs(image, db_options(), obs.clone());
        stop.store(true, Ordering::Release);
        sampler.join().expect("progress sampler panicked");
        db
    })?;
    print_recovery_sample(&obs, &mut None);
    let mon = db.pool.obs().monitor.snapshot();
    if !mon.clean() {
        return Err(Error::Internal(format!(
            "monitor violations during progress recovery: {mon:?}"
        )));
    }
    Ok(())
}

/// Full torture run. Must not be called while holding [`fault::exclusive`]
/// (the runner takes it itself).
pub fn run_torture(cfg: &TortureConfig) -> Result<TortureReport> {
    let _x = fault::exclusive();
    let start = Instant::now();
    let trace = standard_trace(cfg.seed);
    let touched = touched_keys(&trace);
    let mut report = TortureReport::default();

    // ---- Phase 0: record every point the workload reaches ----------------
    let dir0 = TempDir::new("torture-record");
    let db = prologue(dir0.path())?;
    fault::record();
    fault::activate();
    let mut started0 = Vec::new();
    let db = drive_steps(db, &trace, &mut started0)?;
    fault::disarm();
    let workload_points = fault::recorded();
    let snap = db.stats.snapshot();
    if snap.smo_splits == 0 || snap.smo_page_deletes == 0 {
        return Err(Error::Internal(format!(
            "torture workload failed to exercise SMOs (splits {}, page deletes {})",
            snap.smo_splits, snap.smo_page_deletes
        )));
    }
    let image = db.crash();

    // Preserve the pristine crash image (losers in flight, dirty pages
    // lost) for the recovery-phase enumeration: every later open of a copy
    // mutates it.
    let scratch = TempDir::new("torture-scratch");
    let pristine = scratch.path().join("pristine");
    copy_dir(&image, &pristine)?;

    // ---- Phase 1: crash at every workload point --------------------------
    for (name, hits) in &workload_points {
        report.points.push(name.to_string());
        let mut variants: Vec<(u64, bool)> = vec![(1, false)];
        if !cfg.quick && *hits > 1 {
            variants.push((*hits, false));
        }
        // Forced-tail (whole log tail durable at the crash instant) is the
        // adversarial case for the SMO windows: the partial SMO's records
        // ARE in the log. Never valid for wal.* points (the pre-crash hook
        // re-enters the log manager).
        if !name.starts_with("wal.") && (!cfg.quick || name.starts_with("smo.")) {
            variants.push((1, true));
        }
        for (hit, forced) in variants {
            let run = workload_run(name, hit, forced, &trace, &touched)?;
            if cfg.verbose {
                println!(
                    "  {:-<44} {:>7} hit {:>3}  {}",
                    format!("{} ", run.point),
                    run.mode,
                    run.hit,
                    match (&run.error, run.fired) {
                        (Some(e), _) => format!("FAIL: {e}"),
                        (None, true) => "crashed, recovered ok".to_string(),
                        (None, false) => "unfired, recovered ok".to_string(),
                    }
                );
            }
            report.runs.push(run);
        }
    }

    // ---- Phase 2: crash inside recovery itself ---------------------------
    // Record the points restart reaches on the pristine image.
    let recdir = scratch.path().join("rec-record");
    copy_dir(&pristine, &recdir)?;
    fault::record();
    fault::activate();
    let db = Db::open(&recdir, db_options())?;
    fault::disarm();
    let recovery_points = fault::recorded();
    let expected0 = expected_keys(&db, &trace, &started0);
    if let Some(e) = verify_recovered(&db, &expected0, &touched).err() {
        return Err(Error::Internal(format!("baseline recovery failed: {e}")));
    }
    drop(db);

    for (i, (name, _)) in recovery_points.iter().enumerate() {
        if !report.points.iter().any(|p| p == name) {
            report.points.push(name.to_string());
        }
        let d = scratch.path().join(format!("rec-{i}"));
        copy_dir(&pristine, &d)?;
        fault::arm(name, 1);
        fault::activate();
        let out = fault::run_to_crash(|| Db::open(&d, db_options()));
        fault::disarm();
        let mut error = None;
        let fired = match out {
            fault::Outcome::Crashed(_) => true,
            fault::Outcome::Completed(r) => {
                match r {
                    Ok(db) => drop(db),
                    Err(e) => error = Some(format!("first recovery error: {e}")),
                }
                false
            }
        };
        if error.is_none() {
            // Recover again from the mid-recovery crash; restart must be
            // restartable (repeating history is idempotent, CLR chains
            // bound the undo).
            match Db::open(&d, db_options()) {
                Err(e) => error = Some(format!("re-recovery failed: {e}")),
                Ok(db) => {
                    error = verify_recovered(&db, &expected0, &touched).err();
                }
            }
        }
        let run = RunResult {
            point: name.to_string(),
            mode: "recovery",
            hit: 1,
            fired,
            error,
        };
        if cfg.verbose {
            println!(
                "  {:-<44} {:>7} hit {:>3}  {}",
                format!("{} ", run.point),
                run.mode,
                run.hit,
                match (&run.error, run.fired) {
                    (Some(e), _) => format!("FAIL: {e}"),
                    (None, true) => "crashed mid-recovery, re-recovered ok".to_string(),
                    (None, false) => "unfired, recovered ok".to_string(),
                }
            );
        }
        report.runs.push(run);
    }

    // ---- Phase 3: crash inside the replication machinery -----------------
    // Record the points the fork/pull/apply/promote scenario reaches, check
    // that the completed scenario satisfies the failover oracle, then crash
    // at each replication-specific point and re-verify. Phase 1 already
    // covers the engine-internal points the scenario re-hits.
    let (rtrace, fork_at) = repl_trace(cfg.seed);
    let rtouched = touched_keys(&rtrace);
    let rdir = TempDir::new("torture-repl-record");
    let standby0 = rdir.path().join("standby");
    let db = prologue(&rdir.path().join("primary"))?;
    let mut rstarted = Vec::new();
    let db = drive_steps(db, &rtrace[..fork_at], &mut rstarted)?;
    fault::record();
    fault::activate();
    let promoted = drive_repl_scenario(db, &standby0, &rtrace, fork_at, &mut rstarted)?;
    fault::disarm();
    let repl_points = fault::recorded();
    drop(promoted.crash());
    {
        let sdb = Db::open(&standby0, db_options())?;
        let expected = expected_keys(&sdb, &rtrace, &rstarted);
        if let Err(e) = verify_recovered(&sdb, &expected, &rtouched) {
            return Err(Error::Internal(format!(
                "baseline replication failover failed: {e}"
            )));
        }
    }
    for (name, hits) in &repl_points {
        if !name.starts_with("repl.") && !name.starts_with("wal.ingest") {
            continue;
        }
        if !report.points.iter().any(|p| p == name) {
            report.points.push(name.to_string());
        }
        let mut variants: Vec<u64> = vec![1];
        if !cfg.quick && *hits > 1 {
            variants.push(*hits);
        }
        for hit in variants {
            let run = repl_run(name, hit, &rtrace, fork_at, &rtouched)?;
            if cfg.verbose {
                println!(
                    "  {:-<44} {:>7} hit {:>3}  {}",
                    format!("{} ", run.point),
                    run.mode,
                    run.hit,
                    match (&run.error, run.fired) {
                        (Some(e), _) => format!("FAIL: {e}"),
                        (None, true) => "crashed, failed over ok".to_string(),
                        (None, false) => "unfired, failed over ok".to_string(),
                    }
                );
            }
            report.runs.push(run);
        }
    }

    // ---- Optional: one more recovery with live progress gauges -----------
    if cfg.progress {
        println!("  recovery progress over the pristine crash image:");
        let d = scratch.path().join("rec-progress");
        copy_dir(&pristine, &d)?;
        recover_with_progress(&d)?;
    }

    report.elapsed = start.elapsed();
    Ok(report)
}
