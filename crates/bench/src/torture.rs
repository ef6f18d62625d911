//! The crash-recovery torture harness.
//!
//! Drives a seeded, deterministic mixed workload (inserts causing splits, a
//! rolled-back transaction spanning an SMO, deletes emptying pages, a fuzzy
//! checkpoint, a pool flush, and a loser left in flight), enumerates every
//! [`ariesim_fault`] crash point the workload reaches, then re-runs the
//! workload with that point armed at its first and last hit, and once more
//! with the whole log tail forced at the crash: the run crashes there,
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
//! restart, and for each one crashes mid-recovery at its first and last
//! hit, checks what restart's progress gauges read at the crash, and
//! recovers again — ARIES restart must be restartable. A third phase
//! crashes inside a standby's pull, apply and promotion, and recovers the
//! standby.
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
use std::sync::Arc;

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
/// dirty-page eviction, a fuzzy checkpoint, and an in-flight loser whose
/// inserts split leaves too, so restart's undo skips dummy CLRs.
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
            ops: perm(400, 480),
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
    let standby = fork_standby(&primary, standby_dir, Obs::disabled())?;
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

/// Check restart's progress gauges. After a crash inside recovery at hit
/// `hit` of `Some(point)`: REDO in the forward pass, with the LSN at or
/// below its target and, at the N-th applied redo, N − 1 pages counted
/// redone; UNDO with a loser left at an undo step; COMPLETE with the LSN at
/// its target once done; the page and log I/O points restart also reaches
/// have no rule. After a finished restart (`None`, `hit` unused): COMPLETE
/// at the target, no loser left, and each of the `redo_applied` redos
/// counted.
fn check_gauges(
    obs: &ObsHandle,
    point: Option<&str>,
    hit: u64,
    redo_applied: u64,
) -> std::result::Result<(), String> {
    use recovery_phase::{COMPLETE, REDO, UNDO};
    let r = &obs.gauge.recovery;
    let (phase, lsn, target) = (r.phase.last(), r.current_lsn.last(), r.target_lsn.last());
    let (pages, losers) = (r.pages_redone.last(), r.losers_remaining.last());
    let ok = match point {
        None => phase == COMPLETE && lsn == target && losers == 0 && pages == redo_applied,
        Some("recovery.analysis.done") => phase == REDO && lsn <= target,
        Some("recovery.redo.applied") => phase == REDO && lsn <= target && pages == hit - 1,
        Some(
            "recovery.undo.step" | "undo.before_action" | "undo.after_action" | "undo.skip_clr",
        ) => phase == UNDO && losers >= 1,
        Some("recovery.done") => phase == COMPLETE && lsn == target,
        Some(_) => true,
    };
    if ok {
        return Ok(());
    }
    let after = point.map_or(format!("restart ({redo_applied} redos applied)"), |p| {
        format!("a crash at {p} hit {hit}")
    });
    Err(format!(
        "progress gauges after {after}: phase {} lsn {lsn}/{target} pages_redone {pages} \
         losers_remaining {losers}",
        recovery_phase::name(phase),
    ))
}

/// One recovery-phase run: restart the crash image in `dir` with `point`
/// armed at `hit`, check the progress gauges at the crash, then recover
/// again and verify against the oracle.
fn recovery_run(
    point: &str,
    hit: u64,
    dir: &Path,
    expected: &BTreeSet<u32>,
    touched: &BTreeSet<u32>,
) -> RunResult {
    fault::arm(point, hit);
    fault::activate();
    let obs = Obs::disabled();
    let out = fault::run_to_crash(|| Db::open_with_obs(dir, db_options(), obs.clone()));
    fault::disarm();
    let mut error = None;
    let fired = match out {
        fault::Outcome::Crashed(_) => {
            error = check_gauges(&obs, Some(point), hit, 0).err();
            true
        }
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
        match Db::open(dir, db_options()) {
            Err(e) => error = Some(format!("re-recovery failed: {e}")),
            Ok(db) => {
                error = verify_recovered(&db, expected, touched).err();
            }
        }
    }
    RunResult {
        point: point.to_string(),
        mode: "recovery",
        hit,
        fired,
        error,
    }
}

/// Full torture run over the seeded standard and replication traces.
/// Must not be called while holding [`fault::exclusive`] (the runner takes
/// it itself).
pub fn run_torture() -> Result<TortureReport> {
    let _x = fault::exclusive();
    let seed = 0x5eed_ca5e;
    let trace = standard_trace(seed);
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
        if *hits > 1 {
            variants.push((*hits, false));
        }
        // Forced-tail: the whole log tail is durable at the crash instant,
        // so a partial SMO's records ARE in the log. Never valid for wal.*
        // points (the pre-crash hook re-enters the log manager).
        if !name.starts_with("wal.") {
            variants.push((1, true));
        }
        for (hit, forced) in variants {
            report
                .runs
                .push(workload_run(name, hit, forced, &trace, &touched)?);
        }
    }

    // ---- Phase 2: crash inside recovery itself ---------------------------
    // Record the points restart reaches on the pristine image.
    let recdir = scratch.path().join("rec-record");
    copy_dir(&pristine, &recdir)?;
    fault::record();
    fault::activate();
    let obs = Obs::disabled();
    let db = Db::open_with_obs(&recdir, db_options(), obs.clone())?;
    fault::disarm();
    let recovery_points = fault::recorded();
    let expected0 = expected_keys(&db, &trace, &started0);
    let applied = db.restart_outcome.as_ref().map_or(0, |o| o.redo_applied);
    if let Some(e) = check_gauges(&obs, None, 0, applied)
        .and_then(|()| verify_recovered(&db, &expected0, &touched))
        .err()
    {
        return Err(Error::Internal(format!("baseline recovery failed: {e}")));
    }
    drop(db);

    for (i, (name, hits)) in recovery_points.iter().enumerate() {
        if !report.points.iter().any(|p| p == name) {
            report.points.push(name.to_string());
        }
        let mut variants: Vec<u64> = vec![1];
        if *hits > 1 {
            variants.push(*hits);
        }
        for hit in variants {
            let d = scratch.path().join(format!("rec-{i}-{hit}"));
            copy_dir(&pristine, &d)?;
            report
                .runs
                .push(recovery_run(name, hit, &d, &expected0, &touched));
        }
    }

    // ---- Phase 3: crash inside the replication machinery -----------------
    // Record the points the fork/pull/apply/promote scenario reaches, check
    // that the completed scenario satisfies the failover oracle, then crash
    // at each replication-specific point and re-verify. Phase 1 already
    // covers the engine-internal points the scenario re-hits.
    let (rtrace, fork_at) = repl_trace(seed);
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
        if *hits > 1 {
            variants.push(*hits);
        }
        for hit in variants {
            report
                .runs
                .push(repl_run(name, hit, &rtrace, fork_at, &rtouched)?);
        }
    }

    Ok(report)
}
