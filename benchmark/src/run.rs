//! One repetition of one workload: set-up, the closed-loop timed phase, the
//! op probe, and the crash → restart → oracle check that follows every
//! repetition.
//!
//! Everything is done through the engine's public API; the engine is never
//! told which workload it is running.

use crate::gen::{base_key, client_ops, inserted_key, payload, Op, OpKind, KINDS, LOADER, LOSER};
use crate::host::{speed_index, HostRecord, SLOW_SPELL};
use crate::oracle::{self, ClientOracle};
use crate::spec::{
    op_count, Workload, AGREEMENT, LOAD_BATCH, LOAD_FRAMES, LOSER_INSERTS, PROBE_MIX,
    PROBE_OPS_PER_KIND, REFERENCE_SECONDS, ROWS, SCAN_KEYS, SEGMENTS, TRACED_SHARE,
};
use crate::summary::{median, p50_us};
use crate::trace::{NoTrace, SpanLog, Tracer, NO_PARENT};
use ariesim_common::stats::StatsSnapshot;
use ariesim_common::{Error, Result, TableId};
use ariesim_db::{Db, DbOptions, FetchCond, Row};
use ariesim_obs::{Obs, ObsHandle, SpanKind, SpanSnapshot};
use ariesim_txn::TxnHandle;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

pub const TABLE: &str = "kv";
pub const INDEX: &str = "kv_pk";

/// Every option but the frame count is the engine's default: `DataOnly`
/// locking, Clock eviction, no background writer, leader-mode group commit,
/// and `fsync: false` — the sandbox's fsync is not a device, and crashes are
/// simulated by `Db::crash()`, which loses everything not already flushed.
pub fn db_options(frames: usize) -> DbOptions {
    DbOptions {
        frames,
        ..DbOptions::default()
    }
}

/// An open engine over the loaded `kv` table.
pub struct Engine {
    pub db: Arc<Db>,
    pub table: TableId,
}

/// The shared set-up, timed as `setup_s`: load `ROWS` rows through a large
/// pool, flush pages, checkpoint, flush the log, drop, reopen with `frames`
/// frames and warm the pool. The reopen must find nothing to redo or undo.
pub fn setup(dir: &Path, frames: usize, obs: ObsHandle) -> Result<(Engine, f64)> {
    let started = Instant::now();
    let db = Db::open(dir, db_options(LOAD_FRAMES))?;
    let table = db.create_table(TABLE, 2)?;
    db.create_index(INDEX, TABLE, 0, true)?;
    let mut idx = 0;
    while idx < ROWS {
        let txn = db.begin();
        for _ in 0..LOAD_BATCH.min(ROWS - idx) {
            let row = Row::new(vec![base_key(idx), payload(LOADER, idx)]);
            db.insert_row(&txn, TABLE, &row)?;
            idx += 1;
        }
        db.commit(&txn)?;
    }
    db.pool.flush_all()?;
    db.checkpoint()?;
    db.log.flush_all()?;
    drop(db);

    let db = Db::open_with_obs(dir, db_options(frames), obs)?;
    let redone = db
        .restart_outcome
        .as_ref()
        .map_or(0, |o| o.redo_applied + o.undone);
    if redone != 0 {
        return Err(Error::Internal(format!(
            "reopening the flushed, checkpointed database redid or undid {redone} records"
        )));
    }
    // Let the pool fill before anything is timed: touch every heap page and
    // every index page once. Where the data fits, the phases then read
    // nothing from disk; where it does not, this changes nothing.
    db.heap.scan_all(db.table_first_page(TABLE)?)?;
    db.tree_by_name(INDEX)?.scan_all_unlocked()?;
    Ok((Engine { db, table }, started.elapsed().as_secs_f64()))
}

/// What one client did in one phase.
pub struct ClientResult {
    /// Exact begin→op→commit nanoseconds of every committed operation, by
    /// [`OpKind`]; pre-allocated, never a histogram.
    pub lat: [Vec<u64>; 5],
    /// Operations in the client's stream (a retried one counts once).
    pub issued: u64,
    pub committed: u64,
    /// Deadlock-victim attempts, rolled back and retried. Not failures.
    pub retries: u64,
    /// Operations that returned an error or a wrong result.
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl ClientResult {
    fn for_stream(ops: &[Op]) -> ClientResult {
        let lat = KINDS.map(|k| Vec::with_capacity(ops.iter().filter(|o| o.kind == k).count()));
        ClientResult {
            lat,
            issued: ops.len() as u64,
            committed: 0,
            retries: 0,
            failed: 0,
            first_failure: None,
        }
    }

    fn fail(&mut self, op: &Op, why: String) {
        self.failed += 1;
        self.first_failure
            .get_or_insert_with(|| format!("{} {}/{}: {why}", op.kind.name(), op.base, op.seq));
    }
}

/// Arguments of one call, built before the clock starts so the latency is
/// the engine's and not `format!`'s.
struct Call {
    key: Vec<u8>,
    /// Scan: the exclusive end key.
    to: Vec<u8>,
    /// Insert, update: the row to write.
    row: Option<Row>,
}

fn prepare(client: u8, op: &Op) -> Call {
    let (key, to, row) = match op.kind {
        OpKind::Read => (base_key(op.base), Vec::new(), None),
        OpKind::Scan => (base_key(op.base), base_key(op.base + SCAN_KEYS), None),
        OpKind::Update => {
            let key = base_key(op.base);
            let row = Row::new(vec![key.clone(), payload(client, op.seq)]);
            (key, Vec::new(), Some(row))
        }
        OpKind::Insert => {
            let key = inserted_key(op.base, client, op.seq);
            let row = Row::new(vec![key.clone(), payload(client, op.seq)]);
            (key, Vec::new(), Some(row))
        }
        OpKind::Delete => (inserted_key(op.base, client, op.seq), Vec::new(), None),
    };
    Call { key, to, row }
}

/// Issue `op` inside `txn`. `Ok(false)` is a wrong result: a row that must
/// exist was not found, or a scan came back short or out of place.
fn exec(db: &Db, txn: &TxnHandle, op: &Op, call: &Call) -> Result<bool> {
    let found = |hit: &Option<(_, Row)>| matches!(hit, Some((_, row)) if row.fields[0] == call.key);
    match op.kind {
        OpKind::Read => Ok(found(&db.fetch_via(
            txn,
            INDEX,
            &call.key,
            FetchCond::Eq,
        )?)),
        OpKind::Scan => {
            let rows = db.scan_range(txn, INDEX, &call.key, &call.to)?;
            // Base rows are never deleted, so at least these are in range.
            let base_rows = SCAN_KEYS.min(ROWS - op.base) as usize;
            Ok(rows.len() >= base_rows && rows[0].1.fields[0] == call.key)
        }
        OpKind::Insert => {
            let row = call.row.as_ref().expect("insert carries a row");
            db.insert_row(txn, TABLE, row).map(|_| true)
        }
        OpKind::Update => match db.fetch_via(txn, INDEX, &call.key, FetchCond::Eq)? {
            Some((rid, _)) => {
                let row = call.row.as_ref().expect("update carries a row");
                db.update_row(txn, TABLE, rid, row).map(|()| true)
            }
            None => Ok(false),
        },
        OpKind::Delete => match db.fetch_via(txn, INDEX, &call.key, FetchCond::Eq)? {
            Some((rid, _)) => db.delete_row(txn, TABLE, rid).map(|_| true),
            None => Ok(false),
        },
    }
}

/// The closed loop: each transaction is issued when the previous returned.
fn run_client<T: Tracer>(
    db: &Db,
    ops: &[Op],
    tracer: &mut T,
    oracle: &mut ClientOracle,
    out: &mut ClientResult,
) {
    let client = oracle.client();
    let mut attempt = u64::from(client) << 40;
    for op in ops {
        let call = prepare(client, op);
        loop {
            attempt += 1;
            let t0 = Instant::now();
            // Inert unless the engine was opened with an enabled `Obs`; then
            // the engine's own spans nest inside it and their self times sum
            // to the clients' wall time.
            let user_work = db.obs().span(SpanKind::UserWork, 0, 0);
            let s_txn = tracer.open("txn", NO_PARENT, attempt);

            let s = tracer.open("begin", s_txn, attempt);
            let txn = db.begin();
            tracer.close(s);

            let s = tracer.open(op.kind.name(), s_txn, attempt);
            let mut res = exec(db, &txn, op, &call);
            tracer.close(s);

            if res.is_ok() {
                let s = tracer.open("commit", s_txn, attempt);
                if let Err(e) = db.commit(&txn) {
                    res = Err(e);
                }
                tracer.close(s);
            }
            match res {
                Ok(as_expected) => {
                    let ns = t0.elapsed().as_nanos() as u64;
                    tracer.close(s_txn);
                    drop(user_work);
                    out.lat[op.kind as usize].push(ns);
                    out.committed += 1;
                    if as_expected {
                        oracle.committed(op);
                    } else {
                        out.fail(op, "wrong result".into());
                    }
                    break;
                }
                Err(e) => {
                    let s = tracer.open("rollback", s_txn, attempt);
                    let rolled_back = db.rollback(&txn);
                    tracer.close(s);
                    tracer.close(s_txn);
                    drop(user_work);
                    if e.is_retryable() && rolled_back.is_ok() {
                        out.retries += 1;
                        continue;
                    }
                    out.fail(op, e.to_string());
                    break;
                }
            }
        }
    }
}

/// One phase: every stream run to its end by its own thread.
pub struct Phase {
    /// From the moment all clients were released to the last one's return.
    pub wall_s: f64,
    pub clients: Vec<ClientResult>,
    /// `db.stats` delta over the phase.
    pub stats: StatsSnapshot,
}

impl Phase {
    pub fn committed(&self) -> u64 {
        self.clients.iter().map(|c| c.committed).sum()
    }

    pub fn retries(&self) -> u64 {
        self.clients.iter().map(|c| c.retries).sum()
    }

    pub fn failed(&self) -> u64 {
        self.clients.iter().map(|c| c.failed).sum()
    }

    pub fn throughput(&self) -> f64 {
        self.committed() as f64 / self.wall_s
    }

    /// Operations issued, retries not counted twice.
    pub fn attempted(&self) -> u64 {
        self.clients.iter().map(|c| c.issued).sum()
    }
}

/// Run `streams[i]` as the client `oracles[i]` records for, all released
/// together.
pub fn run_phase<T: Tracer + Send>(
    db: &Db,
    streams: &[&[Op]],
    tracers: &mut [T],
    oracles: &mut [ClientOracle],
) -> Phase {
    assert!(streams.len() == tracers.len() && streams.len() == oracles.len());
    let before = db.stats.snapshot();
    let barrier = Barrier::new(streams.len() + 1);
    let (wall_s, clients) = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .zip(tracers.iter_mut().zip(oracles.iter_mut()))
            .map(|(ops, (tracer, oracle))| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut out = ClientResult::for_stream(ops);
                    barrier.wait();
                    run_client(db, ops, tracer, oracle, &mut out);
                    out
                })
            })
            .collect();
        barrier.wait();
        let released = Instant::now();
        let clients: Vec<ClientResult> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (released.elapsed().as_secs_f64(), clients)
    });
    Phase {
        wall_s,
        clients,
        stats: db.stats.snapshot().since(&before),
    }
}

/// What the timed `Db::open` after the crash found and did.
pub struct Restart {
    pub restart_s: f64,
    /// Log the analysis pass had to read: from set-up's checkpoint to the
    /// flushed end.
    pub log_mb: f64,
    pub analyzed: u64,
    pub redo_seen: u64,
    pub redo_applied: u64,
    pub undone: u64,
    /// `db.stats` after the open: restart's own page reads and traversals.
    pub stats: StatsSnapshot,
}

/// The check that follows every repetition.
pub struct Aftermath {
    pub restart: Restart,
    /// Oracle and consistency violations; empty when the table is exactly
    /// what was acknowledged.
    pub violations: Vec<String>,
    pub rows: usize,
    /// Pages-file bytes after `flush_all` / live user bytes (keys + payloads).
    pub space_amp: f64,
}

/// Leave one transaction of `loser_inserts` inserts in flight, force the
/// log, `Db::crash()`, time the reopen, and compare the recovered table with
/// what the clients were told had committed.
pub fn crash_and_check(
    engine: Engine,
    frames: usize,
    loser_inserts: u32,
    oracles: &[ClientOracle],
) -> Result<Aftermath> {
    let db = engine.db;
    let loser = db.begin();
    for seq in 1..=loser_inserts {
        let base = seq * (ROWS / LOSER_INSERTS) % ROWS;
        let row = Row::new(vec![inserted_key(base, LOSER, seq), payload(LOSER, seq)]);
        db.insert_row(&loser, TABLE, &row)?;
    }
    db.log.flush_all()?;
    drop(loser);
    let wal_len = std::fs::metadata(db.dir().join("wal"))?.len();
    let dir = db.crash();

    let started = Instant::now();
    let db = Db::open(&dir, db_options(frames))?;
    let restart_s = started.elapsed().as_secs_f64();
    let outcome = db
        .restart_outcome
        .as_ref()
        .expect("open always reports its restart");
    let restart = Restart {
        restart_s,
        log_mb: wal_len.saturating_sub(outcome.ckpt_lsn.0) as f64 / 1e6,
        analyzed: outcome.analyzed,
        redo_seen: outcome.redo_seen,
        redo_applied: outcome.redo_applied,
        undone: outcome.undone,
        stats: db.stats.snapshot(),
    };

    let mut violations = Vec::new();
    if restart.stats.redo_traversals != 0 {
        violations.push(format!(
            "restart redo traversed the tree {} times; ARIES/IM redo is page-oriented",
            restart.stats.redo_traversals
        ));
    }
    let mut rows = HashMap::new();
    let mut user_bytes = 0usize;
    for (_, bytes) in db.heap.scan_all(db.table_first_page(TABLE)?)? {
        let mut row = Row::decode(&bytes)?;
        let payload = row.fields.pop().unwrap_or_default();
        let key = row.fields.pop().unwrap_or_default();
        user_bytes += key.len() + payload.len();
        rows.insert(key, payload);
    }
    violations.extend(oracle::check(&rows, oracles));
    if let Err(e) = db.verify_consistency() {
        violations.push(format!("verify_consistency: {e}"));
    }
    db.pool.flush_all()?;
    let file_bytes = std::fs::metadata(dir.join("pages"))?.len();
    Ok(Aftermath {
        restart,
        violations,
        rows: rows.len(),
        space_amp: file_bytes as f64 / user_bytes as f64,
    })
}

/// What to run.
pub struct RunParams<'a> {
    pub workload: &'a Workload,
    pub seed: u64,
    /// Scales every operation count; at `REFERENCE_SECONDS` a run executes
    /// the frozen counts of `spec.rs`.
    pub seconds: f64,
    pub clients: usize,
    /// Scratch directory for the databases of this run.
    pub work: &'a Path,
}

impl RunParams<'_> {
    fn scaled(&self, count: usize) -> usize {
        op_count(count as f64, self.seconds / REFERENCE_SECONDS)
    }

    /// Each client's operations for one round.
    fn streams(&self, share: f64) -> Vec<Vec<Op>> {
        let w = self.workload;
        let count = self.scaled((w.ops_per_client as f64 * share) as usize);
        (0..self.clients)
            .map(|c| client_ops(w.dist, w.mix, self.seed, c as u8, count))
            .collect()
    }

    /// The probe is one more client, which only ever runs alone.
    fn probe_stream(&self) -> Vec<Op> {
        let count = self.scaled(PROBE_OPS_PER_KIND * 5);
        client_ops(
            self.workload.dist,
            PROBE_MIX,
            self.seed,
            self.clients as u8,
            count,
        )
    }

    fn loser_inserts(&self) -> u32 {
        self.scaled(LOSER_INSERTS as usize) as u32
    }
}

/// A slice of a round: the clients' next operations, then the probe's.
pub struct Segment {
    pub timed: Phase,
    /// Single-client operations of every kind, run alone on the same engine
    /// right after the slice: exact samples of every operation kind on every
    /// workload, without changing what its timed phases exercise.
    pub probe: Phase,
}

impl Segment {
    /// Median latency of `kind` among this execution's probe operations, µs;
    /// `None` where it issued none (a run scaled far down).
    fn probe_p50_us(&self, kind: OpKind) -> Option<f64> {
        let mut ns = self.probe.clients[0].lat[kind as usize].clone();
        ns.sort_unstable();
        (!ns.is_empty()).then(|| p50_us(&ns))
    }
}

/// One database's life: set-up, the segments, crash and check.
pub struct Round {
    pub setup_s: f64,
    pub segments: Vec<Segment>,
    pub aftermath: Aftermath,
}

/// The timings of a repetition; see [`Untraced::timings`].
pub struct Timings {
    pub throughput_ops_s: f64,
    /// By [`OpKind`].
    pub p50_us: [f64; 5],
    pub restart_s: f64,
    pub setup_s: f64,
}

/// An untraced repetition: the source of every end-to-end metric and of the
/// `Stats`-derived per-layer metrics. Every round runs the same operations
/// (same seed) on a fresh database, so slice `n` of the work is executed
/// once per round.
pub struct Untraced {
    pub rounds: Vec<Round>,
    /// `VmHWM` of the process when the last round every repetition runs had
    /// ended: further rounds repeat the same work and add only what the
    /// allocator keeps, so the peak does not depend on how many there were.
    pub peak_rss_mb: f64,
    /// Seconds spent asleep waiting for a slow spell of the host to pass.
    pub waited_s: f64,
}

/// The `rank`-th smallest of `values` (the largest if there are fewer).
fn ranked(values: impl Iterator<Item = f64>, rank: usize) -> Option<f64> {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    v.get(rank).or(v.last()).copied()
}

impl Untraced {
    pub fn segments(&self) -> impl Iterator<Item = &Segment> {
        self.rounds.iter().flat_map(|r| &r.segments)
    }

    /// The repetition's timings, each taken where the host disturbed it
    /// least (`rank` 0) or second least (`rank` 1).
    ///
    /// The reference host is shared: for seconds to minutes at a time its
    /// neighbours take a third or more of its speed, and what they add to a
    /// single thread's work is always delay. The rounds execute identical
    /// work seconds apart, so every slice of the operation stream has one
    /// execution per round, and each quantity is taken from its `rank`-th
    /// quickest execution:
    ///
    /// * throughput is the stream's committed operations over the sum, over
    ///   the slices, of the timed phase's wall time;
    /// * a latency is the median, over the slices, of the median of the
    ///   probe's exact samples of that kind. The timed phases' own latencies
    ///   are no gate: with as many clients as cores, a neighbour that takes a
    ///   core from one client relieves the other of its contention, so a
    ///   disturbed execution reads *quicker* there and no choice among
    ///   executions is safe (they feed the per-layer tails instead);
    /// * set-up and restart are the `rank`-th quickest of the rounds.
    ///
    /// The whole stream is covered exactly once, with values as measured.
    pub fn timings(&self, rank: usize) -> Timings {
        let slices = self.rounds.first().map_or(0, |r| r.segments.len());
        let executions = |n: usize| self.rounds.iter().map(move |r| &r.segments[n]);
        let over_rounds =
            |of: fn(&Round) -> f64| ranked(self.rounds.iter().map(of), rank).unwrap_or(0.0);
        let wall_s: f64 = (0..slices)
            .filter_map(|n| ranked(executions(n).map(|s| s.timed.wall_s), rank))
            .sum();
        // Every round commits the same stream.
        let ops: u64 = (self.rounds.first().iter())
            .flat_map(|r| &r.segments)
            .map(|s| s.timed.committed())
            .sum();
        let p50_us = KINDS.map(|kind| {
            let per_slice: Vec<f64> = (0..slices)
                .filter_map(|n| ranked(executions(n).filter_map(|s| s.probe_p50_us(kind)), rank))
                .collect();
            if per_slice.is_empty() {
                0.0
            } else {
                median(&per_slice)
            }
        });
        Timings {
            throughput_ops_s: ops as f64 / wall_s,
            p50_us,
            restart_s: over_rounds(|r| r.aftermath.restart.restart_s),
            setup_s: over_rounds(|r| r.setup_s),
        }
    }

    /// Whether the rounds run so far pin the timings down: every gated
    /// timing assembled from the second-least disturbed executions lies
    /// within [`AGREEMENT`] of the one from the least disturbed. While they
    /// disagree, the quickest executions may themselves have been disturbed,
    /// and another round can still correct them.
    pub fn settled(&self) -> bool {
        let (best, next) = (self.timings(0), self.timings(1));
        let agree = |best: f64, next: f64| next <= best * AGREEMENT;
        agree(next.throughput_ops_s, best.throughput_ops_s)
            && agree(best.restart_s, next.restart_s)
            && (best.p50_us.iter().zip(&next.p50_us)).all(|(b, n)| agree(*b, *n))
    }
}

/// `n`-th of `parts` equal slices of `ops` (the last takes the remainder).
fn slice_of(ops: &[Op], n: usize, parts: usize) -> &[Op] {
    let len = ops.len() / parts;
    let end = if n + 1 == parts {
        ops.len()
    } else {
        (n + 1) * len
    };
    &ops[n * len..end]
}

/// Peak resident set of this process so far, from `VmHWM`.
fn peak_rss_mb() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| std::io::Error::other("no VmHWM in /proc/self/status"))
}

/// How many rounds an untraced repetition runs.
pub struct Rounds {
    /// Always run.
    pub least: usize,
    /// Never exceeded.
    pub most: usize,
    /// No further round starts once the repetition has lasted this long …
    pub extend_for_s: f64,
    /// … unless the host is in a slow spell: then the repetition sleeps this
    /// long before each further round …
    pub wait_step_s: f64,
    /// … as long as it has not lasted this long.
    pub wait_until_s: f64,
}

/// Run the workload with observability disabled and no spans: rounds of
/// `SEGMENTS` segments each, `rounds.least` of them and then more while the
/// timings are not [`settled`](Untraced::settled) and `rounds` allows.
///
/// Given this checkout's `host` record, the repetition also compares its
/// speed index with the lowest on record for the workload: while it is more
/// than [`SLOW_SPELL`] times that, the host is in a slow spell that no number
/// of rounds run now can see past, so it sleeps and runs another round later.
pub fn run_untraced(
    p: &RunParams<'_>,
    rounds: &Rounds,
    mut host: Option<&mut HostRecord>,
) -> Result<Untraced> {
    let started = Instant::now();
    let frames = p.workload.frames;
    let streams = p.streams(1.0);
    let probe_stream = p.probe_stream();
    let key = format!("{}@{}", p.workload.name, p.seconds);
    let lowest = host.as_ref().and_then(|h| h.lowest(&key));
    let mut u = Untraced {
        rounds: Vec::new(),
        peak_rss_mb: 0.0,
        waited_s: 0.0,
    };
    loop {
        let dir = p.work.join(format!("round{}", u.rounds.len()));
        let (engine, setup_s) = setup(&dir, frames, Obs::disabled())?;
        let mut oracles: Vec<ClientOracle> = (0..=p.clients)
            .map(|c| ClientOracle::new(c as u8))
            .collect();
        let (probe_oracle, client_oracles) = oracles.split_last_mut().expect("the probe's");
        let mut tracers: Vec<NoTrace> = streams.iter().map(|_| NoTrace).collect();

        let mut segments = Vec::new();
        for n in 0..SEGMENTS {
            let slices: Vec<&[Op]> = streams.iter().map(|s| slice_of(s, n, SEGMENTS)).collect();
            let timed = run_phase(&engine.db, &slices, &mut tracers, client_oracles);
            let probe = run_phase(
                &engine.db,
                &[slice_of(&probe_stream, n, SEGMENTS)],
                &mut [NoTrace],
                std::slice::from_mut(probe_oracle),
            );
            segments.push(Segment { timed, probe });
        }
        let aftermath = crash_and_check(engine, frames, p.loser_inserts(), &oracles)?;
        std::fs::remove_dir_all(&dir)?; // keep the scratch space to one database
        u.rounds.push(Round {
            setup_s,
            segments,
            aftermath,
        });
        let n = u.rounds.len();
        if n == rounds.least {
            u.peak_rss_mb = peak_rss_mb()?;
        }
        if n < rounds.least {
            continue;
        }
        let lasted_s = started.elapsed().as_secs_f64();
        let index = speed_index(&u.timings(0).p50_us);
        let in_spell = lowest.is_some_and(|l| index > l * SLOW_SPELL);
        let may_wait = host.as_ref().is_some_and(|h| h.may_wait());
        if n < rounds.most && in_spell && may_wait && lasted_s < rounds.wait_until_s {
            std::thread::sleep(Duration::from_secs_f64(rounds.wait_step_s));
            u.waited_s += rounds.wait_step_s;
        } else if n >= rounds.most || lasted_s >= rounds.extend_for_s || u.settled() {
            if let Some(h) = host.as_mut() {
                h.note(&key, index, u.waited_s)?;
            }
            return Ok(u);
        }
    }
}

/// A traced repetition: the engine opened with `Obs::enabled`, every call
/// into `Db` wrapped in a span. Feeds per-layer metrics only.
pub struct Traced {
    pub phase: Phase,
    /// One log per client.
    pub logs: Vec<SpanLog>,
    /// The engine's own span totals over the phase.
    pub engine_spans: SpanSnapshot,
    pub pool_evictions: u64,
    pub pool_shard_contended: u64,
    pub wal_group_batches: u64,
    pub wal_group_riders: u64,
    pub aftermath: Aftermath,
}

pub fn run_traced(p: &RunParams<'_>) -> Result<Traced> {
    let frames = p.workload.frames;
    let (engine, _) = setup(&p.work.join("traced"), frames, Obs::enabled(4096))?;
    let streams = p.streams(TRACED_SHARE);
    let slices: Vec<&[Op]> = streams.iter().map(Vec::as_slice).collect();
    let mut oracles: Vec<ClientOracle> =
        (0..p.clients).map(|c| ClientOracle::new(c as u8)).collect();
    let origin = Instant::now();
    let mut logs: Vec<SpanLog> = streams
        .iter()
        .map(|ops| SpanLog::new(origin, ops.len() * 4 + 64))
        .collect();
    let obs = engine.db.obs().clone();
    obs.reset(); // the reopen's own I/O is not part of the phase
    let phase = run_phase(&engine.db, &slices, &mut logs, &mut oracles);
    let engine_spans = obs.spans.snapshot();
    // ordering: advisory counters, read after every client thread was joined
    let count = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
    let (pool_evictions, pool_shard_contended) =
        (count(&obs.pool.evictions), count(&obs.pool.shard_contended));
    let (wal_group_batches, wal_group_riders) =
        (count(&obs.wal.group_batches), count(&obs.wal.group_riders));

    let aftermath = crash_and_check(engine, frames, p.loser_inserts(), &oracles)?;
    Ok(Traced {
        phase,
        logs,
        engine_spans,
        pool_evictions,
        pool_shard_contended,
        wal_group_batches,
        wal_group_riders,
        aftermath,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workload;
    use crate::workdir::WorkDir;

    const ONE_ROUND: Rounds = Rounds {
        least: 1,
        most: 1,
        extend_for_s: 0.0,
        wait_step_s: 0.0,
        wait_until_s: 0.0,
    };

    fn params<'a>(name: &str, seed: u64, work: &'a WorkDir) -> RunParams<'a> {
        RunParams {
            workload: workload(name).unwrap(),
            seed,
            seconds: 0.1,
            clients: 1,
            work: work.path(),
        }
    }

    /// What of a repetition must repeat exactly when one client replays one
    /// seed: the engine's counters over every timed phase and restart's counts.
    fn counts(u: &Untraced) -> (Vec<StatsSnapshot>, [u64; 4], StatsSnapshot, usize) {
        let after = &u.rounds[0].aftermath;
        let r = &after.restart;
        (
            u.segments().map(|s| s.timed.stats).collect(),
            [r.analyzed, r.redo_seen, r.redo_applied, r.undone],
            r.stats,
            after.rows,
        )
    }

    #[test]
    fn one_client_runs_of_one_seed_give_identical_counts() {
        let (wa, wb) = (WorkDir::new("t-a").unwrap(), WorkDir::new("t-b").unwrap());
        let a = run_untraced(&params("crash_restart", 9, &wa), &ONE_ROUND, None).unwrap();
        let b = run_untraced(&params("crash_restart", 9, &wb), &ONE_ROUND, None).unwrap();
        assert_eq!(counts(&a), counts(&b));
        let after = &a.rounds[0].aftermath;
        assert_eq!(after.violations, Vec::<String>::new());
        assert_eq!(a.segments().count(), SEGMENTS);
        for s in a.segments() {
            assert_eq!(s.timed.failed() + s.probe.failed(), 0);
            assert_eq!(s.timed.committed(), s.timed.attempted());
            assert!(s.timed.stats.log_bytes > 0);
        }
        let t = a.timings(0);
        assert!(t.throughput_ops_s > 0.0 && t.restart_s > 0.0 && t.setup_s > 0.0);
        assert!(t.p50_us.iter().all(|p50| *p50 > 0.0), "{:?}", t.p50_us);
        assert!(after.restart.undone > 0, "the loser was rolled back");
        assert_eq!(after.restart.stats.redo_traversals, 0);
        assert!(after.space_amp > 1.0);
        assert!(a.peak_rss_mb > 1.0);

        let wc = WorkDir::new("t-c").unwrap();
        let c = run_untraced(&params("crash_restart", 10, &wc), &ONE_ROUND, None).unwrap();
        assert_ne!(counts(&a).0, counts(&c).0, "another seed is other work");
    }

    #[test]
    fn a_run_far_above_the_hosts_record_waits_and_tries_again_until_it_may_not() {
        let work = WorkDir::new("t-spell").unwrap();
        let p = params("read_hot", 4, &work);
        let rounds = Rounds {
            least: 1,
            most: 3,
            extend_for_s: 0.0,
            wait_step_s: 0.01,
            wait_until_s: 1e9,
        };
        let path = work.path().join("host-speed");
        let mut host = HostRecord::load(&path);
        // No record yet: nothing to be slower than.
        let u = run_untraced(&p, &rounds, Some(&mut host)).unwrap();
        assert_eq!((u.rounds.len(), u.waited_s), (1, 0.0));
        let index = host.lowest("read_hot@0.1").expect("the run left its index");
        assert!(index > 0.0);

        // An earlier run a thousand times quicker: this one must be in a spell.
        host.note("read_hot@0.1", index / 1e3, 0.0).unwrap();
        let mut host = HostRecord::load(&path);
        let u = run_untraced(&p, &rounds, Some(&mut host)).unwrap();
        assert_eq!((u.rounds.len(), u.waited_s), (3, 0.02));

        // Once the checkout's waiting is used up, runs only measure.
        host.note("read_hot@0.1", index, crate::host::WAIT_CAP_S)
            .unwrap();
        let u = run_untraced(&p, &rounds, Some(&mut host)).unwrap();
        assert_eq!((u.rounds.len(), u.waited_s), (1, 0.0));
    }

    #[test]
    fn oracle_check_fails_when_a_committed_row_is_withheld_from_it() {
        let work = WorkDir::new("t-oracle").unwrap();
        let p = params("write_mixed", 3, &work);
        let (engine, _) =
            setup(&work.path().join("db"), p.workload.frames, Obs::disabled()).unwrap();
        let streams = p.streams(1.0);
        let mut oracles = [ClientOracle::new(0)];
        let phase = run_phase(&engine.db, &[&streams[0]], &mut [NoTrace], &mut oracles);
        assert_eq!(phase.failed(), 0);
        // The engine committed this insert and said so; the oracle is not told.
        assert!(oracles[0].forget_an_insert());
        let after = crash_and_check(engine, p.workload.frames, 5, &oracles).unwrap();
        assert_eq!(after.violations.len(), 1, "{:?}", after.violations);
        assert!(after.violations[0].contains("never committed"));
    }

    #[test]
    fn traced_run_records_a_span_per_call_under_one_per_transaction() {
        let work = WorkDir::new("t-traced").unwrap();
        let t = run_traced(&params("write_mixed", 5, &work)).unwrap();
        assert_eq!(t.aftermath.violations, Vec::<String>::new());
        let spans = &t.logs[0].spans;
        let attempts = t.phase.committed() + t.phase.retries();
        assert_eq!(spans.len() as u64, 4 * attempts);
        for quad in spans.chunks(4) {
            assert_eq!(quad[0].name, "txn");
            assert_eq!(quad[0].parent, NO_PARENT);
            assert_eq!(quad[1].name, "begin");
            assert!(matches!(quad[3].name, "commit" | "rollback"));
            for child in &quad[1..] {
                assert_eq!(child.txn, quad[0].txn);
                assert_eq!(spans[child.parent as usize].txn, quad[0].txn);
                assert!(quad[0].start_ns <= child.start_ns && child.end_ns <= quad[0].end_ns);
            }
        }
        // The engine's own spans nest inside the benchmark's UserWork span,
        // so their self times cover the clients' wall time.
        let covered = t.engine_spans.total_ns() as f64 / 1e9;
        assert!(covered > 0.5 * t.phase.wall_s && covered < 1.1 * t.phase.wall_s);
    }

    /// A round of two slices whose timed phases took `walls` seconds for 100
    /// operations each and whose probe reads took `read_ns` each.
    fn synthetic_round(walls: [f64; 2], read_ns: u64, restart_s: f64) -> Round {
        let phase = |wall_s: f64, committed: u64, reads: Vec<u64>| {
            let mut client = ClientResult::for_stream(&[]);
            client.committed = committed;
            client.lat[OpKind::Read as usize] = reads;
            Phase {
                wall_s,
                clients: vec![client],
                stats: StatsSnapshot::default(),
            }
        };
        let segments = walls
            .iter()
            .map(|w| Segment {
                timed: phase(*w, 100, Vec::new()),
                probe: phase(0.0, 3, vec![read_ns; 3]),
            })
            .collect();
        let restart = Restart {
            restart_s,
            log_mb: 0.0,
            analyzed: 0,
            redo_seen: 0,
            redo_applied: 0,
            undone: 0,
            stats: StatsSnapshot::default(),
        };
        Round {
            setup_s: 1.0,
            segments,
            aftermath: Aftermath {
                restart,
                violations: Vec::new(),
                rows: 0,
                space_amp: 1.0,
            },
        }
    }

    #[test]
    fn timings_keep_each_slices_quickest_execution_and_settle_when_two_agree() {
        let mut u = Untraced {
            rounds: vec![
                synthetic_round([1.0, 4.0], 9000, 0.5),
                synthetic_round([2.0, 1.0], 5000, 0.8),
            ],
            peak_rss_mb: 0.0,
            waited_s: 0.0,
        };
        let best = u.timings(0);
        // Slice 0 from the first round, slice 1 from the second.
        assert_eq!(best.throughput_ops_s, 200.0 / 2.0);
        assert_eq!(best.p50_us[OpKind::Read as usize], 5.0);
        assert_eq!(
            best.p50_us[OpKind::Scan as usize],
            0.0,
            "no sample, no value"
        );
        assert_eq!((best.restart_s, best.setup_s), (0.5, 1.0));
        let next = u.timings(1);
        assert_eq!(next.throughput_ops_s, 200.0 / 6.0);
        assert_eq!(next.p50_us[OpKind::Read as usize], 9.0);
        assert!(!u.settled(), "the two executions of every slice disagree");

        // A third round that confirms the quickest of each.
        u.rounds.push(synthetic_round([1.02, 1.03], 5100, 0.51));
        assert_eq!(u.timings(0).throughput_ops_s, 100.0);
        assert!(u.settled());
        // One round alone has nothing to disagree with.
        u.rounds.truncate(1);
        assert!(u.settled());
    }

    #[test]
    fn slices_cover_a_stream_exactly_once() {
        let ops = client_ops(crate::spec::KeyDist::Uniform, PROBE_MIX, 1, 0, 103);
        let joined: Vec<Op> = (0..SEGMENTS)
            .flat_map(|n| slice_of(&ops, n, SEGMENTS).to_vec())
            .collect();
        assert_eq!(joined, ops);
    }
}
