//! End-to-end span attribution: a real workload's time breakdown must
//! explain (almost exactly) all of the wall time its clients measured.
//!
//! The property is *conservation*: every client wraps each operation
//! attempt in a `UserWork` span (the wrap `benchmark/src/run.rs` uses), the
//! engine's own spans (lock wait, latch wait, WAL append/fsync, page I/O)
//! nest inside and subtract from their parent's self time, so the per-kind
//! self times in `obs.spans` sum back to the attempts' wall time. If
//! instrumentation double-counts (overlapping spans) or leaks (an early
//! return skipping a guard), the sum drifts and this test fails.

use ariesim::common::tmp::TempDir;
use ariesim::db::{Db, DbOptions, FetchCond, Row};
use ariesim::obs::{Obs, SpanKind, SpanSnapshot};
use std::time::{Duration, Instant};

const PRELOADED: u64 = 200;
const OPS_PER_THREAD: u64 = 150;

fn row(key: u64, version: u64) -> Row {
    Row::new(vec![
        format!("key{key:012}").into_bytes(),
        format!("v{version:016}-{}", "x".repeat(30)).into_bytes(),
    ])
}

struct Run {
    spans: SpanSnapshot,
    /// Wall nanoseconds the clients spent inside attempts, summed.
    wall_ns: u64,
    attempts: u64,
    elapsed: Duration,
}

/// Open a traced engine, preload it, then run `threads` closed-loop clients
/// issuing read / insert / update / delete round-robin, one transaction per
/// operation, retrying deadlock victims.
fn closed_loop(threads: u64) -> Run {
    let dir = TempDir::new("attribution");
    let opts = DbOptions {
        frames: 256,
        ..DbOptions::default()
    };
    let db = Db::open_with_obs(dir.path(), opts, Obs::enabled(1 << 12)).unwrap();
    db.create_table("kv", 2).unwrap();
    db.create_index("kv_pk", "kv", 0, true).unwrap();
    let txn = db.begin();
    for k in 0..PRELOADED {
        db.insert_row(&txn, "kv", &row(k, 0)).unwrap();
    }
    db.commit(&txn).unwrap();
    db.obs().reset();

    let started = Instant::now();
    let per_client: Vec<(u64, u64)> = std::thread::scope(|s| {
        let db = &db;
        let clients: Vec<_> = (0..threads)
            .map(|t| s.spawn(move || client(db, t)))
            .collect();
        clients.into_iter().map(|c| c.join().unwrap()).collect()
    });
    let elapsed = started.elapsed();
    db.verify_consistency().unwrap();
    Run {
        spans: db.obs().spans.snapshot(),
        wall_ns: per_client.iter().map(|c| c.0).sum(),
        attempts: per_client.iter().map(|c| c.1).sum(),
        elapsed,
    }
}

/// One client's loop; returns (wall nanoseconds inside attempts, attempts).
fn client(db: &Db, t: u64) -> (u64, u64) {
    let (mut wall_ns, mut attempts) = (0, 0);
    for i in 0..OPS_PER_THREAD {
        // Skewed towards a few hot keys so clients do collide.
        let hot = (i * 7 + t) % if i % 3 == 0 { PRELOADED } else { 8 };
        let own = PRELOADED + t * OPS_PER_THREAD + i;
        loop {
            let t0 = Instant::now();
            let user_work = db.obs().span(SpanKind::UserWork, 0, 0);
            let txn = db.begin();
            let pk =
                |k: u64| db.fetch_via(&txn, "kv_pk", row(k, 0).field(0).unwrap(), FetchCond::Eq);
            let res = match i % 4 {
                0 => pk(hot).map(|_| ()),
                1 => db.insert_row(&txn, "kv", &row(own, i)).map(|_| ()),
                2 => pk(hot).and_then(|hit| match hit {
                    Some((rid, _)) => db.update_row(&txn, "kv", rid, &row(hot, i)),
                    None => Ok(()),
                }),
                // Deletes the row this client inserted two operations ago.
                _ => pk(own - 2).and_then(|hit| match hit {
                    Some((rid, _)) => db.delete_row(&txn, "kv", rid).map(|_| ()),
                    None => Ok(()),
                }),
            };
            let res = res.and_then(|()| db.commit(&txn));
            if res.is_err() {
                db.rollback(&txn).unwrap();
            }
            drop(user_work);
            wall_ns += t0.elapsed().as_nanos() as u64;
            attempts += 1;
            match res {
                Ok(()) => break,
                Err(e) if e.is_retryable() => continue,
                Err(e) => panic!("client {t} op {i}: {e}"),
            }
        }
    }
    (wall_ns, attempts)
}

/// The breakdown's components sum to ~100% of measured wall time, at one
/// thread and under contention.
#[test]
fn breakdown_sums_to_wall_time() {
    for threads in [1, 4] {
        let run = closed_loop(threads);
        assert!(run.wall_ns > 0, "workload measured no wall time");
        let cov = run.spans.total_ns() as f64 / run.wall_ns as f64;
        assert!(
            (0.90..=1.05).contains(&cov),
            "{threads} threads: breakdown explains {:.1}% of wall time \
             (attributed {}ns of {}ns)",
            100.0 * cov,
            run.spans.total_ns(),
            run.wall_ns
        );

        // The commit path must actually decompose: every committed write
        // forced the log, so WAL append and fsync time must appear.
        let b = &run.spans;
        // (`commit` opens a nested UserWork span of its own, hence `>=`.)
        assert!(b.count[SpanKind::UserWork as usize] >= run.attempts);
        assert!(
            b.self_ns[SpanKind::WalAppend as usize] > 0,
            "no WAL append time"
        );
        assert!(
            b.self_ns[SpanKind::WalFsync as usize] > 0,
            "no WAL fsync time"
        );
    }
}

/// Attributed time can never exceed threads × elapsed: spans are
/// per-thread self times, so the aggregate is bounded by total CPU-time
/// available to the clients.
#[test]
fn attribution_bounded_by_elapsed() {
    let threads = 2;
    let run = closed_loop(threads);
    let budget = run.elapsed.as_nanos() as u64 * threads;
    assert!(
        run.spans.total_ns() <= budget + budget / 10,
        "attributed {}ns exceeds {threads} threads x {}ns elapsed",
        run.spans.total_ns(),
        run.elapsed.as_nanos()
    );
}
