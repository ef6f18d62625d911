//! Log-shipping replication: round-trip, the applied-LSN watermark
//! contract, and failover.
//!
//! The watermark contract under test is the one `crates/repl` documents:
//! a standby read reflects the shipped log *exactly* up to `applied_lsn()`
//! — a key is never visible before its insert has been applied, and is
//! always visible once the watermark has passed its transaction's commit.

use ariesim_common::tmp::TempDir;
use ariesim_common::Lsn;
use ariesim_db::{Db, DbOptions, FetchCond, Row};
use ariesim_obs::Obs;
use ariesim_repl::{fork_standby, ReplPair, Shipper};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn opts() -> DbOptions {
    DbOptions {
        frames: 64,
        ..DbOptions::default()
    }
}

fn key(i: u32) -> Vec<u8> {
    format!("key{i:06}").into_bytes()
}

fn row(i: u32) -> Row {
    Row::new(vec![key(i), format!("payload-{i}").into_bytes()])
}

fn primary_with_schema(dir: &TempDir) -> Arc<Db> {
    let db = Db::open(&dir.path().join("primary"), opts()).unwrap();
    db.create_table("kv", 2).unwrap();
    db.create_index("kv_pk", "kv", 0, true).unwrap();
    db
}

fn insert_committed(db: &Arc<Db>, ids: std::ops::Range<u32>) {
    let txn = db.begin();
    for i in ids {
        db.insert_row(&txn, "kv", &row(i)).unwrap();
    }
    db.commit(&txn).unwrap();
}

#[test]
fn round_trip_reads_follow_the_stream() {
    let dir = TempDir::new("repl-roundtrip");
    let primary = primary_with_schema(&dir);
    insert_committed(&primary, 0..20);

    let pair = ReplPair::create(primary, &dir.path().join("standby"), Obs::disabled()).unwrap();

    // Base backup: pre-fork keys are served immediately.
    let (_, r) = pair.standby.read("kv_pk", &key(7)).unwrap().unwrap();
    assert_eq!(r.field(1).unwrap(), format!("payload-{}", 7).as_bytes());
    assert_eq!(pair.standby.count("kv_pk").unwrap(), 20);

    // Post-fork commits are invisible until shipped + applied...
    insert_committed(&pair.primary, 20..40);
    assert!(pair.standby.read("kv_pk", &key(25)).unwrap().is_none());
    assert!(pair.lag_bytes() > 0);

    // ...and visible after a sync, watermark at the primary's log end.
    pair.sync().unwrap();
    assert_eq!(pair.lag_bytes(), 0);
    assert!(pair.standby.read("kv_pk", &key(25)).unwrap().is_some());
    assert_eq!(pair.standby.count("kv_pk").unwrap(), 40);

    // Updates and deletes replicate too.
    let txn = pair.primary.begin();
    let (rid, _) = pair
        .primary
        .fetch_via(&txn, "kv_pk", &key(3), FetchCond::Eq)
        .unwrap()
        .unwrap();
    pair.primary
        .update_row(&txn, "kv", rid, &Row::new(vec![key(3), b"updated".to_vec()]))
        .unwrap();
    let (rid9, _) = pair
        .primary
        .fetch_via(&txn, "kv_pk", &key(9), FetchCond::Eq)
        .unwrap()
        .unwrap();
    pair.primary.delete_row(&txn, "kv", rid9).unwrap();
    pair.primary.commit(&txn).unwrap();
    pair.sync().unwrap();
    let (_, r) = pair.standby.read("kv_pk", &key(3)).unwrap().unwrap();
    assert_eq!(r.field(1).unwrap(), b"updated");
    assert!(pair.standby.read("kv_pk", &key(9)).unwrap().is_none());
    assert_eq!(pair.standby.count("kv_pk").unwrap(), 39);
}

#[test]
fn standby_never_serves_past_its_watermark() {
    let dir = TempDir::new("repl-watermark");
    let primary = primary_with_schema(&dir);

    let base_dir = dir.path().join("standby");
    let (standby, shipper) = fork_standby(&primary, &base_dir, Obs::disabled()).unwrap();
    // Tiny chunks so the stream advances a record or two at a time.
    let mut shipper: Shipper = shipper.with_chunk(48);

    // Commit keys one per transaction, bracketing each with log positions:
    // below `before` the key cannot exist; at or past `after` it must.
    let mut window: Vec<(u32, Lsn, Lsn)> = Vec::new();
    for i in 0..30 {
        let before = primary.log.next_lsn();
        let txn = primary.begin();
        primary.insert_row(&txn, "kv", &row(i)).unwrap();
        primary.commit(&txn).unwrap();
        window.push((i, before, primary.log.next_lsn()));
    }
    primary.log.flush_all().unwrap();

    // Walk the stream chunk by chunk, checking every key against the
    // watermark after each step.
    loop {
        let shipped = shipper.pump().unwrap();
        standby.pump().unwrap();
        let w = standby.applied_lsn();
        for &(i, before, after) in &window {
            let present = standby.read("kv_pk", &key(i)).unwrap().is_some();
            if present {
                assert!(
                    w > before,
                    "key {i} visible at watermark {w}, inserted only at {before}"
                );
            }
            if w >= after {
                assert!(present, "key {i} missing at watermark {w} >= commit end {after}");
            }
        }
        if shipped == 0 && standby.applied_lsn() >= primary.log.flushed_lsn() {
            break;
        }
    }
    assert_eq!(standby.count("kv_pk").unwrap(), 30);
}

#[test]
fn standby_serves_reads_while_primary_writers_run() {
    let dir = TempDir::new("repl-concurrent");
    let primary = primary_with_schema(&dir);
    insert_committed(&primary, 0..50);
    let pair = ReplPair::create(primary, &dir.path().join("standby"), Obs::disabled()).unwrap();

    let writers_done = AtomicBool::new(false);
    let standby_reads = AtomicU64::new(0);
    std::thread::scope(|s| {
        let writers: Vec<_> = (0..2u32)
            .map(|w| {
                let (primary, standby_reads) = (&pair.primary, &standby_reads);
                s.spawn(move || {
                    for i in 0..100 {
                        if i == 50 {
                            // Half-way: hold until the standby has served reads.
                            while standby_reads.load(Ordering::Acquire) == 0 {
                                std::thread::yield_now();
                            }
                        }
                        let id = 1000 * (w + 1) + i;
                        insert_committed(primary, id..id + 1);
                    }
                })
            })
            .collect();
        // Ship, apply and read until both writers are done.
        s.spawn(|| {
            while !writers_done.load(Ordering::Acquire) {
                pair.pump().unwrap();
                for i in (0..50).step_by(7) {
                    assert!(pair.standby.read("kv_pk", &key(i)).unwrap().is_some());
                    standby_reads.fetch_add(1, Ordering::Release);
                }
            }
        });
        for w in writers {
            w.join().unwrap();
        }
        writers_done.store(true, Ordering::Release);
    });

    // Drained: the standby agrees with the primary.
    pair.sync().unwrap();
    let primary_rows = pair.primary.verify_consistency().unwrap().rows;
    assert_eq!(primary_rows, 250);
    assert_eq!(pair.standby.count("kv_pk").unwrap(), primary_rows);
}

#[test]
fn failover_loses_no_committed_key_and_rolls_back_losers() {
    let dir = TempDir::new("repl-failover");
    let primary = primary_with_schema(&dir);
    insert_committed(&primary, 0..50);
    let pair = ReplPair::create(primary, &dir.path().join("standby"), Obs::disabled()).unwrap();
    insert_committed(&pair.primary, 50..80);

    // A rolled-back transaction: its keys must not survive failover.
    let txn = pair.primary.begin();
    for i in 100..110 {
        pair.primary.insert_row(&txn, "kv", &row(i)).unwrap();
    }
    pair.primary.rollback(&txn).unwrap();

    // An in-flight transaction at failover time: a loser for the promoted
    // standby's undo pass.
    let loser = pair.primary.begin();
    for i in 200..210 {
        pair.primary.insert_row(&loser, "kv", &row(i)).unwrap();
    }
    pair.primary.log.flush_all().unwrap();

    // Semi-sync failover: drain the channel, then the primary "fails".
    pair.sync().unwrap();
    let (primary, standby, _shipper) = pair.into_parts();
    drop(loser);
    drop(primary);

    let promoted = standby.promote().unwrap();
    let outcome = promoted.restart_outcome.as_ref().unwrap();
    assert_eq!(outcome.losers.len(), 1, "the in-flight txn is a loser");
    assert!(outcome.undone >= 10);

    // Every committed key is present; rolled-back and loser keys are not.
    let txn = promoted.begin();
    for i in 0..80 {
        assert!(
            promoted
                .fetch_via(&txn, "kv_pk", &key(i), FetchCond::Eq)
                .unwrap()
                .is_some(),
            "committed key {i} lost in failover"
        );
    }
    for i in (100..110).chain(200..210) {
        assert!(
            promoted
                .fetch_via(&txn, "kv_pk", &key(i), FetchCond::Eq)
                .unwrap()
                .is_none(),
            "uncommitted key {i} survived failover"
        );
    }
    promoted.commit(&txn).unwrap();
    // verify_consistency errors on any heap/index disagreement.
    assert_eq!(promoted.verify_consistency().unwrap().rows, 80);

    // The promoted engine accepts new writes.
    insert_committed(&promoted, 300..305);
    assert_eq!(promoted.verify_consistency().unwrap().rows, 85);
}

#[test]
fn promoted_standby_without_sync_recovers_shipped_prefix() {
    // Unplanned failover: whatever was shipped is recovered, exactly like
    // a crash losing the unflushed tail. The oracle is the standby's own
    // log: committed-in-shipped-prefix keys live, the rest don't.
    let dir = TempDir::new("repl-unplanned");
    let primary = primary_with_schema(&dir);
    let pair = ReplPair::create(primary, &dir.path().join("standby"), Obs::disabled()).unwrap();

    insert_committed(&pair.primary, 0..10);
    pair.sync().unwrap(); // first batch fully shipped
    insert_committed(&pair.primary, 10..20); // second batch never shipped
    let (primary, standby, _shipper) = pair.into_parts();
    drop(primary);

    let promoted = standby.promote().unwrap();
    let txn = promoted.begin();
    for i in 0..10 {
        assert!(promoted
            .fetch_via(&txn, "kv_pk", &key(i), FetchCond::Eq)
            .unwrap()
            .is_some());
    }
    for i in 10..20 {
        assert!(promoted
            .fetch_via(&txn, "kv_pk", &key(i), FetchCond::Eq)
            .unwrap()
            .is_none());
    }
    promoted.commit(&txn).unwrap();
    assert_eq!(promoted.verify_consistency().unwrap().rows, 10);
}

/// A standby's (and a promoted standby's) log, pool and lock manager count
/// into one `Stats` and report to one `Obs`. The hand-built standby stack
/// gave its lock manager a disabled handle while its log and pool got the
/// caller's; `Core::open` leaves no place to write that.
#[test]
fn standby_components_share_one_stats_and_one_obs() {
    use ariesim_common::{PageId, Rid, TxnId};
    use ariesim_lock::{LockDuration, LockMode, LockName};
    use ariesim_txn::Core;

    fn shares_one_context(core: &Core) {
        assert!(Arc::ptr_eq(&core.obs, core.pool.obs()));
        assert!(
            Arc::ptr_eq(&core.obs, core.locks.obs()),
            "the lock manager reports to another Obs"
        );
        let before = core.stats.snapshot();
        let (txn, name) = (TxnId(u64::MAX - 1), LockName::Record(Rid::new(PageId(9), 0)));
        core.locks
            .request(txn, name, LockMode::X, LockDuration::Commit, false)
            .unwrap();
        core.locks.release_all(txn);
        drop(core.pool.fix_s(PageId(1)).unwrap());
        let d = core.stats.snapshot().since(&before);
        assert_eq!((d.locks_acquired, d.page_fixes), (1, 1));
    }

    let dir = TempDir::new("repl-context");
    let primary = primary_with_schema(&dir);
    insert_committed(&primary, 0..5);
    let obs = Obs::enabled(1 << 10);
    let pair = ReplPair::create(primary, &dir.path().join("standby"), obs.clone()).unwrap();
    let core = pair.standby.core();
    assert!(Arc::ptr_eq(&core.obs, &obs));
    shares_one_context(core);

    let (primary, standby, _shipper) = pair.into_parts();
    drop(primary);
    shares_one_context(&standby.promote().unwrap());
}
