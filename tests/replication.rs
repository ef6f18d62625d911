//! Log-shipping replication: round-trip, the applied-LSN watermark
//! contract, and failover.
//!
//! The watermark contract under test is the one `crates/repl` documents:
//! a standby read reflects the pulled log *exactly* up to `applied_lsn()`
//! — a key is never visible before its insert has been applied, and is
//! always visible once the watermark has passed its transaction's commit.

use ariesim_common::tmp::TempDir;
use ariesim_common::Lsn;
use ariesim_db::{Db, DbOptions, FetchCond, Row};
use ariesim_obs::Obs;
use ariesim_repl::{fork_standby, Standby};
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

fn fork(primary: &Arc<Db>, dir: &TempDir) -> Arc<Standby> {
    fork_standby(primary, &dir.path().join("standby"), Obs::disabled()).unwrap()
}

fn insert_committed(db: &Arc<Db>, ids: std::ops::Range<u32>) {
    let txn = db.begin();
    for i in ids {
        db.insert_row(&txn, "kv", &row(i)).unwrap();
    }
    db.commit(&txn).unwrap();
}

/// A fork needs a quiesced primary, and only writers count: a reader in
/// flight has appended nothing, so the base backup holds nothing of it.
#[test]
fn fork_refuses_a_writer_in_flight_but_not_a_reader() {
    let dir = TempDir::new("repl-fork-quiesce");
    let primary = primary_with_schema(&dir);
    insert_committed(&primary, 0..5);
    let reader = primary.begin();
    let found = primary.fetch_via(&reader, "kv_pk", &key(3), FetchCond::Eq).unwrap();
    assert!(found.is_some());
    let writer = primary.begin();
    primary.insert_row(&writer, "kv", &row(10)).unwrap();
    let refused = fork_standby(&primary, &dir.path().join("refused"), Obs::disabled());
    assert!(refused.is_err(), "a writer in flight refuses the fork");
    primary.rollback(&writer).unwrap();
    let standby = fork(&primary, &dir);
    primary.commit(&reader).unwrap();
    assert_eq!(standby.count("kv_pk").unwrap(), 5);
}

#[test]
fn round_trip_reads_follow_the_stream() {
    let dir = TempDir::new("repl-roundtrip");
    let primary = primary_with_schema(&dir);
    insert_committed(&primary, 0..20);

    let standby = fork(&primary, &dir);

    // Base backup: pre-fork keys are served immediately.
    let (_, r) = standby.read("kv_pk", &key(7)).unwrap().unwrap();
    assert_eq!(r.field(1).unwrap(), format!("payload-{}", 7).as_bytes());
    assert_eq!(standby.count("kv_pk").unwrap(), 20);

    // Post-fork commits are invisible until pulled + applied...
    insert_committed(&primary, 20..40);
    assert!(standby.read("kv_pk", &key(25)).unwrap().is_none());
    assert!(standby.lag_bytes() > 0);

    // ...and visible after a sync, watermark at the primary's log end.
    standby.sync().unwrap();
    assert_eq!(standby.lag_bytes(), 0);
    assert!(standby.read("kv_pk", &key(25)).unwrap().is_some());
    assert_eq!(standby.count("kv_pk").unwrap(), 40);

    // Updates and deletes replicate too.
    let txn = primary.begin();
    let (rid, _) = primary
        .fetch_via(&txn, "kv_pk", &key(3), FetchCond::Eq)
        .unwrap()
        .unwrap();
    primary
        .update_row(&txn, "kv", rid, &Row::new(vec![key(3), b"updated".to_vec()]))
        .unwrap();
    let (rid9, _) = primary
        .fetch_via(&txn, "kv_pk", &key(9), FetchCond::Eq)
        .unwrap()
        .unwrap();
    primary.delete_row(&txn, "kv", rid9).unwrap();
    primary.commit(&txn).unwrap();
    standby.sync().unwrap();
    let (_, r) = standby.read("kv_pk", &key(3)).unwrap().unwrap();
    assert_eq!(r.field(1).unwrap(), b"updated");
    assert!(standby.read("kv_pk", &key(9)).unwrap().is_none());
    assert_eq!(standby.count("kv_pk").unwrap(), 39);
}

#[test]
fn standby_never_serves_past_its_watermark() {
    let dir = TempDir::new("repl-watermark");
    let primary = primary_with_schema(&dir);
    let standby = fork(&primary, &dir);

    // Commit keys one per transaction, bracketing each with log positions:
    // below `before` the key cannot exist; at or past `after` it must.
    // After each commit, pump once and check all 30 keys against the
    // watermark (a key not yet inserted has `before` = its future start).
    let mut window: Vec<(u32, Lsn, Lsn)> = Vec::new();
    for i in 0..30 {
        let before = primary.log.next_lsn();
        let txn = primary.begin();
        primary.insert_row(&txn, "kv", &row(i)).unwrap();
        primary.commit(&txn).unwrap();
        window.push((i, before, primary.log.next_lsn()));
        standby.pump().unwrap();
        let w = standby.applied_lsn();
        for j in 0..30 {
            let present = standby.read("kv_pk", &key(j)).unwrap().is_some();
            let Some(&(_, before, after)) = window.get(j as usize) else {
                assert!(!present, "key {j} visible at {w} before its insert");
                continue;
            };
            if present {
                assert!(
                    w > before,
                    "key {j} visible at watermark {w}, inserted only at {before}"
                );
            }
            if w >= after {
                assert!(present, "key {j} missing at watermark {w} >= {after}");
            }
        }
    }
    assert_eq!(standby.count("kv_pk").unwrap(), 30);
}

#[test]
fn standby_serves_reads_while_primary_writers_run() {
    let dir = TempDir::new("repl-concurrent");
    let primary = primary_with_schema(&dir);
    insert_committed(&primary, 0..50);
    let standby = fork(&primary, &dir);

    let writers_done = AtomicBool::new(false);
    let standby_reads = AtomicU64::new(0);
    std::thread::scope(|s| {
        let writers: Vec<_> = (0..2u32)
            .map(|w| {
                let (primary, standby_reads) = (&primary, &standby_reads);
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
        // Pull, apply and read until both writers are done.
        s.spawn(|| {
            while !writers_done.load(Ordering::Acquire) {
                standby.pump().unwrap();
                for i in (0..50).step_by(7) {
                    assert!(standby.read("kv_pk", &key(i)).unwrap().is_some());
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
    standby.sync().unwrap();
    let primary_rows = primary.verify_consistency().unwrap().rows;
    assert_eq!(primary_rows, 250);
    assert_eq!(standby.count("kv_pk").unwrap(), primary_rows);
}

#[test]
fn failover_loses_no_committed_key_and_rolls_back_losers() {
    let dir = TempDir::new("repl-failover");
    let primary = primary_with_schema(&dir);
    insert_committed(&primary, 0..50);
    let standby = fork(&primary, &dir);
    insert_committed(&primary, 50..80);

    // A rolled-back transaction: its keys must not survive failover.
    let txn = primary.begin();
    for i in 100..110 {
        primary.insert_row(&txn, "kv", &row(i)).unwrap();
    }
    primary.rollback(&txn).unwrap();

    // An in-flight transaction at failover time: a loser for the promoted
    // standby's undo pass.
    let loser = primary.begin();
    for i in 200..210 {
        primary.insert_row(&loser, "kv", &row(i)).unwrap();
    }
    primary.log.flush_all().unwrap();

    // Semi-sync failover: drain the standby, then the primary "fails".
    standby.sync().unwrap();
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

/// A loser whose only records precede the last checkpoint is known to the
/// promoted standby only through that checkpoint's transaction table, so
/// the standby must never adopt a master record naming a checkpoint whose
/// `CkptEnd` it lacks: analysis would start at the `CkptBegin`, never meet
/// the loser, and keep its row.
#[test]
fn failover_rolls_back_a_loser_whose_records_precede_the_last_checkpoint() {
    let dir = TempDir::new("repl-ckpt-failover");
    let primary = primary_with_schema(&dir);
    let standby = fork(&primary, &dir);

    let loser = primary.begin();
    primary.insert_row(&loser, "kv", &row(1)).unwrap();
    standby.sync().unwrap();
    primary.checkpoint().unwrap();
    standby.sync().unwrap();
    assert_eq!(
        standby.core().log.read_master().unwrap(),
        primary.log.read_master().unwrap()
    );
    drop(loser);
    drop(primary);

    let promoted = standby.promote().unwrap();
    let outcome = promoted.restart_outcome.as_ref().unwrap();
    assert_eq!(outcome.losers.len(), 1, "the in-flight txn is a loser");
    let txn = promoted.begin();
    assert!(promoted
        .fetch_via(&txn, "kv_pk", &key(1), FetchCond::Eq)
        .unwrap()
        .is_none());
    promoted.commit(&txn).unwrap();
    assert_eq!(promoted.verify_consistency().unwrap().rows, 0);
}

/// The same rule under a race: while the primary checkpoints over and over,
/// every master record the pumping standby adopts names a checkpoint whose
/// `CkptEnd` is already in the standby's own log.
#[test]
fn standby_adopts_only_checkpoints_it_holds_whole() {
    use ariesim_wal::RecordKind;
    let dir = TempDir::new("repl-ckpt-race");
    let primary = primary_with_schema(&dir);
    let standby = fork(&primary, &dir);
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..300 {
                primary.checkpoint().unwrap();
            }
            done.store(true, Ordering::Release);
        });
        let log = &standby.core().log;
        while !done.load(Ordering::Acquire) {
            standby.pump().unwrap();
            let master = log.read_master().unwrap();
            let whole = log
                .scan(master)
                .map(|r| r.unwrap().kind)
                .any(|k| k == RecordKind::CkptEnd);
            assert!(whole, "master {master} names a checkpoint without its CkptEnd");
        }
    });
}

#[test]
fn promoted_standby_without_sync_recovers_shipped_prefix() {
    // Unplanned failover: whatever was pulled is recovered, exactly like
    // a crash losing the unflushed tail. The oracle is the standby's own
    // log: committed-in-pulled-prefix keys live, the rest don't.
    let dir = TempDir::new("repl-unplanned");
    let primary = primary_with_schema(&dir);
    let standby = fork(&primary, &dir);

    insert_committed(&primary, 0..10);
    standby.sync().unwrap(); // first batch fully pulled
    insert_committed(&primary, 10..20); // second batch never pulled
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
    let standby = fork_standby(&primary, &dir.path().join("standby"), obs.clone()).unwrap();
    let core = standby.core();
    assert!(Arc::ptr_eq(&core.obs, &obs));
    shares_one_context(core);

    drop(primary);
    shares_one_context(&standby.promote().unwrap());
}

/// Promotion is the forward pass's undo on the live engine: nothing is
/// redone again, no page is read from disk (the standby's pool already
/// holds every page the loser touched), and the promoted engine counts
/// into the standby's own `Stats` — the engine was neither dropped nor
/// reopened.
#[test]
fn promote_is_undo_on_the_live_engine() {
    let dir = TempDir::new("repl-promote-undo");
    let primary = primary_with_schema(&dir);
    insert_committed(&primary, 0..20);
    let standby = fork(&primary, &dir);
    insert_committed(&primary, 20..30);
    let loser = primary.begin();
    for i in 100..105 {
        primary.insert_row(&loser, "kv", &row(i)).unwrap();
    }
    standby.sync().unwrap();
    let loser_id = loser.id;
    drop(loser);
    drop(primary);

    let stats = standby.core().stats.clone();
    let reads = stats.snapshot().page_reads;
    let promoted = standby.promote().unwrap();
    assert!(Arc::ptr_eq(&stats, &promoted.stats), "promote reopened the engine");
    assert_eq!(promoted.stats.snapshot().page_reads, reads, "promote read a page");
    let outcome = promoted.restart_outcome.as_ref().unwrap();
    assert_eq!(outcome.redo_seen, 0, "promote redid pulled log again");
    assert_eq!(outcome.losers, vec![loser_id]);
    assert_eq!(outcome.undone, 10, "5 heap inserts + 5 key inserts");
    assert_eq!(promoted.verify_consistency().unwrap().rows, 30);
    insert_committed(&promoted, 200..201);
    assert_eq!(promoted.verify_consistency().unwrap().rows, 31);
}

/// `Standby::open` over a standby's own directory seeds the forward pass
/// from the master record the standby adopted. Its checkpoint's
/// transaction table is the only place the loser appears, since every
/// record of the loser precedes that checkpoint.
#[test]
fn reopened_standby_seeds_from_its_adopted_checkpoint() {
    let dir = TempDir::new("repl-reopen-seed");
    let primary = primary_with_schema(&dir);
    let standby = fork(&primary, &dir);
    insert_committed(&primary, 0..10);
    let loser = primary.begin();
    primary.insert_row(&loser, "kv", &row(100)).unwrap();
    standby.sync().unwrap();
    let master = primary.checkpoint().unwrap();
    standby.sync().unwrap();
    assert_eq!(standby.core().log.read_master().unwrap(), master);
    drop(standby);

    let standby_dir = dir.path().join("standby");
    let standby = Standby::open(&standby_dir, opts(), primary.log.clone(), Obs::disabled()).unwrap();
    standby.pump().unwrap();
    drop(loser);
    drop(primary);

    let promoted = standby.promote().unwrap();
    let outcome = promoted.restart_outcome.as_ref().unwrap();
    assert_eq!(outcome.ckpt_lsn, master, "the pass was seeded from the adopted master");
    assert_eq!(outcome.losers.len(), 1, "the checkpoint's loser");
    let txn = promoted.begin();
    assert!(promoted
        .fetch_via(&txn, "kv_pk", &key(100), FetchCond::Eq)
        .unwrap()
        .is_none());
    promoted.commit(&txn).unwrap();
    assert_eq!(promoted.verify_consistency().unwrap().rows, 10);
}

/// A checkpoint's dirty page table describes the primary's pages, not the
/// standby's. Here the primary flushes before it checkpoints, so the table
/// is empty while the standby's pool still holds every pulled insert
/// unwritten. The standby flushes before it adopts the master, so a
/// standby that stops without flushing and is reopened (seeding from that
/// master) still has every row.
#[test]
fn reopened_standby_keeps_rows_the_primary_flushed_before_its_checkpoint() {
    let dir = TempDir::new("repl-reopen-flushed");
    let primary = primary_with_schema(&dir);
    let standby = fork(&primary, &dir);
    insert_committed(&primary, 0..20);
    standby.sync().unwrap();
    primary.pool.flush_all().unwrap();
    primary.checkpoint().unwrap();
    standby.sync().unwrap();
    drop(standby);

    let standby_dir = dir.path().join("standby");
    let standby = Standby::open(&standby_dir, opts(), primary.log.clone(), Obs::disabled()).unwrap();
    assert_eq!(standby.count("kv_pk").unwrap(), 20);
    drop(primary);
    assert_eq!(standby.promote().unwrap().verify_consistency().unwrap().rows, 20);
}
