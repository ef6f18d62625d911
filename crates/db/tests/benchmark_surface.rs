//! Every engine call `benchmark/src/{run,ladder}.rs` makes, spelled the way
//! the benchmark spells it. `benchmark/` is a workspace of its own that
//! `cargo test --workspace` never compiles, so without this file a renamed
//! field or a changed signature passes tier-1 and fails only in the
//! benchmark pipeline. If this file stops compiling, the benchmark has too:
//! keep the old spelling, or change `benchmark/` in a benchmark-only PR.

use ariesim_btree::fetch::{FetchCond, FetchResult};
use ariesim_common::stats::{new_stats, Bump, StatsSnapshot};
use ariesim_common::tmp::TempDir;
use ariesim_common::{IndexKey, Lsn, PageId, Rid, TableId, TxnId};
use ariesim_db::{Db, DbOptions, Row};
use ariesim_lock::{LockDuration, LockMode, LockName};
use ariesim_obs::{Obs, ObsHandle, SpanKind, SpanSnapshot};
use ariesim_txn::TxnHandle;
use ariesim_wal::{LogManager, LogOptions, LogRecord, RmId};
use std::sync::atomic::Ordering;

const TABLE: &str = "kv";
const INDEX: &str = "kv_pk";

fn db_options(frames: usize) -> DbOptions {
    DbOptions {
        frames,
        ..DbOptions::default()
    }
}

fn key(i: u32) -> Vec<u8> {
    format!("key{i:08}").into_bytes()
}

fn found(r: FetchResult) -> IndexKey {
    match r {
        FetchResult::Found(k) => k,
        FetchResult::NotFound => panic!("key not found"),
    }
}

/// A database with `TABLE`, `INDEX` and rows `0..100`, as `run.rs::setup`
/// loads one: through a large pool, flushed, checkpointed, closed.
fn load(dir: &std::path::Path) -> TableId {
    let db = Db::open(dir, db_options(256)).unwrap();
    let table = db.create_table(TABLE, 2).unwrap();
    db.create_index(INDEX, TABLE, 0, true).unwrap();
    let txn = db.begin();
    for i in 0..100 {
        let row = Row::new(vec![key(i), b"payload".to_vec()]);
        db.insert_row(&txn, TABLE, &row).unwrap();
    }
    db.commit(&txn).unwrap();
    db.pool.flush_all().unwrap();
    db.checkpoint().unwrap();
    db.log.flush_all().unwrap();
    table
}

#[test]
fn engine_calls_of_run_rs() {
    let dir = TempDir::new("surface-run");
    load(dir.path());

    // setup(): reopen with the run's handle, warm the pool.
    let obs: ObsHandle = Obs::enabled(4096);
    let db = Db::open_with_obs(dir.path(), db_options(64), obs).unwrap();
    let redone = db
        .restart_outcome
        .as_ref()
        .map_or(0, |o| o.redo_applied + o.undone);
    assert_eq!(redone, 0, "flushed, checkpointed database needs no recovery");
    db.heap.scan_all(db.table_first_page(TABLE).unwrap()).unwrap();
    db.tree_by_name(INDEX).unwrap().scan_all_unlocked().unwrap();

    // run_phase(): one operation of each kind under a UserWork span.
    let obs = db.obs().clone();
    obs.reset();
    let before = db.stats.snapshot();
    let user_work = db.obs().span(SpanKind::UserWork, 0, 0);
    let txn = db.begin();
    assert!(db.fetch_via(&txn, INDEX, &key(7), FetchCond::Eq).unwrap().is_some());
    assert_eq!(db.scan_range(&txn, INDEX, &key(10), &key(20)).unwrap().len(), 10);
    let row = Row::new(vec![key(1_000), b"new".to_vec()]);
    db.insert_row(&txn, TABLE, &row).map(|_| true).unwrap();
    let (rid, _) = db.fetch_via(&txn, INDEX, &key(8), FetchCond::Eq).unwrap().unwrap();
    let row = Row::new(vec![key(8), b"updated".to_vec()]);
    db.update_row(&txn, TABLE, rid, &row).map(|()| true).unwrap();
    let (rid, _) = db.fetch_via(&txn, INDEX, &key(9), FetchCond::Eq).unwrap().unwrap();
    db.delete_row(&txn, TABLE, rid).map(|_| true).unwrap();
    db.commit(&txn).unwrap();
    db.rollback(&db.begin()).unwrap();
    drop(user_work);
    let delta: StatsSnapshot = db.stats.snapshot().since(&before);
    assert_eq!((delta.index_inserts, delta.index_deletes), (1, 1));

    // traced(): the read-out.
    let engine_spans: SpanSnapshot = obs.spans.snapshot();
    assert!(engine_spans.total_ns() >= engine_spans.self_ns[SpanKind::UserWork as usize]);
    let count = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
    let _ = (count(&obs.pool.evictions), count(&obs.pool.shard_contended));
    let _ = (count(&obs.wal.group_batches), count(&obs.wal.group_riders));

    // crash_and_check(): a loser, the crash, the timed reopen, the audit.
    let loser = db.begin();
    let row = Row::new(vec![key(2_000), b"loser".to_vec()]);
    db.insert_row(&loser, TABLE, &row).unwrap();
    db.log.flush_all().unwrap();
    drop(loser);
    let wal_len = std::fs::metadata(db.dir().join("wal")).unwrap().len();
    let dir = db.crash();
    let db = Db::open(&dir, db_options(64)).unwrap();
    let outcome = db.restart_outcome.as_ref().expect("open always reports its restart");
    assert!(wal_len > outcome.ckpt_lsn.0);
    assert!(outcome.analyzed > 0 && outcome.redo_seen >= outcome.redo_applied);
    assert!(outcome.undone > 0);
    assert_eq!(db.stats.snapshot().redo_traversals, 0);
    let rows = db.heap.scan_all(db.table_first_page(TABLE).unwrap()).unwrap();
    assert!(Row::decode(&rows[0].1).unwrap().fields.pop().is_some());
    db.verify_consistency().unwrap();
    db.pool.flush_all().unwrap();
    assert!(std::fs::metadata(dir.join("pages")).unwrap().len() > 0);
}

#[test]
fn engine_calls_of_ladder_rs() {
    let dir = TempDir::new("surface-ladder");
    let table = load(dir.path());
    let db = Db::open(dir.path(), db_options(256)).unwrap();

    // wal_rungs(): a log of its own, both force flavours.
    let rec = LogRecord::update(TxnId(1), Lsn::NULL, RmId::Heap, PageId(1), vec![0xAB; 150]);
    let log = LogManager::open(&dir.file("ladder.wal"), LogOptions::default(), new_stats()).unwrap();
    let lsn = log.append(&rec);
    log.flush_to(lsn).unwrap();
    log.flush_all().unwrap();
    assert!(log.next_lsn().0 - log.first_lsn().0 > 150);
    assert_eq!(log.scan(Lsn::NULL).filter(|r| r.is_ok()).count(), 1);
    // `fsync` is the only field now, but this is the benchmark's spelling.
    #[allow(clippy::needless_update)]
    let opts = LogOptions {
        fsync: true,
        ..LogOptions::default()
    };
    let log = LogManager::open(&dir.file("ladder-fsync.wal"), opts, new_stats()).unwrap();
    log.flush_to(log.append(&rec)).unwrap();

    // heap_pages(), fix rungs, lock rung.
    let page = db.table_first_page(TABLE).unwrap();
    assert!(!page.is_null());
    let before = db.stats.snapshot();
    let _next: PageId = db.pool.fix_s(page).unwrap().next();
    let d = db.stats.snapshot().since(&before);
    assert_eq!((d.page_fixes, d.page_reads, d.page_writes), (1, 1, 0));
    let owner = TxnId(u64::MAX - 1);
    let name = LockName::Record(Rid::new(PageId(1_000_000), 0));
    db.locks
        .request(owner, name, LockMode::X, LockDuration::Commit, false)
        .unwrap();
    db.locks.release_all(owner);

    // read_rungs(): the layers' own calls beside `Db`'s.
    let tree = db.tree_by_name(INDEX).unwrap();
    let locks = || db.stats.locks_acquired.get();
    let fixes = || db.stats.page_fixes.get();
    let txn = db.tm.begin();
    let k = found(tree.fetch(&txn, &key(3), FetchCond::Eq).unwrap());
    db.heap.fetch(&txn, k.rid, true).unwrap();
    let (_, cursor) = tree.open_scan(&txn, &key(5), FetchCond::Ge).unwrap();
    let mut cursor = cursor.unwrap();
    assert!(tree.fetch_next(&txn, &mut cursor).unwrap().is_some());
    db.tm.commit(&txn).unwrap();
    assert!(locks() > 0 && fixes() > 0);

    // write_rungs(): heap and tree by hand, in one transaction manager txn.
    let first_page = db.table_first_page(TABLE).unwrap();
    let rid_of = |txn: &TxnHandle, key: &[u8]| found(tree.fetch(txn, key, FetchCond::Eq).unwrap()).rid;
    let txn = db.tm.begin();
    let data = Row::new(vec![key(500), b"v0".to_vec()]).encode();
    let rid: Rid = db.heap.insert(&txn, table, first_page, &data).unwrap();
    tree.insert(&txn, &IndexKey::new(key(500), rid)).unwrap();
    db.tm.commit(&txn).unwrap();
    let txn = db.tm.begin();
    let rid = rid_of(&txn, &key(500));
    let data = Row::new(vec![key(500), b"v1".to_vec()]).encode();
    db.heap.update(&txn, table, rid, &data).map(|_| ()).unwrap();
    db.tm.commit(&txn).unwrap();
    let txn = db.tm.begin();
    let rid = rid_of(&txn, &key(500));
    db.heap.delete(&txn, table, rid).unwrap();
    tree.delete(&txn, &IndexKey::new(key(500), rid)).unwrap();
    db.tm.commit(&txn).unwrap();

    // txn_rungs(): rollback through the transaction manager.
    let txn = db.tm.begin();
    let rid = rid_of(&txn, &key(4));
    db.heap.update(&txn, table, rid, &data).unwrap();
    db.tm.rollback(&txn).unwrap();
    db.verify_consistency().unwrap();
}
