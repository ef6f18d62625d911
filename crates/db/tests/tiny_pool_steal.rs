//! Steal semantics under memory pressure: with a tiny buffer pool, dirty
//! pages of *uncommitted* transactions get evicted to disk (steal), the WAL
//! rule forces the log first, and recovery must undo those stolen-but-
//! uncommitted changes after a crash.

use ariesim_common::tmp::TempDir;
use ariesim_db::{Db, DbOptions, FetchCond, Row};

fn row(i: u32) -> Row {
    Row::new(vec![
        format!("k{i:06}").into_bytes(),
        format!("v{}", "x".repeat(120)).into_bytes(),
    ])
}

fn tiny_opts() -> DbOptions {
    DbOptions {
        frames: 16, // minimum page cache: constant eviction
        ..DbOptions::default()
    }
}

#[test]
fn workload_correct_with_constant_eviction() {
    let dir = TempDir::new("steal");
    let db = Db::open(dir.path(), tiny_opts()).unwrap();
    db.create_table("t", 2).unwrap();
    db.create_index("t_pk", "t", 0, true).unwrap();
    // An insert fixes one heap page (the free-space book names it), so each
    // one is followed by an update of a scattered earlier row: the updates
    // dirty pages all over the heap, and the pool keeps evicting them.
    let txn = db.begin();
    for i in 0..2000 {
        db.insert_row(&txn, "t", &row(i)).unwrap();
        let key = format!("k{:06}", i as u64 * 2_654_435_761 % (i as u64 + 1));
        let (rid, _) = db
            .fetch_via(&txn, "t_pk", key.as_bytes(), FetchCond::Eq)
            .unwrap()
            .unwrap();
        let new = Row::new(vec![
            key.into_bytes(),
            format!("u{}", "y".repeat(120)).into_bytes(),
        ]);
        db.update_row(&txn, "t", rid, &new).unwrap();
    }
    db.commit(&txn).unwrap();
    let s = db.stats.snapshot();
    assert!(
        s.page_writes > 100,
        "tiny pool must have evicted dirty pages: {} writes",
        s.page_writes
    );
    let report = db.verify_consistency().unwrap();
    assert_eq!(report.rows, 2000);
}

#[test]
fn stolen_uncommitted_pages_are_undone_at_restart() {
    let dir = TempDir::new("steal");
    let db = Db::open(dir.path(), tiny_opts()).unwrap();
    db.create_table("t", 2).unwrap();
    db.create_index("t_pk", "t", 0, true).unwrap();
    let txn = db.begin();
    for i in 0..200 {
        db.insert_row(&txn, "t", &row(i)).unwrap();
    }
    db.commit(&txn).unwrap();

    // A big uncommitted transaction: with 16 frames its dirty pages are
    // stolen to disk long before any commit.
    let loser = db.begin();
    for i in 1000..2200 {
        db.insert_row(&loser, "t", &row(i)).unwrap();
    }
    let writes_during_loser = db.stats.snapshot().page_writes;
    assert!(
        writes_during_loser > 0,
        "the loser's pages must have been stolen"
    );
    db.log.flush_all().unwrap();
    let path = db.crash();

    let db = Db::open(&path, tiny_opts()).unwrap();
    let outcome = db.restart_outcome.as_ref().unwrap();
    assert_eq!(outcome.losers.len(), 1);
    assert!(outcome.undone > 0);
    let report = db.verify_consistency().unwrap();
    assert_eq!(
        report.rows, 200,
        "every stolen uncommitted change must be rolled back"
    );
    let txn = db.begin();
    assert!(db
        .fetch_via(&txn, "t_pk", b"k001500", FetchCond::Eq)
        .unwrap()
        .is_none());
    db.commit(&txn).unwrap();
}

#[test]
fn recovery_itself_works_with_a_tiny_pool() {
    // Restart with 16 frames over a database whose redo set is far larger
    // than the pool: recovery evicts and re-fixes pages as it goes.
    let dir = TempDir::new("steal");
    let db = Db::open(dir.path(), DbOptions::default()).unwrap();
    db.create_table("t", 2).unwrap();
    db.create_index("t_pk", "t", 0, true).unwrap();
    let txn = db.begin();
    for i in 0..3000 {
        db.insert_row(&txn, "t", &row(i)).unwrap();
    }
    db.commit(&txn).unwrap();
    let path = db.crash();

    let db = Db::open(&path, tiny_opts()).unwrap();
    let report = db.verify_consistency().unwrap();
    assert_eq!(report.rows, 3000);
    assert_eq!(db.stats.snapshot().redo_traversals, 0);
}
