//! A fuzzy checkpoint taken between a transaction's forced Commit and its
//! End record. `commit` releases locks and runs end hooks before it appends
//! End (unforced); a checkpoint in that window must not record the
//! transaction as in flight, or a crash that loses End makes restart — whose
//! analysis starts at the checkpoint, after the Commit — undo a committed
//! transaction whole.

use ariesim::common::tmp::TempDir;
use ariesim::db::{Db, DbOptions, FetchCond, Row};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const ROWS: u32 = 50;

fn key(i: u32) -> Vec<u8> {
    format!("key-{i:04}").into_bytes()
}

#[test]
fn checkpoint_in_the_commit_window_keeps_the_committed_transaction() {
    let dir = TempDir::new("commit-window");
    let db = Db::open(dir.path(), DbOptions::default()).unwrap();
    db.create_table("t", 2).unwrap();
    db.create_index("t_pk", "t", 0, true).unwrap();

    let txn = db.begin();
    for i in 0..ROWS {
        let row = Row::new(vec![key(i), b"payload".to_vec()]);
        db.insert_row(&txn, "t", &row).unwrap();
    }
    // The next transaction end takes a checkpoint, once. The hook holds a
    // `Weak` so it does not keep the engine alive past its crash.
    let armed = Arc::new(AtomicBool::new(true));
    let (fire, weak) = (armed.clone(), Arc::downgrade(&db));
    db.tm.on_end(Arc::new(move |_| {
        if fire.swap(false, Ordering::SeqCst) {
            if let Some(db) = weak.upgrade() {
                db.checkpoint().unwrap();
            }
        }
    }));
    db.commit(&txn).unwrap();
    assert!(!armed.load(Ordering::SeqCst), "the end hook took its checkpoint");

    // Crash: the checkpoint forced the log through CkptEnd; End was appended
    // after it and is lost.
    let dir_path = db.crash();
    let db = Db::open(&dir_path, DbOptions::default()).unwrap();
    let outcome = db.restart_outcome.as_ref().unwrap();
    assert!(
        outcome.losers.is_empty(),
        "committed transaction undone as a loser: {:?}",
        outcome.losers
    );
    let report = db.verify_consistency().unwrap();
    assert_eq!(report.rows, ROWS as usize, "every committed row survives");
    let txn = db.begin();
    for i in 0..ROWS {
        assert!(db
            .fetch_via(&txn, "t_pk", &key(i), FetchCond::Eq)
            .unwrap()
            .is_some());
    }
    db.commit(&txn).unwrap();
}
