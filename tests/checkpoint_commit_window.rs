//! A fuzzy checkpoint taken after a transaction's Commit is forced and
//! before the transaction has left the table of writers. Commit appends no
//! End, so a checkpoint in that window must not record the transaction as
//! in flight, or restart — whose forward pass starts at the checkpoint,
//! after the Commit — undoes a committed transaction whole.

use ariesim::common::tmp::TempDir;
use ariesim::db::{Db, DbOptions, FetchCond, Row};
use ariesim_fault as fault;
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
    // Crash at the point after the Commit's force, having taken a checkpoint
    // there: a forced-tail crash runs the pre-crash hook first. The hook
    // holds a `Weak` so it does not keep the engine alive past its crash.
    let _serial = fault::exclusive();
    let weak = Arc::downgrade(&db);
    fault::set_pre_crash_hook(move || {
        if let Some(db) = weak.upgrade() {
            db.checkpoint().unwrap();
        }
    });
    fault::arm_forced("txn.commit.forced", 1);
    fault::activate();
    let crashed = fault::run_to_crash(|| db.commit(&txn)).crashed();
    fault::disarm();
    fault::clear_pre_crash_hook();
    assert!(crashed.is_some(), "commit reached its forced point");
    drop(txn);
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
