//! `Db::scan_range` in runs (§2.3 Fetch Next, §2.1 data-only locking): the
//! index locks a run of keys along one leaf under its S latch, then the heap
//! reads their rows one fix per page. The set and order of locks must be
//! Fetch Next's, one key at a time; only the page fixes fall.

use ariesim_btree::fetch::FetchCond;
use ariesim_btree::LockProtocol;
use ariesim_common::stats::Bump as _;
use ariesim_common::tmp::TempDir;
use ariesim_common::Rid;
use ariesim_db::{Db, DbOptions, Row};
use ariesim_lock::{LockMode, LockName};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const ROWS: u32 = 200;

/// Padded so that a leaf holds about 60 keys and a heap page about 50 rows.
fn key(i: u32) -> Vec<u8> {
    format!("key-{i:04}{}", "-".repeat(100)).into_bytes()
}

fn row(i: u32, payload: &str) -> Row {
    Row::new(vec![key(i), payload.as_bytes().to_vec()])
}

/// A table `t` of `ROWS` rows inserted in key order, indexed on column 0.
fn open_loaded(dir: &TempDir, protocol: LockProtocol) -> Arc<Db> {
    let opts = DbOptions {
        protocol,
        ..DbOptions::default()
    };
    let db = Db::open(dir.path(), opts).unwrap();
    db.create_table("t", 2).unwrap();
    db.create_index("t_pk", "t", 0, true).unwrap();
    let txn = db.begin();
    for i in 0..ROWS {
        db.insert_row(&txn, "t", &row(i, "old")).unwrap();
    }
    db.commit(&txn).unwrap();
    db
}

/// Heap pages a run of `rids` fixes: one per maximal run on one page.
fn heap_fixes(rids: &[Rid]) -> u64 {
    rids.chunk_by(|a, b| a.page == b.page).count() as u64
}

fn assert_rows(rows: &[(Rid, Row)], from: u32, payload_of: impl Fn(u32) -> &'static str) {
    let want: Vec<Row> = (from..from + 20).map(|i| row(i, payload_of(i))).collect();
    let got: Vec<Row> = rows.iter().map(|(_, r)| r.clone()).collect();
    assert_eq!(got, want);
}

#[test]
fn a_twenty_key_scan_takes_twenty_one_locks_and_fixes_each_page_once() {
    let dir = TempDir::new("scan-runs");
    let db = open_loaded(&dir, LockProtocol::DataOnly);
    let tree = db.tree_by_name("t_pk").unwrap();

    // One descent, root to leaf, as a point fetch pays it.
    let txn = db.begin();
    let before = db.stats.snapshot();
    tree.fetch(&txn, &key(0), FetchCond::Eq).unwrap();
    let descent = db.stats.snapshot().since(&before).page_fixes;
    db.commit(&txn).unwrap();

    // Keys 0..=20 sit on the leftmost leaf, so the scan is one index run:
    // the descent, then the heap pages of the 20 rows.
    let txn = db.begin();
    let before = db.stats.snapshot();
    let rows = db.scan_range(&txn, "t_pk", &key(0), &key(20)).unwrap();
    let d = db.stats.snapshot().since(&before);
    assert_rows(&rows, 0, |_| "old");
    let rids: Vec<Rid> = rows.iter().map(|(rid, _)| *rid).collect();
    assert_eq!(d.locks_acquired, 21, "20 keys and the stop key");
    assert_eq!(d.locks_commit, 21);
    assert_eq!(d.lock_waits + d.lock_conditional_denials, 0);
    for rid in &rids {
        let name = LockName::for_data(*rid, false);
        assert_eq!(db.locks.holds(txn.id, &name), Some(LockMode::S));
    }
    assert_eq!(d.page_fixes, descent + heap_fixes(&rids));
    db.commit(&txn).unwrap();

    // Anywhere in the table a 20-key range spans at most two leaves, hence
    // two index runs: the second fixes the first run's leaf again and its
    // right neighbour, and a heap page under both runs is fixed in each.
    let mut two_runs = 0;
    for from in (0..ROWS - 20).step_by(7) {
        let txn = db.begin();
        let before = db.stats.snapshot();
        let rows = db.scan_range(&txn, "t_pk", &key(from), &key(from + 20)).unwrap();
        let d = db.stats.snapshot().since(&before);
        assert_rows(&rows, from, |_| "old");
        let rids: Vec<Rid> = rows.iter().map(|(rid, _)| *rid).collect();
        assert_eq!(d.locks_acquired, 21);
        assert!(
            d.page_fixes <= descent + 2 + heap_fixes(&rids) + 1,
            "scan from {from}: {} fixes, descent {descent}",
            d.page_fixes
        );
        two_runs += usize::from(d.page_fixes > descent + heap_fixes(&rids));
        db.commit(&txn).unwrap();
    }
    assert!(descent >= 2 && two_runs > 0, "the table must span several leaves");
    assert!(db.obs.monitor.snapshot().clean());
}

#[test]
fn a_run_stops_at_a_held_key_and_the_scan_waits_for_its_commit() {
    let dir = TempDir::new("scan-runs");
    let db = open_loaded(&dir, LockProtocol::DataOnly);

    // Under data-only locking the writer's X lock on the 10th row's record
    // is the lock on its key.
    let writer = db.begin();
    let (rid, _) = db.fetch_via(&writer, "t_pk", &key(49), FetchCond::Eq).unwrap().unwrap();
    db.update_row(&writer, "t", rid, &row(49, "new")).unwrap();

    let before = db.stats.snapshot();
    let committing = AtomicBool::new(false);
    let (rows, waited_for_commit) = std::thread::scope(|s| {
        let scanner = s.spawn(|| {
            let txn = db.begin();
            let rows = db.scan_range(&txn, "t_pk", &key(40), &key(60)).unwrap();
            let waited_for_commit = committing.load(Ordering::Acquire);
            db.commit(&txn).unwrap();
            (rows, waited_for_commit)
        });
        while db.stats.lock_waits.get() == before.lock_waits && !scanner.is_finished() {
            std::thread::sleep(Duration::from_millis(1));
        }
        committing.store(true, Ordering::Release);
        db.commit(&writer).unwrap();
        scanner.join().unwrap()
    });

    assert!(waited_for_commit, "the scan returned before the writer committed");
    assert_rows(&rows, 40, |i| if i == 49 { "new" } else { "old" });
    let d = db.stats.snapshot().since(&before);
    // The run's conditional request on key 49 is denied and the run ends;
    // the next call's is denied too, and that call waits.
    assert_eq!(d.lock_conditional_denials, 2);
    assert_eq!(d.lock_waits, 1);
    assert_eq!(d.deadlocks, 0);
    let m = db.obs.monitor.snapshot();
    assert!(m.clean() && m.max_latch_depth <= 2, "monitor: {m:?}");
}

#[test]
fn index_specific_locking_also_locks_each_record() {
    let data_only = TempDir::new("scan-runs");
    let expected = {
        let db = open_loaded(&data_only, LockProtocol::DataOnly);
        let txn = db.begin();
        let rows = db.scan_range(&txn, "t_pk", &key(40), &key(60)).unwrap();
        db.commit(&txn).unwrap();
        rows
    };

    let dir = TempDir::new("scan-runs");
    let db = open_loaded(&dir, LockProtocol::IndexSpecific);
    let txn = db.begin();
    let before = db.stats.snapshot();
    let rows = db.scan_range(&txn, "t_pk", &key(40), &key(60)).unwrap();
    let d = db.stats.snapshot().since(&before);
    assert_eq!(rows, expected);
    assert_eq!(d.locks_keyvalue, 21, "20 keys and the stop key");
    assert_eq!(d.locks_record, 20);
    assert_eq!(d.locks_acquired, 41);
    for (rid, _) in &rows {
        let name = LockName::for_data(*rid, false);
        assert_eq!(db.locks.holds(txn.id, &name), Some(LockMode::S));
    }
    db.commit(&txn).unwrap();
    let m = db.obs.monitor.snapshot();
    assert!(m.clean() && m.max_latch_depth <= 2, "monitor: {m:?}");
}
