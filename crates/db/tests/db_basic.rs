//! Facade-level functional tests: DDL, DML through indexes, rollback, and
//! clean reopen.

use ariesim_common::tmp::TempDir;
use ariesim_common::Error;
use ariesim_db::{Db, DbOptions, FetchCond, Row};

fn open(dir: &TempDir) -> std::sync::Arc<Db> {
    Db::open(dir.path(), DbOptions::default()).unwrap()
}

fn setup_accounts(db: &Db) {
    db.create_table("accounts", 3).unwrap();
    db.create_index("accounts_pk", "accounts", 0, true).unwrap();
    db.create_index("accounts_by_branch", "accounts", 1, false)
        .unwrap();
}

fn account(id: u32, branch: &str, balance: u32) -> Row {
    Row::new(vec![
        format!("acct-{id:06}").into_bytes(),
        branch.as_bytes().to_vec(),
        format!("{balance}").into_bytes(),
    ])
}

#[test]
fn create_insert_fetch() {
    let dir = TempDir::new("db");
    let db = open(&dir);
    setup_accounts(&db);
    let txn = db.begin();
    db.insert_row(&txn, "accounts", &account(1, "north", 100))
        .unwrap();
    db.insert_row(&txn, "accounts", &account(2, "south", 200))
        .unwrap();
    db.commit(&txn).unwrap();

    let txn = db.begin();
    let (_, row) = db
        .fetch_via(&txn, "accounts_pk", b"acct-000002", FetchCond::Eq)
        .unwrap()
        .unwrap();
    assert_eq!(row.field(1).unwrap(), b"south");
    assert!(db
        .fetch_via(&txn, "accounts_pk", b"acct-000099", FetchCond::Eq)
        .unwrap()
        .is_none());
    db.commit(&txn).unwrap();
    db.verify_consistency().unwrap();
}

#[test]
fn secondary_index_nonunique() {
    let dir = TempDir::new("db");
    let db = open(&dir);
    setup_accounts(&db);
    let txn = db.begin();
    for i in 0..30 {
        db.insert_row(&txn, "accounts", &account(i, if i % 3 == 0 { "b0" } else { "b1" }, i))
            .unwrap();
    }
    db.commit(&txn).unwrap();
    let txn = db.begin();
    let hits = db.scan_range(&txn, "accounts_by_branch", b"b0", b"b0\x01").unwrap();
    assert_eq!(hits.len(), 10);
    db.commit(&txn).unwrap();
}

#[test]
fn unique_pk_violation_via_facade() {
    let dir = TempDir::new("db");
    let db = open(&dir);
    setup_accounts(&db);
    let txn = db.begin();
    db.insert_row(&txn, "accounts", &account(7, "x", 1)).unwrap();
    let err = db
        .insert_row(&txn, "accounts", &account(7, "y", 2))
        .unwrap_err();
    assert!(matches!(err, Error::UniqueViolation));
    db.rollback(&txn).unwrap();
    db.verify_consistency().unwrap();
}

#[test]
fn delete_row_updates_all_indexes() {
    let dir = TempDir::new("db");
    let db = open(&dir);
    setup_accounts(&db);
    let txn = db.begin();
    let rid = db
        .insert_row(&txn, "accounts", &account(1, "north", 10))
        .unwrap();
    db.insert_row(&txn, "accounts", &account(2, "north", 20))
        .unwrap();
    db.commit(&txn).unwrap();

    let txn = db.begin();
    let old = db.delete_row(&txn, "accounts", rid).unwrap();
    assert_eq!(old.field(0).unwrap(), b"acct-000001");
    db.commit(&txn).unwrap();

    let txn = db.begin();
    assert!(db
        .fetch_via(&txn, "accounts_pk", b"acct-000001", FetchCond::Eq)
        .unwrap()
        .is_none());
    let north = db
        .scan_range(&txn, "accounts_by_branch", b"north", b"north\x01")
        .unwrap();
    assert_eq!(north.len(), 1);
    db.commit(&txn).unwrap();
    let report = db.verify_consistency().unwrap();
    assert_eq!(report.rows, 1);
    assert_eq!(report.index_keys, 2); // one row × two indexes
}

#[test]
fn rollback_reverts_heap_and_indexes_together() {
    let dir = TempDir::new("db");
    let db = open(&dir);
    setup_accounts(&db);
    let txn = db.begin();
    db.insert_row(&txn, "accounts", &account(1, "a", 1)).unwrap();
    db.commit(&txn).unwrap();

    let txn = db.begin();
    let rid2 = db.insert_row(&txn, "accounts", &account(2, "b", 2)).unwrap();
    let (rid1, _) = db
        .fetch_via(&txn, "accounts_pk", b"acct-000001", FetchCond::Eq)
        .unwrap()
        .unwrap();
    // Delete row 1 and insert row 3, then roll everything back.
    db.delete_row(&txn, "accounts", rid1).unwrap();
    db.insert_row(&txn, "accounts", &account(3, "c", 3)).unwrap();
    let _ = rid2;
    db.rollback(&txn).unwrap();

    let report = db.verify_consistency().unwrap();
    assert_eq!(report.rows, 1);
    let txn = db.begin();
    assert!(db
        .fetch_via(&txn, "accounts_pk", b"acct-000001", FetchCond::Eq)
        .unwrap()
        .is_some());
    assert!(db
        .fetch_via(&txn, "accounts_pk", b"acct-000002", FetchCond::Eq)
        .unwrap()
        .is_none());
    db.commit(&txn).unwrap();
}

#[test]
fn create_index_backfills_existing_rows() {
    let dir = TempDir::new("db");
    let db = open(&dir);
    db.create_table("t", 2).unwrap();
    let txn = db.begin();
    for i in 0..200u32 {
        db.insert_row(
            &txn,
            "t",
            &Row::new(vec![
                format!("k{i:05}").into_bytes(),
                format!("v{i}").into_bytes(),
            ]),
        )
        .unwrap();
    }
    db.commit(&txn).unwrap();
    // Index created after the fact must see all 200 rows.
    db.create_index("t_pk", "t", 0, true).unwrap();
    let txn = db.begin();
    let all = db.scan_range(&txn, "t_pk", b"k", b"l").unwrap();
    assert_eq!(all.len(), 200);
    db.commit(&txn).unwrap();
    db.verify_consistency().unwrap();
}

#[test]
fn failed_create_index_leaves_no_transaction_behind() {
    let dir = TempDir::new("db");
    let db = open(&dir);
    db.create_table("accounts", 3).unwrap();
    let txn = db.begin();
    for i in 0..20 {
        db.insert_row(&txn, "accounts", &account(i, if i % 2 == 0 { "b0" } else { "b1" }, i))
            .unwrap();
    }
    db.commit(&txn).unwrap();

    // Duplicate branch values under `unique`: the backfill fails part-way.
    assert!(matches!(
        db.create_index("by_branch", "accounts", 1, true),
        Err(Error::UniqueViolation)
    ));
    assert_eq!(db.tm.active_count(), 0, "DDL transaction leaked");
    assert!(db.create_index("by_nothing", "accounts", 3, false).is_err());
    assert!(db.create_table("too_wide", 1 << 16).is_err());
    assert_eq!(db.tm.active_count(), 0);
    assert_eq!(db.verify_consistency().unwrap().indexes, 0);

    // The name is free, and the same index without `unique` builds.
    db.create_index("by_branch", "accounts", 1, false).unwrap();
    let report = db.verify_consistency().unwrap();
    assert_eq!((report.rows, report.indexes), (20, 1));

    let dir_path = db.crash();
    let db = Db::open(&dir_path, DbOptions::default()).unwrap();
    let report = db.verify_consistency().unwrap();
    assert_eq!((report.rows, report.indexes), (20, 1));
    let txn = db.begin();
    assert_eq!(db.scan_range(&txn, "by_branch", b"b0", b"b1").unwrap().len(), 10);
    db.commit(&txn).unwrap();
}

#[test]
fn clean_reopen_preserves_everything() {
    let dir = TempDir::new("db");
    {
        let db = open(&dir);
        setup_accounts(&db);
        let txn = db.begin();
        for i in 0..50 {
            db.insert_row(&txn, "accounts", &account(i, "br", i)).unwrap();
        }
        db.commit(&txn).unwrap();
        db.pool.flush_all().unwrap();
        db.log.flush_all().unwrap();
    }
    let db = open(&dir);
    let report = db.verify_consistency().unwrap();
    assert_eq!(report.rows, 50);
    assert_eq!(report.tables, 1);
    assert_eq!(report.indexes, 2);
    let txn = db.begin();
    assert!(db
        .fetch_via(&txn, "accounts_pk", b"acct-000031", FetchCond::Eq)
        .unwrap()
        .is_some());
    db.commit(&txn).unwrap();
}

#[test]
fn scan_range_honours_bounds() {
    let dir = TempDir::new("db");
    let db = open(&dir);
    db.create_table("t", 1).unwrap();
    db.create_index("t_pk", "t", 0, true).unwrap();
    let txn = db.begin();
    for i in 0..100u32 {
        db.insert_row(&txn, "t", &Row::new(vec![format!("{i:04}").into_bytes()]))
            .unwrap();
    }
    db.commit(&txn).unwrap();
    let txn = db.begin();
    let hits = db.scan_range(&txn, "t_pk", b"0020", b"0030").unwrap();
    assert_eq!(hits.len(), 10);
    assert_eq!(hits[0].1.field(0).unwrap(), b"0020");
    assert_eq!(hits[9].1.field(0).unwrap(), b"0029");
    db.commit(&txn).unwrap();
}

#[test]
fn a_field_too_long_for_a_row_image_is_refused_before_the_heap() {
    let dir = TempDir::new("db");
    let db = open(&dir);
    setup_accounts(&db);
    let txn = db.begin();
    let rid = db.insert_row(&txn, "accounts", &account(1, "north", 100)).unwrap();
    db.commit(&txn).unwrap();
    let first_page = db.table_first_page("accounts").unwrap();
    let before = db.heap.scan_all(first_page).unwrap();

    let huge = |mut row: Row| {
        row.fields[2] = vec![b'9'; 70_000];
        row
    };
    let txn = db.begin();
    let err = db.insert_row(&txn, "accounts", &huge(account(2, "south", 200)));
    assert!(matches!(err, Err(Error::TooLarge { len: 70_000, .. })), "{err:?}");
    let err = db.update_row(&txn, "accounts", rid, &huge(account(1, "north", 100)));
    assert!(matches!(err, Err(Error::TooLarge { len: 70_000, .. })), "{err:?}");
    db.commit(&txn).unwrap();

    assert_eq!(db.heap.scan_all(first_page).unwrap(), before);
    let txn = db.begin();
    let (_, row) = db
        .fetch_via(&txn, "accounts_pk", b"acct-000001", FetchCond::Eq)
        .unwrap()
        .unwrap();
    assert_eq!(row, account(1, "north", 100));
    assert!(db
        .fetch_via(&txn, "accounts_pk", b"acct-000002", FetchCond::Eq)
        .unwrap()
        .is_none());
    db.commit(&txn).unwrap();
    db.verify_consistency().unwrap();
}
