//! The paper's §2.1 claim: "Not more than 2 index pages are held latched
//! simultaneously at anytime" during normal operations. Validated with a
//! per-thread latch-depth high-water mark.
//!
//! Our implementation matches the budget everywhere, multi-hop next-key
//! walks included (DESIGN.md §8: the walk holds the original leaf plus one
//! chain page). These tests pin it per operation; the latch monitor's
//! verdict in `deadlock_freedom` pins it under concurrency.

mod support;

use ariesim::btree::fetch::FetchCond;
use ariesim::btree::LockProtocol;
use ariesim::obs::take_latch_high_water;
use support::{fix, nkey};

#[test]
fn fetch_insert_delete_hold_at_most_two_page_latches() {
    let f = fix(LockProtocol::DataOnly, false);
    let setup = f.tm.begin();
    for i in 0..3000u32 {
        f.tree.insert(&setup, &nkey(2 * i)).unwrap();
    }
    f.tm.commit(&setup).unwrap();
    assert!(
        f.tree.check_structure().unwrap().height >= 1,
        "need a multi-level tree so coupling spans levels"
    );

    // Fetches (found, not-found, cross-leaf next key).
    take_latch_high_water();
    let txn = f.tm.begin();
    for i in 0..500u32 {
        f.tree
            .fetch(&txn, &nkey(2 * (i * 7 % 3000)).value, FetchCond::Eq)
            .unwrap();
        f.tree
            .fetch(&txn, &nkey(2 * (i * 11 % 3000) + 1).value, FetchCond::Eq)
            .unwrap();
    }
    f.tm.commit(&txn).unwrap();
    let hw = take_latch_high_water();
    assert!(hw <= 2, "fetch held {hw} page latches");

    // Inserts and deletes without SMOs (mid-range keys, pages have room).
    let txn = f.tm.begin();
    for i in 0..300u32 {
        f.tree.insert(&txn, &nkey(2 * i + 1)).unwrap();
    }
    let hw = take_latch_high_water();
    assert!(hw <= 2, "insert held {hw} page latches");
    for i in 0..300u32 {
        f.tree.delete(&txn, &nkey(2 * i + 1)).unwrap();
    }
    let hw = take_latch_high_water();
    assert!(hw <= 2, "delete held {hw} page latches");
    f.tm.commit(&txn).unwrap();
}

#[test]
fn range_scan_holds_at_most_two_page_latches() {
    let f = fix(LockProtocol::DataOnly, false);
    let setup = f.tm.begin();
    for i in 0..2000u32 {
        f.tree.insert(&setup, &nkey(i)).unwrap();
    }
    f.tm.commit(&setup).unwrap();

    take_latch_high_water();
    let txn = f.tm.begin();
    let (_, cursor) = f
        .tree
        .open_scan(&txn, &nkey(0).value, FetchCond::Ge)
        .unwrap();
    let mut cursor = cursor.unwrap();
    let mut n = 1;
    while f.tree.fetch_next(&txn, &mut cursor).unwrap().is_some() {
        n += 1;
    }
    assert_eq!(n, 2000);
    f.tm.commit(&txn).unwrap();
    let hw = take_latch_high_water();
    assert!(hw <= 2, "scan held {hw} page latches");
}

#[test]
fn smos_respect_the_budget_too() {
    // The SMO code releases leaf-level latches before latching parents (§4):
    // splits and page deletions peak at two page latches as well.
    let f = fix(LockProtocol::DataOnly, false);
    take_latch_high_water();
    let txn = f.tm.begin();
    for i in 0..3000u32 {
        f.tree.insert(&txn, &nkey(i)).unwrap();
    }
    f.tm.commit(&txn).unwrap();
    assert!(f.stats.snapshot().smo_splits > 0);
    let hw = take_latch_high_water();
    assert!(hw <= 2, "split path held {hw} page latches");

    let txn = f.tm.begin();
    for i in 0..3000u32 {
        f.tree.delete(&txn, &nkey(i)).unwrap();
    }
    f.tm.commit(&txn).unwrap();
    assert!(f.stats.snapshot().smo_page_deletes > 0);
    let hw = take_latch_high_water();
    assert!(hw <= 2, "page-delete path held {hw} page latches");
}
