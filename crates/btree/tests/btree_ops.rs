//! Single-threaded functional tests of the ARIES/IM B+-tree: inserts with
//! splits across multiple levels, deletes with page deletions down to an
//! empty root, fetch semantics, rollbacks (page-oriented and logical undo),
//! and unique-index behaviour.

mod common;

use ariesim_btree::fetch::{FetchCond, FetchResult};
use ariesim_btree::LockProtocol;
use ariesim_common::Error;
use common::{fix, fix_with, key, nkey};

#[test]
fn insert_fetch_single_key() {
    let f = fix();
    let txn = f.tm.begin();
    let k = nkey(1);
    f.tree.insert(&txn, &k).unwrap();
    match f.tree.fetch(&txn, &k.value, FetchCond::Eq).unwrap() {
        FetchResult::Found(found) => assert_eq!(found, k),
        other => panic!("expected Found, got {other:?}"),
    }
    f.tm.commit(&txn).unwrap();
}

#[test]
fn fetch_not_found_locks_next_key() {
    let f = fix();
    let txn = f.tm.begin();
    f.tree.insert(&txn, &nkey(5)).unwrap();
    f.tm.commit(&txn).unwrap();

    let txn = f.tm.begin();
    // Searching below key 5 must not find key 3, and must S-lock key 5 (the
    // next key) for commit duration.
    assert_eq!(
        f.tree.fetch(&txn, nkey(3).value.as_slice(), FetchCond::Eq).unwrap(),
        FetchResult::NotFound
    );
    let name = f.tree.lock_name_of(&nkey(5));
    assert_eq!(
        f.locks.holds(txn.id, &name),
        Some(ariesim_lock::LockMode::S)
    );
    f.tm.commit(&txn).unwrap();
}

#[test]
fn fetch_past_everything_locks_eof() {
    let f = fix();
    let txn = f.tm.begin();
    f.tree.insert(&txn, &nkey(1)).unwrap();
    assert_eq!(
        f.tree
            .fetch(&txn, b"zzzzzzzz".as_slice(), FetchCond::Ge)
            .unwrap(),
        FetchResult::NotFound
    );
    let eof = f.tree.eof_lock_name();
    assert!(f.locks.holds(txn.id, &eof).is_some());
    f.tm.commit(&txn).unwrap();
}

#[test]
fn bulk_insert_splits_and_structure_holds() {
    let f = fix();
    let txn = f.tm.begin();
    let n = 2000u32;
    for i in 0..n {
        f.tree.insert(&txn, &nkey(i)).unwrap();
    }
    f.tm.commit(&txn).unwrap();
    let report = f.tree.check_structure().unwrap();
    assert_eq!(report.keys, n as usize);
    assert!(report.height >= 1, "tree should have split: {report:?}");
    assert!(f.stats.snapshot().smo_splits > 0);
    // Everything fetchable.
    let txn = f.tm.begin();
    for i in (0..n).step_by(97) {
        let k = nkey(i);
        assert_eq!(
            f.tree.fetch(&txn, &k.value, FetchCond::Eq).unwrap(),
            FetchResult::Found(k)
        );
    }
    f.tm.commit(&txn).unwrap();
}

#[test]
fn scan_returns_sorted_everything() {
    let f = fix();
    let txn = f.tm.begin();
    // Insert in a scrambled order.
    let n = 1500u32;
    for i in 0..n {
        let j = (i * 7919) % n;
        f.tree.insert(&txn, &nkey(j)).unwrap();
    }
    f.tm.commit(&txn).unwrap();
    let keys = f.tree.scan_all_unlocked().unwrap();
    assert_eq!(keys.len(), n as usize);
    for w in keys.windows(2) {
        assert!(w[0] < w[1]);
    }
}

#[test]
fn range_scan_via_cursor() {
    let f = fix();
    let txn = f.tm.begin();
    for i in 0..300u32 {
        f.tree.insert(&txn, &nkey(i)).unwrap();
    }
    f.tm.commit(&txn).unwrap();

    let txn = f.tm.begin();
    let (first, cursor) = f
        .tree
        .open_scan(&txn, nkey(100).value.as_slice(), FetchCond::Ge)
        .unwrap();
    assert_eq!(first, Some(nkey(100)));
    let mut cursor = cursor.unwrap();
    let mut got = vec![first.unwrap()];
    while got.len() < 50 {
        match f.tree.fetch_next(&txn, &mut cursor).unwrap() {
            Some(k) => got.push(k),
            None => break,
        }
    }
    let want: Vec<_> = (100..150).map(nkey).collect();
    assert_eq!(got, want);
    f.tm.commit(&txn).unwrap();
}

#[test]
fn delete_everything_collapses_tree() {
    let f = fix();
    let txn = f.tm.begin();
    let n = 1200u32;
    for i in 0..n {
        f.tree.insert(&txn, &nkey(i)).unwrap();
    }
    f.tm.commit(&txn).unwrap();
    assert!(f.tree.check_structure().unwrap().height >= 1);

    let txn = f.tm.begin();
    for i in 0..n {
        f.tree.delete(&txn, &nkey(i)).unwrap();
    }
    f.tm.commit(&txn).unwrap();
    let report = f.tree.check_structure().unwrap();
    assert_eq!(report.keys, 0);
    assert_eq!(report.leaves, 1, "tree should collapse to an empty root");
    assert!(f.stats.snapshot().smo_page_deletes > 0);
}

#[test]
fn delete_not_found_reports_and_locks() {
    let f = fix();
    let txn = f.tm.begin();
    f.tree.insert(&txn, &nkey(10)).unwrap();
    f.tm.commit(&txn).unwrap();
    let txn = f.tm.begin();
    assert!(matches!(
        f.tree.delete(&txn, &nkey(5)),
        Err(Error::NotFound)
    ));
    f.tm.commit(&txn).unwrap();
}

/// A not-found delete that waits for its next-key lock retries inside the
/// one delete it is: `index_deletes` counts it once.
#[test]
fn not_found_delete_that_waits_counts_one_delete() {
    use ariesim_lock::{LockDuration, LockMode};
    use std::time::{Duration, Instant};
    let f = fix();
    let setup = f.tm.begin();
    f.tree.insert(&setup, &nkey(10)).unwrap();
    f.tm.commit(&setup).unwrap();

    // T1 holds X on the key after the absent one.
    let t1 = f.tm.begin();
    let next = f.tree.lock_name_of(&nkey(10));
    f.locks
        .request(t1.id, next, LockMode::X, LockDuration::Commit, false)
        .unwrap();
    let before = f.stats.snapshot().index_deletes;
    let t2 = f.tm.begin();
    std::thread::scope(|s| {
        let deleter = s.spawn(|| f.tree.delete(&t2, &nkey(5)));
        let deadline = Instant::now() + Duration::from_secs(10);
        while !f.locks.has_waiters() {
            assert!(Instant::now() < deadline, "T2 never waited for the next key");
            std::thread::yield_now();
        }
        f.tm.commit(&t1).unwrap();
        assert!(matches!(deleter.join().unwrap(), Err(Error::NotFound)));
    });
    assert_eq!(f.stats.snapshot().index_deletes - before, 1);
    f.tm.commit(&t2).unwrap();
}

#[test]
fn rollback_of_insert_is_page_oriented_when_key_still_there() {
    let f = fix();
    let txn = f.tm.begin();
    f.tree.insert(&txn, &nkey(1)).unwrap();
    f.tm.commit(&txn).unwrap();

    let before = f.stats.snapshot();
    let txn = f.tm.begin();
    f.tree.insert(&txn, &nkey(2)).unwrap();
    f.tm.rollback(&txn).unwrap();
    let delta = f.stats.snapshot().since(&before);
    assert_eq!(delta.undo_page_oriented, 1);
    assert_eq!(delta.undo_logical, 0);

    let keys = f.tree.scan_all_unlocked().unwrap();
    assert_eq!(keys, vec![nkey(1)]);
    f.tree.check_structure().unwrap();
}

#[test]
fn rollback_of_delete_restores_key() {
    let f = fix();
    let txn = f.tm.begin();
    for i in 0..10u32 {
        f.tree.insert(&txn, &nkey(i)).unwrap();
    }
    f.tm.commit(&txn).unwrap();
    let txn = f.tm.begin();
    f.tree.delete(&txn, &nkey(5)).unwrap();
    f.tm.rollback(&txn).unwrap();
    let keys = f.tree.scan_all_unlocked().unwrap();
    assert_eq!(keys.len(), 10);
    assert!(keys.contains(&nkey(5)));
    f.tree.check_structure().unwrap();
}

#[test]
fn figure1_logical_undo_after_intervening_split() {
    // T1 inserts K8 into P1. T2 splits P1 (bulk inserts) moving K8 to P2.
    // T1 rolls back: the undo must go logical (retraverse) and delete K8
    // from its new home.
    let f = fix();
    let setup = f.tm.begin();
    // Lay down enough keys that P1 is nearly full.
    for i in 0..220u32 {
        f.tree.insert(&setup, &nkey(2 * i)).unwrap();
    }
    f.tm.commit(&setup).unwrap();
    let splits_before = f.stats.snapshot().smo_splits;

    let t1 = f.tm.begin();
    let k8 = nkey(999_999); // sorts after everything: will live on the far right
    f.tree.insert(&t1, &k8).unwrap();

    // T2 inserts until at least one split has happened (moving the right
    // edge — including K8 — onto a new page).
    let t2 = f.tm.begin();
    let mut i = 0u32;
    while f.stats.snapshot().smo_splits == splits_before {
        f.tree.insert(&t2, &nkey(2 * i + 1)).unwrap();
        i += 1;
        assert!(i < 10_000, "no split after many inserts");
    }
    f.tm.commit(&t2).unwrap();

    let before = f.stats.snapshot();
    f.tm.rollback(&t1).unwrap();
    let delta = f.stats.snapshot().since(&before);
    assert!(
        delta.undo_logical >= 1 || delta.undo_page_oriented >= 1,
        "rollback performed no undo?"
    );
    // K8 gone, everything else intact.
    let keys = f.tree.scan_all_unlocked().unwrap();
    assert!(!keys.contains(&k8));
    f.tree.check_structure().unwrap();
}

#[test]
fn split_survives_rollback_of_its_transaction() {
    // The SMO is a nested top action: rolling back the transaction that
    // split the page undoes its *inserts* but not the split.
    let f = fix();
    let setup = f.tm.begin();
    for i in 0..200u32 {
        f.tree.insert(&setup, &nkey(i)).unwrap();
    }
    f.tm.commit(&setup).unwrap();

    let t1 = f.tm.begin();
    let splits_before = f.stats.snapshot().smo_splits;
    let mut i = 200u32;
    while f.stats.snapshot().smo_splits == splits_before {
        f.tree.insert(&t1, &nkey(i)).unwrap();
        i += 1;
        assert!(i < 10_000);
    }
    let leaves_after_split = f.tree.check_structure().unwrap().leaves;
    f.tm.rollback(&t1).unwrap();

    let report = f.tree.check_structure().unwrap();
    assert_eq!(report.keys, 200, "only T1's inserts are undone");
    assert_eq!(
        report.leaves, leaves_after_split,
        "the split must survive the rollback (nested top action)"
    );
}

#[test]
fn unique_index_rejects_duplicate_value() {
    let f = fix_with(true, LockProtocol::DataOnly, 256);
    let txn = f.tm.begin();
    f.tree.insert(&txn, &key("alpha", 1)).unwrap();
    // Same value, different RID: still a violation in a unique index.
    assert!(matches!(
        f.tree.insert(&txn, &key("alpha", 2)),
        Err(Error::UniqueViolation)
    ));
    f.tm.commit(&txn).unwrap();
}

#[test]
fn nonunique_index_accepts_duplicates() {
    let f = fix();
    let txn = f.tm.begin();
    for i in 0..50u32 {
        f.tree.insert(&txn, &key("dup", i)).unwrap();
    }
    f.tm.commit(&txn).unwrap();
    let keys = f.tree.scan_all_unlocked().unwrap();
    assert_eq!(keys.len(), 50);
    f.tree.check_structure().unwrap();
}

#[test]
fn unique_violation_against_own_uncommitted_insert() {
    let f = fix_with(true, LockProtocol::DataOnly, 256);
    let txn = f.tm.begin();
    f.tree.insert(&txn, &key("x", 1)).unwrap();
    assert!(matches!(
        f.tree.insert(&txn, &key("x", 2)),
        Err(Error::UniqueViolation)
    ));
    f.tm.commit(&txn).unwrap();
}

#[test]
fn insert_after_deleting_same_value_same_txn() {
    let f = fix_with(true, LockProtocol::DataOnly, 256);
    let txn = f.tm.begin();
    f.tree.insert(&txn, &key("v", 1)).unwrap();
    f.tm.commit(&txn).unwrap();
    let txn = f.tm.begin();
    f.tree.delete(&txn, &key("v", 1)).unwrap();
    // Own locks cover the next-key names: re-insert succeeds.
    f.tree.insert(&txn, &key("v", 2)).unwrap();
    f.tm.commit(&txn).unwrap();
    let keys = f.tree.scan_all_unlocked().unwrap();
    assert_eq!(keys, vec![key("v", 2)]);
}

#[test]
fn fetch_conditions_ge_gt_eq() {
    let f = fix();
    let txn = f.tm.begin();
    for i in [10u32, 20, 30] {
        f.tree.insert(&txn, &nkey(i)).unwrap();
    }
    f.tm.commit(&txn).unwrap();
    let txn = f.tm.begin();
    // Ge of an absent value: next higher.
    assert_eq!(
        f.tree.fetch(&txn, &nkey(15).value, FetchCond::Ge).unwrap(),
        FetchResult::Found(nkey(20))
    );
    // Gt of a present value: strictly after it.
    assert_eq!(
        f.tree.fetch(&txn, &nkey(20).value, FetchCond::Gt).unwrap(),
        FetchResult::Found(nkey(30))
    );
    // Eq present / absent.
    assert_eq!(
        f.tree.fetch(&txn, &nkey(10).value, FetchCond::Eq).unwrap(),
        FetchResult::Found(nkey(10))
    );
    assert_eq!(
        f.tree.fetch(&txn, &nkey(11).value, FetchCond::Eq).unwrap(),
        FetchResult::NotFound
    );
    f.tm.commit(&txn).unwrap();
}

#[test]
fn key_too_large_is_rejected() {
    let f = fix();
    let txn = f.tm.begin();
    let huge = vec![b'x'; ariesim_btree::MAX_KEY_VALUE_LEN + 1];
    assert!(matches!(
        f.tree.insert(&txn, &common::key(huge, 1)),
        Err(Error::TooLarge { .. })
    ));
    f.tm.commit(&txn).unwrap();
}

#[test]
fn mixed_insert_delete_stress_keeps_structure() {
    let f = fix();
    let mut present = std::collections::BTreeSet::new();
    for round in 0..6u32 {
        let txn = f.tm.begin();
        for i in 0..400u32 {
            let id = (round * 131 + i * 7) % 900;
            if present.contains(&id) {
                f.tree.delete(&txn, &nkey(id)).unwrap();
                present.remove(&id);
            } else {
                f.tree.insert(&txn, &nkey(id)).unwrap();
                present.insert(id);
            }
        }
        if round % 2 == 0 {
            f.tm.commit(&txn).unwrap();
        } else {
            // Roll the whole round back.
            let txn_keys: Vec<u32> = Vec::new();
            drop(txn_keys);
            f.tm.rollback(&txn).unwrap();
            // Recompute `present` by rescanning (rollback restored state).
            present = f
                .tree
                .scan_all_unlocked()
                .unwrap()
                .into_iter()
                .map(|k| {
                    std::str::from_utf8(&k.value).unwrap()["key-".len()..]
                        .parse::<u32>()
                        .unwrap()
                })
                .collect();
        }
        let report = f.tree.check_structure().unwrap();
        assert_eq!(report.keys, present.len(), "round {round}");
    }
}

#[test]
fn index_specific_locking_acquires_key_locks() {
    let f = fix_with(false, LockProtocol::IndexSpecific, 256);
    let before = f.stats.snapshot();
    let txn = f.tm.begin();
    f.tree.insert(&txn, &nkey(1)).unwrap();
    let delta = f.stats.snapshot().since(&before);
    assert!(
        delta.locks_keyvalue >= 1,
        "index-specific inserts must lock the key itself: {delta:?}"
    );
    f.tm.commit(&txn).unwrap();
}

#[test]
fn fetch_prefix_finds_and_misses() {
    let f = fix();
    let txn = f.tm.begin();
    for v in ["apple", "apricot", "banana"] {
        f.tree.insert(&txn, &key(v, 1)).unwrap();
    }
    f.tm.commit(&txn).unwrap();
    let txn = f.tm.begin();
    // Prefix present.
    match f.tree.fetch_prefix(&txn, b"ap").unwrap() {
        FetchResult::Found(k) => assert_eq!(k.value, b"apple"),
        other => panic!("{other:?}"),
    }
    match f.tree.fetch_prefix(&txn, b"apr").unwrap() {
        FetchResult::Found(k) => assert_eq!(k.value, b"apricot"),
        other => panic!("{other:?}"),
    }
    // Prefix absent: NotFound, with the next key locked for RR.
    assert_eq!(
        f.tree.fetch_prefix(&txn, b"az").unwrap(),
        FetchResult::NotFound
    );
    assert_eq!(
        f.tree.fetch_prefix(&txn, b"zzz").unwrap(),
        FetchResult::NotFound
    );
    f.tm.commit(&txn).unwrap();
}

#[test]
fn fetch_next_until_honours_stop_conditions() {
    use ariesim_btree::fetch::StopCond;
    let f = fix();
    let txn = f.tm.begin();
    for i in 0..20u32 {
        f.tree.insert(&txn, &nkey(i)).unwrap();
    }
    f.tm.commit(&txn).unwrap();

    let txn = f.tm.begin();
    // Scan [5, 10) with Lt.
    let (first, cursor) = f
        .tree
        .open_scan(&txn, &nkey(5).value, FetchCond::Ge)
        .unwrap();
    assert_eq!(first, Some(nkey(5)));
    let mut cursor = cursor.unwrap();
    let mut got = vec![5u32];
    while let Some(k) = f
        .tree
        .fetch_next_until(&txn, &mut cursor, &nkey(10).value, StopCond::Lt)
        .unwrap()
    {
        got.push(
            std::str::from_utf8(&k.value).unwrap()["key-".len()..]
                .parse()
                .unwrap(),
        );
    }
    assert_eq!(got, vec![5, 6, 7, 8, 9]);

    // Scan [5, 10] with Le.
    let (_, cursor) = f
        .tree
        .open_scan(&txn, &nkey(5).value, FetchCond::Ge)
        .unwrap();
    let mut cursor = cursor.unwrap();
    let mut count = 1;
    while f
        .tree
        .fetch_next_until(&txn, &mut cursor, &nkey(10).value, StopCond::Le)
        .unwrap()
        .is_some()
    {
        count += 1;
    }
    assert_eq!(count, 6);
    f.tm.commit(&txn).unwrap();
}

#[test]
fn unique_value_reinserted_with_a_higher_rid_stays_reachable() {
    // A leaf split posts a separator; if it is the full key of the first
    // key moved right, deleting that key and inserting its value again with
    // a higher RID routes the value-only insert left of the separator while
    // the full key belongs right of it: the key lands on the wrong leaf and
    // its own delete cannot find it.
    let f = fix_with(true, LockProtocol::DataOnly, 256);
    let txn = f.tm.begin();
    let mut n = 0u32;
    while f.stats.snapshot().smo_splits < 3 {
        f.tree.insert(&txn, &nkey(n)).unwrap();
        n += 1;
    }
    f.tm.commit(&txn).unwrap();
    let moved = |i: u32| key(nkey(i).value, i + 1_000_000);
    for i in 0..n {
        let txn = f.tm.begin();
        f.tree.delete(&txn, &nkey(i)).unwrap();
        f.tm.commit(&txn).unwrap();
        let txn = f.tm.begin();
        f.tree.insert(&txn, &moved(i)).unwrap();
        f.tm.commit(&txn).unwrap();
    }
    f.tree.check_structure().unwrap();
    let txn = f.tm.begin();
    for i in 0..n {
        f.tree.delete(&txn, &moved(i)).unwrap();
    }
    f.tm.commit(&txn).unwrap();
    f.tree.check_structure().unwrap();
    assert!(f.tree.scan_all_unlocked().unwrap().is_empty());
}
