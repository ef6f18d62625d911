//! Conformance tests for the ARIES/KVL baseline: the lock table in
//! `LockProtocol::KeyValue`'s docs, and the concurrency difference vs
//! ARIES/IM that the paper's §1 claims (value locks serialize transactions
//! touching different *duplicates* of one value; individual-key locks do not).

mod common;

use ariesim_btree::fetch::{FetchCond, FetchResult};
use ariesim_btree::LockProtocol;
use ariesim_common::{Error, IndexId};
use ariesim_lock::{LockMode, LockName};
use common::{key, Fix};

fn fix(protocol: LockProtocol, unique: bool) -> Fix {
    common::fix_with(unique, protocol, 256)
}

fn value_lock(v: &str) -> LockName {
    LockName::KeyValue(IndexId(1), v.as_bytes().to_vec())
}

#[test]
fn insert_new_value_takes_ix_commit_on_value() {
    let f = fix(LockProtocol::KeyValue, false);
    let txn = f.tm.begin();
    f.tree.insert(&txn, &key("m", 1)).unwrap();
    assert_eq!(
        f.locks.holds(txn.id, &value_lock("m")),
        Some(LockMode::IX),
        "KVL insert must hold IX commit on the inserted value"
    );
    f.tm.commit(&txn).unwrap();
    assert_eq!(f.locks.holds(txn.id, &value_lock("m")), None);
}

#[test]
fn insert_existing_value_skips_next_lock() {
    let f = fix(LockProtocol::KeyValue, false);
    let setup = f.tm.begin();
    f.tree.insert(&setup, &key("dup", 1)).unwrap();
    f.tree.insert(&setup, &key("zzz", 1)).unwrap();
    f.tm.commit(&setup).unwrap();

    let before = f.stats.snapshot();
    let txn = f.tm.begin();
    f.tree.insert(&txn, &key("dup", 2)).unwrap();
    let delta = f.stats.snapshot().since(&before);
    assert_eq!(
        delta.locks_next_key, 0,
        "inserting a duplicate of an existing value needs no next-value lock"
    );
    f.tm.commit(&txn).unwrap();
}

#[test]
fn delete_last_instance_locks_next_value_commit() {
    let f = fix(LockProtocol::KeyValue, false);
    let setup = f.tm.begin();
    f.tree.insert(&setup, &key("a", 1)).unwrap();
    f.tree.insert(&setup, &key("b", 1)).unwrap();
    f.tm.commit(&setup).unwrap();

    let txn = f.tm.begin();
    f.tree.delete(&txn, &key("a", 1)).unwrap();
    assert_eq!(
        f.locks.holds(txn.id, &value_lock("a")),
        Some(LockMode::X),
        "deleted value held X commit"
    );
    assert_eq!(
        f.locks.holds(txn.id, &value_lock("b")),
        Some(LockMode::X),
        "last-instance delete holds X commit on the NEXT value"
    );
    f.tm.commit(&txn).unwrap();
}

#[test]
fn delete_with_remaining_duplicates_skips_next_lock() {
    let f = fix(LockProtocol::KeyValue, false);
    let setup = f.tm.begin();
    f.tree.insert(&setup, &key("v", 1)).unwrap();
    f.tree.insert(&setup, &key("v", 2)).unwrap();
    f.tree.insert(&setup, &key("w", 1)).unwrap();
    f.tm.commit(&setup).unwrap();

    let txn = f.tm.begin();
    f.tree.delete(&txn, &key("v", 1)).unwrap();
    assert_eq!(f.locks.holds(txn.id, &value_lock("v")), Some(LockMode::X));
    assert_eq!(
        f.locks.holds(txn.id, &value_lock("w")),
        None,
        "duplicates of 'v' remain: no next-value lock needed"
    );
    f.tm.commit(&txn).unwrap();
}

/// The remaining duplicate sits *before* the deleted key, so the next key
/// has another value: it still must not be locked.
#[test]
fn delete_with_a_duplicate_before_skips_next_lock() {
    let f = fix(LockProtocol::KeyValue, false);
    let setup = f.tm.begin();
    f.tree.insert(&setup, &key("v", 1)).unwrap();
    f.tree.insert(&setup, &key("v", 2)).unwrap();
    f.tree.insert(&setup, &key("w", 1)).unwrap();
    f.tm.commit(&setup).unwrap();

    let before = f.stats.snapshot();
    let txn = f.tm.begin();
    f.tree.delete(&txn, &key("v", 2)).unwrap();
    assert_eq!(f.locks.holds(txn.id, &value_lock("v")), Some(LockMode::X));
    assert_eq!(
        f.locks.holds(txn.id, &value_lock("w")),
        None,
        "'v' keeps an instance before the deleted key: no next-value lock needed"
    );
    assert_eq!(f.stats.snapshot().since(&before).locks_next_key, 0);
    f.tm.commit(&txn).unwrap();
}

#[test]
fn kvl_serializes_different_duplicates_aries_im_does_not() {
    // THE headline difference (paper §1): under KVL, T2 deleting one
    // duplicate of a value blocks T1 inserting another duplicate of the same
    // value. Under ARIES/IM data-only locking they proceed concurrently.

    // --- KVL: conflict --------------------------------------------------
    let f = fix(LockProtocol::KeyValue, false);
    let setup = f.tm.begin();
    f.tree.insert(&setup, &key("dup", 1)).unwrap();
    f.tree.insert(&setup, &key("dup", 2)).unwrap();
    f.tree.insert(&setup, &key("zz", 1)).unwrap();
    f.tm.commit(&setup).unwrap();

    let t1 = f.tm.begin();
    f.tree.delete(&t1, &key("dup", 1)).unwrap(); // X commit on value "dup"

    let tm = f.tm.clone();
    let tree = f.tree.clone();
    let h = std::thread::spawn(move || {
        let t2 = tm.begin();
        // IX on value "dup" conflicts with T1's X → blocks.
        tree.insert(&t2, &key("dup", 3)).unwrap();
        tm.commit(&t2).unwrap();
    });
    std::thread::sleep(std::time::Duration::from_millis(60));
    assert!(
        !h.is_finished(),
        "KVL: duplicate insert must block on the value lock"
    );
    f.tm.commit(&t1).unwrap();
    h.join().unwrap();

    // --- ARIES/IM data-only: no conflict -------------------------------------
    let f = fix(LockProtocol::DataOnly, false);
    let setup = f.tm.begin();
    f.tree.insert(&setup, &key("dup", 1)).unwrap();
    f.tree.insert(&setup, &key("dup", 2)).unwrap();
    f.tree.insert(&setup, &key("zz", 1)).unwrap();
    f.tm.commit(&setup).unwrap();

    let t1 = f.tm.begin();
    f.tree.delete(&t1, &key("dup", 1)).unwrap();
    let tm = f.tm.clone();
    let tree = f.tree.clone();
    let h = std::thread::spawn(move || {
        let t2 = tm.begin();
        tree.insert(&t2, &key("dup", 3)).unwrap();
        tm.commit(&t2).unwrap();
    });
    // Wait on outcome, not time: ARIES/IM must let T2 through while T1 is
    // still uncommitted. (T2's next-key lock target is ("dup",2)'s record —
    // not locked by T1, whose next-key lock is also ("dup",2)... X instant vs
    // X commit conflict? T1 deleted ("dup",1): its commit X next-key lock is
    // on ("dup",2)'s RID. T2 inserts ("dup",3): its instant X next-key target
    // is ("zz",1)'s RID — no conflict.)
    h.join().unwrap();
    f.tm.commit(&t1).unwrap();
}

#[test]
fn kvl_fetch_locks_the_value() {
    let f = fix(LockProtocol::KeyValue, false);
    let setup = f.tm.begin();
    f.tree.insert(&setup, &key("q", 1)).unwrap();
    f.tm.commit(&setup).unwrap();
    let txn = f.tm.begin();
    match f.tree.fetch(&txn, b"q", FetchCond::Eq).unwrap() {
        FetchResult::Found(k) => assert_eq!(k, key("q", 1)),
        other => panic!("{other:?}"),
    }
    assert_eq!(f.locks.holds(txn.id, &value_lock("q")), Some(LockMode::S));
    f.tm.commit(&txn).unwrap();
}

#[test]
fn kvl_unique_violation_still_detected() {
    let f = fix(LockProtocol::KeyValue, true);
    let txn = f.tm.begin();
    f.tree.insert(&txn, &key("u", 1)).unwrap();
    assert!(matches!(
        f.tree.insert(&txn, &key("u", 2)),
        Err(Error::UniqueViolation)
    ));
    f.tm.commit(&txn).unwrap();
}

#[test]
fn kvl_rollbacks_work_identically() {
    let f = fix(LockProtocol::KeyValue, false);
    let txn = f.tm.begin();
    for i in 0..50u32 {
        f.tree.insert(&txn, &key(format!("k{i:03}"), i)).unwrap();
    }
    f.tm.commit(&txn).unwrap();
    let txn = f.tm.begin();
    for i in 0..25u32 {
        f.tree.delete(&txn, &key(format!("k{i:03}"), i)).unwrap();
    }
    f.tm.rollback(&txn).unwrap();
    assert_eq!(f.tree.scan_all_unlocked().unwrap().len(), 50);
    f.tree.check_structure().unwrap();
}
