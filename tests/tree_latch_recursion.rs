//! Figure 7's boundary-key delete holds the S tree latch across its retry
//! traversal. If that traversal meets an ambiguous nonleaf (SM_Bit '1' on
//! the rightmost route) it must not request the tree latch a second time: a
//! recursive S request with an SMO's X request queued between the two is a
//! latch deadlock, which §4 says cannot happen.
//!
//! The interleaving is forced, not hoped for: a held X tree latch sends the
//! delete into its tree-S retry and parks it in `tree_s`; the root's
//! SM_Bit is set and its page latch held while the tree latch changes
//! hands, so the deleter — now holding tree S — parks on the root; a second
//! thread then queues for tree X; only then is the root released. The
//! deleter must clear the stale bit and finish under its one S latch; the
//! rig's latch monitor must have seen no rank-equal tree-latch wait.
//!
//! A delete that empties its leaf holds the X tree latch from its descent
//! on, and a next-key lock denied there is waited for only after the tree
//! latch is released (§4). The second test holds the next key's lock, lets
//! the delete queue for it, and then takes the X tree latch from another
//! thread: a delete that waited under the latch fails the run in 10 s.

mod support;

use ariesim::btree::fetch::{FetchCond, FetchResult};
use ariesim::btree::LockProtocol;
use ariesim::lock::{LockDuration, LockMode};
use std::io::Write;
use std::sync::mpsc;
use std::time::Duration;
use support::{fix, nkey};

/// Fail the run from inside the thread scope. A panic there would make the
/// scope join its threads, and a latch deadlock never lets them finish: exit
/// the process instead, so a deadlock is a failure, not a hang. The message
/// goes to the real stderr: the harness's output capture dies with it.
fn fail(why: &str) -> ! {
    let _ = writeln!(std::io::stderr(), "tree_latch_recursion: {why}");
    std::process::exit(1)
}

/// Spin until `cond` holds; a stuck predicate is a test failure, not a hang.
fn wait_for(what: &str, cond: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while !cond() {
        if std::time::Instant::now() >= deadline {
            fail(&format!("never saw: {what}"));
        }
        std::thread::yield_now();
    }
}

#[test]
fn boundary_delete_retry_takes_the_tree_latch_once() {
    const KEYS: u32 = 2000;
    let f = fix(LockProtocol::DataOnly, false);
    let setup = f.tm.begin();
    for i in 0..KEYS {
        f.tree.insert(&setup, &nkey(i)).unwrap();
    }
    f.tm.commit(&setup).unwrap();
    assert!(f.tree.check_structure().unwrap().height >= 1, "need a nonleaf root");

    // The index's largest key: a boundary key of the rightmost leaf, routed
    // through the root's rightmost cell. Clear the bits the set-up splits
    // left behind so the first attempt reaches Figure 7's boundary test.
    let victim = nkey(KEYS - 1);
    let root = f.tree.root;
    let leaf = f.tree.leaf_for_value(&victim.value).unwrap();
    f.tree.set_page_bits_for_test(leaf, Some(false), Some(false)).unwrap();
    f.tree.set_page_bits_for_test(root, Some(false), None).unwrap();

    let txn = f.tm.begin();
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::scope(|s| {
        // "SMO in progress": the first attempt's conditional S is denied,
        // the retry asks for S unconditionally and waits behind this X.
        let smo = f.tree.hold_tree_latch_x();
        let tree_waits = f.stats.snapshot().latch_tree_waits;
        let (tree, txn, victim) = (&f.tree, &txn, &victim);
        s.spawn(move || done_tx.send(tree.delete(txn, victim)).unwrap());
        wait_for("deleter waiting for tree S", || {
            f.stats.snapshot().latch_tree_waits > tree_waits
        });

        // The SMO "ends" having left SM_Bit '1' on the root. Keep the root
        // X-latched across the hand-over so the deleter stops on it with
        // the tree latch already in hand.
        let mut root_x = f.pool.fix_x(root).unwrap();
        root_x.set_sm_bit(true);
        let page_waits = f.stats.snapshot().latch_page_waits;
        drop(smo);
        wait_for("deleter (holding tree S) waiting for the root", || {
            f.stats.snapshot().latch_page_waits > page_waits
        });

        // Next SMO queues for X behind the deleter's S.
        let tree_waits = f.stats.snapshot().latch_tree_waits;
        s.spawn(|| drop(f.tree.hold_tree_latch_x()));
        wait_for("second SMO queued for tree X", || {
            f.stats.snapshot().latch_tree_waits > tree_waits
        });
        drop(root_x);

        match done_rx.recv_timeout(Duration::from_secs(20)) {
            Ok(done) => done.expect("boundary delete failed"),
            Err(_) => fail("boundary delete hung: tree-latch self-deadlock"),
        }
    });
    f.tm.commit(&txn).unwrap();

    let check = f.tm.begin();
    assert_eq!(
        f.tree.fetch(&check, &victim.value, FetchCond::Eq).unwrap(),
        FetchResult::NotFound,
        "deleted key still visible"
    );
    f.tm.commit(&check).unwrap();
    assert_eq!(f.tree.check_structure().unwrap().keys, (KEYS - 1) as usize);

    let m = f.obs.monitor.snapshot();
    assert!(m.clean() && m.max_latch_depth == 2, "latch monitor: {m:?}");
}

#[test]
fn emptying_delete_waits_for_its_next_key_without_the_tree_latch() {
    let f = fix(LockProtocol::DataOnly, false);
    let setup = f.tm.begin();
    let mut n = 0;
    while f.stats.snapshot().smo_splits == 0 {
        f.tree.insert(&setup, &nkey(n)).unwrap();
        n += 1;
    }
    f.tm.commit(&setup).unwrap();

    // Commit deletes until the leftmost leaf (not the root) holds one key.
    let leaf = f.tree.leaf_for_value(&nkey(0).value).unwrap();
    assert_ne!(leaf, f.tree.root, "the split must have left a nonleaf root");
    let on_leaf = u32::from(f.pool.fix_s(leaf).unwrap().slot_count());
    let setup = f.tm.begin();
    for i in 0..on_leaf - 1 {
        f.tree.delete(&setup, &nkey(i)).unwrap();
    }
    f.tm.commit(&setup).unwrap();
    assert_eq!(f.pool.fix_s(leaf).unwrap().slot_count(), 1);
    let (last, next) = (nkey(on_leaf - 1), nkey(on_leaf));

    // T1 holds X on the next key's lock name.
    let t1 = f.tm.begin();
    let next_name = f.tree.lock_name_of(&next);
    f.locks
        .request(t1.id, next_name, LockMode::X, LockDuration::Commit, false)
        .unwrap();
    let deletes_before = f.stats.snapshot().smo_page_deletes;
    let t2 = f.tm.begin();
    let (done_tx, done_rx) = mpsc::channel();
    let (free_tx, free_rx) = mpsc::channel();
    std::thread::scope(|s| {
        let (tree, t2, last) = (&f.tree, &t2, &last);
        s.spawn(move || done_tx.send(tree.delete(t2, last)).unwrap());
        wait_for("the emptying delete waiting for its next key", || {
            f.locks.has_waiters()
        });
        s.spawn(move || {
            drop(tree.hold_tree_latch_x());
            free_tx.send(()).unwrap();
        });
        if free_rx.recv_timeout(Duration::from_secs(10)).is_err() {
            fail("the tree latch was held across the next-key lock wait");
        }
        f.tm.commit(&t1).unwrap();
        match done_rx.recv_timeout(Duration::from_secs(20)) {
            Ok(done) => done.expect("emptying delete failed"),
            Err(_) => fail("emptying delete hung after the next key was released"),
        }
    });
    f.tm.commit(&t2).unwrap();

    assert_eq!(f.stats.snapshot().smo_page_deletes - deletes_before, 1);
    assert_eq!(f.tree.check_structure().unwrap().keys, (n - on_leaf) as usize);
    let m = f.obs.monitor.snapshot();
    assert_eq!(m.lock_wait_with_latch_violations, 0, "latch monitor: {m:?}");
    assert!(m.clean(), "latch monitor: {m:?}");
}
