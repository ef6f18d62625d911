//! Two §2 features beyond the core protocol: multi-granularity data-only
//! locking (record vs page, §2.1) and Fetch Next resuming at the remembered
//! leaf, or repositioning when that leaf's page_LSN has moved (§2.3).

mod support;

use ariesim::btree::fetch::{FetchCond, FetchResult};
use ariesim::btree::{BTree, Cursor, LockProtocol};
use ariesim::common::stats::StatsSnapshot;
use ariesim::common::{IndexId, IndexKey, PageId, Rid};
use ariesim::lock::{LockDuration, LockMode};
use ariesim::txn::TxnHandle;
use support::nkey;

/// Build a tree with page-granularity data locks on top of the standard
/// fixture stack.
fn page_granularity_fix() -> (support::Rig, std::sync::Arc<BTree>) {
    let f = support::fix(LockProtocol::DataOnly, false);
    let page_granularity = true;
    let tree = BTree::open(
        &f,
        IndexId(1),
        f.tree.root,
        false,
        LockProtocol::DataOnly,
        page_granularity,
    );
    (f, tree)
}

#[test]
fn page_granularity_one_lock_covers_the_whole_data_page() {
    let (f, tree) = page_granularity_fix();
    // Two keys whose RIDs share data page P77.
    let k1 = IndexKey::new(b"aaa".to_vec(), Rid::new(PageId(77), 1));
    let k2 = IndexKey::new(b"bbb".to_vec(), Rid::new(PageId(77), 2));
    let k3 = IndexKey::new(b"ccc".to_vec(), Rid::new(PageId(88), 1));
    let setup = f.tm.begin();
    for k in [&k1, &k2, &k3] {
        tree.insert(&setup, k).unwrap();
    }
    f.tm.commit(&setup).unwrap();

    let txn = f.tm.begin();
    assert!(matches!(
        tree.fetch(&txn, b"aaa", FetchCond::Eq).unwrap(),
        FetchResult::Found(_)
    ));
    // The lock taken is on the data page, not the record.
    use ariesim::lock::LockName;
    assert_eq!(
        f.locks.holds(txn.id, &LockName::Page(PageId(77))),
        Some(LockMode::S)
    );
    assert_eq!(
        f.locks.holds(txn.id, &LockName::Record(Rid::new(PageId(77), 1))),
        None
    );
    // A second fetch on the same data page acquires no new lock name.
    let held_before = f.locks.held_count(txn.id);
    assert!(matches!(
        tree.fetch(&txn, b"bbb", FetchCond::Eq).unwrap(),
        FetchResult::Found(_)
    ));
    assert_eq!(f.locks.held_count(txn.id), held_before);
    // A key on another data page needs a new lock.
    tree.fetch(&txn, b"ccc", FetchCond::Eq).unwrap();
    assert_eq!(f.locks.held_count(txn.id), held_before + 1);
    f.tm.commit(&txn).unwrap();
}

#[test]
fn page_granularity_creates_conflicts_record_granularity_avoids() {
    // The coarser granule trades concurrency for fewer locks: a deleter's
    // NEXT-KEY lock lands on the next key's data *page*, colliding with a
    // reader's S lock on that page even though the two transactions touch
    // different records. At record granularity the same schedule runs
    // without blocking.
    let k1 = IndexKey::new(b"aaa".to_vec(), Rid::new(PageId(77), 1));
    let k2 = IndexKey::new(b"bbb".to_vec(), Rid::new(PageId(77), 2));

    // --- page granularity: conflict --------------------------------------
    let (f, tree) = page_granularity_fix();
    let setup = f.tm.begin();
    tree.insert(&setup, &k1).unwrap();
    tree.insert(&setup, &k2).unwrap();
    f.tm.commit(&setup).unwrap();

    let reader = f.tm.begin();
    tree.fetch(&reader, b"bbb", FetchCond::Eq).unwrap(); // S on Page(77)
    let h = {
        let tm = f.tm.clone();
        let tree = tree.clone();
        let k1 = k1.clone();
        std::thread::spawn(move || {
            let w = tm.begin();
            // Deleting "aaa": next-key lock on "bbb" = X on Page(77).
            tree.delete(&w, &k1).unwrap();
            tm.commit(&w).unwrap();
        })
    };
    std::thread::sleep(std::time::Duration::from_millis(60));
    assert!(
        !h.is_finished(),
        "page-granularity next-key lock must collide with the reader"
    );
    f.tm.commit(&reader).unwrap();
    h.join().unwrap();

    // --- record granularity: no conflict --------------------------------------
    let f = support::fix(LockProtocol::DataOnly, false);
    let setup = f.tm.begin();
    f.tree.insert(&setup, &k1).unwrap();
    f.tree.insert(&setup, &k2).unwrap();
    f.tm.commit(&setup).unwrap();
    let reader = f.tm.begin();
    f.tree.fetch(&reader, b"bbb", FetchCond::Eq).unwrap(); // S on Record(77,2)
    let h = {
        let tm = f.tm.clone();
        let tree = f.tree.clone();
        let k1 = k1.clone();
        std::thread::spawn(move || {
            let w = tm.begin();
            tree.delete(&w, &k1).unwrap();
            tm.commit(&w).unwrap();
        })
    };
    // Record granularity: deleter's next-key X on Record(77,2) DOES conflict
    // with the reader's S on the same record — both schedules block here,
    // but a reader of a *different* record on the same page would not:
    h.is_finished(); // (outcome checked below with the disjoint reader)
    std::thread::sleep(std::time::Duration::from_millis(30));
    f.tm.commit(&reader).unwrap();
    h.join().unwrap();

    // Disjoint-record reader: no block at record granularity.
    let f = support::fix(LockProtocol::DataOnly, false);
    let k3 = IndexKey::new(b"ccc".to_vec(), Rid::new(PageId(77), 3));
    let setup = f.tm.begin();
    for k in [&k1, &k2, &k3] {
        f.tree.insert(&setup, k).unwrap();
    }
    f.tm.commit(&setup).unwrap();
    let reader = f.tm.begin();
    f.tree.fetch(&reader, b"ccc", FetchCond::Eq).unwrap(); // S on Record(77,3)
    let w = f.tm.begin();
    // Deleting "aaa": next-key X on Record(77,2) — disjoint from the reader.
    f.tree.delete(&w, &k1).unwrap();
    f.tm.commit(&w).unwrap();
    f.tm.commit(&reader).unwrap();
}

// --- Fetch Next resumes at the remembered leaf (§2.3) ----------------------

/// A padded key: about 60 fit on a leaf, so a few hundred span several.
fn wide(n: u32) -> IndexKey {
    support::key(format!("{n:08}{}", "-".repeat(100)), n)
}

/// A committed tree of `wide(0..n)`.
fn wide_tree(n: u32) -> support::Rig {
    let f = support::fix(LockProtocol::DataOnly, false);
    let setup = f.tm.begin();
    for i in 0..n {
        f.tree.insert(&setup, &wide(i)).unwrap();
    }
    f.tm.commit(&setup).unwrap();
    f
}

/// The leaf holding `k`. A value-only search sorts before every key with
/// that value, so `leaf_for_value(&k.value)` names the left neighbour when
/// `k` is the first key of its leaf; the value plus a zero byte sorts after
/// `k` and before every greater value of the same width.
fn leaf_of(f: &support::Rig, k: &IndexKey) -> PageId {
    f.tree.leaf_for_value(&[&k.value[..], &[0]].concat()).unwrap()
}

/// Tree descents started from the root, not counting the restarts of one.
fn descents(s: &StatsSnapshot) -> u64 {
    s.tree_traversals - s.traversal_restarts
}

#[test]
fn quiet_scan_descends_once() {
    let f = wide_tree(400);
    let height = u64::from(f.tree.check_structure().unwrap().height);
    let mut leaves: Vec<PageId> = (100..300u32)
        .map(|i| leaf_of(&f, &wide(i)))
        .collect();
    leaves.dedup();
    assert!(leaves.len() >= 3, "the scan must cross leaves: {leaves:?}");

    let txn = f.tm.begin();
    let before = f.stats.snapshot();
    let (first, cursor) = f
        .tree
        .open_scan(&txn, &wide(100).value, FetchCond::Ge)
        .unwrap();
    assert_eq!(first, Some(wide(100)));
    let mut cursor = cursor.unwrap();
    for i in 101..300u32 {
        assert_eq!(f.tree.fetch_next(&txn, &mut cursor).unwrap(), Some(wide(i)));
    }
    let d = f.stats.snapshot().since(&before);
    assert_eq!(d.tree_traversals, 1, "only open_scan descends");
    // One descent (height + 1 fixes), then one fix per key and one per
    // leaf boundary crossed.
    let crossed = leaves.len() as u64 - 1;
    assert!(
        d.page_fixes <= 200 + crossed + height,
        "{} fixes for 200 keys over {} leaves, height {height}",
        d.page_fixes,
        leaves.len()
    );
    f.tm.commit(&txn).unwrap();
}

#[test]
fn cursor_survives_interleaved_split() {
    let f = support::fix(LockProtocol::DataOnly, false);
    let setup = f.tm.begin();
    for i in 0..640u32 {
        f.tree.insert(&setup, &nkey(2 * i)).unwrap();
    }
    f.tm.commit(&setup).unwrap();

    let scanner = f.tm.begin();
    let (first, cursor) = f
        .tree
        .open_scan(&scanner, &nkey(0).value, FetchCond::Ge)
        .unwrap();
    assert_eq!(first, Some(nkey(0)));
    let mut cursor = cursor.unwrap();
    // Read a few, then have another txn split the leaf under the cursor.
    for i in 1..5u32 {
        assert_eq!(
            f.tree.fetch_next(&scanner, &mut cursor).unwrap(),
            Some(nkey(2 * i))
        );
    }
    let leaf = leaf_of(&f, &nkey(8));
    assert_ne!(leaf, f.tree.root, "the cursor's leaf must stay a leaf when it splits");
    let splitter = f.tm.begin();
    let splits = f.stats.snapshot().smo_splits;
    let mut j = 0u32;
    while f.stats.snapshot().smo_splits == splits {
        // Keys between nkey(10) and nkey(12), past the cursor: they all
        // land on the cursor's leaf until it splits.
        let k = support::key(format!("key-00000011-{j:04}"), 500_000 + j);
        assert_eq!(leaf_of(&f, &k), leaf);
        f.tree.insert(&splitter, &k).unwrap();
        j += 1;
        assert!(j < 5000);
    }
    // The split survives the rollback (a nested top action); the keys go.
    f.tm.rollback(&splitter).unwrap();
    // The leaf's page_LSN has moved: the next call descends once by the
    // last key and every later call resumes from the position it recorded,
    // without skipping or repeating.
    let before = f.stats.snapshot();
    for i in 5..640u32 {
        assert_eq!(
            f.tree.fetch_next(&scanner, &mut cursor).unwrap(),
            Some(nkey(2 * i)),
            "at position {i}"
        );
    }
    let d = f.stats.snapshot().since(&before);
    assert_eq!(descents(&d), 1, "exactly one re-traversal, at the split");
    f.tm.commit(&scanner).unwrap();
}

/// Open a scan on the first key of the leaf holding `wide(200)`, then delete
/// every key of that leaf in the scanner's own transaction: the last delete
/// runs the page-delete SMO, which frees the leaf. Returns the scanner, its
/// cursor, the freed leaf and the last key number it held.
fn scan_then_free_the_leaf(
    f: &support::Rig,
) -> (std::sync::Arc<TxnHandle>, Cursor, PageId, u32) {
    let leaf = leaf_of(f, &wide(200));
    let on_leaf: Vec<u32> = (0..400u32)
        .filter(|&i| leaf_of(f, &wide(i)) == leaf)
        .collect();
    let (lo, hi) = (on_leaf[0], on_leaf[on_leaf.len() - 1]);
    assert!(hi + 2 < 400, "the leaf must have a right neighbour");

    let txn = f.tm.begin();
    let (first, cursor) = f.tree.open_scan(&txn, &wide(lo).value, FetchCond::Ge).unwrap();
    assert_eq!(first, Some(wide(lo)));
    let leaves = f.tree.check_structure().unwrap().leaves;
    for &i in &on_leaf {
        f.tree.delete(&txn, &wide(i)).unwrap();
    }
    assert_eq!(f.tree.check_structure().unwrap().leaves, leaves - 1, "leaf freed");
    (txn, cursor.unwrap(), leaf, hi)
}

#[test]
fn cursor_survives_page_delete_of_its_leaf() {
    let f = wide_tree(400);
    let (txn, mut cursor, _, hi) = scan_then_free_the_leaf(&f);
    // The remembered page is free now: Fetch Next descends by the deleted
    // last key and continues on the right neighbour.
    assert_eq!(f.tree.fetch_next(&txn, &mut cursor).unwrap(), Some(wide(hi + 1)));
    assert_eq!(f.tree.fetch_next(&txn, &mut cursor).unwrap(), Some(wide(hi + 2)));
    f.tm.commit(&txn).unwrap();
}

#[test]
fn cursor_is_not_fooled_by_its_freed_leaf_coming_back() {
    let f = wide_tree(400);
    let (txn, mut cursor, leaf, hi) = scan_then_free_the_leaf(&f);
    // Another transaction splits the rightmost leaf. The space map hands
    // out the lowest free page, so the split's new right half takes the
    // freed leaf's id and holds the highest keys.
    let other = f.tm.begin();
    let splits = f.stats.snapshot().smo_splits;
    let mut n = 400u32;
    while f.stats.snapshot().smo_splits == splits {
        f.tree.insert(&other, &wide(n)).unwrap();
        n += 1;
        assert!(n < 2000);
    }
    f.tm.commit(&other).unwrap();
    assert_eq!(
        leaf_of(&f, &wide(n - 1)),
        leaf,
        "the split reused the freed leaf"
    );
    // The page is a leaf of this index again, but its page_LSN has moved,
    // so Fetch Next descends instead of resuming among the highest keys.
    assert_eq!(f.tree.fetch_next(&txn, &mut cursor).unwrap(), Some(wide(hi + 1)));
    f.tm.commit(&txn).unwrap();
}

#[test]
fn fetch_next_waits_for_the_next_key_then_resumes() {
    let f = support::fix(LockProtocol::DataOnly, false);
    let setup = f.tm.begin();
    for i in 0..50u32 {
        f.tree.insert(&setup, &nkey(i)).unwrap();
    }
    f.tm.commit(&setup).unwrap();

    let scanner = f.tm.begin();
    let (first, cursor) = f
        .tree
        .open_scan(&scanner, &nkey(10).value, FetchCond::Ge)
        .unwrap();
    assert_eq!(first, Some(nkey(10)));
    let mut cursor = cursor.unwrap();
    // Another transaction holds the next key's lock in X until it commits.
    let blocker = f.tm.begin();
    f.locks
        .request(
            blocker.id,
            f.tree.lock_name_of(&nkey(11)),
            LockMode::X,
            LockDuration::Commit,
            false,
        )
        .unwrap();
    let before = f.stats.snapshot();
    std::thread::scope(|s| {
        let h = s.spawn(|| {
            let waited = f.tree.fetch_next(&scanner, &mut cursor).unwrap();
            let resumed = f.tree.fetch_next(&scanner, &mut cursor).unwrap();
            (waited, resumed)
        });
        std::thread::sleep(std::time::Duration::from_millis(60));
        assert!(!h.is_finished(), "fetch_next must wait for the X lock");
        f.tm.commit(&blocker).unwrap();
        assert_eq!(h.join().unwrap(), (Some(nkey(11)), Some(nkey(12))));
    });
    let d = f.stats.snapshot().since(&before);
    assert_eq!(d.lock_waits, 1);
    // The leaf did not change during the wait: the answer is re-read from
    // it, and the next call resumes from the position recorded then.
    assert_eq!(d.tree_traversals, 0);
    // No latch was held across the wait (§4).
    let m = f.obs.monitor.snapshot();
    assert!(m.clean(), "latch monitor: {m:?}");
    f.tm.commit(&scanner).unwrap();
}

#[test]
fn cursor_repositions_after_own_delete_of_current_key() {
    // §2.3: "The current key may not be in the index anymore due to a key
    // deletion earlier by the same transaction."
    let f = support::fix(LockProtocol::DataOnly, false);
    let setup = f.tm.begin();
    for i in 0..10u32 {
        f.tree.insert(&setup, &nkey(i)).unwrap();
    }
    f.tm.commit(&setup).unwrap();

    let txn = f.tm.begin();
    let (first, cursor) = f
        .tree
        .open_scan(&txn, &nkey(3).value, FetchCond::Ge)
        .unwrap();
    assert_eq!(first, Some(nkey(3)));
    let mut cursor = cursor.unwrap();
    // Delete the key the cursor sits on, within the same transaction.
    f.tree.delete(&txn, &nkey(3)).unwrap();
    // Fetch Next must reposition and return the following key.
    assert_eq!(f.tree.fetch_next(&txn, &mut cursor).unwrap(), Some(nkey(4)));
    assert_eq!(f.tree.fetch_next(&txn, &mut cursor).unwrap(), Some(nkey(5)));
    f.tm.commit(&txn).unwrap();
}

#[test]
fn cursor_reaches_eof_and_locks_it() {
    let f = support::fix(LockProtocol::DataOnly, false);
    let setup = f.tm.begin();
    for i in 0..3u32 {
        f.tree.insert(&setup, &nkey(i)).unwrap();
    }
    f.tm.commit(&setup).unwrap();
    let txn = f.tm.begin();
    let (_, cursor) = f
        .tree
        .open_scan(&txn, &nkey(0).value, FetchCond::Ge)
        .unwrap();
    let mut cursor = cursor.unwrap();
    assert_eq!(f.tree.fetch_next(&txn, &mut cursor).unwrap(), Some(nkey(1)));
    assert_eq!(f.tree.fetch_next(&txn, &mut cursor).unwrap(), Some(nkey(2)));
    assert_eq!(f.tree.fetch_next(&txn, &mut cursor).unwrap(), None);
    use ariesim::lock::LockName;
    assert!(f
        .locks
        .holds(txn.id, &LockName::Eof(IndexId(1)))
        .is_some());
    f.tm.commit(&txn).unwrap();
}

/// Return once some lock request is queued: the operation under test has
/// reached its wait.
fn until_queued(f: &support::Rig) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !f.locks.has_waiters() {
        assert!(std::time::Instant::now() < deadline, "no lock request was queued");
        std::thread::yield_now();
    }
}

/// Hold `key`'s lock name in X for `blocker`, as a conflicting writer would.
fn hold_x(f: &support::Rig, blocker: &TxnHandle, key: &IndexKey) {
    f.locks
        .request(
            blocker.id,
            f.tree.lock_name_of(key),
            LockMode::X,
            LockDuration::Commit,
            false,
        )
        .unwrap();
}

#[test]
fn insert_that_waits_for_its_next_key_resumes_on_the_unchanged_leaf() {
    let f = support::fix(LockProtocol::DataOnly, false);
    let setup = f.tm.begin();
    for i in [10u32, 20] {
        f.tree.insert(&setup, &nkey(i)).unwrap();
    }
    f.tm.commit(&setup).unwrap();

    // The insert's instant X request on its next key is denied; the blocker
    // commits without touching the leaf.
    let blocker = f.tm.begin();
    hold_x(&f, &blocker, &nkey(20));
    let before = f.stats.snapshot();
    let writer = f.tm.begin();
    std::thread::scope(|s| {
        let h = s.spawn(|| f.tree.insert(&writer, &nkey(15)));
        until_queued(&f);
        assert!(!h.is_finished(), "the insert must wait for the next-key lock");
        f.tm.commit(&blocker).unwrap();
        h.join().unwrap().unwrap();
    });
    f.tm.commit(&writer).unwrap();
    let d = f.stats.snapshot().since(&before);
    assert_eq!(d.lock_waits, 1);
    // The leaf's page_LSN did not move while the insert waited: it resumes
    // on the relatched leaf instead of descending again.
    assert_eq!(d.tree_traversals, 1);
    let m = f.obs.monitor.snapshot();
    assert!(m.clean(), "latch monitor: {m:?}");
    let keys = f.tree.scan_all_unlocked().unwrap();
    assert_eq!(keys, vec![nkey(10), nkey(15), nkey(20)]);
}

#[test]
fn fetch_that_waits_for_a_key_on_the_right_neighbour_resumes_on_the_unchanged_leaf() {
    let f = support::fix(LockProtocol::DataOnly, false);
    let setup = f.tm.begin();
    let mut n = 0u32;
    while f.stats.snapshot().smo_splits == 0 {
        f.tree.insert(&setup, &nkey(2 * n)).unwrap();
        n += 1;
    }
    f.tm.commit(&setup).unwrap();
    // The first key of the right leaf is the separator; a value just below
    // it descends to the left leaf and finds its answer across `next`.
    let root = f.pool.fix_s(f.tree.root).unwrap();
    let right_first = ariesim::btree::node::node_cells(&root).unwrap()[0]
        .high_key
        .clone()
        .unwrap();
    drop(root);
    let m = (1..2 * n).find(|&i| nkey(i) == right_first).unwrap();
    let below = nkey(m - 1).value; // odd, so absent

    let blocker = f.tm.begin();
    hold_x(&f, &blocker, &right_first);
    let before = f.stats.snapshot();
    let reader = f.tm.begin();
    std::thread::scope(|s| {
        let h = s.spawn(|| f.tree.fetch(&reader, &below, FetchCond::Ge));
        until_queued(&f);
        assert!(!h.is_finished(), "the fetch must wait for the X lock");
        f.tm.commit(&blocker).unwrap();
        assert_eq!(h.join().unwrap().unwrap(), FetchResult::Found(right_first.clone()));
    });
    f.tm.commit(&reader).unwrap();
    let d = f.stats.snapshot().since(&before);
    assert_eq!(d.lock_waits, 1);
    // The left leaf did not change during the wait: the search starts again
    // on it, with no second descent.
    assert_eq!(d.tree_traversals, 1);
    let m = f.obs.monitor.snapshot();
    assert!(m.clean(), "latch monitor: {m:?}");
}
