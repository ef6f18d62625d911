//! Two §2 features beyond the core protocol: multi-granularity data-only
//! locking (record vs page, §2.1) and Fetch Next cursor repositioning
//! (§2.3).

mod support;

use ariesim::btree::fetch::{FetchCond, FetchResult};
use ariesim::btree::{BTree, LockProtocol};
use ariesim::common::{IndexId, IndexKey, PageId, Rid};
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
    use ariesim::lock::{LockMode, LockName};
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

// --- Fetch Next repositioning (§2.3) ---------------------------------------

#[test]
fn cursor_survives_interleaved_split() {
    let f = support::fix(LockProtocol::DataOnly, false);
    let setup = f.tm.begin();
    for i in 0..320u32 {
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
    let splitter = f.tm.begin();
    let mut j = 0u32;
    while f.stats.snapshot().smo_splits == 0 {
        f.tree.insert(&splitter, &nkey(100_000 + j)).unwrap();
        j += 1;
        assert!(j < 5000);
    }
    f.tm.commit(&splitter).unwrap();
    // The cursor repositions via its noted LSN (now stale) and keeps going
    // without skipping or repeating.
    for i in 5..320u32 {
        assert_eq!(
            f.tree.fetch_next(&scanner, &mut cursor).unwrap(),
            Some(nkey(2 * i)),
            "at position {i}"
        );
    }
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
