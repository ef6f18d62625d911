//! Integration tests for the heap record manager: logged, locked record
//! operations with rollback through the real transaction manager.

use ariesim_common::slotted::SLOT_LEN;
use ariesim_common::tmp::TempDir;
use ariesim_common::{Error, PageId, Rid, TableId};
use ariesim_obs::Obs;
use ariesim_record::body::HeapBody;
use ariesim_record::HeapManager;
use ariesim_txn::{Core, TransactionManager, TxnHandle};
use ariesim_wal::{LogOptions, RmId};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

struct Fix {
    _dir: TempDir,
    core: Arc<Core>,
    tm: Arc<TransactionManager>,
    heap: Arc<HeapManager>,
    table: TableId,
    first_page: PageId,
}

/// The engine in `dir` with a heap manager over it; `first_page` is NULL
/// until [`fix`] creates the file.
fn open(dir: TempDir, first_page: PageId) -> Fix {
    let core = Core::open(dir.path(), 256, LogOptions::default(), Obs::disabled()).unwrap();
    let heap = HeapManager::new(&core, false).unwrap();
    Fix {
        _dir: dir,
        tm: core.tm.clone(),
        core,
        heap,
        table: TableId(1),
        first_page,
    }
}

fn fix() -> Fix {
    let mut f = open(TempDir::new("heap-it"), PageId::NULL);
    let txn = f.tm.begin();
    f.first_page = f.heap.create_file(&txn, f.table).unwrap();
    f.tm.commit(&txn).unwrap();
    f
}

/// Every page of the file in chain order with its `total_free()`, by a walk
/// of its own (the book's independent oracle).
fn chain_free(f: &Fix) -> Vec<(PageId, usize)> {
    let mut out = Vec::new();
    let mut page = f.first_page;
    while !page.is_null() {
        let g = f.core.pool.fix_s(page).unwrap();
        out.push((page, g.total_free()));
        page = g.next();
    }
    out
}

/// Where first fit in chain order puts a `len`-byte record, given the bytes
/// reserved per page: `None` when no page has room and the file must grow.
fn first_fit(f: &Fix, len: usize, reserved: &HashMap<PageId, usize>) -> Option<PageId> {
    chain_free(f)
        .into_iter()
        .find(|&(page, free)| free >= len + SLOT_LEN + reserved.get(&page).copied().unwrap_or(0))
        .map(|(page, _)| page)
}

fn page_fixes(f: &Fix) -> u64 {
    f.core.stats.snapshot().page_fixes
}

/// xorshift64*: deterministic test randomness without a dependency.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % n
    }
}

#[test]
fn insert_fetch_roundtrip() {
    let f = fix();
    let txn = f.tm.begin();
    let rid = f.heap.insert(&txn, f.table, f.first_page, b"hello").unwrap();
    assert_eq!(f.heap.fetch(&txn, rid, true).unwrap(), b"hello");
    f.tm.commit(&txn).unwrap();
    let txn2 = f.tm.begin();
    assert_eq!(f.heap.fetch(&txn2, rid, false).unwrap(), b"hello");
    f.tm.commit(&txn2).unwrap();
}

#[test]
fn delete_then_fetch_is_bad_rid() {
    let f = fix();
    let txn = f.tm.begin();
    let rid = f.heap.insert(&txn, f.table, f.first_page, b"x").unwrap();
    f.tm.commit(&txn).unwrap();
    let txn = f.tm.begin();
    let before = f.heap.delete(&txn, f.table, rid).unwrap();
    assert_eq!(before, b"x");
    assert!(matches!(
        f.heap.fetch(&txn, rid, true),
        Err(Error::BadRid { .. })
    ));
    f.tm.commit(&txn).unwrap();
}

#[test]
fn rollback_undoes_insert() {
    let f = fix();
    let txn = f.tm.begin();
    let rid = f.heap.insert(&txn, f.table, f.first_page, b"ghost").unwrap();
    f.tm.rollback(&txn).unwrap();
    let txn2 = f.tm.begin();
    assert!(matches!(
        f.heap.fetch(&txn2, rid, false),
        Err(Error::BadRid { .. })
    ));
    assert!(f.heap.scan_all(f.first_page).unwrap().is_empty());
    f.tm.commit(&txn2).unwrap();
}

#[test]
fn rollback_undoes_delete_at_same_rid() {
    let f = fix();
    let txn = f.tm.begin();
    let rid = f.heap.insert(&txn, f.table, f.first_page, b"keeper").unwrap();
    f.tm.commit(&txn).unwrap();
    let txn = f.tm.begin();
    f.heap.delete(&txn, f.table, rid).unwrap();
    f.tm.rollback(&txn).unwrap();
    let txn2 = f.tm.begin();
    assert_eq!(f.heap.fetch(&txn2, rid, false).unwrap(), b"keeper");
    f.tm.commit(&txn2).unwrap();
}

#[test]
fn rollback_undoes_update() {
    let f = fix();
    let txn = f.tm.begin();
    let rid = f.heap.insert(&txn, f.table, f.first_page, b"old-value").unwrap();
    f.tm.commit(&txn).unwrap();
    let txn = f.tm.begin();
    f.heap.update(&txn, f.table, rid, b"new").unwrap();
    assert_eq!(f.heap.fetch(&txn, rid, true).unwrap(), b"new");
    f.tm.rollback(&txn).unwrap();
    let txn2 = f.tm.begin();
    assert_eq!(f.heap.fetch(&txn2, rid, false).unwrap(), b"old-value");
    f.tm.commit(&txn2).unwrap();
}

#[test]
fn partial_rollback_to_savepoint() {
    let f = fix();
    let txn = f.tm.begin();
    let r1 = f.heap.insert(&txn, f.table, f.first_page, b"first").unwrap();
    let sp = txn.savepoint();
    let r2 = f.heap.insert(&txn, f.table, f.first_page, b"second").unwrap();
    f.tm.rollback_to(&txn, sp).unwrap();
    assert_eq!(f.heap.fetch(&txn, r1, true).unwrap(), b"first");
    assert!(f.heap.fetch(&txn, r2, true).is_err());
    f.tm.commit(&txn).unwrap();
}

#[test]
fn uncommitted_delete_blocks_reader_conditionally() {
    let f = fix();
    let txn = f.tm.begin();
    let rid = f.heap.insert(&txn, f.table, f.first_page, b"data").unwrap();
    f.tm.commit(&txn).unwrap();

    let deleter = f.tm.begin();
    f.heap.delete(&deleter, f.table, rid).unwrap();

    // A reader in another transaction must block on the deleter's X lock;
    // verify via a second thread that succeeds only after rollback.
    let heap = f.heap.clone();
    let tm = f.tm.clone();
    let h = std::thread::spawn(move || {
        let reader = tm.begin();
        let v = heap.fetch(&reader, rid, false).unwrap();
        tm.commit(&reader).unwrap();
        v
    });
    std::thread::sleep(std::time::Duration::from_millis(50));
    assert!(!h.is_finished(), "reader should be blocked by deleter's lock");
    f.tm.rollback(&deleter).unwrap();
    assert_eq!(h.join().unwrap(), b"data");
}

#[test]
fn file_extension_survives_rollback() {
    let f = fix();
    // Fill the first page so an insert extends the file, then roll back.
    let blob = vec![7u8; 1000];
    let txn = f.tm.begin();
    for _ in 0..8 {
        f.heap.insert(&txn, f.table, f.first_page, &blob).unwrap();
    }
    f.tm.commit(&txn).unwrap();

    let txn = f.tm.begin();
    let rid = f.heap.insert(&txn, f.table, f.first_page, &blob).unwrap();
    assert_ne!(rid.page, f.first_page, "insert should spill to a new page");
    f.tm.rollback(&txn).unwrap();

    // The record is gone but the new page is still chained in (the NTA
    // committed independently), so the next insert lands on it directly.
    let txn2 = f.tm.begin();
    let rid2 = f.heap.insert(&txn2, f.table, f.first_page, &blob).unwrap();
    assert_eq!(rid2.page, rid.page);
    f.tm.commit(&txn2).unwrap();
}

#[test]
fn reservation_prevents_space_theft() {
    let f = fix();
    // Fill page 1 nearly full with two large records.
    let big = vec![1u8; 3900];
    let txn = f.tm.begin();
    let r1 = f.heap.insert(&txn, f.table, f.first_page, &big).unwrap();
    let r2 = f.heap.insert(&txn, f.table, f.first_page, &big).unwrap();
    assert_eq!(r1.page, f.first_page);
    assert_eq!(r2.page, f.first_page);
    f.tm.commit(&txn).unwrap();

    // T1 deletes r1 (reserving ~3900 bytes); T2 inserts a large record that
    // would only fit by consuming the reserved space.
    let t1 = f.tm.begin();
    f.heap.delete(&t1, f.table, r1).unwrap();
    let t2 = f.tm.begin();
    let r3 = f.heap.insert(&t2, f.table, f.first_page, &big).unwrap();
    assert_ne!(
        r3.page, f.first_page,
        "T2 must not consume space reserved by T1's uncommitted delete"
    );
    f.tm.commit(&t2).unwrap();
    // T1's undo can now re-insert at the exact original RID.
    f.tm.rollback(&t1).unwrap();
    let txn = f.tm.begin();
    assert_eq!(f.heap.fetch(&txn, r1, false).unwrap(), big);
    f.tm.commit(&txn).unwrap();
}

/// A deleter's reservation lasts until the deleter ends, whichever way: the
/// transaction's end drops it (the heap registers that with the
/// transaction at its first reservation), so after a commit the space is
/// free for real, and after a rollback — whose undo puts the record back —
/// nothing of it stays reserved.
#[test]
fn reservation_released_at_commit_and_at_rollback() {
    for commit in [true, false] {
        let f = fix();
        let big = vec![1u8; 3900];
        let txn = f.tm.begin();
        let r1 = f.heap.insert(&txn, f.table, f.first_page, &big).unwrap();
        let _r2 = f.heap.insert(&txn, f.table, f.first_page, &big).unwrap();
        f.tm.commit(&txn).unwrap();
        let t1 = f.tm.begin();
        f.heap.delete(&t1, f.table, r1).unwrap();
        if commit {
            f.tm.commit(&t1).unwrap();
        } else {
            f.tm.rollback(&t1).unwrap();
            let t = f.tm.begin();
            assert_eq!(f.heap.fetch(&t, r1, false).unwrap(), big, "undo restored r1");
            f.heap.delete(&t, f.table, r1).unwrap();
            f.tm.commit(&t).unwrap();
        }
        // Space is free for real now.
        let t2 = f.tm.begin();
        let r3 = f.heap.insert(&t2, f.table, f.first_page, &big).unwrap();
        assert_eq!(r3.page, f.first_page, "commit {commit}: reserved space not released");
        f.tm.commit(&t2).unwrap();
    }
}

#[test]
fn scan_all_sees_only_live_records() {
    let f = fix();
    let txn = f.tm.begin();
    let r1 = f.heap.insert(&txn, f.table, f.first_page, b"a").unwrap();
    let _r2 = f.heap.insert(&txn, f.table, f.first_page, b"b").unwrap();
    let r3 = f.heap.insert(&txn, f.table, f.first_page, b"c").unwrap();
    f.heap.delete(&txn, f.table, r1).unwrap();
    f.tm.commit(&txn).unwrap();
    let recs = f.heap.scan_all(f.first_page).unwrap();
    assert_eq!(recs.len(), 2);
    assert_eq!(recs[0].1, b"b");
    assert_eq!(recs[1].0, r3);
}

#[test]
fn update_too_large_fails_cleanly() {
    let f = fix();
    let txn = f.tm.begin();
    let rid = f.heap.insert(&txn, f.table, f.first_page, b"small").unwrap();
    let huge = vec![0u8; 9000];
    assert!(matches!(
        f.heap.update(&txn, f.table, rid, &huge),
        Err(Error::TooLarge { .. })
    ));
    // Record unchanged.
    assert_eq!(f.heap.fetch(&txn, rid, true).unwrap(), b"small");
    f.tm.commit(&txn).unwrap();
}

#[test]
fn many_inserts_span_pages_and_scan_back() {
    let f = fix();
    let txn = f.tm.begin();
    let mut rids = Vec::new();
    for i in 0..500u32 {
        let data = format!("record-{i:05}-{}", "x".repeat(64)).into_bytes();
        rids.push(f.heap.insert(&txn, f.table, f.first_page, &data).unwrap());
    }
    f.tm.commit(&txn).unwrap();
    let recs = f.heap.scan_all(f.first_page).unwrap();
    assert_eq!(recs.len(), 500);
    let pages: std::collections::HashSet<_> = rids.iter().map(|r| r.page).collect();
    assert!(pages.len() > 1, "should have spilled to multiple pages");
}

// --- the free-space book ---------------------------------------------------

/// One open transaction of the placement model.
struct Open {
    txn: Arc<TxnHandle>,
    /// Records it inserted (still live, as far as it knows), with lengths.
    inserted: Vec<(Rid, usize)>,
    /// Records it deleted, with lengths, and whether they were committed.
    deleted: Vec<(Rid, usize, bool)>,
}

#[test]
fn placement_is_first_fit_in_chain_order() {
    // Random inserts, deletes, commits and rollbacks by up to three open
    // transactions, with mixed record sizes: every insert must land on the
    // first page in chain order whose free bytes, less what uncommitted
    // deletes reserve there, hold the record and a slot — exactly where a
    // walk from the first page would have put it.
    for seed in 1..=4u64 {
        let f = fix();
        let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut committed: Vec<(Rid, usize)> = Vec::new();
        let mut open: Vec<Open> = Vec::new();
        // How often the file grew, an insert filled a hole behind the
        // chain's tail, and reservations moved a record off a page.
        let (mut grew, mut holes, mut diverted) = (0, 0, 0);
        for _ in 0..1200 {
            if open.is_empty() || (open.len() < 3 && rng.below(8) == 0) {
                let txn = f.tm.begin();
                open.push(Open {
                    txn,
                    inserted: Vec::new(),
                    deleted: Vec::new(),
                });
                continue;
            }
            let t = rng.below(open.len());
            match rng.below(20) {
                0..=12 => {
                    let len = [12, 40, 90, 300, 700, 1500][rng.below(6)];
                    let mut reserved: HashMap<PageId, usize> = HashMap::new();
                    for (rid, l, _) in open.iter().flat_map(|o| &o.deleted) {
                        *reserved.entry(rid.page).or_default() += l;
                    }
                    let expected = first_fit(&f, len, &reserved);
                    diverted += usize::from(expected != first_fit(&f, len, &HashMap::new()));
                    let pages_before: Vec<PageId> = chain_free(&f).iter().map(|e| e.0).collect();
                    let data = vec![rng.below(256) as u8; len];
                    let rid = f.heap.insert(&open[t].txn, f.table, f.first_page, &data).unwrap();
                    match expected {
                        Some(page) => {
                            assert_eq!(rid.page, page, "seed {seed}: first fit");
                            holes += usize::from(Some(&page) != pages_before.last());
                        }
                        None => {
                            assert!(!pages_before.contains(&rid.page), "seed {seed}: must grow");
                            grew += 1;
                        }
                    }
                    open[t].inserted.push((rid, len));
                }
                13..=15 => {
                    // Own uncommitted records, or committed ones nobody holds.
                    let own = open[t].inserted.len();
                    let pick = rng.below(own + committed.len().max(1));
                    let (rid, len, was_committed) = if pick < own {
                        let (rid, len) = open[t].inserted.swap_remove(pick);
                        (rid, len, false)
                    } else if !committed.is_empty() {
                        let (rid, len) = committed.swap_remove(pick - own);
                        (rid, len, true)
                    } else {
                        continue;
                    };
                    f.heap.delete(&open[t].txn, f.table, rid).unwrap();
                    open[t].deleted.push((rid, len, was_committed));
                }
                16..=18 => {
                    let o = open.swap_remove(t);
                    f.tm.commit(&o.txn).unwrap();
                    committed.extend(o.inserted);
                }
                _ => {
                    let o = open.swap_remove(t);
                    f.tm.rollback(&o.txn).unwrap();
                    committed.extend(
                        o.deleted
                            .into_iter()
                            .filter(|d| d.2)
                            .map(|(rid, len, _)| (rid, len)),
                    );
                }
            }
        }
        for o in open.drain(..) {
            f.tm.commit(&o.txn).unwrap();
            committed.extend(o.inserted);
        }
        assert!(
            grew >= 10 && holes >= 10 && diverted >= 1,
            "seed {seed}: grew {grew}, filled {holes} holes, {diverted} diverted"
        );
        let scanned = f.heap.scan_all(f.first_page).unwrap();
        let live: BTreeSet<Rid> = scanned.iter().map(|r| r.0).collect();
        let model: BTreeSet<Rid> = committed.iter().map(|r| r.0).collect();
        assert_eq!(live, model, "seed {seed}: scan_all matches the model");
    }
}

#[test]
fn insert_fixes_one_page_when_the_file_does_not_grow() {
    let f = fix();
    let txn = f.tm.begin();
    let mut rids = Vec::new();
    for _ in 0..40 {
        rids.push(f.heap.insert(&txn, f.table, f.first_page, &[5u8; 500]).unwrap());
    }
    f.tm.commit(&txn).unwrap();
    let pages = chain_free(&f).len();
    assert!(pages >= 3, "40 × 500 bytes span several pages");

    // Small records fit the last page: one fix each, not one per page.
    let txn = f.tm.begin();
    let before = page_fixes(&f);
    for _ in 0..10 {
        f.heap.insert(&txn, f.table, f.first_page, b"small").unwrap();
    }
    assert_eq!(page_fixes(&f) - before, 10);
    f.tm.commit(&txn).unwrap();

    // Room made on the first page by a committed delete is used next, still
    // with one fix.
    let txn = f.tm.begin();
    f.heap.delete(&txn, f.table, rids[0]).unwrap();
    f.tm.commit(&txn).unwrap();
    let txn = f.tm.begin();
    let before = page_fixes(&f);
    let rid = f.heap.insert(&txn, f.table, f.first_page, &[6u8; 400]).unwrap();
    assert_eq!(rid.page, f.first_page);
    assert_eq!(page_fixes(&f) - before, 1);
    f.tm.commit(&txn).unwrap();
}

#[test]
fn book_fills_by_one_walk_after_crash_and_reopen() {
    let f = fix();
    let txn = f.tm.begin();
    let mut rows = BTreeSet::new();
    for i in 0..30u8 {
        rows.insert(f.heap.insert(&txn, f.table, f.first_page, &[i; 900]).unwrap());
    }
    f.tm.commit(&txn).unwrap(); // forces the log, writes no page
    let first_page = f.first_page;
    let Fix {
        _dir: dir,
        core,
        tm,
        heap,
        ..
    } = f;
    drop((core, tm, heap)); // crash: every page image is lost

    let f = open(dir, first_page);
    ariesim_recovery::restart(&f.core).unwrap();
    let chain = chain_free(&f);
    assert!(chain.len() >= 4);
    let live: BTreeSet<Rid> = f.heap.scan_all(first_page).unwrap().iter().map(|r| r.0).collect();
    assert_eq!(live, rows, "restart redid every committed insert");

    // Restart left the book empty: the first insert walks the chain once,
    // to the first page with room (the last; 900-byte rows leave less than
    // 900 bytes on every other page), and lands where a walk says.
    let txn = f.tm.begin();
    let expected = first_fit(&f, 900, &HashMap::new());
    assert_eq!(expected, chain.last().map(|e| e.0));
    let before = page_fixes(&f);
    let rid = f.heap.insert(&txn, f.table, first_page, &[99u8; 900]).unwrap();
    assert_eq!(Some(rid.page), expected);
    assert_eq!(page_fixes(&f) - before, chain.len() as u64);
    // From then on the book knows every page.
    let before = page_fixes(&f);
    f.heap.insert(&txn, f.table, first_page, &[98u8; 10]).unwrap();
    assert_eq!(page_fixes(&f) - before, 1);
    f.tm.commit(&txn).unwrap();
}

#[test]
fn book_is_dropped_when_a_failed_extension_is_undone() {
    let f = fix();
    let blob = vec![7u8; 1000];
    let txn = f.tm.begin();
    for _ in 0..8 {
        f.heap.insert(&txn, f.table, f.first_page, &blob).unwrap();
    }
    f.tm.commit(&txn).unwrap();
    // One more extends the file (a committed nested top action); roll the
    // record back so the new page is empty — and in the book, with room.
    let txn = f.tm.begin();
    let orphan = f.heap.insert(&txn, f.table, f.first_page, &blob).unwrap().page;
    assert_ne!(orphan, f.first_page);
    f.tm.rollback(&txn).unwrap();

    // A transaction whose extension failed before its dummy CLR: its
    // rollback undoes the ChainNext on the old last page, unchaining the
    // new one.
    let txn = f.tm.begin();
    let body = HeapBody::ChainNext {
        old: PageId::NULL,
        new: orphan,
    };
    txn.with_logger(&f.core.log, |l| l.update(RmId::Heap, f.first_page, body.encode()));
    f.tm.rollback(&txn).unwrap();
    assert_eq!(chain_free(&f).len(), 1, "the chain ends at the first page again");

    // The book must not send the next insert to the unchained page: it walks
    // the chain as it is now and extends it with a fresh page.
    let txn = f.tm.begin();
    let rid = f.heap.insert(&txn, f.table, f.first_page, &blob).unwrap();
    assert_ne!(rid.page, orphan, "insert went to a page the chain no longer has");
    assert_ne!(rid.page, f.first_page);
    f.tm.commit(&txn).unwrap();
    let live: Vec<Rid> = f.heap.scan_all(f.first_page).unwrap().iter().map(|r| r.0).collect();
    assert!(live.contains(&rid));
    assert_eq!(live.len(), 9);
}

#[test]
fn concurrent_inserts_while_one_extends_lose_no_page() {
    let f = fix();
    let per_thread = 400;
    let handles: Vec<_> = (0..2u8)
        .map(|t| {
            let (tm, heap) = (f.tm.clone(), f.heap.clone());
            let (table, first_page) = (f.table, f.first_page);
            std::thread::spawn(move || {
                let mut mine = Vec::new();
                for chunk in 0..per_thread / 10 {
                    let txn = tm.begin();
                    for i in 0..10 {
                        let n = chunk * 10 + i;
                        let data = format!("t{t}-{n:05}-{}", "y".repeat(150)).into_bytes();
                        let rid = heap.insert(&txn, table, first_page, &data).unwrap();
                        mine.push((rid, data));
                    }
                    tm.commit(&txn).unwrap();
                }
                mine
            })
        })
        .collect();
    let mut union: Vec<(Rid, Vec<u8>)> =
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
    union.sort();
    let mut scanned = f.heap.scan_all(f.first_page).unwrap();
    scanned.sort();
    assert_eq!(scanned.len(), 2 * per_thread);
    assert_eq!(scanned, union, "scan_all is exactly the union of the inserts");
    let chain: Vec<PageId> = chain_free(&f).iter().map(|e| e.0).collect();
    assert!(chain.len() > 10);
    let distinct: BTreeSet<_> = chain.iter().collect();
    assert_eq!(distinct.len(), chain.len(), "no page chained twice");
    assert!(
        chain.iter().all(|p| scanned.iter().any(|r| r.0.page == *p)),
        "every chained page holds records: none was extended and then skipped"
    );

    // The book came out consistent: room made in the middle of the chain is
    // found first, with one fix.
    let middle = scanned[scanned.len() / 2].0;
    let txn = f.tm.begin();
    f.heap.delete(&txn, f.table, middle).unwrap();
    f.tm.commit(&txn).unwrap();
    let txn = f.tm.begin();
    let expected = first_fit(&f, 100, &HashMap::new());
    assert!(expected.is_some());
    let before = page_fixes(&f);
    let rid = f.heap.insert(&txn, f.table, f.first_page, &[1u8; 100]).unwrap();
    assert_eq!(Some(rid.page), expected);
    assert_eq!(page_fixes(&f) - before, 1);
    f.tm.commit(&txn).unwrap();
}

#[test]
fn update_rewrites_in_place_and_reserves_the_bytes_a_shrink_gives_up() {
    let f = fix();
    let big = vec![1u8; 3000];
    let txn = f.tm.begin();
    let a = f.heap.insert(&txn, f.table, f.first_page, &big).unwrap();
    let b = f.heap.insert(&txn, f.table, f.first_page, &big).unwrap();
    f.tm.commit(&txn).unwrap();

    // An image no longer than the old one keeps its bytes where they are.
    let txn = f.tm.begin();
    f.heap.update(&txn, f.table, b, &[2u8; 3000]).unwrap();
    f.tm.commit(&txn).unwrap();

    // T1 shrinks `a`; T2's record fits page 1 only by taking those bytes.
    let t1 = f.tm.begin();
    f.heap.update(&t1, f.table, a, &[3u8; 100]).unwrap();
    let t2 = f.tm.begin();
    let c = f.heap.insert(&t2, f.table, f.first_page, &[4u8; 4000]).unwrap();
    assert_ne!(c.page, f.first_page, "T2 took the bytes T1's undo needs");
    f.tm.commit(&t2).unwrap();
    f.tm.rollback(&t1).unwrap();
    let txn = f.tm.begin();
    assert_eq!(f.heap.fetch(&txn, a, false).unwrap(), big);
    assert_eq!(f.heap.fetch(&txn, b, false).unwrap(), vec![2u8; 3000]);
    f.tm.commit(&txn).unwrap();
}

#[test]
fn insert_too_large_for_any_page_fails_without_growing_the_file() {
    let f = fix();
    let txn = f.tm.begin();
    let huge = vec![0u8; 9000];
    assert!(matches!(
        f.heap.insert(&txn, f.table, f.first_page, &huge),
        Err(Error::TooLarge { .. })
    ));
    assert_eq!(chain_free(&f).len(), 1);
    f.tm.commit(&txn).unwrap();
}

fn log_bytes(f: &Fix) -> u64 {
    f.core.stats.snapshot().log_bytes
}

/// Crash `f` (every unflushed page image and log byte is lost), reopen its
/// directory and run restart.
fn crash_and_restart(f: Fix) -> Fix {
    let first_page = f.first_page;
    let Fix {
        _dir: dir,
        core,
        tm,
        heap,
        ..
    } = f;
    drop((core, tm, heap));
    let f = open(dir, first_page);
    ariesim_recovery::restart(&f.core).unwrap();
    f
}

/// A 121-byte row whose bytes `at..at + k` are `fill` and the rest `b'.'`.
fn row(at: usize, k: usize, fill: u8) -> Vec<u8> {
    let mut r = vec![b'.'; 121];
    r[at..at + k].fill(fill);
    r
}

#[test]
fn update_logs_only_the_bytes_it_changes() {
    let f = fix();
    let txn = f.tm.begin();
    let rid = f.heap.insert(&txn, f.table, f.first_page, &row(0, 0, 0)).unwrap();
    f.tm.commit(&txn).unwrap();
    for (at, k) in [(0, 1), (50, 4), (107, 14), (0, 121)] {
        let txn = f.tm.begin();
        let before = log_bytes(&f);
        f.heap.update(&txn, f.table, rid, &row(at, k, b'a' + k as u8)).unwrap();
        // Frame 8 + Update envelope 22 + body 15 (op, table, slot, head,
        // tail, two length prefixes) + the two k-byte middles.
        assert_eq!(log_bytes(&f) - before, 45 + 2 * k as u64, "k = {k} at {at}");
        let before = log_bytes(&f);
        f.tm.commit(&txn).unwrap();
        // Frame 8 + Commit envelope 17.
        assert_eq!(log_bytes(&f) - before, 25);
        let txn = f.tm.begin();
        f.heap.update(&txn, f.table, rid, &row(0, 0, 0)).unwrap();
        f.tm.commit(&txn).unwrap();
    }
}

/// The shapes a prefix/suffix split has an edge at, each as (before, after).
const UPDATE_EDGES: [(&[u8], &[u8]); 7] = [
    (b"row 1: payload aaaa, end", b"row 1: payload bbbb, end"),
    (b"grows", b"gr-o-o-ws"),
    (b"shr-i-i-nks", b"shrinks"),
    (b"abcdef", b"uvwxyz"),
    (b"same bytes", b"same bytes"),
    (b"prefix and more", b"prefix"),
    (b"abab", b"ab"),
];

#[test]
fn changed_range_updates_roll_back_byte_for_byte() {
    for (before, after) in UPDATE_EDGES {
        let f = fix();
        let txn = f.tm.begin();
        let rid = f.heap.insert(&txn, f.table, f.first_page, before).unwrap();
        f.tm.commit(&txn).unwrap();
        let txn = f.tm.begin();
        assert_eq!(f.heap.update(&txn, f.table, rid, after).unwrap(), before);
        assert_eq!(f.heap.fetch(&txn, rid, true).unwrap(), after);
        f.tm.rollback(&txn).unwrap();
        let txn = f.tm.begin();
        assert_eq!(f.heap.fetch(&txn, rid, false).unwrap(), before, "{after:?} rolled back");
        f.tm.commit(&txn).unwrap();
    }
}

#[test]
fn changed_range_updates_survive_a_crash_byte_for_byte() {
    for (before, after) in UPDATE_EDGES {
        let f = fix();
        let txn = f.tm.begin();
        let rid = f.heap.insert(&txn, f.table, f.first_page, before).unwrap();
        f.tm.commit(&txn).unwrap();
        // A rolled-back update (its CLR) and then a committed one: redo
        // replays the insert, the update, its CLR and the second update on
        // a page that reached disk with none of them.
        let txn = f.tm.begin();
        f.heap.update(&txn, f.table, rid, after).unwrap();
        f.tm.rollback(&txn).unwrap();
        let txn = f.tm.begin();
        f.heap.update(&txn, f.table, rid, after).unwrap();
        f.tm.commit(&txn).unwrap();
        let f = crash_and_restart(f);
        let txn = f.tm.begin();
        assert_eq!(f.heap.fetch(&txn, rid, false).unwrap(), after, "{before:?} redone");
        f.tm.commit(&txn).unwrap();

        // A loser's update back to `before`, its record durable: restart's
        // undo splices the after-image back in.
        let txn = f.tm.begin();
        f.heap.update(&txn, f.table, rid, before).unwrap();
        f.core.log.flush_all().unwrap();
        let f = crash_and_restart(f);
        let txn = f.tm.begin();
        assert_eq!(f.heap.fetch(&txn, rid, false).unwrap(), after, "{before:?} undone");
        f.tm.commit(&txn).unwrap();
    }
}
