//! Fetch Next's remembered leaf (§2.3) against concurrent structure changes.
//!
//! A scanner resumes at the leaf, page_LSN and slot it remembered, and
//! descends again only when that page_LSN has moved. This runs it against a
//! writer whose batches of inserts and deletes split leaves and free them
//! under the scanner's feet. The permanent keys are even; the writer only
//! ever adds and removes odd keys between two of them, enough at once that
//! the gap grows leaves of its own, which the deletes then empty and free.
//! Every scan must be strictly ascending and hold every even key from its
//! start on exactly once, whatever odd keys it also meets. The scanner walks
//! by `fetch_next`, a key per call, in one test, and by `fetch_next_run`, a
//! run of one leaf's keys per call locked under that leaf's one latch, in
//! the other.
//!
//! A full scan holds S locks on every key behind its cursor, so no other
//! transaction can move a slot before it. Every other scan therefore starts
//! at the even key just above the writer's current gap: the writer's deletes
//! below that key shift its slot on the scanner's first leaf without waiting,
//! and only the page_LSN test keeps the scanner from skipping or repeating.

mod support;

use ariesim::btree::fetch::{Cursor, FetchCond};
use ariesim::btree::{BTree, LockProtocol};
use ariesim::common::IndexKey;
use ariesim::txn::TxnHandle;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, PoisonError};
use support::{fix, key};

/// Gaps between permanent keys; key `2 * GAP * g` is permanent.
const GAPS: u32 = 200;
const GAP: u32 = 1_000;
/// Odd keys per writer batch: about three leaves' worth.
const BATCH: u32 = 150;
const ROUNDS: u32 = 200;

/// Padded so that about 60 keys fill a leaf.
fn k(n: u32) -> IndexKey {
    key(format!("{n:010}{}", "-".repeat(100)), n)
}

fn number(key: &IndexKey) -> u32 {
    std::str::from_utf8(&key.value[..10]).unwrap().parse().unwrap()
}

/// Append every key after `cursor` to `seen`, one per `fetch_next`.
fn walk_by_key(tree: &BTree, txn: &TxnHandle, cursor: &mut Cursor, seen: &mut Vec<IndexKey>) {
    while let Some(next) = tree.fetch_next(txn, cursor).unwrap() {
        seen.push(next);
    }
}

/// Append every key after `cursor` to `seen`, a leaf's run per
/// `fetch_next_run`; the stop value sorts above every key.
fn walk_by_run(tree: &BTree, txn: &TxnHandle, cursor: &mut Cursor, seen: &mut Vec<IndexKey>) {
    while tree.fetch_next_run(txn, cursor, &[0xff], seen).unwrap() {}
}

#[test]
fn scans_stay_exact_while_leaves_split_and_vanish() {
    race(walk_by_key);
}

#[test]
fn runs_stay_exact_while_leaves_split_and_vanish() {
    race(walk_by_run);
}

/// One scanner walking by `walk` against the splitting and freeing writer.
/// The two tests take turns: run side by side on a small host, each race's
/// threads slow the other's, and the slot-shifting windows close.
fn race(walk: fn(&BTree, &TxnHandle, &mut Cursor, &mut Vec<IndexKey>)) {
    static TURN: Mutex<()> = Mutex::new(());
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    let f = fix(LockProtocol::DataOnly, false);
    let evens: Vec<u32> = (0..GAPS).map(|g| 2 * GAP * g).collect();
    let setup = f.tm.begin();
    for &n in &evens {
        f.tree.insert(&setup, &k(n)).unwrap();
    }
    f.tm.commit(&setup).unwrap();
    let before = f.stats.snapshot();

    let done = AtomicBool::new(false);
    // The permanent key that closes the writer's current gap.
    let gap_end = AtomicU32::new(0);
    let scans = std::thread::scope(|s| {
        s.spawn(|| {
            for round in 0..ROUNDS {
                let base = 2 * GAP * (round * 37 % (GAPS - 1));
                gap_end.store(base + 2 * GAP, Ordering::Release);
                let batch: Vec<IndexKey> = (0..BATCH).map(|j| k(base + 2 * j + 1)).collect();
                let txn = f.tm.begin();
                for key in &batch {
                    f.tree.insert(&txn, key).unwrap();
                }
                f.tm.commit(&txn).unwrap();
                // Delete from the top down, so the first deletes land on the
                // leaf shared with the key above the gap. The largest goes
                // last: its next key is that permanent key, which a scan
                // started there holds in S.
                let (largest, rest) = batch.split_last().unwrap();
                let txn = f.tm.begin();
                for key in rest.iter().rev().chain([largest]) {
                    f.tree.delete(&txn, key).unwrap();
                }
                f.tm.commit(&txn).unwrap();
            }
            done.store(true, Ordering::Release);
        });
        let mut scans = 0u32;
        while scans < 3 || !done.load(Ordering::Acquire) {
            let start = if scans.is_multiple_of(2) { 0 } else { gap_end.load(Ordering::Acquire) };
            let txn = f.tm.begin();
            let (first, cursor) = f.tree.open_scan(&txn, &k(start).value, FetchCond::Ge).unwrap();
            let mut seen: Vec<IndexKey> = first.into_iter().collect();
            walk(&f.tree, &txn, &mut cursor.unwrap(), &mut seen);
            f.tm.commit(&txn).unwrap();
            for w in seen.windows(2) {
                assert!(w[0] < w[1], "scan {scans} not ascending: {:?} then {:?}", w[0], w[1]);
            }
            let seen_evens: Vec<u32> = seen.iter().map(number).filter(|n| n % 2 == 0).collect();
            let expected: Vec<u32> = evens.iter().copied().filter(|&n| n >= start).collect();
            assert_eq!(seen_evens, expected, "scan {scans} from {start} lost or repeated a permanent key");
            scans += 1;
        }
        scans
    });

    let d = f.stats.snapshot().since(&before);
    assert!(
        d.smo_splits > 0 && d.smo_page_deletes > 0,
        "the writer must split and free leaves: {} splits, {} page deletes",
        d.smo_splits,
        d.smo_page_deletes
    );
    assert!(scans >= 3);
    f.tree.check_structure().unwrap();
    let m = f.obs.monitor.snapshot();
    assert!(m.clean() && m.max_latch_depth <= 2, "latch monitor: {m:?}");
}
