//! Allocation budgets of the tree's hot calls: a counting global allocator
//! watches `fetch` (a key found and a key not found), a 20-key scan by
//! `open_run` and `fetch_next_run`, and `insert`, each on a warm tree and a
//! warm lock table. The budgets hold the counts the calls make today; a
//! change that adds an allocation to one of these paths fails here.

mod common;

use ariesim_btree::fetch::{FetchCond, FetchResult};
use common::{fix, nkey};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Count only this thread's allocations, and only inside `counted`: the
    /// test harness allocates on its own threads.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: every call forwards unchanged to the system allocator; the
// wrapper only bumps a counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            // ordering: Relaxed — a statistic read after the counted region.
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            // ordering: Relaxed — as in `alloc`.
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations `f` makes on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    // ordering: Relaxed — written by this thread only.
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

/// Budgets: a found fetch, a not-found fetch, a 20-key scan, an insert (an
/// unoptimised build allocates once more in the insert).
const FETCH_FOUND: u64 = 9;
const FETCH_NOT_FOUND: u64 = 5;
const SCAN_20: u64 = 54;
const INSERT: u64 = if cfg!(debug_assertions) { 11 } else { 10 };

#[test]
fn hot_calls_stay_within_their_allocation_budgets() {
    let f = fix();
    let setup = f.tm.begin();
    for i in (0..600u32).step_by(2) {
        f.tree.insert(&setup, &nkey(i)).unwrap();
    }
    f.tm.commit(&setup).unwrap();

    // Each call runs twice, in two transactions, on different keys; the
    // second is counted, once the first has grown the lock table.
    let mut counts = [0u64; 4];
    for round in 0..2u32 {
        let txn = f.tm.begin();
        let at = 100 + 200 * round;
        let (found, n_found) = counted(|| f.tree.fetch(&txn, &nkey(at).value, FetchCond::Eq));
        assert_eq!(found.unwrap(), FetchResult::Found(nkey(at)));
        let (missed, n_missed) =
            counted(|| f.tree.fetch(&txn, &nkey(at + 1).value, FetchCond::Eq));
        assert_eq!(missed.unwrap(), FetchResult::NotFound);

        let mut run = Vec::with_capacity(64);
        let stop = nkey(at + 40).value;
        let (scanned, n_scan) = counted(|| {
            let mut cursor = f.tree.open_run(&txn, &nkey(at).value, &stop, &mut run)?;
            while let Some(c) = cursor.as_mut() {
                if run.last().is_some_and(|k| k.value >= stop)
                    || !f.tree.fetch_next_run(&txn, c, &stop, &mut run)?
                {
                    break;
                }
            }
            Ok::<_, ariesim_common::Error>(run.len())
        });
        assert_eq!(scanned.unwrap(), 21, "20 keys and the stop key");

        let (inserted, n_insert) = counted(|| f.tree.insert(&txn, &nkey(at + 3)));
        inserted.unwrap();
        f.tm.commit(&txn).unwrap();
        counts = [n_found, n_missed, n_scan, n_insert];
    }
    eprintln!("allocations: fetch found, fetch not found, 20-key scan, insert: {counts:?}");
    let budgets = [FETCH_FOUND, FETCH_NOT_FOUND, SCAN_20, INSERT];
    for (what, (n, budget)) in ["fetch found", "fetch not found", "20-key scan", "insert"]
        .iter()
        .zip(counts.iter().zip(budgets))
    {
        assert!(*n <= budget, "{what}: {n} allocations, budget {budget}");
    }
}
