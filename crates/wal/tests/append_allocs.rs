//! `LogManager::append` allocates nothing: the frame is built in place at
//! the end of the log image. A counting global allocator watches 1 000
//! appends of every record shape, with bodies of 0–300 bytes, that fit the
//! image's headroom without a flush.

use ariesim_common::stats::new_stats;
use ariesim_common::tmp::TempDir;
use ariesim_common::{Lsn, PageId, TxnId};
use ariesim_wal::manager::IMAGE_HEADROOM;
use ariesim_wal::{LogManager, LogOptions, LogRecord, RecordKind, RmId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Count only this thread's allocations, and only while appending: the
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

fn records() -> Vec<LogRecord> {
    (0..1_000u64)
        .map(|i| {
            let txn = TxnId(1 + i % 7);
            let prev = Lsn(16 + i);
            let body = vec![i as u8; (i * 37 % 301) as usize];
            match i % 6 {
                0 | 1 => LogRecord::update(txn, prev, RmId::Index, PageId(i as u32), body),
                2 => LogRecord::clr(txn, prev, RmId::Heap, PageId(3), Lsn(16), body),
                3 => LogRecord::dummy_clr(txn, prev, Lsn(16)),
                4 => LogRecord::control(txn, prev, RecordKind::Commit),
                _ => LogRecord::control(
                    txn,
                    prev,
                    [RecordKind::Abort, RecordKind::End][i as usize % 2],
                ),
            }
        })
        .collect()
}

#[test]
fn append_allocates_nothing() {
    let dir = TempDir::new("wal-allocs");
    let m = LogManager::open(&dir.file("wal"), LogOptions::default(), new_stats()).unwrap();
    let recs = records();
    let bytes: u64 = recs
        .iter()
        .map(|r| (8 + r.kind.envelope_len() + r.body.len()) as u64)
        .sum();
    assert!(
        bytes < IMAGE_HEADROOM as u64,
        "the appends must fit the image's headroom"
    );
    COUNTING.with(|c| c.set(true));
    for rec in &recs {
        m.append(rec);
    }
    COUNTING.with(|c| c.set(false));
    // ordering: Relaxed — written by this thread only.
    assert_eq!(
        ALLOCS.load(Ordering::Relaxed),
        0,
        "allocations during 1 000 appends"
    );
    assert_eq!(m.scan(Lsn::NULL).count(), recs.len());
}
