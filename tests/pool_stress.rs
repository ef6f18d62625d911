//! Concurrency stress for the partitioned buffer pool.
//!
//! N threads hammer a pool deliberately smaller than the working set with a
//! mix of reads, logged writes, explicit flushes and reads that hold a page
//! while fixing its neighbours, so pages are continuously evicted and
//! faulted back in while held guards pin frames. Afterwards three oracles
//! must hold:
//!
//! 1. **Pin balance** — every pin taken was released: the sum of all frame
//!    pin counts is zero, and every page is still evictable.
//! 2. **No lost dirty pages** — each page carries a per-page version stamp
//!    (its `owner` word), updated only under the X latch in lockstep with a
//!    shared oracle array; after the storm every page read back through the
//!    pool (i.e. possibly from disk, after eviction) matches the oracle.
//! 3. **WAL rule** — the pool reports every write-back to the monitor
//!    before the write, with the log's durable end at that instant; the
//!    monitor must have counted no write-back of a page whose page_LSN the
//!    log did not yet cover, eviction and flush alike.

use ariesim::common::page::PageType;
use ariesim::common::tmp::TempDir;
use ariesim::common::{Error, Lsn, PageId, TxnId};
use ariesim::common::stats::StatsHandle;
use ariesim::obs::{Obs, ObsHandle};
use ariesim::storage::BufferPool;
use ariesim::txn::Core;
use ariesim::wal::{LogManager, LogOptions, LogRecord, RmId};
use ariesim_bench::XorShift;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

const FRAMES: usize = 64;
/// Working set is 3x the pool: every thread forces continuous eviction.
const PAGES: u32 = 192;
const THREADS: u32 = 8;

/// Operations per thread: the release run takes the longer storm.
const OPS_PER_THREAD: u32 = if cfg!(debug_assertions) { 400 } else { 1500 };

fn build_pool(obs: ObsHandle) -> (TempDir, Arc<BufferPool>, Arc<LogManager>, StatsHandle) {
    let dir = TempDir::new("pool-stress");
    let core = Core::open(dir.path(), FRAMES, LogOptions::default(), obs).unwrap();
    (dir, core.pool.clone(), core.log.clone(), core.stats.clone())
}

/// Format the working set: page `p` starts at version 0.
fn populate(pool: &Arc<BufferPool>, log: &Arc<LogManager>) {
    for p in 1..=PAGES {
        let lsn = append_update(log, p);
        let mut g = pool.fix_x(PageId(p)).unwrap();
        g.format(PageId(p), PageType::Heap, 0, 0);
        g.record_update(lsn);
    }
    pool.flush_all().unwrap();
}

/// Append a real (unflushed) update record so dirtied pages carry LSNs the
/// WAL rule actually has to force.
fn append_update(log: &Arc<LogManager>, page: u32) -> Lsn {
    log.append(&LogRecord::update(
        TxnId(page as u64),
        Lsn::NULL,
        RmId::Heap,
        PageId(page),
        vec![0xA5],
    ))
}

#[test]
fn storm_clock_policy() {
    let obs = Obs::enabled(1 << 14);
    let (_dir, pool, log, stats) = build_pool(obs.clone());
    populate(&pool, &log);
    let before = stats.snapshot();

    // Oracle: expected `owner` stamp per page. Updated while the X latch is
    // held, so whenever the latch is free the page and its slot agree.
    let expected: Arc<Vec<AtomicU32>> =
        Arc::new((0..=PAGES).map(|_| AtomicU32::new(0)).collect());

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let pool = pool.clone();
            let log = log.clone();
            let expected = expected.clone();
            s.spawn(move || {
                let mut rng = XorShift(0x9E3779B97F4A7C15 ^ (t as u64 + 1));
                for i in 0..OPS_PER_THREAD {
                    let p = 1 + (rng.next() as u32) % PAGES;
                    match rng.next() % 10 {
                        // Logged write: bump the version stamp under X.
                        0..=3 => {
                            let lsn = append_update(&log, p);
                            let mut g = pool.fix_x(PageId(p)).unwrap();
                            assert_eq!(g.page_id(), PageId(p));
                            let v = g.owner() + 1;
                            g.set_owner(v);
                            g.record_update(lsn);
                            expected[p as usize].store(v, Ordering::Release);
                        }
                        // Read: the stamp must match the oracle. Both are
                        // sampled under the S latch (writers update the
                        // oracle before releasing X), so they can't skew.
                        4..=6 => {
                            let g = pool.fix_s(PageId(p)).unwrap();
                            assert_eq!(g.page_id(), PageId(p));
                            let want = expected[p as usize].load(Ordering::Acquire);
                            assert_eq!(
                                g.owner(),
                                want,
                                "page {p} lost a committed stamp (got {}, want {want})",
                                g.owner()
                            );
                        }
                        // Hold page p under S and fix neighbours around it to
                        // force eviction pressure: the held guard's pin must
                        // keep p's frame, and the guard must still show p at
                        // its current stamp. The neighbour fixes are
                        // conditional: a thread holding a latch waits for
                        // no other out of order.
                        7 => {
                            let held = pool.fix_s(PageId(p)).unwrap();
                            for j in 1..4u32 {
                                let q = 1 + (p + j * 31) % PAGES;
                                match pool.try_fix_s(PageId(q)) {
                                    Ok(g) => assert_eq!(g.page_id(), PageId(q)),
                                    Err(Error::WouldBlock) => {}
                                    Err(e) => panic!("fix of neighbour {q}: {e}"),
                                }
                            }
                            assert!(pool.is_cached(PageId(p)), "held page evicted");
                            assert_eq!(held.page_id(), PageId(p));
                            let want = expected[p as usize].load(Ordering::Acquire);
                            assert_eq!(held.owner(), want, "held page {p} changed under S");
                        }
                        // Explicit flush (foreground WAL-rule path).
                        8 => pool.flush_page(PageId(p)).unwrap(),
                        // Periodic table↔frame agreement audit: a
                        // double-installed page (two racing misses) shows
                        // up as an orphaned frame.
                        _ => {
                            if i % 64 == 0 {
                                pool.validate_mappings();
                            }
                        }
                    }
                }
            });
        }
    });

    // Oracle 1: pin balance, and page-table/frame agreement.
    assert_eq!(pool.total_pins(), 0, "leaked pins after the storm");
    pool.validate_mappings();

    // Flush, then verify every page — faulting evicted ones back in from
    // disk — against the oracle.
    pool.flush_all().unwrap();
    for p in 1..=PAGES {
        let g = pool.fix_s(PageId(p)).unwrap();
        let want = expected[p as usize].load(Ordering::Acquire);
        assert_eq!(g.owner(), want, "page {p} lost its last stamp after flush");
    }

    // Oracle 3: WAL rule on every write-back.
    let m = obs.monitor.snapshot();
    assert_eq!(m.wal_rule_violations, 0, "WAL rule violated: {m:?}");
    assert!(m.clean(), "{m:?}");
    assert!(
        stats.snapshot().since(&before).page_writes > 0,
        "storm produced no page write-backs — eviction pressure too low"
    );

    // Sanity of the partitioned layout itself: traffic spread over shards.
    assert!(pool.partitions() > 1, "stress must run partitioned");
    let resident = pool.shard_occupancy();
    assert!(
        resident.iter().all(|&pages| pages > 0),
        "every partition should have seen traffic: {resident:?}"
    );
}

/// Pins that threads take and drop on one frame stay balanced, and a page
/// one thread holds survives arbitrary eviction pressure from everyone
/// else: the main thread holds the hot page under S while four threads
/// fix the working set and, now and then, the hot page too (a concurrent
/// hit on a held frame).
#[test]
fn cross_thread_pin_balance() {
    let obs = Obs::enabled(1 << 10);
    let (_dir, pool, log, _) = build_pool(obs);
    populate(&pool, &log);

    let hot = pool.fix_s(PageId(7)).unwrap();
    std::thread::scope(|s| {
        for t in 0..4u32 {
            let pool = pool.clone();
            s.spawn(move || {
                for i in 0..200u32 {
                    let p = 1 + (i * 13 + t * 53) % PAGES;
                    let g = pool.fix_s(PageId(p)).unwrap();
                    assert_eq!(g.page_id(), PageId(p));
                    drop(g);
                    if i % 10 == 0 {
                        let hg = pool.fix_s(PageId(7)).unwrap();
                        assert_eq!(hg.page_id(), PageId(7));
                    }
                }
                assert!(pool.is_cached(PageId(7)), "a held page was evicted");
            });
        }
    });
    assert_eq!(pool.total_pins(), 1, "only the held guard's pin is left");
    drop(hot);
    assert_eq!(pool.total_pins(), 0);
    pool.validate_mappings();
}
