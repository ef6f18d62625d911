//! Buffer-pool behaviour through the public API: fix/latch modes, eviction
//! under the WAL rule, the dirty page table, pins, partitioning, page-map
//! hits racing evictions, and the two fault-hook regressions for the
//! claim/install and failed-load-unwind races.

use ariesim_common::page::PageType;
use ariesim_common::stats::{new_stats, StatsHandle};
use ariesim_common::tmp::TempDir;
use ariesim_common::{Error, Lsn, PageId};
use ariesim_storage::{BufferPool, DiskManager};
use ariesim_wal::{LogManager, LogOptions};
use std::sync::atomic::Ordering;
use std::sync::Arc;

fn setup(frames: usize) -> (TempDir, Arc<BufferPool>, Arc<LogManager>) {
    let (dir, pool, log, _stats) = setup_with_stats(frames);
    (dir, pool, log)
}

fn setup_with_stats(frames: usize) -> (TempDir, Arc<BufferPool>, Arc<LogManager>, StatsHandle) {
    let dir = TempDir::new("pool");
    let stats = new_stats();
    let log = Arc::new(
        LogManager::open(&dir.file("wal"), LogOptions::default(), stats.clone()).unwrap(),
    );
    let disk = DiskManager::open(&dir.file("db"), stats.clone()).unwrap();
    let pool = BufferPool::new(disk, log.clone(), frames, stats.clone(), ariesim_obs::Obs::disabled());
    (dir, pool, log, stats)
}

fn format_page(pool: &Arc<BufferPool>, id: PageId) {
    let mut g = pool.fix_x(id).unwrap();
    g.format(id, PageType::Heap, 0, 0);
    g.record_update(Lsn(1));
}

#[test]
fn fix_miss_then_hit() {
    let (_d, pool, _log) = setup(8);
    format_page(&pool, PageId(1));
    assert!(pool.is_cached(PageId(1)));
    let g = pool.fix_s(PageId(1)).unwrap();
    assert_eq!(g.page_id(), PageId(1));
}

#[test]
fn two_shared_guards_coexist() {
    let (_d, pool, _log) = setup(8);
    format_page(&pool, PageId(1));
    let a = pool.fix_s(PageId(1)).unwrap();
    let b = pool.fix_s(PageId(1)).unwrap();
    assert_eq!(a.page_id(), b.page_id());
}

#[test]
fn conditional_x_fails_under_s() {
    let (_d, pool, _log) = setup(8);
    format_page(&pool, PageId(1));
    let _s = pool.fix_s(PageId(1)).unwrap();
    assert!(matches!(
        pool.try_fix_x(PageId(1)),
        Err(Error::WouldBlock)
    ));
    // And conditional S under X:
    drop(_s);
    let _x = pool.fix_x(PageId(1)).unwrap();
    assert!(matches!(
        pool.try_fix_s(PageId(1)),
        Err(Error::WouldBlock)
    ));
}

#[test]
fn eviction_writes_dirty_page_and_obeys_wal() {
    let (_d, pool, log) = setup(8);
    // Dirty page 1 with an unflushed log record's LSN.
    let fake_lsn = {
        use ariesim_common::TxnId;
        use ariesim_wal::{LogRecord, RmId};
        log.append(&LogRecord::update(
            TxnId(1),
            Lsn::NULL,
            RmId::Heap,
            PageId(1),
            vec![1],
        ))
    };
    {
        let mut g = pool.fix_x(PageId(1)).unwrap();
        g.format(PageId(1), PageType::Heap, 7, 0);
        g.record_update(fake_lsn);
    }
    assert_eq!(pool.dpt_snapshot().len(), 1);
    assert!(log.flushed_lsn() <= fake_lsn, "log not yet forced");
    // Evict by filling the pool.
    for i in 2..20u32 {
        format_page(&pool, PageId(i));
    }
    assert!(!pool.is_cached(PageId(1)), "page 1 should be evicted");
    // WAL rule: log now covers the page's LSN.
    assert!(log.flushed_lsn() > fake_lsn);
    // Content survived the round trip.
    let g = pool.fix_s(PageId(1)).unwrap();
    assert_eq!(g.owner(), 7);
    assert_eq!(g.page_lsn(), fake_lsn);
}

#[test]
fn pinned_pages_are_never_evicted() {
    let (_d, pool, _log) = setup(8);
    let guards: Vec<_> = (1..=8u32)
        .map(|i| {
            let mut g = pool.fix_x(PageId(i)).unwrap();
            g.format(PageId(i), PageType::Heap, 0, 0);
            g.record_update(Lsn(1));
            g
        })
        .collect();
    // All frames pinned: another fix must fail, not evict.
    assert!(matches!(pool.fix_s(PageId(99)), Err(Error::BufferPoolFull)));
    drop(guards);
    assert!(pool.fix_s(PageId(99)).is_ok());
}

#[test]
fn flush_page_clears_dirty_and_dpt() {
    let (_d, pool, _log) = setup(8);
    format_page(&pool, PageId(3));
    assert_eq!(pool.dpt_snapshot().len(), 1);
    pool.flush_page(PageId(3)).unwrap();
    assert!(pool.dpt_snapshot().is_empty());
    // Disk has the content.
    let mut img = ariesim_common::PageBuf::zeroed();
    pool.disk().read_page(PageId(3), &mut img).unwrap();
    assert_eq!(img.page_id(), PageId(3));
}

/// `flush_all`'s DPT snapshot can race an eviction: flushing a page that is
/// no longer resident (or never was) must not read it back from disk.
#[test]
fn flush_page_of_a_page_not_cached_reads_nothing() {
    let (_d, pool, _log, stats) = setup_with_stats(8);
    format_page(&pool, PageId(1));
    for i in 2..20u32 {
        format_page(&pool, PageId(i));
    }
    assert!(!pool.is_cached(PageId(1)), "page 1 should be evicted");
    let reads = stats.snapshot().page_reads;
    pool.flush_page(PageId(1)).unwrap();
    pool.flush_page(PageId(500)).unwrap();
    assert_eq!(stats.snapshot().page_reads, reads, "flush_page read a page");
    assert!(!pool.is_cached(PageId(1)) && !pool.is_cached(PageId(500)));
    pool.validate_mappings();
}

#[test]
fn dpt_rec_lsn_is_first_dirtying_lsn() {
    let (_d, pool, _log) = setup(8);
    {
        let mut g = pool.fix_x(PageId(4)).unwrap();
        g.format(PageId(4), PageType::Heap, 0, 0);
        g.record_update(Lsn(10));
        g.record_update(Lsn(20));
    }
    let dpt = pool.dpt_snapshot();
    assert_eq!(dpt.len(), 1);
    assert_eq!(dpt[0].rec_lsn, Lsn(10));
    // page_lsn advanced to the latest.
    let g = pool.fix_s(PageId(4)).unwrap();
    assert_eq!(g.page_lsn(), Lsn(20));
}

#[test]
fn downgrade_keeps_content_visible() {
    let (_d, pool, _log) = setup(8);
    let mut g = pool.fix_x(PageId(5)).unwrap();
    g.format(PageId(5), PageType::IndexLeaf, 2, 0);
    g.record_update(Lsn(2));
    let r = g.downgrade();
    assert_eq!(r.owner(), 2);
    // Another S guard can join while downgraded guard held.
    let r2 = pool.fix_s(PageId(5)).unwrap();
    assert_eq!(r2.owner(), 2);
    drop(r2);
    drop(r);
    assert_eq!(pool.total_pins(), 0, "downgrade must not leak pins");
}

#[test]
fn flush_all_empties_dpt() {
    let (_d, pool, _log) = setup(16);
    for i in 1..6u32 {
        format_page(&pool, PageId(i));
    }
    assert_eq!(pool.dpt_snapshot().len(), 5);
    pool.flush_all().unwrap();
    assert!(pool.dpt_snapshot().is_empty());
}

#[test]
fn concurrent_fixes_stress() {
    let (_d, pool, _log) = setup(16);
    for i in 1..=32u32 {
        format_page(&pool, PageId(i));
    }
    pool.flush_all().unwrap();
    std::thread::scope(|s| {
        for t in 0..8 {
            let pool = pool.clone();
            s.spawn(move || {
                for i in 0..200u32 {
                    let id = PageId(1 + (i * 7 + t) % 32);
                    if i % 3 == 0 {
                        let mut g = pool.fix_x(id).unwrap();
                        let lsn = Lsn(g.page_lsn().0 + 1);
                        g.record_update(lsn);
                    } else {
                        let g = pool.fix_s(id).unwrap();
                        assert_eq!(g.page_id(), id);
                    }
                }
            });
        }
    });
    // All pins released.
    assert_eq!(pool.total_pins(), 0);
    assert!(pool.fix_s(PageId(1)).is_ok());
}

/// Page-map hits, which take no shard mutex, race a stream of evictions
/// on a one-shard pool: every guard must show the page it was fixed for,
/// with that page's own contents. A hit that pinned a frame an eviction
/// then took fails its owner check and `fix_s` retries, invisibly. The
/// race shows in release.
#[test]
fn hits_racing_evictions_see_only_their_page() {
    const HOT: u32 = 4;
    const PAGES: u32 = 24;
    let (_d, pool, _log) = setup(8);
    for i in 1..=PAGES {
        let mut g = pool.fix_x(PageId(i)).unwrap();
        g.format(PageId(i), PageType::Heap, 1000 + i, 0);
        g.record_update(Lsn(1));
    }
    pool.flush_all().unwrap();
    std::thread::scope(|s| {
        for t in 0..4u32 {
            let pool = pool.clone();
            s.spawn(move || {
                for i in 0..50_000u32 {
                    // Two threads keep re-fixing the hot pages; two sweep
                    // the cold ones, evicting hot frames between hits.
                    let id = if t < 2 {
                        PageId(1 + (i + t) % HOT)
                    } else {
                        PageId(HOT + 1 + (i * 7 + t) % (PAGES - HOT))
                    };
                    let g = pool.fix_s(id).unwrap();
                    assert_eq!(g.page_id(), id, "guard shows another page");
                    assert_eq!(g.owner(), 1000 + id.0, "guard shows another page's image");
                }
            });
        }
    });
    assert_eq!(pool.total_pins(), 0);
    pool.validate_mappings();
}

#[test]
fn partitions_spread_pages_and_auto_clamp() {
    let (_d, pool, _log) = setup(8);
    assert_eq!(pool.partitions(), 1, "tiny pool collapses to 1 shard");
    let (_d2, pool2, _log2) = setup(256);
    assert_eq!(pool2.partitions(), 8);
    for i in 1..=64u32 {
        format_page(&pool2, PageId(i));
    }
    let resident = pool2.shard_occupancy();
    let used = resident.iter().filter(|&&pages| pages > 0).count();
    assert!(used >= 4, "pages should land in several partitions: {resident:?}");
    // Per-shard occupancy sums to the 64 loaded pages.
    assert_eq!(resident.iter().sum::<usize>(), 64);
}

#[test]
fn pin_guard_keeps_page_resident_and_relatches() {
    let (_d, pool, _log) = setup(8);
    format_page(&pool, PageId(1));
    let pin = pool.pin(PageId(1)).unwrap();
    // Hammer the pool so an unpinned page 1 would be evicted.
    for i in 2..=30u32 {
        format_page(&pool, PageId(i));
    }
    assert!(pool.is_cached(PageId(1)), "pin must prevent eviction");
    {
        let g = pin.latch_s().unwrap();
        assert_eq!(g.page_id(), PageId(1));
    }
    {
        let mut g = pin.latch_x().unwrap();
        g.record_update(Lsn(9));
    }
    assert_eq!(pool.dpt_snapshot().len(), pool.dpt_snapshot().len());
    drop(pin);
    assert_eq!(pool.total_pins(), 0);
}

#[test]
fn repin_from_guard_is_lock_free_and_balanced() {
    let (_d, pool, _log) = setup(8);
    format_page(&pool, PageId(2));
    let pin = {
        let g = pool.fix_s(PageId(2)).unwrap();
        g.repin()
    };
    assert_eq!(pool.total_pins(), 1);
    let g2 = pin.try_latch_s().unwrap();
    assert_eq!(g2.page_id(), PageId(2));
    drop(g2);
    drop(pin);
    assert_eq!(pool.total_pins(), 0);
}

/// Two concurrent misses on the same page must resolve to a single
/// frame: the loser of the install race aborts its eviction and retries
/// as a hit. The interleaving is forced deterministically — a write
/// hook holds thread A open inside its victim write-back (the
/// drop-mutex/relock window) while thread B misses on the same page,
/// picks a different victim (A's is latched), and installs first. A's
/// re-locked install must then notice B's mapping and back off;
/// a second insert would orphan B's frame and split readers across two
/// divergent images, which `validate_mappings` reports.
#[test]
fn concurrent_misses_on_same_page_install_one_frame() {
    use std::sync::mpsc;

    let (_d, pool, _log) = setup(8);
    const N: u32 = 24;
    for i in 1..=N {
        format_page(&pool, PageId(i)); // every page stays dirty
    }
    let target = PageId(1);
    assert!(!pool.is_cached(target), "target must start evicted");

    // Hook: the FIRST write-back (thread A's victim) announces itself
    // and blocks until released; everything after passes through.
    let (entered_tx, entered_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let release_rx = std::sync::Mutex::new(release_rx);
    let armed = std::sync::atomic::AtomicBool::new(true);
    pool.disk().set_write_hook(Some(Arc::new(move |_id: PageId| {
        if armed.swap(false, Ordering::AcqRel) {
            entered_tx.send(()).unwrap();
            release_rx.lock().unwrap().recv().unwrap();
        }
        Ok(())
    })));

    std::thread::scope(|s| {
        let a = {
            let pool = pool.clone();
            s.spawn(move || pool.fix_s(target).map(|g| g.page_id()))
        };
        // A is now parked inside its victim's write-back, its victim
        // latched, the target not yet in the page table.
        entered_rx.recv().unwrap();
        let b = {
            let pool = pool.clone();
            s.spawn(move || pool.fix_s(target).map(|g| g.page_id()))
        };
        // B misses too, takes a different victim, and installs the
        // target while A is still blocked.
        assert_eq!(b.join().unwrap().unwrap(), target);
        // Released, A must abandon its own install and resolve to B's
        // frame via the hit path.
        release_tx.send(()).unwrap();
        assert_eq!(a.join().unwrap().unwrap(), target);
    });

    pool.disk().set_write_hook(None);
    assert_eq!(pool.total_pins(), 0);
    pool.validate_mappings();
}

/// A pin taken through the short-lived mapping of an in-flight load
/// whose read then fails must not silently observe a recycled frame:
/// the unwind clears the frame's owner word, latching through the stale
/// pin reports `StalePin`, and re-fixing through the pool retries the
/// read.
#[test]
fn failed_load_unwind_invalidates_concurrent_pins() {
    use std::sync::mpsc;

    let (_d, pool, _log) = setup(8);
    format_page(&pool, PageId(1));
    pool.flush_all().unwrap();
    // Push page 1 out so the next fix is a miss.
    for i in 2..=30u32 {
        format_page(&pool, PageId(i));
    }
    assert!(!pool.is_cached(PageId(1)), "page 1 must start evicted");

    // Hook: announce entry into the read, hold the load open until
    // released, then fail it.
    let (entered_tx, entered_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let release_rx = std::sync::Mutex::new(release_rx);
    pool.disk().set_read_hook(Some(Arc::new(move |id: PageId| {
        if id == PageId(1) {
            entered_tx.send(()).unwrap();
            release_rx.lock().unwrap().recv().unwrap();
            return Err(Error::Io(std::io::Error::other("injected read fault")));
        }
        Ok(())
    })));

    let mut stale_pin = None;
    std::thread::scope(|s| {
        let loader = s.spawn(|| pool.fix_s(PageId(1)).is_err());
        // The loader has installed the mapping and is inside the read;
        // pin the page through that mapping (pins don't latch, so this
        // does not wait out the load).
        entered_rx.recv().unwrap();
        let pin = pool.pin(PageId(1)).unwrap();
        release_tx.send(()).unwrap();
        assert!(loader.join().unwrap(), "injected fault surfaces");
        stale_pin = Some(pin);
    });
    let pin = stale_pin.unwrap();

    // The unwind freed the frame out from under the pin: latching must
    // fail loudly rather than hand back whatever the frame holds now.
    assert!(matches!(pin.latch_s(), Err(Error::StalePin { page }) if page == PageId(1)));
    assert!(matches!(pin.try_latch_x(), Err(Error::StalePin { page }) if page == PageId(1)));

    // Re-fixing through the pool retries the read and succeeds once the
    // fault is cleared.
    pool.disk().set_read_hook(None);
    let g = pool.fix_s(PageId(1)).unwrap();
    assert_eq!(g.page_id(), PageId(1));
    drop(g);
    drop(pin);
    assert_eq!(pool.total_pins(), 0);
    pool.validate_mappings();
}
