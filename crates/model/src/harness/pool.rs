//! Buffer-pool harnesses: the claim/install/unwind protocol under the model.
//!
//! All three use an 8-frame pool (the smallest the pool allows; that few
//! frames collapse to one shard, which keeps every thread contending on
//! the same page table — the regime the protocols were written for). Pages
//! are seeded directly through the `DiskManager` on the body thread so the
//! virtual threads start from cold frames.
//!
//! The oracles are the pool's own: `validate_mappings()` (table ↔ meta ↔
//! owner-word agreement, no orphaned frames), `total_pins() == 0` after all
//! guards drop, and each guard asserting it shows the page it was fixed
//! for. The toy twins of `fix_race` and `failed_load_unwind`
//! ([`super::toy`]) leave out the re-check each protocol depends on and
//! expect the explorer to trip the same kind of oracle.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ariesim_common::stats::new_stats;
use ariesim_common::tmp::TempDir;
use ariesim_common::{Error, PageBuf, PageId, PageType};
use ariesim_obs::Obs;
use ariesim_storage::{BufferPool, DiskManager};
use ariesim_wal::{LogManager, LogOptions};

use crate::runtime::Env;

/// Fresh 8-frame single-shard pool with pages `1..=pages` seeded on disk.
fn setup(pages: u32) -> (TempDir, Arc<BufferPool>) {
    let dir = TempDir::new("model-pool");
    let stats = new_stats();
    let log = Arc::new(
        LogManager::open(&dir.file("wal"), LogOptions::default(), stats.clone())
            .expect("open log"),
    );
    let disk = DiskManager::open(&dir.file("db"), stats.clone()).expect("open disk");
    for p in 1..=pages {
        let mut img = PageBuf::zeroed();
        img.format(PageId(p), PageType::Heap, 0, 0);
        disk.write_page(&img).expect("seed page");
    }
    let pool = BufferPool::new(disk, log, 8, stats, Obs::disabled());
    (dir, pool)
}

/// Two racing misses on the same page. The install path must notice a
/// winner's mapping on re-lock and back off to the hit path; the historical
/// double-install race (re-checking only the victim's pins) lets both
/// threads install the page into two different frames, which
/// `validate_mappings` reports as an orphaned frame.
pub fn fix_race(env: &mut Env) {
    let (_dir, pool) = setup(1);
    for _ in 0..2 {
        let pool = pool.clone();
        env.spawn(move || {
            let g = pool.fix_s(PageId(1)).expect("fix_s");
            assert_eq!(g.page_id(), PageId(1), "guard shows the wrong page");
        });
    }
    env.join();
    pool.validate_mappings();
    assert_eq!(pool.total_pins(), 0, "pin leaked");
}

/// A held pin must keep its frame across a concurrent eviction: the pool is
/// filled, one thread pins page 1 (clones the pin, drops the original —
/// the refcount, not the guard object, is what protects the frame) and
/// latches through the clone, while another thread fixes a ninth page and
/// forces an eviction. The victim scan must skip the pinned frame.
pub fn pin_vs_evict(env: &mut Env) {
    let (_dir, pool) = setup(9);
    for p in 1..=8 {
        pool.fix_s(PageId(p)).expect("warm pool");
    }
    {
        let pool = pool.clone();
        env.spawn(move || {
            let pin = pool.pin(PageId(1)).expect("pin");
            let pin2 = pin.clone();
            drop(pin);
            let g = pin2.latch_s().expect("latch through a live pin");
            assert_eq!(g.page_id(), PageId(1), "pinned frame was evicted");
        });
    }
    {
        let pool = pool.clone();
        env.spawn(move || {
            let g = pool.fix_s(PageId(9)).expect("eviction with 7 free frames");
            assert_eq!(g.page_id(), PageId(9), "guard shows the wrong page");
        });
    }
    env.join();
    pool.validate_mappings();
    assert_eq!(pool.total_pins(), 0, "pin leaked");
}

/// The first read of page 1 fails, so the loser of the install race unwinds
/// the mapping while the other thread may already hold a pin on the frame.
/// Latch acquisition's owner re-check must turn that pin into
/// `Error::StalePin` (and `fix_s` then retries cleanly); the historical bug
/// skipped the re-check and handed out a latch on a frame holding garbage.
pub fn failed_load_unwind(env: &mut Env) {
    let (_dir, pool) = setup(1);
    let tripped = Arc::new(AtomicBool::new(false));
    let t = tripped.clone();
    pool.disk().set_read_hook(Some(Arc::new(move |pid| {
        // ordering: one-shot trip flag read and written on the faulting
        // path only; no data is published through it.
        if pid == PageId(1) && !t.swap(true, Ordering::Relaxed) {
            Err(Error::Io(std::io::Error::other("injected read fault")))
        } else {
            Ok(())
        }
    })));
    for _ in 0..2 {
        let pool = pool.clone();
        env.spawn(move || match pool.fix_s(PageId(1)) {
            Ok(g) => assert_eq!(
                g.page_id(),
                PageId(1),
                "stale pin survived the owner re-check"
            ),
            // Whichever thread drew the injected fault propagates it.
            Err(Error::Io(_)) => {}
            Err(e) => panic!("unexpected error: {e}"),
        });
    }
    env.join();
    pool.disk().set_read_hook(None);
    pool.validate_mappings();
    assert_eq!(pool.total_pins(), 0, "pin leaked");
}
