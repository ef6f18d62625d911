//! `Core::open` is the one place an engine is put together: what it owes a
//! fresh directory, what it must leave alone on a reopen, and that two
//! engines share nothing.

use ariesim_common::page::PageType;
use ariesim_common::tmp::TempDir;
use ariesim_common::PageId;
use ariesim_obs::Obs;
use ariesim_storage::{SpaceMap, FIRST_USER_PAGE, SPACE_MAP_PAGE};
use ariesim_txn::Core;
use ariesim_wal::{LogOptions, RmId};
use std::sync::Arc;

fn open(dir: &TempDir) -> Arc<Core> {
    Core::open(dir.path(), 64, LogOptions::default(), Obs::disabled()).unwrap()
}

/// Allocate `n` pages in one committed transaction.
fn allocate(core: &Core, n: usize) -> Vec<PageId> {
    let space = SpaceMap::new(core.pool.clone());
    let txn = core.tm.begin();
    let pages = (0..n)
        .map(|_| txn.with_logger(&core.log, |l| space.allocate(l)).unwrap())
        .collect();
    core.tm.commit(&txn).unwrap();
    pages
}

#[test]
fn fresh_directory_gets_a_space_map_and_its_resource_manager() {
    let dir = TempDir::new("core-fresh");
    let core = open(&dir);
    let ty = core.pool.fix_s(SPACE_MAP_PAGE).unwrap().page_type().unwrap();
    assert_eq!(ty, PageType::SpaceMap);
    assert!(core.rms.get(RmId::Space).is_ok(), "SpaceRm not registered");
    assert!(core.rms.get(RmId::Heap).is_err(), "nothing else is");
    assert_eq!(allocate(&core, 1), vec![PageId(FIRST_USER_PAGE)]);
    // Every component reports to the core's one context.
    assert!(Arc::ptr_eq(&core.obs, core.pool.obs()));
    let s = core.stats.snapshot();
    assert!(s.page_fixes > 0 && s.log_records > 0 && s.log_forces > 0);
}

#[test]
fn reopen_keeps_the_space_map_and_the_log_end() {
    let dir = TempDir::new("core-reopen");
    let core = open(&dir);
    let pages = allocate(&core, 3);
    core.pool.flush_all().unwrap();
    core.log.flush_all().unwrap();
    let log_end = core.log.next_lsn();
    drop(core);

    let core = open(&dir);
    assert_eq!(core.log.next_lsn(), log_end);
    let space = SpaceMap::new(core.pool.clone());
    assert_eq!(space.allocated_pages().unwrap(), pages, "a reopen must not re-initialise");
    assert_eq!(allocate(&core, 1), vec![PageId(FIRST_USER_PAGE + 3)]);
}

#[test]
fn two_cores_share_nothing() {
    let (dir_a, dir_b) = (TempDir::new("core-a"), TempDir::new("core-b"));
    let (a, b) = (open(&dir_a), open(&dir_b));
    assert!(!Arc::ptr_eq(&a.stats, &b.stats));
    assert!(!Arc::ptr_eq(&a.log, &b.log));
    assert!(!Arc::ptr_eq(&a.locks, &b.locks));
    let before = b.stats.snapshot();
    allocate(&a, 2);
    let after = b.stats.snapshot();
    assert_eq!(after.log_records, before.log_records);
    assert_eq!(after.page_fixes, before.page_fixes);
    assert!(SpaceMap::new(b.pool.clone()).allocated_pages().unwrap().is_empty());
}
