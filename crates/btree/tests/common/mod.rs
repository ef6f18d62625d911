//! Shared fixture: a full engine stack (log, pool, locks, transaction
//! manager, resource managers) plus one B+-tree.

use ariesim_btree::{BTree, IndexRm, LockProtocol};
use ariesim_common::stats::{new_stats, StatsHandle};
use ariesim_common::tmp::TempDir;
use ariesim_common::{IndexId, IndexKey, PageId, Rid};
use ariesim_lock::LockManager;
use ariesim_storage::{BufferPool, DiskManager, SpaceMap, SpaceRm};
use ariesim_txn::{RmRegistry, TransactionManager};
use ariesim_wal::{LogManager, LogOptions};
use std::sync::Arc;

#[allow(dead_code)]
pub struct Fix {
    pub _dir: TempDir,
    pub stats: StatsHandle,
    pub log: Arc<LogManager>,
    pub pool: Arc<BufferPool>,
    pub locks: Arc<LockManager>,
    pub tm: Arc<TransactionManager>,
    pub tree: Arc<BTree>,
    pub index_rm: Arc<IndexRm>,
}

pub fn fix_with(unique: bool, protocol: LockProtocol, frames: usize) -> Fix {
    let dir = TempDir::new("btree-it");
    let stats = new_stats();
    let log = Arc::new(
        LogManager::open(&dir.file("wal"), LogOptions::default(), stats.clone()).unwrap(),
    );
    let disk = DiskManager::open(&dir.file("db"), stats.clone()).unwrap();
    let pool = BufferPool::new(disk, log.clone(), frames, stats.clone());
    SpaceMap::initialize(&pool).unwrap();
    let locks = Arc::new(LockManager::new(stats.clone()));
    let rms = Arc::new(RmRegistry::new());
    let index_rm = IndexRm::new(pool.clone(), stats.clone());
    rms.register(index_rm.clone());
    rms.register(Arc::new(SpaceRm::new(pool.clone())));
    let tm = Arc::new(TransactionManager::new(
        log.clone(),
        locks.clone(),
        pool.clone(),
        rms,
        stats.clone(),
    ));
    let txn = tm.begin();
    let root = BTree::create(&txn, IndexId(1), &pool, &log).unwrap();
    tm.commit(&txn).unwrap();
    let tree = BTree::new(
        IndexId(1),
        root,
        unique,
        protocol,
        pool.clone(),
        locks.clone(),
        log.clone(),
        stats.clone(),
    );
    index_rm.register_tree(tree.clone());
    Fix {
        _dir: dir,
        stats,
        log,
        pool,
        locks,
        tm,
        tree,
        index_rm,
    }
}

#[allow(dead_code)]
pub fn fix() -> Fix {
    fix_with(false, LockProtocol::DataOnly, 256)
}

/// Deterministic fake RID for test keys (no record manager in these tests;
/// data-only locking just needs distinct names).
pub fn rid(n: u32) -> Rid {
    Rid::new(PageId(1_000_000 + n / 100), (n % 100) as u16)
}

pub fn key(v: impl AsRef<[u8]>, n: u32) -> IndexKey {
    IndexKey::new(v.as_ref().to_vec(), rid(n))
}

/// Zero-padded sortable numeric key.
pub fn nkey(n: u32) -> IndexKey {
    key(format!("key-{n:08}"), n)
}
