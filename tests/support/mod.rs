//! Shared fixtures for the cross-crate scenario tests: a bare-index stack
//! (log + pool + locks + transaction manager + one B+-tree) and helpers for
//! making keys. The figure-numbered tests in this directory reproduce the
//! paper's scenarios one-for-one; see EXPERIMENTS.md for the index.

use ariesim::btree::{BTree, IndexRm, LockProtocol};
use ariesim::common::stats::{new_stats, StatsHandle};
use ariesim::common::tmp::TempDir;
use ariesim::common::{IndexId, IndexKey, PageId, Rid};
use ariesim::lock::LockManager;
use ariesim::obs::{Obs, ObsHandle};
use ariesim::storage::{BufferPool, DiskManager, SpaceMap, SpaceRm};
use ariesim::txn::{RmRegistry, TransactionManager};
use ariesim::wal::{LogManager, LogOptions};
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
    pub rms: Arc<RmRegistry>,
    pub obs: ObsHandle,
}

pub fn fix(protocol: LockProtocol, unique: bool) -> Fix {
    fix_with_obs(protocol, unique, Obs::disabled())
}

#[allow(dead_code)]
pub fn fix_with_obs(protocol: LockProtocol, unique: bool, obs: ObsHandle) -> Fix {
    let dir = TempDir::new("scenario");
    let stats = new_stats();
    let log = Arc::new(
        LogManager::open_with_obs(
            &dir.file("wal"),
            LogOptions::default(),
            stats.clone(),
            obs.clone(),
        )
        .unwrap(),
    );
    let disk = DiskManager::open(&dir.file("db"), stats.clone()).unwrap();
    let pool = BufferPool::new_with_obs(
        disk,
        log.clone(),
        512,
        stats.clone(),
        obs.clone(),
    );
    SpaceMap::initialize(&pool).unwrap();
    let locks = Arc::new(LockManager::new_with_obs(stats.clone(), obs.clone()));
    let rms = Arc::new(RmRegistry::new());
    let index_rm = IndexRm::new(pool.clone(), stats.clone());
    rms.register(index_rm.clone());
    rms.register(Arc::new(SpaceRm::new(pool.clone())));
    let tm = Arc::new(TransactionManager::new(
        log.clone(),
        locks.clone(),
        pool.clone(),
        rms.clone(),
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
        rms,
        obs,
    }
}

#[allow(dead_code)]
pub fn data_only() -> Fix {
    fix(LockProtocol::DataOnly, false)
}

pub fn rid(n: u32) -> Rid {
    Rid::new(PageId(1_000_000 + n / 100), (n % 100) as u16)
}

pub fn key(v: impl AsRef<[u8]>, n: u32) -> IndexKey {
    IndexKey::new(v.as_ref().to_vec(), rid(n))
}

#[allow(dead_code)]
pub fn nkey(n: u32) -> IndexKey {
    key(format!("key-{n:08}"), n)
}
