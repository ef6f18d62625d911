//! The engine core: the components every assembly shares, put together once.
//!
//! The paper describes one system — log manager, buffer manager, lock
//! manager, transaction manager and the resource managers that interpret
//! log records — sharing one log and one set of §1 efficiency counters. A
//! [`Core`] is exactly that, and [`Core::open`] is the only place it is
//! built: a database (`ariesim-db`), a log-shipping standby, a bare-index
//! test rig and a crash-reopen are all "a core, plus what is particular to
//! them". It lives in this crate because this is the lowest one that sees
//! log, pool, locks and the resource-manager registry.

use crate::{RmRegistry, TransactionManager};
use ariesim_common::stats::{new_stats, StatsHandle};
use ariesim_common::Result;
use ariesim_lock::LockManager;
use ariesim_obs::ObsHandle;
use ariesim_storage::{BufferPool, DiskManager, SpaceMap, SpaceRm};
use ariesim_wal::{LogManager, LogOptions};
use std::path::Path;
use std::sync::Arc;

/// One engine's shared components. Every one of them counts into the same
/// `stats` and reports to the same `obs`.
pub struct Core {
    pub stats: StatsHandle,
    pub obs: ObsHandle,
    pub log: Arc<LogManager>,
    pub pool: Arc<BufferPool>,
    pub locks: Arc<LockManager>,
    pub rms: Arc<RmRegistry>,
    pub tm: Arc<TransactionManager>,
}

impl Core {
    /// Open the engine stored in `dir` (log in `dir/wal`, pages in
    /// `dir/pages`), creating it if the directory or the page file is
    /// empty: a fresh database gets its space map formatted and
    /// force-written (allocation is logged from then on, the format itself
    /// is not — DESIGN.md §4). The space-map resource manager is registered;
    /// heap and index managers register themselves when built over the core.
    ///
    /// Nothing is recovered here: reopening a crashed directory is
    /// `Core::open`, then the resource managers, then
    /// `ariesim_recovery::restart`.
    pub fn open(
        dir: &Path,
        frames: usize,
        log_opts: LogOptions,
        obs: ObsHandle,
    ) -> Result<Arc<Core>> {
        std::fs::create_dir_all(dir)?;
        let stats = new_stats();
        let log = Arc::new(LogManager::open_with_obs(
            &dir.join("wal"),
            log_opts,
            stats.clone(),
            obs.clone(),
        )?);
        let disk = DiskManager::open(&dir.join("pages"), stats.clone())?;
        let fresh = disk.page_count()? == 0;
        let pool = BufferPool::new(disk, log.clone(), frames, stats.clone(), obs.clone());
        if fresh {
            SpaceMap::initialize(&pool)?;
            pool.flush_all()?;
        }
        let locks = Arc::new(LockManager::new(stats.clone(), obs.clone()));
        let rms = Arc::new(RmRegistry::new());
        rms.register(Arc::new(SpaceRm::new(pool.clone())));
        let tm = Arc::new(TransactionManager::new(
            log.clone(),
            locks.clone(),
            pool.clone(),
            rms.clone(),
        ));
        Ok(Arc::new(Core {
            stats,
            obs,
            log,
            pool,
            locks,
            rms,
            tm,
        }))
    }
}
