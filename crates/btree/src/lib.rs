//! ARIES/IM B+-tree index manager — the paper's primary contribution.
//!
//! Implements the concurrency-control and recovery protocol of
//! *ARIES/IM: An Efficient and High Concurrency Index Management Method
//! Using Write-Ahead Logging* (Mohan & Levine, SIGMOD 1992):
//!
//! * **Tree architecture** (§1.1): leaf keys are (key-value, RID) pairs;
//!   leaves are forward/backward chained; a nonleaf holds child pointers and
//!   one fewer *high keys* — none for its rightmost child ([`node`]).
//! * **Traversal** (Figure 4): latch coupling, at most two page latches, the
//!   SM_Bit ambiguity test, instant tree-latch waits ([`traverse`]).
//! * **Fetch / Fetch Next** (§2.2–2.3, Figure 5): conditional key lock under
//!   latches, LSN-revalidation after an unconditional wait, next-key locking
//!   of the not-found case, the per-index EOF lock ([`fetch`]).
//! * **Insert** (§2.4, Figure 6): instant-duration X next-key lock, unique
//!   violation detection via a commit-duration S lock, Delete_Bit / SM_Bit
//!   POSC establishment ([`insert`]).
//! * **Delete** (§2.5, Figure 7): commit-duration X next-key lock, Delete_Bit
//!   setting, tree-latch protection of boundary-key deletes ([`delete`]).
//! * **SMOs** (Figures 8–10): page splits and page deletions as nested top
//!   actions, serialized by the X tree latch, propagated bottom-up with
//!   SM_Bits set, finished with a dummy CLR; the key insert that caused a
//!   split happens after the SMO, the key delete that caused a page deletion
//!   happens before it ([`smo`]).
//! * **Recovery** (§3): page-oriented redo always; page-oriented undo when
//!   possible and logical undo (retraversal) otherwise, with SMOs during
//!   undo logged as regular records ([`rmimpl`]).
//!
//! Locking is pluggable per the paper's §2.1: [`LockProtocol::DataOnly`]
//! (lock the record the key's RID names) or [`LockProtocol::IndexSpecific`]
//! (lock the individual key). The ARIES/KVL baseline lives in `ariesim-kvl`.

pub mod apply;
pub mod body;
pub mod check;
pub mod delete;
pub mod fetch;
pub mod insert;
pub mod node;
pub mod rmimpl;
pub mod smo;
pub mod traverse;

use ariesim_common::stats::StatsHandle;
use ariesim_common::{IndexId, PageId, Result};
use ariesim_lock::{LockManager, LockName};
use ariesim_obs::ObsHandle;
use ariesim_storage::{BufferPool, SpaceMap};
use ariesim_txn::TxnHandle;
use ariesim_wal::LogManager;
use parking_lot::RwLock;
use std::sync::Arc;

pub use fetch::{Cursor, FetchResult};
pub use rmimpl::IndexRm;
pub use traverse::{TreeSGuard, TreeXGuard};

/// Which names the index manager locks (paper §2.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LockProtocol {
    /// Data-only locking: a key's lock is the lock on the record its RID
    /// names. The index never locks its own structures; single-record
    /// operations need no extra index locks.
    DataOnly,
    /// Index-specific locking: lock the individual key (value + RID) in this
    /// index. Slightly more concurrency than data-only (the paper's remark),
    /// at the cost of extra locks per operation.
    IndexSpecific,
    /// ARIES/KVL key-value locking \[Moha90a\] — the baseline the paper
    /// improves on: locks cover whole key *values*, so every duplicate of a
    /// value shares one lock, and the mode/duration table differs (IX commit
    /// current-value locks on inserts, X commit next-value locks only when
    /// deleting the last instance of a value). Implemented here so both
    /// protocols share one tree; `ariesim-kvl` documents and tests it.
    KeyValue,
}

/// One B+-tree index.
///
/// The root page id is fixed for the index's lifetime (root splits grow the
/// tree *in place* by moving the root's contents down), so no root pointer
/// is ever updated or logged.
pub struct BTree {
    pub index_id: IndexId,
    pub root: PageId,
    /// Reject duplicate key *values* (paper §2.4 unique-index rules).
    pub unique: bool,
    pub protocol: LockProtocol,
    /// Data-only locking at *page* granularity (§2.1: "or the data page ID
    /// which is part of the record ID, if the locking granularity is a
    /// page"): key locks name the key's data page instead of its record.
    pub page_granularity: bool,
    pub(crate) pool: Arc<BufferPool>,
    pub(crate) locks: Arc<LockManager>,
    pub(crate) log: Arc<LogManager>,
    pub(crate) space: SpaceMap,
    /// THE tree latch (§2.1): X serializes SMOs; S waits for them; instant S
    /// establishes a point of structural consistency (POSC).
    pub(crate) tree_latch: RwLock<()>,
    pub(crate) stats: StatsHandle,
    /// Shared with the buffer pool's handle, so one `--obs` switch at rig
    /// construction covers latches, locks, I/O, and index operations alike.
    pub(crate) obs: ObsHandle,
}

impl BTree {
    /// Open a handle onto an existing index rooted at `root`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        index_id: IndexId,
        root: PageId,
        unique: bool,
        protocol: LockProtocol,
        pool: Arc<BufferPool>,
        locks: Arc<LockManager>,
        log: Arc<LogManager>,
        stats: StatsHandle,
    ) -> Arc<BTree> {
        Self::new_with_granularity(
            index_id, root, unique, protocol, false, pool, locks, log, stats,
        )
    }

    /// [`BTree::new`] with explicit data-lock granularity (record or page).
    #[allow(clippy::too_many_arguments)]
    pub fn new_with_granularity(
        index_id: IndexId,
        root: PageId,
        unique: bool,
        protocol: LockProtocol,
        page_granularity: bool,
        pool: Arc<BufferPool>,
        locks: Arc<LockManager>,
        log: Arc<LogManager>,
        stats: StatsHandle,
    ) -> Arc<BTree> {
        let obs = pool.obs().clone();
        Arc::new(BTree {
            index_id,
            root,
            unique,
            protocol,
            page_granularity,
            space: SpaceMap::new(pool.clone()),
            pool,
            locks,
            log,
            tree_latch: RwLock::new(()),
            stats,
            obs,
        })
    }

    /// Create a new empty index inside `txn`: allocates and formats the root
    /// as an empty leaf. Returns the root page id.
    pub fn create(
        txn: &TxnHandle,
        index_id: IndexId,
        pool: &Arc<BufferPool>,
        log: &Arc<LogManager>,
    ) -> Result<PageId> {
        use ariesim_common::page::PageType;
        use ariesim_wal::RmId;
        let space = SpaceMap::new(pool.clone());
        txn.with_logger(log, |logger| {
            let root = space.allocate(logger)?;
            let mut g = pool.fix_x(root)?; // latch-rank: 2
            g.format(root, PageType::IndexLeaf, index_id.0, 0);
            let lsn = logger.update(
                RmId::Index,
                root,
                body::IndexBody::PageFormat {
                    index: index_id,
                    level: 0,
                    cells: Vec::new(),
                    prev: PageId::NULL,
                    next: PageId::NULL,
                    sm_bit: false,
                }
                .encode(),
            );
            g.record_update(lsn);
            Ok(root)
        })
    }

    /// Lock name covering `key` under this index's protocol (§2.1).
    pub(crate) fn key_lock(&self, key: &ariesim_common::IndexKey) -> LockName {
        match self.protocol {
            LockProtocol::DataOnly => LockName::for_data(key.rid, self.page_granularity),
            LockProtocol::IndexSpecific => LockName::KeyValue(self.index_id, key.encode()),
            // KVL locks the key *value*: all duplicates share the name.
            LockProtocol::KeyValue => LockName::KeyValue(self.index_id, key.value.clone()),
        }
    }

    /// The per-index EOF lock name (§2.2: used when no next key exists).
    pub(crate) fn eof_lock(&self) -> LockName {
        LockName::Eof(self.index_id)
    }
}

/// Largest permitted key value, in bytes. Bounds split fan-out (a full page
/// always holds at least four keys) so the paper's guarantee that a split
/// leaves at least one key on the original page always holds.
pub const MAX_KEY_VALUE_LEN: usize = 1024;

impl BTree {
    /// Test/experiment hook: acquire the X tree latch, simulating an SMO in
    /// progress (used by the Figure 3 scenario and the SMO ablation bench).
    pub fn hold_tree_latch_x(&self) -> TreeXGuard<'_> {
        ariesim_obs::lockdep::acquired(
            ariesim_obs::lockdep::Class::TreeLatch,
            "btree::hold_tree_latch_x",
            true,
        );
        TreeXGuard(self.tree_latch.write())
    }

    /// Test/experiment hook: set or clear the SM_Bit / Delete_Bit on a page,
    /// manufacturing the warning state a partially completed SMO leaves
    /// behind (Figures 3 and 11).
    pub fn set_page_bits_for_test(
        &self,
        page: ariesim_common::PageId,
        sm_bit: Option<bool>,
        delete_bit: Option<bool>,
    ) -> Result<()> {
        let mut g = self.pool.fix_x(page)?; // latch-rank: 2
        if let Some(v) = sm_bit {
            g.set_sm_bit(v);
        }
        if let Some(v) = delete_bit {
            g.set_delete_bit(v);
        }
        let lsn = g.page_lsn();
        g.mark_dirty_raw(lsn);
        Ok(())
    }

    /// The leaf page currently covering `value` (test/experiment helper).
    pub fn leaf_for_value(&self, value: &[u8]) -> Result<PageId> {
        let leaf = self.traverse(&ariesim_common::key::SearchKey::value_only(value), false, false)?;
        Ok(leaf.page_id())
    }
}
