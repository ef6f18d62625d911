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
//! * Insert and delete run one **leaf step** ([`step`]) with Figure 2's
//!   table; all four operations share its next-key lookup, §2.2's
//!   conditional request, the unconditional wait and the page_LSN relatch,
//!   each written once.
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
//! (lock the individual key); [`LockProtocol::KeyValue`] is the ARIES/KVL baseline.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod apply;
pub mod body;
pub mod check;
pub mod delete;
pub mod fetch;
pub mod insert;
pub mod node;
pub mod rmimpl;
pub mod smo;
pub mod step;
pub mod traverse;

use ariesim_common::stats::StatsHandle;
use ariesim_common::{IndexId, PageId, Result};
use ariesim_lock::{LockManager, LockName};
use ariesim_obs::ObsHandle;
use ariesim_storage::{BufferPool, SpaceMap};
use ariesim_txn::{Core, TxnHandle};
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
    /// improves on, run on the identical tree so only locking differs. KVL
    /// locks whole key **values**: every duplicate of a value in a nonunique
    /// index shares one lock name, so a transaction touching any instance
    /// of a value blocks every other transaction touching *any* instance.
    /// The paper's critique (§1):
    ///
    /// > "even in ARIES/KVL locks are acquired on key values, rather than on
    /// > individual keys. The latter makes a significant difference in the
    /// > case of nonunique indexes. Furthermore, the number of locks acquired
    /// > for even single record operations like record insert or delete is
    /// > very high."
    ///
    /// The mode/duration table implemented (`tests/kvl_protocol.rs` pins
    /// every row):
    ///
    /// | operation              | current key value      | next key value      |
    /// |------------------------|------------------------|---------------------|
    /// | fetch / fetch next     | S commit               | S commit (not found)|
    /// | insert, value exists   | IX commit              | —                   |
    /// | insert, new value      | IX commit              | X instant           |
    /// | delete, duplicates left| X commit               | —                   |
    /// | delete, last instance  | X commit               | X commit            |
    ///
    /// Because the index takes its own value locks *in addition to* the
    /// record manager's RID locks, single-record operations cost more lock
    /// calls than data-only locking — experiment E8 measures exactly this,
    /// and E9 the lost concurrency on duplicate-heavy workloads.
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
    pub(crate) obs: ObsHandle,
}

impl BTree {
    /// Open a handle onto the existing index rooted at `root` in `core`'s
    /// engine. `page_granularity` selects the data-lock granule (record or
    /// page, §2.1). Register the handle with the engine's [`IndexRm`] so its
    /// records can be logically undone.
    pub fn open(
        core: &Core,
        index_id: IndexId,
        root: PageId,
        unique: bool,
        protocol: LockProtocol,
        page_granularity: bool,
    ) -> Arc<BTree> {
        Arc::new(BTree {
            index_id,
            root,
            unique,
            protocol,
            page_granularity,
            space: SpaceMap::new(core.pool.clone()),
            pool: core.pool.clone(),
            locks: core.locks.clone(),
            log: core.log.clone(),
            tree_latch: RwLock::new(()),
            stats: core.stats.clone(),
            obs: core.obs.clone(),
        })
    }

    /// Create a new empty index inside `txn`: allocates and formats the root
    /// as an empty leaf. Returns the root page id.
    pub fn create(core: &Core, txn: &TxnHandle, index_id: IndexId) -> Result<PageId> {
        let space = SpaceMap::new(core.pool.clone());
        txn.with_logger(&core.log, |logger| {
            let root = space.allocate(logger)?;
            let body = body::IndexBody::PageFormat {
                index: index_id,
                level: 0,
                cells: Vec::new(),
                prev: PageId::NULL,
                next: PageId::NULL,
                sm_bit: false,
            };
            apply::apply_logged(logger, &mut core.pool.fix_x(root)?, root, &body)?;
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
        self.tree_x()
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
        let mut g = self.pool.fix_x(page)?;
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
