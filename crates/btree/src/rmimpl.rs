//! The index resource manager: redo and undo of index log records (§3).
//!
//! **Redo** is always page-oriented: decode the body, apply it to the
//! envelope's page with the same function forward processing used. The
//! recovery driver has already established `page_lsn < rec.lsn`.
//!
//! **Undo** distinguishes:
//!
//! * `InsertKey` / `DeleteKey` — first try **page-oriented** undo: fix the
//!   logged page and check "whether that is the right page to perform the
//!   undo on, given the current state of that page". The paper's four
//!   conditions force a **logical undo** (a retraversal from the root, under
//!   the tree latch) when: (1) a key-delete undo doesn't fit (space was
//!   consumed — a split SMO is needed); (2) the key moved / the page stopped
//!   being a leaf; (3) the key to put back is not *bounded* on the page
//!   (ambiguity); (4) a key-insert undo would empty the page (a page-delete
//!   SMO is needed).
//! * SMO bodies — only ever undone when their SMO never completed (a
//!   finished SMO is fenced off by its dummy CLR), so the stored
//!   before-state is exact: apply the page-oriented inverse and write a
//!   physical [`IndexBody::PageRestore`] CLR.
//!
//! SMOs performed *during* undo (the split in case 1, the page delete in
//! case 4) are logged as **regular records**, the paper's stated exception
//! to CLR-only undo logging, so that a crash mid-way can undo them and
//! restore structural consistency.
//!
//! No locks are acquired anywhere on the undo paths (§4) — rolling-back
//! transactions can never deadlock.

use crate::apply::{apply_body, snapshot_restore_body, undo_body};
use crate::body::IndexBody;
use crate::node::{leaf_contains, leaf_lower_bound};
use crate::BTree;
use ariesim_common::key::SearchKey;
use ariesim_common::page::PageType;
use ariesim_common::slotted::SLOT_LEN;
use ariesim_common::stats::{Bump, StatsHandle};
use ariesim_common::{Error, IndexId, IndexKey, PageBuf, Result};
use ariesim_storage::BufferPool;
use ariesim_txn::Core;
use ariesim_wal::{ChainLogger, LogRecord, ResourceManager, RmId};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Resource manager for [`RmId::Index`] records, dispatching logical undos
/// to the registered [`BTree`] instances.
pub struct IndexRm {
    pool: Arc<BufferPool>,
    trees: RwLock<HashMap<IndexId, Arc<BTree>>>,
    stats: StatsHandle,
}

impl IndexRm {
    /// The index resource manager of `core`'s engine, registered as its
    /// [`RmId::Index`] resource manager.
    pub fn new(core: &Core) -> Result<Arc<IndexRm>> {
        let rm = Arc::new(IndexRm {
            pool: core.pool.clone(),
            trees: RwLock::new(HashMap::new()),
            stats: core.stats.clone(),
        });
        core.rms.register(rm.clone())?;
        Ok(rm)
    }

    /// Register an index so its records can be logically undone.
    pub fn register_tree(&self, tree: Arc<BTree>) {
        self.trees.write().insert(tree.index_id, tree);
    }

    /// Forget an index whose creating transaction was rolled back.
    pub fn unregister_tree(&self, index: IndexId) {
        self.trees.write().remove(&index);
    }

    fn tree(&self, index: IndexId) -> Result<Arc<BTree>> {
        self.trees
            .read()
            .get(&index)
            .cloned()
            .ok_or_else(|| Error::Internal(format!("no registered index {index}")))
    }

    /// Is this page currently a live leaf of `tree`?
    fn is_leaf_of(page: &PageBuf, tree: &BTree) -> bool {
        matches!(page.page_type(), Ok(PageType::IndexLeaf))
            && page.owner() == tree.index_id.0
            && page.level() == 0
    }

    /// Undo a key insert: remove the key again (paper Figure 1 scenario when
    /// it goes logical).
    fn undo_insert(
        &self,
        tree: &BTree,
        logger: &mut ChainLogger<'_>,
        rec: &LogRecord,
        key: &IndexKey,
    ) -> Result<()> {
        let clr_body = IndexBody::DeleteKey {
            index: tree.index_id,
            key: key.clone(),
        };
        // Page-oriented attempt.
        {
            let mut g = self.pool.fix_x(rec.page)?;
            if Self::is_leaf_of(&g, tree)
                && leaf_contains(&g, key)?.is_some()
                && g.slot_count() > 1
            {
                apply_body(&mut g, rec.page, &clr_body)?;
                let lsn = logger.clr(RmId::Index, rec.page, rec.prev_lsn, clr_body.encode());
                g.record_update(lsn);
                self.stats.undo_page_oriented.bump();
                return Ok(());
            }
        }
        // Logical undo: retraverse under the tree latch (which also lets us
        // run a page-delete SMO if removing the key empties the page —
        // condition 4).
        self.stats.undo_logical.bump();
        let _tx = tree.tree_x();
        let search = SearchKey::from_key(key);
        let path = tree.descend_path(&search)?;
        let leaf_id = crate::smo::path_leaf(&path)?;
        let now_empty = {
            let mut g = self.pool.fix_x(leaf_id)?;
            if leaf_contains(&g, key)?.is_none() {
                return Err(Error::CorruptPage {
                    page: leaf_id,
                    reason: format!("logical undo: inserted key {key:?} not found"),
                });
            }
            apply_body(&mut g, leaf_id, &clr_body)?;
            let lsn = logger.clr(RmId::Index, leaf_id, rec.prev_lsn, clr_body.encode());
            g.record_update(lsn);
            g.slot_count() == 0 && leaf_id != tree.root
        };
        if now_empty {
            // Page-delete SMO during undo: regular records + dummy CLR whose
            // undo_next points at the CLR just written — restart undo will
            // step from the dummy CLR to the CLR to rec.prev_lsn correctly.
            tree.page_delete_smo(logger, &search)?;
        }
        Ok(())
    }

    /// Undo a key delete: put the key back.
    fn undo_delete(
        &self,
        tree: &BTree,
        logger: &mut ChainLogger<'_>,
        rec: &LogRecord,
        key: &IndexKey,
    ) -> Result<()> {
        let clr_body = IndexBody::InsertKey {
            index: tree.index_id,
            key: key.clone(),
        };
        // Page-oriented attempt: right page, key *bounded* on it
        // (condition 3), and space available (condition 1).
        {
            let mut g = self.pool.fix_x(rec.page)?;
            if Self::is_leaf_of(&g, tree) {
                let idx = leaf_lower_bound(&g, &SearchKey::from_key(key))?;
                let bounded = idx > 0 && idx < g.slot_count();
                let fits = g.total_free() >= key.wire_len() + SLOT_LEN;
                if bounded && fits {
                    apply_body(&mut g, rec.page, &clr_body)?;
                    let lsn = logger.clr(RmId::Index, rec.page, rec.prev_lsn, clr_body.encode());
                    g.record_update(lsn);
                    self.stats.undo_page_oriented.bump();
                    return Ok(());
                }
            }
        }
        // Logical undo under the tree latch; split first if needed
        // (condition 1 — the SMO is logged with regular records and its own
        // dummy CLR, *before* the compensating insert, Figure 8's ordering).
        self.stats.undo_logical.bump();
        let _tx = tree.tree_x();
        let search = SearchKey::from_key(key);
        let leaf_id = tree.split_smo(logger, &search, key.wire_len())?;
        let mut g = self.pool.fix_x(leaf_id)?;
        apply_body(&mut g, leaf_id, &clr_body)?;
        let lsn = logger.clr(RmId::Index, leaf_id, rec.prev_lsn, clr_body.encode());
        g.record_update(lsn);
        Ok(())
    }
}

impl ResourceManager for IndexRm {
    fn rm_id(&self) -> RmId {
        RmId::Index
    }

    fn redo(&self, page: &mut PageBuf, rec: &LogRecord) -> Result<()> {
        let body = IndexBody::decode(&rec.body)?;
        apply_body(page, rec.page, &body)
    }

    #[deny(clippy::wildcard_enum_match_arm)]
    fn undo(&self, logger: &mut ChainLogger<'_>, rec: &LogRecord) -> Result<()> {
        let body = IndexBody::decode(&rec.body)?;
        match &body {
            IndexBody::InsertKey { index, key } => {
                let tree = self.tree(*index)?;
                self.undo_insert(&tree, logger, rec, key)
            }
            IndexBody::DeleteKey { index, key } => {
                let tree = self.tree(*index)?;
                self.undo_delete(&tree, logger, rec, key)
            }
            IndexBody::PageRestore { .. } => Err(Error::Internal(
                "PageRestore is a CLR body and can never be undone".into(),
            )),
            // SMO bodies: page-oriented inverse + physical restore CLR.
            IndexBody::PageFormat { .. }
            | IndexBody::SplitShrink { .. }
            | IndexBody::ChainNext { .. }
            | IndexBody::ChainPrev { .. }
            | IndexBody::AddSeparator { .. }
            | IndexBody::RemoveSeparator { .. }
            | IndexBody::FreePage { .. }
            | IndexBody::RootReplace { .. }
            | IndexBody::RootCollapse { .. } => {
                let mut g = self.pool.fix_x(rec.page)?;
                undo_body(&mut g, rec.page, &body)?;
                let clr_body = snapshot_restore_body(&g, body.index())?;
                let lsn = logger.clr(RmId::Index, rec.page, rec.prev_lsn, clr_body.encode());
                g.record_update(lsn);
                self.stats.undo_page_oriented.bump();
                Ok(())
            }
        }
    }
}
