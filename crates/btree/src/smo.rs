//! Structure modification operations — the paper's Figures 8, 9 and 10.
//!
//! Both SMOs (page split and page deletion) run under the **X tree latch**
//! (§2.1: "SMOs within a single index tree are serialized using an X tree
//! latch") and are bracketed as **nested top actions**: every page-level
//! action is a regular redo-undo record, and a dummy CLR at the end makes
//! the whole SMO survive a rollback of the enclosing transaction (§3).
//!
//! Discipline enforced here (paper §4):
//!
//! * at most two page latches held at once, and never a lower-level latch
//!   while *waiting* for a higher-level one — propagation latches the parent
//!   only after the leaf-level latches are released;
//! * splits go to the **right**: higher-valued keys move to the new page;
//! * every page touched by the SMO has its SM_Bit set to '1' (done inside
//!   each body's apply), warning concurrent traversers;
//! * no I/O while holding the tree latch beyond the buffer-pool page
//!   fixes themselves (the paper asks callers to pre-fix pages; our pool
//!   makes fixes cheap, so the latch hold time stays short either way).
//!
//! The same functions serve SMOs needed *during undo* (paper §3's exception:
//! those are logged as regular records, which these are) — the caller just
//! passes the rollback's [`ChainLogger`].

use crate::apply::apply_logged;
use crate::body::IndexBody;
use crate::node::{node_cell, node_find_child, node_search, raw_cells, NodeCell};
use crate::BTree;
use ariesim_fault::crash_point;
use ariesim_common::key::SearchKey;
use ariesim_common::slotted::SLOT_LEN;
use ariesim_common::stats::Bump;
use ariesim_common::{Error, IndexKey, PageId, Result, Rid};
use ariesim_wal::ChainLogger;

impl BTree {
    /// Root-to-leaf descent recording the page ids on the way. Must be
    /// called with the tree latch held (no SMO can change the structure, so
    /// no ambiguity handling is needed).
    pub(crate) fn descend_path(&self, search: &SearchKey<'_>) -> Result<Vec<PageId>> {
        let mut path = vec![self.root];
        let mut g = self.pool.fix_s(self.root)?;
        while g.level() > 0 {
            let (_, child) = node_search(&g, search)?;
            let cg = self.pool.fix_s(child)?;
            drop(g);
            g = cg;
            path.push(child);
        }
        Ok(path)
    }

    /// Fix `page` exclusive, then apply, log and stamp `body` on it.
    fn smo_action(&self, logger: &mut ChainLogger<'_>, page: PageId, body: IndexBody) -> Result<()> {
        apply_logged(logger, &mut self.pool.fix_x(page)?, page, &body)
    }

    /// Grow the tree by one level: the root's cells move into a fresh child;
    /// the root becomes a nonleaf one level higher whose only child is it.
    /// Returns the new child holding the old content.
    fn root_grow(&self, logger: &mut ChainLogger<'_>) -> Result<PageId> {
        let mut g = self.pool.fix_x(self.root)?;
        let cells = raw_cells(&g)?;
        let level = g.level();
        let child = self.space.allocate(logger)?;
        {
            let mut cg = self.pool.fix_x(child)?;
            let body = IndexBody::PageFormat {
                index: self.index_id,
                level,
                cells: cells.clone(),
                prev: PageId::NULL,
                next: PageId::NULL,
                sm_bit: true,
            };
            apply_logged(logger, &mut cg, child, &body)?;
        }
        crash_point!("smo.grow.child_formatted");
        let body = IndexBody::RootReplace {
            index: self.index_id,
            old_level: level,
            new_level: level + 1,
            child,
            old_cells: cells,
        };
        apply_logged(logger, &mut g, self.root, &body)?;
        crash_point!("smo.grow.root_replaced");
        Ok(child)
    }

    /// Split `path[idx]` around its byte midpoint (higher keys to the new
    /// right page) and post the separator to the parent, splitting ancestors
    /// as needed. Returns the new right sibling. Caller holds the X tree
    /// latch; the dummy CLR is the caller's responsibility.
    fn split_one(&self, logger: &mut ChainLogger<'_>, path: &mut Vec<PageId>, mut idx: usize) -> Result<PageId> {
        if idx == 0 {
            // Splitting the root: grow first, then split the new child.
            let child = self.root_grow(logger)?;
            path.insert(1, child);
            idx = 1;
        }
        let target = path[idx];
        let mut g = self.pool.fix_x(target)?;
        let cells = raw_cells(&g)?;
        if cells.len() < 2 {
            return Err(Error::Internal(format!(
                "split of {target} with {} cells",
                cells.len()
            )));
        }
        // Byte-midpoint split index, clamped to leave both sides nonempty.
        let total: usize = cells.iter().map(|c| c.len() + SLOT_LEN).sum();
        let mut acc = 0usize;
        let mut split_idx = cells.len() - 1;
        for (i, c) in cells.iter().enumerate() {
            acc += c.len() + SLOT_LEN;
            if acc * 2 >= total {
                split_idx = (i + 1).clamp(1, cells.len() - 1);
                break;
            }
        }
        let upper: Vec<Vec<u8>> = cells[split_idx..].to_vec();
        let is_leaf = g.level() == 0;
        let level = g.level();
        let old_next = g.next();
        let (sep, dropped_high) = if is_leaf && self.unique {
            // A unique index searches by value alone (`BTree::insert`), and
            // a value-only search sorts below every key of its value. So a
            // separator (v, r) would route v left while a key (v, r') with
            // r' ≥ r belongs right — as happens once the key the split
            // copied is deleted and v is inserted again with a higher RID.
            // (u, max RID), u the value of the last key kept, sorts above
            // every key of u and below every key of a higher value, so
            // value-only and full-key searches route alike (no data page
            // has the id u32::MAX).
            let last_kept = IndexKey::decode(&cells[split_idx - 1])?;
            (IndexKey::new(last_kept.value, Rid::new(PageId(u32::MAX), u16::MAX)), None)
        } else if is_leaf {
            (IndexKey::decode(&upper[0])?, None)
        } else {
            let last_kept = NodeCell::decode(&cells[split_idx - 1])?;
            let h = last_kept.high_key.ok_or_else(|| Error::CorruptPage {
                page: target,
                reason: "nonleaf split: kept rightmost cell has no high key".into(),
            })?;
            (h.clone(), Some(h))
        };
        // Allocate and format the new right page (two latches held: target + new).
        let new_page = self.space.allocate(logger)?;
        crash_point!("smo.split.allocated");
        {
            let mut ng = self.pool.fix_x(new_page)?;
            let body = IndexBody::PageFormat {
                index: self.index_id,
                level,
                cells: upper.clone(),
                prev: if is_leaf { target } else { PageId::NULL },
                next: if is_leaf { old_next } else { PageId::NULL },
                sm_bit: true,
            };
            apply_logged(logger, &mut ng, new_page, &body)?;
        }
        crash_point!("smo.split.new_formatted");
        // Shrink the split page.
        {
            let body = IndexBody::SplitShrink {
                index: self.index_id,
                removed: upper,
                old_next,
                new_next: if is_leaf { new_page } else { PageId::NULL },
                dropped_high,
            };
            apply_logged(logger, &mut g, target, &body)?;
        }
        drop(g);
        crash_point!("smo.split.shrunk");
        // Rechain the old right neighbour (leaf level only; leaf latches are
        // released before any higher-level latch is requested — §4).
        if is_leaf && !old_next.is_null() {
            self.smo_action(
                logger,
                old_next,
                IndexBody::ChainPrev {
                    old: target,
                    new: new_page,
                },
            )?;
            crash_point!("smo.split.rechained");
        }
        self.stats.smo_splits.bump();
        self.post_separator(logger, path, idx - 1, target, sep, new_page)?;
        crash_point!("smo.split.sep_posted");
        Ok(new_page)
    }

    /// Post the separator `(left, sep, right)` into the nonleaf `path[idx]`,
    /// splitting it (and its ancestors) if it is full.
    fn post_separator(
        &self,
        logger: &mut ChainLogger<'_>,
        path: &mut Vec<PageId>,
        mut idx: usize,
        left: PageId,
        sep: IndexKey,
        right: PageId,
    ) -> Result<()> {
        loop {
            let pa = path[idx];
            let mut g = self.pool.fix_x(pa)?;
            let slot = node_find_child(&g, left)?;
            // Worst-case growth: the replaced cell grows by sep's bytes and
            // one new cell (≈ the old cell's size) plus a slot is added.
            let old_cell_len = g.cell(slot).map(|c| c.len()).unwrap_or(0);
            let need = sep.wire_len() + old_cell_len + 2 * SLOT_LEN + 8;
            if g.total_free() >= need {
                let body = IndexBody::AddSeparator {
                    index: self.index_id,
                    slot,
                    sep,
                    new_child: right,
                };
                apply_logged(logger, &mut g, pa, &body)?;
                crash_point!("smo.post.sep_added");
                return Ok(());
            }
            drop(g);
            // Parent full: split it first (posts its own separator upward),
            // then figure out which half now parents `left`. If the split
            // reached the root, `root_grow` put a new level under it and
            // every page of the path sits one index deeper than before.
            let depth = path.len();
            let sibling = self.split_one(logger, path, idx)?;
            idx += path.len() - depth;
            let pa = path[idx];
            let g = self.pool.fix_s(pa)?;
            let in_left = node_find_child(&g, left).is_ok();
            drop(g);
            if !in_left {
                path[idx] = sibling;
            }
        }
    }

    /// Figure 8/9: the page-split SMO. Caller holds the X tree latch.
    /// Re-descends for `search`; if the leaf cannot fit `need` more bytes,
    /// splits it (propagating up) inside a nested top action. Returns the
    /// leaf now covering `search`.
    pub(crate) fn split_smo(
        &self,
        logger: &mut ChainLogger<'_>,
        search: &SearchKey<'_>,
        need: usize,
    ) -> Result<PageId> {
        let token = logger.last_lsn;
        let mut path = self.descend_path(search)?;
        let leaf = path_leaf(&path)?;
        {
            let g = self.pool.fix_s(leaf)?;
            if g.total_free() >= need + SLOT_LEN {
                return Ok(leaf); // someone already made room
            }
        }
        let idx = path.len() - 1;
        self.split_one(logger, &mut path, idx)?;
        crash_point!("smo.split.before_dummy_clr");
        logger.dummy_clr(token);
        crash_point!("smo.split.after_dummy_clr");
        // Re-descend: the separator just posted routes `search` to whichever
        // half now covers it (we still hold the tree latch, so this is
        // cheap and race-free).
        let path2 = self.descend_path(search)?;
        path_leaf(&path2)
    }

    /// Figure 8/10: the page-deletion SMO. Caller holds the X tree latch and
    /// has already performed and logged the key delete that emptied the leaf
    /// (`logger.last_lsn` is that record — the dummy CLR will point at it).
    /// Deletes every empty page on the search path bottom-up.
    pub(crate) fn page_delete_smo(
        &self,
        logger: &mut ChainLogger<'_>,
        search: &SearchKey<'_>,
    ) -> Result<()> {
        let token = logger.last_lsn;
        let path = self.descend_path(search)?;
        let mut victim_idx = path.len() - 1;
        let mut performed = false;
        loop {
            let victim = path[victim_idx];
            if victim_idx == 0 {
                // The root is never freed. If it is an empty nonleaf (its
                // last child was just deleted), collapse it to an empty leaf.
                let mut g = self.pool.fix_x(self.root)?;
                if g.level() > 0 && g.slot_count() == 0 {
                    let body = IndexBody::RootCollapse {
                        index: self.index_id,
                        old_level: g.level(),
                        old_cells: Vec::new(),
                    };
                    apply_logged(logger, &mut g, self.root, &body)?;
                    performed = true;
                }
                break;
            }
            let (prev, next, level, empty) = {
                let g = self.pool.fix_s(victim)?;
                (g.prev(), g.next(), g.level(), g.slot_count() == 0)
            };
            if !empty {
                break;
            }
            // Unchain (leaf level only — nonleafs are not chained).
            if level == 0 {
                if !prev.is_null() {
                    self.smo_action(
                        logger,
                        prev,
                        IndexBody::ChainNext {
                            old: victim,
                            new: next,
                        },
                    )?;
                }
                if !next.is_null() {
                    self.smo_action(
                        logger,
                        next,
                        IndexBody::ChainPrev {
                            old: victim,
                            new: prev,
                        },
                    )?;
                }
                crash_point!("smo.delete.unchained");
            }
            // Remove the parent's separator for the victim.
            let pa = path[victim_idx - 1];
            let pa_empty = {
                let mut g = self.pool.fix_x(pa)?;
                let slot = node_find_child(&g, victim)?;
                let cell = node_cell(&g, slot)?;
                let dropped_high = if cell.high_key.is_none() && slot > 0 {
                    node_cell(&g, slot - 1)?.high_key
                } else {
                    None
                };
                let body = IndexBody::RemoveSeparator {
                    index: self.index_id,
                    slot,
                    child: victim,
                    old_high: cell.high_key,
                    dropped_high,
                };
                apply_logged(logger, &mut g, pa, &body)?;
                g.slot_count() == 0
            };
            crash_point!("smo.delete.sep_removed");
            // Free the victim page.
            {
                let mut g = self.pool.fix_x(victim)?;
                let body = IndexBody::FreePage {
                    index: self.index_id,
                    level,
                    prev,
                    next,
                };
                apply_logged(logger, &mut g, victim, &body)?;
            }
            crash_point!("smo.delete.page_freed");
            self.space.free(logger, victim)?;
            crash_point!("smo.delete.space_freed");
            self.stats.smo_page_deletes.bump();
            performed = true;
            if pa_empty {
                victim_idx -= 1;
            } else {
                break;
            }
        }
        if performed {
            crash_point!("smo.delete.before_dummy_clr");
            logger.dummy_clr(token);
            crash_point!("smo.delete.after_dummy_clr");
        }
        Ok(())
    }
}

/// Last page id of a descent path. `descend_path` always records at least
/// the root, so an empty path means a logic error upstream; surface it as a
/// recoverable error rather than a panic.
pub(crate) fn path_leaf(path: &[PageId]) -> Result<PageId> {
    path.last()
        .copied()
        .ok_or_else(|| Error::Internal("descend_path returned an empty path".into()))
}
