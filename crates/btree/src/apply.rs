//! Applying index log bodies to pages — shared by forward processing and
//! the redo pass, which is what makes redo *exactly* repeat history: the
//! forward code constructs an [`IndexBody`] and hands it to
//! `apply_logged`, which applies it through [`apply_body`], logs it and
//! stamps the page; redo decodes the body and calls the same function on
//! the same page image.
//!
//! [`undo_body`] is the page-oriented inverse used to roll back a partially
//! completed SMO (paper §3: "Partially completed SMOs are undone in a
//! page-oriented fashion to restore the structural consistency of the
//! tree"). It is only ever called on records of an SMO that never finished,
//! so no other transaction can have touched the pages in between (the tree
//! latch and SM_Bits guarantee it), and the stored before-state is exact.

use crate::body::IndexBody;
use crate::node::{leaf_insert, leaf_remove, node_cell, NodeCell};
use ariesim_common::page::PageType;
use ariesim_common::{Error, PageBuf, PageId, Result};
use ariesim_storage::PageWriteGuard;
use ariesim_wal::{ChainLogger, RmId};

fn index_page_type(level: u16) -> PageType {
    if level == 0 {
        PageType::IndexLeaf
    } else {
        PageType::IndexNonLeaf
    }
}

fn fill_cells(page: &mut PageBuf, cells: &[Vec<u8>]) -> Result<()> {
    for (i, c) in cells.iter().enumerate() {
        page.insert_cell_at(i as u16, c)?;
    }
    Ok(())
}

/// Apply (redo) `body` to `page`. `page_id` is the envelope's page — needed
/// when the body reformats the page from scratch.
#[deny(clippy::wildcard_enum_match_arm)]
pub fn apply_body(page: &mut PageBuf, page_id: PageId, body: &IndexBody) -> Result<()> {
    match body {
        IndexBody::InsertKey { key, .. } => {
            leaf_insert(page, key)?;
        }
        IndexBody::DeleteKey { key, .. } => {
            leaf_remove(page, key)?;
            // Figure 7: every key delete leaves the Delete_Bit set.
            page.set_delete_bit(true);
        }
        IndexBody::PageFormat {
            index,
            level,
            cells,
            prev,
            next,
            sm_bit,
        } => {
            page.format(page_id, index_page_type(*level), index.0, *level);
            fill_cells(page, cells)?;
            page.set_prev(*prev);
            page.set_next(*next);
            page.set_sm_bit(*sm_bit);
        }
        IndexBody::SplitShrink {
            removed,
            new_next,
            dropped_high,
            ..
        } => {
            let keep = page.slot_count() - removed.len() as u16;
            for _ in 0..removed.len() {
                page.delete_cell_at(keep)?;
            }
            if dropped_high.is_some() {
                // Nonleaf split: the new rightmost cell surrenders its high key.
                let last = page.slot_count() - 1;
                let cell = node_cell(page, last)?;
                page.replace_cell_at(
                    last,
                    &NodeCell {
                        child: cell.child,
                        high_key: None,
                    }
                    .encode(),
                )?;
            } else {
                page.set_next(*new_next);
            }
            page.set_sm_bit(true);
        }
        IndexBody::ChainNext { new, .. } => {
            page.set_next(*new);
            page.set_sm_bit(true);
        }
        IndexBody::ChainPrev { new, .. } => {
            page.set_prev(*new);
            page.set_sm_bit(true);
        }
        IndexBody::AddSeparator {
            slot,
            sep,
            new_child,
            ..
        } => {
            let old = node_cell(page, *slot)?;
            page.replace_cell_at(
                *slot,
                &NodeCell {
                    child: old.child,
                    high_key: Some(sep.clone()),
                }
                .encode(),
            )?;
            page.insert_cell_at(
                slot + 1,
                &NodeCell {
                    child: *new_child,
                    high_key: old.high_key,
                }
                .encode(),
            )?;
            page.set_sm_bit(true);
        }
        IndexBody::RemoveSeparator {
            slot,
            child,
            old_high,
            ..
        } => {
            let cell = node_cell(page, *slot)?;
            if cell.child != *child {
                return Err(Error::CorruptPage {
                    page: page_id,
                    reason: format!("RemoveSeparator slot {slot} points at {}", cell.child),
                });
            }
            page.delete_cell_at(*slot)?;
            if old_high.is_none() && *slot > 0 {
                // The removed cell was rightmost: its predecessor becomes
                // rightmost and surrenders its high key.
                let prev = node_cell(page, slot - 1)?;
                page.replace_cell_at(
                    slot - 1,
                    &NodeCell {
                        child: prev.child,
                        high_key: None,
                    }
                    .encode(),
                )?;
            }
            page.set_sm_bit(true);
        }
        IndexBody::FreePage { .. } => {
            page.format(page_id, PageType::Free, 0, 0);
        }
        IndexBody::RootReplace {
            index,
            new_level,
            child,
            ..
        } => {
            page.format(page_id, PageType::IndexNonLeaf, index.0, *new_level);
            page.insert_cell_at(
                0,
                &NodeCell {
                    child: *child,
                    high_key: None,
                }
                .encode(),
            )?;
            page.set_sm_bit(true);
        }
        IndexBody::RootCollapse { index, .. } => {
            page.format(page_id, PageType::IndexLeaf, index.0, 0);
            page.set_sm_bit(true);
        }
        IndexBody::PageRestore {
            index,
            level,
            free,
            prev,
            next,
            sm_bit,
            delete_bit,
            cells,
        } => {
            if *free {
                page.format(page_id, PageType::Free, 0, 0);
            } else {
                page.format(page_id, index_page_type(*level), index.0, *level);
                fill_cells(page, cells)?;
                page.set_prev(*prev);
                page.set_next(*next);
                page.set_sm_bit(*sm_bit);
                page.set_delete_bit(*delete_bit);
            }
        }
    }
    Ok(())
}

/// The forward write of an index page: apply `body` to page `page`,
/// X-latched by `g`, log it through `logger`, and stamp the page with the
/// record's LSN under the same latch.
pub(crate) fn apply_logged(
    logger: &mut ChainLogger<'_>,
    g: &mut PageWriteGuard<'_>,
    page: PageId,
    body: &IndexBody,
) -> Result<()> {
    apply_body(g, page, body)?;
    let lsn = logger.update(RmId::Index, page, body.encode());
    g.record_update(lsn);
    Ok(())
}

/// Page-oriented inverse of an SMO body (incomplete-SMO rollback only).
/// Key bodies (`InsertKey`/`DeleteKey`) are handled by the resource
/// manager's richer undo logic, never here.
#[deny(clippy::wildcard_enum_match_arm)]
pub fn undo_body(page: &mut PageBuf, page_id: PageId, body: &IndexBody) -> Result<()> {
    match body {
        IndexBody::PageFormat { .. } => {
            // The page was fresh; undoing its format frees it (the space-map
            // undo clears the allocation bit separately).
            page.format(page_id, PageType::Free, 0, 0);
        }
        IndexBody::SplitShrink {
            removed,
            old_next,
            dropped_high,
            ..
        } => {
            if let Some(h) = dropped_high {
                let last = page.slot_count() - 1;
                let cell = node_cell(page, last)?;
                page.replace_cell_at(
                    last,
                    &NodeCell {
                        child: cell.child,
                        high_key: Some(h.clone()),
                    }
                    .encode(),
                )?;
            } else {
                page.set_next(*old_next);
            }
            for c in removed {
                let at = page.slot_count();
                page.insert_cell_at(at, c)?;
            }
        }
        IndexBody::ChainNext { old, .. } => page.set_next(*old),
        IndexBody::ChainPrev { old, .. } => page.set_prev(*old),
        IndexBody::AddSeparator {
            slot, new_child, ..
        } => {
            let added = node_cell(page, slot + 1)?;
            if added.child != *new_child {
                return Err(Error::CorruptPage {
                    page: page_id,
                    reason: "AddSeparator undo: unexpected cell".into(),
                });
            }
            page.delete_cell_at(slot + 1)?;
            let orig = node_cell(page, *slot)?;
            page.replace_cell_at(
                *slot,
                &NodeCell {
                    child: orig.child,
                    high_key: added.high_key,
                }
                .encode(),
            )?;
        }
        IndexBody::RemoveSeparator {
            slot,
            child,
            old_high,
            dropped_high,
            ..
        } => {
            if old_high.is_none() && *slot > 0 {
                let prev = node_cell(page, slot - 1)?;
                page.replace_cell_at(
                    slot - 1,
                    &NodeCell {
                        child: prev.child,
                        high_key: dropped_high.clone(),
                    }
                    .encode(),
                )?;
            }
            page.insert_cell_at(
                *slot,
                &NodeCell {
                    child: *child,
                    high_key: old_high.clone(),
                }
                .encode(),
            )?;
        }
        IndexBody::FreePage {
            index,
            level,
            prev,
            next,
        } => {
            page.format(page_id, index_page_type(*level), index.0, *level);
            page.set_prev(*prev);
            page.set_next(*next);
            page.set_sm_bit(true);
        }
        IndexBody::RootReplace {
            index,
            old_level,
            old_cells,
            ..
        } => {
            page.format(page_id, index_page_type(*old_level), index.0, *old_level);
            fill_cells(page, old_cells)?;
            page.set_sm_bit(true);
        }
        IndexBody::RootCollapse {
            index,
            old_level,
            old_cells,
        } => {
            page.format(page_id, index_page_type(*old_level), index.0, *old_level);
            fill_cells(page, old_cells)?;
            page.set_sm_bit(true);
        }
        IndexBody::InsertKey { .. } | IndexBody::DeleteKey { .. } | IndexBody::PageRestore { .. } => {
            return Err(Error::Internal(
                "undo_body called on a non-SMO body".into(),
            ));
        }
    }
    Ok(())
}

/// Snapshot a page into a [`IndexBody::PageRestore`] CLR body.
pub fn snapshot_restore_body(
    page: &PageBuf,
    index: ariesim_common::IndexId,
) -> Result<IndexBody> {
    let free = matches!(page.page_type(), Ok(PageType::Free));
    Ok(IndexBody::PageRestore {
        index,
        level: page.level(),
        free,
        prev: page.prev(),
        next: page.next(),
        sm_bit: page.sm_bit(),
        delete_bit: page.delete_bit(),
        cells: if free {
            Vec::new()
        } else {
            crate::node::raw_cells(page)?
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ariesim_common::{IndexId, IndexKey, Rid};

    fn key(v: &str) -> IndexKey {
        IndexKey::new(v.as_bytes().to_vec(), Rid::new(PageId(50), 0))
    }

    fn fresh_leaf(id: PageId) -> PageBuf {
        let mut p = PageBuf::zeroed();
        p.format(id, PageType::IndexLeaf, 1, 0);
        p
    }

    #[test]
    fn insert_delete_roundtrip_via_bodies() {
        let mut p = fresh_leaf(PageId(3));
        let ins = IndexBody::InsertKey {
            index: IndexId(1),
            key: key("k"),
        };
        apply_body(&mut p, PageId(3), &ins).unwrap();
        assert_eq!(p.slot_count(), 1);
        let del = IndexBody::DeleteKey {
            index: IndexId(1),
            key: key("k"),
        };
        apply_body(&mut p, PageId(3), &del).unwrap();
        assert_eq!(p.slot_count(), 0);
        assert!(p.delete_bit(), "delete must set the Delete_Bit");
    }

    #[test]
    fn split_shrink_apply_then_undo_is_identity() {
        let mut p = fresh_leaf(PageId(3));
        for v in ["a", "b", "c", "d"] {
            leaf_insert(&mut p, &key(v)).unwrap();
        }
        p.set_next(PageId(9));
        let before = crate::node::raw_cells(&p).unwrap();
        let body = IndexBody::SplitShrink {
            index: IndexId(1),
            removed: before[2..].to_vec(),
            old_next: PageId(9),
            new_next: PageId(7),
            dropped_high: None,
        };
        apply_body(&mut p, PageId(3), &body).unwrap();
        assert_eq!(p.slot_count(), 2);
        assert_eq!(p.next(), PageId(7));
        assert!(p.sm_bit());
        undo_body(&mut p, PageId(3), &body).unwrap();
        assert_eq!(crate::node::raw_cells(&p).unwrap(), before);
        assert_eq!(p.next(), PageId(9));
    }

    fn nonleaf_with_three(id: PageId) -> PageBuf {
        let mut p = PageBuf::zeroed();
        p.format(id, PageType::IndexNonLeaf, 1, 1);
        let cells = [
            NodeCell {
                child: PageId(10),
                high_key: Some(key("g")),
            },
            NodeCell {
                child: PageId(11),
                high_key: Some(key("p")),
            },
            NodeCell {
                child: PageId(12),
                high_key: None,
            },
        ];
        for (i, c) in cells.iter().enumerate() {
            p.insert_cell_at(i as u16, &c.encode()).unwrap();
        }
        p
    }

    #[test]
    fn add_separator_apply_then_undo_is_identity() {
        let mut p = nonleaf_with_three(PageId(2));
        let before = crate::node::raw_cells(&p).unwrap();
        let body = IndexBody::AddSeparator {
            index: IndexId(1),
            slot: 1,
            sep: key("k"),
            new_child: PageId(20),
        };
        apply_body(&mut p, PageId(2), &body).unwrap();
        // cell1 = {11, "k"}, cell2 = {20, "p"}
        assert_eq!(p.slot_count(), 4);
        let c1 = node_cell(&p, 1).unwrap();
        let c2 = node_cell(&p, 2).unwrap();
        assert_eq!((c1.child, c1.high_key.unwrap()), (PageId(11), key("k")));
        assert_eq!((c2.child, c2.high_key.unwrap()), (PageId(20), key("p")));
        undo_body(&mut p, PageId(2), &body).unwrap();
        assert_eq!(crate::node::raw_cells(&p).unwrap(), before);
    }

    #[test]
    fn add_separator_on_rightmost_cell() {
        let mut p = nonleaf_with_three(PageId(2));
        let body = IndexBody::AddSeparator {
            index: IndexId(1),
            slot: 2,
            sep: key("w"),
            new_child: PageId(21),
        };
        apply_body(&mut p, PageId(2), &body).unwrap();
        let c2 = node_cell(&p, 2).unwrap();
        let c3 = node_cell(&p, 3).unwrap();
        assert_eq!((c2.child, c2.high_key.clone().unwrap()), (PageId(12), key("w")));
        assert_eq!((c3.child, c3.high_key), (PageId(21), None));
    }

    #[test]
    fn remove_separator_middle_and_rightmost() {
        // Middle removal.
        let mut p = nonleaf_with_three(PageId(2));
        let before = crate::node::raw_cells(&p).unwrap();
        let mid = IndexBody::RemoveSeparator {
            index: IndexId(1),
            slot: 1,
            child: PageId(11),
            old_high: Some(key("p")),
            dropped_high: None,
        };
        apply_body(&mut p, PageId(2), &mid).unwrap();
        assert_eq!(p.slot_count(), 2);
        undo_body(&mut p, PageId(2), &mid).unwrap();
        assert_eq!(crate::node::raw_cells(&p).unwrap(), before);

        // Rightmost removal: predecessor surrenders its high key.
        let rm = IndexBody::RemoveSeparator {
            index: IndexId(1),
            slot: 2,
            child: PageId(12),
            old_high: None,
            dropped_high: Some(key("p")),
        };
        apply_body(&mut p, PageId(2), &rm).unwrap();
        assert_eq!(p.slot_count(), 2);
        let new_last = node_cell(&p, 1).unwrap();
        assert_eq!((new_last.child, new_last.high_key.clone()), (PageId(11), None));
        undo_body(&mut p, PageId(2), &rm).unwrap();
        assert_eq!(crate::node::raw_cells(&p).unwrap(), before);
    }

    #[test]
    fn free_page_apply_then_undo() {
        let mut p = fresh_leaf(PageId(6));
        p.set_prev(PageId(5));
        p.set_next(PageId(7));
        let body = IndexBody::FreePage {
            index: IndexId(1),
            level: 0,
            prev: PageId(5),
            next: PageId(7),
        };
        apply_body(&mut p, PageId(6), &body).unwrap();
        assert_eq!(p.page_type().unwrap(), PageType::Free);
        undo_body(&mut p, PageId(6), &body).unwrap();
        assert_eq!(p.page_type().unwrap(), PageType::IndexLeaf);
        assert_eq!((p.prev(), p.next()), (PageId(5), PageId(7)));
        assert!(p.sm_bit());
    }

    #[test]
    fn root_replace_apply_then_undo() {
        let mut p = fresh_leaf(PageId(2));
        leaf_insert(&mut p, &key("x")).unwrap();
        let cells = crate::node::raw_cells(&p).unwrap();
        let body = IndexBody::RootReplace {
            index: IndexId(1),
            old_level: 0,
            new_level: 1,
            child: PageId(30),
            old_cells: cells.clone(),
        };
        apply_body(&mut p, PageId(2), &body).unwrap();
        assert_eq!(p.page_type().unwrap(), PageType::IndexNonLeaf);
        assert_eq!(p.level(), 1);
        let c = node_cell(&p, 0).unwrap();
        assert_eq!((c.child, c.high_key), (PageId(30), None));
        undo_body(&mut p, PageId(2), &body).unwrap();
        assert_eq!(p.page_type().unwrap(), PageType::IndexLeaf);
        assert_eq!(crate::node::raw_cells(&p).unwrap(), cells);
    }

    #[test]
    fn page_restore_reconstructs_exactly() {
        let mut p = fresh_leaf(PageId(4));
        leaf_insert(&mut p, &key("a")).unwrap();
        leaf_insert(&mut p, &key("b")).unwrap();
        p.set_next(PageId(9));
        p.set_delete_bit(true);
        let snap = snapshot_restore_body(&p, IndexId(1)).unwrap();
        let mut q = PageBuf::zeroed();
        apply_body(&mut q, PageId(4), &snap).unwrap();
        assert_eq!(
            crate::node::raw_cells(&q).unwrap(),
            crate::node::raw_cells(&p).unwrap()
        );
        assert_eq!(q.next(), PageId(9));
        assert!(q.delete_bit());
    }
}
