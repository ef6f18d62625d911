//! Log-record bodies owned by the index resource manager.
//!
//! Every body affects exactly the page named in the record envelope, so the
//! redo pass can replay any of them without looking at another page — the
//! paper's §3 guarantee that "any required redos are performed in a
//! page-oriented manner". SMO bodies carry enough of the before-state to be
//! *undone* page-oriented too, which is how partially completed SMOs are
//! rolled back to restore structural consistency.

use crate::node::{decode_cells_blob, encode_cells_blob};
use ariesim_common::codec::{Reader, Writer};
use ariesim_common::{Error, IndexId, IndexKey, PageId, Result};

/// An index log-record body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IndexBody {
    /// Key inserted into a leaf. Undo: delete it (possibly logically).
    InsertKey { index: IndexId, key: IndexKey },
    /// Key deleted from a leaf; redo also sets the Delete_Bit (paper Fig 7).
    /// Undo: re-insert it (possibly logically).
    DeleteKey { index: IndexId, key: IndexKey },
    /// Page formatted as an index page with the given cells (split target,
    /// root-grow child, index creation).
    PageFormat {
        index: IndexId,
        level: u16,
        cells: Vec<Vec<u8>>,
        prev: PageId,
        next: PageId,
        sm_bit: bool,
    },
    /// Split: the upper cells moved out of this page; `next` rechained.
    SplitShrink {
        index: IndexId,
        /// Raw cells removed from the tail of the page (they went to the new
        /// right sibling). Kept whole so an incomplete SMO can be undone.
        removed: Vec<Vec<u8>>,
        old_next: PageId,
        new_next: PageId,
        /// Nonleaf splits only: the high key surrendered by the page's new
        /// rightmost cell (it becomes the separator posted to the parent).
        dropped_high: Option<IndexKey>,
    },
    /// Neighbor rechaining during an SMO: this page's `next` pointer.
    ChainNext { old: PageId, new: PageId },
    /// Neighbor rechaining during an SMO: this page's `prev` pointer.
    ChainPrev { old: PageId, new: PageId },
    /// Split posted to the parent: cell at `slot` (pointing at the split
    /// page) gets `sep` as its high key, and a new cell for `new_child`
    /// inherits the old high key at `slot + 1`.
    AddSeparator {
        index: IndexId,
        slot: u16,
        sep: IndexKey,
        new_child: PageId,
    },
    /// Page deletion posted to the parent: the cell at `slot` (pointing at
    /// `child`) is removed. If `child` was the rightmost (no high key), the
    /// new rightmost cell surrenders its high key `dropped_high`.
    RemoveSeparator {
        index: IndexId,
        slot: u16,
        child: PageId,
        old_high: Option<IndexKey>,
        dropped_high: Option<IndexKey>,
    },
    /// Page deletion: this (empty) page leaves the tree.
    FreePage {
        index: IndexId,
        level: u16,
        prev: PageId,
        next: PageId,
    },
    /// Root grew a level: its cells moved into `child`; the root became a
    /// nonleaf one level up with `child` as its only (rightmost) cell.
    RootReplace {
        index: IndexId,
        old_level: u16,
        new_level: u16,
        child: PageId,
        old_cells: Vec<Vec<u8>>,
    },
    /// Root (a nonleaf left with zero children after a page deletion)
    /// reformatted as an empty leaf.
    RootCollapse {
        index: IndexId,
        old_level: u16,
        old_cells: Vec<Vec<u8>>,
    },
    /// Physical page-state restore: the CLR body written when an incomplete
    /// SMO's record is undone. Redo reconstructs the whole page, making the
    /// compensation page-oriented regardless of what the SMO record did.
    PageRestore {
        index: IndexId,
        level: u16,
        free: bool,
        prev: PageId,
        next: PageId,
        sm_bit: bool,
        delete_bit: bool,
        cells: Vec<Vec<u8>>,
    },
}

const OP_INSERT: u8 = 1;
const OP_DELETE: u8 = 2;
const OP_FORMAT: u8 = 3;
const OP_SHRINK: u8 = 4;
const OP_CHAIN_NEXT: u8 = 5;
const OP_CHAIN_PREV: u8 = 6;
const OP_ADD_SEP: u8 = 7;
const OP_RM_SEP: u8 = 8;
const OP_FREE: u8 = 9;
const OP_ROOT_REPLACE: u8 = 10;
const OP_ROOT_COLLAPSE: u8 = 11;
const OP_RESTORE: u8 = 12;

fn put_opt_key(w: &mut Writer, k: &Option<IndexKey>) {
    w.u8(k.is_some() as u8);
    if let Some(k) = k {
        k.encode_into(w);
    }
}

fn get_opt_key(r: &mut Reader<'_>) -> Result<Option<IndexKey>> {
    if r.u8()? != 0 {
        Ok(Some(IndexKey::decode_from(r)?))
    } else {
        Ok(None)
    }
}

impl IndexBody {
    /// The index this body belongs to (used by logical undo to find the
    /// right tree).
    pub fn index(&self) -> IndexId {
        match self {
            IndexBody::InsertKey { index, .. }
            | IndexBody::DeleteKey { index, .. }
            | IndexBody::PageFormat { index, .. }
            | IndexBody::SplitShrink { index, .. }
            | IndexBody::AddSeparator { index, .. }
            | IndexBody::RemoveSeparator { index, .. }
            | IndexBody::FreePage { index, .. }
            | IndexBody::RootReplace { index, .. }
            | IndexBody::RootCollapse { index, .. }
            | IndexBody::PageRestore { index, .. } => *index,
            // Chain updates don't carry the id (their undo never needs the
            // tree — always page-oriented).
            IndexBody::ChainNext { .. } | IndexBody::ChainPrev { .. } => IndexId(u32::MAX),
        }
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            IndexBody::InsertKey { index, key } => {
                w.u8(OP_INSERT).index_id(*index);
                key.encode_into(&mut w);
            }
            IndexBody::DeleteKey { index, key } => {
                w.u8(OP_DELETE).index_id(*index);
                key.encode_into(&mut w);
            }
            IndexBody::PageFormat {
                index,
                level,
                cells,
                prev,
                next,
                sm_bit,
            } => {
                w.u8(OP_FORMAT)
                    .index_id(*index)
                    .u16(*level)
                    .page_id(*prev)
                    .page_id(*next)
                    .u8(*sm_bit as u8)
                    .raw(&encode_cells_blob(cells));
            }
            IndexBody::SplitShrink {
                index,
                removed,
                old_next,
                new_next,
                dropped_high,
            } => {
                w.u8(OP_SHRINK)
                    .index_id(*index)
                    .page_id(*old_next)
                    .page_id(*new_next);
                put_opt_key(&mut w, dropped_high);
                w.raw(&encode_cells_blob(removed));
            }
            IndexBody::ChainNext { old, new } => {
                w.u8(OP_CHAIN_NEXT).page_id(*old).page_id(*new);
            }
            IndexBody::ChainPrev { old, new } => {
                w.u8(OP_CHAIN_PREV).page_id(*old).page_id(*new);
            }
            IndexBody::AddSeparator {
                index,
                slot,
                sep,
                new_child,
            } => {
                w.u8(OP_ADD_SEP)
                    .index_id(*index)
                    .u16(*slot)
                    .page_id(*new_child);
                sep.encode_into(&mut w);
            }
            IndexBody::RemoveSeparator {
                index,
                slot,
                child,
                old_high,
                dropped_high,
            } => {
                w.u8(OP_RM_SEP).index_id(*index).u16(*slot).page_id(*child);
                put_opt_key(&mut w, old_high);
                put_opt_key(&mut w, dropped_high);
            }
            IndexBody::FreePage {
                index,
                level,
                prev,
                next,
            } => {
                w.u8(OP_FREE)
                    .index_id(*index)
                    .u16(*level)
                    .page_id(*prev)
                    .page_id(*next);
            }
            IndexBody::RootReplace {
                index,
                old_level,
                new_level,
                child,
                old_cells,
            } => {
                w.u8(OP_ROOT_REPLACE)
                    .index_id(*index)
                    .u16(*old_level)
                    .u16(*new_level)
                    .page_id(*child)
                    .raw(&encode_cells_blob(old_cells));
            }
            IndexBody::RootCollapse {
                index,
                old_level,
                old_cells,
            } => {
                w.u8(OP_ROOT_COLLAPSE)
                    .index_id(*index)
                    .u16(*old_level)
                    .raw(&encode_cells_blob(old_cells));
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
                w.u8(OP_RESTORE)
                    .index_id(*index)
                    .u16(*level)
                    .u8(*free as u8)
                    .page_id(*prev)
                    .page_id(*next)
                    .u8(*sm_bit as u8)
                    .u8(*delete_bit as u8)
                    .raw(&encode_cells_blob(cells));
            }
        }
        w.into_vec()
    }

    pub fn decode(buf: &[u8]) -> Result<IndexBody> {
        let mut r = Reader::new(buf);
        let op = r.u8()?;
        Ok(match op {
            OP_INSERT => IndexBody::InsertKey {
                index: r.index_id()?,
                key: IndexKey::decode_from(&mut r)?,
            },
            OP_DELETE => IndexBody::DeleteKey {
                index: r.index_id()?,
                key: IndexKey::decode_from(&mut r)?,
            },
            OP_FORMAT => IndexBody::PageFormat {
                index: r.index_id()?,
                level: r.u16()?,
                prev: r.page_id()?,
                next: r.page_id()?,
                sm_bit: r.u8()? != 0,
                cells: decode_cells_blob(r.rest())?,
            },
            OP_SHRINK => IndexBody::SplitShrink {
                index: r.index_id()?,
                old_next: r.page_id()?,
                new_next: r.page_id()?,
                dropped_high: get_opt_key(&mut r)?,
                removed: decode_cells_blob(r.rest())?,
            },
            OP_CHAIN_NEXT => IndexBody::ChainNext {
                old: r.page_id()?,
                new: r.page_id()?,
            },
            OP_CHAIN_PREV => IndexBody::ChainPrev {
                old: r.page_id()?,
                new: r.page_id()?,
            },
            OP_ADD_SEP => IndexBody::AddSeparator {
                index: r.index_id()?,
                slot: r.u16()?,
                new_child: r.page_id()?,
                sep: IndexKey::decode_from(&mut r)?,
            },
            OP_RM_SEP => IndexBody::RemoveSeparator {
                index: r.index_id()?,
                slot: r.u16()?,
                child: r.page_id()?,
                old_high: get_opt_key(&mut r)?,
                dropped_high: get_opt_key(&mut r)?,
            },
            OP_FREE => IndexBody::FreePage {
                index: r.index_id()?,
                level: r.u16()?,
                prev: r.page_id()?,
                next: r.page_id()?,
            },
            OP_ROOT_REPLACE => IndexBody::RootReplace {
                index: r.index_id()?,
                old_level: r.u16()?,
                new_level: r.u16()?,
                child: r.page_id()?,
                old_cells: decode_cells_blob(r.rest())?,
            },
            OP_ROOT_COLLAPSE => IndexBody::RootCollapse {
                index: r.index_id()?,
                old_level: r.u16()?,
                old_cells: decode_cells_blob(r.rest())?,
            },
            OP_RESTORE => IndexBody::PageRestore {
                index: r.index_id()?,
                level: r.u16()?,
                free: r.u8()? != 0,
                prev: r.page_id()?,
                next: r.page_id()?,
                sm_bit: r.u8()? != 0,
                delete_bit: r.u8()? != 0,
                cells: decode_cells_blob(r.rest())?,
            },
            other => return Err(Error::Internal(format!("bad index body op {other}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ariesim_common::Rid;

    fn key(v: &str) -> IndexKey {
        IndexKey::new(v.as_bytes().to_vec(), Rid::new(PageId(9), 1))
    }

    #[test]
    fn roundtrip_every_variant() {
        let cases = vec![
            IndexBody::InsertKey {
                index: IndexId(1),
                key: key("a"),
            },
            IndexBody::DeleteKey {
                index: IndexId(1),
                key: key("b"),
            },
            IndexBody::PageFormat {
                index: IndexId(2),
                level: 3,
                cells: vec![key("x").encode(), key("y").encode()],
                prev: PageId(4),
                next: PageId::NULL,
                sm_bit: true,
            },
            IndexBody::SplitShrink {
                index: IndexId(1),
                removed: vec![key("m").encode()],
                old_next: PageId::NULL,
                new_next: PageId(8),
                dropped_high: Some(key("h")),
            },
            IndexBody::ChainNext {
                old: PageId(1),
                new: PageId(2),
            },
            IndexBody::ChainPrev {
                old: PageId(3),
                new: PageId(4),
            },
            IndexBody::AddSeparator {
                index: IndexId(1),
                slot: 2,
                sep: key("sep"),
                new_child: PageId(12),
            },
            IndexBody::RemoveSeparator {
                index: IndexId(1),
                slot: 0,
                child: PageId(5),
                old_high: Some(key("h")),
                dropped_high: None,
            },
            IndexBody::RemoveSeparator {
                index: IndexId(1),
                slot: 3,
                child: PageId(5),
                old_high: None,
                dropped_high: Some(key("d")),
            },
            IndexBody::FreePage {
                index: IndexId(1),
                level: 0,
                prev: PageId(1),
                next: PageId(2),
            },
            IndexBody::RootReplace {
                index: IndexId(1),
                old_level: 0,
                new_level: 1,
                child: PageId(7),
                old_cells: vec![key("r").encode()],
            },
            IndexBody::RootCollapse {
                index: IndexId(1),
                old_level: 1,
                old_cells: vec![],
            },
            IndexBody::PageRestore {
                index: IndexId(3),
                level: 0,
                free: false,
                prev: PageId(1),
                next: PageId(2),
                sm_bit: true,
                delete_bit: true,
                cells: vec![key("a").encode()],
            },
        ];
        for c in cases {
            assert_eq!(IndexBody::decode(&c.encode()).unwrap(), c, "{c:?}");
        }
    }

    #[test]
    fn bad_op_is_error() {
        assert!(IndexBody::decode(&[0xEE]).is_err());
        assert!(IndexBody::decode(&[]).is_err());
    }

    #[test]
    fn index_extraction() {
        let b = IndexBody::InsertKey {
            index: IndexId(42),
            key: key("z"),
        };
        assert_eq!(b.index(), IndexId(42));
    }
}
