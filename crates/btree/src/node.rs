//! Index page cell formats and search helpers.
//!
//! Leaf cells are encoded [`IndexKey`]s kept in sorted order. Nonleaf cells
//! are [`NodeCell`]s: a child pointer plus an optional *high key* — the paper
//! §1.1 architecture where "every nonleaf page contains a certain number of
//! child page pointers and one less number of high keys", the rightmost
//! child having none. A child's high key is strictly greater than every key
//! actually stored in that child's subtree.

use ariesim_common::codec::{Reader, Writer};
use ariesim_common::key::SearchKey;
use ariesim_common::{Error, IndexKey, PageBuf, PageId, Result};
use std::cmp::Ordering;

/// One nonleaf cell: a child pointer and (except for the rightmost cell) its
/// high key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeCell {
    pub child: PageId,
    /// `None` only for the rightmost cell of a nonleaf page.
    pub high_key: Option<IndexKey>,
}

impl NodeCell {
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u8(self.high_key.is_some() as u8).page_id(self.child);
        if let Some(k) = &self.high_key {
            k.encode_into(&mut w);
        }
        w.into_vec()
    }

    pub fn decode(buf: &[u8]) -> Result<NodeCell> {
        let mut r = Reader::new(buf);
        let has_high = r.u8()? != 0;
        let child = r.page_id()?;
        let high_key = if has_high {
            Some(IndexKey::decode_from(&mut r)?)
        } else {
            None
        };
        Ok(NodeCell { child, high_key })
    }

    /// The still-encoded high key of an encoded cell, or `None` if it has
    /// none: what [`Self::decode`] would decode, left in place.
    pub fn encoded_high_key(buf: &[u8]) -> Result<Option<&[u8]>> {
        let mut r = Reader::new(buf);
        let has_high = r.u8()? != 0;
        r.page_id()?;
        Ok(has_high.then(|| r.rest()))
    }
}

/// The raw bytes of the cell at slot `i`; `what` names it in the error.
fn cell<'p>(page: &'p PageBuf, i: u16, what: &str) -> Result<&'p [u8]> {
    page.cell(i).ok_or_else(|| Error::CorruptPage {
        page: page.page_id(),
        reason: format!("missing {what} cell {i}"),
    })
}

/// Decode the leaf key at slot `i`.
pub fn leaf_key(page: &PageBuf, i: u16) -> Result<IndexKey> {
    IndexKey::decode(cell(page, i, "leaf")?)
}

/// Decode the nonleaf cell at slot `i`.
pub fn node_cell(page: &PageBuf, i: u16) -> Result<NodeCell> {
    NodeCell::decode(cell(page, i, "node")?)
}

/// Binary-search a leaf for the first slot whose key is ≥ `search`.
/// Returns `slot_count` if every key is smaller.
pub fn leaf_lower_bound(page: &PageBuf, search: &SearchKey<'_>) -> Result<u16> {
    let (mut lo, mut hi) = (0u16, page.slot_count());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match search.cmp_encoded(cell(page, mid, "leaf")?)? {
            Ordering::Greater => lo = mid + 1,
            _ => hi = mid,
        }
    }
    Ok(lo)
}

/// Does the leaf contain exactly `key`?
pub fn leaf_contains(page: &PageBuf, key: &IndexKey) -> Result<Option<u16>> {
    let idx = leaf_lower_bound(page, &SearchKey::from_key(key))?;
    if idx < page.slot_count() && leaf_key(page, idx)? == *key {
        Ok(Some(idx))
    } else {
        Ok(None)
    }
}

/// Insert `key` into a leaf at its sorted position. Fails with
/// [`Error::TooLarge`] when the page is full.
pub fn leaf_insert(page: &mut PageBuf, key: &IndexKey) -> Result<u16> {
    let idx = leaf_lower_bound(page, &SearchKey::from_key(key))?;
    debug_assert!(
        !(idx < page.slot_count() && leaf_key(page, idx)? == *key),
        "duplicate full key {key:?} in leaf {}",
        page.page_id()
    );
    page.insert_cell_at(idx, &key.encode())?;
    Ok(idx)
}

/// Remove `key` from a leaf. Errors if absent.
pub fn leaf_remove(page: &mut PageBuf, key: &IndexKey) -> Result<u16> {
    match leaf_contains(page, key)? {
        Some(idx) => {
            page.delete_cell_at(idx)?;
            Ok(idx)
        }
        None => Err(Error::NotFound),
    }
}

/// All keys of a leaf, in order (checker/SMO use).
pub fn leaf_keys(page: &PageBuf) -> Result<Vec<IndexKey>> {
    (0..page.slot_count()).map(|i| leaf_key(page, i)).collect()
}

/// All cells of a nonleaf, in order.
pub fn node_cells(page: &PageBuf) -> Result<Vec<NodeCell>> {
    (0..page.slot_count()).map(|i| node_cell(page, i)).collect()
}

/// The largest high key stored in a nonleaf page — the "highest key in
/// child" of Figure 4's ambiguity test. `None` if the page has at most one
/// cell (only a rightmost child, which carries no high key).
pub fn node_highest_high_key(page: &PageBuf) -> Result<Option<IndexKey>> {
    let n = page.slot_count();
    if n < 2 {
        return Ok(None);
    }
    // Cells are ordered; the last cell with a high key is at n-2.
    Ok(node_cell(page, n - 2)?.high_key)
}

/// Choose the child to descend into for `search`: the first cell whose high
/// key is strictly greater than the search key; the rightmost cell if none.
///
/// Returns `(slot, child)`. Errors on an empty nonleaf (the caller treats
/// that as the Figure 4 ambiguous case before ever calling this).
pub fn node_search(page: &PageBuf, search: &SearchKey<'_>) -> Result<(u16, PageId)> {
    let n = page.slot_count();
    if n == 0 {
        return Err(Error::CorruptPage {
            page: page.page_id(),
            reason: "search in empty nonleaf".into(),
        });
    }
    // Binary search over the high-keyed prefix [0, n-1).
    let (mut lo, mut hi) = (0u16, n - 1);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let Some(high) = NodeCell::encoded_high_key(cell(page, mid, "node")?)? else {
            return Err(Error::CorruptPage {
                page: page.page_id(),
                reason: format!("cell {mid} of {} missing high key", page.page_id()),
            });
        };
        // Child covers keys strictly below its high key.
        match search.cmp_encoded(high)? {
            Ordering::Less => hi = mid,
            _ => lo = mid + 1,
        }
    }
    Ok((lo, node_cell(page, lo)?.child))
}

/// Find the slot of the cell pointing at `child`. Errors if absent.
pub fn node_find_child(page: &PageBuf, child: PageId) -> Result<u16> {
    for i in 0..page.slot_count() {
        if node_cell(page, i)?.child == child {
            return Ok(i);
        }
    }
    Err(Error::CorruptPage {
        page: page.page_id(),
        reason: format!("no cell points at {child}"),
    })
}

/// Encode a list of raw cells (leaf keys or node cells, already encoded)
/// into a blob for a log record: u16 count then u16-length-prefixed cells.
pub fn encode_cells_blob(cells: &[Vec<u8>]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u16(cells.len() as u16);
    for c in cells {
        w.bytes(c);
    }
    w.into_vec()
}

/// Decode a blob written by [`encode_cells_blob`].
pub fn decode_cells_blob(buf: &[u8]) -> Result<Vec<Vec<u8>>> {
    let mut r = Reader::new(buf);
    let n = r.u16()?;
    (0..n).map(|_| Ok(r.bytes()?.to_vec())).collect()
}

/// Raw cell bytes of a page, in slot order.
pub fn raw_cells(page: &PageBuf) -> Result<Vec<Vec<u8>>> {
    (0..page.slot_count())
        .map(|i| {
            page.cell(i)
                .map(|c| c.to_vec())
                .ok_or_else(|| Error::CorruptPage {
                    page: page.page_id(),
                    reason: format!("dead slot {i} on index page"),
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ariesim_common::page::PageType;
    use ariesim_common::Rid;

    fn key(v: &str, slot: u16) -> IndexKey {
        IndexKey::new(v.as_bytes().to_vec(), Rid::new(PageId(100), slot))
    }

    fn leaf_with(keys: &[IndexKey]) -> PageBuf {
        let mut p = PageBuf::zeroed();
        p.format(PageId(1), PageType::IndexLeaf, 1, 0);
        for k in keys {
            leaf_insert(&mut p, k).unwrap();
        }
        p
    }

    #[test]
    fn leaf_insert_keeps_sorted_order() {
        let p = leaf_with(&[key("m", 0), key("a", 0), key("z", 0), key("m", 1)]);
        let keys = leaf_keys(&p).unwrap();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(keys.len(), 4);
    }

    #[test]
    fn leaf_lower_bound_value_only_and_full() {
        let p = leaf_with(&[key("b", 0), key("b", 1), key("d", 0)]);
        assert_eq!(leaf_lower_bound(&p, &SearchKey::value_only(b"a")).unwrap(), 0);
        assert_eq!(leaf_lower_bound(&p, &SearchKey::value_only(b"b")).unwrap(), 0);
        assert_eq!(
            leaf_lower_bound(&p, &SearchKey::full(b"b", Rid::new(PageId(100), 1))).unwrap(),
            1
        );
        assert_eq!(leaf_lower_bound(&p, &SearchKey::value_only(b"c")).unwrap(), 2);
        assert_eq!(leaf_lower_bound(&p, &SearchKey::value_only(b"z")).unwrap(), 3);
    }

    #[test]
    fn leaf_contains_and_remove() {
        let k = key("q", 3);
        let mut p = leaf_with(&[key("a", 0), k.clone(), key("z", 0)]);
        assert_eq!(leaf_contains(&p, &k).unwrap(), Some(1));
        assert_eq!(leaf_remove(&mut p, &k).unwrap(), 1);
        assert_eq!(leaf_contains(&p, &k).unwrap(), None);
        assert!(matches!(leaf_remove(&mut p, &k), Err(Error::NotFound)));
    }

    #[test]
    fn node_cell_roundtrip() {
        let with_high = NodeCell {
            child: PageId(5),
            high_key: Some(key("sep", 0)),
        };
        let rightmost = NodeCell {
            child: PageId(6),
            high_key: None,
        };
        assert_eq!(NodeCell::decode(&with_high.encode()).unwrap(), with_high);
        assert_eq!(NodeCell::decode(&rightmost.encode()).unwrap(), rightmost);
    }

    fn nonleaf_with(cells: &[NodeCell]) -> PageBuf {
        let mut p = PageBuf::zeroed();
        p.format(PageId(2), PageType::IndexNonLeaf, 1, 1);
        for (i, c) in cells.iter().enumerate() {
            p.insert_cell_at(i as u16, &c.encode()).unwrap();
        }
        p
    }

    #[test]
    fn node_search_routes_by_high_key() {
        // children: A covers < "g", B covers < "p", C rightmost.
        let p = nonleaf_with(&[
            NodeCell {
                child: PageId(10),
                high_key: Some(key("g", 0)),
            },
            NodeCell {
                child: PageId(11),
                high_key: Some(key("p", 0)),
            },
            NodeCell {
                child: PageId(12),
                high_key: None,
            },
        ]);
        assert_eq!(
            node_search(&p, &SearchKey::value_only(b"a")).unwrap(),
            (0, PageId(10))
        );
        // Equal to a high key routes right (high key strictly greater than
        // everything in the child). A value-only search for "g" compares less
        // than the full high key ("g", rid) so it routes left — which is
        // correct: a duplicate ("g", small-rid) could live in A.
        assert_eq!(
            node_search(&p, &SearchKey::value_only(b"g")).unwrap().1,
            PageId(10)
        );
        assert_eq!(
            node_search(&p, &SearchKey::full(b"g", Rid::new(PageId(100), 0)))
                .unwrap()
                .1,
            PageId(11)
        );
        assert_eq!(
            node_search(&p, &SearchKey::value_only(b"k")).unwrap().1,
            PageId(11)
        );
        assert_eq!(
            node_search(&p, &SearchKey::value_only(b"zzz")).unwrap().1,
            PageId(12)
        );
    }

    #[test]
    fn node_highest_high_key_rules() {
        let only_rightmost = nonleaf_with(&[NodeCell {
            child: PageId(10),
            high_key: None,
        }]);
        assert_eq!(node_highest_high_key(&only_rightmost).unwrap(), None);
        let two = nonleaf_with(&[
            NodeCell {
                child: PageId(10),
                high_key: Some(key("m", 0)),
            },
            NodeCell {
                child: PageId(11),
                high_key: None,
            },
        ]);
        assert_eq!(node_highest_high_key(&two).unwrap(), Some(key("m", 0)));
    }

    #[test]
    fn node_find_child_works() {
        let p = nonleaf_with(&[
            NodeCell {
                child: PageId(10),
                high_key: Some(key("m", 0)),
            },
            NodeCell {
                child: PageId(11),
                high_key: None,
            },
        ]);
        assert_eq!(node_find_child(&p, PageId(11)).unwrap(), 1);
        assert!(node_find_child(&p, PageId(99)).is_err());
    }

    #[test]
    fn cells_blob_roundtrip() {
        let cells = vec![b"one".to_vec(), Vec::new(), b"three".to_vec()];
        let blob = encode_cells_blob(&cells);
        assert_eq!(decode_cells_blob(&blob).unwrap(), cells);
        assert_eq!(decode_cells_blob(&encode_cells_blob(&[])).unwrap().len(), 0);
    }

    #[test]
    fn raw_cells_matches_inserted() {
        let p = leaf_with(&[key("a", 0), key("b", 0)]);
        let raw = raw_cells(&p).unwrap();
        assert_eq!(raw.len(), 2);
        assert_eq!(IndexKey::decode(&raw[0]).unwrap(), key("a", 0));
    }
}
