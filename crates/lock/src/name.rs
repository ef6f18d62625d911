//! Lock names: what can be locked.
//!
//! ARIES/IM's headline idea (§2.1) is *data-only locking*: "to lock a key,
//! ARIES/IM locks the record whose record ID is present in the key". So the
//! index manager and the record manager lock the **same** [`LockName::Record`]
//! names, and a single lock covers both the data and every index entry
//! derived from it. The alternatives the paper compares against —
//! index-specific locking and ARIES/KVL — lock [`LockName::KeyValue`] names.
//! [`LockName::Eof`] is the "special lock name unique to this index" used
//! when a fetch finds no higher key (§2.2).

use ariesim_common::{IndexId, PageId, Rid};
use std::fmt;

/// A lockable object's name.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LockName {
    /// A data page: used when the locking granularity of a table is `page`
    /// rather than `record` ("or the data page ID which is part of the record
    /// ID, if the locking granularity is a page", §2.1).
    Page(PageId),
    /// A record in a data page: the name data-only locking uses for keys.
    Record(Rid),
    /// A key *value* in an index: index-specific locking and ARIES/KVL.
    KeyValue(IndexId, Vec<u8>),
    /// The end-of-file name of an index, locked when a search runs off the
    /// right edge (§2.2).
    Eof(IndexId),
}

impl LockName {
    /// The record name for a key, honouring the table's locking granularity:
    /// record-granularity locks the RID, page-granularity locks the RID's
    /// data page (§2.1).
    pub fn for_data(rid: Rid, page_granularity: bool) -> LockName {
        if page_granularity {
            LockName::Page(rid.page)
        } else {
            LockName::Record(rid)
        }
    }

    pub fn key_value(index: IndexId, value: impl Into<Vec<u8>>) -> LockName {
        LockName::KeyValue(index, value.into())
    }
}

impl fmt::Debug for LockName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockName::Page(p) => write!(f, "L:{p}"),
            LockName::Record(r) => write!(f, "L:{r}"),
            LockName::KeyValue(i, v) => {
                write!(f, "L:{i}:{}", String::from_utf8_lossy(v))
            }
            LockName::Eof(i) => write!(f, "L:{i}:EOF"),
        }
    }
}

impl fmt::Display for LockName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn granularity_selects_name() {
        let rid = Rid::new(PageId(3), 4);
        assert_eq!(LockName::for_data(rid, false), LockName::Record(rid));
        assert_eq!(LockName::for_data(rid, true), LockName::Page(PageId(3)));
    }

    #[test]
    fn distinct_names_are_unequal() {
        let rid = Rid::new(PageId(3), 4);
        let names = [
            LockName::Page(PageId(3)),
            LockName::Record(rid),
            LockName::key_value(IndexId(1), b"k".to_vec()),
            LockName::key_value(IndexId(2), b"k".to_vec()),
            LockName::key_value(IndexId(1), b"k2".to_vec()),
            LockName::Eof(IndexId(1)),
            LockName::Eof(IndexId(2)),
        ];
        for (i, a) in names.iter().enumerate() {
            for (j, b) in names.iter().enumerate() {
                assert_eq!(a == b, i == j, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn hashable_in_map() {
        use std::collections::HashMap;
        let mut m = HashMap::new();
        m.insert(LockName::Eof(IndexId(9)), 1);
        m.insert(LockName::key_value(IndexId(9), b"a".to_vec()), 2);
        assert_eq!(m[&LockName::Eof(IndexId(9))], 1);
    }
}
