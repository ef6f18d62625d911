//! Index keys.
//!
//! Per the paper §1.1, "a key in a leaf page is a key-value, record-ID pair".
//! The RID suffix makes every key unique even in a *nonunique* index, which is
//! what lets ARIES/IM lock individual keys rather than key values — the
//! concurrency improvement over ARIES/KVL called out in §1. Ordering is
//! lexicographic on the value bytes, with the RID as tiebreaker.

use crate::codec::{Reader, Writer};
use crate::error::Result;
use crate::ids::Rid;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;

/// A complete index key: (key-value, RID).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct IndexKey {
    pub value: Vec<u8>,
    pub rid: Rid,
}

impl IndexKey {
    pub fn new(value: impl Into<Vec<u8>>, rid: Rid) -> IndexKey {
        IndexKey {
            value: value.into(),
            rid,
        }
    }

    /// Wire encoding: u16 length-prefixed value, then the 6-byte RID.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(self.value.len() + 8);
        w.bytes(&self.value).rid(self.rid);
        w.into_vec()
    }

    pub fn encode_into(&self, w: &mut Writer) {
        w.bytes(&self.value).rid(self.rid);
    }

    pub fn decode(buf: &[u8]) -> Result<IndexKey> {
        let mut r = Reader::new(buf);
        Self::decode_from(&mut r)
    }

    pub fn decode_from(r: &mut Reader<'_>) -> Result<IndexKey> {
        let value = r.bytes()?.to_vec();
        let rid = r.rid()?;
        Ok(IndexKey { value, rid })
    }

    pub fn wire_len(&self) -> usize {
        2 + self.value.len() + Rid::WIRE_LEN
    }
}

impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IndexKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.value
            .cmp(&other.value)
            .then_with(|| self.rid.cmp(&other.rid))
    }
}

impl fmt::Debug for IndexKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match std::str::from_utf8(&self.value) {
            Ok(s) if s.chars().all(|c| !c.is_control()) => {
                write!(f, "⟨{:?}@{}⟩", s, self.rid)
            }
            _ => write!(f, "⟨{:02x?}@{}⟩", self.value, self.rid),
        }
    }
}

/// What the caller hands to a search: a value, optionally qualified by a RID.
///
/// * Unique-index operations and user Fetch calls search by value alone.
/// * Nonunique-index Insert/Delete search with the full (value, RID) key
///   (paper §1.1: "for a nonunique index, the whole new key is provided as
///   input for search").
///
/// A value-only search key compares *before* every full key with the same
/// value, so a search positions at the first duplicate.
#[derive(Clone, PartialEq, Eq)]
pub struct SearchKey<'a> {
    pub value: Cow<'a, [u8]>,
    pub rid: Option<Rid>,
}

impl<'a> SearchKey<'a> {
    pub fn value_only(value: &'a [u8]) -> SearchKey<'a> {
        SearchKey {
            value: Cow::Borrowed(value),
            rid: None,
        }
    }

    pub fn full(value: &'a [u8], rid: Rid) -> SearchKey<'a> {
        SearchKey {
            value: Cow::Borrowed(value),
            rid: Some(rid),
        }
    }

    pub fn from_key(key: &'a IndexKey) -> SearchKey<'a> {
        SearchKey::full(&key.value, key.rid)
    }

    /// Compare against a full key stored on a page.
    pub fn cmp_key(&self, key: &IndexKey) -> Ordering {
        match self.value.as_ref().cmp(&key.value[..]) {
            Ordering::Equal => match self.rid {
                Some(rid) => rid.cmp(&key.rid),
                // Value-only searches sort before all (value, rid) keys.
                None => Ordering::Less,
            },
            ord => ord,
        }
    }

    /// [`Self::cmp_key`] against a key in its wire encoding
    /// ([`IndexKey::encode`]), compared in place: nothing is decoded into
    /// an owned key, so a binary search over a page allocates nothing.
    pub fn cmp_encoded(&self, encoded: &[u8]) -> Result<Ordering> {
        let mut r = Reader::new(encoded);
        Ok(match self.value.as_ref().cmp(r.bytes()?) {
            Ordering::Equal => match self.rid {
                Some(rid) => rid.cmp(&r.rid()?),
                // Value-only searches sort before all (value, rid) keys.
                None => Ordering::Less,
            },
            ord => ord,
        })
    }

    /// True if `key` matches this search key's value (ignoring the RID when
    /// the search is value-only).
    pub fn value_matches(&self, key: &IndexKey) -> bool {
        self.value.as_ref() == &key.value[..]
            && self.rid.is_none_or(|rid| rid == key.rid)
    }
}

impl fmt::Debug for SearchKey<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.rid {
            Some(rid) => write!(
                f,
                "search⟨{}@{}⟩",
                String::from_utf8_lossy(self.value.as_ref()),
                rid
            ),
            None => write!(f, "search⟨{}⟩", String::from_utf8_lossy(self.value.as_ref())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::PageId;

    fn rid(p: u32, s: u16) -> Rid {
        Rid::new(PageId(p), s)
    }

    #[test]
    fn ordering_value_then_rid() {
        let a = IndexKey::new(b"apple".to_vec(), rid(1, 0));
        let b = IndexKey::new(b"apple".to_vec(), rid(1, 1));
        let c = IndexKey::new(b"banana".to_vec(), rid(0, 0));
        assert!(a < b && b < c);
    }

    #[test]
    fn wire_roundtrip() {
        let k = IndexKey::new(b"key-value".to_vec(), rid(42, 7));
        let enc = k.encode();
        assert_eq!(enc.len(), k.wire_len());
        assert_eq!(IndexKey::decode(&enc).unwrap(), k);
    }

    #[test]
    fn empty_value_is_legal() {
        let k = IndexKey::new(Vec::new(), rid(1, 1));
        assert_eq!(IndexKey::decode(&k.encode()).unwrap(), k);
    }

    #[test]
    fn value_only_search_sorts_before_duplicates() {
        let k = IndexKey::new(b"dup".to_vec(), rid(1, 0));
        let s = SearchKey::value_only(b"dup");
        assert_eq!(s.cmp_key(&k), Ordering::Less);
        assert!(s.value_matches(&k));
    }

    #[test]
    fn full_search_orders_by_rid_among_duplicates() {
        let k0 = IndexKey::new(b"dup".to_vec(), rid(1, 0));
        let k1 = IndexKey::new(b"dup".to_vec(), rid(1, 1));
        let s = SearchKey::full(b"dup", rid(1, 1));
        assert_eq!(s.cmp_key(&k0), Ordering::Greater);
        assert_eq!(s.cmp_key(&k1), Ordering::Equal);
        assert!(!s.value_matches(&k0));
        assert!(s.value_matches(&k1));
    }

    #[test]
    fn cmp_encoded_agrees_with_cmp_key() {
        let keys = [
            IndexKey::new(b"dup".to_vec(), rid(1, 0)),
            IndexKey::new(b"dup".to_vec(), rid(1, 1)),
            IndexKey::new(b"dup".to_vec(), rid(2, 0)),
            IndexKey::new(b"du".to_vec(), rid(9, 9)),
            IndexKey::new(b"dupe".to_vec(), rid(0, 0)),
            IndexKey::new(Vec::new(), rid(1, 0)),
        ];
        let searches = [
            SearchKey::value_only(b"dup"),
            SearchKey::value_only(b""),
            SearchKey::full(b"dup", rid(1, 0)),
            SearchKey::full(b"dup", rid(1, 1)),
            SearchKey::full(b"dup", rid(1, 2)),
            SearchKey::full(b"dup", rid(0, 7)),
            SearchKey::full(b"du", rid(9, 9)),
        ];
        for s in &searches {
            for k in &keys {
                assert_eq!(s.cmp_encoded(&k.encode()).unwrap(), s.cmp_key(k), "{s:?} vs {k:?}");
            }
        }
        assert!(SearchKey::value_only(b"dup").cmp_encoded(&[3, 0, b'd']).is_err());
    }

    #[test]
    fn search_key_value_mismatch() {
        let k = IndexKey::new(b"xyz".to_vec(), rid(1, 0));
        assert_eq!(SearchKey::value_only(b"abc").cmp_key(&k), Ordering::Less);
        assert_eq!(SearchKey::value_only(b"zzz").cmp_key(&k), Ordering::Greater);
        assert!(!SearchKey::value_only(b"abc").value_matches(&k));
    }

    #[test]
    fn debug_formats_do_not_panic_on_binary() {
        let k = IndexKey::new(vec![0u8, 255u8], rid(1, 0));
        let _ = format!("{k:?}");
    }
}
