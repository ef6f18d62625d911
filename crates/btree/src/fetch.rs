//! Fetch and Fetch Next — the paper's §2.2–2.3 and Figure 5.
//!
//! Fetch finds the requested key value or, failing that, the **next higher
//! key**, and S-locks whichever it found for commit duration. Locking the
//! next key on the not-found path is what makes repeatable read work: no
//! other transaction can insert the requested value (it would need an
//! instant X lock on our locked key), and an uncommitted delete of the value
//! is detected by tripping on the deleter's commit-duration X next-key lock.
//! When no higher key exists anywhere, the per-index **EOF** name is locked
//! instead.
//!
//! Fetch runs on the primitives insert and delete use ([`crate::step`]):
//! the next-key lookup, the conditional request made **while the leaf latch
//! is held**, the unconditional wait once every latch is released, and the
//! relatch of the noted leaf. If its page_LSN is unchanged, the search
//! starts again on it — the lock waited for is requested once more,
//! conditionally, and granted at once — otherwise it repeats from the root
//! (Figure 5's "backup & search if needed").
//!
//! Fetch Next (§2.3) resumes where the previous call stopped. A [`Cursor`]
//! holds the last key returned, its leaf and that leaf's page_LSN, read
//! while the leaf was S-latched. The next call relatches that leaf. If its
//! page_LSN is unchanged, nothing on it has moved: the search positions
//! after the last key there and finds the next key on it or across the
//! `next` pointer. If the LSN has moved, the call descends from the root by
//! the last key, as Fetch does. A quiet scan therefore pays one descent, in
//! `open_scan`. The test is Figure 5's LSN revalidation applied across
//! calls; DESIGN.md §4 states why it is sound.
//!
//! Fetch Next also runs: [`BTree::fetch_next_run`] locks the next key as
//! Fetch Next does and then, under the same S latch, the keys after it on
//! that leaf by conditional requests, up to the leaf's end, the first denial
//! or the first key at or past a stop value. A range scan then pays one leaf
//! latch per leaf rather than per key, and takes the same locks in the same
//! order.

use crate::node::{leaf_key, leaf_lower_bound};
use crate::traverse::LeafGuard;
use crate::BTree;
use ariesim_common::key::SearchKey;
use ariesim_common::stats::Bump;
use ariesim_common::{Error, IndexKey, Lsn, PageBuf, PageId, Result, Rid};
use ariesim_lock::{LockDuration, LockMode, LockName};
use ariesim_txn::TxnHandle;

/// Start condition of a fetch (§1.1: "a starting condition (=, >, or >=)
/// will also be given").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FetchCond {
    /// Exactly the given value.
    Eq,
    /// First key with value ≥ the given value.
    Ge,
    /// First key with value > the given value.
    Gt,
}

/// Stopping comparison for a range scan (§1.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StopCond {
    /// Continue while the key value is strictly below the stop value.
    Lt,
    /// Continue while ≤ the stop value.
    Le,
    /// Continue only through duplicates of exactly the stop value.
    Eq,
}

/// Result of a fetch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FetchResult {
    /// A key satisfying the condition, S-locked for commit duration.
    Found(IndexKey),
    /// Nothing satisfies it; the next higher key (or EOF) is locked so the
    /// answer stays true until commit (RR).
    NotFound,
}

/// A range-scan cursor (§2.3): the last key returned, its leaf and that
/// leaf's page_LSN, read under the leaf's S latch. [`BTree::fetch_next`]
/// searches on from that leaf while its page_LSN still reads `leaf_lsn`,
/// and descends from the root by `last_key` once it does not.
#[derive(Clone, Debug)]
pub struct Cursor {
    pub(crate) last_key: IndexKey,
    pub(crate) leaf: PageId,
    pub(crate) leaf_lsn: Lsn,
}

/// Search key positioned immediately *after* `after`: the successor RID
/// makes a lower bound return the first key strictly greater than `after`.
pub(crate) fn successor_search(after: &IndexKey) -> SearchKey<'_> {
    let rid = if after.rid.slot.0 < u16::MAX {
        Rid::new(after.rid.page, after.rid.slot.0 + 1)
    } else {
        Rid::new(PageId(after.rid.page.0.wrapping_add(1)), 0)
    };
    SearchKey::full(&after.value, rid)
}

impl BTree {
    /// Fetch per §2.2: returns the first key satisfying (`value`, `cond`),
    /// S-locking it — or the next key / EOF on the not-found path.
    pub fn fetch(&self, txn: &TxnHandle, value: &[u8], cond: FetchCond) -> Result<FetchResult> {
        Ok(match self.fetch_at(txn, value, cond)? {
            Some(at) => FetchResult::Found(at.last_key),
            None => FetchResult::NotFound,
        })
    }

    /// Open a scan at the first key with value ≥ (`Ge`) / > (`Gt`) / = (`Eq`)
    /// `value`. Returns the first key (if any) and a cursor for
    /// [`fetch_next`](Self::fetch_next), positioned where the fetch found it.
    pub fn open_scan(
        &self,
        txn: &TxnHandle,
        value: &[u8],
        cond: FetchCond,
    ) -> Result<(Option<IndexKey>, Option<Cursor>)> {
        let at = self.fetch_at(txn, value, cond)?;
        Ok((at.as_ref().map(|c| c.last_key.clone()), at))
    }

    /// Fetch, returning the found key together with its position; `None`
    /// when nothing satisfies the condition (the next key or EOF is locked).
    fn fetch_at(&self, txn: &TxnHandle, value: &[u8], cond: FetchCond) -> Result<Option<Cursor>> {
        self.stats.index_fetches.bump();
        // Gt must skip every duplicate of `value`: a maximal-RID search key
        // sorts after all of them (no data page has the id u32::MAX).
        let from = match cond {
            FetchCond::Gt => SearchKey::full(value, Rid::new(PageId(u32::MAX), u16::MAX)),
            _ => SearchKey::value_only(value),
        };
        let r = self.locked_first(txn, &SearchKey::value_only(value), &from, None)?;
        Ok(r.map(|(at, ..)| at).filter(|at| cond != FetchCond::Eq || at.last_key.value == value))
    }

    /// Fetch Next per §2.3: the key following the cursor position, S-locked.
    /// Returns `None` at end of index (EOF locked). The caller enforces its
    /// stop condition — the paper's protocol requires the terminating key to
    /// be locked, which has already happened by the time the caller sees it.
    pub fn fetch_next(&self, txn: &TxnHandle, cursor: &mut Cursor) -> Result<Option<IndexKey>> {
        Ok(self.next_run(txn, cursor, None)?.then(|| cursor.last_key.clone()))
    }

    /// Open a scan at the first key with value ≥ `from`, as
    /// [`open_scan`](Self::open_scan) does, and lock a run of the keys after
    /// it as [`fetch_next_run`](Self::fetch_next_run) does. Appends the
    /// locked keys to `run` and returns the cursor at the last of them,
    /// or `None` with EOF locked and `run` untouched.
    pub fn open_run(
        &self,
        txn: &TxnHandle,
        from: &[u8],
        stop: &[u8],
        run: &mut Vec<IndexKey>,
    ) -> Result<Option<Cursor>> {
        self.stats.index_fetches.bump();
        let from = SearchKey::value_only(from);
        let Some((mut at, slot, page)) = self.locked_first(txn, &from, &from, None)? else {
            return Ok(None);
        };
        self.extend_run(txn, page.page(), &mut at, slot, stop, run)?;
        Ok(Some(at))
    }

    /// Fetch Next in runs: lock the key after the cursor exactly as
    /// [`fetch_next`](Self::fetch_next) does, then, under the same S latch,
    /// the keys after it on the same leaf by conditional requests. The run
    /// ends at the end of that leaf, at the first key another transaction
    /// holds (the next call waits for it the Figure 5 way), or right after
    /// the first key with value ≥ `stop`, which is locked like the rest, so
    /// the range edge is protected. Appends the locked keys to `run`, in key
    /// order, and leaves the cursor at the last; returns `false`, with
    /// nothing appended, once EOF is locked.
    pub fn fetch_next_run(
        &self,
        txn: &TxnHandle,
        cursor: &mut Cursor,
        stop: &[u8],
        run: &mut Vec<IndexKey>,
    ) -> Result<bool> {
        self.next_run(txn, cursor, Some((stop, run)))
    }

    /// The one Fetch Next path: lock the key after `cursor`, then extend
    /// `run` along its leaf if one is given.
    fn next_run(
        &self,
        txn: &TxnHandle,
        cursor: &mut Cursor,
        run: Option<(&[u8], &mut Vec<IndexKey>)>,
    ) -> Result<bool> {
        self.stats.index_fetches.bump();
        let last = &cursor.last_key;
        let found = self.locked_first(
            txn,
            &SearchKey::from_key(last),
            &successor_search(last),
            Some((cursor.leaf, cursor.leaf_lsn)),
        )?;
        let Some((at, slot, page)) = found else {
            return Ok(false);
        };
        *cursor = at;
        if let Some((stop, run)) = run {
            self.extend_run(txn, page.page(), cursor, slot, stop, run)?;
        }
        Ok(true)
    }

    /// Append `at`'s key, at `slot` of `page` (its page, still S-latched by
    /// the caller), to `run`, then lock the keys after it on `page`
    /// conditionally, one at a time in key order, until the page ends, a
    /// request is denied, or a key with value ≥ `stop` has been locked. `at`
    /// moves to the last key locked; its page_LSN needs no update, as the
    /// latch has been held throughout.
    fn extend_run(
        &self,
        txn: &TxnHandle,
        page: &PageBuf,
        at: &mut Cursor,
        slot: u16,
        stop: &[u8],
        run: &mut Vec<IndexKey>,
    ) -> Result<()> {
        run.push(at.last_key.clone());
        let mut last = slot;
        while last + 1 < page.slot_count() && run.last().is_some_and(|k| k.value.as_slice() < stop) {
            let k = leaf_key(page, last + 1)?;
            match self.locks.request(
                txn.id,
                self.key_lock(&k),
                LockMode::S,
                LockDuration::Commit,
                true,
            ) {
                Ok(()) => {}
                Err(Error::WouldBlock) => break,
                Err(e) => return Err(e),
            }
            last += 1;
            run.push(k);
        }
        self.stats.index_fetches.add(u64::from(last - slot));
        if let Some(k) = run.last().filter(|_| last != slot) {
            at.last_key = k.clone();
        }
        Ok(())
    }

    /// The first key ≥ `from`, S-locked for commit duration, as a cursor at
    /// it, with its slot and the S-latched page it sits on — or `None` with
    /// the EOF name locked (§2.2, Figure 5).
    ///
    /// The first attempt starts on `resume`'s leaf if its page_LSN still
    /// reads `resume`'s; every other attempt starts on the leaf a descent by
    /// `descend` reaches, or on the leaf a wait left, if unchanged. Either
    /// way the search positions at the first key ≥ `from`.
    fn locked_first(
        &self,
        txn: &TxnHandle,
        descend: &SearchKey<'_>,
        from: &SearchKey<'_>,
        mut resume: Option<(PageId, Lsn)>,
    ) -> Result<Option<(Cursor, u16, LeafGuard<'_>)>> {
        loop {
            let relatched = match resume.take() {
                Some((leaf, lsn)) => self.relatch(leaf, lsn, false)?,
                None => None,
            };
            let leaf = match relatched {
                Some(leaf) => leaf,
                None => self.traverse(descend, false, false)?,
            };
            let idx = leaf_lower_bound(leaf.page(), from)?;
            let Some(next) = self.next_key_lock(leaf.page(), idx, from)? else {
                drop(leaf);
                self.tree_instant_s();
                continue;
            };
            let denied =
                self.try_lock(txn, leaf.page(), next.name, LockMode::S, LockDuration::Commit)?;
            if let Some(wait) = denied {
                // Figure 5: every latch is released before the wait.
                drop((next.neighbour, leaf));
                resume = Some(self.wait(txn, wait)?);
                continue;
            }
            // The position is read while the key's page is latched; a key on
            // the right neighbour lets go of `leaf`.
            return Ok(next.key.map(|last_key| {
                let page = next.neighbour.map_or(leaf, LeafGuard::S);
                let at = Cursor {
                    last_key,
                    leaf: page.page_id(),
                    leaf_lsn: page.lsn(),
                };
                (at, next.slot, page)
            }));
        }
    }

    /// Fetch by key-value *prefix* (§1.1: "a key value or a partial key
    /// value (its prefix)"): returns the first key whose value starts with
    /// `prefix`, S-locked commit duration — or NotFound with the next key /
    /// EOF locked, exactly like [`fetch`](Self::fetch).
    pub fn fetch_prefix(&self, txn: &TxnHandle, prefix: &[u8]) -> Result<FetchResult> {
        match self.fetch(txn, prefix, FetchCond::Ge)? {
            FetchResult::Found(k) if k.value.starts_with(prefix) => {
                Ok(FetchResult::Found(k))
            }
            // The next key was locked either way, so the "no key with this
            // prefix" answer is repeatable.
            _ => Ok(FetchResult::NotFound),
        }
    }

    /// Fetch Next with the paper's stopping specification (§1.1: "a stopping
    /// key and a comparison operator (<, =, or <=)"): returns `None` once
    /// the next key falls outside the bound. The terminating key has been
    /// locked by then, so the range edge is RR-protected either way.
    pub fn fetch_next_until(
        &self,
        txn: &TxnHandle,
        cursor: &mut Cursor,
        stop_value: &[u8],
        stop: StopCond,
    ) -> Result<Option<IndexKey>> {
        match self.fetch_next(txn, cursor)? {
            Some(k) => {
                let within = match stop {
                    StopCond::Lt => k.value.as_slice() < stop_value,
                    StopCond::Le => k.value.as_slice() <= stop_value,
                    StopCond::Eq => k.value.as_slice() == stop_value,
                };
                Ok(within.then_some(k))
            }
            None => Ok(None),
        }
    }

    /// Lock name of an arbitrary lockable key (test helper).
    pub fn lock_name_of(&self, key: &IndexKey) -> LockName {
        self.key_lock(key)
    }
}
