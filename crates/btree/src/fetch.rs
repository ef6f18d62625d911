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
//! Locks are requested **conditionally while the leaf latch is held**; if
//! denied, the page LSN is noted, every latch released, the lock awaited
//! unconditionally, and the leaf re-latched — if its LSN is unchanged the
//! previously inferred answer still holds, otherwise the search repeats
//! (Figure 5's "backup & search if needed").
//!
//! Fetch Next (§2.3) resumes where the previous call stopped. A [`Cursor`]
//! holds the last key returned, its leaf, that leaf's page_LSN and the key's
//! slot, all read while the leaf was S-latched. The next call S-latches that
//! leaf again. If its page_LSN is unchanged, nothing on it has moved, and the
//! next key is at the following slot or across the `next` pointer. If the
//! LSN has moved, the call descends from the root by the last key, as Fetch
//! does. A quiet scan therefore pays one descent, in `open_scan`. The test is
//! Figure 5's LSN revalidation applied across calls; DESIGN.md §4 states
//! why it is sound.
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
use ariesim_common::page::PageType;
use ariesim_common::stats::Bump;
use ariesim_common::{Error, IndexKey, Lsn, PageBuf, PageId, Result, Rid};
use ariesim_lock::{LockDuration, LockMode, LockName};
use ariesim_storage::PageReadGuard;
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

/// A range-scan cursor (§2.3): the last key returned, and where it sat when
/// it was returned — its leaf, that leaf's page_LSN and its slot, read under
/// the leaf's S latch. [`BTree::fetch_next`] continues at `slot + 1` while
/// the leaf's page_LSN still reads `leaf_lsn`, and descends from the root by
/// `last_key` once it does not.
#[derive(Clone, Debug)]
pub struct Cursor {
    pub(crate) last_key: IndexKey,
    pub(crate) leaf: PageId,
    pub(crate) leaf_lsn: Lsn,
    pub(crate) slot: u16,
}

/// Where the key following a position lives.
pub(crate) enum NextKey<'p> {
    /// At the given position on the same (still latched by caller) page.
    OnPage(IndexKey),
    /// At the given slot of a leaf to the right; the guard keeps it latched.
    OnNext(IndexKey, u16, PageReadGuard<'p>),
    /// No higher key exists in the index.
    Eof,
    /// The right neighbour is empty or not a valid leaf — an SMO is in
    /// flight; wait for it and retry.
    Ambiguous,
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
    /// Find the key at `from_slot` on `leaf`, or the first key ≥ `search`
    /// on a leaf to the right (paper §2.2's "the next leaf would be latched
    /// and accessed while continuing to hold the latch on the first leaf").
    ///
    /// The walk *searches* each page rather than taking its first key: a
    /// concurrent split may have moved the relevant keys to a right sibling
    /// whose first key still sorts below `search`. The caller keeps `leaf`
    /// latched, so the walk itself holds one chain page at a time: a hop
    /// beyond the first neighbour releases the page it leaves before
    /// latching the next one (two page latches in all, the paper's budget)
    /// and then checks that page's `prev` pointer. A page deleted, or
    /// re-created by a split of the page just left, in that window shows a
    /// different `prev` (or is no leaf of this index at all) and makes the
    /// walk [`NextKey::Ambiguous`].
    pub(crate) fn next_key_after(
        &self,
        leaf: &PageBuf,
        from_slot: u16,
        search: &SearchKey<'_>,
    ) -> Result<NextKey<'_>> {
        if from_slot < leaf.slot_count() {
            return Ok(NextKey::OnPage(leaf_key(leaf, from_slot)?));
        }
        let mut prev = leaf.page_id();
        let mut next = leaf.next();
        loop {
            if next.is_null() {
                return Ok(NextKey::Eof);
            }
            let g = self.pool.fix_s(next)?;
            if !(self.is_own_leaf(&g) && g.prev() == prev) {
                return Ok(NextKey::Ambiguous);
            }
            let idx = leaf_lower_bound(&g, search)?;
            if idx < g.slot_count() {
                let k = leaf_key(&g, idx)?;
                return Ok(NextKey::OnNext(k, idx, g));
            }
            // Nothing ≥ search here (page emptied or shrunk by an SMO, a gap
            // between a split's halves, or a run of duplicates below a
            // maximal-RID search): keep walking.
            prev = next;
            next = g.next();
        }
    }

    /// Is `page` a leaf of this index (and not a freed page, a page of
    /// another index, a nonleaf or a heap page that reuses the id)?
    fn is_own_leaf(&self, page: &PageBuf) -> bool {
        matches!(page.page_type(), Ok(PageType::IndexLeaf))
            && page.owner() == self.index_id.0
            && page.level() == 0
    }

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
        Ok(r.map(|(at, _)| at).filter(|at| cond != FetchCond::Eq || at.last_key.value == value))
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
        let Some((mut at, page)) = self.locked_first(txn, &from, &from, None)? else {
            return Ok(None);
        };
        self.extend_run(txn, page.page(), &mut at, stop, run)?;
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
            Some(&*cursor),
        )?;
        let Some((at, page)) = found else {
            return Ok(false);
        };
        *cursor = at;
        if let Some((stop, run)) = run {
            self.extend_run(txn, page.page(), cursor, stop, run)?;
        }
        Ok(true)
    }

    /// Append `at`'s key to `run`, then lock the keys after it on `page`
    /// (`at`'s page, still S-latched by the caller) conditionally, one at a
    /// time in key order, until the page ends, a request is denied, or a key
    /// with value ≥ `stop` has been locked. `at` moves to the last key
    /// locked; its page_LSN needs no update, as the latch has been held
    /// throughout.
    fn extend_run(
        &self,
        txn: &TxnHandle,
        page: &PageBuf,
        at: &mut Cursor,
        stop: &[u8],
        run: &mut Vec<IndexKey>,
    ) -> Result<()> {
        run.push(at.last_key.clone());
        let mut slot = at.slot;
        while slot + 1 < page.slot_count() && run.last().is_some_and(|k| k.value.as_slice() < stop) {
            let k = leaf_key(page, slot + 1)?;
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
            slot += 1;
            run.push(k);
        }
        self.stats.index_fetches.add(u64::from(slot - at.slot));
        if let Some(k) = run.last().filter(|_| slot != at.slot) {
            at.last_key = k.clone();
            at.slot = slot;
        }
        Ok(())
    }

    /// The first key ≥ `from`, S-locked for commit duration, where it sits,
    /// and the S-latched page it sits on — or `None` with the EOF name
    /// locked (§2.2, Figure 5).
    ///
    /// The first attempt starts on `resume`'s leaf, at the slot after its
    /// key, if that leaf is unchanged; every other attempt starts on the
    /// leaf a descent by `descend` reaches, at the first key ≥ `from`.
    fn locked_first(
        &self,
        txn: &TxnHandle,
        descend: &SearchKey<'_>,
        from: &SearchKey<'_>,
        mut resume: Option<&Cursor>,
    ) -> Result<Option<(Cursor, LeafGuard<'_>)>> {
        loop {
            let remembered = match resume.take() {
                Some(c) => self.remembered_leaf(c)?,
                None => None,
            };
            let (leaf, idx) = match remembered {
                Some(at) => at,
                None => {
                    let leaf = self.traverse(descend, false, false)?;
                    let idx = leaf_lower_bound(leaf.page(), from)?;
                    (leaf, idx)
                }
            };
            let found = match self.next_key_after(leaf.page(), idx, from)? {
                NextKey::OnPage(k) => Some((k, idx, None)),
                NextKey::OnNext(k, slot, g) => Some((k, slot, Some(g))),
                NextKey::Eof => None,
                NextKey::Ambiguous => {
                    drop(leaf);
                    self.tree_instant_s();
                    continue;
                }
            };
            let lock = match &found {
                Some((k, _, _)) => self.key_lock(k),
                None => self.eof_lock(),
            };
            match self.locks.request(
                txn.id,
                lock.clone(),
                LockMode::S,
                LockDuration::Commit,
                true,
            ) {
                Ok(()) => {
                    // The position is read while the key's page is latched;
                    // a key on the right neighbour lets go of `leaf`.
                    return Ok(found.map(|(k, slot, next)| {
                        let page = next.map_or(leaf, LeafGuard::S);
                        let at = Cursor {
                            last_key: k,
                            leaf: page.page_id(),
                            leaf_lsn: page.lsn(),
                            slot,
                        };
                        (at, page)
                    }));
                }
                Err(Error::WouldBlock) => {
                    // Figure 5: note LSN, unlatch, wait, revalidate.
                    let noted = leaf.lsn();
                    let leaf_id = leaf.page_id();
                    let on_leaf = matches!(&found, Some((_, _, None)));
                    drop(found);
                    drop(leaf);
                    self.locks
                        .request(txn.id, lock, LockMode::S, LockDuration::Commit, false)?;
                    if on_leaf {
                        // Every latch was released before the lock wait.
                        let g = self.pool.fix_s(leaf_id)?;
                        if g.page_lsn() == noted {
                            // Nothing changed while we waited: the answer
                            // stands, still at `idx`.
                            let at = Cursor {
                                last_key: leaf_key(&g, idx)?,
                                leaf: leaf_id,
                                leaf_lsn: noted,
                                slot: idx,
                            };
                            return Ok(Some((at, LeafGuard::S(g))));
                        }
                    }
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// `c`'s leaf, S-latched, with the slot after `c`'s key — if the leaf's
    /// page_LSN still reads `c.leaf_lsn`, else `None` (latch released).
    /// Every change to a leaf's keys, chain pointers or identity is logged
    /// and moves its page_LSN (DESIGN.md §4), so an equal LSN means the key
    /// still sits at `c.slot` and no key after it has moved.
    fn remembered_leaf(&self, c: &Cursor) -> Result<Option<(LeafGuard<'_>, u16)>> {
        let g = self.pool.fix_s(c.leaf)?; // a cursor holds no latch between calls
        let unchanged = g.page_lsn() == c.leaf_lsn && self.is_own_leaf(&g);
        Ok(unchanged.then(|| (LeafGuard::S(g), c.slot + 1)))
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

    /// Unlocked full scan (verification and examples only — takes no locks,
    /// so it sees uncommitted state).
    pub fn scan_all_unlocked(&self) -> Result<Vec<IndexKey>> {
        let mut out = Vec::new();
        // Find the leftmost leaf.
        let mut g = self.pool.fix_s(self.root)?;
        while g.level() > 0 {
            let child = crate::node::node_cell(&g, 0)?.child;
            let cg = self.pool.fix_s(child)?;
            drop(g);
            g = cg;
        }
        loop {
            for i in 0..g.slot_count() {
                out.push(leaf_key(&g, i)?);
            }
            let next = g.next();
            if next.is_null() {
                break;
            }
            let ng = self.pool.fix_s(next)?;
            drop(g);
            g = ng;
        }
        Ok(out)
    }

    /// Unlocked point lookup: the first key whose value equals `value`, or
    /// `None`. Latch-only — no locks are requested, so the caller provides
    /// isolation (a replication standby excludes its redo applier for the
    /// duration of the read; verification accepts racy answers). Returns
    /// [`Error::WouldBlock`] when the leaf chain is mid-SMO and the answer
    /// is ambiguous; retry once the structure settles.
    pub fn get_unlocked(&self, value: &[u8]) -> Result<Option<IndexKey>> {
        let search = SearchKey::value_only(value);
        let leaf = self.traverse(&search, false, false)?;
        let idx = leaf_lower_bound(leaf.page(), &search)?;
        match self.next_key_after(leaf.page(), idx, &search)? {
            NextKey::OnPage(k) | NextKey::OnNext(k, _, _) => {
                Ok((k.value.as_slice() == value).then_some(k))
            }
            NextKey::Eof => Ok(None),
            NextKey::Ambiguous => Err(Error::WouldBlock),
        }
    }

    /// Lock name of an arbitrary lockable key (test helper).
    pub fn lock_name_of(&self, key: &IndexKey) -> LockName {
        self.key_lock(key)
    }
}
