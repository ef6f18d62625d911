//! The leaf step insert and delete share, and the four primitives every
//! index operation — fetch, Fetch Next, insert and delete — runs on: one
//! copy of the protocol the paper gives them all (§2.2, Figure 5).
//!
//! * **The next key** (`BTree::next_key_lock`): the key after a position,
//!   on the leaf or to its right, or EOF, with its lock name and slot.
//! * **§2.2's rule** (`BTree::try_lock`): a lock wanted while latches are
//!   held is requested conditionally. A denial hands the request back as a
//!   [`Wait`], noting the leaf and its page_LSN.
//! * **The wait** (`BTree::wait`): the one unconditional request, made once
//!   the caller has released every latch (§4: no lock is waited for under a
//!   latch, and the tree latch is a latch).
//! * **The relatch** (`BTree::relatch`): after the wait, the noted leaf is
//!   latched again. If its page_LSN has not moved, the next attempt starts
//!   on it; otherwise it descends from the root (Figure 5's "backup & search
//!   if needed"). DESIGN.md §4 states why an unchanged page_LSN keeps the
//!   leaf's keys, chain pointers and identity as they were.
//!
//! Insert and delete add **Figure 2's table** (`BTree::lock_plan`): which
//! keys they lock, in which mode, for how long, under each protocol.
//!
//! An attempt traverses to the leaf, X-latched, or relatches it after a
//! wait, and takes `BTree::leaf_step`. The step asks for the tree latch when
//! it needs it, and the next attempt holds it from its descent on: S across
//! a boundary-key delete (Figure 7), X across a split (Figures 8 and 9: the
//! split first, the insert after) and across a delete that empties a leaf
//! (Figures 8 and 10: the key delete first, the page deletion after).

use crate::apply::apply_logged;
use crate::body::IndexBody;
use crate::node::{leaf_key, leaf_lower_bound};
use crate::traverse::LeafGuard;
use crate::{BTree, LockProtocol};
use ariesim_common::key::SearchKey;
use ariesim_common::page::PageType;
use ariesim_common::slotted::SLOT_LEN;
use ariesim_common::stats::Bump;
use ariesim_common::{Error, IndexKey, Lsn, PageBuf, PageId, Result};
use ariesim_fault::crash_point;
use ariesim_lock::{LockDuration, LockMode, LockName};
use ariesim_storage::PageReadGuard;
use ariesim_txn::TxnHandle;

/// The modification a leaf step makes.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    Insert,
    Delete,
}

/// The tree latch an attempt holds across its descent and its leaf step.
#[derive(Clone, Copy, PartialEq, Eq)]
enum TreeLatch {
    None,
    S,
    X,
}

/// What one leaf step tells its operation's loop.
enum Step {
    Done,
    /// Every page latch has been released: traverse again, holding the tree
    /// latch in this mode.
    Retry(TreeLatch),
    /// §2.2: a conditional request was denied, and every page latch has
    /// been released. Release the tree latch, wait, and start again holding
    /// the tree latch as before, on the relatched leaf if it is unchanged.
    Wait(Wait),
}

/// A lock request denied under latches (§2.2), and where its requester
/// stood: the leaf it held and that leaf's page_LSN when it was denied.
pub(crate) struct Wait {
    name: LockName,
    mode: LockMode,
    dur: LockDuration,
    leaf: PageId,
    lsn: Lsn,
}

/// The key a request of Figure 2 names.
#[derive(Clone, Copy)]
enum Target {
    /// The next key, or EOF.
    Next,
    /// The key inserted or deleted.
    Own,
}

/// One request of Figure 2's table.
type Request = (Target, LockMode, LockDuration);

/// The key after a leaf position, as a lock (§2.2).
pub(crate) struct NextLock<'p> {
    /// The next key's lock name, or the index's EOF name.
    pub(crate) name: LockName,
    /// The next key; `None` at EOF.
    pub(crate) key: Option<IndexKey>,
    /// The next key's slot, on the leaf or on `neighbour`.
    pub(crate) slot: u16,
    /// The right neighbour, S-latched, when the next key sits there.
    pub(crate) neighbour: Option<PageReadGuard<'p>>,
}

impl BTree {
    /// Insert or delete `key`, reached by `search`: traverse (or relatch
    /// the leaf a wait left) and take the leaf step until it is done or
    /// refuses.
    pub(crate) fn modify(
        &self,
        txn: &TxnHandle,
        op: Op,
        key: &IndexKey,
        search: &SearchKey<'_>,
    ) -> Result<()> {
        let mut hold = TreeLatch::None;
        let mut resume = None;
        loop {
            // An attempt's tree latch is released before the next attempt
            // takes its own: a second request while holding it would wait
            // on a latch of equal rank, the deadlock §4 rules out.
            let tree_s = (hold == TreeLatch::S).then(|| self.tree_s());
            let tree_x = (hold == TreeLatch::X).then(|| self.tree_x());
            // The relatch comes after the tree latch: the order stays tree
            // latch, then page. The step re-decides everything on the leaf;
            // only the descent is saved.
            let relatched = match resume.take() {
                Some((leaf, lsn)) => self.relatch(leaf, lsn, true)?,
                None => None,
            };
            let leaf = match relatched {
                Some(leaf) => leaf,
                None if op == Op::Insert && hold == TreeLatch::X => {
                    // Figure 8: split first, insert after, all under the X
                    // tree latch.
                    let leaf = txn.with_logger(&self.log, |logger| {
                        self.split_smo(logger, search, key.wire_len())
                    })?;
                    LeafGuard::X(self.pool.fix_x(leaf)?)
                }
                None => self.traverse(search, true, hold != TreeLatch::None)?,
            };
            match self.leaf_step(txn, op, leaf, key, search, hold)? {
                Step::Done => return Ok(()),
                Step::Retry(next) => hold = next,
                Step::Wait(wait) => {
                    // §4: no lock is ever waited for while holding a latch,
                    // and the tree latch is a latch. The state may change
                    // while unlatched (the holder commits or rolls back):
                    // the next attempt re-decides.
                    drop((tree_s, tree_x));
                    resume = Some(self.wait(txn, wait)?);
                }
            }
        }
    }

    /// One attempt at `op` on the X-latched `leaf` that `search` reached
    /// (Figures 6 and 7), holding the tree latch in mode `hold`. Every
    /// outcome but [`Step::Done`] has released the leaf.
    fn leaf_step(
        &self,
        txn: &TxnHandle,
        op: Op,
        mut leaf: LeafGuard<'_>,
        key: &IndexKey,
        search: &SearchKey<'_>,
        hold: TreeLatch,
    ) -> Result<Step> {
        // --- SM_Bit check; an insert checks the Delete_Bit too -------------
        //
        // Figure 11: an insert may be about to consume space an uncommitted
        // delete freed, and that delete's undo must never face a
        // structurally inconsistent tree.
        let page = leaf.page();
        if page.sm_bit() || (op == Op::Insert && page.delete_bit()) {
            // The conditional request is legal under the leaf latch.
            if hold == TreeLatch::None && self.try_tree_s().is_none() {
                // An SMO is in progress: wait for it without holding latches.
                drop(leaf);
                self.tree_instant_s();
                return Ok(Step::Retry(TreeLatch::None));
            }
            // No SMO is in progress: our own tree latch covered the descent,
            // or the instant S tree latch was just granted (a POSC). Reset
            // the bits (an unlogged hint — see DESIGN.md).
            let g = leaf.as_x()?;
            g.set_sm_bit(false);
            if op == Op::Insert {
                g.set_delete_bit(false);
            }
            if hold == TreeLatch::None {
                self.stats.latches_tree_instant.bump();
                // The set bit proves an SMO touched this page after our
                // descent read the parent's separators: the split may have
                // moved this key's range to a new right sibling between the
                // parent latch release and our leaf latch grant, so an
                // insert here could put the key beyond the parent's high
                // key, and a delete could report a spurious NotFound. The
                // reset is kept (it is correct — no SMO is in progress), but
                // the position must be recomputed.
                drop(leaf);
                return Ok(Step::Retry(TreeLatch::None));
            }
        }

        // --- position ------------------------------------------------------
        //
        // A unique index's insert positions by value (see `BTree::insert`).
        let page = leaf.page();
        let n = page.slot_count();
        let idx = leaf_lower_bound(page, search)?;
        let present = idx < n && leaf_key(page, idx)? == *key;
        if op == Op::Insert && present {
            return Err(Error::Internal(format!(
                "insert of key already present: {key:?}"
            )));
        }
        // Figures 8 and 10: a delete that would empty a leaf runs with the X
        // tree latch held from its descent on. The root is exempt — it may
        // simply become an empty leaf.
        let empties = op == Op::Delete && present && n == 1 && page.page_id() != self.root;
        if empties && hold != TreeLatch::X {
            return Ok(Step::Retry(TreeLatch::X));
        }

        // --- next key (walking right if needed) ----------------------------
        //
        // After a key that is present, the walk right still searches with
        // `search`: no page to the right holds `key` itself, so the first key
        // at or above `search` there is the first key after it.
        let Some(next) = self.next_key_lock(page, idx + u16::from(present), search)? else {
            drop(leaf);
            // Holding the tree latch, an instant S would self-deadlock; the
            // retry goes without it.
            if hold == TreeLatch::None {
                self.tree_instant_s();
            }
            return Ok(Step::Retry(TreeLatch::None));
        };

        // --- refusals (§2.4, §2.5) -------------------------------------------
        //
        // A unique violation's "found key" is the next key with our value; a
        // delete that finds no key reports the absence. A commit-duration S
        // lock on the next key makes either answer repeatable.
        let same_value = next.key.as_ref().is_some_and(|k| k.value == key.value);
        let refusal = match op {
            Op::Insert if self.unique && same_value => Some(Error::UniqueViolation),
            Op::Delete if !present => Some(Error::NotFound),
            _ => None,
        };
        if let Some(refusal) = refusal {
            let wait = self.try_lock(txn, page, next.name, LockMode::S, LockDuration::Commit)?;
            if let Some(wait) = wait {
                return Ok(Step::Wait(wait));
            }
            return Err(refusal);
        }

        // --- Figure 2 ------------------------------------------------------
        for (target, mode, dur) in self
            .lock_plan(op, key, page, idx, same_value)?
            .into_iter()
            .flatten()
        {
            let name = match target {
                Target::Next => {
                    self.stats.locks_next_key.bump();
                    next.name.clone()
                }
                Target::Own => self.key_lock(key),
            };
            if let Some(wait) = self.try_lock(txn, page, name, mode, dur)? {
                return Ok(Step::Wait(wait));
            }
        }
        drop(next);

        // Figure 8: a full leaf is split first, under the X tree latch, and
        // the insert performed after the split completes — so a rollback
        // undoes the insert but never the split. (Under the X tree latch the
        // leaf can still be full: another transaction filled it between the
        // split and our latch. Split again.)
        if op == Op::Insert && page.total_free() < key.wire_len() + SLOT_LEN {
            return Ok(Step::Retry(TreeLatch::X));
        }
        // Figure 7: a boundary-key delete establishes a POSC by holding the
        // S tree latch across the delete; the retry acquires it up front.
        let mut boundary_latch = None;
        if op == Op::Delete && (idx == 0 || idx == n - 1) && hold == TreeLatch::None {
            boundary_latch = self.try_tree_s(); // conditional: legal under the leaf latch
            if boundary_latch.is_none() {
                return Ok(Step::Retry(TreeLatch::S));
            }
        }

        // --- the insert or delete itself -----------------------------------
        let body = match op {
            Op::Insert => IndexBody::InsertKey {
                index: self.index_id,
                key: key.clone(),
            },
            Op::Delete => IndexBody::DeleteKey {
                index: self.index_id,
                key: key.clone(),
            },
        };
        let pid = leaf.page_id();
        txn.with_logger(&self.log, |logger| {
            apply_logged(logger, leaf.as_x()?, pid, &body)?;
            if empties {
                crash_point!("btree.delete.key_logged");
                drop(leaf);
                // Figure 10: the page deletion's dummy CLR points at the key
                // delete just logged (`logger.last_lsn`), so a rollback
                // skips the SMO but still undoes the delete.
                self.page_delete_smo(logger, search)?;
            }
            Ok::<_, Error>(())
        })?;
        drop(boundary_latch);
        if op == Op::Insert {
            crash_point!("btree.insert.key_logged");
        }
        Ok(Step::Done)
    }

    /// §2.2's rule for a lock wanted while latches are held: request it
    /// conditionally. `None`: granted. `Some`: denied — the [`Wait`], noting
    /// `leaf` and its page_LSN, that the caller hands to [`BTree::wait`]
    /// once it has released its latches.
    pub(crate) fn try_lock(
        &self,
        txn: &TxnHandle,
        leaf: &PageBuf,
        name: LockName,
        mode: LockMode,
        dur: LockDuration,
    ) -> Result<Option<Wait>> {
        match self.locks.request(txn.id, name.clone(), mode, dur, true) {
            Ok(()) => Ok(None),
            Err(Error::WouldBlock) => Ok(Some(Wait {
                name,
                mode,
                dur,
                leaf: leaf.page_id(),
                lsn: leaf.page_lsn(),
            })),
            Err(e) => Err(e),
        }
    }

    /// Wait for a denied lock, unconditionally. The caller holds no latch
    /// (§4). Returns the leaf and page_LSN to [`relatch`](Self::relatch).
    pub(crate) fn wait(&self, txn: &TxnHandle, wait: Wait) -> Result<(PageId, Lsn)> {
        self.locks.request(txn.id, wait.name, wait.mode, wait.dur, false)?;
        Ok((wait.leaf, wait.lsn))
    }

    /// Latch `leaf` again, X if `for_update`, else S, after a wait or
    /// between two Fetch Next calls — if its page_LSN still reads `lsn` and
    /// it is still a leaf of this index; else `None`, latch released. Every
    /// change to a leaf's keys, chain pointers or identity is logged and
    /// moves its page_LSN (DESIGN.md §4), so an unchanged leaf still covers
    /// every key it covered when `lsn` was read.
    pub(crate) fn relatch(
        &self,
        leaf: PageId,
        lsn: Lsn,
        for_update: bool,
    ) -> Result<Option<LeafGuard<'_>>> {
        let g = if for_update {
            LeafGuard::X(self.pool.fix_x(leaf)?)
        } else {
            LeafGuard::S(self.pool.fix_s(leaf)?)
        };
        Ok((g.lsn() == lsn && self.is_own_leaf(g.page())).then_some(g))
    }

    /// Is `page` a leaf of this index (and not a freed page, a page of
    /// another index, a nonleaf or a heap page that reuses the id)?
    fn is_own_leaf(&self, page: &PageBuf) -> bool {
        matches!(page.page_type(), Ok(PageType::IndexLeaf))
            && page.owner() == self.index_id.0
            && page.level() == 0
    }

    /// Figure 2, and ARIES/KVL's table for the baseline
    /// ([`LockProtocol::KeyValue`]): the locks `op` requests, in order,
    /// before it changes `key` at slot `idx` of `page`. `next_same`: the
    /// next key has `key`'s value.
    fn lock_plan(
        &self,
        op: Op,
        key: &IndexKey,
        page: &PageBuf,
        idx: u16,
        next_same: bool,
    ) -> Result<[Option<Request>; 2]> {
        use LockDuration::{Commit, Instant};
        use LockMode::{IX, X};
        use Target::{Next, Own};
        Ok(match self.protocol {
            // ARIES/IM: X on the next key — instant for an insert (the
            // inserted key is the tripping point afterwards), commit for a
            // delete (the deleted key is invisible, so the next key is the
            // stable tripping point, §2.6). The current key needs no index
            // lock: the record manager's RID lock covers it.
            LockProtocol::DataOnly => match op {
                Op::Insert => [Some((Next, X, Instant)), None],
                Op::Delete => [Some((Next, X, Commit)), None],
            },
            // Index-specific locking adds the current key.
            LockProtocol::IndexSpecific => match op {
                Op::Insert => [Some((Next, X, Instant)), Some((Own, X, Commit))],
                Op::Delete => [Some((Next, X, Commit)), Some((Own, X, Instant))],
            },
            // ARIES/KVL [Moha90a]: a commit lock on the current key *value*,
            // and the next value only when this value has no other instance
            // (an insert of a new value, a delete of the last instance);
            // inserting a duplicate is covered by the value's own lock.
            LockProtocol::KeyValue => {
                let alone =
                    !(next_same || (idx > 0 && leaf_key(page, idx - 1)?.value == key.value));
                match op {
                    Op::Insert => [Some((Own, IX, Commit)), alone.then_some((Next, X, Instant))],
                    Op::Delete => [Some((Own, X, Commit)), alone.then_some((Next, X, Commit))],
                }
            }
        })
    }

    /// The key after slot `from` of `page` as a lock: the key itself and
    /// its lock name (EOF's when no key follows), its slot and, when it sits
    /// to the right, that leaf's latch (paper §2.2's "the next leaf would be
    /// latched and accessed while continuing to hold the latch on the first
    /// leaf"). `None`: the chain to the right is ambiguous — an SMO is in
    /// flight.
    ///
    /// The walk *searches* each page rather than taking its first key: a
    /// concurrent split may have moved the relevant keys to a right sibling
    /// whose first key still sorts below `search`. The caller keeps `page`
    /// latched, so the walk itself holds one chain page at a time: a hop
    /// beyond the first neighbour releases the page it leaves before
    /// latching the next one (two page latches in all, the paper's budget)
    /// and then checks that page's `prev` pointer. A page deleted, or
    /// re-created by a split of the page just left, in that window shows a
    /// different `prev` (or is no leaf of this index at all) and makes the
    /// walk ambiguous.
    pub(crate) fn next_key_lock(
        &self,
        page: &PageBuf,
        from: u16,
        search: &SearchKey<'_>,
    ) -> Result<Option<NextLock<'_>>> {
        let (key, slot, neighbour) = if from < page.slot_count() {
            (leaf_key(page, from)?, from, None)
        } else {
            let mut prev = page.page_id();
            let mut next = page.next();
            loop {
                if next.is_null() {
                    let name = self.eof_lock();
                    return Ok(Some(NextLock { name, key: None, slot: 0, neighbour: None }));
                }
                let g = self.pool.fix_s(next)?;
                if !(self.is_own_leaf(&g) && g.prev() == prev) {
                    return Ok(None);
                }
                let idx = leaf_lower_bound(&g, search)?;
                if idx < g.slot_count() {
                    break (leaf_key(&g, idx)?, idx, Some(g));
                }
                // Nothing ≥ search here (page emptied or shrunk by an SMO, a
                // gap between a split's halves, or a run of duplicates below
                // a maximal-RID search): keep walking.
                prev = next;
                next = g.next();
            }
        };
        Ok(Some(NextLock {
            name: self.key_lock(&key),
            key: Some(key),
            slot,
            neighbour,
        }))
    }
}
