//! Key delete — the paper's §2.5 and Figure 7, with the page-deletion path
//! of Figure 8/10.
//!
//! Protocol summary:
//!
//! * The **next key** is locked X for **commit** duration: the uncommitted
//!   delete makes the key invisible, so another key must carry the warning
//!   ("the tripping point has to be another key which must be guaranteed to
//!   be a stable one", §2.6). Fetches and inserts of the deleted value trip
//!   on this lock until the deleter commits.
//! * A delete of a **boundary key** (smallest or largest on the page) first
//!   establishes a POSC by holding the S tree latch across the delete
//!   (§3, third reason for logical undo: the undo of such a delete may find
//!   the key no longer *bounded* on the page and need a traversal — so the
//!   delete must not be logged inside a region of structural inconsistency).
//! * Every delete sets the leaf's **Delete_Bit** (applied by the log
//!   record's redo), warning future space consumers (Figure 11).
//! * If the delete empties the page, the operation runs under the **X tree
//!   latch**: key delete first (logged normally), then the page-deletion SMO
//!   as a nested top action whose dummy CLR points at the key-delete record
//!   (Figure 10) — so rollback skips the SMO but still undoes the delete.

use crate::body::IndexBody;
use crate::fetch::{successor_search, NextKey};
use crate::node::{leaf_contains, leaf_key};
use crate::traverse::LeafGuard;
use crate::{BTree, LockProtocol};
use ariesim_common::key::SearchKey;
use ariesim_common::stats::Bump;
use ariesim_common::{Error, IndexKey, PageBuf, Result};
use ariesim_lock::{LockDuration, LockMode, LockName};
use ariesim_txn::TxnHandle;
use ariesim_wal::RmId;

enum DelStep {
    Done,
    /// Conditional lock denied under the tree latch: release it, wait for
    /// the named lock unconditionally, retry.
    WaitLock(LockName, LockMode, LockDuration),
    NotFound,
}

impl BTree {
    /// Delete `key`. [`Error::NotFound`] if absent (after locking the next
    /// key, so the absence is repeatable).
    pub fn delete(&self, txn: &TxnHandle, key: &IndexKey) -> Result<()> {
        self.stats.index_deletes.bump();
        let search = SearchKey::from_key(key);
        let mut need_tree_s = false;
        loop {
            // Boundary-key deletes hold the S tree latch across the whole
            // action (Figure 7). We learn we need it mid-attempt; the retry
            // acquires it up front. The guard is taken (released) before any
            // unconditional lock wait — §4: no lock is ever waited for while
            // holding a latch, and the tree latch is a latch.
            let mut tree_s_guard = if need_tree_s {
                need_tree_s = false;
                Some(self.tree_s())
            } else {
                None
            };
            let holding_tree_s = tree_s_guard.is_some();
            let mut leaf = self.traverse(&search, true, holding_tree_s)?;
            // Figure 7: SM_Bit check.
            if leaf.page().sm_bit() {
                if holding_tree_s {
                    // Our own tree S latch covered the descent: no SMO could
                    // have moved the leaf's range since; safe to proceed.
                    leaf.as_x()?.set_sm_bit(false);
                } else if self.try_tree_s().is_some() { // conditional: legal under the leaf latch
                    leaf.as_x()?.set_sm_bit(false);
                    // The set bit proves an SMO touched this page after our
                    // descent: the key may have been moved to a new right
                    // sibling, and `leaf_contains` on this page would report
                    // a spurious NotFound. The reset is kept (no SMO is in
                    // progress); the position must be recomputed.
                    drop(leaf);
                    continue;
                } else {
                    drop(leaf);
                    self.tree_instant_s();
                    continue;
                }
            }
            let page = leaf.page();
            let Some(idx) = leaf_contains(page, key)? else {
                tree_s_guard.take(); // release before any lock wait inside
                return self.delete_not_found(txn, leaf, key);
            };
            let n = page.slot_count();

            // Page would become empty: the Figure 8 path (tree X latch,
            // delete, then the page-deletion SMO). The root is exempt — it
            // may simply become an empty leaf.
            if n == 1 && page.page_id() != self.root {
                drop(leaf);
                tree_s_guard.take(); // about to take tree X: S would self-deadlock
                loop {
                    match self.delete_under_tree_x(txn, key)? {
                        DelStep::Done => return Ok(()),
                        DelStep::NotFound => return Err(Error::NotFound),
                        DelStep::WaitLock(name, mode, dur) => {
                            // Tree latch released by now; wait without latches.
                            self.locks.request(txn.id, name, mode, dur, false)?;
                        }
                    }
                }
            }

            // --- protocol-specific lock plan -------------------------------
            //
            // ARIES/IM (Figure 2): commit X on the *next key* (the stable
            // tripping point, §2.6); index-specific adds an instant X on the
            // current key. ARIES/KVL: commit X on the current key value;
            // commit X on the next value only when deleting the value's last
            // instance.
            let succ = successor_search(key);
            let (next_lock, _next_guard, next_eq) =
                match self.next_key_after(page, idx + 1, &succ)? {
                    NextKey::OnPage(k) => {
                        let eq = k.value == key.value;
                        (self.key_lock(&k), None, eq)
                    }
                    NextKey::OnNext(k, _, g) => {
                        let eq = k.value == key.value;
                        (self.key_lock(&k), Some(g), eq)
                    }
                    NextKey::Eof => (self.eof_lock(), None, false),
                    NextKey::Ambiguous => {
                        drop(leaf);
                        if !holding_tree_s {
                            self.tree_instant_s();
                        }
                        continue;
                    }
                };
            let plan = self.delete_lock_plan(key, &next_lock, next_eq, page, idx)?;
            let mut denied = None;
            for (name, mode, dur, is_next) in plan {
                if is_next {
                    self.stats.locks_next_key.bump();
                }
                match self.locks.request(txn.id, name.clone(), mode, dur, true) {
                    Ok(()) => {}
                    Err(Error::WouldBlock) => {
                        denied = Some((name, mode, dur));
                        break;
                    }
                    Err(e) => return Err(e),
                }
            }
            if let Some((name, mode, dur)) = denied {
                drop(_next_guard);
                drop(leaf);
                tree_s_guard.take(); // §4: no latch held across a lock wait
                self.locks.request(txn.id, name, mode, dur, false)?;
                if holding_tree_s {
                    // We gave up the boundary-delete latch: retake it first.
                    need_tree_s = true;
                }
                continue;
            }
            drop(_next_guard);

            // --- boundary key: hold the S tree latch (Figure 7) --------------
            let _hold_to_end = tree_s_guard; // keep (if any) across the delete
            if (idx == 0 || idx == n - 1) && !holding_tree_s {
                match self.try_tree_s() { // conditional: legal under the leaf latch
                    Some(g) => {
                        // Hold it across the delete below.
                        let _held = g;
                        return self.apply_delete(txn, leaf, key);
                    }
                    None => {
                        drop(leaf);
                        need_tree_s = true;
                        continue;
                    }
                }
            }

            return self.apply_delete(txn, leaf, key);
        }
    }

    /// The locks a delete must take before removing `key` at slot `idx` of
    /// `page` (see the comment at the call site for the per-protocol table).
    /// Tuple: (name, mode, duration, counts-as-next-key-lock).
    fn delete_lock_plan(
        &self,
        key: &IndexKey,
        next_lock: &LockName,
        next_eq: bool,
        page: &PageBuf,
        idx: u16,
    ) -> Result<Vec<(LockName, LockMode, LockDuration, bool)>> {
        let mut plan = Vec::new();
        match self.protocol {
            LockProtocol::DataOnly => {
                plan.push((next_lock.clone(), LockMode::X, LockDuration::Commit, true));
            }
            LockProtocol::IndexSpecific => {
                plan.push((next_lock.clone(), LockMode::X, LockDuration::Commit, true));
                plan.push((self.key_lock(key), LockMode::X, LockDuration::Instant, false));
            }
            LockProtocol::KeyValue => {
                plan.push((self.key_lock(key), LockMode::X, LockDuration::Commit, false));
                let dup_before = idx > 0 && leaf_key(page, idx - 1)?.value == key.value;
                let last_instance = !dup_before && !next_eq;
                if last_instance {
                    plan.push((next_lock.clone(), LockMode::X, LockDuration::Commit, true));
                }
            }
        }
        Ok(plan)
    }

    /// Log and apply the key delete on the latched leaf.
    fn apply_delete(&self, txn: &TxnHandle, mut leaf: LeafGuard, key: &IndexKey) -> Result<()> {
        let body = IndexBody::DeleteKey {
            index: self.index_id,
            key: key.clone(),
        };
        let g = leaf.as_x()?;
        let pid = g.page_id();
        crate::apply::apply_body(g, pid, &body)?;
        let lsn = txn.with_logger(&self.log, |l| l.update(RmId::Index, pid, body.encode()));
        g.record_update(lsn);
        Ok(())
    }

    /// Not-found path: S-lock the next key (or EOF) for commit duration so
    /// the absence is repeatable, then report NotFound.
    fn delete_not_found(&self, txn: &TxnHandle, leaf: LeafGuard, key: &IndexKey) -> Result<()> {
        let page = leaf.page();
        let idx = crate::node::leaf_lower_bound(page, &SearchKey::from_key(key))?;
        let succ = SearchKey::from_key(key);
        let (lock, _guard) = match self.next_key_after(page, idx, &succ)? {
            NextKey::OnPage(k) => (self.key_lock(&k), None),
            NextKey::OnNext(k, _, g) => (self.key_lock(&k), Some(g)),
            NextKey::Eof => (self.eof_lock(), None),
            NextKey::Ambiguous => {
                drop(leaf);
                self.tree_instant_s();
                // Simplest correct behaviour: report after one retry-free
                // lock of EOF is not possible; just re-run the delete.
                return self.delete(txn, key);
            }
        };
        match self
            .locks
            .request(txn.id, lock.clone(), LockMode::S, LockDuration::Commit, true)
        {
            Ok(()) => Err(Error::NotFound),
            Err(Error::WouldBlock) => {
                drop(_guard);
                drop(leaf);
                self.locks
                    .request(txn.id, lock, LockMode::S, LockDuration::Commit, false)?;
                // State may have changed (e.g. a rolled-back delete makes the
                // key reappear): retry the whole delete.
                self.delete(txn, key)
            }
            Err(e) => Err(e),
        }
    }

    /// Figure 8's delete flavour: under the X tree latch, re-descend, delete
    /// the key, and if the leaf is now empty run the page-deletion SMO.
    /// Conditional-lock denials bubble out as [`DelStep::WaitLock`] — per §4
    /// no lock is waited for while the tree latch is held.
    fn delete_under_tree_x(&self, txn: &TxnHandle, key: &IndexKey) -> Result<DelStep> {
        let _tx = self.tree_x();
        let search = SearchKey::from_key(key);
        let path = self.descend_path(&search)?;
        let leaf_id = crate::smo::path_leaf(&path)?;
        let mut g = self.pool.fix_x(leaf_id)?;
        // We hold the tree latch: no SMO in progress; reset stale bits.
        g.set_sm_bit(false);
        let Some(idx) = leaf_contains(&g, key)? else {
            return Ok(DelStep::NotFound);
        };

        // Lock plan — conditional only under the tree latch (§4).
        let succ = successor_search(key);
        let (next_lock, _next_guard, next_eq) = match self.next_key_after(&g, idx + 1, &succ)? {
            NextKey::OnPage(k) => {
                let eq = k.value == key.value;
                (self.key_lock(&k), None, eq)
            }
            NextKey::OnNext(k, _, ng) => {
                let eq = k.value == key.value;
                (self.key_lock(&k), Some(ng), eq)
            }
            NextKey::Eof => (self.eof_lock(), None, false),
            NextKey::Ambiguous => {
                return Err(Error::CorruptPage {
                    page: leaf_id,
                    reason: "empty neighbour under tree latch".into(),
                })
            }
        };
        let plan = self.delete_lock_plan(key, &next_lock, next_eq, &g, idx)?;
        for (name, mode, dur, is_next) in plan {
            if is_next {
                self.stats.locks_next_key.bump();
            }
            match self.locks.request(txn.id, name.clone(), mode, dur, true) {
                Ok(()) => {}
                Err(Error::WouldBlock) => return Ok(DelStep::WaitLock(name, mode, dur)),
                Err(e) => return Err(e),
            }
        }
        drop(_next_guard);

        // Key delete, logged normally (outside the SMO's nested top action —
        // Figure 10's ordering).
        txn.with_logger(&self.log, |logger| -> Result<()> {
            let body = IndexBody::DeleteKey {
                index: self.index_id,
                key: key.clone(),
            };
            crate::apply::apply_body(&mut g, leaf_id, &body)?;
            let lsn = logger.update(RmId::Index, leaf_id, body.encode());
            g.record_update(lsn);
            ariesim_fault::crash_point!("btree.delete.key_logged");
            let now_empty = g.slot_count() == 0;
            drop(g);
            if now_empty {
                // The dummy CLR will point at the key-delete record just
                // written (logger.last_lsn), exactly as Figure 10 shows.
                self.page_delete_smo(logger, &search)?;
            }
            Ok(())
        })?;
        Ok(DelStep::Done)
    }
}
