//! Key insert — the paper's §2.4 and Figure 6, with the split path of
//! Figure 8/9.
//!
//! Protocol summary:
//!
//! * If the leaf's SM_Bit or Delete_Bit is '1', first ensure no SMO is in
//!   progress (instant S tree latch — a POSC), then reset the bits. This is
//!   the Figure 11 precaution: the insert may be about to consume space an
//!   uncommitted delete freed, and that delete's undo must never face a
//!   structurally inconsistent tree.
//! * In a unique index, an equal key value already present triggers a
//!   **commit-duration S lock** on the found key so the unique-violation
//!   error is repeatable (§2.4).
//! * Otherwise the **next key** is locked X for **instant** duration — the
//!   check that no concurrent transaction has fetched-and-not-found this
//!   value (phantom protection) and, in a unique index, that no uncommitted
//!   delete of the value exists. The inserted key itself becomes the
//!   tripping point afterwards, which is why instant duration suffices
//!   (§2.6).
//! * All locks are requested **conditionally while latches are held**; on
//!   denial every latch is released, the lock is waited for unconditionally,
//!   and the operation re-traverses (§2.2).
//! * If the leaf is full, the split SMO runs first and the insert is
//!   performed after the SMO completes, under the tree latch (Figure 8) —
//!   so a rollback undoes the insert but never the split.

use crate::fetch::NextKey;
use crate::node::{leaf_key, leaf_lower_bound};
use crate::traverse::LeafGuard;
use crate::{BTree, LockProtocol, MAX_KEY_VALUE_LEN};
use ariesim_common::key::SearchKey;
use ariesim_common::slotted::SLOT_LEN;
use ariesim_common::stats::Bump;
use ariesim_common::{Error, IndexKey, Result};
use ariesim_lock::{LockDuration, LockMode, LockName};

use ariesim_txn::TxnHandle;
use ariesim_wal::RmId;

/// Outcome of one attempt at the leaf-level insert action.
enum Step {
    Done,
    /// Latches released; a lock was waited for unconditionally; re-traverse.
    Retry,
    /// Latches released; the caller must drop the tree latch, wait for the
    /// named lock unconditionally, and re-traverse (§4: no lock is ever
    /// waited for while holding the tree latch).
    WaitLock(LockName, LockMode, LockDuration),
    /// Leaf cannot hold the key: run the split SMO.
    NeedSplit,
    UniqueViolation,
}

impl BTree {
    /// Insert `key`. Returns [`Error::UniqueViolation`] for a duplicate key
    /// value in a unique index.
    pub fn insert(&self, txn: &TxnHandle, key: &IndexKey) -> Result<()> {
        if key.value.len() > MAX_KEY_VALUE_LEN {
            return Err(Error::TooLarge {
                len: key.value.len(),
                max: MAX_KEY_VALUE_LEN,
            });
        }
        self.stats.index_inserts.bump();
        // Unique indexes search by value (duplicates must be found wherever
        // their RID would sort them); nonunique search with the whole key
        // (§1.1 / §2.4).
        let search = if self.unique {
            SearchKey::value_only(&key.value)
        } else {
            SearchKey::from_key(key)
        };
        loop {
            let leaf = self.traverse(&search, true, false)?;
            match self.insert_action(txn, leaf, key, false)? {
                Step::Done => return Ok(()),
                Step::Retry => continue,
                Step::WaitLock(name, mode, dur) => {
                    self.locks.request(txn.id, name, mode, dur, false)?;
                    continue;
                }
                Step::UniqueViolation => return Err(Error::UniqueViolation),
                Step::NeedSplit => {
                    // Figure 8: split first, insert after, all under the X
                    // tree latch.
                    let tree_guard = self.tree_x();
                    let leaf_id = txn.with_logger(&self.log, |logger| {
                        self.split_smo(logger, &search, key.wire_len())
                    })?;
                    let leaf = LeafGuard::X(self.pool.fix_x(leaf_id)?);
                    match self.insert_action(txn, leaf, key, true)? {
                        Step::Done => return Ok(()),
                        Step::Retry => {
                            drop(tree_guard);
                            continue;
                        }
                        // A denied conditional lock: per §4 the wait happens
                        // only after the tree latch is released.
                        Step::WaitLock(name, mode, dur) => {
                            drop(tree_guard);
                            self.locks.request(txn.id, name, mode, dur, false)?;
                            continue;
                        }
                        Step::UniqueViolation => return Err(Error::UniqueViolation),
                        // Another transaction filled the page before we
                        // re-latched it; start over (and split again).
                        Step::NeedSplit => {
                            drop(tree_guard);
                            continue;
                        }
                    }
                }
            }
        }
    }

    /// The Figure 6 action routine, on an X-latched leaf. Consumes the
    /// guard; on [`Step::Retry`] all latches have been released and any
    /// needed unconditional lock wait has already happened.
    fn insert_action(
        &self,
        txn: &TxnHandle,
        mut leaf: LeafGuard,
        key: &IndexKey,
        under_tree_latch: bool,
    ) -> Result<Step> {
        // --- SM_Bit | Delete_Bit check (Figure 6 first line) -----------
        if leaf.page().sm_bit() || leaf.page().delete_bit() {
            if under_tree_latch {
                // We *are* the SMO serializer right now: safe to reset.
                let g = leaf.as_x()?;
                g.set_sm_bit(false);
                g.set_delete_bit(false);
            } else if self.try_tree_s().is_some() { // conditional: legal under the leaf latch
                // Instant S tree latch granted: no SMO in progress; a POSC
                // exists. Reset the bits (an unlogged hint — see DESIGN.md).
                self.stats.latches_tree_instant.bump();
                let g = leaf.as_x()?;
                g.set_sm_bit(false);
                g.set_delete_bit(false);
                // The set bit proves an SMO touched this page after our
                // descent read the parent's separators: the split may have
                // moved this key's range to a new right sibling between the
                // parent latch release and our leaf latch grant, and
                // inserting here would put the key beyond the parent's high
                // key. The reset is kept (it is correct — no SMO is in
                // progress), but the position must be recomputed.
                drop(leaf);
                return Ok(Step::Retry);
            } else {
                // SMO in progress: wait for it without holding latches.
                drop(leaf);
                self.tree_instant_s();
                return Ok(Step::Retry);
            }
        }

        let page = leaf.page();
        // Unique indexes position by *value*: an equal value physically
        // present (e.g. an uncommitted delete, §2.4) must be found no matter
        // how its RID orders against ours. Nonunique indexes position by the
        // full key.
        let idx = if self.unique {
            leaf_lower_bound(page, &SearchKey::value_only(&key.value))?
        } else {
            leaf_lower_bound(page, &SearchKey::from_key(key))?
        };
        if idx < page.slot_count() && leaf_key(page, idx)? == *key {
            return Err(Error::Internal(format!(
                "insert of key already present: {key:?}"
            )));
        }

        // --- next key (walking right if needed) ---------------------------
        let walk_search = if self.unique {
            SearchKey::value_only(&key.value)
        } else {
            SearchKey::from_key(key)
        };
        let (next_lock, _next_guard, next_is_equal_value) =
            match self.next_key_after(page, idx, &walk_search)? {
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
                    // Holding the X tree latch, an instant S would
                    // self-deadlock; the caller drops the latch on Retry.
                    if !under_tree_latch {
                        self.tree_instant_s();
                    }
                    return Ok(Step::Retry);
                }
            };

        // --- unique check (§2.4) ------------------------------------------
        if self.unique && next_is_equal_value {
            // The "found key" is the next key with our value. Commit-duration
            // S lock makes the violation repeatable.
            match self.locks.request(
                txn.id,
                next_lock.clone(),
                LockMode::S,
                LockDuration::Commit,
                true,
            ) {
                Ok(()) => return Ok(Step::UniqueViolation),
                Err(Error::WouldBlock) => {
                    drop(_next_guard);
                    drop(leaf);
                    if under_tree_latch {
                        return Ok(Step::WaitLock(
                            next_lock,
                            LockMode::S,
                            LockDuration::Commit,
                        ));
                    }
                    self.locks.request(
                        txn.id,
                        next_lock,
                        LockMode::S,
                        LockDuration::Commit,
                        false,
                    )?;
                    // The state may have changed while unlatched (e.g. the
                    // deleter of that key value rolled back or committed):
                    // re-traverse and re-decide.
                    return Ok(Step::Retry);
                }
                Err(e) => return Err(e),
            }
        }

        // --- protocol-specific lock plan -----------------------------------
        //
        // ARIES/IM (Figure 2): instant X on the *next key*; under data-only
        // locking the current key needs no index lock (the record manager's
        // RID lock covers it); index-specific locking adds a commit X on the
        // current key.
        //
        // ARIES/KVL baseline [Moha90a]: commit IX on the current key *value*
        // always; the instant X next-value lock is needed only when the
        // value does not yet exist in the index (inserting a duplicate of an
        // existing value is covered by the value's own lock).
        let value_exists = next_is_equal_value
            || (idx > 0 && leaf_key(leaf.page(), idx - 1)?.value == key.value);
        let mut plan: Vec<(LockName, LockMode, LockDuration, bool)> = Vec::new();
        match self.protocol {
            LockProtocol::DataOnly => {
                plan.push((next_lock.clone(), LockMode::X, LockDuration::Instant, true));
            }
            LockProtocol::IndexSpecific => {
                plan.push((next_lock.clone(), LockMode::X, LockDuration::Instant, true));
                plan.push((self.key_lock(key), LockMode::X, LockDuration::Commit, false));
            }
            LockProtocol::KeyValue => {
                plan.push((self.key_lock(key), LockMode::IX, LockDuration::Commit, false));
                if !value_exists {
                    plan.push((next_lock.clone(), LockMode::X, LockDuration::Instant, true));
                }
            }
        }
        for (name, mode, dur, is_next) in plan {
            if is_next {
                self.stats.locks_next_key.bump();
            }
            match self.locks.request(txn.id, name.clone(), mode, dur, true) {
                Ok(()) => {}
                Err(Error::WouldBlock) => {
                    drop(_next_guard);
                    drop(leaf);
                    if under_tree_latch {
                        return Ok(Step::WaitLock(name, mode, dur));
                    }
                    self.locks.request(txn.id, name, mode, dur, false)?;
                    return Ok(Step::Retry);
                }
                Err(e) => return Err(e),
            }
        }
        drop(_next_guard);

        // --- the insert itself -----------------------------------------------
        let page = leaf.page();
        if page.total_free() < key.wire_len() + SLOT_LEN {
            return Ok(Step::NeedSplit);
        }
        let body = crate::body::IndexBody::InsertKey {
            index: self.index_id,
            key: key.clone(),
        };
        let g = leaf.as_x()?;
        let pid = g.page_id();
        crate::apply::apply_body(g, pid, &body)?;
        let lsn = txn.with_logger(&self.log, |l| l.update(RmId::Index, pid, body.encode()));
        g.record_update(lsn);
        ariesim_fault::crash_point!("btree.insert.key_logged");
        Ok(Step::Done)
    }

    /// EOF lock name helper for tests.
    pub fn eof_lock_name(&self) -> LockName {
        self.eof_lock()
    }
}
