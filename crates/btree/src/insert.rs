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
//!   and the operation starts again on the relatched leaf if its page_LSN
//!   is unchanged, or re-traverses (§2.2).
//! * If the leaf is full, the split SMO runs first and the insert is
//!   performed after the SMO completes, under the tree latch (Figure 8) —
//!   so a rollback undoes the insert but never the split.
//!
//! The protocol runs in the leaf step insert shares with delete
//! ([`crate::step`]): this module chooses the search key and hands over.

use crate::step::Op;
use crate::{BTree, MAX_KEY_VALUE_LEN};
use ariesim_common::key::SearchKey;
use ariesim_common::stats::Bump;
use ariesim_common::{Error, IndexKey, Result};
use ariesim_lock::LockName;
use ariesim_txn::TxnHandle;

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
        // Unique indexes search and position by value: an equal value
        // physically present (e.g. an uncommitted delete, §2.4) must be found
        // no matter how its RID orders against ours. Nonunique indexes search
        // with the whole key (§1.1 / §2.4).
        let search = if self.unique {
            SearchKey::value_only(&key.value)
        } else {
            SearchKey::from_key(key)
        };
        self.modify(txn, Op::Insert, key, &search)
    }

    /// EOF lock name helper for tests.
    pub fn eof_lock_name(&self) -> LockName {
        self.eof_lock()
    }
}
