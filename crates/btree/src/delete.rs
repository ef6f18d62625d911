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
//! * If the delete empties a page other than the root, the operation
//!   retries holding the **X tree latch** from its descent on: key delete
//!   first (logged normally), then the page-deletion SMO as a nested top
//!   action whose dummy CLR points at the key-delete record (Figure 10) — so
//!   rollback skips the SMO but still undoes the delete.
//! * A key that is not there is reported `NotFound` after the next
//!   key (or EOF) is S-locked for commit duration, so the absence is
//!   repeatable.
//!
//! The protocol runs in the leaf step delete shares with insert
//! ([`crate::step`]).

use crate::step::Op;
use crate::BTree;
use ariesim_common::key::SearchKey;
use ariesim_common::stats::Bump;
use ariesim_common::{IndexKey, Result};
use ariesim_txn::TxnHandle;

impl BTree {
    /// Delete `key`. [`Error::NotFound`](ariesim_common::Error::NotFound) if
    /// absent (after locking the next key, so the absence is repeatable).
    pub fn delete(&self, txn: &TxnHandle, key: &IndexKey) -> Result<()> {
        self.stats.index_deletes.bump();
        self.modify(txn, Op::Delete, key, &SearchKey::from_key(key))
    }
}
