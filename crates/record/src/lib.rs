//! Heap record manager.
//!
//! Stores table records in slotted data pages, giving out stable RIDs —
//! the names ARIES/IM's *data-only locking* locks (paper §2.1): a key in an
//! index is "locked" by locking the record its RID points at, so the record
//! manager and the index manager synchronize through the same lock names.
//!
//! All changes are logged through [`ariesim_wal::RmId::Heap`] records with
//! page-oriented redo and undo. Heap files grow by appending pages inside
//! **nested top actions**, so a file extension survives the rollback of the
//! transaction that triggered it — the same pattern the index uses for page
//! splits.
//!
//! Uncommitted deletes *reserve* their freed space ([`heap`]): an insert
//! never consumes bytes freed by an in-flight delete (or given up by a
//! shrinking update), so the undo can always restore page-oriented at the
//! original RID. (Indexes don't need this — the paper instead allows the
//! undo of a key delete to go *logical* and split the page; heap RIDs must
//! not move, so prevention replaces cure. See DESIGN.md.)
//!
//! Inserts are placed first fit in chain order, found through an unlogged
//! **free-space book**: per heap file, the exact free bytes of every page
//! the manager has passed, refreshed under each page's X latch. An insert
//! that does not grow the file latches the one page the book names and
//! re-checks it there; only when no page in the book has room does it walk
//! on from the book's tail. The book starts empty after open and restart,
//! and fills by one walk on the first insert.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod body;
pub mod heap;

pub use heap::HeapManager;
