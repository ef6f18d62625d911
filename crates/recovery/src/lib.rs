//! ARIES restart recovery (paper §1.2) and media recovery (§5).
//!
//! Restart is one forward pass and one backward sweep ([`ForwardPass`]):
//!
//! 1. **Seed**: read the last complete checkpoint — its transaction table
//!    and its dirty page table (which pages might be missing updates, each
//!    with its recovery LSN). The pass starts at the older of the
//!    checkpoint's begin and its oldest recovery LSN.
//! 2. **Forward pass**: decode each record once. *Repeat history* —
//!    reapply every logged update (including those of loser transactions
//!    and CLRs) that may be missing from its page, decided by the
//!    `page_lsn` comparison — and, from the checkpoint's begin on, keep
//!    the transaction table. Redo fixes the record's page with `fix_x`, as
//!    an update does, and is strictly **page-oriented**: the only page ever
//!    touched is the one in the record's envelope; the `redo_traversals`
//!    counter stays zero by construction, which experiment E10 asserts.
//!    That is what lets the records that rebuild the transaction table be
//!    redone in the same read.
//! 3. **Undo**: roll back every loser in one backward sweep of the log,
//!    largest LSN first, taking on each record the undo step a rollback
//!    takes (`ariesim_txn::undo::undo_step`): follow each transaction's
//!    chain, jumping over already-compensated work via CLR
//!    `undo_next_lsn`s — including whole nested top actions via their
//!    dummy CLRs, which is precisely how completed page splits survive the
//!    rollback of the transaction that performed them while *incomplete*
//!    splits are backed out.
//!
//! The pass is resumable: a log-shipping standby seeds it at open, steps
//! it as log arrives, and runs only the undo when promoted.
//!
//! Media recovery ([`media`]): fuzzy image copy + per-page roll-forward,
//! which takes restart's redo step on the dumped image — the paper's §5
//! claim that index pages are recoverable page-oriented from a dump without
//! any tree traversal.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod media;
pub mod restart;

pub use media::ImageCopy;
pub use restart::{restart, ForwardPass, RestartOutcome};
