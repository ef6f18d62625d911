//! ARIES restart recovery (paper §1.2) and media recovery (§5).
//!
//! Restart is the classic three passes:
//!
//! 1. **Analysis**: scan from the last complete checkpoint,
//!    rebuilding the transaction table (who was in flight) and the dirty
//!    page table (which pages might be missing updates, each with its
//!    recovery LSN). Determines where redo must begin.
//! 2. **Redo**: *repeat history* — reapply every logged update
//!    (including those of loser transactions and CLRs) whose effect is not
//!    yet in the page, decided purely by the `page_lsn` comparison. Redo is
//!    strictly **page-oriented**: the only page ever touched is the one in
//!    the record's envelope; the `redo_traversals` counter stays zero by
//!    construction, which experiment E10 asserts.
//! 3. **Undo**: roll back every loser in one backward sweep of
//!    the log, following each transaction's chain (and jumping over
//!    already-compensated work via CLR `undo_next_lsn`s — including whole
//!    nested top actions via their dummy CLRs, which is precisely how
//!    completed page splits survive the rollback of the transaction that
//!    performed them while *incomplete* splits are backed out).
//!
//! Media recovery ([`media`]): fuzzy image copy + per-page roll-forward, the
//! paper's §5 claim that index pages are recoverable page-oriented from a
//! dump without any tree traversal.

//!
//! Continuous redo ([`continuous`]): the redo pass in resumable form, for a
//! log-shipping standby that repeats history forever and only runs the full
//! three passes when promoted.

pub mod continuous;
pub mod media;
pub mod restart;

pub use continuous::apply_redo;
pub use media::ImageCopy;
pub use restart::{restart, RestartOutcome};
