//! Write-ahead log.
//!
//! Implements the logging substrate ARIES/IM assumes (paper §1.2 and
//! \[MHLPS92\]):
//!
//! * every log record carries its transaction's backward chain (`prev_lsn`);
//! * compensation log records (CLRs) are **redo-only** and carry an
//!   `undo_next_lsn` pointing at the next record to undo, which bounds
//!   logging during (possibly repeated) rollbacks;
//! * *dummy CLRs* terminate nested top actions: their `undo_next_lsn` points
//!   at the record preceding the NTA, so a later rollback of the enclosing
//!   transaction skips the NTA's records entirely (this is how SMOs survive
//!   the rollback of the transaction that performed them);
//! * the log is the unit of durability: pages may be written any time after
//!   their updates are logged (*steal*), and commits force the log, not the
//!   pages (*no-force*).
//!
//! The on-disk format is length-prefixed, CRC-framed records so restart can
//! tell a torn tail from a clean end of log ([`frame`]). The record *envelope*
//! (who, what kind, which page) is typed here; the *body* is an opaque byte
//! string owned by the resource manager that wrote it ([`record`]). This is
//! ARIES's resource-manager architecture: recovery dispatches bodies back to
//! the RM identified by [`record::RmId`].
//!
//! A stored envelope holds only the fields its kind uses (format v02):
//!
//! | kind | stored fields | envelope |
//! |---|---|---|
//! | `Update` | `prev_lsn`, `txn`, `kind`, `rm`, `page` | 22 B |
//! | `Clr` | `prev_lsn`, `txn`, `kind`, `undo_next_lsn`, `rm`, `page` | 30 B |
//! | `DummyClr` | `prev_lsn`, `txn`, `kind`, `undo_next_lsn` | 25 B |
//! | `Commit`, `Abort`, `End`, `CkptBegin`, `CkptEnd` | `prev_lsn`, `txn`, `kind` | 17 B |

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod frame;
pub mod manager;
pub mod record;
pub mod rm;

pub use manager::{LogManager, LogOptions};
pub use record::{CheckpointData, DptEntry, LogRecord, RecordKind, RmId, TxnCkptEntry, TxnState};
pub use rm::{ChainLogger, ResourceManager};
