//! Storage layer: disk manager, buffer pool, page latches, space map.
//!
//! Provides the buffer-management substrate ARIES assumes (paper §1.2):
//!
//! * **steal** — a dirty page may be written to disk before its transaction
//!   commits (eviction does this), which is why undo is needed at restart;
//! * **no-force** — commit does not write pages, only the log, which is why
//!   redo is needed at restart;
//! * the **WAL rule** — before a dirty page is written, the log is flushed
//!   up to that page's `page_lsn` ([`pool`]);
//! * **page latches** — each buffer frame is guarded by an RwLock that *is*
//!   the page latch; S/X and conditional acquisition are exactly the
//!   operations the paper's Figure 4 traversal needs ([`pool`]);
//! * a **logged space map** for page allocation, so that page splits and
//!   page deletions (which allocate/free pages inside nested top actions)
//!   recover correctly ([`space`]).
//!
//! Crash simulation: dropping the [`pool::BufferPool`] without flushing and
//! reopening the [`disk::DiskManager`] over the same file reproduces the
//! stable state a crash would leave — only flushed log and previously
//! written pages survive.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod disk;
pub mod eviction;
pub mod pool;
pub mod space;

pub use disk::{DiskManager, ReadFaultHook, WriteFaultHook};
pub use pool::{BufferPool, PageReadGuard, PageWriteGuard};
pub use space::{SpaceMap, SpaceRm, FIRST_USER_PAGE, SPACE_MAP_PAGE};
