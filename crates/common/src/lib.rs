//! Shared primitives for the ARIES/IM reproduction.
//!
//! This crate holds everything that more than one subsystem needs and that
//! carries no policy of its own: strongly-typed identifiers ([`ids`]),
//! error types ([`error`]), little-endian byte codecs with explicit framing
//! ([`codec`]), the raw fixed-size page and its common header ([`page`]),
//! the slotted-page body layout shared by heap and index pages ([`slotted`]),
//! index key representation and ordering ([`key`]), and the instrumentation
//! counters used to regenerate the paper's efficiency measures ([`stats`]).
//!
//! Nothing here knows about transactions, logging, or B+-trees.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod codec;
pub mod error;
pub mod ids;
pub mod key;
pub mod msync;
pub mod page;
pub mod slotted;
pub mod stats;
pub mod tmp;

pub use error::{Error, Result};
pub use ids::{IndexId, Lsn, PageId, Rid, SlotNo, TableId, TxnId};
pub use key::IndexKey;
pub use page::{PageBuf, PageType, PAGE_SIZE};
