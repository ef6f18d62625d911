//! Transaction manager.
//!
//! Owns the transaction table and the transaction lifecycle the paper
//! assumes from ARIES (§1.2):
//!
//! * **commit** forces the log up to the commit record (no pages are
//!   written — no-force), then releases locks;
//! * **total and partial rollback** walk the transaction's log chain
//!   backwards, dispatching each update record to its resource manager for
//!   undo and writing CLRs, so that rollbacks are themselves bounded and
//!   repeatable ([`undo`]);
//! * **nested top actions** bracket SMOs: [`manager::TxnHandle::begin_nta`]
//!   remembers the transaction's last LSN, and
//!   [`manager::TxnHandle::end_nta`] writes the dummy CLR pointing at it, so
//!   a later rollback bypasses the SMO's records (§1.2, Figures 9/10);
//! * **fuzzy checkpoints** snapshot the dirty page table and transaction
//!   table without quiescing anything
//!   ([`manager::TransactionManager::checkpoint`]).
//!
//! The [`RmRegistry`] maps [`ariesim_wal::RmId`]s to the resource managers
//! that interpret their log-record bodies; both normal rollback (here) and
//! restart recovery (`ariesim-recovery`) dispatch through it.
//!
//! [`Core`] is the assembled engine — log, pool, locks, registry and
//! transaction manager over one `Stats` and one `Obs` — and [`Core::open`]
//! the one place that assembles it.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod core;
pub mod manager;
pub mod undo;

pub use crate::core::Core;
pub use manager::{RmRegistry, TransactionManager, TxnHandle};
