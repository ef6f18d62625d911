//! Lock manager.
//!
//! Implements the locking substrate ARIES/IM assumes (paper §1.2, §2.1):
//!
//! * modes **S, X, IX, SIX** with Gray's compatibility matrix and
//!   conversion lattice ([`mode`]); `IX` is the ARIES/KVL baseline's insert
//!   lock on a key value;
//! * **durations**: *instant* (the lock is released the moment it is granted
//!   — used for next-key locks during inserts) and *commit* (held until the
//!   transaction ends, released by [`LockManager::release_all`])
//!   ([`LockDuration`]);
//! * **conditional requests**: fail immediately with
//!   [`ariesim_common::Error::WouldBlock`] instead of queueing — the paper's
//!   §2.2 rule is that no lock is ever waited for while page latches are
//!   held, so the index manager first asks conditionally, and only waits
//!   unconditionally after releasing its latches;
//! * **deadlock detection** on the waits-for graph, run at wait time; the
//!   victim is the requester that closed the cycle ([`manager`]).
//!
//! Lock *names* ([`LockName`]) encode what ARIES/IM locks: record RIDs for
//! data-only locking, (index, key-value) pairs for index-specific locking and
//! the ARIES/KVL baseline, and the per-index EOF name used when a fetch runs
//! off the right edge of the index (paper §2.2).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod manager;
pub mod mode;
pub mod name;

pub use manager::LockManager;
pub use mode::{LockDuration, LockMode};
pub use name::LockName;
