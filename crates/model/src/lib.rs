//! Deterministic concurrency model checker for the ARIES/IM reproduction.
//!
//! A loom/CHESS-style checker built on the workspace's own lock shim: every
//! `parking_lot` Mutex/RwLock acquire and release, every
//! `ariesim_common::msync` facade atomic, and every explicit
//! `yield_point!()` is a *schedule point* reported to a controller, which
//! runs N virtual threads one step at a time and systematically explores
//! their interleavings (preemption-bounded DFS with sleep-set pruning, see
//! [`explore`]). Assertion failures, deadlocks and livelocks come back with
//! a replayable JSONL schedule trace ([`trace::Trace`], `model replay`).
//!
//! What it checks today ([`harness`]): the buffer pool's claim / install /
//! failed-load-unwind protocol and pin-vs-eviction dance, and the WAL's
//! lock-free durable-LSN mirror — the two places this codebase does
//! cross-thread reasoning outside a single mutex. Toy harnesses shaped
//! like the two races the pool once shipped with (install without a
//! page-table re-check, latch without an owner-word check) are the
//! checker's own regression oracle: its tests assert it finds both.
//!
//! Known model limitations, deliberate for now:
//!
//! * `Condvar` is not intercepted — the shim asserts if a model thread
//!   waits on one (only the lock manager does, and it has no harness yet);
//! * the RwLock model ignores writer-queue fairness: under the model a
//!   writer never sits in the real wait queue (acquires are granted only
//!   when they cannot block), so real try-acquires agree with the model and
//!   the explored space is a superset of the shim's fair schedules;
//! * guards must be released on the virtual thread that acquired them.

mod explore;
mod runtime;

pub mod harness;
pub mod rng;
pub mod trace;

pub use explore::{
    explore, replay, ExploreResult, Failure, ModelOptions, ReplayOutcome, QUANTUM,
};
pub use runtime::Env;
