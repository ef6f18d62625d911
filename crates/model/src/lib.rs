//! Deterministic concurrency model checker for the ARIES/IM reproduction.
//!
//! A loom/CHESS-style checker built on the workspace's own lock shim: every
//! `parking_lot` Mutex/RwLock acquire and release, every `Parker` park and
//! unpark, every `ariesim_common::msync` facade atomic, and every explicit
//! `yield_point!()` is a *schedule point* reported to a controller, which
//! runs N virtual threads one step at a time and systematically explores
//! their interleavings (preemption-bounded DFS with sleep-set pruning, see
//! [`explore`]). Assertion failures, deadlocks and livelocks come back with
//! a replayable JSONL schedule trace ([`trace::Trace`], `model replay`).
//! Every blocking point in the engine is a page latch, a mutex or a
//! `Parker`, so no engine wait escapes the controller.
//!
//! What it checks today ([`harness`]): the buffer pool's claim / install /
//! failed-load-unwind protocol and a page-map hit racing an eviction, the
//! WAL's lock-free durable-LSN mirror and group commit, and the lock
//! table's wait/grant handshake and deadlock victim across shards. Toy harnesses
//! shaped like the races the pool once shipped with (install without a
//! page-table re-check, latch without an owner-word check) and like a lock
//! grant that forgets its wakeup are the checker's own regression oracle:
//! its tests assert it finds them.
//!
//! Known model limitations, deliberate for now:
//!
//! * the RwLock model ignores writer-queue fairness: under the model a
//!   writer never sits in the real wait queue (acquires are granted only
//!   when they cannot block), so real try-acquires agree with the model and
//!   the explored space is a superset of the shim's fair schedules;
//! * a timed park may return at any step, so a lost wakeup on a timed wait
//!   does not hang the model; a harness sees it only by asserting that no
//!   schedule needed a forced timeout ([`Env::forced_timeouts`]),
//!   as the lock harnesses do;
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
