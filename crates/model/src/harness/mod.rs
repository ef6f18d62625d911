//! Harness registry: the protocols the checker explores.
//!
//! A harness is a plain function over [`Env`]: setup on the body thread
//! (unscheduled), `env.spawn` for each virtual thread, `env.join`, then
//! final assertions against the settled state. Every assertion — inside the
//! virtual threads or after the join — is an oracle the explorer can trip.
//!
//! Two kinds of expectations:
//!
//! * [`Expect::Pass`] — the protocol is believed correct; exploration must
//!   complete (or exhaust its budget) without a failure;
//! * [`Expect::Race`] — the harness is *supposed* to fail: a toy with a
//!   deliberate race ([`toy`]), three of them shaped like races the pool
//!   shipped with or guards against. The checker proving it still finds those is the
//!   regression oracle for the checker itself.

use crate::explore::{explore, replay, ExploreResult, ModelOptions, ReplayOutcome};
use crate::runtime::Env;
use crate::trace::Trace;

pub mod lock;
pub mod pool;
pub mod toy;
pub mod wal;

/// What a correct checker run looks like for a harness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// No schedule may fail.
    Pass,
    /// Some schedule must fail (deliberate race).
    Race,
}

#[derive(Clone, Copy)]
pub struct Harness {
    pub name: &'static str,
    pub about: &'static str,
    pub expect: Expect,
    pub body: fn(&mut Env),
}

/// All harnesses, in a stable order (the `--quick` suite runs these).
pub fn registry() -> Vec<Harness> {
    vec![
        Harness {
            name: "toy_lost_update",
            about: "deliberate unsynchronized load/store increment; the checker must find the lost update",
            expect: Expect::Race,
            body: toy::lost_update,
        },
        Harness {
            name: "toy_install_no_recheck",
            about: "two misses on one page install into a two-slot table without re-checking it after the I/O window; the checker must find the orphaned slot",
            expect: Expect::Race,
            body: toy::install_no_recheck,
        },
        Harness {
            name: "toy_latch_no_owner_check",
            about: "a reader latches a frame it pinned through a mapping a failed load then unwound, without validating the owner word; the checker must find the stale read",
            expect: Expect::Race,
            body: toy::latch_no_owner_check,
        },
        Harness {
            name: "toy_hit_no_owner_check",
            about: "a page-map hit pins and latches a frame an eviction is taking, without validating the owner word; the checker must find the stale read",
            expect: Expect::Race,
            body: toy::hit_no_owner_check,
        },
        Harness {
            name: "toy_grant_without_unpark",
            about: "a lock grant dequeues a parked waiter without unparking it; the checker must find the waiter that sleeps out its timeout",
            expect: Expect::Race,
            body: toy::grant_without_unpark,
        },
        Harness {
            name: "toy_mutex_counter",
            about: "the correct twin of toy_lost_update: increments under a mutex",
            expect: Expect::Pass,
            body: toy::mutex_counter,
        },
        Harness {
            name: "pool_claim_install",
            about: "two racing misses on one page: claim/install must keep table, meta and owner words agreeing",
            expect: Expect::Pass,
            body: pool::fix_race,
        },
        Harness {
            name: "pool_failed_load_unwind",
            about: "failed read I/O unwinds an installed mapping while another thread pinned it; owner re-check must catch the stale pin",
            expect: Expect::Pass,
            body: pool::failed_load_unwind,
        },
        Harness {
            name: "pool_hit_vs_evict",
            about: "a mutex-free page-map hit vs an eviction of its frame, then a failed reload of its page: the owner check must catch the hit that lost the race",
            expect: Expect::Pass,
            body: pool::hit_vs_evict,
        },
        Harness {
            name: "wal_flush_mirror",
            about: "LogManager::flush_to's lock-free durable-LSN mirror vs concurrent appenders: the mirror may lag, never lead",
            expect: Expect::Pass,
            body: wal::flush_mirror,
        },
        Harness {
            name: "wal_mirror_behind_file",
            about: "a poller of the durable-LSN mirror vs an append+flush_to: the mirror never leads the bytes in the log file",
            expect: Expect::Pass,
            body: wal::mirror_behind_file,
        },
        Harness {
            name: "wal_group_commit",
            about: "leader-elected group commit vs a concurrent append+buffered-read: flush_to returns only once the caller's LSN is durable",
            expect: Expect::Pass,
            body: wal::group_commit,
        },
        Harness {
            name: "lock_wait_grant",
            about: "a lock waiter granted by the holder's release_all across two shards, its transaction sharing the holder's directory word: the table ends empty",
            expect: Expect::Pass,
            body: lock::wait_grant,
        },
        Harness {
            name: "lock_deadlock_victim",
            about: "two transactions request each other's lock: exactly one is the deadlock victim, the other is granted after the victim releases",
            expect: Expect::Pass,
            body: lock::deadlock_victim,
        },
    ]
}

pub fn find(name: &str) -> Option<Harness> {
    registry().into_iter().find(|h| h.name == name)
}

/// Explore a harness.
pub fn run(h: &Harness, opts: &ModelOptions) -> ExploreResult {
    explore(h.name, opts, h.body)
}

/// Replay a recorded trace against a harness.
pub fn run_replay(h: &Harness, trace: &Trace) -> ReplayOutcome {
    replay(trace, h.body)
}
