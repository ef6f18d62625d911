//! Lock-table harnesses: the wait/grant handshake across shards.
//!
//! A blocked request queues under every shard mutex, then parks on its
//! thread's parker and re-checks its queue under its shard's mutex; a
//! release grants it under that mutex and unparks it. A transaction's first
//! grant in a shard sets a bit in its directory word, or, when another live
//! transaction owns the word, spills into the shard's list; `release_all`
//! reads the word and sweeps every shard while any spill is live. Both
//! words are facade atomics, so the explored interleavings include a grant
//! noting its shard while the word's previous owner releases.
//!
//! * [`wait_grant`] — a waiter granted by the holder's `release_all`, its
//!   transaction sharing the holder's directory word: the table must end
//!   empty, no head, spill or directory bit left behind.
//! * [`deadlock_victim`] — two transactions request each other's lock:
//!   exactly one is the victim, and the other is granted once the victim
//!   releases.
//!
//! The lock wait is a timed park (the 30 s wedge backstop), so a grant that
//! forgot to unpark its waiter would still end under the model, by the
//! timeout; both harnesses therefore also require that no schedule needed
//! a forced timeout ([`Env::forced_timeouts`]).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use ariesim_common::stats::new_stats;
use ariesim_common::{Error, PageId, Rid, TxnId};
use ariesim_lock::{LockDuration, LockManager, LockMode, LockName};
use ariesim_obs::Obs;

use crate::runtime::Env;

/// A record on `page`: the lock table shards record names by page, so
/// pages 1 and 2 are two shards.
fn rec(page: u32) -> LockName {
    LockName::Record(Rid::new(PageId(page), 0))
}

fn manager() -> Arc<LockManager> {
    Arc::new(LockManager::new(new_stats(), Obs::disabled()))
}

/// T1 holds X on A's record and S on B's; T2 (whose id maps to T1's
/// directory word, so its first grant may spill) takes S on B, then waits
/// for S on A until T1's `release_all` grants it.
pub fn wait_grant(env: &mut Env) {
    const T1: TxnId = TxnId(1);
    const T2: TxnId = TxnId(1 + 64);
    let m = manager();
    let (a, b) = (rec(1), rec(2));
    m.request(T1, a.clone(), LockMode::X, LockDuration::Commit, false)
        .expect("setup: X on A");
    m.request(T1, b.clone(), LockMode::S, LockDuration::Commit, false)
        .expect("setup: S on B");
    {
        let m = m.clone();
        env.spawn(move || m.release_all(T1));
    }
    {
        let m = m.clone();
        env.spawn(move || {
            m.request(T2, b, LockMode::S, LockDuration::Commit, false)
                .expect("S is compatible with S");
            m.request(T2, a.clone(), LockMode::S, LockDuration::Commit, false)
                .expect("granted once the X is released");
            assert_eq!(m.holds(T2, &a), Some(LockMode::S), "woken without a grant");
            m.release_all(T2);
        });
    }
    env.join();
    assert_eq!(
        env.forced_timeouts(),
        0,
        "lost wakeup: a lock waiter slept out its timeout"
    );
    assert!(
        m.is_empty(),
        "the released table kept a head, a holder, a spill or a directory word"
    );
}

/// T1 holds X on A's record and T2 X on B's; each then requests the
/// other's. The second to queue closes the cycle and is the victim; it
/// releases, and the first is granted.
pub fn deadlock_victim(env: &mut Env) {
    let m = manager();
    let (a, b) = (rec(1), rec(2));
    let victims = Arc::new(AtomicU32::new(0));
    for (me, mine, theirs) in [(TxnId(1), a.clone(), b.clone()), (TxnId(2), b, a)] {
        m.request(me, mine, LockMode::X, LockDuration::Commit, false)
            .expect("setup: X on its own record");
        let (m, victims) = (m.clone(), victims.clone());
        env.spawn(move || {
            match m.request(me, theirs.clone(), LockMode::X, LockDuration::Commit, false) {
                Ok(()) => {
                    assert_eq!(
                        m.holds(me, &theirs),
                        Some(LockMode::X),
                        "woken without a grant"
                    );
                }
                Err(Error::Deadlock { txn }) => {
                    assert_eq!(txn, me, "the victim is the requester");
                    // ordering: the count is read after the join.
                    victims.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => panic!("unexpected lock error: {e}"),
            }
            m.release_all(me);
        });
    }
    env.join();
    assert_eq!(
        env.forced_timeouts(),
        0,
        "lost wakeup: a lock waiter slept out its timeout"
    );
    // ordering: every virtual thread has finished.
    let victims = victims.load(Ordering::Relaxed);
    assert_eq!(victims, 1, "{victims} deadlock victims, not one");
    assert!(
        m.is_empty(),
        "the released table kept a head, a holder, a spill or a directory word"
    );
}
