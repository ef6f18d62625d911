//! The paper's §4 claims:
//!
//! 1. **No deadlocks involving latches** — latch acquisition is strictly
//!    ordered (parent→child, leaf→next-leaf, tree-latch→page-latch, and
//!    never child-holds-while-waiting-for-parent), so heavy mixed workloads
//!    must always run to completion. A hang here would trip the lock
//!    manager's wedge timeout and fail the test.
//! 2. **Rolling-back transactions never deadlock** — undo acquires no locks,
//!    so `rollback()` must never return `Deadlock` no matter the
//!    concurrency.

mod support;

use ariesim::btree::LockProtocol;
use ariesim::common::Error;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use support::{fix, nkey};

#[test]
fn mixed_workload_never_hangs_or_latch_deadlocks() {
    // NOTE: this bare-index fixture has no record manager, so each thread
    // owns a disjoint key set (k ≡ t mod 8) — exactly what data-only
    // locking's record locks would otherwise enforce (§2.1: "the record
    // manager would have already locked the corresponding data"). Conflicts
    // still abound: every next-key lock lands on a *neighbouring thread's*
    // key, and SMOs race everything.
    let f = fix(LockProtocol::DataOnly, false);
    let setup = f.tm.begin();
    for i in 0..1500u32 {
        f.tree.insert(&setup, &nkey(i * 8 + 7)).unwrap(); // thread-7 range pre-filled
    }
    f.tm.commit(&setup).unwrap();

    let deadlocks = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for t in 0..7u32 {
            let tm = f.tm.clone();
            let tree = f.tree.clone();
            let deadlocks = deadlocks.clone();
            s.spawn(move || {
                let mut mine: Vec<u32> = Vec::new(); // committed keys I own
                for round in 0..10u32 {
                    let txn = tm.begin();
                    let mut aborted = false;
                    let mut added: Vec<u32> = Vec::new();
                    let mut removed: Vec<u32> = Vec::new();
                    for i in 0..40u32 {
                        let del = (i + t) % 3 == 0 && !mine.is_empty();
                        let r = if del {
                            let n = mine[(round as usize * 17 + i as usize) % mine.len()];
                            if removed.contains(&n) || added.contains(&n) {
                                continue;
                            }
                            match tree.delete(&txn, &nkey(n)) {
                                Ok(()) => {
                                    removed.push(n);
                                    Ok(())
                                }
                                e => e,
                            }
                        } else {
                            let n = t + 8 * (round * 1000 + i * 13 + t * 7);
                            match tree.insert(&txn, &nkey(n)) {
                                Ok(()) => {
                                    added.push(n);
                                    Ok(())
                                }
                                e => e,
                            }
                        };
                        match r {
                            Ok(()) => {}
                            Err(Error::Deadlock { .. }) => {
                                deadlocks.fetch_add(1, Ordering::Relaxed);
                                // Claim 2: rollback itself must never fail.
                                tm.rollback(&txn)
                                    .expect("rolling back transactions never deadlock (§4)");
                                aborted = true;
                                break;
                            }
                            Err(e) => panic!("unexpected: {e}"),
                        }
                    }
                    if !aborted {
                        if round % 2 == 0 {
                            tm.commit(&txn).unwrap();
                            mine.retain(|n| !removed.contains(n));
                            mine.extend(added);
                        } else {
                            tm.rollback(&txn)
                                .expect("voluntary rollback never deadlocks");
                        }
                    }
                }
            });
        }
    });
    // If any latch deadlock had occurred, the 30s wedge timeout would have
    // fired inside a worker and panicked. Structure must be intact.
    f.tree.check_structure().unwrap();
    assert!(
        !f.locks.has_waiters(),
        "all lock queues must drain after the workload"
    );

    // Certify the run mechanically: every acquisition the workload made was
    // checked against the §4 order, depth and no-wait rules as it happened.
    let m = f.obs.monitor.snapshot();
    assert!(m.clean() && m.max_latch_depth == 2, "latch monitor: {m:?}");
}

#[test]
fn victim_is_the_requester_that_closed_the_cycle() {
    // Lock-level deadlock between two transactions on record names: the
    // transaction whose request completes the cycle gets the error; the
    // other proceeds. (Index traversals themselves cannot deadlock; only
    // user-level lock orders can, and those are detected.)
    let f = fix(LockProtocol::DataOnly, false);
    let setup = f.tm.begin();
    f.tree.insert(&setup, &nkey(1)).unwrap();
    f.tree.insert(&setup, &nkey(2)).unwrap();
    f.tm.commit(&setup).unwrap();

    use ariesim::lock::{LockDuration, LockMode, LockName};
    let t1 = f.tm.begin();
    let t2 = f.tm.begin();
    let r1 = LockName::Record(support::rid(1));
    let r2 = LockName::Record(support::rid(2));
    f.locks
        .request(t1.id, r1.clone(), LockMode::X, LockDuration::Commit, false)
        .unwrap();
    f.locks
        .request(t2.id, r2.clone(), LockMode::X, LockDuration::Commit, false)
        .unwrap();
    let h = {
        let locks = f.locks.clone();
        let t2_id = t2.id;
        let r1 = r1.clone();
        std::thread::spawn(move || {
            locks.request(t2_id, r1, LockMode::X, LockDuration::Commit, false)
        })
    };
    while !f.locks.has_waiters() {
        std::thread::yield_now();
    }
    let e = f
        .locks
        .request(t1.id, r2, LockMode::X, LockDuration::Commit, false)
        .unwrap_err();
    assert!(matches!(e, Error::Deadlock { txn } if txn == t1.id));
    f.tm.rollback(&t1).unwrap(); // never deadlocks
    h.join().unwrap().unwrap();
    f.tm.commit(&t2).unwrap();
}

#[test]
fn smo_heavy_concurrency_with_rollbacks() {
    // Split and page-delete SMOs racing rollbacks: the §4 argument covers
    // the tree latch too (its holder waits only for page latches, whose
    // holders never wait on locks or the tree latch).
    let f = fix(LockProtocol::DataOnly, false);
    std::thread::scope(|s| {
        for t in 0..6u32 {
            let tm = f.tm.clone();
            let tree = f.tree.clone();
            s.spawn(move || {
                for round in 0..4u32 {
                    let txn = tm.begin();
                    let base = t * 100_000 + round * 10_000;
                    for i in 0..300u32 {
                        tree.insert(&txn, &nkey(base + i)).unwrap();
                    }
                    if (t + round) % 2 == 0 {
                        tm.commit(&txn).unwrap();
                        // Delete the batch again to drive page deletions.
                        let txn = tm.begin();
                        for i in 0..300u32 {
                            tree.delete(&txn, &nkey(base + i)).unwrap();
                        }
                        tm.commit(&txn).unwrap();
                    } else {
                        tm.rollback(&txn).expect("rollback amid SMOs never deadlocks");
                    }
                }
            });
        }
    });
    let report = f.tree.check_structure().unwrap();
    assert_eq!(report.keys, 0, "every batch was deleted or rolled back");
}
