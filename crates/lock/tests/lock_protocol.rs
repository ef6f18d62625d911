//! Additional lock-manager protocol tests: the ARIES/KVL baseline's IX and
//! SIX modes on a key value, conversion queue priority, instant-duration
//! waiters in FIFO order — the [Gray78] machinery §1.2 assumes.

use ariesim_common::stats::new_stats;
use ariesim_common::{Error, IndexId, PageId, Rid, TxnId};
use ariesim_lock::{LockDuration, LockManager, LockMode, LockName};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use LockDuration::*;
use LockMode::*;

fn lm() -> Arc<LockManager> {
    Arc::new(LockManager::new(new_stats(), ariesim_obs::Obs::disabled()))
}

fn value() -> LockName {
    LockName::key_value(IndexId(1), b"v".to_vec())
}

fn rec(n: u16) -> LockName {
    LockName::Record(Rid::new(PageId(1), n))
}

#[test]
fn ix_holders_coexist_and_exclude_readers() {
    let m = lm();
    // KVL inserters of one value each take IX on it.
    m.request(TxnId(1), value(), IX, Commit, false).unwrap();
    m.request(TxnId(2), value(), IX, Commit, false).unwrap();
    // A reader's S conflicts with the inserters' IX.
    assert!(matches!(
        m.request(TxnId(4), value(), S, Commit, true),
        Err(Error::WouldBlock)
    ));
    m.release_all(TxnId(1));
    m.release_all(TxnId(2));
    m.request(TxnId(4), value(), S, Commit, true).unwrap();
}

#[test]
fn six_blocks_readers_and_inserters() {
    let m = lm();
    m.request(TxnId(1), value(), SIX, Commit, false).unwrap();
    assert!(matches!(
        m.request(TxnId(3), value(), S, Commit, true),
        Err(Error::WouldBlock)
    ));
    assert!(matches!(
        m.request(TxnId(4), value(), IX, Commit, true),
        Err(Error::WouldBlock)
    ));
}

#[test]
fn s_plus_ix_converts_to_six() {
    let m = lm();
    m.request(TxnId(1), value(), S, Commit, false).unwrap();
    m.request(TxnId(1), value(), IX, Commit, false).unwrap();
    assert_eq!(m.holds(TxnId(1), &value()), Some(SIX));
}

#[test]
fn conversion_jumps_the_queue_ahead_of_new_requests() {
    let m = lm();
    // T1 and T2 both hold S; T3 queues for X (new request).
    m.request(TxnId(1), rec(0), S, Commit, false).unwrap();
    m.request(TxnId(2), rec(0), S, Commit, false).unwrap();
    let m3 = m.clone();
    let t3 = std::thread::spawn(move || m3.request(TxnId(3), rec(0), X, Commit, false));
    while !m.has_waiters() {
        std::thread::yield_now();
    }
    // T1 requests conversion S→X: goes AHEAD of T3 in the queue. It can't be
    // granted while T2 holds S.
    let granted_first = Arc::new(AtomicU64::new(0));
    let m1 = m.clone();
    let g1 = granted_first.clone();
    let t1 = std::thread::spawn(move || {
        m1.request(TxnId(1), rec(0), X, Commit, false).unwrap();
        g1.compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst).ok();
        m1.release_all(TxnId(1));
    });
    std::thread::sleep(Duration::from_millis(50));
    // Release T2's S: the converter must win over the queued X.
    m.release_all(TxnId(2));
    t1.join().unwrap();
    assert_eq!(granted_first.load(Ordering::SeqCst), 1);
    t3.join().unwrap().unwrap();
    m.release_all(TxnId(3));
}

#[test]
fn instant_waiters_unblock_in_order_and_leave_no_residue() {
    let m = lm();
    m.request(TxnId(1), rec(0), X, Commit, false).unwrap();
    let done = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for t in 2..6u64 {
        let m = m.clone();
        let done = done.clone();
        handles.push(std::thread::spawn(move || {
            m.request(TxnId(t), rec(0), X, Instant, false).unwrap();
            done.fetch_add(1, Ordering::SeqCst);
        }));
    }
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(done.load(Ordering::SeqCst), 0);
    m.release_all(TxnId(1));
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(done.load(Ordering::SeqCst), 4);
    // All instant grants evaporated: the name is free.
    m.request(TxnId(9), rec(0), X, Commit, true).unwrap();
}

#[test]
fn three_party_deadlock_cycle_detected() {
    let m = lm();
    m.request(TxnId(1), rec(0), X, Commit, false).unwrap();
    m.request(TxnId(2), rec(1), X, Commit, false).unwrap();
    m.request(TxnId(3), rec(2), X, Commit, false).unwrap();
    // 2→0 and 3→1 wait; 1→2 closes a 3-cycle.
    let m2 = m.clone();
    let h2 = std::thread::spawn(move || m2.request(TxnId(2), rec(0), X, Commit, false));
    let m3 = m.clone();
    let h3 = std::thread::spawn(move || m3.request(TxnId(3), rec(1), X, Commit, false));
    for _ in 0..1000 {
        if m.has_waiters() {
            break;
        }
        std::thread::yield_now();
    }
    std::thread::sleep(Duration::from_millis(30));
    let e = m.request(TxnId(1), rec(2), X, Commit, false).unwrap_err();
    assert!(matches!(e, Error::Deadlock { txn: TxnId(1) }));
    m.release_all(TxnId(1));
    h2.join().unwrap().unwrap();
    m.release_all(TxnId(2));
    h3.join().unwrap().unwrap();
    m.release_all(TxnId(3));
}

#[test]
fn key_value_names_are_per_index() {
    let m = lm();
    let a = LockName::KeyValue(ariesim_common::IndexId(1), b"k".to_vec());
    let b = LockName::KeyValue(ariesim_common::IndexId(2), b"k".to_vec());
    m.request(TxnId(1), a, X, Commit, false).unwrap();
    // Same value in a different index: no conflict.
    m.request(TxnId(2), b, X, Commit, true).unwrap();
}

#[test]
fn release_all_under_contention_wakes_everyone_exactly_once() {
    let m = lm();
    for n in 0..6u16 {
        m.request(TxnId(1), rec(n), X, Commit, false).unwrap();
    }
    let woken = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for n in 0..6u16 {
        let m = m.clone();
        let woken = woken.clone();
        handles.push(std::thread::spawn(move || {
            m.request(TxnId(10 + n as u64), rec(n), S, Commit, false)
                .unwrap();
            woken.fetch_add(1, Ordering::SeqCst);
        }));
    }
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(woken.load(Ordering::SeqCst), 0);
    m.release_all(TxnId(1));
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(woken.load(Ordering::SeqCst), 6);
}
