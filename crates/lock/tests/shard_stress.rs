//! Two threads against the sharded lock table: unconditional requests on
//! names in four shards, with S → X conversions and one deadlock forced at
//! the start. Every request must end granted or in `Deadlock`, and both
//! threads must finish: a waiter that a release forgot to wake (a lost
//! wake-up, say `release_all` skipping one shard's waiters) stalls its
//! thread, and the watchdog below fails the test instead of hanging.

use ariesim_common::stats::new_stats;
use ariesim_common::{Error, PageId, Rid, TxnId};
use ariesim_lock::{LockDuration, LockManager, LockMode, LockName};
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Names on pages 0–3: one shard each, two names per page.
fn name(i: u64) -> LockName {
    LockName::Record(Rid::new(PageId((i % 4) as u32), (i / 4) as u16))
}

const NAMES: u64 = 8;
const TXNS: u64 = 3000;

/// xorshift64*: deterministic test randomness without a dependency.
fn next(state: &mut u64) -> u64 {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// Thread `me` (0 or 1): first the forced deadlock, then `TXNS`
/// transactions of three requests each, retried whole on `Deadlock`.
/// Returns the deadlocks it was the victim of.
fn client(m: &LockManager, me: u64, start: &Barrier) -> Result<u64, String> {
    let mut ids = (1..).map(|n| TxnId(n * 2 + me));
    let mut victims = 0;
    let mut request = |txn: TxnId, name: LockName, mode: LockMode| match m.request(
        txn,
        name,
        mode,
        LockDuration::Commit,
        false,
    ) {
        Ok(()) => Ok(true),
        Err(Error::Deadlock { .. }) => {
            m.release_all(txn);
            victims += 1;
            Ok(false)
        }
        Err(e) => Err(format!("{txn}: {e}")),
    };
    // Each holds X on its own name in its own shard, then asks for the
    // other's: whichever asks second closes the cycle.
    let txn = ids.next().unwrap_or(TxnId(0));
    request(txn, name(me), LockMode::X)?;
    start.wait();
    request(txn, name(1 - me), LockMode::X)?;
    m.release_all(txn);
    let mut rng = 0x9e37_79b9_7f4a_7c15 ^ (me + 1);
    for _ in 0..TXNS {
        'retry: loop {
            let txn = ids.next().unwrap_or(TxnId(0));
            for _ in 0..3 {
                let r = next(&mut rng);
                let n = name(r % NAMES);
                let granted = match r >> 60 {
                    // A read, then a conversion to X of the same name.
                    0..=5 => request(txn, n.clone(), LockMode::S)? && request(txn, n, LockMode::X)?,
                    6..=11 => request(txn, n, LockMode::S)?,
                    _ => request(txn, n, LockMode::X)?,
                };
                if !granted {
                    continue 'retry;
                }
            }
            m.release_all(txn);
            break;
        }
    }
    Ok(victims)
}

#[test]
fn two_threads_across_shards_end_granted_or_deadlocked() {
    let m = Arc::new(LockManager::new(new_stats(), ariesim_obs::Obs::disabled()));
    let start = Arc::new(Barrier::new(2));
    let (done_tx, done) = mpsc::channel();
    let clients: Vec<_> = (0..2)
        .map(|me| {
            let (m, start, done_tx) = (m.clone(), start.clone(), done_tx.clone());
            std::thread::spawn(move || {
                let _ = done_tx.send(client(&m, me, &start));
            })
        })
        .collect();
    let mut victims = 0;
    for _ in 0..2 {
        match done.recv_timeout(Duration::from_secs(20)) {
            Ok(r) => victims += r.unwrap(),
            // A stalled client cannot be joined; the failing test ends it.
            Err(_) => panic!("a client stalled: a lock waiter was never woken"),
        }
    }
    for c in clients {
        c.join().unwrap();
    }
    assert!(victims >= 1, "the forced deadlock chose a victim");
    assert!(!m.has_waiters());
    for i in 0..NAMES {
        m.request(TxnId(1), name(i), LockMode::X, LockDuration::Commit, true)
            .unwrap_or_else(|e| panic!("{:?} is still held: {e}", name(i)));
    }
}
