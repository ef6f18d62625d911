//! Group-commit stress: N committer threads electing flush leaders among
//! themselves, plus crash semantics of dropping the manager.

use ariesim_common::stats::new_stats;
use ariesim_common::tmp::TempDir;
use ariesim_common::{Lsn, PageId, TxnId};
use ariesim_wal::record::RmId;
use ariesim_wal::{LogManager, LogOptions, LogRecord};

fn upd(txn: u64, body: &[u8]) -> LogRecord {
    LogRecord::update(TxnId(txn), Lsn::NULL, RmId::Heap, PageId(1), body.to_vec())
}

/// 8 committers × 200 commits each: every flush_to must return only once
/// the record is durable, and the final log must contain every record.
#[test]
fn committers_race_leader_election() {
    const THREADS: u64 = 8;
    const COMMITS: u64 = 200;
    let dir = TempDir::new("wal-gc");
    let path = dir.file("wal");
    let m = LogManager::open(&path, LogOptions::default(), new_stats()).unwrap();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let m = &m;
            s.spawn(move || {
                for i in 0..COMMITS {
                    let lsn = m.append(&upd(t, &[t as u8, i as u8, (i >> 8) as u8]));
                    m.flush_to(lsn).unwrap();
                    assert!(
                        m.flushed_lsn() > lsn,
                        "flush_to returned before {lsn:?} was durable"
                    );
                }
            });
        }
    });
    drop(m);
    // Reopen: every record was durable at flush_to return, so all survive.
    let re = LogManager::open(&path, LogOptions::default(), new_stats()).unwrap();
    let mut per_thread = [0u64; THREADS as usize];
    for r in re.scan(Lsn::NULL) {
        let r = r.unwrap();
        per_thread[r.body[0] as usize] += 1;
    }
    assert_eq!(per_thread, [COMMITS; THREADS as usize]);
}

#[test]
fn drop_loses_exactly_the_unflushed_tail() {
    let dir = TempDir::new("wal-gc");
    let path = dir.file("wal");
    let m = LogManager::open(&path, LogOptions::default(), new_stats()).unwrap();
    let l1 = m.append(&upd(1, b"durable"));
    m.flush_to(l1).unwrap();
    let l2 = m.append(&upd(1, b"lost"));
    assert!(m.read(l2).is_ok());
    drop(m); // no flush on drop: simulated crash
    let re = LogManager::open(&path, LogOptions::default(), new_stats()).unwrap();
    assert_eq!(re.last_lsn(), l1);
    assert!(re.read(l2).is_err());
}

#[test]
fn group_commit_batches_are_counted() {
    let dir = TempDir::new("wal-gc");
    let obs = ariesim_obs::Obs::enabled(64);
    let stats = new_stats();
    let m = LogManager::open_with_obs(
        &dir.file("wal"),
        LogOptions::default(),
        stats.clone(),
        obs.clone(),
    )
    .unwrap();
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let m = &m;
            s.spawn(move || {
                for i in 0..50u64 {
                    let lsn = m.append(&upd(t, &[t as u8, i as u8]));
                    m.flush_to(lsn).unwrap();
                }
            });
        }
    });
    let batches = obs
        .wal
        .group_batches
        .load(std::sync::atomic::Ordering::Relaxed);
    let riders = obs
        .wal
        .group_riders
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(batches > 0, "no group batches recorded");
    // Every force here is a group flush, and a batch forces at most once
    // (none when an earlier batch already covered its target).
    let forces = stats.snapshot().log_forces;
    assert!(forces > 0 && forces <= batches, "{forces} forces, {batches} batches");
    // A commit is satisfied by leading a batch, riding one, or hitting the
    // already-durable fast path (which counts nowhere) — so the counters
    // can never exceed the commit count.
    assert!(batches <= 200, "more batches than commits: {batches}");
    assert!(riders <= 200, "more riders than commits: {riders}");
}
