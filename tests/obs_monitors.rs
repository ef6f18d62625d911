//! Live protocol invariant monitors, exercised against the real engine
//! under contention and across a crash-restart.
//!
//! ARIES/IM's concurrency and recovery story rests on invariants the
//! `ariesim-obs` monitor checks at runtime: latch coupling never holds more
//! than two page latches (§3), latches are taken in rank order (§4), no
//! thread requests a lock unconditionally while latched (§2.2), restart
//! redo is page-oriented — zero tree traversals (§10) — and no dirty page
//! reaches disk before the log covers its page_LSN (the WAL rule, §1.2).
//! These tests drive splits, lock contention, a crash and seeded
//! write-backs ahead of the log, then read the monitor's verdict.

mod support;

use ariesim::btree::fetch::FetchCond;
use ariesim::btree::LockProtocol;
use ariesim::common::{Lsn, PageId};
use ariesim::obs::monitor::Class;
use ariesim::obs::{
    current_latch_depth, take_latch_high_water, Obs, SpanKind, SPAN_NAMES,
};
use std::time::{Duration, Instant};
use support::{nkey, rig, FRAMES};

/// Concurrent inserts driving a steady stream of page splits, mixed with
/// readers: latch coupling must never exceed two page latches, and no
/// thread may block on a lock while latched.
#[test]
fn latch_protocol_holds_under_concurrent_splits() {
    let obs = Obs::enabled(1 << 14);
    let f = rig(LockProtocol::DataOnly, false, FRAMES, obs.clone());
    let txn = f.tm.begin();
    for i in 0..200u32 {
        f.tree.insert(&txn, &nkey(i * 100)).unwrap();
    }
    f.tm.commit(&txn).unwrap();

    std::thread::scope(|s| {
        for t in 0..4u32 {
            let f = &f;
            s.spawn(move || {
                for i in 0..400u32 {
                    let txn = f.tm.begin();
                    let k = nkey(1_000_000 + t * 1_000_000 + i);
                    f.tree.insert(&txn, &k).unwrap();
                    if i % 4 == 0 {
                        f.tree
                            .fetch(&txn, &nkey((i % 200) * 100).value, FetchCond::Ge)
                            .unwrap();
                    }
                    f.tm.commit(&txn).unwrap();
                }
            });
        }
    });

    assert!(
        f.stats.snapshot().smo_splits > 0,
        "workload must actually split pages"
    );
    let m = obs.monitor.snapshot();
    assert!(
        (1..=2).contains(&m.max_latch_depth),
        "latch coupling depth out of range: {m:?}"
    );
    assert_eq!(m.latch_depth_violations, 0, "{m:?}");
    assert_eq!(m.lock_wait_with_latch_violations, 0, "{m:?}");
    assert!(m.clean(), "{m:?}");
}

/// The depth tracker sees a violation through the real guards, not only
/// through hand-fed `acquired` calls: a third page latch held by one thread
/// is counted (a depth violation, not an order one — coupling is the legal
/// rank-equal wait), a downgrade leaves the depth alone, and dropping the
/// guards unwinds to zero. `tests/latch_budget.rs` reads this same
/// per-thread high-water mark.
#[test]
fn third_held_page_latch_is_a_counted_violation() {
    let obs = Obs::enabled(1 << 10);
    let f = rig(LockProtocol::DataOnly, false, FRAMES, obs.clone());
    let before = obs.monitor.snapshot();
    assert!(before.clean() && before.max_latch_depth <= 2, "{before:?}");
    assert_eq!(current_latch_depth(), 0);
    take_latch_high_water();

    let a = f.pool.fix_s(PageId(1)).unwrap();
    let x = f.pool.fix_x(PageId(2)).unwrap();
    assert_eq!(current_latch_depth(), 2);
    let b = x.downgrade();
    assert_eq!(current_latch_depth(), 2, "downgrade keeps the latch held");
    assert!(obs.monitor.snapshot().clean(), "two latches are within budget");
    let c = f.pool.fix_s(PageId(3)).unwrap();
    assert_eq!(current_latch_depth(), 3);

    let m = obs.monitor.snapshot();
    assert_eq!(m.latch_depth_violations, 1, "{m:?}");
    assert_eq!(m.max_latch_depth, 3, "{m:?}");
    assert_eq!(m.latch_order_violations, 0, "{m:?}");

    drop((a, b, c));
    assert_eq!(current_latch_depth(), 0);
    assert_eq!(take_latch_high_water(), 3);
    assert_eq!(f.pool.total_pins(), 0);
}

/// The order check through the real guards: asking for the tree latch while
/// a page latch is held is §4's forbidden order, counted before the request
/// could block and attributed to the tree-latch site.
#[test]
fn tree_latch_under_a_page_latch_is_an_order_violation() {
    let obs = Obs::enabled(1 << 10);
    let f = rig(LockProtocol::DataOnly, false, FRAMES, obs.clone());
    assert!(obs.monitor.snapshot().clean());

    let page = f.pool.fix_s(f.tree.root).unwrap();
    drop(f.tree.hold_tree_latch_x());
    drop(page);

    let m = obs.monitor.snapshot();
    assert_eq!(m.latch_order_violations, 1, "{m:?}");
    let v = m.first_order_violation.expect("first violation kept");
    assert_eq!(
        (v.held, v.acquired, v.site),
        (Class::PageLatch, Class::TreeLatch, "btree::tree_x")
    );
    assert!(!m.clean());
}

/// The no-wait rule is checked at the request, not only at the wait: an
/// unconditional request made under a page latch is counted even when the
/// lock is free and granted at once. A conditional request there is the
/// legal §2.2 pattern and is not.
#[test]
fn unconditional_lock_request_under_a_page_latch_is_counted() {
    use ariesim::lock::{LockDuration, LockMode, LockName};
    let obs = Obs::enabled(1 << 10);
    let f = rig(LockProtocol::DataOnly, false, FRAMES, obs.clone());
    assert!(obs.monitor.snapshot().clean());

    let txn = f.tm.begin();
    let page = f.pool.fix_s(f.tree.root).unwrap();
    let (x, c) = (LockMode::X, LockDuration::Commit);
    let name = |n| LockName::Record(support::rid(n));
    f.locks.request(txn.id, name(7), x, c, true).unwrap();
    let conditional = obs.monitor.snapshot();
    f.locks.request(txn.id, name(8), x, c, false).unwrap();
    drop(page);
    f.tm.commit(&txn).unwrap();

    assert!(conditional.clean(), "a conditional request is legal");
    let m = obs.monitor.snapshot();
    assert_eq!(m.lock_wait_with_latch_violations, 1, "{m:?}");
    assert!(!m.clean());
}

/// Crash with losers in flight, restart with a monitored pool: redo must
/// be page-oriented (the monitor counts any traversal as a violation).
#[test]
fn restart_redo_is_page_oriented_per_monitor() {
    let obs = Obs::enabled(1 << 12);
    let f = rig(LockProtocol::DataOnly, false, FRAMES, obs.clone());
    let txn = f.tm.begin();
    for i in 0..300u32 {
        f.tree.insert(&txn, &nkey(i)).unwrap();
    }
    f.tm.commit(&txn).unwrap();
    let loser = f.tm.begin();
    for i in 0..40u32 {
        f.tree.insert(&loser, &nkey(10_000 + i)).unwrap();
    }
    f.log.flush_all().unwrap();

    drop(loser);
    let obs2 = Obs::enabled(1 << 12);
    let (f, _) = f.crash_and_restart(obs2.clone());

    let m = obs2.monitor.snapshot();
    assert_eq!(
        m.redo_traversal_violations, 0,
        "restart redo traversed the tree: {m:?}"
    );
    assert!(m.clean(), "{m:?}");
    // The losers' undo ran through the monitored latch layer too.
    assert!(m.max_latch_depth >= 1, "restart touched no pages? {m:?}");
    f.tree.check_structure().unwrap();
}

/// Stamp the tree's root with a page_LSN past the end of the log: no force
/// can make that record durable (`flush_to` returns once the whole log is),
/// so the root's next write-back breaks the WAL rule. Returns the LSN.
fn stamp_root_ahead_of_the_log(f: &support::Rig) -> Lsn {
    let lsn = Lsn(f.log.next_lsn().0 + 4096);
    f.pool.fix_x(f.tree.root).unwrap().record_update(lsn);
    lsn
}

/// The monitor's verdict after one seeded write-back of the root.
fn assert_one_wal_violation(obs: &Obs, f: &support::Rig, page_lsn: Lsn) {
    let m = obs.monitor.snapshot();
    assert_eq!(m.wal_rule_violations, 1, "{m:?}");
    let v = m.first_wal_violation.expect("first violation kept");
    assert_eq!((v.page, v.page_lsn), (f.tree.root.0, page_lsn.0), "{v:?}");
    assert_eq!(v.durable, f.log.flushed_lsn().0, "{v:?}");
    assert!(!m.clean());
}

/// Seeded WAL-rule violation on the flush path: `flush_page` writes a page
/// whose page_LSN the log does not cover, and the monitor counts it.
#[test]
fn write_back_ahead_of_the_log_is_counted_on_flush() {
    let obs = Obs::enabled(1 << 10);
    let f = rig(LockProtocol::DataOnly, false, FRAMES, obs.clone());
    f.log.flush_all().unwrap();
    f.pool.flush_all().unwrap();
    assert!(obs.monitor.snapshot().clean());

    let lsn = stamp_root_ahead_of_the_log(&f);
    f.pool.flush_page(f.tree.root).unwrap();
    assert_one_wal_violation(&obs, &f, lsn);
}

/// Seeded WAL-rule violation on the eviction path: a 16-frame pool pushes
/// the stamped root out while fixing other pages, and the monitor counts
/// its write-back.
#[test]
fn write_back_ahead_of_the_log_is_counted_on_eviction() {
    let obs = Obs::enabled(1 << 10);
    let f = rig(LockProtocol::DataOnly, false, 16, obs.clone());
    f.log.flush_all().unwrap();
    f.pool.flush_all().unwrap();
    assert!(obs.monitor.snapshot().clean());

    let lsn = stamp_root_ahead_of_the_log(&f);
    let evictions = || obs.pool.evictions.load(std::sync::atomic::Ordering::Relaxed);
    let before = evictions();
    // Never-written pages read back zeroed; 64 of them cycle the pool.
    for p in 0..64u32 {
        drop(f.pool.fix_s(PageId(1_000_000 + p)).unwrap());
    }
    assert!(evictions() > before && !f.pool.is_cached(f.tree.root));
    assert_one_wal_violation(&obs, &f, lsn);
}

/// Spin until `done` holds (another thread has reached its wait).
fn wait_until(done: impl Fn() -> bool) {
    let start = Instant::now();
    while !done() {
        assert!(start.elapsed() < Duration::from_secs(30), "the other thread never waited");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// One timer per timed site: a span's drop is the only place an interval is
/// recorded, so each kind's histogram holds exactly its span count, and the
/// wait and I/O kinds count what `Stats` counts. Two threads and a pool much
/// smaller than the tree force every one of them.
#[test]
fn span_histograms_count_what_stats_count() {
    let obs = Obs::enabled(1 << 10);
    let f = rig(LockProtocol::DataOnly, false, 16, obs.clone());
    obs.reset();
    let before = f.stats.snapshot();

    // Commit forces, evictions and WAL-rule forces: a tree of ~40 leaves
    // through 16 frames. Re-reading the low keys faults evicted leaves in.
    let txn = f.tm.begin();
    for i in 0..6000u32 {
        f.tree.insert(&txn, &nkey(2 * i)).unwrap();
    }
    f.tm.commit(&txn).unwrap();
    let txn = f.tm.begin();
    for i in (0..6000u32).step_by(300) {
        f.tree.fetch(&txn, &nkey(2 * i).value, FetchCond::Eq).unwrap();
    }
    f.tm.commit(&txn).unwrap();

    std::thread::scope(|s| {
        // A lock wait: the reader's S lock on the next key (16) holds off
        // the phantom insert of 15 until the reader commits.
        let reader = f.tm.begin();
        f.tree.fetch(&reader, &nkey(15).value, FetchCond::Eq).unwrap();
        let waits = f.stats.snapshot().lock_waits;
        let writer = s.spawn(|| {
            let txn = f.tm.begin();
            f.tree.insert(&txn, &nkey(15)).unwrap();
            f.tm.commit(&txn).unwrap();
        });
        wait_until(|| f.stats.snapshot().lock_waits > waits);
        f.tm.commit(&reader).unwrap();
        writer.join().unwrap();

        // A page-latch wait: a descent blocks on the X-latched root.
        let root = f.pool.fix_x(f.tree.root).unwrap();
        let waits = f.stats.snapshot().latch_page_waits;
        let fetcher = s.spawn(|| {
            let txn = f.tm.begin();
            f.tree.fetch(&txn, &nkey(100).value, FetchCond::Eq).unwrap();
            f.tm.commit(&txn).unwrap();
        });
        wait_until(|| f.stats.snapshot().latch_page_waits > waits);
        drop(root);
        fetcher.join().unwrap();
    });

    let d = f.stats.snapshot().since(&before);
    assert!(d.lock_waits >= 1 && d.latch_page_waits >= 1, "{d:?}");
    assert!(d.log_forces > 0 && d.page_reads > 0, "{d:?}");
    assert!(obs.pool.evictions.load(std::sync::atomic::Ordering::Relaxed) > 0);

    let spans = obs.spans.snapshot();
    let count = |kind: SpanKind| obs.spans.hist(kind).snapshot().count;
    for kind in [
        SpanKind::LockWait,
        SpanKind::LatchWait,
        SpanKind::WalAppend,
        SpanKind::WalFsync,
        SpanKind::PageRead,
        SpanKind::PageWrite,
        SpanKind::Apply,
        SpanKind::UserWork,
    ] {
        let i = kind as usize;
        assert_eq!(count(kind), spans.count[i], "{}", SPAN_NAMES[i]);
    }
    assert_eq!(count(SpanKind::LockWait), d.lock_waits);
    assert_eq!(count(SpanKind::LatchWait), d.latch_page_waits + d.latch_tree_waits);
    assert_eq!(count(SpanKind::WalFsync), d.log_forces);
    assert_eq!(count(SpanKind::PageRead), d.page_reads);
    assert!(obs.monitor.snapshot().clean());
}
