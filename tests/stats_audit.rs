//! Stats-counter audit: every counter in `ariesim_common::stats` must have
//! a live call site that actually fires under a realistic mix of work.
//!
//! Audit result (kept current with the counter block):
//!
//! * `latches_tree_instant` — live: `BTree::tree_instant_s` (traverse.rs)
//!   and the SM_Bit / Delete_Bit POSC reset in the leaf step (step.rs).
//! * `media_recovery_passes` — live: `ImageCopy::recover_page` (media.rs).
//! * `undo_page_oriented` — live: three undo arms in btree/rmimpl.rs.
//! * `redo_traversals` — deliberately has **no** bump site: ARIES/IM redo
//!   is page-oriented (§10), so the counter exists to prove it stays 0.
//!   It is asserted zero here after a real crash-restart.
//!
//! The test below drives mixed operations (inserts with splits, fetches,
//! deletes, a rollback, a media-recovery pass) and then a crash-restart,
//! and asserts every audited counter fired.

mod support;

use ariesim::btree::fetch::FetchCond;
use ariesim::btree::LockProtocol;
use ariesim::obs::Obs;
use ariesim::recovery::ImageCopy;
use ariesim::storage::SpaceMap;
use support::{fix, nkey};

#[test]
fn audited_counters_fire_under_mixed_ops_and_recovery() {
    let f = fix(LockProtocol::DataOnly, false);

    // Mixed operations: enough inserts to split pages, some fetches, a
    // delete followed by an insert into the freed space (the Delete_Bit
    // path that takes an instant tree latch), and a rollback.
    let txn = f.tm.begin();
    for i in 0..400u32 {
        f.tree.insert(&txn, &nkey(i)).unwrap();
    }
    f.tm.commit(&txn).unwrap();

    let txn = f.tm.begin();
    for i in 0..50u32 {
        f.tree.fetch(&txn, &nkey(i * 7).value, FetchCond::Eq).unwrap();
    }
    f.tm.commit(&txn).unwrap();

    // Delete then re-insert on the same leaf: the insert sees Delete_Bit=1
    // and establishes a POSC via an instant tree latch.
    let txn = f.tm.begin();
    f.tree.delete(&txn, &nkey(200)).unwrap();
    f.tm.commit(&txn).unwrap();
    let txn = f.tm.begin();
    f.tree.insert(&txn, &nkey(200)).unwrap();
    f.tm.commit(&txn).unwrap();

    // Rollback of a fresh insert with no intervening split: page-oriented
    // undo.
    let txn = f.tm.begin();
    f.tree.insert(&txn, &nkey(90_000)).unwrap();
    f.tm.rollback(&txn).unwrap();

    // Media recovery: image-copy every allocated page, then roll one leaf
    // forward from the dump (one log pass).
    let pages = SpaceMap::new(f.pool.clone()).allocated_pages().unwrap();
    let copy = ImageCopy::take(&f, &pages).unwrap();
    let victim = f.tree.leaf_for_value(&nkey(100).value).unwrap();
    copy.recover_page(&f, victim).unwrap();

    // Force dirty pages out so the write path is exercised too (the pool
    // is large enough that nothing evicts on its own here).
    f.pool.flush_all().unwrap();

    let s = f.stats.snapshot();
    // The three counters the audit was asked about:
    assert!(s.latches_tree_instant > 0, "latches_tree_instant dead: {s:?}");
    assert_eq!(s.media_recovery_passes, 1, "media_recovery_passes dead");
    assert!(s.undo_page_oriented > 0, "undo_page_oriented dead: {s:?}");
    // The rest of the counter block, spot-checked per subsystem:
    assert!(s.locks_acquired > 0 && s.locks_record > 0 && s.locks_next_key > 0);
    assert!(s.locks_instant > 0 && s.locks_commit > 0);
    assert!(s.latches_page > 0 && s.latches_tree > 0);
    assert!(s.page_fixes > 0 && s.page_writes > 0);
    assert!(s.log_forces > 0 && s.log_records > 0 && s.log_bytes > 0);
    assert!(s.tree_traversals > 0 && s.smo_splits > 0);
    assert!(s.index_inserts >= 402 && s.index_deletes >= 1 && s.index_fetches >= 50);

    // Crash with an in-flight transaction, then restart: redo counters
    // fire, undo of the loser is page-oriented, and — the paper's claim —
    // redo performs zero tree traversals.
    let loser = f.tm.begin();
    f.tree.insert(&loser, &nkey(91_000)).unwrap();
    f.log.flush_all().unwrap();

    drop(loser);
    let (f, _) = f.crash_and_restart(Obs::disabled());

    let s2 = f.stats.snapshot();
    assert!(s2.redo_records_seen > 0, "redo saw no records: {s2:?}");
    assert!(s2.redo_applied > 0, "nothing redone: {s2:?}");
    assert!(s2.restart_page_reads > 0, "restart read no pages: {s2:?}");
    assert!(s2.undo_page_oriented > 0, "loser undo not page-oriented: {s2:?}");
    assert_eq!(s2.redo_traversals, 0, "redo must stay page-oriented");
    f.tree.check_structure().unwrap();
}
