//! Figures 9 and 10 — the exact log-record shapes of the two SMOs.
//!
//! Figure 9 (page split during forward processing): all the split's records
//! are written, then the **dummy CLR** whose `UndoNxtLSN` points at the
//! transaction's last record *before* the SMO, and only then the key insert
//! that necessitated the split. A rollback therefore undoes the insert and
//! skips the split.
//!
//! Figure 10 (page deletion): the **key delete is logged first**, then the
//! page-deletion records, then the dummy CLR whose `UndoNxtLSN` points *at
//! the key-deletion record* — a rollback skips the SMO but still undoes the
//! delete (logically, since the page is gone).

mod support;

use ariesim::btree::body::IndexBody;
use ariesim::btree::LockProtocol;
use ariesim::common::Lsn;
use ariesim::wal::{LogRecord, RecordKind, RmId};
use support::{fix, nkey};

fn index_records_of_txn(f: &support::Rig, txn: ariesim::common::TxnId) -> Vec<LogRecord> {
    f.log
        .scan(Lsn::NULL)
        .map(|r| r.unwrap())
        .filter(|r| r.txn == txn)
        .collect()
}

fn body_of(rec: &LogRecord) -> Option<IndexBody> {
    (rec.rm == RmId::Index).then(|| IndexBody::decode(&rec.body).unwrap())
}

#[test]
fn figure9_split_log_sequence() {
    let f = fix(LockProtocol::DataOnly, false);
    // Fill one leaf to the brim in a committed transaction.
    let setup = f.tm.begin();
    let mut i = 0u32;
    loop {
        f.tree.insert(&setup, &nkey(i * 2)).unwrap();
        i += 1;
        if f.stats.snapshot().smo_splits > 0 {
            panic!("setup must not split");
        }
        // Stop when the leaf is nearly full (next insert will split): probe
        // by free space through the structure checker instead — simpler:
        // fixed count that fits exactly below one 8 KiB leaf.
        if i == 330 {
            break;
        }
    }
    f.tm.commit(&setup).unwrap();

    // T1's insert triggers the split.
    let t1 = f.tm.begin();
    let pre_smo_lsn = t1.last_lsn(); // NULL: t1 has not written yet
    let mut j = 330u32;
    while f.stats.snapshot().smo_splits == 0 {
        f.tree.insert(&t1, &nkey(j * 2)).unwrap();
        j += 1;
        assert!(j < 1000);
    }
    let recs = index_records_of_txn(&f, t1.id);

    // Find the dummy CLR.
    let dummy_pos = recs
        .iter()
        .position(|r| r.kind == RecordKind::DummyClr)
        .expect("split must end with a dummy CLR");
    let dummy = &recs[dummy_pos];

    // Everything between the last pre-SMO record and the dummy CLR is the
    // SMO body: page format, shrink, separator post, space-map update.
    let smo_body: Vec<&LogRecord> = recs[..dummy_pos]
        .iter()
        .filter(|r| r.lsn > dummy.undo_next_lsn)
        .collect();
    assert!(
        smo_body
            .iter()
            .any(|r| matches!(body_of(r), Some(IndexBody::PageFormat { .. }))),
        "SMO logs the new page's format"
    );
    assert!(
        smo_body
            .iter()
            .any(|r| matches!(body_of(r), Some(IndexBody::SplitShrink { .. }))),
        "SMO logs the split page's shrink"
    );
    assert!(
        smo_body.iter().any(|r| r.rm == RmId::Space),
        "SMO logs the page allocation"
    );
    // This split grew the root (level-0 root split): RootReplace appears.
    assert!(
        smo_body
            .iter()
            .any(|r| matches!(body_of(r), Some(IndexBody::RootReplace { .. }))),
        "first split of a root-leaf grows the tree"
    );
    // All SMO records are regular redo-undo updates, not CLRs.
    assert!(smo_body.iter().all(|r| r.kind == RecordKind::Update));

    // Figure 9's ordering: the key insert that caused the split comes AFTER
    // the dummy CLR.
    let insert_after = recs[dummy_pos + 1..]
        .iter()
        .find(|r| matches!(body_of(r), Some(IndexBody::InsertKey { .. })))
        .expect("the causing insert follows the SMO");
    assert!(insert_after.lsn > dummy.lsn);

    // UndoNxtLSN of the dummy CLR = last record before the SMO started.
    assert!(dummy.undo_next_lsn >= pre_smo_lsn);
    assert!(
        dummy.undo_next_lsn < smo_body.first().unwrap().lsn,
        "dummy CLR points before the whole SMO"
    );

    // And the semantic consequence: rollback undoes T1's inserts but not the
    // split.
    let leaves_now = f.tree.check_structure().unwrap().leaves;
    f.tm.rollback(&t1).unwrap();
    let report = f.tree.check_structure().unwrap();
    assert_eq!(report.keys, 330, "T1's inserts all undone");
    assert_eq!(report.leaves, leaves_now, "split survived the rollback");
}

#[test]
fn figure10_page_delete_log_sequence() {
    let f = fix(LockProtocol::DataOnly, false);
    // Two leaves worth of keys, committed.
    let setup = f.tm.begin();
    for i in 0..500u32 {
        f.tree.insert(&setup, &nkey(i)).unwrap();
    }
    f.tm.commit(&setup).unwrap();
    let leaves_before = f.tree.check_structure().unwrap().leaves;
    assert!(leaves_before >= 2);

    // T1 deletes keys until a page empties and is deleted.
    let t1 = f.tm.begin();
    let mut i = 0u32;
    while f.stats.snapshot().smo_page_deletes == 0 {
        f.tree.delete(&t1, &nkey(i)).unwrap();
        i += 1;
        assert!(i < 500);
    }
    let recs = index_records_of_txn(&f, t1.id);
    let dummy = recs
        .iter()
        .rfind(|r| r.kind == RecordKind::DummyClr)
        .expect("page delete ends with a dummy CLR");

    // Figure 10: the dummy CLR's UndoNxtLSN is the KEY DELETION record.
    let target = f.log.read(dummy.undo_next_lsn).unwrap();
    assert!(
        matches!(body_of(&target), Some(IndexBody::DeleteKey { .. })),
        "dummy CLR must point at the key-deletion record, got {:?}",
        target.kind
    );

    // The SMO body (records between the key delete and the dummy CLR):
    // chain updates, separator removal, page free, space free.
    let smo_body: Vec<&LogRecord> = recs
        .iter()
        .filter(|r| r.lsn > dummy.undo_next_lsn && r.lsn < dummy.lsn)
        .collect();
    assert!(smo_body
        .iter()
        .any(|r| matches!(body_of(r), Some(IndexBody::RemoveSeparator { .. }))));
    assert!(smo_body
        .iter()
        .any(|r| matches!(body_of(r), Some(IndexBody::FreePage { .. }))));
    assert!(smo_body.iter().any(|r| r.rm == RmId::Space));
    assert!(smo_body.iter().all(|r| r.kind == RecordKind::Update));

    // Rollback: the page deletion is NOT undone page-for-page, but the key
    // deletes are (the emptied page's keys return via logical undo, which
    // may re-split).
    f.tm.rollback(&t1).unwrap();
    let report = f.tree.check_structure().unwrap();
    assert_eq!(report.keys, 500, "every deleted key restored");
}

// ---------------------------------------------------------------------------
// Crash-driven variants: the same Figure 9/10 guarantees checked through
// restart recovery, with the crash instant pinned by the fault registry's
// named crash points instead of a hand-picked log truncation.
// ---------------------------------------------------------------------------

mod crash_variants {
    use ariesim::common::tmp::TempDir;
    use ariesim::common::Lsn;
    use ariesim::db::{Db, DbOptions, Row};
    use ariesim::wal::{LogRecord, RecordKind};
    use ariesim_fault as fault;
    use std::sync::Arc;

    /// Padded key so one 8 KiB leaf holds ~100 keys.
    fn key_of(i: u32) -> Vec<u8> {
        format!("k{i:06}-{:-<40}", "").into_bytes()
    }

    fn row_of(i: u32) -> Row {
        Row::new(vec![key_of(i), format!("v{i}").into_bytes()])
    }

    /// Open a database with `committed` rows committed, ready to split (or
    /// page-delete) in the next transaction.
    fn seeded_db(dir: &TempDir, committed: u32) -> Arc<Db> {
        let db = Db::open(dir.path(), DbOptions::default()).unwrap();
        db.create_table("t", 2).unwrap();
        db.create_index("t_pk", "t", 0, true).unwrap();
        let txn = db.begin();
        for i in 0..committed {
            db.insert_row(&txn, "t", &row_of(i)).unwrap();
        }
        db.commit(&txn).unwrap();
        db
    }

    /// Arm `point` (forced-tail: the whole log tail is durable at the crash,
    /// the adversarial case where the partial SMO's records survive), run
    /// `work` on a loser transaction inserting `lo..` until the crash fires,
    /// and return the loser's TxnId.
    fn crash_inserting(db: Arc<Db>, lo: u32, point: &str) -> u64 {
        let log = db.log.clone();
        fault::set_pre_crash_hook(move || {
            let _ = log.flush_all();
        });
        fault::arm_forced(point, 1);
        fault::activate();
        let loser = std::sync::Mutex::new(0u64);
        let out = fault::run_to_crash(|| {
            let txn = db.begin();
            *loser.lock().unwrap() = txn.id.0;
            for i in lo..lo + 500 {
                db.insert_row(&txn, "t", &row_of(i)).unwrap();
            }
            db.commit(&txn).unwrap();
            drop(db.crash());
        });
        fault::disarm();
        fault::clear_pre_crash_hook();
        let sig = out.crashed().expect("armed SMO point must fire");
        assert_eq!(sig.point, point);
        let id = *loser.lock().unwrap();
        assert!(id != 0);
        id
    }

    fn records_of(db: &Db, txn: u64) -> Vec<LogRecord> {
        db.log
            .scan(Lsn::NULL)
            .map(|r| r.unwrap())
            .filter(|r| r.txn.0 == txn)
            .collect()
    }

    /// Crash between the split's log records (after SplitShrink, before the
    /// separator post and dummy CLR), with the partial SMO's records durable.
    /// Restart must treat them as regular loser updates — undo them one by
    /// one via CLRs with well-formed UndoNxtLSN chaining — and leave the
    /// committed rows and tree structure intact.
    #[test]
    fn figure9_crash_between_split_records_backs_out_partial_smo() {
        let _x = fault::exclusive();
        let dir = TempDir::new("fig9-crash");
        let db = seeded_db(&dir, 100);
        let loser = crash_inserting(db, 100, "smo.split.shrunk");

        let db = Db::open(dir.path(), DbOptions::default()).unwrap();
        let outcome = db.restart_outcome.as_ref().unwrap();
        assert!(outcome.losers.iter().any(|t| t.0 == loser));
        assert!(outcome.undone > 0, "partial SMO records must be undone");
        let report = db.verify_consistency().unwrap();
        assert_eq!(report.rows, 100, "exactly the committed rows survive");

        // The restart-written CLRs chain backwards: each CLR's UndoNxtLSN is
        // below its own LSN and the chain is strictly descending, ending in
        // the loser's End record — interrupted rollback can always resume.
        let recs = records_of(&db, loser);
        let clrs: Vec<&LogRecord> = recs
            .iter()
            .filter(|r| r.kind == RecordKind::Clr)
            .collect();
        assert!(!clrs.is_empty(), "restart must write CLRs for the loser");
        let mut prev = Lsn(u64::MAX);
        for clr in &clrs {
            assert!(clr.undo_next_lsn < clr.lsn, "CLR points strictly back");
            assert!(
                clr.undo_next_lsn < prev,
                "UndoNxtLSN chain must descend monotonically"
            );
            prev = clr.undo_next_lsn;
        }
        assert!(
            recs.iter().any(|r| r.kind == RecordKind::End),
            "loser fully rolled back at restart"
        );
    }

    /// Crash immediately after the split's dummy CLR (durable). Figure 9's
    /// guarantee: the SMO is complete, so restart's undo of the loser skips
    /// the whole split via the dummy CLR's UndoNxtLSN and the split
    /// survives, while the loser's key inserts are undone.
    #[test]
    fn figure9_crash_at_dummy_clr_split_survives_recovery() {
        let _x = fault::exclusive();
        let dir = TempDir::new("fig9-dummy");
        let db = seeded_db(&dir, 100);
        let loser = crash_inserting(db, 100, "smo.split.after_dummy_clr");

        let db = Db::open(dir.path(), DbOptions::default()).unwrap();
        let report = db.verify_consistency().unwrap();
        assert_eq!(report.rows, 100, "loser inserts undone, committed kept");

        // The dummy CLR survived recovery with its UndoNxtLSN intact: it
        // points at a loser record strictly before the SMO body.
        let recs = records_of(&db, loser);
        let dummy = recs
            .iter()
            .find(|r| r.kind == RecordKind::DummyClr)
            .expect("dummy CLR must be durable at this crash point");
        let target = db.log.read(dummy.undo_next_lsn).unwrap();
        assert_eq!(target.txn.0, loser, "UndoNxtLSN stays inside the chain");
        assert!(target.lsn < dummy.lsn);

        // And the split itself survived: the tree kept its extra leaf even
        // though the transaction that performed it rolled back.
        let tree = db.tree_by_name("t_pk").unwrap();
        let check = tree.check_structure().unwrap();
        assert!(
            check.leaves >= 2,
            "SMO must survive the loser's restart rollback (got {} leaves)",
            check.leaves
        );
        assert_eq!(check.keys, 100);
    }

    /// Figure 10 torture: crash just BEFORE the page-deletion SMO's dummy
    /// CLR (SMO records durable, dummy CLR not). Restart undoes the SMO
    /// records page-by-page AND the key deletes: every key comes back.
    #[test]
    fn figure10_crash_before_dummy_clr_restores_all_keys() {
        figure10_crash_case("smo.delete.before_dummy_clr");
    }

    /// Figure 10 torture: crash just AFTER the dummy CLR. Restart skips the
    /// completed SMO via the dummy CLR (which points AT the key-delete
    /// record) and undoes the key deletes logically: every key comes back.
    #[test]
    fn figure10_crash_after_dummy_clr_restores_all_keys() {
        figure10_crash_case("smo.delete.after_dummy_clr");
    }

    fn figure10_crash_case(point: &str) {
        let _x = fault::exclusive();
        let dir = TempDir::new("fig10-crash");
        let db = seeded_db(&dir, 250);
        let log = db.log.clone();
        fault::set_pre_crash_hook(move || {
            let _ = log.flush_all();
        });
        fault::arm_forced(point, 1);
        fault::activate();
        let loser = std::sync::Mutex::new(0u64);
        let out = fault::run_to_crash(|| {
            use ariesim::db::FetchCond;
            let txn = db.begin();
            *loser.lock().unwrap() = txn.id.0;
            // Delete from the low end until the leftmost leaf empties and
            // the page-deletion SMO reaches the armed point.
            for i in 0..250 {
                let (rid, _) = db
                    .fetch_via(&txn, "t_pk", &key_of(i), FetchCond::Eq)
                    .unwrap()
                    .unwrap();
                db.delete_row(&txn, "t", rid).unwrap();
            }
            db.commit(&txn).unwrap();
            drop(db.crash());
        });
        fault::disarm();
        fault::clear_pre_crash_hook();
        let sig = out.crashed().expect("page-delete SMO point must fire");
        assert_eq!(sig.point, point);
        let loser = *loser.lock().unwrap();

        let db = Db::open(dir.path(), DbOptions::default()).unwrap();
        let report = db.verify_consistency().unwrap();
        assert_eq!(
            report.rows, 250,
            "every key the loser deleted must be restored ({point})"
        );
        if point.ends_with("after_dummy_clr") {
            // Figure 10's chaining survived recovery: the durable dummy CLR
            // points at a key-delete (Update) record of the same txn.
            let recs = records_of(&db, loser);
            let dummy = recs
                .iter()
                .filter(|r| r.kind == RecordKind::DummyClr)
                .max_by_key(|r| r.lsn)
                .expect("dummy CLR durable at this point");
            let target = db.log.read(dummy.undo_next_lsn).unwrap();
            assert_eq!(target.txn.0, loser);
            assert_eq!(
                target.kind,
                RecordKind::Update,
                "UndoNxtLSN points at the key-delete record, not into the SMO"
            );
        }
    }
}
