//! A guided crash-recovery drill: watch ARIES restart's one forward pass
//! and its undo sweep do their work, including the undo of a loser transaction whose key delete must be
//! undone *logically* (the paper's Figure 1/11 machinery), and a
//! fuzzy-image-copy media recovery of a single damaged page (§5).
//!
//! ```sh
//! cargo run --example crash_recovery
//! ```

use ariesim::common::tmp::TempDir;
use ariesim::db::{Db, DbOptions, FetchCond, Row};
use ariesim::recovery::ImageCopy;

fn row(i: u32) -> Row {
    Row::new(vec![
        format!("key-{i:06}").into_bytes(),
        format!("payload-{i}").into_bytes(),
    ])
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = TempDir::new("crash-drill");
    let db = Db::open(dir.path(), DbOptions::default())?;
    db.create_table("t", 2)?;
    db.create_index("t_pk", "t", 0, true)?;

    // Committed work: enough to split leaves several times.
    let txn = db.begin();
    for i in 0..1000 {
        db.insert_row(&txn, "t", &row(i))?;
    }
    db.commit(&txn)?;
    println!(
        "committed 1000 rows; {} page splits so far",
        db.stats.snapshot().smo_splits
    );

    // A checkpoint bounds the forward pass.
    let ckpt = db.checkpoint()?;
    println!("fuzzy checkpoint at {ckpt}");

    // A loser: deletes and inserts that will never commit.
    let loser = db.begin();
    for i in 0..50 {
        let (rid, _) = db
            .fetch_via(&loser, "t_pk", format!("key-{i:06}").as_bytes(), FetchCond::Eq)?
            .unwrap();
        db.delete_row(&loser, "t", rid)?;
    }
    for i in 2000..2050 {
        db.insert_row(&loser, "t", &row(i))?;
    }
    db.log.flush_all()?; // records durable, commit absent → loser
    println!("loser transaction wrote {} log records and... crash!", 200);

    let path = db.crash();
    let db = Db::open(&path, DbOptions::default())?;
    let o = db.restart_outcome.as_ref().unwrap();
    println!("--- ARIES restart ---");
    println!(
        "forward:  seeded from checkpoint {:?}, started at {:?}, {} records decoded once",
        o.ckpt_lsn, o.redo_start, o.analyzed
    );
    println!(
        "redo:     {} of {} redoable records reapplied (repeat history)",
        o.redo_applied, o.redo_seen
    );
    println!("undo:     {} loser(s), {} actions undone", o.losers.len(), o.undone);
    let s = db.stats.snapshot();
    println!(
        "          page-oriented undos: {}, logical undos: {}, redo traversals: {} (always 0)",
        s.undo_page_oriented, s.undo_logical, s.redo_traversals
    );
    let report = db.verify_consistency()?;
    assert_eq!(report.rows, 1000, "losers gone, committed work intact");
    println!("verified: {} rows, {} index keys, structure OK", report.rows, report.index_keys);

    // --- media recovery (§5) -------------------------------------------------
    println!("--- media recovery drill ---");
    let tree = db.tree_by_name("t_pk")?;
    let tree_pages = {
        // Dump every page of the index: leaves + internals, via the checker.
        let mut pages = vec![tree.root];
        pages.extend(tree.scan_all_unlocked()?.iter().map(|_| tree.root).take(0));
        // Simplest page set: ask the space map for everything allocated.
        ariesim::storage::SpaceMap::new(db.pool.clone()).allocated_pages()?
    };
    let copy = ImageCopy::take(&db, &tree_pages)?;
    println!("fuzzy image copy of {} pages taken", copy.page_ids().len());

    // More committed updates AFTER the dump.
    let txn = db.begin();
    for i in 3000..3100 {
        db.insert_row(&txn, "t", &row(i))?;
    }
    db.commit(&txn)?;

    // "Lose" one index leaf (pretend a disk read failed) and bring it back
    // from the dump + log roll-forward.
    let victim = tree.leaf_for_value(b"key-000500")?;
    copy.restore_into(&db, victim)?;
    println!(
        "page {victim} restored from the dump and rolled forward ({} media passes)",
        db.stats.snapshot().media_recovery_passes
    );
    let report = db.verify_consistency()?;
    assert_eq!(report.rows, 1100);
    println!("verified after media recovery: {} rows, structure OK", report.rows);
    Ok(())
}
