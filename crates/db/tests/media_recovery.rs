//! Media recovery (§5): fuzzy image copy + page-oriented roll-forward.
//!
//! "Dumps of indexes can be taken and when there is a problem in reading a
//! page ... the page can be loaded from the last dump and then, by rolling
//! forward using the log, the page can be brought up-to-date."

use ariesim_common::tmp::TempDir;
use ariesim_common::PAGE_SIZE;
use ariesim_db::{Db, DbOptions, Row};
use ariesim_recovery::ImageCopy;
use ariesim_storage::SpaceMap;

/// Page images with the advisory SM_Bit/Delete_Bit flags masked out: those
/// bits are reset by unlogged hints (DESIGN.md §8), so log roll-forward may
/// legitimately leave them set where the live page has cleared them.
fn normalized(bytes: &[u8]) -> Vec<u8> {
    let mut v = bytes.to_vec();
    v[13] = 0; // flags byte of the common page header
    v
}

fn row(i: u32) -> Row {
    Row::new(vec![
        format!("k{i:06}").into_bytes(),
        format!("v{i}").into_bytes(),
    ])
}

fn setup(dir: &TempDir, rows: u32) -> std::sync::Arc<Db> {
    let db = Db::open(dir.path(), DbOptions::default()).unwrap();
    db.create_table("t", 2).unwrap();
    db.create_index("t_pk", "t", 0, true).unwrap();
    let txn = db.begin();
    for i in 0..rows {
        db.insert_row(&txn, "t", &row(i)).unwrap();
    }
    db.commit(&txn).unwrap();
    db
}

#[test]
fn damaged_page_recovers_from_dump_plus_roll_forward() {
    let dir = TempDir::new("media");
    let db = setup(&dir, 800);
    let pages = SpaceMap::new(db.pool.clone()).allocated_pages().unwrap();
    let copy = ImageCopy::take(&db, &pages).unwrap();

    // Updates AFTER the dump (these must come back via roll-forward).
    let txn = db.begin();
    for i in 800..900 {
        db.insert_row(&txn, "t", &row(i)).unwrap();
    }
    db.commit(&txn).unwrap();

    // "Damage" an index leaf: recover it from the dump.
    let tree = db.tree_by_name("t_pk").unwrap();
    let victim = tree.leaf_for_value(b"k000400").unwrap();
    let recovered = copy
        .recover_page(&db, victim)
        .unwrap();
    // The recovered image must equal the live page byte-for-byte.
    let live = db.pool.fix_s(victim).unwrap();
    assert_eq!(
        normalized(recovered.as_bytes().as_slice()),
        normalized(live.as_bytes().as_slice()),
        "roll-forward must reproduce the live page exactly (modulo hint bits)"
    );
    drop(live);
    assert_eq!(db.stats.snapshot().media_recovery_passes, 1);
}

#[test]
fn restore_into_pool_after_disk_corruption() {
    let dir = TempDir::new("media");
    let db = setup(&dir, 500);
    let pages = SpaceMap::new(db.pool.clone()).allocated_pages().unwrap();
    let copy = ImageCopy::take(&db, &pages).unwrap();
    let txn = db.begin();
    for i in 500..600 {
        db.insert_row(&txn, "t", &row(i)).unwrap();
    }
    db.commit(&txn).unwrap();

    let tree = db.tree_by_name("t_pk").unwrap();
    let victim = tree.leaf_for_value(b"k000100").unwrap();
    // Corrupt the page ON DISK (as if a write was torn), then flush nothing:
    // simulate a clean shutdown where the page read later fails its check.
    {
        use std::io::{Seek, SeekFrom, Write};
        db.pool.flush_all().unwrap();
        let mut f = std::fs::OpenOptions::new()
            .write(true)
            .open(dir.file("pages"))
            .unwrap();
        f.seek(SeekFrom::Start(victim.0 as u64 * PAGE_SIZE as u64))
            .unwrap();
        f.write_all(&vec![0xDE; PAGE_SIZE]).unwrap();
    }
    // The buffer pool still holds the good version; media recovery rebuilds
    // the image independently and reinstalls it (and eviction will rewrite
    // the disk copy, WAL rule and all).
    copy.restore_into(&db, victim)
        .unwrap();
    db.pool.flush_all().unwrap();
    // Now even a cold read sees the recovered page.
    let mut img = ariesim_common::PageBuf::zeroed();
    db.pool.disk().read_page(victim, &mut img).unwrap();
    assert_eq!(img.page_id(), victim);
    let report = db.verify_consistency().unwrap();
    assert_eq!(report.rows, 600);
}

#[test]
fn every_index_page_recoverable_from_one_dump() {
    // The §5 claim at full width: every page of the index can be rebuilt
    // from dump + log, one page at a time (one log pass per page — counted).
    let dir = TempDir::new("media");
    let db = setup(&dir, 600);
    let pages = SpaceMap::new(db.pool.clone()).allocated_pages().unwrap();
    let copy = ImageCopy::take(&db, &pages).unwrap();
    let txn = db.begin();
    for i in 600..700 {
        db.insert_row(&txn, "t", &row(i)).unwrap();
    }
    db.commit(&txn).unwrap();

    for &p in &copy.page_ids() {
        let recovered = copy.recover_page(&db, p).unwrap();
        let live = db.pool.fix_s(p).unwrap();
        assert_eq!(
            normalized(recovered.as_bytes().as_slice()),
            normalized(live.as_bytes().as_slice()),
            "page {p} diverged"
        );
    }
    assert_eq!(
        db.stats.snapshot().media_recovery_passes,
        copy.page_ids().len() as u64
    );
}
