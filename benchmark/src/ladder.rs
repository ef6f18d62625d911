//! The layer cost ladder: a single-threaded loop over each layer's public
//! function, on a freshly set-up database whose data fits the pool.
//!
//! Tight rungs (a few tens of nanoseconds) are timed as a whole loop; rungs
//! that need untimed work around the call (a `begin`, a `commit`) time each
//! call and sum. `Stats` deltas are exact because nothing else is running.
//! The `Db`-level calls are measured the same way as the `btree` and
//! `record` rungs beneath them, so `db.*_overhead_ns` — the catalog mutex,
//! `TableDef` clone and `Row` codec — is a difference of like with like.

use crate::gen::{base_key, inserted_key, payload, scramble};
use crate::run::{db_options, setup, Engine, INDEX, TABLE};
use crate::spec::{LADDER_FRAMES, LADDER_MISS_FRAMES, ROWS, SCAN_KEYS};
use ariesim_btree::fetch::{FetchCond, FetchResult};
use ariesim_common::stats::{new_stats, Bump};
use ariesim_common::{Error, IndexKey, Lsn, PageBuf, PageId, PageType, Result, Rid, TxnId};
use ariesim_db::{Db, Row};
use ariesim_lock::{LockDuration, LockMode, LockName};
use ariesim_obs::Obs;
use ariesim_txn::TxnHandle;
use ariesim_wal::{LogManager, LogOptions, LogRecord, RmId};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Client id the ladder's inserted keys carry.
const LADDER_CLIENT: u8 = 250;

/// Every rung, in nanoseconds per call unless the name says otherwise.
#[derive(Debug, Default)]
pub struct Ladder {
    pub slotted_insert_ns: f64,
    pub slotted_read_ns: f64,
    pub fix_hit_ns: f64,
    pub fix_miss_ns: f64,
    pub lock_request_release_ns: f64,
    pub locks_per_read: f64,
    pub locks_per_scan: f64,
    pub locks_per_insert: f64,
    pub locks_per_update: f64,
    pub locks_per_delete: f64,
    pub wal_append_ns: f64,
    pub wal_force_ns: f64,
    pub wal_force_fsync_ns: f64,
    pub wal_scan_mb_s: f64,
    pub btree_fetch_ns: f64,
    pub btree_fetch_next_ns: f64,
    pub btree_insert_ns: f64,
    pub btree_delete_ns: f64,
    pub record_insert_ns: f64,
    pub record_fetch_ns: f64,
    pub record_update_ns: f64,
    pub record_delete_ns: f64,
    pub record_fixes_per_insert: f64,
    pub txn_begin_commit_ro_ns: f64,
    pub txn_commit_rw_ns: f64,
    pub txn_rollback_ns_per_update: f64,
    pub db_read_ns: f64,
    pub db_insert_ns: f64,
    pub db_update_ns: f64,
    pub db_delete_ns: f64,
}

/// Nanoseconds per iteration of `f`, timing the loop as a whole.
fn per_call(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let started = Instant::now();
    for i in 0..iters {
        f(i);
    }
    started.elapsed().as_nanos() as f64 / iters as f64
}

/// Accumulates the exact time of individual calls.
#[derive(Default)]
struct Acc {
    ns: u64,
    calls: u64,
}

impl Acc {
    #[inline]
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let r = f();
        self.ns += started.elapsed().as_nanos() as u64;
        self.calls += 1;
        r
    }

    fn mean(&self) -> f64 {
        self.ns as f64 / self.calls.max(1) as f64
    }
}

/// Spread loop indices over the key space.
fn scatter(i: usize) -> u32 {
    scramble(i as u64)
}

fn encoded_row(key: &[u8], version: u32) -> Vec<u8> {
    Row::new(vec![key.to_vec(), payload(LADDER_CLIENT, version)]).encode()
}

/// Measure every rung. `scale` multiplies the iteration counts (`--quick`
/// passes less than 1).
pub fn measure(work: &Path, scale: f64) -> Result<Ladder> {
    let n = |iters: usize| ((iters as f64 * scale) as usize).max(20);
    let mut l = Ladder::default();
    common_rungs(&mut l, n(400_000))?;
    wal_rungs(&mut l, work, &n)?;

    // The miss rung needs a pool the data does not fit; it only reads, so
    // the same files are then reopened with the ladder's full pool.
    let dir = work.join("ladder");
    let (engine, _) = setup(&dir, LADDER_MISS_FRAMES, Obs::disabled())?;
    l.fix_miss_ns = fix_miss_rung(&engine.db, n(20_000))?;
    let table = engine.table;
    drop(engine);
    let db = Db::open(&dir, db_options(LADDER_FRAMES))?;
    let engine = Engine { db, table };

    storage_and_lock_rungs(&mut l, &engine.db, &n)?;
    read_rungs(&mut l, &engine.db, &n)?;
    write_rungs(&mut l, &engine, &n)?;
    txn_rungs(&mut l, &engine, &n)?;
    engine.db.verify_consistency()?; // the rungs kept heap and index in step
    Ok(l)
}

fn common_rungs(l: &mut Ladder, iters: usize) -> Result<()> {
    let mut page = PageBuf::zeroed();
    page.format(PageId(1), PageType::IndexLeaf, 1, 0);
    let cell = [0x5Au8; 40];
    for i in 0..64 {
        page.insert_cell_at(i, &cell)?;
    }
    let mut failed = false;
    l.slotted_insert_ns = per_call(iters, |_| {
        failed |= page.insert_cell_at(32, black_box(&cell)).is_err();
        failed |= page.delete_cell_at(32).is_err();
    });
    if failed {
        return Err(Error::Internal("slotted-page rung ran out of room".into()));
    }
    l.slotted_read_ns = per_call(iters * 4, |i| {
        black_box(page.cell(black_box(i as u16 % 64)));
    });
    Ok(())
}

fn wal_rungs(l: &mut Ladder, work: &Path, n: &impl Fn(usize) -> usize) -> Result<()> {
    std::fs::create_dir_all(work)?;
    // A 150-byte update record, the size of a heap update of this table.
    let rec = LogRecord::update(TxnId(1), Lsn::NULL, RmId::Heap, PageId(1), vec![0xAB; 150]);
    let log = LogManager::open(&work.join("ladder.wal"), LogOptions::default(), new_stats())?;
    l.wal_append_ns = per_call(n(100_000), |_| {
        black_box(log.append(&rec));
    });
    let mut err = None;
    l.wal_force_ns = per_call(n(20_000), |_| {
        let lsn = log.append(&rec);
        if let Err(e) = log.flush_to(lsn) {
            err = Some(e);
        }
    });
    log.flush_all()?;
    let bytes = log.next_lsn().0 - log.first_lsn().0;
    let started = Instant::now();
    let mut records = 0u64;
    for r in log.scan(Lsn::NULL) {
        r?;
        records += 1;
    }
    l.wal_scan_mb_s = bytes as f64 / 1e6 / started.elapsed().as_secs_f64();
    black_box(records);
    drop(log);

    // The same force with `fsync: true`: the sandbox's fsync, not a device's.
    let opts = LogOptions {
        fsync: true,
        ..LogOptions::default()
    };
    let log = LogManager::open(&work.join("ladder-fsync.wal"), opts, new_stats())?;
    l.wal_force_fsync_ns = per_call(n(400), |_| {
        let lsn = log.append(&rec);
        if let Err(e) = log.flush_to(lsn) {
            err = Some(e);
        }
    });
    err.map_or(Ok(()), Err)
}

/// Every heap page of the table, by walking the chain.
fn heap_pages(db: &Db) -> Result<Vec<PageId>> {
    let mut pages = Vec::new();
    let mut page = db.table_first_page(TABLE)?;
    while !page.is_null() {
        pages.push(page);
        page = db.pool.fix_s(page)?.next();
    }
    Ok(pages)
}

/// `fix_s` + drop of a page that is not resident, with a clean victim:
/// cycling through more pages than the pool has frames misses every time.
fn fix_miss_rung(db: &Db, iters: usize) -> Result<f64> {
    let pages = heap_pages(db)?;
    let before = db.stats.snapshot();
    let mut err = None;
    let ns = per_call(iters, |i| match db.pool.fix_s(pages[i % pages.len()]) {
        Ok(g) => drop(black_box(g)),
        Err(e) => err = Some(e),
    });
    if let Some(e) = err {
        return Err(e);
    }
    let d = db.stats.snapshot().since(&before);
    if d.page_reads != iters as u64 || d.page_writes != 0 {
        return Err(Error::Internal(format!(
            "miss rung: {} reads and {} writes for {iters} fixes of {} pages",
            d.page_reads,
            d.page_writes,
            pages.len()
        )));
    }
    Ok(ns)
}

fn storage_and_lock_rungs(l: &mut Ladder, db: &Db, n: &impl Fn(usize) -> usize) -> Result<()> {
    let pages = heap_pages(db)?; // the walk also makes them resident
    let pages = &pages[..pages.len().min(64)];
    let mut err = None;
    l.fix_hit_ns = per_call(n(1_000_000), |i| {
        match db.pool.fix_s(pages[i % pages.len()]) {
            Ok(g) => drop(black_box(g)),
            Err(e) => err = Some(e),
        }
    });
    // A commit-duration X lock on a name nobody else holds, then release.
    let txn = TxnId(u64::MAX - 1);
    l.lock_request_release_ns = per_call(n(400_000), |i| {
        let name = LockName::Record(Rid::new(PageId(1_000_000 + i as u32), 0));
        if let Err(e) = db
            .locks
            .request(txn, name, LockMode::X, LockDuration::Commit, false)
        {
            err = Some(e);
        }
        db.locks.release_all(txn);
    });
    err.map_or(Ok(()), Err)
}

fn found(r: FetchResult) -> Result<IndexKey> {
    match r {
        FetchResult::Found(k) => Ok(k),
        FetchResult::NotFound => Err(Error::NotFound),
    }
}

// Each loop below alternates one transaction through the layers' own
// functions with one through `Db`, on neighbouring keys, so the two see the
// same table size and cache state and their difference is `Db`'s overhead.

fn read_rungs(l: &mut Ladder, db: &Db, n: &impl Fn(usize) -> usize) -> Result<()> {
    let tree = db.tree_by_name(INDEX)?;
    let locks = || db.stats.locks_acquired.get();

    let reads = n(40_000);
    let (mut fetch, mut heap_fetch, mut db_read) = (Acc::default(), Acc::default(), Acc::default());
    let mut read_locks = 0;
    for i in 0..reads {
        let key = base_key(scatter(2 * i));
        let txn = db.tm.begin();
        let k = found(fetch.time(|| tree.fetch(&txn, &key, FetchCond::Eq))?)?;
        black_box(heap_fetch.time(|| db.heap.fetch(&txn, k.rid, true))?);
        db.tm.commit(&txn)?;

        let key = base_key(scatter(2 * i + 1));
        let before = locks();
        let txn = db.begin();
        black_box(db_read.time(|| db.fetch_via(&txn, INDEX, &key, FetchCond::Eq))?);
        db.commit(&txn)?;
        read_locks += locks() - before;
    }
    l.btree_fetch_ns = fetch.mean();
    l.record_fetch_ns = heap_fetch.mean();
    l.db_read_ns = db_read.mean();
    l.locks_per_read = read_locks as f64 / reads as f64;

    let scans = n(4_000);
    let mut next = Acc::default();
    let mut scan_locks = 0;
    for i in 0..scans {
        let txn = db.tm.begin();
        let (_, cursor) = tree.open_scan(&txn, &base_key(scatter(i)), FetchCond::Ge)?;
        let mut cursor = cursor.ok_or(Error::NotFound)?;
        for _ in 1..SCAN_KEYS {
            if next.time(|| tree.fetch_next(&txn, &mut cursor))?.is_none() {
                break;
            }
        }
        db.tm.commit(&txn)?;

        let from = scatter(i).min(ROWS - SCAN_KEYS);
        let before = locks();
        let txn = db.begin();
        black_box(db.scan_range(&txn, INDEX, &base_key(from), &base_key(from + SCAN_KEYS))?);
        db.commit(&txn)?;
        scan_locks += locks() - before;
    }
    l.btree_fetch_next_ns = next.mean();
    l.locks_per_scan = scan_locks as f64 / scans as f64;
    Ok(())
}

fn write_rungs(l: &mut Ladder, engine: &Engine, n: &impl Fn(usize) -> usize) -> Result<()> {
    let db = &engine.db;
    let tree = db.tree_by_name(INDEX)?;
    let first_page = db.table_first_page(TABLE)?;
    let writes = n(3_000);
    let locks = || db.stats.locks_acquired.get();
    let fixes = || db.stats.page_fixes.get();
    // Even keys go in and out through the layers, odd keys through `Db`.
    let new_key = |i: usize| inserted_key(scatter(i), LADDER_CLIENT, i as u32);
    let rid_of = |txn: &TxnHandle, key: &[u8]| -> Result<Rid> {
        Ok(found(tree.fetch(txn, key, FetchCond::Eq)?)?.rid)
    };

    let (mut heap_insert, mut tree_insert, mut db_insert) =
        (Acc::default(), Acc::default(), Acc::default());
    let (mut insert_fixes, mut insert_locks) = (0, 0);
    for i in 0..writes {
        let key = new_key(2 * i);
        let data = encoded_row(&key, 0);
        let txn = db.tm.begin();
        let before = fixes();
        let rid = heap_insert.time(|| db.heap.insert(&txn, engine.table, first_page, &data))?;
        insert_fixes += fixes() - before;
        let ikey = IndexKey::new(key, rid);
        tree_insert.time(|| tree.insert(&txn, &ikey))?;
        db.tm.commit(&txn)?;

        let row = Row::new(vec![new_key(2 * i + 1), payload(LADDER_CLIENT, 0)]);
        let before = locks();
        let txn = db.begin();
        db_insert.time(|| db.insert_row(&txn, TABLE, &row))?;
        db.commit(&txn)?;
        insert_locks += locks() - before;
    }
    l.record_insert_ns = heap_insert.mean();
    l.btree_insert_ns = tree_insert.mean();
    l.record_fixes_per_insert = insert_fixes as f64 / writes as f64;
    l.db_insert_ns = db_insert.mean();
    l.locks_per_insert = insert_locks as f64 / writes as f64;

    // Updates change the payload only, as the workloads' do: no index work.
    // The `Db` transaction is the workloads' too: fetch by key, then update.
    let (mut heap_update, mut db_update) = (Acc::default(), Acc::default());
    let mut update_locks = 0;
    for i in 0..writes {
        let key = base_key(scatter(2 * i));
        let data = encoded_row(&key, 1);
        let txn = db.tm.begin();
        let rid = rid_of(&txn, &key)?;
        heap_update.time(|| db.heap.update(&txn, engine.table, rid, &data))?;
        db.tm.commit(&txn)?;

        let key = base_key(scatter(2 * i + 1));
        let row = Row::new(vec![key.clone(), payload(LADDER_CLIENT, 1)]);
        let before = locks();
        let txn = db.begin();
        let (rid, _) = db
            .fetch_via(&txn, INDEX, &key, FetchCond::Eq)?
            .ok_or(Error::NotFound)?;
        db_update.time(|| db.update_row(&txn, TABLE, rid, &row))?;
        db.commit(&txn)?;
        update_locks += locks() - before;
    }
    l.record_update_ns = heap_update.mean();
    l.db_update_ns = db_update.mean();
    l.locks_per_update = update_locks as f64 / writes as f64;

    let (mut heap_delete, mut tree_delete, mut db_delete) =
        (Acc::default(), Acc::default(), Acc::default());
    let mut delete_locks = 0;
    for i in 0..writes {
        let key = new_key(2 * i);
        let txn = db.tm.begin();
        let rid = rid_of(&txn, &key)?;
        heap_delete.time(|| db.heap.delete(&txn, engine.table, rid))?;
        let ikey = IndexKey::new(key, rid);
        tree_delete.time(|| tree.delete(&txn, &ikey))?;
        db.tm.commit(&txn)?;

        let key = new_key(2 * i + 1);
        let before = locks();
        let txn = db.begin();
        let (rid, _) = db
            .fetch_via(&txn, INDEX, &key, FetchCond::Eq)?
            .ok_or(Error::NotFound)?;
        db_delete.time(|| db.delete_row(&txn, TABLE, rid))?;
        db.commit(&txn)?;
        delete_locks += locks() - before;
    }
    l.record_delete_ns = heap_delete.mean();
    l.btree_delete_ns = tree_delete.mean();
    l.db_delete_ns = db_delete.mean();
    l.locks_per_delete = delete_locks as f64 / writes as f64;
    Ok(())
}

fn txn_rungs(l: &mut Ladder, engine: &Engine, n: &impl Fn(usize) -> usize) -> Result<()> {
    let db = &engine.db;
    let tree = db.tree_by_name(INDEX)?;
    let mut err = None;
    l.txn_begin_commit_ro_ns = per_call(n(200_000), |_| {
        let txn = db.tm.begin();
        if let Err(e) = db.tm.commit(&txn) {
            err = Some(e);
        }
    });
    if let Some(e) = err {
        return Err(e);
    }

    let update = |txn: &TxnHandle, i: usize, version: u32| -> Result<()> {
        let key = base_key(scatter(i));
        let rid = found(tree.fetch(txn, &key, FetchCond::Eq)?)?.rid;
        db.heap
            .update(txn, engine.table, rid, &encoded_row(&key, version))
            .map(|_| ())
    };
    let mut commit = Acc::default();
    for i in 0..n(3_000) {
        let txn = db.tm.begin();
        update(&txn, i, 3)?;
        commit.time(|| db.tm.commit(&txn))?;
    }
    l.txn_commit_rw_ns = commit.mean();

    const UPDATES: usize = 10;
    let mut rollback = Acc::default();
    for i in 0..n(1_000) {
        let txn = db.tm.begin();
        for j in 0..UPDATES {
            update(&txn, i * UPDATES + j, 4)?;
        }
        rollback.time(|| db.tm.rollback(&txn))?;
    }
    l.txn_rollback_ns_per_update = rollback.mean() / UPDATES as f64;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workdir::WorkDir;

    #[test]
    fn every_rung_measures_something() {
        let work = WorkDir::new("t-ladder").unwrap();
        let l = measure(work.path(), 0.01).unwrap();
        let text = format!("{l:?}");
        assert!(!text.contains(": 0.0,"), "a rung measured nothing: {text}");
        // The paper's Figure 2 footprint under data-only locking.
        assert_eq!(l.locks_per_read, 1.0);
        assert_eq!(l.locks_per_scan, f64::from(SCAN_KEYS) + 1.0);
        assert_eq!(l.locks_per_update, 2.0);
        assert!(l.fix_miss_ns > l.fix_hit_ns);
        assert!(l.wal_force_fsync_ns > l.wal_append_ns);
    }
}
