//! Unit-level tests of restart over hand-built logs: the forward pass's
//! transaction and dirty-page bookkeeping, its one decode per record, its
//! LSN-comparison redo discipline, and the undo pass's reverse-chronological
//! multi-transaction sweep.

use ariesim_common::page::PageType;
use ariesim_common::tmp::TempDir;
use ariesim_common::{Lsn, PageBuf, PageId, Result, TxnId};
use ariesim_obs::Obs;
use ariesim_recovery::restart;
use ariesim_storage::BufferPool;
use ariesim_txn::Core;
use ariesim_wal::{
    ChainLogger, CheckpointData, DptEntry, LogOptions, LogRecord, RecordKind, ResourceManager,
    RmId, TxnCkptEntry, TxnState,
};
use parking_lot::Mutex;
use std::sync::Arc;

/// Byte-blob RM: the page body's first byte stores a counter; Update bodies
/// carry (slot byte, value). Redo sets body[slot]=value; undo sets it back
/// (body carries old value too).
struct BlobRm {
    pool: Arc<BufferPool>,
    undo_order: Mutex<Vec<(TxnId, u8)>>,
}

impl BlobRm {
    fn body(slot: u8, old: u8, new: u8) -> Vec<u8> {
        vec![slot, old, new]
    }
}

const BODY_BASE: usize = 64; // write inside the page body, clear of the header

impl ResourceManager for BlobRm {
    fn rm_id(&self) -> RmId {
        RmId::Heap
    }

    fn redo(&self, page: &mut PageBuf, rec: &LogRecord) -> Result<()> {
        let (slot, new) = (rec.body[0] as usize, rec.body[2]);
        page.as_bytes_mut()[BODY_BASE + slot] = new;
        Ok(())
    }

    fn undo(&self, logger: &mut ChainLogger<'_>, rec: &LogRecord) -> Result<()> {
        let (slot, old, new) = (rec.body[0], rec.body[1], rec.body[2]);
        let mut g = self.pool.fix_x(rec.page)?;
        g.as_bytes_mut()[BODY_BASE + slot as usize] = old;
        self.undo_order.lock().push((logger.txn, new));
        let lsn = logger.clr(
            RmId::Heap,
            rec.page,
            rec.prev_lsn,
            BlobRm::body(slot, new, old),
        );
        g.record_update(lsn);
        Ok(())
    }
}

/// The engine core (`f.tm`, `f.pool`, `f.log`, ... through `Deref`) with the
/// blob RM registered in the heap's slot.
struct Fix {
    _dir: TempDir,
    core: Arc<Core>,
    rm: Arc<BlobRm>,
}

impl std::ops::Deref for Fix {
    type Target = Core;

    fn deref(&self) -> &Core {
        &self.core
    }
}

/// Open (or, after a crash, reopen) the engine in `dir`.
fn open(dir: &TempDir) -> (Arc<Core>, Arc<BlobRm>) {
    let core = Core::open(dir.path(), 256, LogOptions::default(), Obs::disabled()).unwrap();
    let rm = Arc::new(BlobRm {
        pool: core.pool.clone(),
        undo_order: Mutex::new(Vec::new()),
    });
    core.rms.register(rm.clone()).unwrap();
    (core, rm)
}

fn fix() -> Fix {
    let dir = TempDir::new("restart");
    let (core, rm) = open(&dir);
    // One formatted page everything writes to.
    {
        let mut g = core.pool.fix_x(PageId(3)).unwrap();
        g.format(PageId(3), PageType::Heap, 0, 0);
        g.record_update(Lsn(1));
    }
    core.pool.flush_all().unwrap();
    Fix {
        _dir: dir,
        core,
        rm,
    }
}

/// Apply + log an update through a transaction (mimicking an RM operation).
fn update(f: &Fix, txn: &ariesim_txn::TxnHandle, slot: u8, old: u8, new: u8) {
    let mut g = f.pool.fix_x(PageId(3)).unwrap();
    g.as_bytes_mut()[BODY_BASE + slot as usize] = new;
    let lsn = txn.with_logger(&f.log, |l| {
        l.update(RmId::Heap, PageId(3), BlobRm::body(slot, old, new))
    });
    g.record_update(lsn);
}

fn byte_at(f: &Fix, slot: u8) -> u8 {
    let g = f.pool.fix_s(PageId(3)).unwrap();
    g.as_bytes()[BODY_BASE + slot as usize]
}

#[test]
fn redo_skips_updates_already_on_disk() {
    let f = fix();
    let t = f.tm.begin();
    update(&f, &t, 0, 0, 7);
    f.tm.commit(&t).unwrap();
    // Flush the page: its state is durable, page_lsn ≥ the record.
    f.pool.flush_all().unwrap();
    let outcome = restart(&f).unwrap();
    assert_eq!(outcome.redo_applied, 0, "already-durable update not redone");
    assert_eq!(byte_at(&f, 0), 7);
}

#[test]
fn redo_reapplies_missing_committed_updates() {
    let f = fix();
    let t = f.tm.begin();
    update(&f, &t, 0, 0, 9);
    f.tm.commit(&t).unwrap(); // forces the log, NOT the page
    // Wipe the cached page by reloading from disk state: simulate by
    // re-reading through a fresh pool over the same files.
    let (core2, _) = open(&f._dir);
    let outcome = restart(&core2).unwrap();
    assert_eq!(outcome.redo_applied, 1, "lost update must be redone");
    let g = core2.pool.fix_s(PageId(3)).unwrap();
    assert_eq!(g.as_bytes()[BODY_BASE], 9);
}

#[test]
fn undo_sweep_is_reverse_chronological_across_transactions() {
    // Two losers with interleaved updates: the single backward sweep must
    // undo strictly by descending LSN, regardless of owner.
    let f = fix();
    let t1 = f.tm.begin();
    let t2 = f.tm.begin();
    update(&f, &t1, 0, 0, 1); // LSN order: 1
    update(&f, &t2, 1, 0, 2); // 2
    update(&f, &t1, 2, 0, 3); // 3
    update(&f, &t2, 3, 0, 4); // 4
    f.log.flush_all().unwrap();
    let outcome = restart(&f).unwrap();
    assert_eq!(outcome.losers.len(), 2);
    let order: Vec<u8> = f.rm.undo_order.lock().iter().map(|&(_, v)| v).collect();
    assert_eq!(order, vec![4, 3, 2, 1], "reverse chronological, interleaved");
    for slot in 0..4u8 {
        assert_eq!(byte_at(&f, slot), 0, "slot {slot} restored");
    }
    // End records written for both losers.
    let ends = f
        .log
        .scan(Lsn::NULL)
        .map(|r| r.unwrap())
        .filter(|r| r.kind == RecordKind::End)
        .count();
    assert_eq!(ends, 2);
}

#[test]
fn committed_but_unended_transaction_is_not_undone() {
    // A committed writer's log ends at its forced Commit (commit appends no
    // End): analysis must treat the transaction as committed.
    let f = fix();
    let t = f.tm.begin();
    update(&f, &t, 0, 0, 5);
    // Hand-write the commit record.
    t.with_logger(&f.log, |l| l.control(RecordKind::Commit));
    f.log.flush_all().unwrap();
    let outcome = restart(&f).unwrap();
    assert!(outcome.losers.is_empty(), "committed txn is not a loser");
    assert_eq!(byte_at(&f, 0), 5);
}

#[test]
fn commit_between_snapshot_and_ckpt_end_is_not_revived() {
    // A fuzzy checkpoint snapshots `t` as in flight; `t` then commits before
    // CkptEnd is appended (a Commit, no End). Analysis starts at CkptBegin,
    // sees the Commit, then CkptEnd's stale entry: that entry must not make
    // `t` a loser again.
    let f = fix();
    let t = f.tm.begin();
    update(&f, &t, 0, 0, 5);
    let ctl = |kind, body: Vec<u8>| LogRecord {
        lsn: Lsn::NULL,
        prev_lsn: Lsn::NULL,
        txn: TxnId::NONE,
        kind,
        undo_next_lsn: Lsn::NULL,
        rm: RmId::Txn,
        page: PageId::NULL,
        body,
    };
    let begin = f.log.append(&ctl(RecordKind::CkptBegin, Vec::new()));
    let snapshot = TxnCkptEntry {
        txn: t.id,
        state: TxnState::InFlight,
        last_lsn: t.last_lsn(),
        undo_next_lsn: t.last_lsn(),
    };
    t.with_logger(&f.log, |l| l.control(RecordKind::Commit));
    let data = CheckpointData {
        dpt: f.pool.dpt_snapshot(),
        txns: vec![snapshot],
        max_txn_id: t.id.0,
    };
    f.log.append(&ctl(RecordKind::CkptEnd, data.encode()));
    f.log.flush_all().unwrap();
    f.log.write_master(begin).unwrap();
    let outcome = restart(&f).unwrap();
    assert!(outcome.losers.is_empty(), "committed txn revived: {:?}", outcome.losers);
    assert_eq!(byte_at(&f, 0), 5);
}

#[test]
fn aborting_transaction_resumes_rollback_at_restart() {
    // Crash mid-rollback: some CLRs already written. Restart must continue
    // from where the rollback stopped, not re-undo compensated work.
    let f = fix();
    let t = f.tm.begin();
    update(&f, &t, 0, 0, 1);
    let sp = t.savepoint();
    update(&f, &t, 1, 0, 2);
    // Partial rollback undoes slot 1 and writes its CLR.
    f.tm.rollback_to(&t, sp).unwrap();
    assert_eq!(f.rm.undo_order.lock().len(), 1);
    f.log.flush_all().unwrap();
    let outcome = restart(&f).unwrap();
    assert_eq!(outcome.losers.len(), 1);
    // Only slot 0 was left to undo — slot 1's undo must NOT repeat.
    let order: Vec<u8> = f.rm.undo_order.lock().iter().map(|&(_, v)| v).collect();
    assert_eq!(order, vec![2, 1], "one undo before crash, one after");
    assert_eq!(byte_at(&f, 0), 0);
    assert_eq!(byte_at(&f, 1), 0);
}

#[test]
fn restart_on_empty_log_is_a_noop() {
    let f = fix();
    let outcome = restart(&f).unwrap();
    assert_eq!(outcome.redo_applied, 0);
    assert!(outcome.losers.is_empty());
}

#[test]
fn max_txn_id_reported_for_id_resumption() {
    let f = fix();
    let a = f.tm.begin();
    let b = f.tm.begin();
    update(&f, &b, 0, 0, 1);
    f.tm.commit(&a).unwrap();
    f.log.flush_all().unwrap();
    let outcome = restart(&f).unwrap();
    assert!(outcome.max_txn_id >= b.id.0);
}

/// The checkpoint record pair, hand-built so a test can place records
/// between CkptBegin and CkptEnd.
fn ckpt_record(kind: RecordKind, body: Vec<u8>) -> LogRecord {
    LogRecord {
        lsn: Lsn::NULL,
        prev_lsn: Lsn::NULL,
        txn: TxnId::NONE,
        kind,
        undo_next_lsn: Lsn::NULL,
        rm: RmId::Txn,
        page: PageId::NULL,
        body,
    }
}

#[test]
fn losers_without_a_begin_record_are_undone_and_ended() {
    // There is no begin record: a transaction's chain starts at whatever it
    // appends first. `nta` opens with a nested top action taken before any
    // write, so its first record is a dummy CLR whose undo_next is NULL.
    // `late` writes its first update after the checkpoint's snapshot left it
    // out (it had not written), i.e. between CkptBegin and CkptEnd.
    let f = fix();
    let nta = f.tm.begin();
    let token = nta.begin_nta();
    assert!(token.is_null(), "a fresh transaction's NTA token is NULL");
    let dummy = nta.end_nta(&f.log, token);
    update(&f, &nta, 0, 0, 1);

    let late = f.tm.begin();
    let begin = f.log.append(&ckpt_record(RecordKind::CkptBegin, Vec::new()));
    let data = CheckpointData {
        dpt: f.pool.dpt_snapshot(),
        txns: vec![TxnCkptEntry {
            txn: nta.id,
            state: TxnState::InFlight,
            last_lsn: nta.last_lsn(),
            undo_next_lsn: nta.last_lsn(),
        }],
        max_txn_id: late.id.0,
    };
    update(&f, &late, 1, 0, 2);
    f.log.append(&ckpt_record(RecordKind::CkptEnd, data.encode()));
    f.log.flush_all().unwrap();
    f.log.write_master(begin).unwrap();

    let first = f.log.read(dummy).unwrap();
    assert_eq!(first.kind, RecordKind::DummyClr);
    assert!(first.prev_lsn.is_null() && first.undo_next_lsn.is_null());

    let outcome = restart(&f).unwrap();
    assert_eq!(outcome.losers, vec![nta.id, late.id]);
    assert_eq!(outcome.undone, 2);
    assert_eq!(byte_at(&f, 0), 0);
    assert_eq!(byte_at(&f, 1), 0);
    for t in [nta.id, late.id] {
        let ends = f
            .log
            .scan(Lsn::NULL)
            .map(|r| r.unwrap())
            .filter(|r| r.kind == RecordKind::End && r.txn == t)
            .count();
        assert_eq!(ends, 1, "{t:?} gets exactly one End");
    }
}

#[test]
fn a_writers_txn_id_is_never_reissued_after_restart() {
    // `old` commits before the checkpoint, so restart's scan (from CkptBegin)
    // never meets its records: the checkpoint's max_txn_id must cover it.
    // `new` writes after the checkpoint. `reader` never writes, so no log
    // record carries its id and restart may hand that id out again. That is
    // harmless: a read-only transaction left no log record, its locks died
    // with the crash, and it stamped no page.
    let f = fix();
    let old = f.tm.begin();
    update(&f, &old, 0, 0, 1);
    f.tm.commit(&old).unwrap();
    f.tm.checkpoint().unwrap();
    let new = f.tm.begin();
    update(&f, &new, 1, 0, 2);
    f.tm.commit(&new).unwrap();
    let reader = f.tm.begin();
    f.tm.commit(&reader).unwrap();
    assert!(reader.id > new.id && new.id > old.id);

    let (core2, _) = open(&f._dir);
    let outcome = restart(&core2).unwrap();
    assert!(outcome.ckpt_lsn > Lsn::NULL, "restart began at the checkpoint");
    let next = core2.tm.begin();
    assert!(next.id > new.id, "{:?} reissues a writer's id", next.id);
    core2.tm.commit(&next).unwrap();
}

#[test]
fn the_forward_pass_decodes_each_record_once_from_the_oldest_rec_lsn() {
    // Page 3 is dirty from before the checkpoint, so its DPT entry predates
    // CkptBegin and the pass starts there. Page 4's update also precedes
    // CkptBegin, but the hand-built checkpoint lists page 4 as clean: the
    // pass must neither read page 4 for redo nor reapply its update.
    let f = fix();
    {
        let mut g = f.pool.fix_x(PageId(4)).unwrap();
        g.format(PageId(4), PageType::Heap, 0, 0);
        g.record_update(Lsn(1));
    }
    f.pool.flush_all().unwrap();
    let t = f.tm.begin();
    update(&f, &t, 0, 0, 1);
    let rec_lsn = t.last_lsn();
    {
        let mut g = f.pool.fix_x(PageId(4)).unwrap();
        g.as_bytes_mut()[BODY_BASE] = 9;
        let lsn = t.with_logger(&f.log, |l| {
            l.update(RmId::Heap, PageId(4), BlobRm::body(0, 0, 9))
        });
        g.record_update(lsn);
    }
    f.tm.commit(&t).unwrap();
    let begin = f.log.append(&ckpt_record(RecordKind::CkptBegin, Vec::new()));
    let data = CheckpointData {
        dpt: vec![DptEntry {
            page: PageId(3),
            rec_lsn,
        }],
        txns: Vec::new(),
        max_txn_id: t.id.0,
    };
    f.log.append(&ckpt_record(RecordKind::CkptEnd, data.encode()));
    let t2 = f.tm.begin();
    update(&f, &t2, 1, 0, 2);
    f.tm.commit(&t2).unwrap();
    f.log.flush_all().unwrap();
    f.log.write_master(begin).unwrap();
    let records = f.log.scan(rec_lsn).count() as u64;
    assert!(f.log.scan(begin).count() < records as usize);

    // Reopen over the disk state: none of the three updates reached a page.
    let (core2, _) = open(&f._dir);
    let outcome = restart(&core2).unwrap();
    assert_eq!((outcome.ckpt_lsn, outcome.redo_start), (begin, rec_lsn));
    assert_eq!(outcome.analyzed, records, "one decode per record in [redo_start, end)");
    assert_eq!(outcome.redo_seen, 3);
    assert_eq!(core2.stats.snapshot().restart_page_reads, 2, "page 4 was read");
    assert_eq!(outcome.redo_applied, 2);
    let byte = |page, slot: usize| {
        let g = core2.pool.fix_s(page).unwrap();
        g.as_bytes()[BODY_BASE + slot]
    };
    assert_eq!((byte(PageId(3), 0), byte(PageId(3), 1)), (1, 2));
    assert_eq!(byte(PageId(4), 0), 0, "page 4's update was reapplied");
}

/// A checkpoint racing a transaction's first append. The transaction enters
/// the table of writers just before its first record, so a checkpoint whose
/// `CkptBegin` follows that record finds it there (and waits for the append
/// to finish to read its last LSN). Restart's forward pass tracks
/// transactions only from `CkptBegin`, so had the checkpoint missed it, the
/// stolen page would keep the loser's update for good.
#[test]
fn checkpoint_racing_a_first_append_records_the_writer() {
    let f = fix();
    let t = f.tm.begin();
    let (lsn, ckpt) = t.with_logger(&f.log, |l| {
        let lsn = l.update(RmId::Heap, PageId(3), BlobRm::body(0, 0, 9));
        // Checkpoint between the first append and the logger's return. One
        // that finds `t` in the table waits here for the logger; one that
        // does not, finishes at once.
        let (core, (done_tx, done)) = (f.core.clone(), std::sync::mpsc::channel());
        let ckpt = std::thread::spawn(move || {
            let begin = core.tm.checkpoint();
            let _ = done_tx.send(());
            begin
        });
        let _ = done.recv_timeout(std::time::Duration::from_millis(500));
        (lsn, ckpt)
    });
    let ckpt_lsn = ckpt.join().unwrap().unwrap();
    assert!(lsn < ckpt_lsn, "the first record precedes CkptBegin");
    // The update reaches the page, which is then stolen: no dirty-page
    // entry leads restart back to the record.
    {
        let mut g = f.pool.fix_x(PageId(3)).unwrap();
        g.as_bytes_mut()[BODY_BASE] = 9;
        g.record_update(lsn);
    }
    f.pool.flush_all().unwrap();
    f.log.flush_all().unwrap();
    let (core, _) = open(&f._dir);
    let outcome = restart(&core).unwrap();
    assert_eq!(outcome.ckpt_lsn, ckpt_lsn);
    assert_eq!(outcome.losers, vec![t.id], "the writer missed the checkpoint");
    let g = core.pool.fix_s(PageId(3)).unwrap();
    assert_eq!(g.as_bytes()[BODY_BASE], 0, "the loser's update was undone");
}
