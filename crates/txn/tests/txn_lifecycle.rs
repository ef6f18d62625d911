//! Transaction-manager lifecycle tests: commit forces the log, rollbacks
//! release locks, nested top actions chain correctly, checkpoints snapshot
//! the fuzzy state, and misuse is rejected.

use ariesim_common::tmp::TempDir;
use ariesim_common::{Error, Lsn, PageBuf, PageId, Result, TxnId};
use ariesim_lock::{LockDuration, LockMode, LockName};
use ariesim_obs::Obs;
use ariesim_txn::Core;
use ariesim_wal::{
    ChainLogger, CheckpointData, LogOptions, LogRecord, RecordKind, ResourceManager, RmId,
};
use parking_lot::Mutex;
use std::sync::Arc;

/// Toy RM whose undo just records what it undid.
struct ToyRm {
    undone: Mutex<Vec<Vec<u8>>>,
}

impl ResourceManager for ToyRm {
    fn rm_id(&self) -> RmId {
        RmId::Heap
    }

    fn redo(&self, _page: &mut PageBuf, _rec: &LogRecord) -> Result<()> {
        Ok(())
    }

    fn undo(&self, logger: &mut ChainLogger<'_>, rec: &LogRecord) -> Result<()> {
        self.undone.lock().push(rec.body.clone());
        logger.clr(RmId::Heap, rec.page, rec.prev_lsn, rec.body.clone());
        Ok(())
    }
}

/// The engine core (`f.tm`, `f.log`, `f.locks` through `Deref`) with the toy
/// RM registered in the heap's slot.
struct Fix {
    _dir: TempDir,
    core: Arc<Core>,
    toy: Arc<ToyRm>,
}

impl std::ops::Deref for Fix {
    type Target = Core;

    fn deref(&self) -> &Core {
        &self.core
    }
}

fn fix() -> Fix {
    let dir = TempDir::new("txn-it");
    let core = Core::open(dir.path(), 256, LogOptions::default(), Obs::disabled()).unwrap();
    let toy = Arc::new(ToyRm {
        undone: Mutex::new(Vec::new()),
    });
    core.rms.register(toy.clone());
    Fix {
        _dir: dir,
        core,
        toy,
    }
}

fn log_something(f: &Fix, txn: &ariesim_txn::TxnHandle, body: &[u8]) -> Lsn {
    txn.with_logger(&f.log, |l| l.update(RmId::Heap, PageId(9), body.to_vec()))
}

#[test]
fn commit_forces_exactly_to_the_commit_record() {
    let f = fix();
    let txn = f.tm.begin();
    log_something(&f, &txn, b"a");
    let before = f.log.flushed_lsn();
    f.tm.commit(&txn).unwrap();
    assert!(f.log.flushed_lsn() > before, "commit must force the log");
    // The forced Commit ends the transaction: no End follows it.
    let kinds: Vec<RecordKind> = f
        .log
        .scan(Lsn::NULL)
        .map(|r| r.unwrap().kind)
        .collect();
    assert_eq!(kinds, vec![RecordKind::Update, RecordKind::Commit]);
    assert_eq!(f.log.flushed_lsn(), f.log.next_lsn(), "Commit is the last record");
}

#[test]
fn rollback_writes_abort_then_clrs_then_end() {
    let f = fix();
    let txn = f.tm.begin();
    log_something(&f, &txn, b"x");
    log_something(&f, &txn, b"y");
    f.tm.rollback(&txn).unwrap();
    assert_eq!(*f.toy.undone.lock(), vec![b"y".to_vec(), b"x".to_vec()]);
    let kinds: Vec<RecordKind> = f.log.scan(Lsn::NULL).map(|r| r.unwrap().kind).collect();
    assert_eq!(
        kinds,
        vec![
            RecordKind::Update,
            RecordKind::Update,
            RecordKind::Abort,
            RecordKind::Clr,
            RecordKind::Clr,
            RecordKind::End,
        ]
    );
}

#[test]
fn read_only_transaction_appends_nothing() {
    let f = fix();
    for do_commit in [true, false] {
        let before = f.log.next_lsn();
        let txn = f.tm.begin();
        assert!(txn.last_lsn().is_null(), "begin logs nothing");
        let name = LockName::Record(ariesim_common::Rid::new(PageId(5), 1));
        f.locks
            .request(txn.id, name, LockMode::S, LockDuration::Commit, false)
            .unwrap();
        assert_eq!(f.tm.active_count(), 0, "a reader never enters the table");
        if do_commit {
            f.tm.commit(&txn).unwrap();
        } else {
            f.tm.rollback(&txn).unwrap();
        }
        assert_eq!(f.log.next_lsn(), before, "no Commit, Abort or End");
        assert_eq!(f.locks.held_count(txn.id), 0);
    }
    assert_eq!(f.tm.active_count(), 0);
}

#[test]
fn commit_and_rollback_release_all_locks() {
    let f = fix();
    for do_commit in [true, false] {
        let txn = f.tm.begin();
        let name = LockName::Record(ariesim_common::Rid::new(PageId(5), 1));
        f.locks
            .request(txn.id, name.clone(), LockMode::X, LockDuration::Commit, false)
            .unwrap();
        assert_eq!(f.locks.held_count(txn.id), 1);
        if do_commit {
            f.tm.commit(&txn).unwrap();
        } else {
            f.tm.rollback(&txn).unwrap();
        }
        assert_eq!(f.locks.held_count(txn.id), 0);
    }
}

#[test]
fn finished_transactions_reject_further_work() {
    let f = fix();
    let txn = f.tm.begin();
    f.tm.commit(&txn).unwrap();
    assert!(matches!(
        f.tm.commit(&txn),
        Err(Error::BadTxnState { .. })
    ));
    assert!(matches!(
        f.tm.rollback(&txn),
        Err(Error::BadTxnState { .. })
    ));
    assert!(matches!(
        f.tm.rollback_to(&txn, Lsn::NULL),
        Err(Error::BadTxnState { .. })
    ));
}

#[test]
fn nta_token_round_trip() {
    let f = fix();
    let txn = f.tm.begin();
    log_something(&f, &txn, b"pre");
    let token = txn.begin_nta();
    log_something(&f, &txn, b"inside-1");
    log_something(&f, &txn, b"inside-2");
    let dummy_lsn = txn.end_nta(&f.log, token);
    let dummy = f.log.read(dummy_lsn).unwrap();
    assert_eq!(dummy.kind, RecordKind::DummyClr);
    assert_eq!(dummy.undo_next_lsn, token);
    // Rollback skips the NTA.
    f.tm.rollback(&txn).unwrap();
    assert_eq!(*f.toy.undone.lock(), vec![b"pre".to_vec()]);
}

#[test]
fn checkpoint_records_fuzzy_transaction_table() {
    let f = fix();
    let t1 = f.tm.begin();
    log_something(&f, &t1, b"live");
    let t2 = f.tm.begin();
    f.tm.commit(&t2).unwrap();
    let ckpt_lsn = f.tm.checkpoint().unwrap();
    assert_eq!(f.log.read_master().unwrap(), ckpt_lsn);
    // Find the CkptEnd and decode its table.
    let end = f
        .log
        .scan(ckpt_lsn)
        .map(|r| r.unwrap())
        .find(|r| r.kind == RecordKind::CkptEnd)
        .unwrap();
    let data = CheckpointData::decode(end.lsn, &end.body).unwrap();
    let ids: Vec<TxnId> = data.txns.iter().map(|t| t.txn).collect();
    assert!(ids.contains(&t1.id), "in-flight txn recorded");
    assert!(!ids.contains(&t2.id), "finished txn absent");
    assert!(data.max_txn_id >= t2.id.0);
    f.tm.rollback(&t1).unwrap();
}

#[test]
fn checkpoint_omits_a_transaction_that_has_not_written() {
    let f = fix();
    let reader = f.tm.begin();
    let name = LockName::Record(ariesim_common::Rid::new(PageId(5), 1));
    f.locks
        .request(reader.id, name, LockMode::S, LockDuration::Commit, false)
        .unwrap();
    let writer = f.tm.begin();
    log_something(&f, &writer, b"w");
    let ckpt_lsn = f.tm.checkpoint().unwrap();
    let end = f
        .log
        .scan(ckpt_lsn)
        .map(|r| r.unwrap())
        .find(|r| r.kind == RecordKind::CkptEnd)
        .unwrap();
    let data = CheckpointData::decode(end.lsn, &end.body).unwrap();
    let ids: Vec<TxnId> = data.txns.iter().map(|t| t.txn).collect();
    assert_eq!(ids, vec![writer.id], "only the writer is in flight");
    // The reader's id still counts toward the id high-water mark.
    assert!(data.max_txn_id >= reader.id.0.max(writer.id.0));
    f.tm.commit(&reader).unwrap();
    f.tm.rollback(&writer).unwrap();
}

/// The table holds the transactions that have appended and not ended: a
/// transaction enters it with its first record and leaves it at either end.
#[test]
fn active_count_tracks_table() {
    let f = fix();
    assert_eq!(f.tm.active_count(), 0);
    let a = f.tm.begin();
    let b = f.tm.begin();
    assert_eq!(f.tm.active_count(), 0, "begun, not yet written");
    log_something(&f, &a, b"a");
    log_something(&f, &b, b"b");
    log_something(&f, &b, b"b2");
    assert_eq!(f.tm.active_count(), 2);
    f.tm.commit(&a).unwrap();
    assert_eq!(f.tm.active_count(), 1);
    f.tm.rollback(&b).unwrap();
    assert_eq!(f.tm.active_count(), 0);
}

#[test]
fn resume_txn_ids_prevents_collisions() {
    let f = fix();
    f.tm.resume_txn_ids_after(100);
    let txn = f.tm.begin();
    assert!(txn.id.0 > 100);
    f.tm.commit(&txn).unwrap();
}
