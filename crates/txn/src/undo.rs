//! The undo step and the rollback loop built on it.
//!
//! [`undo_step`] is the one place a log record is undone: an update goes to
//! its resource manager, which applies the inverse change and writes the
//! CLR; a CLR is *skipped* to its `undo_next_lsn`. [`undo_chain`] walks one
//! transaction's chain backwards with it for normal rollback (total and
//! partial); restart's undo pass calls it once per record of its backward
//! sweep over all losers. The CLR chaining gives ARIES its bounded-rollback
//! property: work already compensated (including whole nested top actions,
//! via dummy CLRs) is never undone twice — even if rollback is interrupted
//! by a crash and resumed by restart.

use ariesim_common::{Lsn, Result, TxnId};
use ariesim_wal::{ChainLogger, LogManager, LogRecord, RecordKind};

use crate::manager::RmRegistry;

/// Undo `rec`, a record of the chain `logger` writes: an update is undone
/// through its resource manager (which writes the CLR through `logger`), a
/// CLR or dummy CLR is skipped, anything else is passed over. Returns the
/// LSN of the chain's next record to undo, and whether an update was undone.
#[deny(clippy::wildcard_enum_match_arm)]
pub fn undo_step(
    rms: &RmRegistry,
    logger: &mut ChainLogger<'_>,
    rec: &LogRecord,
) -> Result<(Lsn, bool)> {
    debug_assert_eq!(rec.txn, logger.txn, "undo walked into another txn's record");
    match rec.kind {
        RecordKind::Update => {
            ariesim_fault::crash_point!("undo.before_action");
            rms.get(rec.rm)?.undo(logger, rec)?;
            ariesim_fault::crash_point!("undo.after_action");
            Ok((rec.prev_lsn, true))
        }
        RecordKind::Clr | RecordKind::DummyClr => {
            // Already-compensated work: skip over it.
            ariesim_fault::crash_point!("undo.skip_clr");
            Ok((rec.undo_next_lsn, false))
        }
        RecordKind::Commit
        | RecordKind::Abort
        | RecordKind::End
        | RecordKind::CkptBegin
        | RecordKind::CkptEnd => Ok((rec.prev_lsn, false)),
    }
}

/// Undo `txn`'s chain starting at `from` (its last LSN) until the next
/// record to undo would have LSN ≤ `until` (use [`Lsn::NULL`] for total
/// rollback). Returns the transaction's new last LSN (after the CLRs).
pub fn undo_chain(
    log: &LogManager,
    rms: &RmRegistry,
    txn: TxnId,
    from: Lsn,
    until: Lsn,
) -> Result<Lsn> {
    let mut logger = ChainLogger::new(log, txn, from);
    let mut next = from;
    while !next.is_null() && next > until {
        (next, _) = undo_step(rms, &mut logger, &log.read(next)?)?;
    }
    Ok(logger.last_lsn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::RmRegistry;
    use ariesim_common::stats::new_stats;
    use ariesim_common::tmp::TempDir;
    use ariesim_common::{PageBuf, PageId, Result};
    use ariesim_wal::{LogOptions, LogRecord, ResourceManager, RmId};
    use parking_lot::Mutex;
    use std::sync::Arc;

    /// Toy RM: body is one byte; "undo" records the byte and writes a CLR.
    struct ToyRm {
        undone: Mutex<Vec<u8>>,
    }

    impl ResourceManager for ToyRm {
        fn rm_id(&self) -> RmId {
            RmId::Heap
        }

        fn redo(&self, _page: &mut PageBuf, _rec: &LogRecord) -> Result<()> {
            Ok(())
        }

        fn undo(&self, logger: &mut ChainLogger<'_>, rec: &LogRecord) -> Result<()> {
            self.undone.lock().push(rec.body[0]);
            logger.clr(RmId::Heap, rec.page, rec.prev_lsn, rec.body.clone());
            Ok(())
        }
    }

    fn setup() -> (TempDir, Arc<LogManager>, Arc<RmRegistry>, Arc<ToyRm>) {
        let dir = TempDir::new("undo");
        let log = Arc::new(
            LogManager::open(&dir.file("wal"), LogOptions::default(), new_stats()).unwrap(),
        );
        let rms = Arc::new(RmRegistry::new());
        let toy = Arc::new(ToyRm {
            undone: Mutex::new(Vec::new()),
        });
        rms.register(toy.clone()).unwrap();
        (dir, log, rms, toy)
    }

    fn append_updates(log: &LogManager, txn: TxnId, bodies: &[u8]) -> Vec<Lsn> {
        let mut logger = ChainLogger::new(log, txn, Lsn::NULL);
        bodies
            .iter()
            .map(|&b| logger.update(RmId::Heap, PageId(1), vec![b]))
            .collect()
    }

    #[test]
    fn total_undo_reverses_chain() {
        let (_d, log, rms, toy) = setup();
        let lsns = append_updates(&log, TxnId(1), &[1, 2, 3]);
        let new_last = undo_chain(&log, &rms, TxnId(1), lsns[2], Lsn::NULL).unwrap();
        assert_eq!(*toy.undone.lock(), vec![3, 2, 1]);
        // Three CLRs were written; last CLR's undo_next is NULL.
        let last = log.read(new_last).unwrap();
        assert_eq!(last.kind, RecordKind::Clr);
        assert_eq!(last.undo_next_lsn, Lsn::NULL);
    }

    #[test]
    fn partial_undo_stops_at_savepoint() {
        let (_d, log, rms, toy) = setup();
        let lsns = append_updates(&log, TxnId(1), &[1, 2, 3, 4]);
        let save = lsns[1]; // keep records 1 and 2
        undo_chain(&log, &rms, TxnId(1), lsns[3], save).unwrap();
        assert_eq!(*toy.undone.lock(), vec![4, 3]);
    }

    #[test]
    fn clrs_are_skipped_on_repeated_undo() {
        let (_d, log, rms, toy) = setup();
        let lsns = append_updates(&log, TxnId(1), &[1, 2, 3]);
        // First: partial rollback of record 3.
        let last = undo_chain(&log, &rms, TxnId(1), lsns[2], lsns[1]).unwrap();
        assert_eq!(*toy.undone.lock(), vec![3]);
        // Now total rollback from the new chain end: record 3 must NOT be
        // undone again (its CLR redirects to record 2).
        undo_chain(&log, &rms, TxnId(1), last, Lsn::NULL).unwrap();
        assert_eq!(*toy.undone.lock(), vec![3, 2, 1]);
    }

    #[test]
    fn dummy_clr_bypasses_nested_top_action() {
        let (_d, log, rms, toy) = setup();
        let mut logger = ChainLogger::new(&log, TxnId(1), Lsn::NULL);
        let l1 = logger.update(RmId::Heap, PageId(1), vec![1]);
        // NTA: records 10, 11, closed by dummy CLR pointing before them.
        logger.update(RmId::Heap, PageId(1), vec![10]);
        logger.update(RmId::Heap, PageId(1), vec![11]);
        logger.dummy_clr(l1);
        logger.update(RmId::Heap, PageId(1), vec![2]);
        let last = logger.last_lsn;
        undo_chain(&log, &rms, TxnId(1), last, Lsn::NULL).unwrap();
        // 2 undone, NTA records skipped, then 1 undone.
        assert_eq!(*toy.undone.lock(), vec![2, 1]);
    }

    #[test]
    fn undo_of_empty_chain_is_noop() {
        let (_d, log, rms, toy) = setup();
        let last = undo_chain(&log, &rms, TxnId(1), Lsn::NULL, Lsn::NULL).unwrap();
        assert!(last.is_null());
        assert!(toy.undone.lock().is_empty());
    }
}
