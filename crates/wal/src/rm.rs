//! Resource-manager interface and the per-transaction log chain writer.
//!
//! ARIES is organized around *resource managers*: the component that writes a
//! log record is the one that knows how to redo and undo it. The recovery
//! manager and the rollback driver only understand the envelope; they
//! dispatch bodies to the RM named by [`crate::RmId`] through the
//! [`ResourceManager`] trait.
//!
//! [`ChainLogger`] is the one writer of a transaction's backward log chain:
//! it owns the `last_lsn` cursor, so every record it appends is correctly
//! linked via `prev_lsn`. Forward processing (through the transaction
//! manager) and undo write through it. Undo is the same at restart as in a
//! rollback: with no live transaction object, restart builds a plain
//! `ChainLogger` from the transaction table of its forward pass, and the
//! resource managers undo through it exactly as they do for a rollback
//! (ARIES/IM undo takes no locks either way, paper §4).

use crate::manager::LogManager;
use crate::record::{LogRecord, RecordKind, RmId};
use ariesim_common::{Lsn, PageBuf, PageId, Result, TxnId};

/// Writer of one transaction's log chain.
pub struct ChainLogger<'a> {
    pub txn: TxnId,
    /// LSN of the transaction's most recent log record.
    pub last_lsn: Lsn,
    log: &'a LogManager,
}

impl<'a> ChainLogger<'a> {
    pub fn new(log: &'a LogManager, txn: TxnId, last_lsn: Lsn) -> ChainLogger<'a> {
        ChainLogger { txn, last_lsn, log }
    }

    pub fn log(&self) -> &'a LogManager {
        self.log
    }

    /// Append a redo-undo update record.
    pub fn update(&mut self, rm: RmId, page: PageId, body: Vec<u8>) -> Lsn {
        let lsn = self
            .log
            .append(&LogRecord::update(self.txn, self.last_lsn, rm, page, body));
        self.last_lsn = lsn;
        lsn
    }

    /// Append a compensation record whose `undo_next_lsn` is `undo_next`
    /// (normally the `prev_lsn` of the record being compensated).
    pub fn clr(&mut self, rm: RmId, page: PageId, undo_next: Lsn, body: Vec<u8>) -> Lsn {
        let lsn = self.log.append(&LogRecord::clr(
            self.txn,
            self.last_lsn,
            rm,
            page,
            undo_next,
            body,
        ));
        self.last_lsn = lsn;
        lsn
    }

    /// Append the dummy CLR that ends a nested top action started when the
    /// transaction's last LSN was `undo_next` (paper §1.2).
    pub fn dummy_clr(&mut self, undo_next: Lsn) -> Lsn {
        let lsn = self
            .log
            .append(&LogRecord::dummy_clr(self.txn, self.last_lsn, undo_next));
        self.last_lsn = lsn;
        lsn
    }

    /// Append a bodyless transaction-control record.
    pub fn control(&mut self, kind: RecordKind) -> Lsn {
        let lsn = self
            .log
            .append(&LogRecord::control(self.txn, self.last_lsn, kind));
        self.last_lsn = lsn;
        lsn
    }
}

/// A subsystem that owns a class of log-record bodies.
pub trait ResourceManager: Send + Sync {
    /// Which [`RmId`] this manager serves.
    fn rm_id(&self) -> RmId;

    /// Page-oriented redo: reapply `rec`'s change to `page`. The caller has
    /// the page latched exclusively and has already established
    /// `page_lsn < rec.lsn`; the implementation must not touch other pages
    /// (the paper's guarantee that restart redo never traverses the tree).
    /// The caller stamps `page_lsn = rec.lsn` afterwards.
    fn redo(&self, page: &mut PageBuf, rec: &LogRecord) -> Result<()>;

    /// Undo `rec` on behalf of a rollback. The implementation locates the
    /// affected data (page-oriented when possible, logically otherwise),
    /// applies the inverse change, and writes the CLR(s) — and any SMO
    /// records undo needs — through `logger`.
    fn undo(&self, logger: &mut ChainLogger<'_>, rec: &LogRecord) -> Result<()>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::LogOptions;
    use ariesim_common::stats::new_stats;
    use ariesim_common::tmp::TempDir;

    #[test]
    fn chain_logger_links_records() {
        let dir = TempDir::new("rm");
        let log = LogManager::open(&dir.file("wal"), LogOptions::default(), new_stats()).unwrap();
        let mut cl = ChainLogger::new(&log, TxnId(5), Lsn::NULL);
        let l1 = cl.update(RmId::Heap, PageId(1), b"a".to_vec());
        let l2 = cl.update(RmId::Heap, PageId(1), b"b".to_vec());
        let l3 = cl.clr(RmId::Heap, PageId(1), Lsn::NULL, b"c".to_vec());
        let l4 = cl.dummy_clr(l1);
        let l5 = cl.control(RecordKind::Commit);
        assert_eq!(cl.last_lsn, l5);
        let r2 = log.read(l2).unwrap();
        assert_eq!(r2.prev_lsn, l1);
        let r3 = log.read(l3).unwrap();
        assert_eq!(r3.prev_lsn, l2);
        assert_eq!(r3.kind, RecordKind::Clr);
        let r4 = log.read(l4).unwrap();
        assert_eq!(r4.kind, RecordKind::DummyClr);
        assert_eq!(r4.undo_next_lsn, l1);
        assert_eq!(log.read(l5).unwrap().prev_lsn, l4);
    }
}
