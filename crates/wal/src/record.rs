//! The log record envelope.
//!
//! A [`LogRecord`] is the typed header every subsystem shares plus an opaque
//! body interpreted only by the resource manager that wrote it. The envelope
//! carries everything ARIES's passes need without understanding bodies:
//! restart's forward pass reads `kind`/`txn` for its transaction table and
//! `page`/`rm` to redo, undo follows `prev_lsn`/`undo_next_lsn` chains.
//!
//! A stored envelope holds only the fields its kind uses. Every kind starts
//! with `prev_lsn` (8 B), `txn` (8 B) and `kind` (1 B); the kind then adds
//! `undo_next_lsn` (8 B) and/or `rm` (1 B) + `page` (4 B):
//!
//! | kind | added fields | envelope |
//! |---|---|---|
//! | `Update` | `rm`, `page` | 22 B |
//! | `Clr` | `undo_next_lsn`, `rm`, `page` | 30 B |
//! | `DummyClr` | `undo_next_lsn` | 25 B |
//! | `Commit`, `Abort`, `End`, `CkptBegin`, `CkptEnd` | none | 17 B |
//!
//! Decoding fills an omitted field with NULL (`rm` with [`RmId::Txn`]);
//! encoding a record whose omitted field holds anything else is a bug,
//! caught by a `debug_assert!`.

use ariesim_common::codec::{Reader, Writer};
use ariesim_common::{Error, Lsn, PageId, Result, TxnId};

/// Which resource manager owns the record body.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum RmId {
    /// Transaction-control and checkpoint records; body owned by this crate.
    Txn = 0,
    /// Heap record manager (`ariesim-record`).
    Heap = 1,
    /// B+-tree index manager (`ariesim-btree`).
    Index = 2,
    /// Page allocation space map (`ariesim-storage`).
    Space = 3,
}

impl RmId {
    pub fn from_u8(v: u8) -> Option<RmId> {
        Some(match v {
            0 => RmId::Txn,
            1 => RmId::Heap,
            2 => RmId::Index,
            3 => RmId::Space,
            _ => return None,
        })
    }
}

/// The kind of a log record (the discriminant is the on-disk byte). There is
/// no begin record: a transaction's first update, CLR or dummy CLR has
/// `prev_lsn` NULL, and one that never writes appends nothing at all.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum RecordKind {
    /// Normal redo-undo update written during forward processing — and, per
    /// the paper §3 ("Undo Processing"), also by SMOs performed *during*
    /// undo, which must themselves be undoable.
    Update = 0,
    /// Compensation log record: redo-only; `undo_next_lsn` names the next
    /// record of the transaction still to be undone.
    Clr = 1,
    /// Dummy CLR ending a nested top action (paper §1.2). Redo-only, no body
    /// effect on any page; exists purely for its `undo_next_lsn`.
    DummyClr = 2,
    /// Transaction commit: forced to stable storage before commit returns.
    Commit = 4,
    /// Transaction entered rollback.
    Abort = 5,
    /// Transaction finished (after commit processing or total rollback).
    End = 6,
    /// Fuzzy checkpoint begin.
    CkptBegin = 7,
    /// Fuzzy checkpoint end; body is [`CheckpointData`].
    CkptEnd = 8,
}

impl RecordKind {
    pub fn from_u8(v: u8) -> Option<RecordKind> {
        use RecordKind::*;
        Some(match v {
            0 => Update,
            1 => Clr,
            2 => DummyClr,
            4 => Commit,
            5 => Abort,
            6 => End,
            7 => CkptBegin,
            8 => CkptEnd,
            _ => return None,
        })
    }

    /// Records that must be undone when their transaction rolls back.
    pub fn is_undoable(self) -> bool {
        matches!(self, RecordKind::Update)
    }

    /// Records whose body is replayed against a page during the redo pass.
    pub fn is_redoable(self) -> bool {
        matches!(self, RecordKind::Update | RecordKind::Clr)
    }

    /// Whether this kind's envelope stores `undo_next_lsn`.
    fn has_undo_next(self) -> bool {
        matches!(self, RecordKind::Clr | RecordKind::DummyClr)
    }

    /// Whether this kind's envelope stores `rm` and `page`: exactly the
    /// records redo applies to a page.
    fn has_page(self) -> bool {
        self.is_redoable()
    }

    /// Bytes of this kind's stored envelope (see the module docs).
    pub fn envelope_len(self) -> usize {
        ENVELOPE_PREFIX_LEN
            + if self.has_undo_next() { 8 } else { 0 }
            + if self.has_page() { 1 + 4 } else { 0 }
    }
}

/// The envelope prefix every kind stores: prev_lsn, txn, kind.
const ENVELOPE_PREFIX_LEN: usize = 8 + 8 + 1;

/// The longest envelope, a CLR's: the prefix, undo_next_lsn, rm, page.
pub const ENVELOPE_MAX_LEN: usize = ENVELOPE_PREFIX_LEN + 8 + 1 + 4;

/// A fully decoded log record.
#[derive(Clone, Debug)]
pub struct LogRecord {
    /// Assigned by the log manager: the record's offset in the log address
    /// space. Not serialized (it is implied by position).
    pub lsn: Lsn,
    /// Previous record of the same transaction ([`Lsn::NULL`] for the first).
    pub prev_lsn: Lsn,
    /// Owning transaction; [`TxnId::NONE`] for checkpoints.
    pub txn: TxnId,
    pub kind: RecordKind,
    /// For CLRs and dummy CLRs: next record to undo. NULL otherwise.
    pub undo_next_lsn: Lsn,
    pub rm: RmId,
    /// Primary page this record's redo applies to; NULL for non-page records.
    /// Page-oriented redo (paper §3 "Logging") fixes exactly this page.
    pub page: PageId,
    /// RM-interpreted body.
    pub body: Vec<u8>,
}

impl LogRecord {
    /// A forward-processing update record.
    pub fn update(txn: TxnId, prev_lsn: Lsn, rm: RmId, page: PageId, body: Vec<u8>) -> LogRecord {
        LogRecord {
            lsn: Lsn::NULL,
            prev_lsn,
            txn,
            kind: RecordKind::Update,
            undo_next_lsn: Lsn::NULL,
            rm,
            page,
            body,
        }
    }

    /// A compensation record for the undo of `undone`, continuing the undo
    /// chain at `undone.prev_lsn`.
    pub fn clr(
        txn: TxnId,
        prev_lsn: Lsn,
        rm: RmId,
        page: PageId,
        undo_next: Lsn,
        body: Vec<u8>,
    ) -> LogRecord {
        LogRecord {
            lsn: Lsn::NULL,
            prev_lsn,
            txn,
            kind: RecordKind::Clr,
            undo_next_lsn: undo_next,
            rm,
            page,
            body,
        }
    }

    /// The dummy CLR that commits a nested top action: `undo_next` is the LSN
    /// of the transaction's last record *before* the NTA began.
    pub fn dummy_clr(txn: TxnId, prev_lsn: Lsn, undo_next: Lsn) -> LogRecord {
        LogRecord {
            lsn: Lsn::NULL,
            prev_lsn,
            txn,
            kind: RecordKind::DummyClr,
            undo_next_lsn: undo_next,
            rm: RmId::Txn,
            page: PageId::NULL,
            body: Vec::new(),
        }
    }

    /// A transaction-control record with no body.
    pub fn control(txn: TxnId, prev_lsn: Lsn, kind: RecordKind) -> LogRecord {
        debug_assert!(matches!(
            kind,
            RecordKind::Commit | RecordKind::Abort | RecordKind::End
        ));
        LogRecord {
            lsn: Lsn::NULL,
            prev_lsn,
            txn,
            kind,
            undo_next_lsn: Lsn::NULL,
            rm: RmId::Txn,
            page: PageId::NULL,
            body: Vec::new(),
        }
    }

    /// The serialized envelope, which precedes the body in a stored record:
    /// a stack buffer and the length of its used prefix,
    /// [`RecordKind::envelope_len`].
    pub fn envelope(&self) -> ([u8; ENVELOPE_MAX_LEN], usize) {
        let kind = self.kind;
        debug_assert!(
            kind.has_undo_next() || self.undo_next_lsn.is_null(),
            "{kind:?} record stores no undo_next_lsn"
        );
        debug_assert!(
            kind.has_page() || (self.rm == RmId::Txn && self.page.is_null()),
            "{kind:?} record stores no rm or page"
        );
        let mut e = [0u8; ENVELOPE_MAX_LEN];
        e[0..8].copy_from_slice(&self.prev_lsn.0.to_le_bytes());
        e[8..16].copy_from_slice(&self.txn.0.to_le_bytes());
        e[16] = kind as u8;
        let mut at = ENVELOPE_PREFIX_LEN;
        if kind.has_undo_next() {
            e[at..at + 8].copy_from_slice(&self.undo_next_lsn.0.to_le_bytes());
            at += 8;
        }
        if kind.has_page() {
            e[at] = self.rm as u8;
            e[at + 1..at + 5].copy_from_slice(&self.page.0.to_le_bytes());
            at += 5;
        }
        debug_assert_eq!(at, kind.envelope_len());
        (e, at)
    }

    /// Decode a record stored as its [`envelope`](Self::envelope) then its
    /// body. `lsn` is the frame's position, supplied by the reader.
    pub fn decode(lsn: Lsn, buf: &[u8]) -> Result<LogRecord> {
        let mut r = Reader::new(buf);
        let prev_lsn = r.lsn()?;
        let txn = r.txn_id()?;
        let kind_raw = r.u8()?;
        let kind = RecordKind::from_u8(kind_raw).ok_or_else(|| Error::CorruptLog {
            lsn,
            reason: format!("bad record kind {kind_raw}"),
        })?;
        let undo_next_lsn = if kind.has_undo_next() {
            r.lsn()?
        } else {
            Lsn::NULL
        };
        let (rm, page) = if kind.has_page() {
            let rm_raw = r.u8()?;
            let rm = RmId::from_u8(rm_raw).ok_or_else(|| Error::CorruptLog {
                lsn,
                reason: format!("bad rm id {rm_raw}"),
            })?;
            (rm, r.page_id()?)
        } else {
            (RmId::Txn, PageId::NULL)
        };
        let body = r.rest().to_vec();
        Ok(LogRecord {
            lsn,
            prev_lsn,
            txn,
            kind,
            undo_next_lsn,
            rm,
            page,
            body,
        })
    }
}

/// State of a transaction in a checkpoint's transaction table.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum TxnState {
    /// Forward processing.
    InFlight = 0,
    /// Rolling back.
    Aborting = 1,
}

impl TxnState {
    pub fn from_u8(v: u8) -> Option<TxnState> {
        Some(match v {
            0 => TxnState::InFlight,
            1 => TxnState::Aborting,
            _ => return None,
        })
    }
}

/// One dirty-page-table entry: the page and its recovery LSN (the LSN of the
/// earliest record that might not be on disk).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DptEntry {
    pub page: PageId,
    pub rec_lsn: Lsn,
}

/// One transaction-table entry in a checkpoint.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TxnCkptEntry {
    pub txn: TxnId,
    pub state: TxnState,
    pub last_lsn: Lsn,
    pub undo_next_lsn: Lsn,
}

/// Body of a [`RecordKind::CkptEnd`] record: the fuzzy dirty page table and
/// transaction table as of the checkpoint.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CheckpointData {
    pub dpt: Vec<DptEntry>,
    pub txns: Vec<TxnCkptEntry>,
    /// Highest transaction id handed out, so restart resumes the sequence.
    pub max_txn_id: u64,
}

impl CheckpointData {
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.max_txn_id);
        w.u32(self.dpt.len() as u32);
        for e in &self.dpt {
            w.page_id(e.page).lsn(e.rec_lsn);
        }
        w.u32(self.txns.len() as u32);
        for t in &self.txns {
            w.txn_id(t.txn)
                .u8(t.state as u8)
                .lsn(t.last_lsn)
                .lsn(t.undo_next_lsn);
        }
        w.into_vec()
    }

    pub fn decode(lsn: Lsn, buf: &[u8]) -> Result<CheckpointData> {
        let mut r = Reader::new(buf);
        let max_txn_id = r.u64()?;
        let n_dpt = r.u32()?;
        let mut dpt = Vec::with_capacity(n_dpt as usize);
        for _ in 0..n_dpt {
            dpt.push(DptEntry {
                page: r.page_id()?,
                rec_lsn: r.lsn()?,
            });
        }
        let n_txn = r.u32()?;
        let mut txns = Vec::with_capacity(n_txn as usize);
        for _ in 0..n_txn {
            let txn = r.txn_id()?;
            let state_raw = r.u8()?;
            let state = TxnState::from_u8(state_raw).ok_or_else(|| Error::CorruptLog {
                lsn,
                reason: format!("bad txn state {state_raw}"),
            })?;
            txns.push(TxnCkptEntry {
                txn,
                state,
                last_lsn: r.lsn()?,
                undo_next_lsn: r.lsn()?,
            });
        }
        Ok(CheckpointData {
            dpt,
            txns,
            max_txn_id,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record as stored: its envelope, then its body.
    fn stored(rec: &LogRecord) -> Vec<u8> {
        let (e, n) = rec.envelope();
        [&e[..n], &rec.body].concat()
    }

    /// Every stored field of a record (its LSN is implied by position).
    fn fields(r: &LogRecord) -> (Lsn, TxnId, RecordKind, Lsn, RmId, PageId, &[u8]) {
        (r.prev_lsn, r.txn, r.kind, r.undo_next_lsn, r.rm, r.page, &r.body)
    }

    #[test]
    fn every_kind_round_trips_each_field_it_stores() {
        use RecordKind::*;
        for (kind, len) in [
            (Update, 22),
            (Clr, 30),
            (DummyClr, 25),
            (Commit, 17),
            (Abort, 17),
            (End, 17),
            (CkptBegin, 17),
            (CkptEnd, 17),
        ] {
            let rec = LogRecord {
                lsn: Lsn::NULL,
                prev_lsn: Lsn(0x0102_0304_0506_0708),
                txn: TxnId(0x1112_1314_1516_1718),
                kind,
                undo_next_lsn: if kind.has_undo_next() {
                    Lsn(0x2122_2324_2526_2728)
                } else {
                    Lsn::NULL
                },
                rm: if kind.has_page() { RmId::Space } else { RmId::Txn },
                page: if kind.has_page() {
                    PageId(0x3132_3334)
                } else {
                    PageId::NULL
                },
                body: b"body-bytes".to_vec(),
            };
            assert_eq!(kind.envelope_len(), len, "{kind:?}");
            assert_eq!(rec.envelope().1, len, "{kind:?}");
            let enc = stored(&rec);
            assert_eq!(enc.len(), len + rec.body.len(), "{kind:?}");
            let dec = LogRecord::decode(Lsn(555), &enc).unwrap();
            assert_eq!(dec.lsn, Lsn(555));
            assert_eq!(fields(&dec), fields(&rec), "{kind:?}");
            // A body that is empty decodes as empty, not as a short read.
            let bare = LogRecord {
                body: Vec::new(),
                ..rec.clone()
            };
            let dec = LogRecord::decode(Lsn(1), &stored(&bare)).unwrap();
            assert_eq!(fields(&dec), fields(&bare), "{kind:?}");
        }
    }

    #[test]
    fn envelope_truncated_before_its_kind_fields_is_an_error() {
        let rec = LogRecord::clr(TxnId(1), Lsn(50), RmId::Heap, PageId(9), Lsn(20), Vec::new());
        let enc = stored(&rec);
        for cut in 0..enc.len() {
            assert!(LogRecord::decode(Lsn(1), &enc[..cut]).is_err(), "cut {cut}");
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "Commit record stores no rm or page")]
    fn encoding_a_field_the_kind_does_not_store_is_a_bug() {
        let mut rec = LogRecord::control(TxnId(1), Lsn::NULL, RecordKind::Commit);
        rec.page = PageId(4);
        rec.envelope();
    }

    #[test]
    fn clr_carries_undo_next() {
        let rec = LogRecord::clr(TxnId(1), Lsn(50), RmId::Heap, PageId(9), Lsn(20), vec![1]);
        let dec = LogRecord::decode(Lsn(60), &stored(&rec)).unwrap();
        assert_eq!(dec.kind, RecordKind::Clr);
        assert_eq!(dec.undo_next_lsn, Lsn(20));
        assert!(!dec.kind.is_undoable());
        assert!(dec.kind.is_redoable());
    }

    #[test]
    fn dummy_clr_shape() {
        let rec = LogRecord::dummy_clr(TxnId(2), Lsn(99), Lsn(40));
        assert_eq!(rec.kind, RecordKind::DummyClr);
        assert_eq!(rec.undo_next_lsn, Lsn(40));
        assert!(rec.body.is_empty());
        assert!(rec.page.is_null());
        assert!(!rec.kind.is_redoable());
    }

    #[test]
    fn bad_kind_byte_is_corrupt() {
        let (mut enc, _) = LogRecord::control(TxnId(1), Lsn::NULL, RecordKind::Commit).envelope();
        // Kind byte offset: 8 (prev) + 8 (txn). 3 was the retired begin
        // record's code; it is no longer a kind.
        for bad in [3, 200] {
            enc[16] = bad;
            assert!(matches!(
                LogRecord::decode(Lsn(1), &enc),
                Err(Error::CorruptLog { .. })
            ));
        }
    }

    #[test]
    fn checkpoint_data_roundtrip() {
        let data = CheckpointData {
            dpt: vec![
                DptEntry {
                    page: PageId(4),
                    rec_lsn: Lsn(10),
                },
                DptEntry {
                    page: PageId(8),
                    rec_lsn: Lsn(30),
                },
            ],
            txns: vec![TxnCkptEntry {
                txn: TxnId(5),
                state: TxnState::Aborting,
                last_lsn: Lsn(44),
                undo_next_lsn: Lsn(40),
            }],
            max_txn_id: 9,
        };
        let dec = CheckpointData::decode(Lsn(1), &data.encode()).unwrap();
        assert_eq!(dec, data);
    }

    #[test]
    fn empty_checkpoint_roundtrip() {
        let data = CheckpointData::default();
        assert_eq!(CheckpointData::decode(Lsn(1), &data.encode()).unwrap(), data);
    }

    #[test]
    fn only_updates_are_undoable() {
        use RecordKind::*;
        for k in [Clr, DummyClr, Commit, Abort, End, CkptBegin, CkptEnd] {
            assert!(!k.is_undoable(), "{k:?}");
        }
        assert!(Update.is_undoable());
    }
}
