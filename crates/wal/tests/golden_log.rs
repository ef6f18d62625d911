//! The log format is frozen. `tests/data/golden.wal` was written by the
//! fixed record sequence below in format v02 (per-kind envelopes); the
//! engine must read it back record for record, and writing the same
//! sequence to a fresh log must give the same bytes. A log of any other
//! format version is refused at open.

use ariesim_common::stats::new_stats;
use ariesim_common::tmp::TempDir;
use ariesim_common::{Error, Lsn, PageId, TxnId};
use ariesim_wal::frame::LOG_MAGIC;
use ariesim_wal::{
    CheckpointData, DptEntry, LogManager, LogOptions, LogRecord, RecordKind, RmId, TxnCkptEntry,
    TxnState,
};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/golden.wal");

fn checkpoint_record(kind: RecordKind, body: Vec<u8>) -> LogRecord {
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

/// One record of every kind, in a fixed order with fixed fields.
fn sequence() -> Vec<LogRecord> {
    let data = CheckpointData {
        dpt: vec![
            DptEntry {
                page: PageId(4),
                rec_lsn: Lsn(16),
            },
            DptEntry {
                page: PageId(9),
                rec_lsn: Lsn(454),
            },
        ],
        txns: vec![TxnCkptEntry {
            txn: TxnId(8),
            state: TxnState::Aborting,
            last_lsn: Lsn(692),
            undo_next_lsn: Lsn(654),
        }],
        max_txn_id: 8,
    };
    vec![
        LogRecord::update(
            TxnId(7),
            Lsn::NULL,
            RmId::Index,
            PageId(4),
            (0..=255).chain(0..144).collect(),
        ),
        LogRecord::clr(
            TxnId(7),
            Lsn(16),
            RmId::Heap,
            PageId(9),
            Lsn::NULL,
            vec![0xA5; 200],
        ),
        LogRecord::dummy_clr(TxnId(8), Lsn(454), Lsn(16)),
        LogRecord::control(TxnId(7), Lsn(454), RecordKind::Commit),
        LogRecord::control(TxnId(8), Lsn(692), RecordKind::Abort),
        LogRecord::control(TxnId(7), Lsn(730), RecordKind::End),
        checkpoint_record(RecordKind::CkptBegin, Vec::new()),
        checkpoint_record(RecordKind::CkptEnd, data.encode()),
    ]
}

/// Every stored field of a record (its LSN is implied by position).
fn fields(r: &LogRecord) -> (Lsn, TxnId, RecordKind, Lsn, RmId, PageId, &[u8]) {
    (
        r.prev_lsn,
        r.txn,
        r.kind,
        r.undo_next_lsn,
        r.rm,
        r.page,
        &r.body,
    )
}

#[test]
fn golden_log_scans_back_to_the_sequence() {
    let dir = TempDir::new("golden");
    let path = dir.file("wal");
    std::fs::copy(GOLDEN, &path).unwrap();
    let m = LogManager::open(&path, LogOptions::default(), new_stats()).unwrap();
    let got: Vec<LogRecord> = m.scan(Lsn::NULL).map(|r| r.unwrap()).collect();
    let want = sequence();
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(fields(g), fields(w), "record at {}", g.lsn);
    }
    // Opening found no torn tail to cut.
    drop(m);
    assert_eq!(
        std::fs::read(&path).unwrap(),
        std::fs::read(GOLDEN).unwrap()
    );
}

#[test]
fn the_sequence_writes_the_golden_bytes() {
    let dir = TempDir::new("golden");
    let path = dir.file("wal");
    let m = LogManager::open(&path, LogOptions::default(), new_stats()).unwrap();
    for rec in &sequence() {
        m.append(rec);
    }
    m.flush_all().unwrap();
    drop(m);
    assert_eq!(
        std::fs::read(&path).unwrap(),
        std::fs::read(GOLDEN).unwrap()
    );
}

#[test]
fn golden_records_carry_their_kinds_envelopes() {
    let golden = std::fs::read(GOLDEN).unwrap();
    assert_eq!(&golden[..LOG_MAGIC.len()], b"ARIESIM-LOG-v02\0");
    // Frame header 8 B + the kind's envelope + body, record after record.
    let want: usize = sequence()
        .iter()
        .map(|r| 8 + r.kind.envelope_len() + r.body.len())
        .sum();
    assert_eq!(golden.len(), LOG_MAGIC.len() + want);
}

#[test]
fn a_v01_log_is_refused_at_open() {
    let dir = TempDir::new("golden");
    let path = dir.file("wal");
    let mut v01 = std::fs::read(GOLDEN).unwrap();
    v01[..LOG_MAGIC.len()].copy_from_slice(b"ARIESIM-LOG-v01\0");
    std::fs::write(&path, &v01).unwrap();
    match LogManager::open(&path, LogOptions::default(), new_stats()) {
        Err(Error::CorruptLog { reason, .. }) => assert_eq!(reason, "bad log file magic"),
        Err(e) => panic!("wrong error for a v01 log: {e}"),
        Ok(_) => panic!("a v01 log opened"),
    }
    // Refusing it left the file as it was.
    assert_eq!(std::fs::read(&path).unwrap(), v01);
}
