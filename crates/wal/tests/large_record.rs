//! A record of any size appends. A checkpoint's dirty-page table costs 12
//! bytes per page, so a checkpoint of a pool with 100 000 dirty pages is a
//! single record of about 1.2 MB — larger than the image's headroom. It
//! must append, flush, read back, and survive a reopen.

use ariesim_common::stats::new_stats;
use ariesim_common::tmp::TempDir;
use ariesim_common::{Lsn, PageId, TxnId};
use ariesim_wal::manager::IMAGE_HEADROOM;
use ariesim_wal::{CheckpointData, DptEntry, LogManager, LogOptions, LogRecord, RecordKind, RmId};

fn checkpoint_end(data: &CheckpointData) -> LogRecord {
    LogRecord {
        lsn: Lsn::NULL,
        prev_lsn: Lsn::NULL,
        txn: TxnId::NONE,
        kind: RecordKind::CkptEnd,
        undo_next_lsn: Lsn::NULL,
        rm: RmId::Txn,
        page: PageId::NULL,
        body: data.encode(),
    }
}

fn decode(rec: &LogRecord) -> CheckpointData {
    assert_eq!(rec.kind, RecordKind::CkptEnd);
    CheckpointData::decode(rec.lsn, &rec.body).unwrap()
}

#[test]
fn checkpoint_with_100k_dirty_pages_appends_and_reopens() {
    let data = CheckpointData {
        dpt: (0..100_000u32)
            .map(|i| DptEntry {
                page: PageId(i + 1),
                rec_lsn: Lsn(16 + u64::from(i)),
            })
            .collect(),
        txns: Vec::new(),
        max_txn_id: 7,
    };
    let rec = checkpoint_end(&data);
    assert!(
        rec.body.len() > IMAGE_HEADROOM,
        "the record must outgrow the headroom"
    );

    let dir = TempDir::new("wal-large");
    let path = dir.file("wal");
    let m = LogManager::open(&path, LogOptions::default(), new_stats()).unwrap();
    let small = m.append(&LogRecord::control(TxnId(1), Lsn::NULL, RecordKind::Commit));
    let lsn = m.append(&rec);
    let after = m.append(&LogRecord::control(TxnId(2), Lsn::NULL, RecordKind::Commit));
    assert!(small < lsn && lsn < after);
    m.flush_to(lsn).unwrap();
    assert!(m.flushed_lsn() > lsn);
    assert_eq!(decode(&m.read(lsn).unwrap()), data);
    drop(m);

    let re = LogManager::open(&path, LogOptions::default(), new_stats()).unwrap();
    assert_eq!(decode(&re.read(lsn).unwrap()), data);
    let kinds: Vec<RecordKind> = re.scan(Lsn::NULL).map(|r| r.unwrap().kind).collect();
    assert_eq!(
        kinds,
        [RecordKind::Commit, RecordKind::CkptEnd, RecordKind::Commit]
    );
}
