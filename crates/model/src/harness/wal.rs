//! WAL harnesses: the append/flush pipeline.
//!
//! Three protocols, checked separately:
//!
//! * [`flush_mirror`] — `LogManager` keeps the durable end of the log
//!   twice: the truth inside the flush mutex, and an `AtomicU64` mirror
//!   that `flush_to`'s fast path and `flushed_lsn()` read without the
//!   lock. The mirror may *lag* the locked truth but never lead it — a
//!   mirror that ran ahead would let `flush_to` return before the log hit
//!   disk, breaking the WAL rule.
//! * [`mirror_behind_file`] — the same mirror against the bytes on disk:
//!   a poller must never read a durable LSN the log file does not yet
//!   hold, which is what the WAL rule at page write-back stands on.
//! * [`group_commit`] — append + leader-elected group flush racing a
//!   concurrent append + buffered read: flush_to must return only once the
//!   caller's LSN is durable, and a buffered record must read back while a
//!   flush is in flight.

use std::sync::Arc;

use ariesim_common::stats::new_stats;
use ariesim_common::tmp::TempDir;
use ariesim_common::{Lsn, PageId, TxnId};
use ariesim_wal::{LogManager, LogOptions, LogRecord, RmId};

use crate::runtime::Env;

pub fn flush_mirror(env: &mut Env) {
    let dir = TempDir::new("model-wal");
    let stats = new_stats();
    let log = Arc::new(
        LogManager::open(&dir.file("wal"), LogOptions::default(), stats).expect("open log"),
    );
    let base = log.flushed_lsn();
    for t in 0..2u32 {
        let log = log.clone();
        env.spawn(move || {
            let lsn = log.append(&LogRecord::update(
                TxnId(u64::from(t) + 1),
                Lsn::NULL,
                RmId::Heap,
                PageId(t + 1),
                vec![t as u8],
            ));
            log.flush_to(lsn).expect("flush_to");
            // The mirror may lag the locked durable_end, never lead it; a
            // completed flush_to(lsn) must therefore be visible through it.
            assert!(
                log.flushed_lsn() >= lsn,
                "durable-LSN mirror ran behind a completed flush"
            );
        });
    }
    env.join();
    assert!(log.flushed_lsn() > base, "mirror never advanced");
}

/// One thread appends and forces; the other polls the durable mirror and
/// checks the log file against it. The mirror is stored only after the
/// write, so the file is never shorter than a durable LSN a reader saw.
pub fn mirror_behind_file(env: &mut Env) {
    let dir = TempDir::new("model-wal-file");
    let path = dir.file("wal");
    let log =
        Arc::new(LogManager::open(&path, LogOptions::default(), new_stats()).expect("open log"));
    {
        let log = log.clone();
        env.spawn(move || {
            let lsn = log.append(&LogRecord::update(
                TxnId(1),
                Lsn::NULL,
                RmId::Heap,
                PageId(1),
                b"forced".to_vec(),
            ));
            log.flush_to(lsn).expect("flush_to");
        });
    }
    {
        let log = log.clone();
        env.spawn(move || {
            for _ in 0..2 {
                let durable = log.flushed_lsn();
                let on_disk = std::fs::metadata(&path).expect("stat log").len();
                assert!(
                    on_disk >= durable.0,
                    "durable mirror {durable:?} leads the log file ({on_disk} bytes)"
                );
            }
        });
    }
    env.join();
    assert_eq!(log.scan(Lsn::NULL).count(), 1);
}

/// Leader-based group commit: one committer appends and forces, another
/// appends and reads back while the flush may be in flight. `flush_to`
/// must return only once the caller's LSN is durable.
pub fn group_commit(env: &mut Env) {
    let dir = TempDir::new("model-wal-gc");
    let log = Arc::new(
        LogManager::open(&dir.file("wal"), LogOptions::default(), new_stats())
            .expect("open log"),
    );
    {
        let log = log.clone();
        env.spawn(move || {
            let lsn = log.append(&LogRecord::update(
                TxnId(1),
                Lsn::NULL,
                RmId::Heap,
                PageId(1),
                b"commit".to_vec(),
            ));
            log.flush_to(lsn).expect("flush_to");
            assert!(
                log.flushed_lsn() > lsn,
                "flush_to returned before the record was durable"
            );
        });
    }
    {
        let log = log.clone();
        env.spawn(move || {
            let lsn = log.append(&LogRecord::update(
                TxnId(2),
                Lsn::NULL,
                RmId::Heap,
                PageId(2),
                b"buffered".to_vec(),
            ));
            let rec = log.read(lsn).expect("buffered read");
            assert_eq!(rec.body, b"buffered");
            log.flush_to(lsn).expect("flush_to");
            assert!(log.flushed_lsn() > lsn);
        });
    }
    env.join();
    assert_eq!(log.scan(Lsn::NULL).count(), 2);
}
