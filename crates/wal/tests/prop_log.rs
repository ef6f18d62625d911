//! Property tests for the log manager: arbitrary record sequences survive a
//! round trip, and arbitrary *byte-level* truncation (a torn tail) yields
//! exactly the longest valid record prefix — never garbage, never a panic.

use ariesim_common::stats::new_stats;
use ariesim_common::tmp::TempDir;
use ariesim_common::{Lsn, PageId, TxnId};
use ariesim_wal::{LogManager, LogOptions, LogRecord, RmId};
use proptest::prelude::*;

fn open(dir: &TempDir) -> LogManager {
    LogManager::open(&dir.file("wal"), LogOptions::default(), new_stats()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn roundtrip_arbitrary_records(
        bodies in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..300),
            1..40,
        )
    ) {
        let dir = TempDir::new("prop-wal");
        let m = open(&dir);
        let mut prev = Lsn::NULL;
        let mut lsns = Vec::new();
        for (i, b) in bodies.iter().enumerate() {
            prev = m.append(&LogRecord::update(
                TxnId(1 + (i % 3) as u64),
                prev,
                RmId::Heap,
                PageId(1 + (i % 5) as u32),
                b.clone(),
            ));
            lsns.push(prev);
        }
        m.flush_all().unwrap();
        drop(m);
        let m = open(&dir);
        let recs: Vec<LogRecord> = m.scan(Lsn::NULL).map(|r| r.unwrap()).collect();
        prop_assert_eq!(recs.len(), bodies.len());
        for ((rec, body), lsn) in recs.iter().zip(&bodies).zip(&lsns) {
            prop_assert_eq!(&rec.body, body);
            prop_assert_eq!(rec.lsn, *lsn);
        }
    }

    #[test]
    fn byte_truncation_yields_longest_valid_prefix(
        bodies in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..120),
            2..20,
        ),
        cut_back in 1usize..200,
    ) {
        let dir = TempDir::new("prop-wal");
        let path = dir.file("wal");
        let m = open(&dir);
        let mut prev = Lsn::NULL;
        let mut lsns = Vec::new();
        for b in &bodies {
            prev = m.append(&LogRecord::update(TxnId(1), prev, RmId::Heap, PageId(1), b.clone()));
            lsns.push(prev);
        }
        let end = m.next_lsn().0;
        m.flush_all().unwrap();
        drop(m);
        // Tear off `cut_back` bytes from the end (clamped to keep the magic).
        let keep = end.saturating_sub(cut_back as u64).max(16);
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(keep).unwrap();
        drop(f);
        let m = open(&dir);
        let recs: Vec<LogRecord> = m.scan(Lsn::NULL).map(|r| r.unwrap()).collect();
        // Exactly the records whose full frame fits below `keep` survive.
        // Frame = 8 bytes framing + envelope + user body. Every record
        // here is an Update, whose envelope is 22 bytes (prev_lsn, txn,
        // kind, rm, page); a CLR's is 30, a DummyClr's 25, any other
        // kind's 17.
        const ENVELOPE: u64 = 22;
        let expected = lsns
            .iter()
            .zip(&bodies)
            .take_while(|(lsn, b)| lsn.0 + 8 + ENVELOPE + b.len() as u64 <= keep)
            .count();
        prop_assert_eq!(recs.len(), expected, "keep={} end={}", keep, end);
        for (rec, body) in recs.iter().zip(&bodies) {
            prop_assert_eq!(&rec.body, body);
        }
        // And the log is appendable after the tear.
        let l = m.append(&LogRecord::update(TxnId(9), Lsn::NULL, RmId::Heap, PageId(2), vec![1]));
        prop_assert_eq!(m.read(l).unwrap().body, vec![1]);
    }

    #[test]
    fn any_single_bit_flip_truncates_at_its_frame(
        bodies in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..120),
            1..12,
        ),
        frame_pick in any::<u64>(),
        bit_pick in any::<u64>(),
    ) {
        let dir = TempDir::new("prop-wal");
        let path = dir.file("wal");
        let m = open(&dir);
        let mut prev = Lsn::NULL;
        let mut lsns = Vec::new();
        for b in &bodies {
            prev = m.append(&LogRecord::update(TxnId(1), prev, RmId::Heap, PageId(1), b.clone()));
            lsns.push(prev);
        }
        lsns.push(m.next_lsn());
        m.flush_all().unwrap();
        drop(m);
        // Flip one bit anywhere in one frame: its length, its CRC, its
        // envelope or its body.
        let victim = (frame_pick % bodies.len() as u64) as usize;
        let (start, end) = (lsns[victim].0, lsns[victim + 1].0);
        let bit = start * 8 + bit_pick % ((end - start) * 8);
        let mut raw = std::fs::read(&path).unwrap();
        raw[(bit / 8) as usize] ^= 1 << (bit % 8);
        std::fs::write(&path, &raw).unwrap();
        let m = open(&dir);
        // The log now ends exactly where the damaged frame began.
        prop_assert_eq!(m.next_lsn(), lsns[victim]);
        prop_assert_eq!(std::fs::metadata(&path).unwrap().len(), lsns[victim].0);
        let recs: Vec<LogRecord> = m.scan(Lsn::NULL).map(|r| r.unwrap()).collect();
        prop_assert_eq!(recs.len(), victim);
        for (rec, body) in recs.iter().zip(&bodies) {
            prop_assert_eq!(&rec.body, body);
        }
    }
}
