//! Property tests for the buffer pool's eviction machinery.
//!
//! Two layers of guarantees are sampled over arbitrary traces:
//!
//! * **Policy level** — Clock's `victim` only ever returns a frame its
//!   `evictable` callback approved (the callback is the pool's pin+latch
//!   gate, so "approved" is what makes eviction safe), for arbitrary
//!   hit/load traces and arbitrary sets of unevictable frames.
//! * **Pool level (WAL rule)** — arbitrary fix/dirty traces over a pool
//!   smaller than the page universe: whenever a dirty page is written back
//!   (eviction or flush), the log was already durable past the page's
//!   `page_lsn` — asserted from the monitor's WAL-rule verdict, which the
//!   pool reports to before every write — and every evicted page's disk
//!   image is exactly what the latch-protected oracle last wrote.

use ariesim_common::page::PageType;
use ariesim_common::stats::new_stats;
use ariesim_common::tmp::TempDir;
use ariesim_common::{Lsn, PageId, TxnId};
use ariesim_obs::Obs;
use ariesim_storage::eviction::Clock;
use ariesim_storage::{BufferPool, DiskManager};
use ariesim_wal::{LogManager, LogOptions, LogRecord, RmId};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

const FRAMES: usize = 8;

/// Replay a trace of (hit|load, frame) events into a fresh policy.
fn replay(trace: &[(bool, usize)]) -> Clock {
    let mut p = Clock::new(FRAMES);
    for &(is_hit, f) in trace {
        if is_hit {
            p.on_hit(f % FRAMES);
        } else {
            p.on_load(f % FRAMES);
        }
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The policy never returns a frame its gate rejected — i.e. a pinned
    /// or latched frame can never be chosen, no matter the trace.
    #[test]
    fn policies_only_evict_approved_frames(
        trace in proptest::collection::vec((any::<bool>(), 0usize..FRAMES), 0..60),
        blocked in proptest::collection::vec(any::<bool>(), FRAMES..FRAMES + 1),
    ) {
        let mut p = replay(&trace);
        let mut approved = [false; FRAMES];
        let victim = p.victim(&mut |f| {
            if blocked[f] {
                false
            } else {
                approved[f] = true;
                true
            }
        });
        match victim {
            Some(f) => {
                prop_assert!(
                    approved[f],
                    "evicted frame {f} without approval (blocked={blocked:?})"
                );
                prop_assert!(!blocked[f]);
            }
            None => prop_assert!(
                blocked.iter().all(|&b| b),
                "gave up with evictable frames left: {blocked:?}"
            ),
        }
    }

    /// Pool-level WAL rule and no-lost-writes, over arbitrary single-thread
    /// fix/dirty traces with heavy eviction (pool of 8 frames, 32 pages).
    #[test]
    fn pool_never_writes_back_ahead_of_the_log(
        ops in proptest::collection::vec((any::<bool>(), 1u32..33), 1..120),
    ) {
        let obs = Obs::enabled(1 << 13);
        let dir = TempDir::new("prop-evict");
        let stats = new_stats();
        let log = Arc::new(
            LogManager::open(&dir.file("wal"), LogOptions::default(), stats.clone()).unwrap(),
        );
        let disk = DiskManager::open(&dir.file("db"), stats.clone()).unwrap();
        let pool = BufferPool::new(disk, log.clone(), FRAMES, stats.clone(), obs.clone());
        // Oracle: the stamp (owner word) each page must carry.
        let mut expect: HashMap<u32, u32> = HashMap::new();
        for &(write, p) in &ops {
            if write {
                // Append a real, unflushed record so the WAL rule has work.
                let lsn = log.append(&LogRecord::update(
                    TxnId(p as u64),
                    Lsn::NULL,
                    RmId::Heap,
                    PageId(p),
                    vec![p as u8],
                ));
                let mut g = pool.fix_x(PageId(p)).unwrap();
                let v = expect.get(&p).copied().unwrap_or(0) + 1;
                g.format(PageId(p), PageType::Heap, v, 0);
                g.record_update(lsn);
                expect.insert(p, v);
            } else {
                let g = pool.fix_s(PageId(p)).unwrap();
                // A never-formatted page reads back zeroed (page_id 0).
                if expect.contains_key(&p) {
                    prop_assert_eq!(g.page_id(), PageId(p));
                }
                prop_assert_eq!(g.owner(), expect.get(&p).copied().unwrap_or(0));
            }
        }
        // Every page — evicted ones fault back in from disk — matches.
        for (&p, &v) in &expect {
            let g = pool.fix_s(PageId(p)).unwrap();
            prop_assert_eq!(g.owner(), v, "page {} lost stamp {}", p, v);
            // A dirty page's image may legally still be only in memory; but
            // if it was evicted at some point, the WAL covered it (below).
        }
        // Flush what is still dirty, so a trace with any write writes back
        // at least once; the monitor checked every write-back, eviction and
        // flush alike.
        pool.flush_all().unwrap();
        let wrote = ops.iter().any(|&(write, _)| write);
        prop_assert_eq!(stats.snapshot().page_writes > 0, wrote);
        let m = obs.monitor.snapshot();
        prop_assert_eq!(m.wal_rule_violations, 0, "WAL rule: {:?}", m);
    }
}
