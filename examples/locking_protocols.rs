//! Side-by-side locking behaviour of the three protocols — ARIES/IM
//! data-only locking, ARIES/IM index-specific locking, and the ARIES/KVL
//! baseline — on the same operations: a live rendition of the paper's
//! Figure 2 and its §1/§5 lock-count claims.
//!
//! ```sh
//! cargo run --example locking_protocols
//! ```

use ariesim::btree::fetch::FetchCond;
use ariesim::btree::{BTree, IndexRm, LockProtocol};
use ariesim::common::stats::new_stats;
use ariesim::common::tmp::TempDir;
use ariesim::common::{IndexId, IndexKey, PageId, Rid};
use ariesim::lock::LockManager;
use ariesim::storage::{BufferPool, DiskManager, SpaceMap, SpaceRm};
use ariesim::txn::{RmRegistry, TransactionManager};
use ariesim::wal::{LogManager, LogOptions};
use std::sync::Arc;

fn key(i: u32) -> IndexKey {
    IndexKey::new(
        format!("key-{i:06}").into_bytes(),
        Rid::new(PageId(500_000 + i / 50), (i % 50) as u16),
    )
}

struct Rig {
    _dir: TempDir,
    stats: ariesim::common::stats::StatsHandle,
    tm: Arc<TransactionManager>,
    tree: Arc<BTree>,
}

fn rig(protocol: LockProtocol) -> Rig {
    let dir = TempDir::new("protocols");
    let stats = new_stats();
    let log = Arc::new(
        LogManager::open(&dir.file("wal"), LogOptions::default(), stats.clone()).unwrap(),
    );
    let disk = DiskManager::open(&dir.file("db"), stats.clone()).unwrap();
    let pool = BufferPool::new(disk, log.clone(), 256, stats.clone());
    SpaceMap::initialize(&pool).unwrap();
    let locks = Arc::new(LockManager::new(stats.clone()));
    let rms = Arc::new(RmRegistry::new());
    let index_rm = IndexRm::new(pool.clone(), stats.clone());
    rms.register(index_rm.clone());
    rms.register(Arc::new(SpaceRm::new(pool.clone())));
    let tm = Arc::new(TransactionManager::new(
        log.clone(),
        locks.clone(),
        pool.clone(),
        rms,
        stats.clone(),
    ));
    let txn = tm.begin();
    let root = BTree::create(&txn, IndexId(1), &pool, &log).unwrap();
    tm.commit(&txn).unwrap();
    let tree = BTree::new(IndexId(1), root, false, protocol, pool, locks, log, stats.clone());
    index_rm.register_tree(tree.clone());
    // Seed keys 0..1000 (even) so every op has neighbours.
    let txn = tm.begin();
    for i in (0..1000u32).step_by(2) {
        tree.insert(&txn, &key(i)).unwrap();
    }
    tm.commit(&txn).unwrap();
    stats.reset();
    Rig {
        _dir: dir,
        stats,
        tm,
        tree,
    }
}

fn measure(protocol: LockProtocol) -> [(u64, u64); 3] {
    let r = rig(protocol);
    let mut out = [(0, 0); 3];
    // Fetch 100 present keys.
    let txn = r.tm.begin();
    for i in (100..300u32).step_by(2) {
        r.tree.fetch(&txn, &key(i).value, FetchCond::Eq).unwrap();
    }
    r.tm.commit(&txn).unwrap();
    let s = r.stats.snapshot();
    out[0] = (s.locks_acquired / 100, s.locks_acquired % 100);
    r.stats.reset();
    // Insert 100 odd keys.
    let txn = r.tm.begin();
    for i in (100..300u32).step_by(2) {
        r.tree.insert(&txn, &key(i + 1)).unwrap();
    }
    r.tm.commit(&txn).unwrap();
    let s = r.stats.snapshot();
    out[1] = (s.locks_acquired / 100, s.locks_acquired % 100);
    r.stats.reset();
    // Delete those 100 keys again.
    let txn = r.tm.begin();
    for i in (100..300u32).step_by(2) {
        r.tree.delete(&txn, &key(i + 1)).unwrap();
    }
    r.tm.commit(&txn).unwrap();
    let s = r.stats.snapshot();
    out[2] = (s.locks_acquired / 100, s.locks_acquired % 100);
    out
}

fn main() {
    println!("index-manager lock requests per single-key operation");
    println!("(data-only's insert/delete current-key lock lives in the record");
    println!(" manager and is shared with the data update — the paper's point)\n");
    println!("{:<18} {:>8} {:>8} {:>8}", "protocol", "fetch", "insert", "delete");
    for (name, protocol) in [
        ("IM data-only", LockProtocol::DataOnly),
        ("IM index-specific", LockProtocol::IndexSpecific),
        ("ARIES/KVL", LockProtocol::KeyValue),
    ] {
        let m = measure(protocol);
        println!(
            "{:<18} {:>8} {:>8} {:>8}",
            name, m[0].0, m[1].0, m[2].0
        );
    }
    println!("\npaper's claim: ARIES/IM data-only acquires the minimal number of");
    println!("locks — one per fetch (the record lock doubles as the key lock) and");
    println!("one instant/commit next-key lock per insert/delete.");
}
