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
use ariesim::common::tmp::TempDir;
use ariesim::common::{IndexId, IndexKey, PageId, Rid};
use ariesim::obs::Obs;
use ariesim::txn::Core;
use ariesim::wal::LogOptions;
use std::sync::Arc;

fn key(i: u32) -> IndexKey {
    IndexKey::new(
        format!("key-{i:06}").into_bytes(),
        Rid::new(PageId(500_000 + i / 50), (i % 50) as u16),
    )
}

/// A bare index: the engine core plus one tree, no record manager.
struct Rig {
    _dir: TempDir,
    core: Arc<Core>,
    tree: Arc<BTree>,
}

fn rig(protocol: LockProtocol) -> Rig {
    let dir = TempDir::new("protocols");
    let core = Core::open(dir.path(), 256, LogOptions::default(), Obs::disabled()).unwrap();
    let tm = &core.tm;
    let txn = tm.begin();
    let root = BTree::create(&core, &txn, IndexId(1)).unwrap();
    tm.commit(&txn).unwrap();
    let tree = BTree::open(&core, IndexId(1), root, false, protocol, false);
    IndexRm::new(&core).unwrap().register_tree(tree.clone());
    // Seed keys 0..1000 (even) so every op has neighbours.
    let txn = tm.begin();
    for i in (0..1000u32).step_by(2) {
        tree.insert(&txn, &key(i)).unwrap();
    }
    tm.commit(&txn).unwrap();
    core.stats.reset();
    Rig {
        _dir: dir,
        core,
        tree,
    }
}

fn measure(protocol: LockProtocol) -> [(u64, u64); 3] {
    let r = rig(protocol);
    let mut out = [(0, 0); 3];
    // Fetch 100 present keys.
    let txn = r.core.tm.begin();
    for i in (100..300u32).step_by(2) {
        r.tree.fetch(&txn, &key(i).value, FetchCond::Eq).unwrap();
    }
    r.core.tm.commit(&txn).unwrap();
    let s = r.core.stats.snapshot();
    out[0] = (s.locks_acquired / 100, s.locks_acquired % 100);
    r.core.stats.reset();
    // Insert 100 odd keys.
    let txn = r.core.tm.begin();
    for i in (100..300u32).step_by(2) {
        r.tree.insert(&txn, &key(i + 1)).unwrap();
    }
    r.core.tm.commit(&txn).unwrap();
    let s = r.core.stats.snapshot();
    out[1] = (s.locks_acquired / 100, s.locks_acquired % 100);
    r.core.stats.reset();
    // Delete those 100 keys again.
    let txn = r.core.tm.begin();
    for i in (100..300u32).step_by(2) {
        r.tree.delete(&txn, &key(i + 1)).unwrap();
    }
    r.core.tm.commit(&txn).unwrap();
    let s = r.core.stats.snapshot();
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
