//! Figure 11 — the Delete_Bit precaution and the crash it protects against.
//!
//! The scenario: T1's key delete frees space on leaf P6; T2's insert wants
//! to consume that space; if a crash then forces T1's delete to be undone
//! *logically* (the freed space is gone, so the undo needs a page split —
//! reason 1 of §3), the tree must be structurally consistent and traversable
//! at that point. The Delete_Bit makes T2 establish a **point of structural
//! consistency** (instant S tree latch) before consuming the space.

mod support;

use ariesim::btree::LockProtocol;
use ariesim::obs::Obs;
use support::{fix, key};

/// Keys sized so a leaf holds few of them, making space exhaustion easy.
fn big_key(tag: &str, i: u32) -> ariesim::common::IndexKey {
    key(format!("{tag}-{i:04}-{}", "x".repeat(600)), i)
}

#[test]
fn delete_sets_delete_bit_and_insert_establishes_posc() {
    let f = fix(LockProtocol::DataOnly, false);
    let setup = f.tm.begin();
    for i in 0..8u32 {
        f.tree.insert(&setup, &big_key("k", i)).unwrap();
    }
    f.tm.commit(&setup).unwrap();

    // T1 deletes a middle key: the leaf's Delete_Bit goes to '1'.
    let t1 = f.tm.begin();
    f.tree.delete(&t1, &big_key("k", 3)).unwrap();
    let leaf = f.tree.leaf_for_value(&big_key("k", 4).value).unwrap();
    {
        let g = f.pool.fix_s(leaf).unwrap();
        assert!(g.delete_bit(), "key delete must set the Delete_Bit");
    }
    f.tm.commit(&t1).unwrap();

    // T2 inserts into that leaf: it must first take an instant S tree latch
    // (establishing a POSC) and reset the bit.
    let before = f.stats.snapshot();
    let t2 = f.tm.begin();
    f.tree.insert(&t2, &big_key("k", 3)).unwrap();
    f.tm.commit(&t2).unwrap();
    let delta = f.stats.snapshot().since(&before);
    assert!(
        delta.latches_tree_instant >= 1,
        "insert on a Delete_Bit page must establish a POSC: {delta:?}"
    );
    let g = f.pool.fix_s(leaf).unwrap();
    assert!(!g.delete_bit(), "the POSC insert resets the bit");
}

#[test]
fn boundary_key_delete_holds_tree_latch() {
    // Figure 7: deleting the smallest or largest key on a page takes the S
    // tree latch across the delete — verify by holding the X tree latch and
    // watching a boundary delete block while a middle delete proceeds.
    let f = fix(LockProtocol::DataOnly, false);
    let setup = f.tm.begin();
    for i in 0..8u32 {
        f.tree.insert(&setup, &big_key("k", i)).unwrap();
    }
    f.tm.commit(&setup).unwrap();

    let smo_latch = f.tree.hold_tree_latch_x();

    // Middle-key delete: no tree latch needed → completes.
    let h_mid = {
        let tm = f.tm.clone();
        let tree = f.tree.clone();
        std::thread::spawn(move || {
            let t = tm.begin();
            tree.delete(&t, &big_key("k", 3)).unwrap();
            tm.commit(&t).unwrap();
        })
    };
    h_mid.join().unwrap();

    // Boundary-key delete (smallest on the page): must wait for the latch.
    let h_edge = {
        let tm = f.tm.clone();
        let tree = f.tree.clone();
        std::thread::spawn(move || {
            let t = tm.begin();
            tree.delete(&t, &big_key("k", 0)).unwrap();
            tm.commit(&t).unwrap();
        })
    };
    std::thread::sleep(std::time::Duration::from_millis(80));
    assert!(
        !h_edge.is_finished(),
        "boundary-key delete must wait for the tree latch (POSC)"
    );
    drop(smo_latch);
    h_edge.join().unwrap();
    f.tree.check_structure().unwrap();
}

#[test]
fn crash_after_space_consumed_forces_logical_undo_with_split() {
    // The payoff of the whole Figure 11 machinery: T1's delete is undone at
    // restart after T2 consumed the freed space — the undo must go LOGICAL
    // and SPLIT the page (reason 1 of §3), and because every delete/insert
    // obeyed the bit protocol, the tree is structurally consistent when that
    // happens.
    //
    // Deterministic sizing: 611-byte values → 619-byte cells + 4-byte slots
    // = 623 bytes/key; 13 keys ≈ 8099 of the 8160-byte body, leaving 61
    // bytes — too little for a 14th key without the freed space.
    let f = fix(LockProtocol::DataOnly, false);
    let wide = |tag: &str, n: u32| {
        let mut v = format!("{tag}-");
        v.push_str(&"w".repeat(611 - v.len()));
        key(v, n)
    };
    let setup = f.tm.begin();
    for i in 0..13u32 {
        f.tree.insert(&setup, &wide(&format!("k{i:02}"), i)).unwrap();
    }
    f.tm.commit(&setup).unwrap();
    assert_eq!(f.stats.snapshot().smo_splits, 0, "setup fits on the root leaf");

    // T1 deletes k05 (middle key: no boundary tree latch, next-key lock on
    // k06 only). Never commits.
    let t1 = f.tm.begin();
    f.tree.delete(&t1, &wide("k05", 5)).unwrap();

    // T2 inserts between k02 and k03 — same leaf, far from T1's next-key
    // wall (which guards only the k05..k06 gap) — consuming the freed space.
    // Its Delete_Bit POSC dance is asserted by the first test in this file.
    let t2 = f.tm.begin();
    f.tree.insert(&t2, &wide("k02x", 100)).unwrap();
    f.tm.commit(&t2).unwrap();
    f.log.flush_all().unwrap();

    // Crash: reopen the same files with a fresh stack and run restart.
    drop(t1);
    let (f, outcome) = f.crash_and_restart(Obs::disabled());
    assert_eq!(outcome.losers.len(), 1, "T1 is the loser");

    let s = f.stats.snapshot();
    assert!(
        s.undo_logical >= 1,
        "re-inserting k05 cannot fit page-oriented: {s:?}"
    );
    assert!(
        s.smo_splits >= 1,
        "the logical undo had to split the leaf: {s:?}"
    );
    assert_eq!(s.redo_traversals, 0, "redo stayed page-oriented");
    // Final state: 13 original keys (k05 restored) + T2's committed key.
    let report = f.tree.check_structure().unwrap();
    assert_eq!(report.keys, 14);
    let keys = f.tree.scan_all_unlocked().unwrap();
    assert!(keys.iter().any(|k| k.value.starts_with(b"k05-")));
    assert!(keys.iter().any(|k| k.value.starts_with(b"k02x-")));
}
