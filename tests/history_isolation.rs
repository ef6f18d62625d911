//! The isolation claim checked on histories (the paper's §1 and §2.2–2.6):
//! next-key locking gives serializable transactions with repeatable read and
//! no phantoms, under every locking protocol.
//!
//! Four threads run a seeded random mix through [`Db`] on one table with a
//! unique key index and a nonunique secondary index on a low-cardinality
//! column: point fetches (found and not found, `=` and `>=`), 20-key range
//! scans, reads of every duplicate of one secondary value, inserts into gaps
//! (a key already present must answer `UniqueViolation`) and deletes (a key
//! absent answers not-found). Keys are padded so that leaves hold few of
//! them, and the pool is tiny, so splits, page deletes and evictions race
//! the transactions.
//!
//! Each transaction records every answer it got. Just before `commit`,
//! while it still holds every commit-duration lock, it draws its number
//! from one atomic counter. Under strict two-phase locking that order is a
//! serialization order, so replaying the committed transactions in it
//! against a `BTreeMap` must reproduce every recorded answer. Deadlock
//! victims are rolled back and dropped. A disagreement prints the seed, the
//! first transaction whose answer differs from the replay, and, for each
//! key on which they differ, the committed writers of that key closest
//! before and after it: the smallest set of transactions whose order the
//! answer contradicts.

use ariesim::btree::LockProtocol;
use ariesim::common::tmp::TempDir;
use ariesim::common::Error;
use ariesim::db::{Db, DbOptions, FetchCond, Row};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

const THREADS: usize = 4;
/// Keys are `0..KEYS`; half of them are present at the start.
const KEYS: u32 = 160;
/// Distinct values of the secondary column.
const VALUES: u32 = 4;
/// Keys a range scan covers.
const SCAN: u32 = 20;
/// Pool frames: small enough that pages keep being evicted.
const FRAMES: usize = 24;
/// Transactions per thread, and seeds `1..=SEEDS` per protocol (a debug
/// build runs a fraction of the release budget).
const TXNS: usize = if cfg!(debug_assertions) { 100 } else { 1_500 };
const SEEDS: u64 = if cfg!(debug_assertions) { 1 } else { 12 };

/// Padding that makes each index key nearly 1 KiB long: a leaf holds a few
/// keys, so leaves split and empty often.
const PAD: usize = 900;

fn pk(n: u32) -> Vec<u8> {
    format!("k{n:04}{}", ".".repeat(PAD)).into_bytes()
}

fn sec(v: u32) -> Vec<u8> {
    format!("v{v}{}", ".".repeat(PAD)).into_bytes()
}

fn row(n: u32, v: u32) -> Row {
    Row::new(vec![pk(n), sec(v)])
}

/// The (key, value) numbers a stored row encodes.
fn decode(row: &Row) -> (u32, u32) {
    let num = |f: &[u8]| -> u32 {
        let digits: String = f[1..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .map(|&b| b as char)
            .collect();
        digits.parse().unwrap()
    };
    (num(&row.fields[0]), num(&row.fields[1]))
}

/// splitmix64: a seeded, dependency-free generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u32) -> u32 {
        (self.next() % u64::from(n)) as u32
    }
}

/// One operation and the answer the engine gave it.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Op {
    /// Point fetch `= key`: the row found, if any.
    Get(u32, Option<(u32, u32)>),
    /// Point fetch `>= key`: the first row at or after it, if any.
    GetGe(u32, Option<(u32, u32)>),
    /// Range scan over keys `[from, from + SCAN)`.
    Scan(u32, Vec<(u32, u32)>),
    /// Every key whose secondary value is `v`, through the secondary index.
    Dups(u32, BTreeSet<u32>),
    /// Insert (key, value): `true` if inserted, `false` on `UniqueViolation`.
    Insert(u32, u32, bool),
    /// Delete key: `true` if it was there and is deleted, `false` if absent.
    Delete(u32, bool),
}

impl Op {
    /// The answer a serial execution on `state` gives, applying its write.
    fn replay(&self, state: &mut BTreeMap<u32, u32>) -> Op {
        let row = |(&k, &v): (&u32, &u32)| (k, v);
        match *self {
            Op::Get(k, _) => Op::Get(k, state.get_key_value(&k).map(row)),
            Op::GetGe(k, _) => Op::GetGe(k, state.range(k..).next().map(row)),
            Op::Scan(k, _) => Op::Scan(k, state.range(k..k + SCAN).map(row).collect()),
            Op::Dups(v, _) => Op::Dups(
                v,
                state.iter().filter(|e| *e.1 == v).map(|e| *e.0).collect(),
            ),
            Op::Insert(k, v, _) => {
                let fresh = !state.contains_key(&k);
                if fresh {
                    state.insert(k, v);
                }
                Op::Insert(k, v, fresh)
            }
            Op::Delete(k, _) => Op::Delete(k, state.remove(&k).is_some()),
        }
    }

    /// The key this operation writes, if it wrote one.
    fn written(&self) -> Option<u32> {
        match *self {
            Op::Insert(k, _, true) | Op::Delete(k, true) => Some(k),
            _ => None,
        }
    }

    /// The keys on which two answers to the same operation differ.
    fn differing_keys(&self, other: &Op) -> BTreeSet<u32> {
        let rows = |op: &Op| -> BTreeSet<(u32, Option<u32>)> {
            match op {
                Op::Get(k, r) | Op::GetGe(k, r) => match r {
                    Some((k, v)) => [(*k, Some(*v))].into(),
                    None => [(*k, None)].into(),
                },
                Op::Scan(_, rows) => rows.iter().map(|&(k, v)| (k, Some(v))).collect(),
                Op::Dups(_, keys) => keys.iter().map(|&k| (k, None)).collect(),
                Op::Insert(k, _, _) | Op::Delete(k, _) => [(*k, None)].into(),
            }
        };
        let (a, b) = (rows(self), rows(other));
        let mut keys: BTreeSet<u32> = a.symmetric_difference(&b).map(|e| e.0).collect();
        if keys.is_empty() {
            // Same rows, different outcome (an insert's or delete's flag).
            keys.extend(a.iter().map(|e| e.0));
        }
        keys
    }
}

/// A committed transaction: the thread that ran it and its answers.
#[derive(Debug)]
struct Txn {
    thread: usize,
    ops: Vec<Op>,
}

/// Run one operation, recording its answer. `Err`: the transaction must be
/// rolled back (it was chosen as a deadlock victim).
fn run_op(db: &Db, txn: &ariesim::txn::TxnHandle, rng: &mut Rng) -> Result<Op, Error> {
    let k = rng.below(KEYS);
    Ok(match rng.below(100) {
        0..=24 => Op::Get(
            k,
            db.fetch_via(txn, "pk", &pk(k), FetchCond::Eq)?
                .map(|(_, r)| decode(&r)),
        ),
        25..=34 => Op::GetGe(
            k,
            db.fetch_via(txn, "pk", &pk(k), FetchCond::Ge)?
                .map(|(_, r)| decode(&r)),
        ),
        35..=49 => Op::Scan(
            k,
            db.scan_range(txn, "pk", &pk(k), &pk(k + SCAN))?
                .iter()
                .map(|(_, r)| decode(r))
                .collect(),
        ),
        50..=59 => {
            let v = rng.below(VALUES);
            let to = format!("v{}", v + 1).into_bytes();
            let rows = db.scan_range(txn, "sec", &sec(v), &to)?;
            Op::Dups(v, rows.iter().map(|(_, r)| decode(r).0).collect())
        }
        60..=84 => {
            let v = rng.below(VALUES);
            let sp = db.savepoint(txn);
            match db.insert_row(txn, "t", &row(k, v)) {
                Ok(_) => Op::Insert(k, v, true),
                Err(Error::UniqueViolation) => {
                    // The heap row (and any secondary key) went in first.
                    db.rollback_to(txn, sp)?;
                    Op::Insert(k, v, false)
                }
                Err(e) => return Err(e),
            }
        }
        _ => match db.fetch_via(txn, "pk", &pk(k), FetchCond::Eq)? {
            Some((rid, _)) => {
                db.delete_row(txn, "t", rid)?;
                Op::Delete(k, true)
            }
            None => Op::Delete(k, false),
        },
    })
}

/// Run the mix under `protocol` with `seed`; return the initial state and
/// the committed transactions in counter order (with the engine, still
/// open, and its directory).
fn run(
    protocol: LockProtocol,
    seed: u64,
) -> (BTreeMap<u32, u32>, Vec<Txn>, std::sync::Arc<Db>, TempDir) {
    let dir = TempDir::new("history");
    let opts = DbOptions {
        frames: FRAMES,
        protocol,
        ..DbOptions::default()
    };
    let db = Db::open(dir.path(), opts).unwrap();
    db.create_table("t", 2).unwrap();
    db.create_index("pk", "t", 0, true).unwrap();
    db.create_index("sec", "t", 1, false).unwrap();
    let mut init = BTreeMap::new();
    let mut rng = Rng(seed);
    let setup = db.begin();
    for k in (0..KEYS).step_by(2) {
        let v = rng.below(VALUES);
        db.insert_row(&setup, "t", &row(k, v)).unwrap();
        init.insert(k, v);
    }
    db.commit(&setup).unwrap();

    let counter = AtomicU64::new(0);
    let history = Mutex::new(BTreeMap::new());
    // An unexpected error stops every thread: its transaction may hold
    // locks the others would wait for.
    let stop = AtomicBool::new(false);
    let failures: Vec<String> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..THREADS)
            .map(|t| {
                let (db, counter, history, stop) = (&db, &counter, &history, &stop);
                s.spawn(move || {
                    let mut rng = Rng(seed.wrapping_mul(1_000_003) ^ (t as u64 + 1) << 32);
                    for _ in 0..TXNS {
                        // ordering: a flag polled between transactions.
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let txn = db.begin();
                        let n_ops = 1 + rng.below(4);
                        let ops: Result<Vec<Op>, Error> =
                            (0..n_ops).map(|_| run_op(db, &txn, &mut rng)).collect();
                        match ops {
                            Ok(ops) => {
                                // ordering: the counter is the only shared
                                // state; the locks held until commit order
                                // the draws.
                                let n = counter.fetch_add(1, Ordering::SeqCst);
                                db.commit(&txn).unwrap();
                                history.lock().unwrap().insert(n, Txn { thread: t, ops });
                            }
                            Err(Error::Deadlock { .. }) => db.rollback(&txn).unwrap(),
                            Err(e) => {
                                stop.store(true, Ordering::Relaxed);
                                let _ = db.rollback(&txn);
                                return Err(format!("thread {t}: unexpected {e:?}"));
                            }
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        threads.into_iter().filter_map(|h| h.join().unwrap().err()).collect()
    });
    assert!(failures.is_empty(), "{protocol:?}, seed {seed}: {failures:?}");
    let history = history.into_inner().unwrap().into_values().collect();
    (init, history, db, dir)
}

/// Replay `history` in order from `init`; on the first disagreement, panic
/// with the seed and the transactions involved. Returns the final state.
fn check(
    protocol: LockProtocol,
    seed: u64,
    init: &BTreeMap<u32, u32>,
    history: &[Txn],
) -> BTreeMap<u32, u32> {
    let mut state = init.clone();
    for (i, txn) in history.iter().enumerate() {
        for (j, op) in txn.ops.iter().enumerate() {
            let expected = op.replay(&mut state);
            if expected == *op {
                continue;
            }
            let keys = op.differing_keys(&expected);
            let mut report = format!(
                "{protocol:?}, seed {seed}: transaction #{i} (thread {}) op {j} answered\n  \
                 {op:?}\nbut the serial replay in commit-counter order answers\n  {expected:?}\n\
                 transaction #{i}: {:?}\n",
                txn.thread, txn.ops
            );
            for k in keys {
                let writes = |t: &(usize, &Txn)| t.1.ops.iter().any(|o| o.written() == Some(k));
                let before = history[..i].iter().enumerate().rev().find(|t| writes(t));
                let after = history.iter().enumerate().skip(i + 1).find(|t| writes(t));
                for (label, t) in [("last writer before", before), ("first writer after", after)] {
                    if let Some((n, t)) = t {
                        report += &format!(
                            "key {k}: {label}: transaction #{n} (thread {}): {:?}\n",
                            t.thread, t.ops
                        );
                    }
                }
            }
            panic!("{report}");
        }
    }
    state
}

fn history_is_serializable(protocol: LockProtocol) {
    for seed in 1..=SEEDS {
        let (init, history, db, _dir) = run(protocol, seed);
        assert!(
            history.len() > THREADS * TXNS / 2,
            "{protocol:?}, seed {seed}: only {} of {} transactions committed",
            history.len(),
            THREADS * TXNS
        );
        let state = check(protocol, seed, &init, &history);
        // The table as it stands matches the replay's final state.
        let txn = db.begin();
        let rows = db.scan_range(&txn, "pk", &pk(0), &pk(KEYS)).unwrap();
        db.commit(&txn).unwrap();
        let stored: BTreeMap<u32, u32> = rows.iter().map(|(_, r)| decode(r)).collect();
        assert_eq!(stored, state, "{protocol:?}, seed {seed}: final table");
        db.verify_consistency().unwrap();
    }
}

#[test]
fn history_is_serializable_data_only() {
    history_is_serializable(LockProtocol::DataOnly);
}

#[test]
fn history_is_serializable_index_specific() {
    history_is_serializable(LockProtocol::IndexSpecific);
}

#[test]
fn history_is_serializable_key_value() {
    history_is_serializable(LockProtocol::KeyValue);
}
