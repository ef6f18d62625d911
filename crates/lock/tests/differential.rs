//! Differential test of the lock table: random single-threaded sequences
//! of conditional requests (every mode, every duration) and `release_all`,
//! over 3 transactions × 4 names of every kind, checked step by step
//! against a naive reference table — every `WouldBlock`, and afterwards
//! `holds`, `holds_duration` and `held_count` for every transaction and
//! name.
//!
//! Conditional requests never queue, so the reference is a flat list of
//! grants: a request is granted iff the target mode (`sup` of the held and
//! the requested mode, for a conversion) is compatible with every other
//! transaction's grant on the name; an instant grant is not recorded, so
//! every recorded grant is commit-duration.

use ariesim_common::stats::new_stats;
use ariesim_common::{Error, IndexId, PageId, Rid, TxnId};
use ariesim_lock::{LockDuration, LockManager, LockMode, LockName};
use proptest::prelude::*;

const TXNS: u64 = 3;
const MODES: [LockMode; 4] = [LockMode::IX, LockMode::S, LockMode::SIX, LockMode::X];
const DURATIONS: [LockDuration; 2] = [LockDuration::Instant, LockDuration::Commit];

fn names() -> [LockName; 4] {
    [
        LockName::Page(PageId(3)),
        LockName::Record(Rid::new(PageId(7), 0)),
        LockName::key_value(IndexId(1), b"k".to_vec()),
        LockName::Eof(IndexId(1)),
    ]
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Request(u64, usize, LockMode, LockDuration),
    ReleaseAll(u64),
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..8, 0..TXNS, 0usize..4, 0usize..MODES.len(), 0usize..DURATIONS.len()).prop_map(
        |(kind, t, n, m, d)| match kind {
            0 => Op::ReleaseAll(t),
            _ => Op::Request(t, n, MODES[m], DURATIONS[d]),
        },
    )
}

struct Grant {
    txn: u64,
    name: usize,
    mode: LockMode,
}

/// The naive reference table.
#[derive(Default)]
struct Reference {
    grants: Vec<Grant>,
}

impl Reference {
    fn find(&self, txn: u64, name: usize) -> Option<usize> {
        self.grants.iter().position(|g| g.txn == txn && g.name == name)
    }

    fn request(&mut self, txn: u64, name: usize, mode: LockMode, duration: LockDuration) -> bool {
        let held = self.find(txn, name);
        let target = held.map_or(mode, |i| self.grants[i].mode.sup(mode));
        let blocked = self
            .grants
            .iter()
            .any(|g| g.name == name && g.txn != txn && !target.compatible_with(g.mode));
        if blocked {
            return false;
        }
        match held {
            Some(i) => self.grants[i].mode = target,
            None if duration != LockDuration::Instant => self.grants.push(Grant { txn, name, mode }),
            None => {}
        }
        true
    }

    fn release_all(&mut self, txn: u64) {
        self.grants.retain(|g| g.txn != txn);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lock_table_matches_a_naive_reference(ops in collection::vec(op(), 1..80)) {
        let m = LockManager::new(new_stats(), ariesim_obs::Obs::disabled());
        let names = names();
        let mut reference = Reference::default();
        for (step, &op) in ops.iter().enumerate() {
            match op {
                Op::Request(t, n, mode, duration) => {
                    let got = m.request(TxnId(t), names[n].clone(), mode, duration, true);
                    let want = reference.request(t, n, mode, duration);
                    prop_assert!(
                        matches!((&got, want), (Ok(()), true) | (Err(Error::WouldBlock), false)),
                        "step {step} {op:?}: got {got:?}, reference granted {want}"
                    );
                }
                Op::ReleaseAll(t) => {
                    m.release_all(TxnId(t));
                    reference.release_all(t);
                }
            }
            for t in 0..TXNS {
                let held = reference.grants.iter().filter(|g| g.txn == t).count();
                prop_assert_eq!(m.held_count(TxnId(t)), held, "step {step} {op:?}: held_count of T{t}");
                for (n, name) in names.iter().enumerate() {
                    let want = reference.find(t, n).map(|i| &reference.grants[i]);
                    prop_assert_eq!(
                        m.holds(TxnId(t), name),
                        want.map(|g| g.mode),
                        "step {step} {op:?}: mode of T{t} on {name:?}"
                    );
                    prop_assert_eq!(
                        m.holds_duration(TxnId(t), name),
                        want.map(|_| LockDuration::Commit),
                        "step {step} {op:?}: duration of T{t} on {name:?}"
                    );
                }
            }
        }
        for t in 0..TXNS {
            m.release_all(TxnId(t));
        }
        prop_assert!(!m.has_waiters());
    }
}
