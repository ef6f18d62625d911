//! Shared rigs and workload drivers for the paper-claim harness.
//!
//! The `experiments` binary (`cargo run --release -p ariesim-bench --bin
//! experiments`) regenerates every figure/table reproduction listed in
//! EXPERIMENTS.md. Timing the engine is `benchmark/`'s job, not this crate's.

pub mod torture;

use ariesim_btree::{BTree, IndexRm, LockProtocol};
use ariesim_common::tmp::TempDir;
use ariesim_common::{Error, IndexId, IndexKey, PageId, Rid};
use ariesim_obs::ObsHandle;
use ariesim_recovery::RestartOutcome;
use ariesim_txn::Core;
use ariesim_wal::LogOptions;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A bare-index engine: a [`Core`] (reachable through `Deref`: `rig.tm`,
/// `rig.pool`, `rig.log`, `rig.locks`, `rig.stats`, `rig.obs`) plus one
/// B+-tree and no heap record manager — lock names are synthesized from key
/// RIDs, as data-only locking prescribes.
pub struct Rig {
    pub _dir: TempDir,
    pub core: Arc<Core>,
    pub tree: Arc<BTree>,
    frames: usize,
}

impl std::ops::Deref for Rig {
    type Target = Core;

    fn deref(&self) -> &Core {
        &self.core
    }
}

/// Build a rig over a fresh temporary directory, everything in it
/// reporting to `obs` (`Obs::disabled()` leaves only the always-on invariant
/// monitoring).
pub fn rig(protocol: LockProtocol, unique: bool, frames: usize, obs: ObsHandle) -> Rig {
    let dir = TempDir::new("rig");
    let core = Core::open(dir.path(), frames, LogOptions::default(), obs).unwrap();
    let txn = core.tm.begin();
    let root = BTree::create(&core, &txn, IndexId(1)).unwrap();
    core.tm.commit(&txn).unwrap();
    Rig::over(dir, core, root, unique, protocol, frames)
}

impl Rig {
    fn over(
        dir: TempDir,
        core: Arc<Core>,
        root: PageId,
        unique: bool,
        protocol: LockProtocol,
        frames: usize,
    ) -> Rig {
        let tree = BTree::open(&core, IndexId(1), root, unique, protocol, false);
        IndexRm::new(&core).unwrap().register_tree(tree.clone());
        Rig {
            _dir: dir,
            core,
            tree,
            frames,
        }
    }

    /// Crash and recover: drop every volatile structure without flushing
    /// anything, open a new core (reporting to `obs`) over the same
    /// directory, reopen the tree and run restart recovery. What survives is
    /// exactly {flushed log prefix, pages already on disk}.
    pub fn crash_and_restart(self, obs: ObsHandle) -> (Rig, RestartOutcome) {
        let Rig {
            _dir: dir,
            core,
            tree,
            frames,
        } = self;
        let (root, unique, protocol) = (tree.root, tree.unique, tree.protocol);
        drop((tree, core));
        let core = Core::open(dir.path(), frames, LogOptions::default(), obs).unwrap();
        let rig = Rig::over(dir, core, root, unique, protocol, frames);
        let outcome = ariesim_recovery::restart(&rig.core).unwrap();
        (rig, outcome)
    }
}

/// Deterministic key: `n` controls both value ordering and the fake RID.
pub fn nkey(n: u32) -> IndexKey {
    IndexKey::new(
        format!("key-{n:08}").into_bytes(),
        Rid::new(PageId(2_000_000 + n / 60), (n % 60) as u16),
    )
}

/// Key for duplicate-heavy workloads: `value` id + unique rid id.
pub fn dup_key(value: u32, rid: u32) -> IndexKey {
    IndexKey::new(
        format!("val-{value:05}").into_bytes(),
        Rid::new(PageId(3_000_000 + rid / 60), (rid % 60) as u16),
    )
}

/// Seed `n` sequential keys in one committed transaction.
pub fn seed(rig: &Rig, n: u32) {
    let txn = rig.tm.begin();
    for i in 0..n {
        rig.tree.insert(&txn, &nkey(i)).unwrap();
    }
    rig.tm.commit(&txn).unwrap();
}

/// Tiny xorshift for workload generation (no external RNG needed in the
/// harness hot loop).
pub struct XorShift(pub u64);

impl XorShift {
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    pub fn below(&mut self, n: u32) -> u32 {
        (self.next() % n as u64) as u32
    }
}

/// Knobs for the concurrency workload.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    pub threads: u32,
    pub duration: Duration,
    /// Percentage of operations that are fetches (rest split between insert
    /// and delete).
    pub read_pct: u32,
    /// Number of distinct key *values* the workload touches.
    pub values: u32,
    /// If true, writers insert/delete duplicates of shared values (each
    /// thread with its own RIDs) — the nonunique-index scenario where KVL's
    /// value locks serialize what ARIES/IM's key locks do not.
    pub duplicates: bool,
    /// Serialize every operation behind one global mutex (the coarse-grained
    /// "one big tree latch" strawman for the SMO-concurrency ablation; an
    /// external mutex is used so the real tree latch — which operations take
    /// internally for SMOs — is not re-entered).
    pub coarse_tree_latch: bool,
}

/// Result of a workload run.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadResult {
    pub committed_ops: u64,
    pub committed_txns: u64,
    pub deadlocks: u64,
    pub ops_per_sec: f64,
}

/// Drive the mixed workload and report throughput. Each thread owns a
/// disjoint RID space; reads roam the shared committed value range.
pub fn run_workload(r: &Rig, spec: WorkloadSpec) -> WorkloadResult {
    use ariesim_btree::fetch::FetchCond;
    // Seed: one committed instance of every value (rid namespace 9xx_xxx).
    let txn = r.tm.begin();
    for v in 0..spec.values {
        let k = if spec.duplicates {
            dup_key(v, 900_000 + v)
        } else {
            nkey(v * 1000)
        };
        r.tree.insert(&txn, &k).unwrap();
    }
    r.tm.commit(&txn).unwrap();

    let committed_ops = AtomicU64::new(0);
    let committed_txns = AtomicU64::new(0);
    let deadlocks = AtomicU64::new(0);
    let coarse = parking_lot::Mutex::new(());
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..spec.threads {
            let r = &r;
            let committed_ops = &committed_ops;
            let committed_txns = &committed_txns;
            let deadlocks = &deadlocks;
            let coarse = &coarse;
            s.spawn(move || {
                let mut rng = XorShift(0x9E37_79B9_7F4A_7C15 ^ (t as u64 + 1));
                let mut live: Vec<IndexKey> = Vec::new(); // my committed keys
                let mut seq = 0u32;
                while start.elapsed() < spec.duration {
                    let txn = r.tm.begin();
                    let mut ok = 0u64;
                    let mut aborted = false;
                    let mut added: Vec<IndexKey> = Vec::new();
                    let mut removed: Vec<usize> = Vec::new();
                    let _coarse = spec.coarse_tree_latch.then(|| coarse.lock());
                    for _ in 0..8 {
                        let roll = rng.below(100);
                        let res = if roll < spec.read_pct {
                            let v = rng.below(spec.values);
                            let value = if spec.duplicates {
                                dup_key(v, 0).value
                            } else {
                                nkey(v * 1000).value
                            };
                            r.tree.fetch(&txn, &value, FetchCond::Ge).map(|_| ())
                        } else if roll.is_multiple_of(2) || live.is_empty() {
                            // Insert a fresh key of mine.
                            seq += 1;
                            let k = if spec.duplicates {
                                dup_key(rng.below(spec.values), t * 1_000_000 + seq)
                            } else {
                                nkey(spec.values * 1000 + t * 10_000_000 + seq)
                            };
                            match r.tree.insert(&txn, &k) {
                                Ok(()) => {
                                    added.push(k);
                                    Ok(())
                                }
                                Err(e) => Err(e),
                            }
                        } else {
                            // Delete one of my committed keys.
                            let i = rng.below(live.len() as u32) as usize;
                            if removed.contains(&i) {
                                continue;
                            }
                            match r.tree.delete(&txn, &live[i]) {
                                Ok(()) => {
                                    removed.push(i);
                                    Ok(())
                                }
                                Err(e) => Err(e),
                            }
                        };
                        match res {
                            Ok(()) => ok += 1,
                            Err(Error::Deadlock { .. }) => {
                                deadlocks.fetch_add(1, Ordering::Relaxed);
                                r.tm.rollback(&txn).unwrap();
                                aborted = true;
                                break;
                            }
                            Err(Error::NotFound) => {}
                            Err(e) => panic!("workload: {e}"),
                        }
                    }
                    if !aborted {
                        r.tm.commit(&txn).unwrap();
                        committed_ops.fetch_add(ok, Ordering::Relaxed);
                        committed_txns.fetch_add(1, Ordering::Relaxed);
                        removed.sort_unstable_by(|a, b| b.cmp(a));
                        for i in removed {
                            live.swap_remove(i);
                        }
                        live.extend(added);
                    }
                }
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let ops = committed_ops.load(Ordering::Relaxed);
    WorkloadResult {
        committed_ops: ops,
        committed_txns: committed_txns.load(Ordering::Relaxed),
        deadlocks: deadlocks.load(Ordering::Relaxed),
        ops_per_sec: ops as f64 / elapsed,
    }
}

/// Pretty-print a named table row.
pub fn row(label: &str, cells: &[String]) {
    print!("{label:<26}");
    for c in cells {
        print!(" {c:>12}");
    }
    println!();
}
