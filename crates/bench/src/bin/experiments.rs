//! The experiment harness: regenerates every figure/table reproduction of
//! the ARIES/IM paper. Each subcommand prints the paper's claim and the
//! measured result; EXPERIMENTS.md records a reference run.
//!
//! ```sh
//! cargo run --release -p ariesim-bench --bin experiments -- all
//! cargo run --release -p ariesim-bench --bin experiments -- fig2
//! ```

use ariesim_bench::{nkey, row, run_workload, seed, Rig, WorkloadSpec};
use ariesim_btree::fetch::FetchCond;
use ariesim_btree::LockProtocol;
use ariesim_common::stats::StatsSnapshot;
use ariesim_common::Lsn;
use ariesim_lock::{LockDuration, LockMode, LockName};
use ariesim_obs::{Obs, ObsHandle};
use ariesim_wal::RecordKind;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The one observability domain every rig of the run shares: enabled with
/// `--obs`, disabled otherwise. Its monitor (latch protocol and WAL rule)
/// is live either way, and the run exits 1 if it saw a violation.
static OBS: OnceLock<ObsHandle> = OnceLock::new();

fn obs_handle() -> ObsHandle {
    OBS.get().expect("set at the top of main").clone()
}

/// Build a rig wired to the run's observability domain (if any).
fn rig(protocol: LockProtocol, unique: bool, frames: usize) -> Rig {
    ariesim_bench::rig(protocol, unique, frames, obs_handle())
}

/// With `--obs`, print the observability report after an experiment, then
/// clear the spans and counters so the next experiment gets a fresh
/// window. Monitor counters persist across the run by design.
fn obs_report() {
    let obs = obs_handle();
    if obs.on() {
        println!("--- observability report");
        print!("{}", obs.render_report());
        obs.reset();
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let with_obs = args.iter().any(|a| a == "--obs");
    args.retain(|a| a != "--obs");
    let obs = if with_obs {
        Obs::enabled(4096)
    } else {
        Obs::disabled()
    };
    OBS.set(obs).ok();
    let cmd = args.first().cloned().unwrap_or_else(|| "all".into());
    let t0 = Instant::now();
    match cmd.as_str() {
        "fig2" => fig2(),
        "fig1" => fig1(),
        "fig3" => fig3(),
        "fig9" => fig9(),
        "fig10" => fig10(),
        "fig11" => fig11(),
        "locks" => locks(),
        "concurrency" => concurrency(),
        "recovery" => recovery(),
        "deadlocks" => deadlocks(),
        "latchcost" => latchcost(),
        "smo" => smo_ablation(),
        "all" => {
            for f in [
                fig2 as fn(),
                fig1,
                fig3,
                fig9,
                fig10,
                fig11,
                locks,
                concurrency,
                recovery,
                deadlocks,
                latchcost,
                smo_ablation,
            ] {
                f();
                obs_report();
                println!();
            }
        }
        other => {
            eprintln!("unknown experiment {other}");
            eprintln!("try: fig2 fig1 fig3 fig9 fig10 fig11 locks concurrency recovery deadlocks latchcost smo all");
            eprintln!("add --obs for per-span latency histograms and latch/WAL-rule invariant reports");
            std::process::exit(2);
        }
    }
    if cmd != "all" {
        obs_report();
    }
    eprintln!("[{} done in {:.2?}]", cmd, t0.elapsed());
    let m = obs_handle().monitor.snapshot();
    if !m.clean() {
        eprintln!("monitor VIOLATED: {m:?}");
        std::process::exit(1);
    }
}

fn header(title: &str, claim: &str) {
    println!("==== {title}");
    println!("paper: {claim}");
}

// --- E1: Figure 2 -----------------------------------------------------------

fn fig2() {
    header(
        "E1 / Figure 2 — locking table",
        "fetch: S commit on current key; insert: X instant on next key \
         (+X commit current iff index-specific); delete: X commit on next key \
         (+X instant current iff index-specific)",
    );
    for protocol in [LockProtocol::DataOnly, LockProtocol::IndexSpecific] {
        let r = rig(protocol, false, 256);
        seed(&r, 50);
        println!("--- protocol {protocol:?}");
        // fetch
        let txn = r.tm.begin();
        r.tree.fetch(&txn, &nkey(10).value, FetchCond::Eq).unwrap();
        let cur = r.tree.lock_name_of(&nkey(10));
        println!(
            "  fetch   current: mode={:?} duration={:?}",
            r.locks.holds(txn.id, &cur).unwrap(),
            r.locks.holds_duration(txn.id, &cur).unwrap()
        );
        r.tm.commit(&txn).unwrap();
        // insert
        r.stats.reset();
        let txn = r.tm.begin();
        r.tree.insert(&txn, &nkey(1_000_001)).unwrap();
        let s = r.stats.snapshot();
        println!(
            "  insert  next-key locks={} instant={} | current held: {:?}",
            s.locks_next_key,
            s.locks_instant,
            r.locks
                .holds(txn.id, &r.tree.lock_name_of(&nkey(1_000_001)))
                .map(|m| format!("{m:?} commit"))
                .unwrap_or_else(|| "none (record manager's job)".into()),
        );
        r.tm.commit(&txn).unwrap();
        // delete
        r.stats.reset();
        let txn = r.tm.begin();
        r.tree.delete(&txn, &nkey(10)).unwrap();
        let next = r.tree.lock_name_of(&nkey(11));
        println!(
            "  delete  next key: mode={:?} duration={:?}",
            r.locks.holds(txn.id, &next).unwrap(),
            r.locks.holds_duration(txn.id, &next).unwrap()
        );
        r.tm.commit(&txn).unwrap();
    }
}

// --- E2: Figure 1 ---------------------------------------------------------------

fn fig1() {
    header(
        "E2 / Figure 1 — logical undo after an intervening split",
        "undo of T1's insert must re-traverse (K8 moved to another page); \
         the CLR is logged against the new page",
    );
    let r = rig(LockProtocol::DataOnly, false, 256);
    seed(&r, 330);
    let t1 = r.tm.begin();
    let k8 = nkey(90_000_000);
    r.tree.insert(&t1, &k8).unwrap();
    let p1 = r.tree.leaf_for_value(&k8.value).unwrap();
    let t2 = r.tm.begin();
    let mut i = 0;
    while r.stats.snapshot().smo_splits == 0 {
        r.tree.insert(&t2, &nkey(500 + i)).unwrap();
        i += 1;
    }
    r.tm.commit(&t2).unwrap();
    let p2 = r.tree.leaf_for_value(&k8.value).unwrap();
    let before = r.stats.snapshot();
    r.tm.rollback(&t1).unwrap();
    let d = r.stats.snapshot().since(&before);
    println!("  K8 inserted on {p1}, split moved it to {p2}");
    println!(
        "  rollback: logical undos={} page-oriented undos={}",
        d.undo_logical, d.undo_page_oriented
    );
    println!("  K8 present after rollback: {}", r
        .tree
        .scan_all_unlocked()
        .unwrap()
        .contains(&k8));
}

// --- E3: Figure 3 --------------------------------------------------------------

fn fig3() {
    header(
        "E3 / Figure 3 — modification waits for an unfinished SMO",
        "an insert on a leaf with SM_Bit=1 delays until the SMO completes; \
         retrievals proceed",
    );
    let r = rig(LockProtocol::DataOnly, false, 256);
    seed(&r, 20);
    let leaf = r.tree.leaf_for_value(&nkey(5).value).unwrap();
    r.tree.set_page_bits_for_test(leaf, Some(true), None).unwrap();
    let latch = r.tree.hold_tree_latch_x();
    let t_insert = Instant::now();
    let h = {
        let tm = r.tm.clone();
        let tree = r.tree.clone();
        std::thread::spawn(move || {
            let txn = tm.begin();
            tree.insert(&txn, &nkey(1_000_000)).unwrap();
            tm.commit(&txn).unwrap();
            t_insert.elapsed()
        })
    };
    // Fetch proceeds concurrently.
    let t_fetch = Instant::now();
    let txn = r.tm.begin();
    r.tree.fetch(&txn, &nkey(5).value, FetchCond::Eq).unwrap();
    r.tm.commit(&txn).unwrap();
    let fetch_time = t_fetch.elapsed();
    std::thread::sleep(Duration::from_millis(100));
    drop(latch);
    let insert_wait = h.join().unwrap();
    println!("  fetch during SMO: {fetch_time:?} (not blocked)");
    println!("  insert during SMO: {insert_wait:?} (blocked ≈100ms until SMO end)");
}

// --- E5/E6: Figures 9, 10 -----------------------------------------------------

fn fig9() {
    header(
        "E5 / Figure 9 — page split log sequence",
        "[SMO records][dummy CLR → pre-SMO LSN][key insert]; rollback undoes \
         the insert, never the split",
    );
    let r = rig(LockProtocol::DataOnly, false, 256);
    seed(&r, 330);
    let t1 = r.tm.begin();
    let mut i = 0;
    while r.stats.snapshot().smo_splits == 0 {
        r.tree.insert(&t1, &nkey(1_000 + 2 * i)).unwrap();
        i += 1;
    }
    print_txn_log(&r, t1.id);
    let leaves = r.tree.check_structure().unwrap().leaves;
    r.tm.rollback(&t1).unwrap();
    let after = r.tree.check_structure().unwrap();
    println!(
        "  after rollback: keys={} (inserts undone) leaves={} (split kept: {})",
        after.keys,
        after.leaves,
        after.leaves == leaves
    );
}

fn fig10() {
    header(
        "E6 / Figure 10 — page deletion log sequence",
        "[key delete][SMO records][dummy CLR → key-delete LSN]; rollback \
         skips the SMO but undoes the delete",
    );
    let r = rig(LockProtocol::DataOnly, false, 256);
    seed(&r, 700);
    let t1 = r.tm.begin();
    let mut i = 0;
    while r.stats.snapshot().smo_page_deletes == 0 {
        r.tree.delete(&t1, &nkey(i)).unwrap();
        i += 1;
    }
    print_txn_log(&r, t1.id);
    r.tm.rollback(&t1).unwrap();
    let after = r.tree.check_structure().unwrap();
    println!("  after rollback: keys={} (all deletes undone)", after.keys);
}

fn print_txn_log(r: &Rig, txn: ariesim_common::TxnId) {
    use ariesim_btree::body::IndexBody;
    use ariesim_wal::RmId;
    println!("  transaction log tail:");
    let recs: Vec<_> = r
        .log
        .scan(Lsn::NULL)
        .map(|x| x.unwrap())
        .filter(|x| x.txn == txn)
        .collect();
    for rec in recs.iter().rev().take(12).collect::<Vec<_>>().iter().rev() {
        let what = match (rec.kind, rec.rm) {
            (RecordKind::DummyClr, _) => {
                format!("DummyCLR   undo_next={:?}", rec.undo_next_lsn)
            }
            (RecordKind::Update, RmId::Index) => {
                let b = IndexBody::decode(&rec.body).unwrap();
                let name = match b {
                    IndexBody::InsertKey { .. } => "InsertKey",
                    IndexBody::DeleteKey { .. } => "DeleteKey",
                    IndexBody::PageFormat { .. } => "PageFormat",
                    IndexBody::SplitShrink { .. } => "SplitShrink",
                    IndexBody::ChainNext { .. } => "ChainNext",
                    IndexBody::ChainPrev { .. } => "ChainPrev",
                    IndexBody::AddSeparator { .. } => "AddSeparator",
                    IndexBody::RemoveSeparator { .. } => "RemoveSeparator",
                    IndexBody::FreePage { .. } => "FreePage",
                    IndexBody::RootReplace { .. } => "RootReplace",
                    IndexBody::RootCollapse { .. } => "RootCollapse",
                    IndexBody::PageRestore { .. } => "PageRestore",
                };
                format!("{name:<11}page={:?}", rec.page)
            }
            (RecordKind::Update, RmId::Space) => format!("SpaceMap   page={:?}", rec.page),
            (k, _) => format!("{k:?}"),
        };
        println!("    {:?}  {what}", rec.lsn);
    }
}

// --- E7: Figure 11 -------------------------------------------------------------

fn fig11() {
    header(
        "E7 / Figure 11 — Delete_Bit / POSC protection",
        "an insert consuming space freed by an uncommitted delete first \
         establishes a POSC (instant S tree latch); restart undo of the \
         delete can then safely go logical (split) on a consistent tree",
    );
    let r = rig(LockProtocol::DataOnly, false, 256);
    seed(&r, 8);
    let t1 = r.tm.begin();
    r.tree.delete(&t1, &nkey(3)).unwrap();
    let leaf = r.tree.leaf_for_value(&nkey(4).value).unwrap();
    let bit = {
        let g = r.pool.fix_s(leaf).unwrap();
        g.delete_bit()
    };
    println!("  Delete_Bit after T1's delete: {bit}");
    r.tm.commit(&t1).unwrap();
    let before = r.stats.snapshot();
    let t2 = r.tm.begin();
    r.tree.insert(&t2, &nkey(3)).unwrap();
    r.tm.commit(&t2).unwrap();
    let d = r.stats.snapshot().since(&before);
    println!(
        "  T2's insert established POSC: instant tree latches={} (bit now {})",
        d.latches_tree_instant,
        {
            let g = r.pool.fix_s(leaf).unwrap();
            g.delete_bit()
        }
    );
    println!("  (see tests/fig11_delete_bit.rs for the full crash scenario)");
}

// --- E8: lock counts --------------------------------------------------------------

fn locks() {
    header(
        "E8 — index-manager locks per operation (§1, §5)",
        "ARIES/IM data-only acquires the minimal number of locks: the record \
         lock doubles as the key lock; KVL/index-specific add current-key locks",
    );
    println!(
        "{:<26} {:>12} {:>12} {:>12} {:>12}",
        "protocol", "fetch", "insert", "delete", "scan100"
    );
    for (name, protocol) in [
        ("IM data-only", LockProtocol::DataOnly),
        ("IM index-specific", LockProtocol::IndexSpecific),
        ("ARIES/KVL", LockProtocol::KeyValue),
    ] {
        let r = rig(protocol, false, 512);
        seed(&r, 2000);
        let per_op = |f: &dyn Fn(&Rig)| -> f64 {
            r.stats.reset();
            f(&r);
            r.stats.snapshot().locks_acquired as f64 / 100.0
        };
        let fetch = per_op(&|r| {
            let txn = r.tm.begin();
            for i in 0..100 {
                r.tree.fetch(&txn, &nkey(i * 17 % 2000).value, FetchCond::Eq).unwrap();
            }
            r.tm.commit(&txn).unwrap();
        });
        let insert = per_op(&|r| {
            let txn = r.tm.begin();
            for i in 0..100 {
                r.tree.insert(&txn, &nkey(3000 + i)).unwrap();
            }
            r.tm.commit(&txn).unwrap();
        });
        let delete = per_op(&|r| {
            let txn = r.tm.begin();
            for i in 0..100 {
                r.tree.delete(&txn, &nkey(3000 + i)).unwrap();
            }
            r.tm.commit(&txn).unwrap();
        });
        let scan = {
            r.stats.reset();
            let txn = r.tm.begin();
            let (first, cursor) = r.tree.open_scan(&txn, &nkey(100).value, FetchCond::Ge).unwrap();
            let mut cur = cursor.unwrap();
            let mut n = usize::from(first.is_some());
            while n < 100 {
                if r.tree.fetch_next(&txn, &mut cur).unwrap().is_none() {
                    break;
                }
                n += 1;
            }
            r.tm.commit(&txn).unwrap();
            r.stats.snapshot().locks_acquired as f64
        };
        row(
            name,
            &[
                format!("{fetch:.2}"),
                format!("{insert:.2}"),
                format!("{delete:.2}"),
                format!("{scan:.0}"),
            ],
        );
    }
}

// --- E9: concurrency --------------------------------------------------------------

fn concurrency() {
    header(
        "E9 — throughput vs threads (§1, §5)",
        "IM individual-key locks beat KVL value locks, decisively so on \
         duplicate-heavy workloads; both beat a coarse tree latch",
    );
    let dur = Duration::from_millis(400);
    for (wl, duplicates) in [("uniform keys", false), ("duplicate-heavy", true)] {
        println!("--- workload: {wl} (committed ops/sec)");
        println!(
            "{:<26} {:>12} {:>12} {:>12} {:>12}",
            "protocol", "1 thread", "2", "4", "8"
        );
        for (name, protocol, coarse) in [
            ("IM data-only", LockProtocol::DataOnly, false),
            ("IM index-specific", LockProtocol::IndexSpecific, false),
            ("ARIES/KVL", LockProtocol::KeyValue, false),
            ("coarse tree latch", LockProtocol::DataOnly, true),
        ] {
            let mut cells = Vec::new();
            for threads in [1u32, 2, 4, 8] {
                let r = rig(protocol, false, 2048);
                let res = run_workload(
                    &r,
                    WorkloadSpec {
                        threads,
                        duration: dur,
                        read_pct: 60,
                        values: 64,
                        duplicates,
                        coarse_tree_latch: coarse,
                    },
                );
                cells.push(format!("{:.0}", res.ops_per_sec));
            }
            row(name, &cells);
        }
    }
}

// --- E10: recovery ---------------------------------------------------------------

fn recovery() {
    header(
        "E10 — restart recovery (§3)",
        "redo always page-oriented (0 traversals); undo page-oriented \
         whenever possible; work bounded by the checkpoint",
    );
    println!(
        "{:<26} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "scenario", "redo recs", "pages read", "redo trav", "undo p-o", "undo logical"
    );
    for (name, committed, inflight, ckpt) in [
        ("1k committed", 1000u32, 0u32, false),
        ("1k + 200 in-flight", 1000, 200, false),
        ("same, with checkpoint", 1000, 200, true),
    ] {
        let r = rig(LockProtocol::DataOnly, false, 4096);
        seed(&r, committed);
        if ckpt {
            r.pool.flush_all().unwrap();
            r.tm.checkpoint().unwrap();
        }
        let loser = r.tm.begin();
        for i in 0..inflight {
            r.tree.insert(&loser, &nkey(1_000_000 + i)).unwrap();
        }
        r.log.flush_all().unwrap();
        drop(loser);
        let (r, _) = r.crash_and_restart(obs_handle());
        let s: StatsSnapshot = r.stats.snapshot();
        row(
            name,
            &[
                format!("{}", s.redo_records_seen),
                format!("{}", s.restart_page_reads),
                format!("{}", s.redo_traversals),
                format!("{}", s.undo_page_oriented),
                format!("{}", s.undo_logical),
            ],
        );
        r.tree.check_structure().unwrap();
    }
}

// --- E11: deadlocks ------------------------------------------------------------

fn deadlocks() {
    header(
        "E11 — deadlock behaviour (§4)",
        "no deadlocks involve latches (workload always completes); victims \
         are lock-level requesters; rollbacks never deadlock",
    );
    let r = rig(LockProtocol::DataOnly, false, 2048);
    let res = run_workload(
        &r,
        WorkloadSpec {
            threads: 8,
            duration: Duration::from_millis(500),
            read_pct: 20,
            values: 16, // tiny keyspace: heavy next-key contention
            duplicates: false,
            coarse_tree_latch: false,
        },
    );
    println!(
        "  8 threads, hot keyspace: {} ops committed, {} lock deadlocks, 0 hangs",
        res.committed_ops, res.deadlocks
    );
    println!(
        "  latch waits observed: page={} tree={} — all transient",
        r.stats.snapshot().latch_page_waits,
        r.stats.snapshot().latch_tree_waits
    );
    r.tree.check_structure().unwrap();
}

// --- E12: latch vs lock cost ---------------------------------------------------

fn latchcost() {
    header(
        "E12 — latch vs lock pathlength (§3, §5)",
        "acquiring a latch costs tens of instructions vs hundreds for a lock",
    );
    // Pathlength, not tracing: the rig's observability is off, `--obs` or
    // not (on, it would add a span to every fix). The two loops run in
    // alternating blocks and each side's median block is compared, so a
    // slow spell of the host falls on both sides.
    let r = ariesim_bench::rig(LockProtocol::DataOnly, false, 256, Obs::disabled());
    seed(&r, 1);
    let page = r.tree.leaf_for_value(&nkey(0).value).unwrap();
    let txn = r.tm.begin();
    let name = LockName::Record(nkey(0).rid);
    const BLOCKS: usize = 21;
    const N: u32 = 10_000;
    fn per_op(mut op: impl FnMut()) -> f64 {
        let t = Instant::now();
        for _ in 0..N {
            op();
        }
        t.elapsed().as_nanos() as f64 / f64::from(N)
    }
    let (mut latch, mut lock) = (Vec::new(), Vec::new());
    for _ in 0..BLOCKS {
        latch.push(per_op(|| {
            let g = r.pool.fix_s(page).unwrap();
            std::hint::black_box(&*g);
        }));
        lock.push(per_op(|| {
            r.locks
                .request(txn.id, name.clone(), LockMode::S, LockDuration::Commit, false)
                .unwrap();
            r.locks.release_all(txn.id);
        }));
    }
    r.tm.commit(&txn).unwrap();
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let (latch_ns, lock_ns) = (median(latch), median(lock));
    let bare = parking_lot::RwLock::new(());
    let bare_ns = per_op(|| drop(std::hint::black_box(bare.read())));
    println!("  median of {BLOCKS} alternating blocks of {N}:");
    println!("  page latch (fix+S-latch+unfix): {latch_ns:>8.0} ns");
    println!("  lock (request+release):         {lock_ns:>8.0} ns");
    println!("  bare RwLock (read+release):     {bare_ns:>8.0} ns");
    if latch_ns >= lock_ns {
        println!("  ratio: {:.1}× — INVERTED: a page latch costs no less than a lock", lock_ns / latch_ns);
        std::process::exit(1);
    }
    println!("  ratio: {:.1}× — latches are the cheaper primitive, as claimed", lock_ns / latch_ns);
}

// --- E13: SMO ablation -----------------------------------------------------------

fn smo_ablation() {
    header(
        "E13 — SMO concurrency ablation",
        "retrievals, inserts and deletes go on concurrently with SMOs (§2.1 \
         claim 3); serializing every operation behind one big latch starves \
         readers whenever a split is in progress",
    );
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    println!(
        "{:<26} {:>14} {:>14}",
        "variant", "reader ops/s", "writer ops/s"
    );
    for (name, coarse) in [("ARIES/IM", false), ("one big latch", true)] {
        let r = rig(LockProtocol::DataOnly, false, 4096);
        seed(&r, 50_000);
        let big = parking_lot::Mutex::new(());
        let stop = AtomicBool::new(false);
        let reads = AtomicU64::new(0);
        let writes = AtomicU64::new(0);
        let dur = Duration::from_millis(400);
        std::thread::scope(|s| {
            // One writer driving a constant stream of splits.
            {
                let r = &r;
                let big = &big;
                let stop = &stop;
                let writes = &writes;
                s.spawn(move || {
                    let mut i = 0u32;
                    while !stop.load(Ordering::Relaxed) {
                        let txn = r.tm.begin();
                        for _ in 0..16 {
                            let _g = coarse.then(|| big.lock());
                            r.tree.insert(&txn, &nkey(10_000_000 + i)).unwrap();
                            i += 1;
                        }
                        r.tm.commit(&txn).unwrap();
                        writes.fetch_add(16, Ordering::Relaxed);
                    }
                });
            }
            // Six readers fetching committed keys.
            for t in 0..6u32 {
                let r = &r;
                let big = &big;
                let stop = &stop;
                let reads = &reads;
                s.spawn(move || {
                    let mut rng = ariesim_bench::XorShift(77 + t as u64);
                    while !stop.load(Ordering::Relaxed) {
                        let txn = r.tm.begin();
                        for _ in 0..16 {
                            let _g = coarse.then(|| big.lock());
                            let k = nkey(rng.below(50_000));
                            r.tree.fetch(&txn, &k.value, FetchCond::Eq).unwrap();
                        }
                        r.tm.commit(&txn).unwrap();
                        reads.fetch_add(16, Ordering::Relaxed);
                    }
                });
            }
            std::thread::sleep(dur);
            stop.store(true, Ordering::Relaxed);
        });
        let secs = dur.as_secs_f64();
        row(
            name,
            &[
                format!("{:.0}", reads.load(Ordering::Relaxed) as f64 / secs),
                format!("{:.0}", writes.load(Ordering::Relaxed) as f64 / secs),
            ],
        );
    }
}
