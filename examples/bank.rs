//! A concurrent bank: the classic transaction-processing workload the
//! paper's systems (DB2, SQL/DS, NonStop SQL) served.
//!
//! Eight teller threads run transfer transactions against an
//! ARIES/IM-indexed accounts table. Deadlock victims retry; a fraction of
//! transfers is voluntarily rolled back. At the end, the books must balance
//! — and they must *still* balance after a simulated crash and ARIES
//! restart.
//!
//! ```sh
//! cargo run --release --example bank
//! ```

use ariesim::common::Error;
use ariesim::db::{Db, DbOptions, FetchCond, Row};
use ariesim::common::tmp::TempDir;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const ACCOUNTS: u32 = 200;
const INITIAL: i64 = 1_000;
const TELLERS: u32 = 8;
const TRANSFERS_PER_TELLER: u32 = 150;

fn acct_key(i: u32) -> Vec<u8> {
    format!("acct-{i:06}").into_bytes()
}

fn row(i: u32, balance: i64) -> Row {
    Row::new(vec![acct_key(i), balance.to_string().into_bytes()])
}

fn balance_of(row: &Row) -> i64 {
    String::from_utf8_lossy(row.field(1).unwrap())
        .parse()
        .unwrap()
}

fn total_balance(db: &Db) -> i64 {
    let txn = db.begin();
    let rows = db
        .scan_range(&txn, "accounts_pk", b"acct-", b"acct-\x7f")
        .unwrap();
    let sum = rows.iter().map(|(_, r)| balance_of(r)).sum();
    db.commit(&txn).unwrap();
    sum
}

fn transfer(db: &Db, from: u32, to: u32, amount: i64) -> Result<(), Error> {
    let txn = db.begin();
    let step = (|| -> Result<(), Error> {
        let (rid_from, row_from) = db
            .fetch_via(&txn, "accounts_pk", &acct_key(from), FetchCond::Eq)?
            .ok_or(Error::NotFound)?;
        let (rid_to, row_to) = db
            .fetch_via(&txn, "accounts_pk", &acct_key(to), FetchCond::Eq)?
            .ok_or(Error::NotFound)?;
        let bal_from = balance_of(&row_from) - amount;
        let bal_to = balance_of(&row_to) + amount;
        // Rewrite both rows (delete + insert keeps the indexes exact).
        db.delete_row(&txn, "accounts", rid_from)?;
        db.delete_row(&txn, "accounts", rid_to)?;
        db.insert_row(&txn, "accounts", &row(from, bal_from))?;
        db.insert_row(&txn, "accounts", &row(to, bal_to))?;
        Ok(())
    })();
    match step {
        Ok(()) => db.commit(&txn),
        Err(e) => {
            db.rollback(&txn)?;
            Err(e)
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = TempDir::new("bank");
    let db = Db::open(dir.path(), DbOptions::default())?;
    db.create_table("accounts", 2)?;
    db.create_index("accounts_pk", "accounts", 0, true)?;

    let setup = db.begin();
    for i in 0..ACCOUNTS {
        db.insert_row(&setup, "accounts", &row(i, INITIAL))?;
    }
    db.commit(&setup)?;
    let expected_total = ACCOUNTS as i64 * INITIAL;
    println!("seeded {ACCOUNTS} accounts, total = {expected_total}");

    let committed = Arc::new(AtomicU64::new(0));
    let deadlocks = Arc::new(AtomicU64::new(0));
    let start = std::time::Instant::now();
    std::thread::scope(|s| {
        for t in 0..TELLERS {
            let db = db.clone();
            let committed = committed.clone();
            let deadlocks = deadlocks.clone();
            s.spawn(move || {
                let mut rng = t as u64 * 0x9E3779B97F4A7C15 + 1;
                let mut rand = move || {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    rng
                };
                for _ in 0..TRANSFERS_PER_TELLER {
                    let from = (rand() % ACCOUNTS as u64) as u32;
                    let mut to = (rand() % ACCOUNTS as u64) as u32;
                    if to == from {
                        to = (to + 1) % ACCOUNTS;
                    }
                    let amount = (rand() % 100) as i64;
                    loop {
                        match transfer(&db, from, to, amount) {
                            Ok(()) => {
                                committed.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                            Err(Error::Deadlock { .. }) => {
                                deadlocks.fetch_add(1, Ordering::Relaxed);
                                continue; // retry the transfer
                            }
                            Err(e) => panic!("transfer failed: {e}"),
                        }
                    }
                }
            });
        }
    });
    let elapsed = start.elapsed();
    println!(
        "{} transfers committed in {:.2?} ({:.0} txn/s), {} deadlock retries",
        committed.load(Ordering::Relaxed),
        elapsed,
        committed.load(Ordering::Relaxed) as f64 / elapsed.as_secs_f64(),
        deadlocks.load(Ordering::Relaxed),
    );

    let total = total_balance(&db);
    println!("total after transfers = {total}");
    assert_eq!(total, expected_total, "money is conserved");
    db.verify_consistency()?;

    // Crash without flushing anything and let ARIES restart repeat history.
    println!("simulating crash...");
    let path = db.crash();
    let db = Db::open(&path, DbOptions::default())?;
    let outcome = db.restart_outcome.as_ref().unwrap();
    println!(
        "restart: {} records decoded, {} redone, {} losers undone",
        outcome.analyzed,
        outcome.redo_applied,
        outcome.losers.len()
    );
    let total = total_balance(&db);
    println!("total after recovery = {total}");
    assert_eq!(total, expected_total, "money survived the crash");
    db.verify_consistency()?;
    println!("books balance; heap and indexes consistent");
    Ok(())
}
