//! # ariesim — ARIES/IM in Rust
//!
//! A full reproduction of *ARIES/IM: An Efficient and High Concurrency Index
//! Management Method Using Write-Ahead Logging* (C. Mohan, F. Levine,
//! SIGMOD 1992), together with every substrate the paper assumes: the ARIES
//! write-ahead log and restart recovery, a steal/no-force buffer manager
//! with page latches, a lock manager with instant/commit durations and
//! conditional requests, a heap record manager (the data-only-locking
//! substrate), and the ARIES/KVL baseline.
//!
//! ## Quick start
//!
//! ```
//! use ariesim::db::{Db, DbOptions, FetchCond, Row};
//! use ariesim::common::tmp::TempDir;
//!
//! let dir = TempDir::new("quickstart");
//! let db = Db::open(dir.path(), DbOptions::default()).unwrap();
//! db.create_table("people", 2).unwrap();
//! db.create_index("people_pk", "people", 0, true).unwrap();
//!
//! let txn = db.begin();
//! db.insert_row(&txn, "people", &Row::from_strs(&["alice", "researcher"])).unwrap();
//! db.commit(&txn).unwrap();
//!
//! let txn = db.begin();
//! let (_rid, row) = db.fetch_via(&txn, "people_pk", b"alice", FetchCond::Eq)
//!     .unwrap()
//!     .expect("alice is committed");
//! assert_eq!(row.field(1).unwrap(), b"researcher");
//! db.commit(&txn).unwrap();
//! ```
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`common`] | `ariesim-common` | ids, pages, keys, stats |
//! | [`wal`] | `ariesim-wal` | log records, CLRs, log manager |
//! | [`storage`] | `ariesim-storage` | disk, buffer pool, latches, space map |
//! | [`lock`] | `ariesim-lock` | lock manager |
//! | [`txn`] | `ariesim-txn` | transactions, NTAs, checkpoints; `Core`, the assembled engine |
//! | [`recovery`] | `ariesim-recovery` | restart + media recovery |
//! | [`record`] | `ariesim-record` | heap record manager |
//! | [`btree`] | `ariesim-btree` | **ARIES/IM itself**, and the ARIES/KVL baseline protocol |
//! | [`db`] | `ariesim-db` | assembled engine facade |
//! | [`obs`] | `ariesim-obs` | latency histograms, event tracing, invariant monitors |

pub use ariesim_btree as btree;
pub use ariesim_common as common;
pub use ariesim_db as db;
pub use ariesim_lock as lock;
pub use ariesim_obs as obs;
pub use ariesim_record as record;
pub use ariesim_recovery as recovery;
pub use ariesim_storage as storage;
pub use ariesim_txn as txn;
pub use ariesim_wal as wal;

/// The most commonly used items in one import.
pub mod prelude {
    pub use ariesim_btree::fetch::{FetchCond, FetchResult};
    pub use ariesim_btree::{BTree, LockProtocol};
    pub use ariesim_common::tmp::TempDir;
    pub use ariesim_common::{IndexId, IndexKey, Lsn, PageId, Rid, TableId, TxnId};
    pub use ariesim_db::{Db, DbOptions, Row};
}
