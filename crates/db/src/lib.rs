//! Facade engine: a small multi-table database assembled from the ARIES/IM
//! stack, with crash simulation and restart.
//!
//! This is what the examples, the cross-crate tests and the benchmark
//! harness drive. It wires together the write-ahead log, buffer pool, lock
//! manager, heap record manager, ARIES/IM B+-tree indexes and restart
//! recovery, and implements the *data-only locking* contract of the paper's
//! §2.1: the record manager's commit-duration X lock on a RID covers every
//! index key derived from that record, and an index fetch's S lock on a key
//! covers the subsequent record read.
//!
//! Crash simulation: [`Db::crash`] drops every volatile structure without
//! flushing; reopening with [`Db::open`] runs ARIES restart over exactly
//! {flushed log prefix, on-disk pages}. [`Db::crash_truncating_log_to`]
//! additionally truncates the durable log at a chosen LSN, simulating a
//! crash at an *earlier* instant (e.g. mid-SMO, before a dummy CLR reached
//! disk — the Figure 11 family of states).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod catalog;
pub mod table;
pub mod verify;

use ariesim_btree::{BTree, IndexRm, LockProtocol};
use ariesim_common::{Error, IndexId, Lsn, Result, TableId};
use ariesim_record::HeapManager;
use ariesim_recovery::RestartOutcome;
use ariesim_txn::{Core, TxnHandle};
use ariesim_wal::LogOptions;
use catalog::{Catalog, IndexDef, TableDef};
use std::path::{Path, PathBuf};
use std::sync::Arc;

pub use ariesim_btree::fetch::{FetchCond, FetchResult};
pub use table::Row;

/// Database configuration.
#[derive(Clone, Debug)]
pub struct DbOptions {
    /// Buffer pool frames.
    pub frames: usize,
    /// Index locking protocol (paper §2.1).
    pub protocol: LockProtocol,
    /// Data-only locking at page granularity: lock data pages instead of
    /// records (§2.1's "the locking granularity (page, record, ...)
    /// associated with the table/file"). Fewer locks, less concurrency.
    pub page_granularity: bool,
    /// fsync the log on every force (off for tests; crashes are simulated at
    /// process level).
    pub fsync: bool,
}

impl Default for DbOptions {
    fn default() -> Self {
        DbOptions {
            frames: 1024,
            protocol: LockProtocol::DataOnly,
            page_granularity: false,
            fsync: false,
        }
    }
}

/// The assembled database engine: an engine [`Core`] (reachable through
/// `Deref`, so `db.pool`, `db.log`, `db.locks`, `db.tm`, `db.stats` are the
/// core's) plus the heap and index managers and the catalog built over it.
pub struct Db {
    dir: PathBuf,
    opts: DbOptions,
    pub core: Arc<Core>,
    pub heap: Arc<HeapManager>,
    pub index_rm: Arc<IndexRm>,
    pub(crate) catalog: Catalog,
    /// Outcome of the restart recovery this open (or a standby's
    /// promotion) performed; `None` for an engine that was only
    /// [assembled](Db::assemble).
    pub restart_outcome: Option<RestartOutcome>,
}

impl std::ops::Deref for Db {
    type Target = Core;

    fn deref(&self) -> &Core {
        &self.core
    }
}

impl Db {
    /// Create or open the database in `dir`, running restart recovery over
    /// whatever state is there.
    pub fn open(dir: &Path, opts: DbOptions) -> Result<Arc<Db>> {
        Db::open_with_obs(dir, opts, ariesim_obs::Obs::disabled())
    }

    /// [`Db::open`] with an explicit observability handle, shared by the
    /// log, pool, lock manager, and every index.
    pub fn open_with_obs(
        dir: &Path,
        opts: DbOptions,
        obs: ariesim_obs::ObsHandle,
    ) -> Result<Arc<Db>> {
        let mut db = Db::assemble(dir, opts, obs)?;
        // Restart recovery (a no-op scan on a fresh database).
        db.restart_outcome = Some(ariesim_recovery::restart(&db.core)?);
        Ok(Arc::new(db))
    }

    /// Everything [`Db::open`] does short of restart recovery: open the
    /// core, build the heap and index managers over it, load the catalog
    /// and open every index it names — registered with the index manager,
    /// because logical undo needs the trees. A log-shipping standby starts
    /// here and runs restart's forward pass over it as log arrives, then its
    /// undo at promotion, when it sets `restart_outcome`; nothing else may
    /// use the result before recovery has run.
    pub fn assemble(dir: &Path, opts: DbOptions, obs: ariesim_obs::ObsHandle) -> Result<Db> {
        let log_opts = LogOptions { fsync: opts.fsync };
        let core = Core::open(dir, opts.frames, log_opts, obs)?;
        let heap = HeapManager::new(&core, opts.page_granularity);
        let index_rm = IndexRm::new(&core);
        let catalog = Catalog::load(&core.pool, |def| {
            let tree = BTree::open(
                &core,
                def.id,
                def.root,
                def.unique,
                opts.protocol,
                opts.page_granularity,
            );
            index_rm.register_tree(tree.clone());
            tree
        })?;
        Ok(Db {
            dir: dir.to_path_buf(),
            opts,
            core,
            heap,
            index_rm,
            catalog,
            restart_outcome: None,
        })
    }

    /// The directory this database lives in.
    pub fn dir(&self) -> &Path {
        self.dir.as_path()
    }

    pub fn options(&self) -> &DbOptions {
        &self.opts
    }

    /// The observability handle this engine reports through.
    pub fn obs(&self) -> &ariesim_obs::ObsHandle {
        &self.core.obs
    }

    // --- transactions ---------------------------------------------------

    pub fn begin(&self) -> Arc<TxnHandle> {
        self.tm.begin()
    }

    pub fn commit(&self, txn: &TxnHandle) -> Result<()> {
        self.tm.commit(txn)
    }

    pub fn rollback(&self, txn: &TxnHandle) -> Result<()> {
        self.tm.rollback(txn)
    }

    pub fn checkpoint(&self) -> Result<Lsn> {
        self.tm.checkpoint()
    }

    /// Take a savepoint in `txn` (roll back to it with
    /// [`rollback_to`](Self::rollback_to) — ARIES partial rollback, §1.2).
    pub fn savepoint(&self, txn: &TxnHandle) -> Lsn {
        txn.savepoint()
    }

    /// Partial rollback: undo everything `txn` did after `savepoint`; the
    /// transaction stays active and keeps its locks.
    pub fn rollback_to(&self, txn: &TxnHandle, savepoint: Lsn) -> Result<()> {
        self.tm.rollback_to(txn, savepoint)
    }

    // --- DDL ---------------------------------------------------------------
    //
    // DDL runs inside a system transaction for its page-level effects
    // (allocation, root/first-page formatting are all logged); the catalog
    // entry itself is force-written at commit (see DESIGN.md §4).

    /// Create a table with `columns` columns.
    pub fn create_table(&self, name: &str, columns: usize) -> Result<TableId> {
        let cat = &self.catalog;
        let mut ids = cat.ddl.lock();
        if cat.table(name).is_ok() {
            return Err(Error::Internal(format!("table {name} already exists")));
        }
        let columns = u16::try_from(columns).map_err(|_| {
            Error::Internal(format!("table {name}: {columns} columns exceed {}", u16::MAX))
        })?;
        let txn = self.tm.begin();
        let id = ids.table();
        let first_page = match self.heap.create_file(&txn, id) {
            Ok(page) => page,
            Err(e) => {
                self.tm.rollback(&txn)?;
                return Err(e);
            }
        };
        self.tm.commit(&txn)?;
        cat.add_table(TableDef {
            id,
            name: name.to_string(),
            first_page,
            columns,
        })?;
        cat.persist(&self.pool)?;
        self.pool.flush_all()?;
        Ok(id)
    }

    /// Create an index on `table`'s column `column`. Backfills from existing
    /// rows inside the DDL transaction; if that fails (a duplicate value
    /// under `unique`, say) the transaction is rolled back and nothing of the
    /// index remains.
    pub fn create_index(
        &self,
        name: &str,
        table: &str,
        column: usize,
        unique: bool,
    ) -> Result<IndexId> {
        let cat = &self.catalog;
        let mut ids = cat.ddl.lock();
        let tdef = cat.table(table)?.clone();
        if cat.index(name).is_ok() {
            return Err(Error::Internal(format!("index {name} already exists")));
        }
        let column = u16::try_from(column)
            .ok()
            .filter(|c| *c < tdef.columns)
            .ok_or_else(|| Error::Internal(format!("table {table} has no column {column}")))?;
        let txn = self.tm.begin();
        let id = ids.index();
        let tree = match self.build_index(&txn, id, &tdef, column, unique) {
            Ok(tree) => tree,
            Err(e) => {
                // Undo looks the tree up by id, so it goes only afterwards.
                let undone = self.tm.rollback(&txn);
                self.index_rm.unregister_tree(id);
                undone?;
                return Err(e);
            }
        };
        self.tm.commit(&txn)?;
        let def = IndexDef {
            id,
            name: name.to_string(),
            table: tdef.id,
            root: tree.root,
            column,
            unique,
        };
        cat.add_index(def, tree)?;
        cat.persist(&self.pool)?;
        self.pool.flush_all()?;
        Ok(id)
    }

    /// Allocate and register index `id`, then insert a key for every
    /// existing row of `tdef`, all inside `txn`.
    fn build_index(
        &self,
        txn: &TxnHandle,
        id: IndexId,
        tdef: &TableDef,
        column: u16,
        unique: bool,
    ) -> Result<Arc<BTree>> {
        let root = BTree::create(&self.core, txn, id)?;
        let tree = BTree::open(
            &self.core,
            id,
            root,
            unique,
            self.opts.protocol,
            self.opts.page_granularity,
        );
        self.index_rm.register_tree(tree.clone());
        for (rid, bytes) in self.heap.scan_all(tdef.first_page)? {
            let row = Row::decode(&bytes)?;
            let value = row.field(column as usize)?;
            tree.insert(txn, &ariesim_common::IndexKey::new(value.to_vec(), rid))?;
        }
        Ok(tree)
    }

    /// Simulate a crash: drop all volatile state without flushing anything.
    /// Returns the directory; reopen with [`Db::open`] to run recovery.
    ///
    /// Consumes the engine. Pending guards/transactions must be gone; the
    /// caller holds the only remaining `Arc`.
    pub fn crash(self: Arc<Db>) -> PathBuf {
        let dir = self.dir.clone();
        drop(self);
        dir
    }

    /// Crash *and* lose the durable log tail beyond `keep_to`: truncates the
    /// log file at that LSN. Simulates the system failing at the moment the
    /// log had only been forced that far (e.g. mid-SMO, before the dummy
    /// CLR). `keep_to` must be a record boundary (an LSN returned by the log)
    /// and at least the current flushed point of any on-disk page — the
    /// caller arranges pool sizes so no page with a later LSN was stolen.
    pub fn crash_truncating_log_to(self: Arc<Db>, keep_to: Lsn) -> Result<PathBuf> {
        self.log.flush_all()?;
        let dir = self.dir.clone();
        drop(self);
        let log_path = dir.join("wal");
        let f = std::fs::OpenOptions::new().write(true).open(&log_path)?;
        f.set_len(keep_to.0)?;
        Ok(dir)
    }

    /// Record boundaries of the current log (LSN of every record), for
    /// choosing crash points.
    pub fn log_record_lsns(&self) -> Vec<Lsn> {
        self.log
            .scan(Lsn::NULL)
            .filter_map(|r| r.ok().map(|r| r.lsn))
            .collect()
    }
}
