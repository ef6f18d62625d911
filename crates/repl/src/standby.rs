//! The warm standby: restart's redo pass running as a service.
//!
//! A standby *is* a [`Db`] — the same core, resource managers, catalog and
//! trees, put together by the same [`Db::assemble`] — on which **restart
//! never runs and no transaction ever begins**: its log is a byte-identical
//! prefix of the primary's (base backup + ingested chunks), and its only
//! writer is the continuous redo applier. Keeping the standby
//! transaction-free is load-bearing. A transaction is the unit that may
//! write, and any record it appended would fork the standby's log away from
//! the primary's. Its id would not be safe either: restart never runs here,
//! so the transaction manager never learns the ids in the shipped log and
//! would hand out ones the primary already used. And its locks would guard
//! nothing, because the applier takes none.
//!
//! Reads are therefore latch-only snapshot reads at the **applied-LSN
//! watermark**: an `RwLock` excludes the applier (writer) from readers, so
//! a read observes exactly the state at `applied_lsn` — never further,
//! because the applier is the sole mutator and it publishes the watermark
//! under the same gate.
//!
//! Promotion is the paper's observation made literal: a standby *is* a
//! database that crashed at its applied watermark plus whatever log it has
//! ingested. [`Standby::promote`] flushes what it can, tears the standby
//! down, and runs a plain [`Db::open`] — analysis from the last shipped
//! checkpoint, redo of the unapplied suffix, undo of in-flight (loser)
//! transactions shipped from the primary.

use crate::transport::InProcessTransport;
use ariesim_common::{Error, Lsn, Result, Rid};
use ariesim_db::{Db, DbOptions, Row};
use ariesim_fault::crash_point;
use ariesim_obs::{ObsHandle, SpanKind};
use ariesim_recovery::{apply_redo, RedoCursor};
use ariesim_txn::Core;
use parking_lot::{Mutex, RwLock};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Records applied per gate acquisition: readers interleave at this grain.
const APPLY_BATCH: u64 = 32;

/// A continuously-redoing replica over a shipped log stream.
pub struct Standby {
    /// Assembled, never restarted, never handed out: the applier below is
    /// its only writer.
    db: Db,
    transport: Arc<InProcessTransport>,
    /// Serializes receive+ingest so concurrent pumpers cannot interleave
    /// between reading the ingest point and extending the log.
    recv_lock: Mutex<()>,
    cursor: Mutex<RedoCursor>,
    /// Mirror of `cursor.at`, readable without the cursor lock.
    applied: AtomicU64,
    /// Apply/read exclusion: the applier holds write, readers hold read.
    gate: RwLock<()>,
}

impl Standby {
    /// Open a standby over `dir` (a base backup of the primary — see
    /// [`crate::fork_standby`]) fed by `transport`. Catches up to the
    /// locally durable log before returning, so the applied watermark is
    /// meaningful from the first read.
    pub fn open(
        dir: &Path,
        opts: DbOptions,
        transport: Arc<InProcessTransport>,
        obs: ObsHandle,
    ) -> Result<Arc<Standby>> {
        let this = Standby {
            db: Db::assemble(dir, opts, obs)?,
            transport,
            recv_lock: Mutex::new(()),
            cursor: Mutex::new(RedoCursor::starting_at(Lsn::NULL)),
            applied: AtomicU64::new(0),
            gate: RwLock::new(()),
        };
        // Catch up to the locally durable log (the base backup may predate
        // its own log end; redo's page_lsn check makes this idempotent).
        this.apply_once()?;
        Ok(Arc::new(this))
    }

    /// The engine core this standby applies into: log, pool, lock manager
    /// and resource managers, all counting into its one `stats` and `obs`.
    pub fn core(&self) -> &Core {
        &self.db.core
    }

    /// This standby's observability domain (ingest/apply histograms and
    /// the replication-lag gauge live here).
    pub fn obs(&self) -> &ObsHandle {
        &self.db.core.obs
    }

    /// The applied-LSN watermark: reads reflect the log exactly up to here.
    pub fn applied_lsn(&self) -> Lsn {
        Lsn(self.applied.load(Ordering::Acquire)) // ordering: pairs with the Release store in apply_available
    }

    /// Durable primary log this standby has not yet applied, in bytes
    /// (computed against the transport's stream end; the primary may be
    /// further ahead still).
    pub fn lag_bytes(&self) -> u64 {
        self.transport.end().0.saturating_sub(self.applied_lsn().0)
    }

    /// Receive and ingest everything the transport holds past this log's
    /// end, and adopt the primary's master record once the checkpoint it
    /// names has been shipped. Returns bytes ingested (0 = nothing new).
    /// The shipper sends only whole frames; `ingest_frames` still checks
    /// every one and rejects a torn or corrupt chunk.
    pub fn recv_once(&self) -> Result<u64> {
        let _recv = self.recv_lock.lock();
        let log = &self.db.log;
        let at = log.next_lsn();
        let chunk = self.transport.recv(at)?;
        if !chunk.is_empty() {
            log.ingest_frames(at, &chunk)?;
            crash_point!("repl.recv.ingested");
        }
        let master = self.transport.master();
        if !master.is_null() && master < log.next_lsn() && log.read_master()? != master {
            log.write_master(master)?;
        }
        Ok(chunk.len() as u64)
    }

    /// Apply all ingested-but-unapplied log, a batch at a time; readers
    /// interleave between batches. Returns the new applied watermark.
    pub fn apply_once(&self) -> Result<Lsn> {
        let upto = self.db.log.flushed_lsn();
        loop {
            let _w = self.gate.write();
            let mut cur = self.cursor.lock();
            let span = self.db.obs.span(SpanKind::Apply, 0, 0);
            let examined = apply_redo(&self.db.core, &mut cur, upto, APPLY_BATCH)?;
            // ordering: publishes the pages applied above; applied_lsn readers see a page image at least this new
            self.applied.store(cur.at.0, Ordering::Release);
            drop(span);
            if examined == 0 {
                break;
            }
            drop(cur);
            drop(_w);
            crash_point!("repl.apply.batch");
        }
        Ok(self.applied_lsn())
    }

    /// One receive + apply cycle; updates the replication-lag gauge from
    /// the two watermarks (the transport's durable end vs our applied LSN
    /// — see `ariesim_obs::ReplLag` for the unit semantics).
    ///
    /// The gauge is set twice per cycle: first with the backlog the cycle
    /// *found* (durable end vs the applied watermark before this batch —
    /// its `.max()` over a run is the high-water lag), then with the
    /// settled post-apply state (normally 0, so `.last()` reads as
    /// "caught up" between cycles).
    pub fn pump(&self) -> Result<u64> {
        let n = self.recv_once()?;
        let lag = &self.db.obs.gauge.repl_lag;
        let before = self.applied_lsn();
        let end = self.transport.end();
        lag.set_watermarks(end.0, before.0);
        let applied = self.apply_once()?;
        lag.set_watermarks(end.0, applied.0);
        Ok(n)
    }

    /// Snapshot read at the applied watermark: the row whose key in
    /// `index` equals `value`. Latch-only (no transaction, no locks — see
    /// module docs); the apply gate guarantees the answer is exactly the
    /// watermark state.
    pub fn read(&self, index: &str, value: &[u8]) -> Result<Option<(Rid, Row)>> {
        let tree = self.db.tree_by_name(index)?;
        // An in-flight SMO shipped mid-window can make the leaf chain
        // momentarily ambiguous; applying further log resolves it.
        for _ in 0..64 {
            let _r = self.gate.read();
            match tree.get_unlocked(value) {
                Ok(None) => return Ok(None),
                Ok(Some(key)) => {
                    let g = self.db.pool.fix_s(key.rid.page)?; // latch-rank: 2
                    let bytes = g
                        .cell(key.rid.slot.0)
                        .map(|c| c.to_vec())
                        .ok_or(Error::BadRid { rid: key.rid })?;
                    return Ok(Some((key.rid, Row::decode(&bytes)?)));
                }
                Err(Error::WouldBlock) => {
                    drop(_r);
                    self.apply_once()?;
                }
                Err(e) => return Err(e),
            }
        }
        Err(Error::Internal(format!(
            "standby read of {index} still ambiguous after catch-up"
        )))
    }

    /// Unlocked count of live keys in `index` (verification helper).
    pub fn count(&self, index: &str) -> Result<usize> {
        let tree = self.db.tree_by_name(index)?;
        let _r = self.gate.read();
        Ok(tree.scan_all_unlocked()?.len())
    }

    /// Fail over: complete recovery over everything this standby has
    /// ingested and open the result as a read-write [`Db`]. Consumes the
    /// standby (the caller must hold the only `Arc`). Uncommitted primary
    /// transactions whose updates were shipped are rolled back by restart's
    /// undo pass, exactly as if the primary had crashed here.
    pub fn promote(self: Arc<Self>) -> Result<Arc<Db>> {
        let this = Arc::try_unwrap(self)
            .map_err(|_| Error::Internal("standby still shared at promote".into()))?;
        crash_point!("repl.promote.begin");
        let Standby { db, .. } = this;
        // Flushing shrinks the redo pass of the reopen; correctness never
        // depends on it (redo is idempotent, the ingested log is durable).
        db.pool.flush_all()?;
        let (dir, opts) = (db.dir().to_path_buf(), db.options().clone());
        drop(db);
        crash_point!("repl.promote.reopen");
        let db = Db::open(&dir, opts)?;
        crash_point!("repl.promote.done");
        Ok(db)
    }
}
