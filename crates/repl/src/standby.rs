//! The warm standby: restart's redo pass running as a service.
//!
//! A standby *is* a [`Db`] — the same core, resource managers, catalog and
//! trees, put together by the same [`Db::assemble`] — on which **restart
//! never runs and no transaction ever begins**: its log is a byte-identical
//! prefix of the primary's (base backup + pulled frames), and its only
//! writer is the continuous redo applier. Keeping the standby
//! transaction-free is load-bearing. A transaction is the unit that may
//! write, and any record it appended would fork the standby's log away from
//! the primary's. Its id would not be safe either: restart never runs here,
//! so the transaction manager never learns the ids in the pulled log and
//! would hand out ones the primary already used. And its locks would guard
//! nothing, because the applier takes none.
//!
//! Reads are therefore latch-only snapshot reads at the **applied-LSN
//! watermark**: an `RwLock` holding the watermark excludes the applier
//! (writer) from readers, so a read observes exactly the state at
//! `applied_lsn` — never further, because the applier is the sole mutator
//! and it advances the watermark under the same lock.
//!
//! Promotion is the paper's observation made literal: a standby *is* a
//! database that crashed at its applied watermark plus whatever log it has
//! ingested. [`Standby::promote`] flushes what it can, tears the standby
//! down, and runs a plain [`Db::open`] — analysis from the last pulled
//! checkpoint, redo of the unapplied suffix, undo of in-flight (loser)
//! transactions pulled from the primary.

use ariesim_common::{Error, Lsn, Result, Rid};
use ariesim_db::{Db, DbOptions, Row};
use ariesim_fault::crash_point;
use ariesim_obs::{ObsHandle, SpanKind};
use ariesim_recovery::apply_redo;
use ariesim_txn::Core;
use ariesim_wal::LogManager;
use parking_lot::{Mutex, RwLock};
use std::path::Path;
use std::sync::Arc;

/// Records applied per gate acquisition: readers interleave at this grain.
const APPLY_BATCH: u64 = 32;

/// A continuously-redoing replica that pulls from a primary's durable log.
pub struct Standby {
    /// Assembled, never restarted, never handed out: the applier below is
    /// its only writer.
    db: Db,
    /// The primary's log, read only through its durable end and its master
    /// record.
    primary: Arc<LogManager>,
    /// Serializes pull+ingest so concurrent pumpers cannot interleave
    /// between reading the ingest point and extending the log.
    recv_lock: Mutex<()>,
    /// The applied-LSN watermark, and the apply/read exclusion: the applier
    /// advances it under write, readers hold read.
    gate: RwLock<Lsn>,
}

impl Standby {
    /// Open a standby over `dir` (a base backup of the primary — see
    /// [`crate::fork_standby`]) that pulls from `primary`. Catches up to
    /// the locally durable log before returning, so the applied watermark
    /// is meaningful from the first read.
    pub fn open(
        dir: &Path,
        opts: DbOptions,
        primary: Arc<LogManager>,
        obs: ObsHandle,
    ) -> Result<Arc<Standby>> {
        let this = Standby {
            db: Db::assemble(dir, opts, obs)?,
            primary,
            recv_lock: Mutex::new(()),
            gate: RwLock::new(Lsn::NULL),
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

    /// The applied-LSN watermark: reads reflect the log exactly up to here.
    /// Takes the gate's read side, so the caller must not hold the gate
    /// (the lock prefers writers, so a recursive read can deadlock).
    pub fn applied_lsn(&self) -> Lsn {
        *self.gate.read()
    }

    /// Durable primary log this standby has not yet applied, in bytes.
    pub fn lag_bytes(&self) -> u64 {
        self.primary
            .flushed_lsn()
            .0
            .saturating_sub(self.applied_lsn().0)
    }

    /// Pull and ingest every durable primary frame past this log's end, and
    /// adopt the primary's master record. Returns bytes ingested (0 =
    /// nothing new). `ingest_frames` checks every frame and rejects a torn
    /// or corrupt one.
    fn recv_once(&self) -> Result<u64> {
        let _recv = self.recv_lock.lock();
        let log = &self.db.log;
        // Master first, frames second: the primary writes its master only
        // after the named checkpoint's CkptEnd is durable, and its durable
        // end never moves back, so this pull holds that CkptEnd and the
        // master adopted below never names a checkpoint this log lacks.
        let master = self.primary.read_master()?;
        let at = log.next_lsn();
        let frames = self.primary.read_durable(at)?;
        if !frames.is_empty() {
            log.ingest_frames(at, &frames)?;
            crash_point!("repl.recv.ingested");
        }
        if log.read_master()? != master {
            log.write_master(master)?;
        }
        Ok(frames.len() as u64)
    }

    /// Apply all ingested-but-unapplied log, a batch at a time; readers
    /// interleave between batches. Returns the new applied watermark.
    fn apply_once(&self) -> Result<Lsn> {
        let upto = self.db.log.flushed_lsn();
        loop {
            let mut at = self.gate.write();
            let span = self.db.obs.span(SpanKind::Apply, 0, 0);
            let examined = apply_redo(&self.db.core, &mut at, upto, APPLY_BATCH)?;
            drop(span);
            if examined == 0 {
                return Ok(*at);
            }
            drop(at);
            crash_point!("repl.apply.batch");
        }
    }

    /// One pull + apply cycle. Sets the replication-lag gauge to the lag
    /// the cycle leaves ([`Standby::lag_bytes`]; see `ariesim_obs::ReplLag`
    /// for the unit semantics).
    pub fn pump(&self) -> Result<u64> {
        let n = self.recv_once()?;
        let applied = self.apply_once()?;
        let lag = &self.db.obs.gauge.repl_lag;
        lag.set_watermarks(self.primary.flushed_lsn().0, applied.0);
        Ok(n)
    }

    /// Drain: flush the primary's log, then pull and apply through its
    /// durable end, so a preceding primary commit is always covered. One
    /// cycle suffices: the pull takes everything durable at the time.
    pub fn sync(&self) -> Result<Lsn> {
        self.primary.flush_all()?;
        self.pump()?;
        Ok(self.applied_lsn())
    }

    /// Snapshot read at the applied watermark: the row whose key in
    /// `index` equals `value`. Latch-only (no transaction, no locks — see
    /// module docs); the apply gate guarantees the answer is exactly the
    /// watermark state.
    pub fn read(&self, index: &str, value: &[u8]) -> Result<Option<(Rid, Row)>> {
        let tree = self.db.tree_by_name(index)?;
        // An in-flight SMO pulled mid-window can make the leaf chain
        // momentarily ambiguous; applying further log resolves it.
        for _ in 0..64 {
            let _r = self.gate.read();
            match tree.get_unlocked(value) {
                Ok(None) => return Ok(None),
                Ok(Some(key)) => {
                    let g = self.db.pool.fix_s(key.rid.page)?;
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
    /// transactions whose updates were pulled are rolled back by restart's
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
