//! The warm standby: restart's forward pass left running.
//!
//! A standby *is* a [`Db`] — the same core, resource managers, catalog and
//! trees, put together by the same [`Db::assemble`] — on which no
//! transaction ever begins: its log is a byte-identical prefix of the
//! primary's (base backup + pulled frames), and its only writer is
//! restart's [`ForwardPass`], seeded from the standby's master record at
//! open and stepped as frames arrive. Keeping the standby transaction-free
//! is load-bearing. Any record a transaction appended would fork the
//! standby's log away from the primary's; its id could be one the primary
//! already used (the transaction manager learns the pulled ids only at
//! promotion); and its locks would guard nothing, since the pass takes none.
//!
//! Reads are therefore latch-only snapshot reads at the **applied-LSN
//! watermark**, the pass's position: an `RwLock` holding the pass excludes
//! the applier (writer) from readers, so a read observes exactly the state
//! at `applied_lsn` — never further, because the applier is the sole
//! mutator and it advances the watermark under the same lock.
//!
//! The primary's master record is adopted only once the pass has applied
//! that checkpoint's `CkptEnd` and every page is flushed: the checkpoint's
//! dirty page table describes the *primary's* pages, and after the flush it
//! holds for this directory's too, so a restart here ([`Standby::open`], or
//! `Db::open` after a crash) may seed from it.
//!
//! Promotion is the paper's observation made literal: a standby *is* a
//! database whose restart has run to its end of log. [`Standby::promote`]
//! runs the pass's last step, the undo of in-flight (loser) transactions,
//! on the live engine and hands that engine out read-write.

use ariesim_common::{Error, Lsn, Result, Rid};
use ariesim_db::{Db, DbOptions, Row};
use ariesim_fault::crash_point;
use ariesim_obs::ObsHandle;
use ariesim_recovery::ForwardPass;
use ariesim_txn::Core;
use ariesim_wal::LogManager;
use parking_lot::{Mutex, RwLock};
use std::path::Path;
use std::sync::Arc;

/// Records applied per gate acquisition: readers interleave at this grain.
const APPLY_BATCH: u64 = 32;

/// A replica that runs restart's forward pass over a primary's pulled durable log.
pub struct Standby {
    /// Assembled, never handed out before promotion: the pass below is its
    /// only writer.
    db: Db,
    /// The primary's log, read only through its durable end and its master
    /// record.
    primary: Arc<LogManager>,
    /// Serializes pull+ingest so concurrent pumpers cannot interleave
    /// between reading the ingest point and extending the log, and master
    /// adoptions so an older master never replaces a newer one.
    recv_lock: Mutex<()>,
    /// Restart's forward pass, whose position is the applied-LSN
    /// watermark, and the apply/read exclusion: the applier steps it under
    /// write, readers hold read.
    gate: RwLock<ForwardPass>,
}

impl Standby {
    /// Open a standby over `dir` (a base backup of the primary — see
    /// [`crate::fork_standby`] — or a standby's own directory) that pulls
    /// from `primary`. Seeds the forward pass from the directory's master
    /// record and catches up to the locally durable log before returning,
    /// so the applied watermark is meaningful from the first read.
    pub fn open(
        dir: &Path,
        opts: DbOptions,
        primary: Arc<LogManager>,
        obs: ObsHandle,
    ) -> Result<Arc<Standby>> {
        let db = Db::assemble(dir, opts, obs)?;
        let pass = ForwardPass::seed(&db.core)?;
        let this = Standby {
            db,
            primary,
            recv_lock: Mutex::new(()),
            gate: RwLock::new(pass),
        };
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
        self.gate.read().position()
    }

    /// Durable primary log this standby has not yet applied, in bytes.
    pub fn lag_bytes(&self) -> u64 {
        self.primary
            .flushed_lsn()
            .0
            .saturating_sub(self.applied_lsn().0)
    }

    /// Pull and ingest every durable primary frame past this log's end.
    /// Returns bytes ingested (0 = nothing new) and the primary's master
    /// record as read before the pull. `ingest_frames` checks every frame
    /// and rejects a torn or corrupt one.
    fn recv_once(&self) -> Result<(u64, Lsn)> {
        let _recv = self.recv_lock.lock();
        let log = &self.db.log;
        // Master first, frames second: the primary writes its master only
        // after the named checkpoint's CkptEnd is durable, and its durable
        // end never moves back, so this pull holds that CkptEnd.
        let master = self.primary.read_master()?;
        let at = log.next_lsn();
        let frames = self.primary.read_durable(at)?;
        if !frames.is_empty() {
            log.ingest_frames(at, &frames)?;
            crash_point!("repl.recv.ingested");
        }
        Ok((frames.len() as u64, master))
    }

    /// Step the pass through all ingested log, a batch at a time; readers
    /// interleave between batches. Returns the new applied watermark.
    fn apply_once(&self) -> Result<Lsn> {
        let upto = self.db.log.flushed_lsn();
        loop {
            let mut pass = self.gate.write();
            if pass.step(&self.db.core, upto, APPLY_BATCH)? == 0 {
                return Ok(pass.position());
            }
            drop(pass);
            crash_point!("repl.apply.batch");
        }
    }

    /// Adopt `master`, whose `CkptEnd` the pass has applied: flush every
    /// page, then write the master record (see the module docs).
    fn adopt(&self, master: Lsn) -> Result<()> {
        let _recv = self.recv_lock.lock();
        let log = &self.db.log;
        if master > log.read_master()? {
            self.db.pool.flush_all()?;
            log.write_master(master)?;
        }
        Ok(())
    }

    /// One pull + apply cycle. Sets the replication-lag gauge to the lag
    /// the cycle leaves ([`Standby::lag_bytes`]; see `ariesim_obs::ReplLag`
    /// for the unit semantics).
    pub fn pump(&self) -> Result<u64> {
        let (n, master) = self.recv_once()?;
        let applied = self.apply_once()?;
        self.adopt(master)?;
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

    /// Fail over: finish the forward pass — undo the losers, the primary
    /// transactions whose updates were pulled but whose Commit was not —
    /// on this engine, and hand it out read-write, exactly as if the
    /// primary had crashed here. Consumes the standby (the caller must hold
    /// the only `Arc`). The outcome counts only what promotion did.
    pub fn promote(self: Arc<Self>) -> Result<Arc<Db>> {
        let this = Arc::try_unwrap(self)
            .map_err(|_| Error::Internal("standby still shared at promote".into()))?;
        crash_point!("repl.promote.begin");
        let Standby { mut db, gate, .. } = this;
        let mut pass = gate.into_inner();
        pass.reset_counts();
        // A pump leaves nothing ingested unapplied unless it failed midway.
        pass.step(&db.core, db.log.flushed_lsn(), u64::MAX)?;
        db.restart_outcome = Some(pass.finish(&db.core)?);
        crash_point!("repl.promote.done");
        Ok(Arc::new(db))
    }
}
