//! Transaction table, lifecycle, nested top actions, checkpoints.

use crate::undo::undo_chain;
use ariesim_fault::crash_point;
use ariesim_common::{Error, Lsn, Result, TxnId};
use ariesim_lock::LockManager;
use ariesim_obs::SpanKind;
use ariesim_storage::BufferPool;
use ariesim_wal::{
    ChainLogger, CheckpointData, LogManager, LogRecord, RecordKind, ResourceManager, RmId,
    TxnCkptEntry, TxnState,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};

/// Registry of resource managers: one slot per [`RmId`], each set once.
#[derive(Default)]
pub struct RmRegistry {
    slots: [OnceLock<Arc<dyn ResourceManager>>; 4],
}

impl RmRegistry {
    pub fn new() -> RmRegistry {
        RmRegistry::default()
    }

    /// Register `rm` under its id; a second one for the same id is refused.
    pub fn register(&self, rm: Arc<dyn ResourceManager>) -> Result<()> {
        let id = rm.rm_id();
        let twice = |_| Error::Internal(format!("a second resource manager for {id:?}"));
        self.slots[id as usize].set(rm).map_err(twice)
    }

    pub fn get(&self, id: RmId) -> Result<&dyn ResourceManager> {
        let rm = self.slots[id as usize].get().map(|rm| &**rm);
        rm.ok_or_else(|| Error::Internal(format!("no resource manager registered for {id:?}")))
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    Active,
    Aborting,
    /// The Commit record is appended; End is not yet. A checkpoint leaves
    /// the transaction out of its snapshot: the checkpoint's own force makes
    /// the Commit durable before the master moves, so restart must not see
    /// the transaction as in flight even if End is lost.
    Committed,
    Finished,
}

/// What a resource manager asked to run when the transaction ends.
type AtEnd = Box<dyn FnOnce() + Send>;

struct TxnInner {
    /// NULL until the first update, CLR or NTA dummy CLR: while it is, the
    /// transaction is read-only and absent from the log.
    last_lsn: Lsn,
    phase: Phase,
    at_end: Vec<AtEnd>,
}

/// The transactions that have appended to the log and not yet ended: what a
/// checkpoint records. A read-only transaction never enters it.
type Writers = Mutex<HashMap<TxnId, Arc<TxnHandle>>>;

/// A live transaction. Handles are cheap to clone; one transaction is driven
/// by one thread at a time (the engine's sessions model), but the handle is
/// `Send + Sync` so scenario tests can pass transactions across threads.
pub struct TxnHandle {
    pub id: TxnId,
    inner: Mutex<TxnInner>,
    /// This handle, for entering `writers`.
    me: Weak<TxnHandle>,
    /// The manager's table (weak: the table holds the handles it lists).
    writers: Weak<Writers>,
    /// Set once the handle is in `writers`.
    entered: AtomicBool,
}

impl TxnHandle {
    /// Enter the manager's table of writers, if not yet in it. Called just
    /// before an append, with `inner` not held: the checkpoint takes the
    /// table and then each transaction's `inner`, so the reverse order
    /// would deadlock. Entering *before* the first append means a record
    /// that precedes a checkpoint's `CkptBegin` belongs to a transaction
    /// that checkpoint's snapshot sees.
    fn enter(&self) {
        // ordering: only the thread driving the transaction sets or reads the flag; the table's mutex orders the entry itself
        if self.entered.load(Ordering::Relaxed) {
            return;
        }
        if let (Some(me), Some(writers)) = (self.me.upgrade(), self.writers.upgrade()) {
            writers.lock().insert(self.id, me);
        }
        // ordering: as above
        self.entered.store(true, Ordering::Relaxed);
    }

    /// Run `f` once this transaction ends, after commit or total rollback
    /// has released its locks. A resource manager registers here what it
    /// keeps for the transaction (the heap's delete reservations); one that
    /// registers nothing ends without touching anything shared.
    pub fn at_end(&self, f: impl FnOnce() + Send + 'static) {
        self.inner.lock().at_end.push(Box::new(f));
    }

    /// LSN of this transaction's most recent log record.
    pub fn last_lsn(&self) -> Lsn {
        self.inner.lock().last_lsn
    }

    /// Run `f` with this transaction's chain logger; the chain cursor is
    /// written back when `f` returns. This is how resource managers append
    /// correctly linked records.
    pub fn with_logger<R>(
        &self,
        log: &LogManager,
        f: impl FnOnce(&mut ChainLogger<'_>) -> R,
    ) -> R {
        self.enter();
        let mut g = self.inner.lock();
        let mut logger = ChainLogger::new(log, self.id, g.last_lsn);
        let r = f(&mut logger);
        g.last_lsn = logger.last_lsn;
        r
    }

    /// Begin a nested top action: returns the token [`end_nta`](Self::end_nta)
    /// needs (the LSN of the last record written *before* the NTA; paper §1.2).
    pub fn begin_nta(&self) -> Lsn {
        self.inner.lock().last_lsn
    }

    /// End a nested top action by writing the dummy CLR whose
    /// `undo_next_lsn` is the token from [`begin_nta`](Self::begin_nta).
    /// Returns the dummy CLR's LSN.
    pub fn end_nta(&self, log: &LogManager, token: Lsn) -> Lsn {
        self.with_logger(log, |l| l.dummy_clr(token))
    }

    /// Current savepoint: roll back to this with
    /// [`TransactionManager::rollback_to`].
    pub fn savepoint(&self) -> Lsn {
        self.inner.lock().last_lsn
    }

    fn check_active(&self) -> Result<()> {
        Self::active(self.id, &self.inner.lock())
    }

    fn active(txn: TxnId, inner: &TxnInner) -> Result<()> {
        let state = match inner.phase {
            Phase::Active => return Ok(()),
            Phase::Aborting => "aborting",
            Phase::Committed => "committed",
            Phase::Finished => "finished",
        };
        Err(Error::BadTxnState { txn, state })
    }
}

/// The transaction manager. Beginning a transaction takes an id from an
/// atomic counter; a read-only transaction then touches nothing of the
/// manager's again, and its commit or rollback only releases its locks.
pub struct TransactionManager {
    log: Arc<LogManager>,
    locks: Arc<LockManager>,
    pool: Arc<BufferPool>,
    rms: Arc<RmRegistry>,
    next_txn: AtomicU64,
    writers: Arc<Writers>,
}

impl TransactionManager {
    pub fn new(
        log: Arc<LogManager>,
        locks: Arc<LockManager>,
        pool: Arc<BufferPool>,
        rms: Arc<RmRegistry>,
    ) -> TransactionManager {
        TransactionManager {
            log,
            locks,
            pool,
            rms,
            next_txn: AtomicU64::new(1),
            writers: Arc::default(),
        }
    }

    /// Restart recovery tells the manager the highest transaction id seen in
    /// the log, so new ids never collide with pre-crash ones.
    pub fn resume_txn_ids_after(&self, max_seen: u64) {
        // ordering: the counter publishes nothing but itself
        self.next_txn.fetch_max(max_seen + 1, Ordering::Relaxed);
    }

    /// Start a transaction. Appends nothing: the transaction enters the log
    /// with its first update, CLR or NTA dummy CLR, whose `prev_lsn` is NULL,
    /// and the table of writers just before it.
    pub fn begin(&self) -> Arc<TxnHandle> {
        // ordering: as in `resume_txn_ids_after`
        let id = TxnId(self.next_txn.fetch_add(1, Ordering::Relaxed));
        Arc::new_cyclic(|me| TxnHandle {
            id,
            inner: Mutex::new(TxnInner {
                last_lsn: Lsn::NULL,
                phase: Phase::Active,
                at_end: Vec::new(),
            }),
            me: me.clone(),
            writers: Arc::downgrade(&self.writers),
            entered: AtomicBool::new(false),
        })
    }

    /// The end of `txn`, whose locks are released: run what resource
    /// managers registered with [`TxnHandle::at_end`], and leave the table
    /// of writers.
    fn finish(&self, txn: &TxnHandle) {
        let at_end = {
            let mut g = txn.inner.lock();
            g.phase = Phase::Finished;
            std::mem::take(&mut g.at_end)
        };
        for f in at_end {
            f();
        }
        // ordering: see `TxnHandle::enter`
        if txn.entered.load(Ordering::Relaxed) {
            self.writers.lock().remove(&txn.id);
        }
    }

    /// Commit: write and **force** the commit record, then release locks.
    /// (The force is the only synchronous I/O a transaction requires — the
    /// paper's §1 efficiency measure.) No End follows: restart reads the
    /// forced Commit as the transaction's end, so an End record would carry
    /// nothing. A read-only transaction — one whose chain logger never
    /// appended — only releases its locks: it changed nothing, so it needs
    /// no Commit and no force, and stays absent from the log and from the
    /// table of writers.
    pub fn commit(&self, txn: &TxnHandle) -> Result<()> {
        // The commit window is user work; its WAL append and fsync spans
        // nest inside it and claim their own time.
        let _span = self.pool.obs().span(SpanKind::UserWork, txn.id.0, 0);
        // Append Commit and leave `Active` in one critical section, so a
        // checkpoint's snapshot sees either an active transaction whose
        // Commit follows its CkptBegin, or a committed one it must skip.
        let commit_lsn = {
            let mut g = txn.inner.lock();
            TxnHandle::active(txn.id, &g)?;
            g.phase = Phase::Committed;
            let wrote = !g.last_lsn.is_null();
            if wrote {
                g.last_lsn =
                    ChainLogger::new(&self.log, txn.id, g.last_lsn).control(RecordKind::Commit);
            }
            wrote.then_some(g.last_lsn)
        };
        crash_point!("txn.commit.logged");
        if let Some(lsn) = commit_lsn {
            self.log.flush_to(lsn)?;
        }
        crash_point!("txn.commit.forced");
        self.locks.release_all(txn.id);
        self.finish(txn);
        Ok(())
    }

    /// Total rollback: undo the whole chain, then release locks and End (a
    /// read-only transaction appends neither Abort nor End).
    ///
    /// Per paper §4, the undo path requests **no locks** (only latches), so a
    /// rolling-back transaction can never join a deadlock.
    pub fn rollback(&self, txn: &TxnHandle) -> Result<()> {
        {
            let mut g = txn.inner.lock();
            if matches!(g.phase, Phase::Committed | Phase::Finished) {
                TxnHandle::active(txn.id, &g)?;
            }
            g.phase = Phase::Aborting;
        }
        self.log_control(txn, RecordKind::Abort);
        crash_point!("txn.rollback.logged");
        let last = txn.last_lsn();
        let new_last = undo_chain(&self.log, &self.rms, txn.id, last, Lsn::NULL, false)?;
        crash_point!("txn.rollback.undone");
        {
            let mut g = txn.inner.lock();
            g.last_lsn = new_last;
        }
        self.locks.release_all(txn.id);
        self.log_control(txn, RecordKind::End);
        self.finish(txn);
        Ok(())
    }

    /// Append a control record unless `txn` is read-only (absent from the
    /// log, and so from the table of writers).
    fn log_control(&self, txn: &TxnHandle, kind: RecordKind) {
        let mut g = txn.inner.lock();
        if !g.last_lsn.is_null() {
            g.last_lsn = ChainLogger::new(&self.log, txn.id, g.last_lsn).control(kind);
        }
    }

    /// Partial rollback to a savepoint taken with [`TxnHandle::savepoint`]:
    /// undoes every record after it; the transaction stays active and keeps
    /// its locks (ARIES partial-rollback semantics).
    pub fn rollback_to(&self, txn: &TxnHandle, savepoint: Lsn) -> Result<()> {
        txn.check_active()?;
        let last = txn.last_lsn();
        let new_last = undo_chain(&self.log, &self.rms, txn.id, last, savepoint, false)?;
        txn.inner.lock().last_lsn = new_last;
        Ok(())
    }

    /// Take a fuzzy checkpoint: begin record, snapshot of DPT + transaction
    /// table, end record, master pointer. Nothing is quiesced or flushed.
    pub fn checkpoint(&self) -> Result<Lsn> {
        let begin_lsn = self.log.append(&LogRecord {
            lsn: Lsn::NULL,
            prev_lsn: Lsn::NULL,
            txn: TxnId::NONE,
            kind: RecordKind::CkptBegin,
            undo_next_lsn: Lsn::NULL,
            rm: RmId::Txn,
            page: ariesim_common::PageId::NULL,
            body: Vec::new(),
        });
        crash_point!("txn.ckpt.begin_logged");
        let dpt = self.pool.dpt_snapshot_fenced();
        // ordering: as in `resume_txn_ids_after`; an id taken after this load belongs to a transaction whose records follow CkptBegin
        let max_txn_id = self.next_txn.load(Ordering::Relaxed) - 1;
        let txns = {
            // A committed or finished transaction's Commit / End precedes
            // CkptEnd, which the force below makes durable with it. One that
            // has not appended has nothing to undo; restart's forward pass
            // meets any later first record, since it tracks from CkptBegin.
            self.writers
                .lock()
                .values()
                .filter_map(|t| {
                    let ti = t.inner.lock();
                    if ti.last_lsn.is_null() {
                        return None;
                    }
                    let state = match ti.phase {
                        Phase::Active => TxnState::InFlight,
                        Phase::Aborting => TxnState::Aborting,
                        Phase::Committed | Phase::Finished => return None,
                    };
                    Some(TxnCkptEntry {
                        txn: t.id,
                        state,
                        last_lsn: ti.last_lsn,
                        undo_next_lsn: ti.last_lsn,
                    })
                })
                .collect()
        };
        let data = CheckpointData {
            dpt,
            txns,
            max_txn_id,
        };
        let end = self.log.append(&LogRecord {
            lsn: Lsn::NULL,
            prev_lsn: Lsn::NULL,
            txn: TxnId::NONE,
            kind: RecordKind::CkptEnd,
            undo_next_lsn: Lsn::NULL,
            rm: RmId::Txn,
            page: ariesim_common::PageId::NULL,
            body: data.encode(),
        });
        crash_point!("txn.ckpt.end_logged");
        self.log.flush_to(end)?;
        self.log.write_master(begin_lsn)?;
        crash_point!("txn.ckpt.master_written");
        Ok(begin_lsn)
    }

    /// Number of live transactions that have appended to the log: the
    /// ones a checkpoint records. Read-only transactions are not counted.
    pub fn active_count(&self) -> usize {
        self.writers.lock().len()
    }
}
