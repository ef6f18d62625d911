//! Restart: one forward pass over the log, then undo.

use ariesim_common::stats::Bump;
use ariesim_common::{Error, Lsn, PageBuf, PageId, Result, TxnId};
use ariesim_obs::{recovery_phase, SpanKind};
use ariesim_txn::undo::undo_step;
use ariesim_txn::{Core, RmRegistry};
use ariesim_wal::{ChainLogger, CheckpointData, LogRecord, RecordKind};
use std::collections::HashMap;

/// What restart found and did.
#[derive(Debug, Default)]
pub struct RestartOutcome {
    /// LSN of the checkpoint the forward pass was seeded from (NULL if none).
    pub ckpt_lsn: Lsn,
    /// Where the forward pass began.
    pub redo_start: Lsn,
    /// Records the forward pass decoded, each once.
    pub analyzed: u64,
    /// Redoable records examined / actually reapplied.
    pub redo_seen: u64,
    pub redo_applied: u64,
    /// Loser transactions rolled back by the undo pass.
    pub losers: Vec<TxnId>,
    /// Undo actions dispatched to resource managers.
    pub undone: u64,
    /// Highest transaction id seen; the core's transaction manager hands out
    /// ids above it from here on.
    pub max_txn_id: u64,
}

/// The redo step, shared by restart and media recovery: reapply `rec` to
/// `page`, the image of its page, iff the page has not seen it
/// (`page_lsn < rec.lsn`), and stamp the page with its LSN. Page-oriented:
/// the resource manager touches no other page. Returns whether it applied.
pub(crate) fn redo_step(rms: &RmRegistry, page: &mut PageBuf, rec: &LogRecord) -> Result<bool> {
    if page.page_lsn() >= rec.lsn {
        return Ok(false);
    }
    rms.get(rec.rm)?.redo(page, rec)?;
    page.set_page_lsn(rec.lsn);
    Ok(true)
}

/// Restart's redo of one record: fix its page exclusive, as an update does,
/// and take the redo step on it. Returns whether it applied.
fn redo_record(core: &Core, rec: &LogRecord) -> Result<bool> {
    let mut g = core.pool.fix_x(rec.page)?;
    if !redo_step(&core.rms, &mut g, rec)? {
        return Ok(false);
    }
    g.mark_dirty_raw(rec.lsn);
    core.stats.redo_applied.bump();
    Ok(true)
}

/// Restart's one forward pass, resumable. [`ForwardPass::seed`] reads the
/// checkpoint the master record names; [`ForwardPass::step`] decodes each
/// later record once, redoes it if its page may lack it and keeps the
/// transaction table; [`ForwardPass::finish`] undoes the losers.
/// [`restart`] runs the three back to back. A standby seeds at open, steps
/// as log arrives and finishes when promoted.
pub struct ForwardPass {
    /// The next record to decode.
    at: Lsn,
    /// The seed checkpoint's CkptBegin (NULL without one). A record at or
    /// past it is always redone and updates the transaction table.
    ckpt_begin: Lsn,
    /// The checkpoint's dirty page table, never changed: below
    /// `ckpt_begin` a record is redone only if its page is listed here and
    /// it is at or past that page's recovery LSN.
    dpt: HashMap<PageId, Lsn>,
    /// The transaction table: each transaction that may still need undo,
    /// with the LSN of its last record.
    txns: HashMap<TxnId, Lsn>,
    out: RestartOutcome,
    redo_traversals_before: u64,
}

impl ForwardPass {
    /// Seed the pass from the checkpoint the master record names: its
    /// transaction table, `max_txn_id` and dirty page table, found by a
    /// bounded scan from its CkptBegin to its CkptEnd. The pass starts at
    /// the older of CkptBegin and the oldest recovery LSN. With no master
    /// it starts at the log's first record with empty tables.
    pub fn seed(core: &Core) -> Result<ForwardPass> {
        let log = &core.log;
        let ckpt_begin = log.read_master()?;
        let mut pass = ForwardPass {
            at: log.first_lsn(),
            ckpt_begin,
            dpt: HashMap::new(),
            txns: HashMap::new(),
            out: RestartOutcome::default(),
            // ARIES/IM redo is page-oriented: the pass must add nothing to
            // `redo_traversals` (checked against the monitor in `finish`).
            redo_traversals_before: core.stats.snapshot().redo_traversals,
        };
        if !ckpt_begin.is_null() {
            let end = log
                .scan(ckpt_begin)
                .find(|r| r.as_ref().map_or(true, |r| r.kind == RecordKind::CkptEnd))
                .transpose()?
                .ok_or_else(|| Error::CorruptLog {
                    lsn: ckpt_begin,
                    reason: "the master names a checkpoint with no CkptEnd".into(),
                })?;
            let data = CheckpointData::decode(end.lsn, &end.body)?;
            pass.out.max_txn_id = data.max_txn_id;
            pass.dpt = data.dpt.iter().map(|e| (e.page, e.rec_lsn)).collect();
            pass.at = pass.dpt.values().copied().fold(ckpt_begin, Lsn::min);
            pass.txns = data.txns.iter().map(|t| (t.txn, t.last_lsn)).collect();
        }
        pass.out.ckpt_lsn = ckpt_begin;
        pass.out.redo_start = pass.at;
        // Live progress gauges: phase, current-vs-target LSN, pages redone,
        // losers remaining. Relaxed gauge stores — cheap enough to update
        // per record.
        let prog = &core.obs.gauge.recovery;
        prog.phase.set(recovery_phase::REDO);
        prog.current_lsn.set(pass.at.0);
        prog.target_lsn.set(log.next_lsn().0);
        ariesim_fault::crash_point!("recovery.analysis.done");
        Ok(pass)
    }

    /// The LSN of the next record to decode: everything below it is
    /// applied and tracked.
    pub fn position(&self) -> Lsn {
        self.at
    }

    /// Decode at most `max_records` records of `[position, upto)`, each
    /// once. Returns how many it decoded; `0` means the pass has reached
    /// `upto` (or the end of the log). Never reads at or past `upto`.
    pub fn step(&mut self, core: &Core, upto: Lsn, max_records: u64) -> Result<u64> {
        let prog = &core.obs.gauge.recovery;
        prog.target_lsn.set(upto.0);
        let _span = core.obs.span(SpanKind::Apply, 0, 0);
        let mut scan = core.log.scan(self.at);
        let mut decoded = 0u64;
        while decoded < max_records && scan.position() < upto {
            let Some(rec) = scan.next().transpose()? else {
                break;
            };
            prog.current_lsn.set(rec.lsn.0);
            self.apply(core, &rec)?;
            prog.pages_redone.set(self.out.redo_applied);
            self.at = scan.position();
            decoded += 1;
        }
        Ok(decoded)
    }

    /// One record: redo it if its page may lack it, then, at or past the
    /// seed's CkptBegin, bring its transaction's entry up to date.
    #[deny(clippy::wildcard_enum_match_arm)]
    fn apply(&mut self, core: &Core, rec: &LogRecord) -> Result<()> {
        self.out.analyzed += 1;
        self.out.max_txn_id = self.out.max_txn_id.max(rec.txn.0);
        let tracked = rec.lsn >= self.ckpt_begin;
        if rec.kind.is_redoable() && !rec.page.is_null() {
            self.out.redo_seen += 1;
            core.stats.redo_records_seen.bump();
            let stale = tracked || self.dpt.get(&rec.page).is_some_and(|&l| rec.lsn >= l);
            if stale {
                core.stats.restart_page_reads.bump();
                if redo_record(core, rec)? {
                    self.out.redo_applied += 1;
                    ariesim_fault::crash_point!("recovery.redo.applied");
                }
            }
        }
        if !tracked {
            return Ok(());
        }
        match rec.kind {
            RecordKind::CkptBegin | RecordKind::CkptEnd => {}
            RecordKind::Commit | RecordKind::End => {
                // Commit is forced and ends a committed transaction (commit
                // appends no End); End closes a finished rollback. Either
                // also removes a seeded entry the checkpoint's snapshot
                // took before this record.
                self.txns.remove(&rec.txn);
            }
            RecordKind::Abort => {
                // Undo treats a rollback in progress like any loser: its
                // chain's CLRs skip what is already compensated.
                if let Some(last) = self.txns.get_mut(&rec.txn) {
                    *last = rec.lsn;
                }
            }
            RecordKind::Update | RecordKind::Clr | RecordKind::DummyClr => {
                self.txns.insert(rec.txn, rec.lsn);
            }
        }
        Ok(())
    }

    /// Zero the decode and redo counts, so the outcome [`finish`] returns
    /// counts only what the pass does from here on.
    ///
    /// [`finish`]: ForwardPass::finish
    pub fn reset_counts(&mut self) {
        self.out.analyzed = 0;
        self.out.redo_seen = 0;
        self.out.redo_applied = 0;
    }

    /// Roll back every transaction still in the table in one backward
    /// sweep, largest LSN first, taking rollback's undo step on each
    /// record; force the log and resume transaction ids past the highest
    /// seen. The pass must have reached the end of the log.
    pub fn finish(self, core: &Core) -> Result<RestartOutcome> {
        let Core {
            log,
            rms,
            stats,
            obs,
            ..
        } = core;
        let ForwardPass {
            txns,
            mut out,
            redo_traversals_before,
            ..
        } = self;
        let prog = &obs.gauge.recovery;
        out.losers = txns.keys().copied().collect();
        out.losers.sort();
        // next-undo pointer per loser; process the globally largest LSN first.
        let mut next_undo = txns.clone();
        let mut chain_end = txns;
        prog.phase.set(recovery_phase::UNDO);
        prog.losers_remaining.set(next_undo.len() as u64);

        while let Some((&txn, &lsn)) = next_undo.iter().max_by_key(|(_, &l)| l) {
            let mut logger = ChainLogger::new(log, txn, chain_end[&txn]);
            if lsn.is_null() {
                // This loser is fully undone: write its End record.
                logger.control(RecordKind::End);
                next_undo.remove(&txn);
                chain_end.remove(&txn);
                prog.losers_remaining.set(next_undo.len() as u64);
                continue;
            }
            let (next, undone) = undo_step(rms, &mut logger, &log.read(lsn)?)?;
            chain_end.insert(txn, logger.last_lsn);
            next_undo.insert(txn, next);
            if undone {
                out.undone += 1;
                ariesim_fault::crash_point!("recovery.undo.step");
            }
        }

        log.flush_all()?;
        prog.phase.set(recovery_phase::COMPLETE);
        // Undo appended CLRs and End records, so the end of log moved; republish
        // the target so current == target reads as "done".
        prog.target_lsn.set(log.next_lsn().0);
        prog.current_lsn.set(log.next_lsn().0);
        ariesim_fault::crash_point!("recovery.done");
        obs.monitor
            .on_restart_complete(stats.snapshot().redo_traversals - redo_traversals_before);
        core.tm.resume_txn_ids_after(out.max_txn_id);
        Ok(out)
    }
}

/// Run full restart recovery over `core`, whose resource managers (and the
/// trees logical undo needs) must already be registered: seed, step to the
/// end of the log, finish. Call before any new transaction starts; the core
/// must be freshly opened over the crashed directory.
pub fn restart(core: &Core) -> Result<RestartOutcome> {
    let mut pass = ForwardPass::seed(core)?;
    pass.step(core, core.log.next_lsn(), u64::MAX)?;
    pass.finish(core)
}
