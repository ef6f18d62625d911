//! The three restart passes.

use ariesim_common::stats::Bump;
use ariesim_common::{Lsn, PageId, Result, TxnId};
use ariesim_obs::{recovery_phase, SpanKind};
use ariesim_storage::PinGuard;
use ariesim_txn::Core;
use ariesim_wal::{ChainLogger, CheckpointData, LogRecord, RecordKind, TxnState};
use std::collections::{HashMap, HashSet};

/// What restart found and did.
#[derive(Debug, Default)]
pub struct RestartOutcome {
    /// LSN of the checkpoint the analysis pass started from (NULL if none).
    pub ckpt_lsn: Lsn,
    /// Where the redo pass began.
    pub redo_start: Lsn,
    /// Records examined by analysis.
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

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TState {
    InFlight,
    Aborting,
}

struct TEntry {
    state: TState,
    last_lsn: Lsn,
}

/// The redo step, shared by restart's redo pass and continuous redo: X-latch
/// the record's page and reapply the record iff the page has not seen it
/// (`page_lsn < rec.lsn`) — page-oriented, never a traversal. Returns whether
/// it was applied.
///
/// Redo hits the same page in runs (updates cluster); `pinned` is a
/// one-entry pin cache that re-latches those through the pin (one atomic)
/// instead of a page-table probe per record, and keeps the frame resident
/// between consecutive records against it.
pub(crate) fn redo_record<'p>(
    core: &'p Core,
    pinned: &mut Option<PinGuard<'p>>,
    rec: &LogRecord,
) -> Result<bool> {
    let pin = match pinned.take() {
        Some(p) if p.page() == rec.page => p,
        _ => core.pool.pin(rec.page)?,
    };
    let mut g = pin.latch_x()?;
    *pinned = Some(pin);
    if g.page_lsn() >= rec.lsn {
        return Ok(false);
    }
    core.rms.get(rec.rm)?.redo(&mut g, rec)?;
    g.record_update(rec.lsn);
    core.stats.redo_applied.bump();
    Ok(true)
}

/// Run full restart recovery over `core`, whose resource managers (and the
/// trees logical undo needs) must already be registered. Call before any new
/// transaction starts; the core must be freshly opened over the crashed
/// directory.
#[deny(clippy::wildcard_enum_match_arm)]
pub fn restart(core: &Core) -> Result<RestartOutcome> {
    let Core {
        log,
        rms,
        stats,
        obs,
        ..
    } = core;
    let mut out = RestartOutcome::default();
    // ARIES/IM redo is page-oriented: this restart must add nothing to
    // `redo_traversals` (checked against the monitor at the end).
    let redo_traversals_before = stats.snapshot().redo_traversals;

    // ---------------- Analysis ------------------------------------------------
    let ckpt_lsn = log.read_master()?;
    out.ckpt_lsn = ckpt_lsn;
    let scan_from = if ckpt_lsn.is_null() {
        log.first_lsn()
    } else {
        ckpt_lsn
    };
    let mut txns: HashMap<TxnId, TEntry> = HashMap::new();
    // Transactions whose Commit or End lies between CkptBegin and CkptEnd:
    // the checkpoint's snapshot may predate it, and must not revive them.
    let mut ended: HashSet<TxnId> = HashSet::new();
    let mut dpt: HashMap<PageId, Lsn> = HashMap::new();
    let mut ckpt_seen = ckpt_lsn.is_null();

    // Live progress for `--progress` samplers: phase, current-vs-target
    // LSN, pages redone, losers remaining. Relaxed gauge stores — cheap
    // enough to update per record.
    let prog = &obs.gauge.recovery;
    prog.phase.set(recovery_phase::ANALYSIS);
    prog.target_lsn.set(log.next_lsn().0);
    prog.current_lsn.set(scan_from.0);

    for rec in log.scan(scan_from) {
        let rec = rec?;
        out.analyzed += 1;
        prog.current_lsn.set(rec.lsn.0);
        out.max_txn_id = out.max_txn_id.max(rec.txn.0);
        match rec.kind {
            RecordKind::CkptBegin => {}
            RecordKind::CkptEnd => {
                if !ckpt_seen {
                    // Merge the checkpoint's fuzzy tables. For the DPT the
                    // OLDER rec_lsn must win: rec_lsn is the oldest possibly-
                    // unapplied update, and records scanned between CkptBegin
                    // and CkptEnd may have inserted a newer one for a page
                    // the checkpoint knew was dirty much earlier. (Taking the
                    // newer value made redo start too late and skip, e.g., a
                    // page-format record — caught by the fuzzy-checkpoint
                    // crash test.)
                    let data = CheckpointData::decode(rec.lsn, &rec.body)?;
                    out.max_txn_id = out.max_txn_id.max(data.max_txn_id);
                    for e in data.dpt {
                        dpt.entry(e.page)
                            .and_modify(|l| *l = (*l).min(e.rec_lsn))
                            .or_insert(e.rec_lsn);
                    }
                    for t in data.txns.into_iter().filter(|t| !ended.contains(&t.txn)) {
                        txns.entry(t.txn).or_insert(TEntry {
                            state: match t.state {
                                TxnState::Aborting => TState::Aborting,
                                TxnState::InFlight => TState::InFlight,
                            },
                            last_lsn: t.last_lsn,
                        });
                    }
                    ckpt_seen = true;
                }
            }
            RecordKind::Commit | RecordKind::End => {
                // Commit is forced and ends a committed transaction (commit
                // appends no End); End closes a finished rollback.
                txns.remove(&rec.txn);
                if !ckpt_seen {
                    ended.insert(rec.txn);
                }
            }
            RecordKind::Abort => {
                if let Some(t) = txns.get_mut(&rec.txn) {
                    t.state = TState::Aborting;
                    t.last_lsn = rec.lsn;
                }
            }
            RecordKind::Update | RecordKind::Clr | RecordKind::DummyClr => {
                let t = txns.entry(rec.txn).or_insert(TEntry {
                    state: TState::InFlight,
                    last_lsn: rec.lsn,
                });
                t.last_lsn = rec.lsn;
                if rec.kind.is_redoable() && !rec.page.is_null() {
                    dpt.entry(rec.page).or_insert(rec.lsn);
                }
            }
        }
    }

    ariesim_fault::crash_point!("recovery.analysis.done");

    // ---------------- Redo: repeat history ------------------------------------
    let redo_start = dpt.values().copied().min().unwrap_or(log.next_lsn());
    out.redo_start = redo_start;
    prog.phase.set(recovery_phase::REDO);
    prog.current_lsn.set(redo_start.0);
    let redo_span = obs.span(SpanKind::Apply, 0, 0);
    let mut pinned = None;
    for rec in log.scan(redo_start) {
        let rec = rec?;
        prog.current_lsn.set(rec.lsn.0);
        if !rec.kind.is_redoable() || rec.page.is_null() {
            continue;
        }
        out.redo_seen += 1;
        stats.redo_records_seen.bump();
        let Some(&rec_lsn) = dpt.get(&rec.page) else {
            continue; // page was never (possibly) stale
        };
        if rec.lsn < rec_lsn {
            continue; // older than the page's first possibly-missing update
        }
        stats.restart_page_reads.bump();
        if redo_record(core, &mut pinned, &rec)? {
            out.redo_applied += 1;
            prog.pages_redone.set(out.redo_applied);
            ariesim_fault::crash_point!("recovery.redo.applied");
        }
    }
    drop(redo_span);

    // ---------------- Undo: roll back losers in one backward sweep -----------
    // next-undo pointer per loser; process the globally largest LSN first.
    let mut next_undo: HashMap<TxnId, Lsn> = HashMap::new();
    let mut chain_end: HashMap<TxnId, Lsn> = HashMap::new();
    for (txn, t) in &txns {
        next_undo.insert(*txn, t.last_lsn);
        chain_end.insert(*txn, t.last_lsn);
        out.losers.push(*txn);
    }
    out.losers.sort();
    prog.phase.set(recovery_phase::UNDO);
    prog.losers_remaining.set(next_undo.len() as u64);

    while let Some((&txn, &lsn)) = next_undo.iter().max_by_key(|(_, &l)| l) {
        if lsn.is_null() {
            // This loser is fully undone: write its End record.
            let mut logger = ChainLogger::for_restart(log, txn, chain_end[&txn]);
            logger.control(RecordKind::End);
            next_undo.remove(&txn);
            chain_end.remove(&txn);
            prog.losers_remaining.set(next_undo.len() as u64);
            continue;
        }
        let rec: LogRecord = log.read(lsn)?;
        debug_assert_eq!(rec.txn, txn);
        match rec.kind {
            RecordKind::Update => {
                let mut logger = ChainLogger::for_restart(log, txn, chain_end[&txn]);
                let rm = rms.get(rec.rm)?;
                rm.undo(&mut logger, &rec)?;
                out.undone += 1;
                chain_end.insert(txn, logger.last_lsn);
                next_undo.insert(txn, rec.prev_lsn);
                ariesim_fault::crash_point!("recovery.undo.step");
            }
            RecordKind::Clr | RecordKind::DummyClr => {
                next_undo.insert(txn, rec.undo_next_lsn);
            }
            RecordKind::Commit
            | RecordKind::Abort
            | RecordKind::End
            | RecordKind::CkptBegin
            | RecordKind::CkptEnd => {
                next_undo.insert(txn, rec.prev_lsn);
            }
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
