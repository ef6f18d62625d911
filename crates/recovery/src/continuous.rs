//! Continuous redo — restart's redo pass as a resumable, steady-state
//! operation.
//!
//! A log-shipping standby is the observation that ARIES/IM redo *is* the
//! standby's whole job: repeat history, page-oriented, forever. This module
//! drives the redo step of [`crate::restart`] in incremental form:
//! [`apply_redo`] advances a caller-held position by a bounded number of
//! records. There is no dirty page table here — with nothing known about
//! which pages are stale, the `page_lsn` comparison alone decides
//! idempotently, exactly as the paper's redo rule allows (the DPT is a
//! restart-time *optimization*, not a correctness requirement).
//!
//! The caller owns the position, scheduling and read/apply exclusion; this
//! code only guarantees that applying `[at, upto)` in order, any number of
//! records at a time, produces the same pages as one uninterrupted redo
//! sweep.

use crate::restart::redo_record;
use ariesim_common::stats::Bump;
use ariesim_common::{Lsn, Result};
use ariesim_txn::Core;

/// Advance `at` through `[at, upto)`, applying at most `max_records` log
/// records (of any kind; non-redoable ones just move the position).
/// Everything below `at` is applied (or was already reflected in the
/// pages, per their `page_lsn`). Returns the number of records examined —
/// `0` means `at` is caught up to `upto`. Never reads at or past `upto`,
/// so a standby can pass its ingested-log boundary and be certain redo
/// only consumes frames that are locally durable.
pub fn apply_redo(core: &Core, at: &mut Lsn, upto: Lsn, max_records: u64) -> Result<u64> {
    let mut examined = 0u64;
    let mut iter = core.log.scan(*at);
    let mut pinned = None;
    loop {
        if examined >= max_records || iter.position() >= upto {
            break;
        }
        let Some(rec) = iter.next() else { break };
        let rec = rec?;
        examined += 1;
        *at = iter.position();
        if !rec.kind.is_redoable() || rec.page.is_null() {
            continue;
        }
        core.stats.redo_records_seen.bump();
        redo_record(core, &mut pinned, &rec)?;
    }
    // scan() clamps a NULL start to the first LSN; mirror that so a fresh
    // position is a real one even when the log is empty.
    *at = (*at).max(iter.position().min(upto));
    Ok(examined)
}
