//! Continuous redo — restart's redo pass as a resumable, steady-state
//! operation.
//!
//! A log-shipping standby is the observation that ARIES/IM redo *is* the
//! standby's whole job: repeat history, page-oriented, forever. This module
//! drives the redo step of [`crate::restart`] in incremental form: a
//! [`RedoCursor`] remembers where the stream stands, and [`apply_redo`]
//! advances it by a bounded number of records. There is no dirty page table
//! here — with nothing known about which pages are stale, the `page_lsn`
//! comparison alone decides idempotently, exactly as the paper's redo rule
//! allows (the DPT is a restart-time *optimization*, not a correctness
//! requirement).
//!
//! The caller owns scheduling and read/apply exclusion; this code only
//! guarantees that applying `[cursor.at, upto)` in order, any number of
//! records at a time, produces the same pages as one uninterrupted redo
//! sweep.

use crate::restart::redo_record;
use ariesim_common::stats::Bump;
use ariesim_common::{Lsn, Result};
use ariesim_txn::Core;

/// Position of a continuous-redo stream, plus running totals.
#[derive(Debug, Clone, Copy)]
pub struct RedoCursor {
    /// Next LSN to examine. Everything below is applied (or was already
    /// reflected in the pages, per their `page_lsn`).
    pub at: Lsn,
    /// Redoable records examined so far.
    pub seen: u64,
    /// Records actually reapplied (page was behind).
    pub applied: u64,
}

impl RedoCursor {
    /// A cursor at `at` with zeroed counters.
    pub fn starting_at(at: Lsn) -> RedoCursor {
        RedoCursor {
            at,
            seen: 0,
            applied: 0,
        }
    }
}

/// Advance `cursor` through `[cursor.at, upto)`, applying at most
/// `max_records` log records (of any kind; non-redoable ones just move the
/// cursor). Returns the number of records examined — `0` means the cursor
/// is caught up to `upto`. Never reads at or past `upto`, so a standby can
/// pass its shipped-log boundary and be certain redo only consumes frames
/// that are locally durable.
pub fn apply_redo(
    core: &Core,
    cursor: &mut RedoCursor,
    upto: Lsn,
    max_records: u64,
) -> Result<u64> {
    let mut examined = 0u64;
    let mut iter = core.log.scan(cursor.at);
    let mut pinned = None;
    loop {
        if examined >= max_records || iter.position() >= upto {
            break;
        }
        let Some(rec) = iter.next() else { break };
        let rec = rec?;
        examined += 1;
        cursor.at = iter.position();
        if !rec.kind.is_redoable() || rec.page.is_null() {
            continue;
        }
        cursor.seen += 1;
        core.stats.redo_records_seen.bump();
        if redo_record(core, &mut pinned, &rec)? {
            cursor.applied += 1;
        }
    }
    // scan() clamps a NULL start to the first LSN; mirror that so a fresh
    // cursor reports a real position even when the log is empty.
    cursor.at = cursor.at.max(iter.position().min(upto));
    Ok(examined)
}
