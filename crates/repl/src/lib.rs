//! `ariesim-repl` — log-shipping replication for the ARIES/IM stack.
//!
//! The design follows directly from two properties of the engine:
//!
//! 1. **LSNs are byte offsets** into the log file, so a standby whose log
//!    is a byte-identical prefix of the primary's can use primary LSNs
//!    verbatim — in page LSNs, in the master record, everywhere.
//! 2. **Restart is one resumable forward pass** (redo is page-oriented and
//!    idempotent), so "continuously apply pulled log" is restart left
//!    running, and failover is its undo.
//!
//! The pieces:
//!
//! * [`fork_standby`] — base backup by copying a quiesced primary's
//!   directory.
//! * [`Standby`] ([`standby`]) — pulls the primary's durable log into its
//!   own log, runs the forward pass over it, serves latch-only snapshot
//!   reads at the applied-LSN watermark, and promotes by undoing losers.
//!
//! Replication is asynchronous: a primary commit does not wait for the
//! standby. A failover that must lose no committed transaction therefore
//! drains first ([`Standby::sync`]); an unplanned failover recovers exactly
//! what was pulled, the replication analogue of losing the unflushed log
//! tail in a crash.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod standby;

pub use standby::Standby;

use ariesim_common::{Error, Result};
use ariesim_db::Db;
use ariesim_obs::ObsHandle;
use std::path::Path;
use std::sync::Arc;

/// Provision a standby from a quiesced primary: checkpoint, flush
/// everything, copy the database directory, and open a [`Standby`] over
/// the copy that pulls from the primary's log. The primary must have no
/// writer in flight — no transaction that has appended and not ended (base
/// backup by copy is only byte-stable on a quiesced engine; a fuzzy backup
/// would use `ariesim_recovery::media` instead). Readers in flight do not
/// count: they have appended nothing.
pub fn fork_standby(primary: &Arc<Db>, standby_dir: &Path, obs: ObsHandle) -> Result<Arc<Standby>> {
    if primary.tm.active_count() != 0 {
        return Err(Error::Internal(
            "fork_standby requires a quiesced primary (writers in flight)".into(),
        ));
    }
    primary.checkpoint()?;
    primary.log.flush_all()?;
    primary.pool.flush_all()?;
    copy_flat_dir(primary.dir(), standby_dir)?;
    Standby::open(
        standby_dir,
        primary.options().clone(),
        primary.log.clone(),
        obs,
    )
}

/// Copy the regular files of `src` into `dst` (database directories are
/// flat: wal, wal.master, pages).
fn copy_flat_dir(src: &Path, dst: &Path) -> Result<()> {
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), dst.join(entry.file_name()))?;
        }
    }
    Ok(())
}
