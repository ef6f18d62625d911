//! `ariesim-repl` — log-shipping replication for the ARIES/IM stack.
//!
//! The design follows directly from two properties of the engine:
//!
//! 1. **LSNs are byte offsets** into the log file, so a standby whose log
//!    is a byte-identical prefix of the primary's can use primary LSNs
//!    verbatim — in page LSNs, in the master record, everywhere.
//! 2. **Redo is page-oriented and idempotent** (the `page_lsn` test), so
//!    "continuously apply shipped log" is restart's redo pass running
//!    forever, with no analysis and no dirty page table.
//!
//! The pieces:
//!
//! * [`InProcessTransport`] ([`transport`]) — the shipped byte stream,
//!   plus the out-of-band master record.
//! * [`Shipper`] ([`ship`]) — walks the primary's durable log in
//!   whole-frame chunks; stateless across restarts.
//! * [`Standby`] ([`standby`]) — ingests chunks into its own (durable)
//!   log, continuously redoes them, serves latch-only snapshot reads at
//!   the applied-LSN watermark, and promotes by completing recovery.
//! * [`fork_standby`] / [`ReplPair`] — base-backup provisioning and a
//!   harness-friendly bundle of the three.
//!
//! Shipping is asynchronous: a primary commit does not wait for the
//! standby. A failover that must lose no committed transaction therefore
//! drains the channel first ([`ReplPair::sync`]); an unplanned failover
//! recovers exactly what was shipped, the replication analogue of losing
//! the unflushed log tail in a crash.

pub mod ship;
pub mod standby;
pub mod transport;

pub use ship::Shipper;
pub use standby::Standby;
pub use transport::InProcessTransport;

use ariesim_common::{Error, Lsn, Result};
use ariesim_db::Db;
use ariesim_obs::ObsHandle;
use parking_lot::Mutex;
use std::path::Path;
use std::sync::Arc;

/// Provision a standby from a quiesced primary: checkpoint, flush
/// everything, copy the database directory, and open a [`Standby`] over
/// the copy with a shipper resuming at the copy's log end. The primary
/// must have no active transactions (base backup by copy is only
/// byte-stable on a quiesced engine; a fuzzy backup would use
/// `ariesim_recovery::media` instead).
pub fn fork_standby(
    primary: &Arc<Db>,
    standby_dir: &Path,
    obs: ObsHandle,
) -> Result<(Arc<Standby>, Shipper)> {
    if primary.tm.active_count() != 0 {
        return Err(Error::Internal(
            "fork_standby requires a quiesced primary (active transactions)".into(),
        ));
    }
    primary.checkpoint()?;
    primary.log.flush_all()?;
    primary.pool.flush_all()?;
    let transport = Arc::new(InProcessTransport::new(primary.log.flushed_lsn()));
    copy_flat_dir(primary.dir(), standby_dir)?;
    let standby = Standby::open(
        standby_dir,
        primary.options().clone(),
        transport.clone(),
        obs,
    )?;
    let shipper = Shipper::new(primary.log.clone(), transport);
    Ok((standby, shipper))
}

/// A primary, its standby, and the shipper between them — the bundle the
/// replication tests and the torture matrix drive.
pub struct ReplPair {
    pub primary: Arc<Db>,
    pub standby: Arc<Standby>,
    shipper: Mutex<Shipper>,
}

impl ReplPair {
    /// Fork a standby of `primary` into `standby_dir` over an in-process
    /// transport. See [`fork_standby`] for the quiescence requirement.
    pub fn create(
        primary: Arc<Db>,
        standby_dir: &Path,
        standby_obs: ObsHandle,
    ) -> Result<ReplPair> {
        let (standby, shipper) = fork_standby(&primary, standby_dir, standby_obs)?;
        Ok(ReplPair {
            primary,
            standby,
            shipper: Mutex::new(shipper),
        })
    }

    /// One replication cycle: ship at most one chunk, ingest and apply it.
    /// Returns bytes shipped (0 = channel idle and standby caught up).
    ///
    /// Gauges the lag the cycle *found* first: the pair sees the primary's
    /// durable log end, which the transport-only view inside
    /// [`Standby::pump`] cannot (that view never exceeds the shipped
    /// prefix). `repl_lag_*.max()` over a run is therefore the true
    /// high-water backlog; `.last()` is the settled post-apply state.
    pub fn pump(&self) -> Result<u64> {
        self.standby.obs().gauge.repl_lag.set_watermarks(
            self.primary.log.flushed_lsn().0,
            self.standby.applied_lsn().0,
        );
        let shipped = self.shipper.lock().pump()?;
        self.standby.pump()?;
        Ok(shipped)
    }

    /// Drain: ship and apply until the standby's watermark reaches the
    /// primary's durable log end (flushes the primary's log first, so a
    /// preceding commit is always covered).
    pub fn sync(&self) -> Result<Lsn> {
        self.primary.log.flush_all()?;
        loop {
            let shipped = self.shipper.lock().ship_all()?;
            self.standby.pump()?;
            if shipped == 0 && self.standby.applied_lsn() >= self.primary.log.flushed_lsn() {
                return Ok(self.standby.applied_lsn());
            }
        }
    }

    /// Durable primary log the standby has not yet applied, in bytes.
    pub fn lag_bytes(&self) -> u64 {
        self.primary
            .log
            .flushed_lsn()
            .0
            .saturating_sub(self.standby.applied_lsn().0)
    }

    /// Tear the pair apart (e.g. to drop the primary and promote).
    pub fn into_parts(self) -> (Arc<Db>, Arc<Standby>, Shipper) {
        (self.primary, self.standby, self.shipper.into_inner())
    }
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
