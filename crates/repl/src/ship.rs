//! Primary-side log shipping.
//!
//! The shipper walks the primary's *durable* log image in whole-frame
//! chunks and appends them to the transport. It keeps no durable state of
//! its own: the shipped watermark is volatile, and on restart a new shipper
//! resumes from wherever the transport stream ends — the transport's
//! contiguity check makes double-shipping impossible.

use crate::transport::InProcessTransport;
use ariesim_common::{Lsn, Result};
use ariesim_fault::crash_point;
use ariesim_wal::LogManager;
use std::sync::Arc;

/// Default chunk size: a few pages' worth of log per send.
pub const DEFAULT_CHUNK: usize = 32 * 1024;

/// Streams a primary's durable log into a transport.
pub struct Shipper {
    log: Arc<LogManager>,
    transport: Arc<InProcessTransport>,
    /// Next LSN to ship (everything below is in the transport).
    shipped: Lsn,
    chunk: usize,
}

impl Shipper {
    /// A shipper resuming from the transport's current end (for a fresh
    /// pair this is the stream base = the base-backup boundary).
    pub fn new(log: Arc<LogManager>, transport: Arc<InProcessTransport>) -> Shipper {
        let shipped = transport.end();
        Shipper {
            log,
            transport,
            shipped,
            chunk: DEFAULT_CHUNK,
        }
    }

    /// Override the per-send chunk size (tests use tiny chunks to exercise
    /// partial shipping).
    pub fn with_chunk(mut self, chunk: usize) -> Shipper {
        self.chunk = chunk.max(1);
        self
    }

    /// Durable primary log not yet shipped, in bytes.
    pub fn backlog(&self) -> u64 {
        self.log.flushed_lsn().0.saturating_sub(self.shipped.0)
    }

    /// Ship at most one chunk. Returns the bytes shipped (0 = caught up).
    /// Also forwards the primary's master record whenever the whole log
    /// prefix it points into has been shipped.
    pub fn pump(&mut self) -> Result<u64> {
        let (chunk, next) = self.log.read_durable_chunk(self.shipped, self.chunk)?;
        if !chunk.is_empty() {
            self.transport.send(self.shipped, &chunk)?;
            crash_point!("repl.ship.chunk");
            self.shipped = next;
        }
        let master = self.log.read_master()?;
        if !master.is_null() && master < self.shipped && self.transport.master() != master {
            self.transport.publish_master(master);
        }
        Ok(chunk.len() as u64)
    }

    /// Ship everything currently durable (drain the backlog).
    pub fn ship_all(&mut self) -> Result<u64> {
        let mut total = 0;
        loop {
            let n = self.pump()?;
            if n == 0 {
                return Ok(total);
            }
            total += n;
        }
    }
}
