//! The log channel between primary and standby.
//!
//! The transport is a byte stream addressed by primary LSN: `send` appends
//! a chunk of whole WAL frames at a stream position, `recv` reads
//! everything from one. Because LSNs are byte offsets into the primary's
//! log, "stream position" and "LSN" are the same number, and the transport
//! never needs to parse what it carries. The shipper only ever sends whole
//! frames, so everything `recv` returns is whole frames too.
//!
//! The transport also carries the primary's **master record** (checkpoint
//! pointer) out of band, so a standby can start its promotion analysis from
//! the last shipped checkpoint instead of the log's beginning.

use ariesim_common::{Error, Lsn, Result};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// In-process transport: a growable buffer based at the LSN where shipping
/// began (the standby's base backup already holds everything below).
/// `send` and `recv` may race from different threads.
pub struct InProcessTransport {
    base: Lsn,
    buf: Mutex<Vec<u8>>,
    master: AtomicU64,
}

impl InProcessTransport {
    pub fn new(base: Lsn) -> InProcessTransport {
        InProcessTransport {
            base,
            buf: Mutex::new(Vec::new()),
            master: AtomicU64::new(Lsn::NULL.0),
        }
    }

    /// Append `chunk` at stream position `at`. Positions must be
    /// contiguous: `at` is exactly where the previous send ended (or the
    /// stream's base for the first send).
    pub fn send(&self, at: Lsn, chunk: &[u8]) -> Result<()> {
        let mut buf = self.buf.lock();
        let end = Lsn(self.base.0 + buf.len() as u64);
        if at != end {
            return Err(Error::Internal(format!(
                "transport send at {at}, stream ends at {end}"
            )));
        }
        buf.extend_from_slice(chunk);
        Ok(())
    }

    /// Everything in the stream from `at` on. Empty means nothing new.
    pub fn recv(&self, at: Lsn) -> Result<Vec<u8>> {
        let buf = self.buf.lock();
        if at < self.base {
            return Err(Error::Internal(format!(
                "transport recv at {at}, below stream base {}",
                self.base
            )));
        }
        let off = ((at.0 - self.base.0) as usize).min(buf.len());
        Ok(buf[off..].to_vec())
    }

    /// One past the last byte in the stream (= the next send position).
    pub fn end(&self) -> Lsn {
        Lsn(self.base.0 + self.buf.lock().len() as u64)
    }

    /// Publish the primary's master record (checkpoint LSN).
    pub fn publish_master(&self, ckpt: Lsn) {
        // ordering: the master record only advances after its checkpoint is in the buffer (Mutex-published)
        self.master.store(ckpt.0, Ordering::Release);
    }

    /// The most recently published master record; NULL if none yet.
    pub fn master(&self) -> Lsn {
        Lsn(self.master.load(Ordering::Acquire)) // ordering: pairs with the Release in publish_master
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_process_stream() {
        let base = Lsn(1000);
        let t = InProcessTransport::new(base);
        assert_eq!(t.end(), base);
        assert!(t.recv(base).unwrap().is_empty());
        t.send(base, b"hello ").unwrap();
        t.send(Lsn(base.0 + 6), b"world").unwrap();
        // Gap and overlap rejected.
        assert!(t.send(Lsn(base.0 + 100), b"x").is_err());
        assert!(t.send(base, b"x").is_err());
        assert!(t.recv(Lsn(base.0 - 1)).is_err());
        assert_eq!(t.end(), Lsn(base.0 + 11));
        assert_eq!(t.recv(base).unwrap(), b"hello world");
        assert_eq!(t.recv(Lsn(base.0 + 6)).unwrap(), b"world");
        assert!(t.recv(Lsn(base.0 + 11)).unwrap().is_empty());
        assert_eq!(t.master(), Lsn::NULL);
        t.publish_master(Lsn(42));
        assert_eq!(t.master(), Lsn(42));
    }
}
