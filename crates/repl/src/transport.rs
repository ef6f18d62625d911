//! The log channel between primary and standby.
//!
//! A transport is a byte stream addressed by primary LSN: `send` appends a
//! chunk of whole WAL frames at a stream position, `recv` reads from one.
//! Because LSNs are byte offsets into the primary's log, "stream position"
//! and "LSN" are the same number, and the transport never needs to parse
//! what it carries. Two implementations: an in-process buffer (tests, the
//! torture matrix) and a spool file (two engines sharing only a
//! filesystem, the closest this reproduction gets to a network).
//!
//! The transport also carries the primary's **master record** (checkpoint
//! pointer) out of band, so a standby can start its promotion analysis from
//! the last shipped checkpoint instead of the log's beginning.

use ariesim_common::{Error, Lsn, Result};
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A shippable log stream. Implementations must tolerate `send` and `recv`
/// racing from different threads.
pub trait LogTransport: Send + Sync {
    /// Append `chunk` at stream position `at`. Positions must be
    /// contiguous: `at` is exactly where the previous send ended (or the
    /// stream's base for the first send).
    fn send(&self, at: Lsn, chunk: &[u8]) -> Result<()>;

    /// Read up to `max` bytes starting at `at`. Empty means nothing new.
    /// Short reads are normal; the result is always whole bytes of the
    /// stream, never padded.
    fn recv(&self, at: Lsn, max: usize) -> Result<Vec<u8>>;

    /// One past the last byte in the stream (= the next send position).
    fn end(&self) -> Result<Lsn>;

    /// Publish the primary's master record (checkpoint LSN).
    fn publish_master(&self, ckpt: Lsn) -> Result<()>;

    /// The most recently published master record; NULL if none yet.
    fn master(&self) -> Result<Lsn>;
}

/// In-process transport: a growable buffer based at the LSN where shipping
/// began (the standby's base backup already holds everything below).
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
}

impl LogTransport for InProcessTransport {
    fn send(&self, at: Lsn, chunk: &[u8]) -> Result<()> {
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

    fn recv(&self, at: Lsn, max: usize) -> Result<Vec<u8>> {
        let buf = self.buf.lock();
        if at < self.base {
            return Err(Error::Internal(format!(
                "transport recv at {at}, below stream base {}",
                self.base
            )));
        }
        let off = (at.0 - self.base.0) as usize;
        if off >= buf.len() {
            return Ok(Vec::new());
        }
        let to = (off + max).min(buf.len());
        Ok(buf[off..to].to_vec())
    }

    fn end(&self) -> Result<Lsn> {
        Ok(Lsn(self.base.0 + self.buf.lock().len() as u64))
    }

    fn publish_master(&self, ckpt: Lsn) -> Result<()> {
        // ordering: the master record only advances after its checkpoint is in the buffer (Mutex-published)
        self.master.store(ckpt.0, Ordering::Release);
        Ok(())
    }

    fn master(&self) -> Result<Lsn> {
        Ok(Lsn(self.master.load(Ordering::Acquire))) // ordering: pairs with the Release in publish_master
    }
}

/// Spool-file header: magic + the stream's base LSN.
const SPOOL_MAGIC: &[u8; 8] = b"ARIESHP1";
const SPOOL_HEADER: u64 = 16;

/// File-backed transport: the stream is spooled to a file (header: magic +
/// base LSN), the master record to a CRC-guarded sidecar written via
/// rename, mirroring `wal.master`. A sender and a receiver may be distinct
/// `FileTransport` instances — even in different processes.
pub struct FileTransport {
    path: PathBuf,
    base: Lsn,
    /// Writer handle (senders); receivers open fresh read handles per call
    /// so a pure-receiver instance never holds the file open for write.
    writer: Mutex<Option<File>>,
}

impl FileTransport {
    /// Create a new spool at `path` for a stream based at `base`
    /// (truncates any previous spool).
    pub fn create(path: &Path, base: Lsn) -> Result<FileTransport> {
        let mut f = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut header = SPOOL_MAGIC.to_vec();
        header.extend_from_slice(&base.0.to_le_bytes());
        f.write_all(&header)?;
        Ok(FileTransport {
            path: path.to_path_buf(),
            base,
            writer: Mutex::new(Some(f)),
        })
    }

    /// Open an existing spool (receiver side).
    pub fn open(path: &Path) -> Result<FileTransport> {
        let mut f = File::open(path)?;
        let mut header = [0u8; SPOOL_HEADER as usize];
        f.read_exact(&mut header).map_err(|_| Error::CorruptLog {
            lsn: Lsn::NULL,
            reason: "short log spool header".into(),
        })?;
        if &header[..8] != SPOOL_MAGIC {
            return Err(Error::CorruptLog {
                lsn: Lsn::NULL,
                reason: "bad log spool magic".into(),
            });
        }
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&header[8..16]);
        let base = Lsn(u64::from_le_bytes(raw));
        Ok(FileTransport {
            path: path.to_path_buf(),
            base,
            writer: Mutex::new(None),
        })
    }

    /// The stream base this spool was created with.
    pub fn base(&self) -> Lsn {
        self.base
    }

    fn master_path(&self) -> PathBuf {
        self.path.with_extension("spool.master")
    }
}

impl LogTransport for FileTransport {
    fn send(&self, at: Lsn, chunk: &[u8]) -> Result<()> {
        let mut wg = self.writer.lock();
        if wg.is_none() {
            *wg = Some(OpenOptions::new().read(true).write(true).open(&self.path)?);
        }
        let Some(f) = wg.as_mut() else {
            return Err(Error::Internal("spool writer unavailable".into()));
        };
        let len = f.seek(SeekFrom::End(0))?;
        let end = Lsn(self.base.0 + (len - SPOOL_HEADER));
        if at != end {
            return Err(Error::Internal(format!(
                "spool send at {at}, stream ends at {end}"
            )));
        }
        f.write_all(chunk)?;
        Ok(())
    }

    fn recv(&self, at: Lsn, max: usize) -> Result<Vec<u8>> {
        if at < self.base {
            return Err(Error::Internal(format!(
                "spool recv at {at}, below stream base {}",
                self.base
            )));
        }
        let mut f = File::open(&self.path)?;
        let len = f.seek(SeekFrom::End(0))?.saturating_sub(SPOOL_HEADER);
        let off = at.0 - self.base.0;
        if off >= len {
            return Ok(Vec::new());
        }
        let take = ((len - off) as usize).min(max);
        f.seek(SeekFrom::Start(SPOOL_HEADER + off))?;
        let mut out = vec![0u8; take];
        f.read_exact(&mut out)?;
        Ok(out)
    }

    fn end(&self) -> Result<Lsn> {
        let len = std::fs::metadata(&self.path)?.len().saturating_sub(SPOOL_HEADER);
        Ok(Lsn(self.base.0 + len))
    }

    fn publish_master(&self, ckpt: Lsn) -> Result<()> {
        let tmp = self.path.with_extension("spool.master.tmp");
        let mut body = ckpt.0.to_le_bytes().to_vec();
        let crc = ariesim_common::codec::crc32c(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        std::fs::write(&tmp, &body)?;
        std::fs::rename(&tmp, self.master_path())?;
        Ok(())
    }

    fn master(&self) -> Result<Lsn> {
        let raw = match std::fs::read(self.master_path()) {
            Ok(r) => r,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Lsn::NULL),
            Err(e) => return Err(e.into()),
        };
        if raw.len() != 12
            || ariesim_common::codec::crc32c(&raw[..8])
                != ariesim_common::codec::u32_at(&raw, 8)
        {
            return Err(Error::CorruptLog {
                lsn: Lsn::NULL,
                reason: "bad spool master record".into(),
            });
        }
        Ok(Lsn(ariesim_common::codec::u64_at(&raw, 0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ariesim_common::tmp::TempDir;

    fn stream_roundtrip(t: &dyn LogTransport, base: Lsn) {
        assert_eq!(t.end().unwrap(), base);
        assert!(t.recv(base, 64).unwrap().is_empty());
        t.send(base, b"hello ").unwrap();
        t.send(Lsn(base.0 + 6), b"world").unwrap();
        // Gap and overlap rejected.
        assert!(t.send(Lsn(base.0 + 100), b"x").is_err());
        assert!(t.send(base, b"x").is_err());
        assert_eq!(t.end().unwrap(), Lsn(base.0 + 11));
        assert_eq!(t.recv(base, 6).unwrap(), b"hello ");
        assert_eq!(t.recv(Lsn(base.0 + 6), 64).unwrap(), b"world");
        assert!(t.recv(Lsn(base.0 + 11), 64).unwrap().is_empty());
        assert_eq!(t.master().unwrap(), Lsn::NULL);
        t.publish_master(Lsn(42)).unwrap();
        assert_eq!(t.master().unwrap(), Lsn(42));
    }

    #[test]
    fn in_process_stream() {
        stream_roundtrip(&InProcessTransport::new(Lsn(1000)), Lsn(1000));
    }

    #[test]
    fn file_spool_stream() {
        let dir = TempDir::new("repl-spool");
        let t = FileTransport::create(&dir.file("spool"), Lsn(1000)).unwrap();
        stream_roundtrip(&t, Lsn(1000));
        // A separate receiver instance sees the same stream.
        let r = FileTransport::open(&dir.file("spool")).unwrap();
        assert_eq!(r.base(), Lsn(1000));
        assert_eq!(r.recv(Lsn(1000), 64).unwrap(), b"hello world");
        assert_eq!(r.master().unwrap(), Lsn(42));
    }
}
