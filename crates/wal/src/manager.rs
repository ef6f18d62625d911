//! The log manager.
//!
//! Owns the log's durability boundary with one buffer and two locks:
//!
//! 1. **Append.** The appender encodes its frame header, envelope and CRC
//!    outside any lock, then takes the `image` mutex just long enough to
//!    push the frame onto the end of the in-memory log image. The LSN is
//!    the image length before the push, so appends are in LSN order and
//!    every frame in the image is whole.
//!
//! 2. **Group flush.** [`LogManager::flush_to`] makes everything up to (at
//!    least) a given LSN durable — the operation the WAL protocol and commit
//!    processing force. The batch forms by **leader election**: the first
//!    committer to win `try_lock` on the `flush` mutex copies the unflushed
//!    tail of the image into its scratch buffer (holding `image` only for
//!    the copy), then writes and optionally fsyncs it for everyone queued on
//!    the commit barrier. Appenders never wait on a write or an fsync.
//!    Losers spin briefly on the durable mirror, then park on their thread's
//!    [`Parker`] and re-elect on timeout, so no dedicated thread is needed.
//!
//! A crash loses exactly the unflushed tail, which is what the crash tests
//! rely on: dropping the manager without flushing and reopening the file
//! reproduces the post-crash stable state.
//!
//! The manager also keeps the whole log memory-resident. At the scale of
//! this reproduction (logs of at most a few hundred MB) this is a
//! deliberate simplification that changes no protocol behaviour: reads
//! during rollback and restart hit the same byte image they would read from
//! disk.

use crate::frame::{self, FrameRead, FIRST_LSN, LOG_MAGIC};
use crate::record::LogRecord;
use ariesim_common::codec::u32_at;
use ariesim_common::stats::{Bump, StatsHandle};
use ariesim_fault::crash_point;
use ariesim_obs::{Obs, ObsHandle, SpanKind};
use ariesim_common::{Error, Lsn, Result};
use parking_lot::{sched, Mutex, Parker};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
// The durable-LSN mirror is a model-checkable facade atomic: its protocol
// against concurrent appenders and leaders is covered by `crates/model`'s
// WAL harnesses.
use ariesim_common::msync::AtomicU64;
use std::sync::atomic::{AtomicU64 as PlainAtomicU64, Ordering};

/// Durability options.
#[derive(Clone, Debug, Default)]
pub struct LogOptions {
    /// Call `sync_data` after each flush. Off by default: the tests simulate
    /// crashes at the process level, where "written to the file" is durable.
    pub fsync: bool,
}

/// Spare capacity the log image keeps past its end, so an append between
/// two flushes pushes into memory it already owns and allocates nothing.
/// Open reserves it and every flush restores it; an append larger than
/// what is left simply grows the image.
pub const IMAGE_HEADROOM: usize = 1 << 20;

/// How long a rider parks before re-trying the leader election
/// (the leader may have exited between flushing and this rider's enqueue).
const RIDER_RETRY: Duration = Duration::from_micros(100);

/// Bounded busy-poll before a rider parks. On fast storage a whole batch
/// completes in a few microseconds — less than a park/unpark round trip —
/// so riders poll the durable mirror this many times first.
const SPIN_POLLS: u32 = 500;

/// Whether this machine has a single CPU. Busy-spinning is strictly
/// counterproductive there: a spinner only delays the very thread it waits
/// for.
fn single_core() -> bool {
    static ONE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ONE.get_or_init(|| std::thread::available_parallelism().map_or(true, |n| n.get() == 1))
}

/// [`SPIN_POLLS`], but zero on a single-CPU machine (see [`single_core`])
/// and zero under the model checker (each poll is a schedule point;
/// hundreds per commit would blow up the explored tree without adding
/// interleavings — the park that follows is already a schedule point).
fn spin_polls() -> u32 {
    if sched::thread_armed() || single_core() {
        return 0;
    }
    SPIN_POLLS
}

/// The flush side: whoever holds it is the one writer of the log file.
struct Flush {
    file: File,
    /// Everything below this offset is on disk. Always a frame boundary.
    durable_end: Lsn,
    /// The leader's copy of `image[durable_end..]`, written without
    /// holding `image`.
    scratch: Vec<u8>,
}

/// One committer waiting on the barrier: its LSN and how to wake it.
type Waiter = (u64, Arc<Parker>);

/// State behind the manager's `&self` methods.
//
// lock order: page latches → `flush` → `image`. `image` is a leaf lock:
// nothing is acquired while it is held, and no file I/O happens under it
// except in `ingest_frames` on a standby, which has no appenders.
struct Shared {
    flush: Mutex<Flush>,
    /// The whole log, magic included: `image[..durable_end]` mirrors the
    /// file, `image[durable_end..]` is the unflushed tail. Every frame in
    /// it is whole, so its length is the next LSN.
    image: Mutex<Vec<u8>>,
    /// Mirror of `Flush::durable_end`, stored only after the write, and
    /// readable without either lock: the fast path of
    /// [`LogManager::flush_to`] (and [`LogManager::flushed_lsn`]) must not
    /// serialize behind an in-flight flush when the requested LSN is already
    /// durable — the WAL-rule check on every page write-back hits this path
    /// constantly.
    flushed: AtomicU64,
    /// LSN of the most recently appended record (largest start LSN);
    /// `Lsn::NULL` (0) if the log is empty, so `fetch_max` is sound.
    last_lsn: PlainAtomicU64,
    /// The commit barrier: committers whose LSN is not yet durable enqueue
    /// here; the leader that flushes wakes the satisfied.
    barrier: Mutex<Vec<Waiter>>,
    master_path: PathBuf,
    opts: LogOptions,
    stats: StatsHandle,
    obs: ObsHandle,
}

/// The write-ahead log manager. Thread-safe; all methods take `&self`.
pub struct LogManager {
    sh: Shared,
}

impl LogManager {
    /// Open (or create) the log at `path`. On open, scans for a torn tail and
    /// truncates the trustworthy image there, exactly as restart would.
    pub fn open(path: &Path, opts: LogOptions, stats: StatsHandle) -> Result<LogManager> {
        LogManager::open_with_obs(path, opts, stats, Obs::disabled())
    }

    /// [`LogManager::open`] with an explicit observability handle.
    pub fn open_with_obs(
        path: &Path,
        opts: LogOptions,
        stats: StatsHandle,
        obs: ObsHandle,
    ) -> Result<LogManager> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        // Sized once, headroom included: growing a log-sized buffer later
        // would hold two copies of the log at once.
        let mut raw = Vec::with_capacity(file.metadata()?.len() as usize + IMAGE_HEADROOM);
        file.read_to_end(&mut raw)?;
        if raw.is_empty() {
            file.write_all(LOG_MAGIC)?;
            raw.extend_from_slice(LOG_MAGIC);
        } else if raw.len() < LOG_MAGIC.len() || &raw[..LOG_MAGIC.len()] != LOG_MAGIC {
            return Err(Error::CorruptLog {
                lsn: Lsn::NULL,
                reason: "bad log file magic".into(),
            });
        }
        // Find the end of the valid log (torn-tail scan) and discard beyond.
        let mut at = FIRST_LSN;
        let mut last_lsn = Lsn::NULL;
        loop {
            match frame::read_frame(&raw, at)? {
                FrameRead::Ok { next, .. } => {
                    last_lsn = at;
                    at = next;
                }
                FrameRead::End { at: end } => {
                    raw.truncate(end.0 as usize);
                    break;
                }
            }
        }
        file.set_len(raw.len() as u64)?;
        let end = Lsn(raw.len() as u64);
        let sh = Shared {
            flush: Mutex::new(Flush {
                file,
                durable_end: end,
                scratch: Vec::new(),
            }),
            image: Mutex::new(raw),
            flushed: AtomicU64::new(end.0),
            last_lsn: PlainAtomicU64::new(last_lsn.0),
            barrier: Mutex::new(Vec::new()),
            master_path: path.with_extension("master"),
            opts,
            stats,
            obs,
        };
        Ok(LogManager { sh })
    }

    /// Append a record (buffered, not yet durable). Returns its LSN.
    ///
    /// Allocation-free while the image has headroom: the envelope is encoded
    /// on the stack and checksummed with the body outside any lock, and the
    /// `image` mutex covers only the push of the frame onto its end.
    pub fn append(&self, rec: &LogRecord) -> Lsn {
        let sh = &self.sh;
        let _span = sh.obs.span(SpanKind::WalAppend, rec.txn.0, 0);
        let (envelope, envelope_len) = rec.envelope();
        let envelope = &envelope[..envelope_len];
        let header = frame::frame_header(&[envelope, &rec.body]);
        let len = frame::frame_len(envelope_len + rec.body.len());
        debug_assert_eq!(frame::frame_len(u32_at(&header, 0) as usize), len);
        let start = {
            let mut image = sh.image.lock();
            let start = image.len() as u64;
            image.extend_from_slice(&header);
            image.extend_from_slice(envelope);
            image.extend_from_slice(&rec.body);
            start
        };
        crash_point!("wal.append.tail");
        // ordering: Relaxed — monotone register, no payload to publish (the
        // record bytes are published by the image mutex).
        sh.last_lsn.fetch_max(start, Ordering::Relaxed);
        sh.stats.log_records.bump();
        sh.stats.log_bytes.add(len);
        Lsn(start)
    }

    /// Make every record with LSN ≤ `lsn` durable. Group commit: one flush
    /// covers every committer whose LSN rode along.
    pub fn flush_to(&self, lsn: Lsn) -> Result<()> {
        // Fast path: already durable. Must not take a lock, or every
        // WAL-rule check during page write-back would serialize behind an
        // in-flight group flush. `flushed` only ever grows, so a stale read
        // is safe — we just fall through to the slow path.
        // ordering: Acquire pairs with the Release store after fsync
        if lsn.0 < self.sh.flushed.load(Ordering::Acquire) {
            return Ok(());
        }
        self.sh.group_wait(lsn)
    }

    /// Make the entire appended log durable.
    pub fn flush_all(&self) -> Result<()> {
        let sh = &self.sh;
        let mut f = sh.flush.lock();
        sh.copy_out(&mut f);
        sh.write_out(&mut f)
    }

    /// LSN below which everything is stable.
    pub fn flushed_lsn(&self) -> Lsn {
        // ordering: Acquire pairs with the Release store after fsync
        Lsn(self.sh.flushed.load(Ordering::Acquire))
    }

    /// LSN of the most recently appended record; NULL if the log is empty.
    pub fn last_lsn(&self) -> Lsn {
        // ordering: Relaxed — monotone register (see the store in `append`)
        Lsn(self.sh.last_lsn.load(Ordering::Relaxed))
    }

    /// LSN the next append will receive (the image length).
    pub fn next_lsn(&self) -> Lsn {
        Lsn(self.sh.image.lock().len() as u64)
    }

    /// Read and decode the record at `lsn` (flushed or still buffered —
    /// rollback during normal processing reads records that may not yet be
    /// durable).
    pub fn read(&self, lsn: Lsn) -> Result<LogRecord> {
        let image = self.sh.image.lock();
        if lsn.is_null() || lsn < FIRST_LSN || lsn.0 >= image.len() as u64 {
            return Err(Error::CorruptLog {
                lsn,
                reason: format!("lsn out of range (log ends at {})", image.len()),
            });
        }
        match frame::read_frame(&image, lsn)? {
            FrameRead::Ok { body, .. } => LogRecord::decode(lsn, body),
            FrameRead::End { .. } => Err(Error::CorruptLog {
                lsn,
                reason: "no valid frame at lsn".into(),
            }),
        }
    }

    /// Iterate records in LSN order starting at `from` (or the log start if
    /// `from` is NULL). Each `next()` re-acquires the image lock, so the
    /// iterator may observe records appended after it was created.
    pub fn scan(&self, from: Lsn) -> LogIter<'_> {
        LogIter {
            mgr: self,
            at: if from.is_null() { FIRST_LSN } else { from },
        }
    }

    /// First LSN ever (the log start).
    pub fn first_lsn(&self) -> Lsn {
        FIRST_LSN
    }

    // --- master record ---------------------------------------------------

    /// Durably record the LSN of the latest complete checkpoint's begin
    /// record. Written atomically via rename.
    pub fn write_master(&self, ckpt_lsn: Lsn) -> Result<()> {
        crash_point!("wal.master.before");
        let tmp = self.sh.master_path.with_extension("master.tmp");
        let mut body = ckpt_lsn.0.to_le_bytes().to_vec();
        let crc = ariesim_common::codec::crc32c(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        std::fs::write(&tmp, &body)?;
        crash_point!("wal.master.tmp_written");
        std::fs::rename(&tmp, &self.sh.master_path)?;
        crash_point!("wal.master.after");
        Ok(())
    }

    // --- replication streaming -------------------------------------------

    /// The durable log image from `from` (log start if NULL) to the durable
    /// end, for a standby to ingest. The durable end is always a frame
    /// boundary, so this is whole frames whenever `from` is one; a
    /// misaligned `from` fails the ingesting side's CRC check. Empty means
    /// `from` is the durable end. Buffered-tail frames are never returned:
    /// only log the primary cannot lose may reach a standby.
    pub fn read_durable(&self, from: Lsn) -> Result<Vec<u8>> {
        let durable_end = self.flushed_lsn();
        let from = if from.is_null() { FIRST_LSN } else { from };
        if from < FIRST_LSN || from > durable_end {
            return Err(Error::CorruptLog {
                lsn: from,
                reason: format!("read start outside durable log (ends at {durable_end})"),
            });
        }
        Ok(self.sh.image.lock()[from.0 as usize..durable_end.0 as usize].to_vec())
    }

    /// Splice a shipped chunk (whole frames, as produced by
    /// [`LogManager::read_durable`] on a primary) onto this log at
    /// exactly the current tail. The standby's log stays a byte-identical
    /// prefix of the primary's, so primary LSNs are valid here verbatim;
    /// `at` guards against gaps, duplicates, and reordering. The chunk is
    /// CRC-validated frame by frame before any state changes, then written
    /// through to the file immediately: shipped log was already durable on
    /// the primary, and the standby must not apply records it could lose.
    /// Holds both locks throughout (a standby has no appenders to block).
    pub fn ingest_frames(&self, at: Lsn, chunk: &[u8]) -> Result<()> {
        let sh = &self.sh;
        let mut f = sh.flush.lock();
        let mut image = sh.image.lock();
        if f.durable_end.0 != image.len() as u64 {
            return Err(Error::Internal(
                "ingest_frames on a log with a buffered append tail".into(),
            ));
        }
        if at != f.durable_end {
            return Err(Error::CorruptLog {
                lsn: at,
                reason: format!("ingest chunk at {at}, but the log ends at {}", f.durable_end),
            });
        }
        if chunk.is_empty() {
            return Ok(());
        }
        let mut off = Lsn(0);
        let mut frames = 0u64;
        let mut last = Lsn::NULL;
        while (off.0 as usize) < chunk.len() {
            match frame::read_frame(chunk, off)? {
                FrameRead::Ok { next, .. } => {
                    last = Lsn(at.0 + off.0);
                    off = next;
                    frames += 1;
                }
                FrameRead::End { .. } => {
                    return Err(Error::CorruptLog {
                        lsn: Lsn(at.0 + off.0),
                        reason: "torn or corrupt frame in shipped chunk".into(),
                    });
                }
            }
        }
        // Write-through, with a crash point splitting the write so the
        // torture harness can leave a genuinely torn standby tail.
        f.file.seek(SeekFrom::Start(at.0))?;
        let half = chunk.len() / 2;
        f.file.write_all(&chunk[..half])?;
        crash_point!("wal.ingest.mid");
        f.file.write_all(&chunk[half..])?;
        if sh.opts.fsync {
            f.file.sync_data()?;
        }
        image.extend_from_slice(chunk);
        f.durable_end = Lsn(image.len() as u64);
        // ordering: Relaxed — monotone register (see `append`)
        sh.last_lsn.fetch_max(last.0, Ordering::Relaxed);
        // ordering: Release publishes the fsync'd prefix; Acquire readers of `flushed` may then skip the lock
        sh.flushed.store(f.durable_end.0, Ordering::Release);
        sh.stats.log_records.add(frames);
        sh.stats.log_bytes.add(chunk.len() as u64);
        Ok(())
    }

    /// Read the master record; NULL if none has ever been written.
    pub fn read_master(&self) -> Result<Lsn> {
        let raw = match std::fs::read(&self.sh.master_path) {
            Ok(r) => r,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Lsn::NULL),
            Err(e) => return Err(e.into()),
        };
        if raw.len() != 12 {
            return Err(Error::CorruptLog {
                lsn: Lsn::NULL,
                reason: "bad master record length".into(),
            });
        }
        let lsn = ariesim_common::codec::u64_at(&raw, 0);
        let crc = ariesim_common::codec::u32_at(&raw, 8);
        if ariesim_common::codec::crc32c(&raw[0..8]) != crc {
            return Err(Error::CorruptLog {
                lsn: Lsn::NULL,
                reason: "master record checksum mismatch".into(),
            });
        }
        Ok(Lsn(lsn))
    }
}

impl Shared {
    /// Copy the unflushed tail `image[durable_end..]` into the scratch
    /// buffer, holding `image` only for the copy, and restore the image's
    /// headroom while it is held. Caller holds `flush`.
    fn copy_out(&self, f: &mut Flush) {
        let mut image = self.image.lock();
        f.scratch.clear();
        f.scratch.extend_from_slice(&image[f.durable_end.0 as usize..]);
        image.reserve(IMAGE_HEADROOM);
    }

    /// Write and (optionally) fsync the scratch buffer at `durable_end`,
    /// then advance `durable_end` and its mirror. Caller holds `flush`.
    fn write_out(&self, f: &mut Flush) -> Result<()> {
        if f.scratch.is_empty() {
            return Ok(());
        }
        let _span = self.obs.span(SpanKind::WalFsync, 0, 0);
        crash_point!("wal.flush.begin");
        f.file.seek(SeekFrom::Start(f.durable_end.0))?;
        // Two writes with a crash point between them: crashing at
        // "wal.flush.mid" leaves a genuinely torn tail (first half of the
        // range on disk, durable_end not advanced) for the torn-tail scan.
        // It is a schedule point too, so the model checker runs readers of
        // the durable mirror against a half-written batch.
        let half = f.scratch.len() / 2;
        f.file.write_all(&f.scratch[..half])?;
        crash_point!("wal.flush.mid");
        ariesim_common::yield_point!();
        f.file.write_all(&f.scratch[half..])?;
        if self.opts.fsync {
            f.file.sync_data()?;
        }
        crash_point!("wal.flush.end");
        f.durable_end = Lsn(f.durable_end.0 + f.scratch.len() as u64);
        f.scratch.clear();
        // ordering: Release publishes the fsync'd prefix; Acquire readers of `flushed` may then skip the lock
        self.flushed.store(f.durable_end.0, Ordering::Release);
        self.stats.log_forces.bump();
        Ok(())
    }

    /// Wake every waiter whose LSN is durable now; returns how many.
    fn wake_satisfied(&self) -> u64 {
        // ordering: Acquire pairs with the Release store after fsync
        let durable = self.flushed.load(Ordering::Acquire);
        let mut woken = 0;
        self.barrier.lock().retain(|(l, p)| {
            if *l < durable {
                p.unpark();
                woken += 1;
                false
            } else {
                true
            }
        });
        woken
    }

    /// Record one flush batch that satisfied `satisfied` committers.
    fn note_batch(&self, satisfied: u64) {
        let n = satisfied.max(1);
        // ordering: Relaxed — plain telemetry counter, no protocol role
        self.obs.wal.group_batches.fetch_add(1, Ordering::Relaxed);
        // ordering: Relaxed — plain telemetry counter, no protocol role
        self.obs.wal.group_riders.fetch_add(n - 1, Ordering::Relaxed);
    }

    /// Slow path of [`LogManager::flush_to`]: group commit by leader
    /// election. Whoever finds the `flush` lock free flushes the whole
    /// appended log — every LSN queued on the barrier included — for
    /// everyone; everyone else polls the durable mirror for about one
    /// batch's duration, then parks and re-elects on timeout so a vanished
    /// leader can never strand a rider.
    fn group_wait(&self, lsn: Lsn) -> Result<()> {
        let polls = spin_polls();
        let mut registered = false;
        loop {
            // ordering: Acquire pairs with the Release store after fsync
            if lsn.0 < self.flushed.load(Ordering::Acquire) {
                // A satisfied entry left on the barrier is dropped (and
                // this thread's parker token set) by a later wake pass;
                // park loops re-check their predicate, so that's harmless.
                return Ok(());
            }
            if let Some(mut f) = self.flush.try_lock() {
                self.copy_out(&mut f);
                // Window: the batch is copied out, nothing of it durable.
                crash_point!("wal.group.flush_mid");
                self.write_out(&mut f)?;
                crash_point!("wal.group.flush_done");
                drop(f);
                let woken = self.wake_satisfied();
                // A leader that had already enqueued as a rider was counted
                // (and unparked) by its own wake pass.
                self.note_batch(if registered { woken.max(1) } else { woken + 1 });
                // ordering: Acquire pairs with the Release store after fsync
                let durable = self.flushed.load(Ordering::Acquire);
                if lsn.0 >= durable && durable == self.image.lock().len() as u64 {
                    // `lsn` lies beyond everything ever appended; the whole
                    // log is durable, which is all a flush can promise.
                    return Ok(());
                }
            } else {
                if !registered {
                    self.barrier.lock().push((lsn.0, Parker::current()));
                    registered = true;
                }
                // A flush is in flight and its batch may already cover this
                // LSN: poll the mirror for about its duration — cheaper
                // than a park/unpark round trip — before sleeping.
                let mut rode = false;
                for _ in 0..polls {
                    // ordering: Acquire pairs with the Release store after fsync
                    if lsn.0 < self.flushed.load(Ordering::Acquire) {
                        rode = true;
                        break;
                    }
                    std::hint::spin_loop();
                }
                if !rode {
                    Parker::current().park_timeout(RIDER_RETRY);
                }
            }
        }
    }
}

/// Iterator over log records; see [`LogManager::scan`].
pub struct LogIter<'a> {
    mgr: &'a LogManager,
    at: Lsn,
}

impl LogIter<'_> {
    /// LSN the next `next()` call will read.
    pub fn position(&self) -> Lsn {
        self.at
    }
}

impl Iterator for LogIter<'_> {
    type Item = Result<LogRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        let image = self.mgr.sh.image.lock();
        match frame::read_frame(&image, self.at) {
            Ok(FrameRead::Ok { body, next }) => {
                let rec = LogRecord::decode(self.at, body);
                self.at = next;
                Some(rec)
            }
            Ok(FrameRead::End { .. }) => None,
            Err(e) => Some(Err(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{RecordKind, RmId};
    use ariesim_common::stats::new_stats;
    use ariesim_common::tmp::TempDir;
    use ariesim_common::{PageId, TxnId};

    fn mgr(dir: &TempDir) -> LogManager {
        LogManager::open(&dir.file("wal"), LogOptions::default(), new_stats()).unwrap()
    }

    fn upd(txn: u64, prev: Lsn, body: &[u8]) -> LogRecord {
        LogRecord::update(TxnId(txn), prev, RmId::Heap, PageId(1), body.to_vec())
    }

    #[test]
    fn append_read_roundtrip() {
        let dir = TempDir::new("wal");
        let m = mgr(&dir);
        let l1 = m.append(&upd(1, Lsn::NULL, b"one"));
        let l2 = m.append(&upd(1, l1, b"two"));
        assert!(l1 < l2);
        let r = m.read(l2).unwrap();
        assert_eq!(r.prev_lsn, l1);
        assert_eq!(r.body, b"two");
        assert_eq!(m.last_lsn(), l2);
    }

    #[test]
    fn scan_returns_all_in_order() {
        let dir = TempDir::new("wal");
        let m = mgr(&dir);
        let mut lsns = Vec::new();
        let mut prev = Lsn::NULL;
        for i in 0..10u8 {
            prev = m.append(&upd(1, prev, &[i]));
            lsns.push(prev);
        }
        let seen: Vec<Lsn> = m.scan(Lsn::NULL).map(|r| r.unwrap().lsn).collect();
        assert_eq!(seen, lsns);
        // Scan from the middle.
        let seen: Vec<Lsn> = m.scan(lsns[4]).map(|r| r.unwrap().lsn).collect();
        assert_eq!(seen, &lsns[4..]);
    }

    #[test]
    fn unflushed_tail_lost_on_reopen() {
        let dir = TempDir::new("wal");
        let path = dir.file("wal");
        let stats = new_stats();
        let m = LogManager::open(&path, LogOptions::default(), stats.clone()).unwrap();
        let l1 = m.append(&upd(1, Lsn::NULL, b"durable"));
        m.flush_to(l1).unwrap();
        let l2 = m.append(&upd(1, l1, b"lost"));
        assert!(m.read(l2).is_ok()); // readable while buffered
        drop(m); // crash: no flush
        let m2 = LogManager::open(&path, LogOptions::default(), new_stats()).unwrap();
        assert_eq!(m2.last_lsn(), l1);
        assert!(m2.read(l2).is_err());
        let survived: Vec<_> = m2.scan(Lsn::NULL).map(|r| r.unwrap()).collect();
        assert_eq!(survived.len(), 1);
        assert_eq!(survived[0].body, b"durable");
    }

    #[test]
    fn flush_is_group_flush() {
        let dir = TempDir::new("wal");
        let m = mgr(&dir);
        let l1 = m.append(&upd(1, Lsn::NULL, b"a"));
        let l2 = m.append(&upd(1, l1, b"b"));
        m.flush_to(l1).unwrap();
        // l2 rode along.
        assert!(m.flushed_lsn() > l2);
    }

    #[test]
    fn flush_to_already_durable_is_noop() {
        let dir = TempDir::new("wal");
        let stats = new_stats();
        let m = LogManager::open(&dir.file("wal"), LogOptions::default(), stats.clone()).unwrap();
        let l1 = m.append(&upd(1, Lsn::NULL, b"a"));
        m.flush_to(l1).unwrap();
        let forces = stats.snapshot().log_forces;
        m.flush_to(l1).unwrap();
        assert_eq!(stats.snapshot().log_forces, forces);
    }

    #[test]
    fn noop_flush_does_not_serialize_behind_inflight_flush() {
        let dir = TempDir::new("wal");
        let m = mgr(&dir);
        let l1 = m.append(&upd(1, Lsn::NULL, b"a"));
        m.flush_to(l1).unwrap();
        // Simulate an in-flight flush by holding the flush lock; a flush_to
        // for an already-durable LSN must return without acquiring it.
        let _held = m.sh.flush.lock();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                m.flush_to(l1).unwrap();
                tx.send(()).unwrap();
            });
            rx.recv_timeout(std::time::Duration::from_secs(2))
                .expect("no-op flush blocked behind held flush lock");
        });
    }

    #[test]
    fn append_and_read_do_not_wait_on_an_inflight_flush() {
        let dir = TempDir::new("wal");
        let m = mgr(&dir);
        // A leader mid-write holds the flush lock; appenders and readers
        // need only the image lock.
        let _held = m.sh.flush.lock();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                let lsn = m.append(&upd(1, Lsn::NULL, b"a"));
                tx.send(m.read(lsn).unwrap().body).unwrap();
            });
            let body = rx
                .recv_timeout(std::time::Duration::from_secs(2))
                .expect("append blocked behind held flush lock");
            assert_eq!(body, b"a");
        });
    }

    #[test]
    fn reopen_resumes_lsn_sequence() {
        let dir = TempDir::new("wal");
        let path = dir.file("wal");
        let m = LogManager::open(&path, LogOptions::default(), new_stats()).unwrap();
        let l1 = m.append(&upd(1, Lsn::NULL, b"a"));
        m.flush_all().unwrap();
        drop(m);
        let m2 = LogManager::open(&path, LogOptions::default(), new_stats()).unwrap();
        let l2 = m2.append(&upd(2, Lsn::NULL, b"b"));
        assert!(l2 > l1);
        assert_eq!(m2.read(l1).unwrap().body, b"a");
        assert_eq!(m2.read(l2).unwrap().body, b"b");
    }

    #[test]
    fn torn_tail_truncated_on_open() {
        let dir = TempDir::new("wal");
        let path = dir.file("wal");
        let m = LogManager::open(&path, LogOptions::default(), new_stats()).unwrap();
        let l1 = m.append(&upd(1, Lsn::NULL, b"keep"));
        m.append(&upd(1, l1, b"torn-away"));
        m.flush_all().unwrap();
        drop(m);
        // Tear the last record's final byte off.
        let mut raw = std::fs::read(&path).unwrap();
        raw.truncate(raw.len() - 1);
        std::fs::write(&path, &raw).unwrap();
        let m2 = LogManager::open(&path, LogOptions::default(), new_stats()).unwrap();
        let recs: Vec<_> = m2.scan(Lsn::NULL).map(|r| r.unwrap()).collect();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].body, b"keep");
        // New appends land after the truncation point.
        let l3 = m2.append(&upd(2, Lsn::NULL, b"new"));
        assert_eq!(m2.read(l3).unwrap().body, b"new");
    }

    #[test]
    fn master_record_roundtrip() {
        let dir = TempDir::new("wal");
        let m = mgr(&dir);
        assert_eq!(m.read_master().unwrap(), Lsn::NULL);
        m.write_master(Lsn(777)).unwrap();
        assert_eq!(m.read_master().unwrap(), Lsn(777));
        m.write_master(Lsn(888)).unwrap();
        assert_eq!(m.read_master().unwrap(), Lsn(888));
    }

    #[test]
    fn read_null_or_out_of_range_fails() {
        let dir = TempDir::new("wal");
        let m = mgr(&dir);
        assert!(m.read(Lsn::NULL).is_err());
        assert!(m.read(Lsn(1 << 40)).is_err());
    }

    #[test]
    fn control_records_roundtrip_all_kinds() {
        let dir = TempDir::new("wal");
        let m = mgr(&dir);
        for kind in [RecordKind::Commit, RecordKind::Abort, RecordKind::End] {
            let lsn = m.append(&LogRecord::control(TxnId(3), Lsn::NULL, kind));
            assert_eq!(m.read(lsn).unwrap().kind, kind);
        }
    }

    #[test]
    fn durable_chunk_ships_only_flushed_frames() {
        let dir = TempDir::new("wal");
        let m = mgr(&dir);
        let l1 = m.append(&upd(1, Lsn::NULL, b"durable"));
        m.flush_all().unwrap();
        m.append(&upd(1, l1, b"still buffered"));
        let chunk = m.read_durable(Lsn::NULL).unwrap();
        let next = Lsn(m.first_lsn().0 + chunk.len() as u64);
        assert_eq!(next, m.flushed_lsn());
        assert!(!chunk.is_empty());
        // The buffered record is not in the chunk.
        assert!(m.read_durable(next).unwrap().is_empty());
    }

    #[test]
    fn ingest_extends_log_and_survives_reopen() {
        let dir = TempDir::new("wal");
        let primary = LogManager::open(&dir.file("p"), LogOptions::default(), new_stats()).unwrap();
        let standby_path = dir.file("s");
        let standby =
            LogManager::open(&standby_path, LogOptions::default(), new_stats()).unwrap();
        // Two pulls, each taking everything durable past the standby's end.
        let mut prev = Lsn::NULL;
        for batch in [0..3u8, 3..5] {
            for i in batch {
                prev = m_append(&primary, i, prev);
            }
            primary.flush_all().unwrap();
            let at = standby.next_lsn();
            standby.ingest_frames(at, &primary.read_durable(at).unwrap()).unwrap();
        }
        assert!(primary.read_durable(standby.next_lsn()).unwrap().is_empty());
        assert_eq!(standby.next_lsn(), primary.flushed_lsn());
        assert_eq!(standby.last_lsn(), primary.last_lsn());
        // Ingested log is durable without any flush call.
        drop(standby);
        let re = LogManager::open(&standby_path, LogOptions::default(), new_stats()).unwrap();
        assert_eq!(re.next_lsn(), primary.flushed_lsn());
        let bodies: Vec<_> = re.scan(Lsn::NULL).map(|r| r.unwrap().body).collect();
        let expect: Vec<_> = primary.scan(Lsn::NULL).map(|r| r.unwrap().body).collect();
        assert_eq!(bodies, expect);
    }

    fn m_append(m: &LogManager, i: u8, prev: Lsn) -> Lsn {
        m.append(&upd(1, prev, &[i; 16]))
    }

    #[test]
    fn ingest_rejects_gap_and_garbage() {
        let dir = TempDir::new("wal");
        let primary = mgr(&dir);
        let standby =
            LogManager::open(&dir.file("s2"), LogOptions::default(), new_stats()).unwrap();
        primary.append(&upd(1, Lsn::NULL, b"x"));
        primary.flush_all().unwrap();
        let chunk = primary.read_durable(Lsn::NULL).unwrap();
        let next = primary.flushed_lsn();
        // Wrong position: chunk claims to start past the standby's tail.
        assert!(standby.ingest_frames(next, &chunk).is_err());
        // Corrupt payload: flip a byte.
        let mut bad = chunk.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        assert!(standby
            .ingest_frames(standby.next_lsn(), &bad)
            .is_err());
        // Clean chunk at the right position still works afterwards.
        standby.ingest_frames(standby.next_lsn(), &chunk).unwrap();
        assert_eq!(standby.next_lsn(), next);
    }

    #[test]
    fn concurrent_appends_get_distinct_lsns() {
        let dir = TempDir::new("wal");
        let m = mgr(&dir);
        let lsns: Vec<Lsn> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let m = &m;
                    s.spawn(move || {
                        (0..100)
                            .map(|i| m.append(&upd(t, Lsn::NULL, &[t as u8, i as u8])))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        let mut sorted = lsns.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 400);
        assert_eq!(m.scan(Lsn::NULL).count(), 400);
    }

    #[test]
    fn mirror_never_leads_the_appended_log() {
        let dir = TempDir::new("wal");
        let m = mgr(&dir);
        let mut prev = Lsn::NULL;
        for i in 0..20u8 {
            prev = m.append(&upd(1, prev, &[i; 8]));
            assert!(m.flushed_lsn() <= m.next_lsn(), "durable mirror leads the log");
            if i % 5 == 0 {
                m.flush_to(prev).unwrap();
            }
        }
    }
}
