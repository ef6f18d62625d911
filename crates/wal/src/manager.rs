//! The log manager.
//!
//! Owns the log's durability boundary, as a two-stage pipeline:
//!
//! 1. **Lock-free append.** An appender claims its (LSN, byte-range) with a
//!    single `fetch_add` into the in-memory segment ring ([`crate::buffer`]),
//!    writes its frame into the reserved slice without any lock,
//!    and publishes completion via the ring's per-segment filled counters.
//!    The old design serialized every append (and its memcpy) behind one
//!    mutex; now the only shared-section work per append is two atomic RMWs.
//!
//! 2. **Group flush.** [`LogManager::flush_to`] makes everything up to (at
//!    least) a given LSN durable — the operation the WAL protocol and commit
//!    processing force. A drain step moves the ring's fully *published*
//!    prefix into the durable image (spinning to a stable watermark across
//!    torn multi-segment reservations, and advancing a frame-aligned
//!    boundary so no torn frame is ever written), then one `write_all` +
//!    optional fsync covers every waiter whose LSN rode along. The batch
//!    forms by **leader election**: the first committer to win `try_lock`
//!    flushes for everyone queued on the commit barrier; losers spin
//!    briefly on the durable mirror, then park on a futex-style [`Parker`]
//!    and re-elect on timeout, so no dedicated thread is needed.
//!
//! A crash loses exactly the unflushed tail, which is what the crash tests
//! rely on: dropping the manager without flushing and reopening the file
//! reproduces the post-crash stable state.
//!
//! The manager also keeps the whole durable log memory-resident. At the
//! scale of this reproduction (logs of at most a few hundred MB) this is a
//! deliberate simplification that changes no protocol behaviour: reads
//! during rollback and restart hit the same byte image they would read from
//! disk.

use crate::buffer::LogBuffer;
use crate::frame::{self, FrameRead, FIRST_LSN, LOG_MAGIC};
use crate::record::{LogRecord, ENVELOPE_LEN};
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
// The durable-LSN mirror and the ring watermarks are model-checkable facade
// atomics: their protocol against concurrent appenders/leaders is covered
// by `crates/model`'s WAL harnesses.
use ariesim_common::msync::AtomicU64;
use std::sync::atomic::{AtomicU64 as PlainAtomicU64, Ordering};

/// Tuning and durability options.
#[derive(Clone, Debug)]
pub struct LogOptions {
    /// Call `sync_data` after each flush. Off by default: the tests simulate
    /// crashes at the process level, where "written to the file" is durable.
    pub fsync: bool,
    /// Number of ring segments (power of two).
    pub ring_segments: u64,
    /// Bytes per ring segment (power of two). Total ring capacity bounds
    /// the largest single record.
    pub ring_segment_bytes: u64,
}

impl Default for LogOptions {
    fn default() -> LogOptions {
        LogOptions {
            fsync: false,
            ring_segments: 16,
            ring_segment_bytes: 64 << 10,
        }
    }
}

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

struct Inner {
    file: File,
    /// Complete drained log image, magic included: `image[0..durable_end]`
    /// mirrors the file; `image[durable_end..]` is the unflushed tail.
    /// Bytes still in the ring (published or in-flight) are *not* here yet.
    image: Vec<u8>,
    /// Everything below this offset is stable. Always frame-aligned.
    durable_end: Lsn,
    /// Drained watermark (= image.len() = the ring's `drained`).
    tail: Lsn,
    /// Largest frame boundary ≤ `tail`. A multi-segment frame can drain in
    /// pieces, so `tail` may rest mid-frame; flushing past `aligned` would
    /// write a torn frame and falsely ack durability for it.
    aligned: Lsn,
}

/// One committer waiting on the barrier: its LSN and how to wake it.
type Waiter = (u64, Arc<Parker>);

/// State behind the manager's `&self` methods.
struct Shared {
    inner: Mutex<Inner>,
    /// The lock-free append ring.
    buf: LogBuffer,
    /// Mirror of `Inner::durable_end`, updated under the inner lock but
    /// readable without it: the fast path of [`LogManager::flush_to`] (and
    /// [`LogManager::flushed_lsn`]) must not serialize behind an in-flight
    /// flush when the requested LSN is already durable — the WAL-rule check
    /// on every page write-back hits this path constantly.
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

thread_local! {
    /// Per-thread parker reused across `flush_to` calls (a thread waits on
    /// at most one flush at a time). A stale wakeup from a previous round
    /// only makes the next park return early; every wait loops on its
    /// predicate, so that is harmless.
    static PARKER: Arc<Parker> = Arc::new(Parker::new());
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
        let mut raw = Vec::new();
        file.read_to_end(&mut raw)?;
        if raw.is_empty() {
            file.write_all(LOG_MAGIC)?;
            raw = LOG_MAGIC.to_vec();
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
            inner: Mutex::new(Inner {
                file,
                image: raw,
                durable_end: end,
                tail: end,
                aligned: end,
            }),
            buf: LogBuffer::new(end.0, opts.ring_segment_bytes, opts.ring_segments),
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
    /// Lock-free and allocation-free: the envelope is encoded on the stack
    /// and checksummed with the body outside any shared section, the (LSN,
    /// range) claim is one `fetch_add`, and the frame is written straight
    /// into the reserved ring slice.
    pub fn append(&self, rec: &LogRecord) -> Lsn {
        let sh = &self.sh;
        let _span = sh.obs.span(SpanKind::WalAppend, rec.txn.0, 0);
        let envelope = rec.envelope();
        let header = frame::frame_header(&[&envelope, &rec.body]);
        let len = frame::frame_len(ENVELOPE_LEN + rec.body.len());
        debug_assert_eq!(frame::frame_len(u32_at(&header, 0) as usize), len);
        assert!(
            len <= sh.buf.max_reservation(),
            "log record ({len} bytes) exceeds the ring's largest reservation ({}); raise LogOptions::ring_*",
            sh.buf.max_reservation()
        );
        let start = sh.buf.reserve(len);
        crash_point!("wal.group.reserve");
        // Backpressure: wait for the range `cap` below to be drained. Help
        // drain instead of only spinning: with no committer flushing, nobody
        // else would ever empty a full ring.
        while !sh.buf.has_space(start + len) {
            if let Some(mut g) = sh.inner.try_lock() {
                sh.drain_locked(&mut g);
            }
            ariesim_common::yield_point!();
        }
        let body_at = start + frame::FRAME_HEADER_LEN as u64;
        sh.buf.copy_in(start, &header);
        sh.buf.copy_in(body_at, &envelope);
        sh.buf.copy_in(body_at + ENVELOPE_LEN as u64, &rec.body);
        sh.buf.publish(start, len);
        crash_point!("wal.append.tail");
        // ordering: Relaxed — monotone register, no payload to publish (the
        // record bytes are published by the ring's Release in `publish`).
        sh.last_lsn.fetch_max(start, Ordering::Relaxed);
        sh.stats.log_records.bump();
        sh.stats.log_bytes.add(len);
        crash_point!("wal.group.publish");
        Lsn(start)
    }

    /// Make every record with LSN ≤ `lsn` durable. Group commit: one flush
    /// covers every committer whose LSN rode along.
    pub fn flush_to(&self, lsn: Lsn) -> Result<()> {
        // Fast path: already durable. Must not take the inner lock, or every
        // WAL-rule check during page write-back would serialize behind an
        // in-flight group flush. `flushed` only ever grows, so a stale read
        // is safe — we just fall through to the slow path.
        // ordering: Acquire pairs with the Release store after fsync
        if lsn.0 < self.sh.flushed.load(Ordering::Acquire) {
            return Ok(());
        }
        self.sh.group_wait(lsn)
    }

    /// Make the entire published log durable. (A reservation still being
    /// copied by a concurrent appender does not ride along — this drains
    /// the published prefix, never spins for in-flight appends.)
    pub fn flush_all(&self) -> Result<()> {
        let sh = &self.sh;
        let mut g = sh.inner.lock();
        while sh.drain_locked(&mut g) {}
        sh.flush_locked(&mut g)
    }

    /// LSN below which everything is stable.
    pub fn flushed_lsn(&self) -> Lsn {
        // ordering: Acquire pairs with the Release store after fsync
        Lsn(self.sh.flushed.load(Ordering::Acquire))
    }

    /// Largest LSN such that every byte below it is published in the ring
    /// (or already drained). Exposed for the model harnesses: the durable
    /// mirror must never read ahead of this watermark.
    pub fn published_lsn(&self) -> Lsn {
        Lsn(self.sh.buf.published())
    }

    /// LSN of the most recently appended record; NULL if the log is empty.
    pub fn last_lsn(&self) -> Lsn {
        // ordering: Relaxed — monotone register (see the store in `append`)
        Lsn(self.sh.last_lsn.load(Ordering::Relaxed))
    }

    /// LSN the next append will receive (the ring's reservation watermark).
    pub fn next_lsn(&self) -> Lsn {
        Lsn(self.sh.buf.reserved())
    }

    /// Read and decode the record at `lsn` (flushed or still buffered —
    /// rollback during normal processing reads records that may not yet be
    /// durable). A record still in the ring is drained into the image first.
    pub fn read(&self, lsn: Lsn) -> Result<LogRecord> {
        let sh = &self.sh;
        let end = sh.buf.reserved();
        if lsn.is_null() || lsn < FIRST_LSN || lsn.0 >= end {
            return Err(Error::CorruptLog {
                lsn,
                reason: format!("lsn out of range (log ends at {})", Lsn(end)),
            });
        }
        let mut g = sh.inner.lock();
        // Spin-to-stable: the frame at `lsn` may still be mid-publish by a
        // concurrent appender (which needs no lock to finish).
        while g.aligned <= lsn {
            let progressed = sh.drain_locked(&mut g);
            if !progressed && g.tail.0 == sh.buf.reserved() {
                break; // stable: nothing unpublished remains
            }
            ariesim_common::yield_point!();
        }
        match frame::read_frame(&g.image, lsn)? {
            FrameRead::Ok { body, .. } => LogRecord::decode(lsn, body),
            FrameRead::End { .. } => Err(Error::CorruptLog {
                lsn,
                reason: "no valid frame at lsn".into(),
            }),
        }
    }

    /// Iterate records in LSN order starting at `from` (or the log start if
    /// `from` is NULL). Each `next()` re-acquires the internal lock, so the
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

    /// Read a chunk of the durable log image for shipping to a standby:
    /// whole frames starting at `from` (log start if NULL), totalling at
    /// most `max_bytes` — except that the first frame always ships whole,
    /// so one oversized record cannot wedge the stream. Returns the raw
    /// bytes and the LSN one past the chunk (the `from` of the next call).
    /// An empty chunk means `from` is the durable end. Buffered-tail
    /// frames never ship: only log the primary cannot lose may reach a
    /// standby.
    pub fn read_durable_chunk(&self, from: Lsn, max_bytes: usize) -> Result<(Vec<u8>, Lsn)> {
        let g = self.sh.inner.lock();
        let from = if from.is_null() { FIRST_LSN } else { from };
        if from < FIRST_LSN || from > g.durable_end {
            return Err(Error::CorruptLog {
                lsn: from,
                reason: format!("chunk start outside durable log (ends at {})", g.durable_end),
            });
        }
        let durable = &g.image[..g.durable_end.0 as usize];
        let mut at = from;
        while let FrameRead::Ok { next, .. } = frame::read_frame(durable, at)? {
            if at > from && (next.0 - from.0) as usize > max_bytes {
                break;
            }
            at = next;
            if (at.0 - from.0) as usize >= max_bytes {
                break;
            }
        }
        Ok((g.image[from.0 as usize..at.0 as usize].to_vec(), at))
    }

    /// Splice a shipped chunk (whole frames, as produced by
    /// [`LogManager::read_durable_chunk`] on a primary) onto this log at
    /// exactly the current tail. The standby's log stays a byte-identical
    /// prefix of the primary's, so primary LSNs are valid here verbatim;
    /// `at` guards against gaps, duplicates, and reordering. The chunk is
    /// CRC-validated frame by frame before any state changes, then written
    /// through to the file immediately: shipped log was already durable on
    /// the primary, and the standby must not apply records it could lose.
    pub fn ingest_frames(&self, at: Lsn, chunk: &[u8]) -> Result<()> {
        let sh = &self.sh;
        let mut g = sh.inner.lock();
        while sh.drain_locked(&mut g) {}
        if g.durable_end != g.tail {
            return Err(Error::Internal(
                "ingest_frames on a log with a buffered append tail".into(),
            ));
        }
        if at != g.tail {
            return Err(Error::CorruptLog {
                lsn: at,
                reason: format!("ingest chunk at {at}, but the log ends at {}", g.tail),
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
        // Claim the chunk's LSN range in the ring so append LSNs stay
        // consistent. A plain store would race a concurrent appender's
        // fetch-add; the CAS fails instead and preserves the old contract
        // ("no buffered append tail during ingest").
        if !sh.buf.try_reserve_at(at.0, chunk.len() as u64) {
            return Err(Error::Internal(
                "ingest_frames raced a concurrent append".into(),
            ));
        }
        // Write-through, with a crash point splitting the write so the
        // torture harness can leave a genuinely torn standby tail.
        g.file.seek(SeekFrom::Start(at.0))?;
        let half = chunk.len() / 2;
        g.file.write_all(&chunk[..half])?;
        crash_point!("wal.ingest.mid");
        g.file.write_all(&chunk[half..])?;
        if sh.opts.fsync {
            g.file.sync_data()?;
        }
        g.image.extend_from_slice(chunk);
        g.tail = Lsn(g.image.len() as u64);
        g.durable_end = g.tail;
        g.aligned = g.tail;
        // The bytes bypassed the ring's slab; account for them so later
        // ring appends still publish and drain cleanly.
        sh.buf.skip(at.0, chunk.len() as u64);
        sh.buf.mark_drained(g.tail.0);
        // ordering: Relaxed — monotone register (see `append`)
        sh.last_lsn.fetch_max(last.0, Ordering::Relaxed);
        // ordering: Release publishes the fsync'd prefix; Acquire readers of `flushed` may then skip the lock
        sh.flushed.store(g.durable_end.0, Ordering::Release);
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
    /// Copy the ring's published prefix into the image and advance the
    /// drain + frame-aligned watermarks. Returns whether bytes moved.
    /// Caller holds the inner lock (there is exactly one drainer at a time).
    fn drain_locked(&self, g: &mut Inner) -> bool {
        let from = g.tail.0;
        let to = self.buf.published_to(from);
        if to == from {
            return false;
        }
        self.buf.copy_out(from, to, &mut g.image);
        g.tail = Lsn(to);
        self.buf.mark_drained(to);
        // Advance the frame-boundary watermark with a cheap length-header
        // walk (no CRC — these bytes were published by a successful append).
        // Flushing past a frame boundary would write a torn frame, and a
        // crash right after would falsely ack durability for it.
        let mut at = g.aligned.0 as usize;
        loop {
            if at + frame::FRAME_HEADER_LEN > g.image.len() {
                break;
            }
            let len = ariesim_common::codec::u32_at(&g.image, at) as usize;
            debug_assert!(len > 0, "zero-length frame in drained log at {at}");
            let next = at + frame::FRAME_HEADER_LEN + len;
            if next > g.image.len() {
                break;
            }
            at = next;
        }
        g.aligned = Lsn(at as u64);
        true
    }

    /// Drain until the frame containing `lsn` is wholly in the image
    /// (`aligned > lsn`, which alignment makes equivalent to "the frame at
    /// `lsn` is complete"), or the ring is stable with nothing unpublished.
    /// Spin-to-stable: a reservation below `lsn` may still be mid-copy, and
    /// its publisher needs no lock to finish, so spinning here is live.
    fn drain_until(&self, g: &mut Inner, lsn: Lsn) {
        loop {
            self.drain_locked(g);
            if g.aligned > lsn || g.tail.0 == self.buf.reserved() {
                return;
            }
            ariesim_common::yield_point!();
        }
    }

    /// One group flush: drain up to `target`, then write + (optionally)
    /// fsync the whole unflushed aligned prefix.
    fn group_flush(&self, g: &mut Inner, target: Lsn) -> Result<()> {
        self.drain_until(g, target);
        // Window: reservation published and drained, but nothing durable.
        crash_point!("wal.group.flush_mid");
        self.flush_locked(g)?;
        crash_point!("wal.group.flush_done");
        Ok(())
    }

    fn flush_locked(&self, g: &mut Inner) -> Result<()> {
        let from = g.durable_end.0 as usize;
        let to = g.aligned.0 as usize;
        if from == to {
            return Ok(());
        }
        let _span = self.obs.span(SpanKind::WalFsync, 0, 0);
        crash_point!("wal.flush.begin");
        g.file.seek(SeekFrom::Start(from as u64))?;
        // Two writes with a crash point between them: crashing at
        // "wal.flush.mid" leaves a genuinely torn tail (first half of the
        // range on disk, durable_end not advanced) for the torn-tail scan.
        let half = from + (to - from) / 2;
        g.file.write_all(&g.image[from..half])?;
        crash_point!("wal.flush.mid");
        g.file.write_all(&g.image[half..to])?;
        if self.opts.fsync {
            g.file.sync_data()?;
        }
        crash_point!("wal.flush.end");
        g.durable_end = g.aligned;
        // ordering: Release publishes the fsync'd prefix; Acquire readers of `flushed` may then skip the lock
        self.flushed.store(g.durable_end.0, Ordering::Release);
        self.stats.log_forces.bump();
        Ok(())
    }

    /// Largest LSN currently enqueued on the barrier, if any.
    fn barrier_max(&self) -> Option<u64> {
        self.barrier.lock().iter().map(|(l, _)| *l).max()
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
    /// election. Whoever finds the inner lock free flushes the barrier
    /// maximum for everyone queued; everyone else polls the durable mirror
    /// for about one batch's duration, then parks and re-elects on timeout
    /// so a vanished leader can never strand a rider.
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
            if let Some(mut g) = self.inner.try_lock() {
                let target = Lsn(self.barrier_max().map_or(lsn.0, |m| m.max(lsn.0)));
                self.group_flush(&mut g, target)?;
                drop(g);
                let woken = self.wake_satisfied();
                // A leader that had already enqueued as a rider was counted
                // (and unparked) by its own wake pass.
                self.note_batch(if registered { woken.max(1) } else { woken + 1 });
                // ordering: Acquire pairs with the Release store after fsync
                let durable = self.flushed.load(Ordering::Acquire);
                if lsn.0 >= durable && durable == self.buf.reserved() {
                    // `lsn` lies beyond everything ever appended; the whole
                    // log is durable, which is all a flush can promise.
                    return Ok(());
                }
            } else {
                if !registered {
                    PARKER.with(|p| self.barrier.lock().push((lsn.0, Arc::clone(p))));
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
                    PARKER.with(|p| p.park_timeout(RIDER_RETRY));
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
        let sh = &self.mgr.sh;
        let mut g = sh.inner.lock();
        if self.at >= g.aligned {
            sh.drain_locked(&mut g);
        }
        if self.at >= g.tail {
            return None;
        }
        match frame::read_frame(&g.image, self.at) {
            Ok(FrameRead::Ok { body, .. }) => {
                let rec = LogRecord::decode(self.at, body);
                self.at = Lsn(self.at.0 + frame::frame_len(body.len()));
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
        // Simulate an in-flight flush by holding the inner lock; a flush_to
        // for an already-durable LSN must return without acquiring it.
        let _held = m.sh.inner.lock();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                m.flush_to(l1).unwrap();
                tx.send(()).unwrap();
            });
            rx.recv_timeout(std::time::Duration::from_secs(2))
                .expect("no-op flush blocked behind held inner lock");
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
        let (chunk, next) = m.read_durable_chunk(Lsn::NULL, 1 << 20).unwrap();
        assert_eq!(next, m.flushed_lsn());
        assert!(!chunk.is_empty());
        // The buffered record is not in the chunk.
        let (rest, end) = m.read_durable_chunk(next, 1 << 20).unwrap();
        assert!(rest.is_empty());
        assert_eq!(end, next);
    }

    #[test]
    fn durable_chunk_respects_max_bytes_on_frame_boundaries() {
        let dir = TempDir::new("wal");
        let m = mgr(&dir);
        let mut prev = Lsn::NULL;
        for i in 0..8u8 {
            prev = m.append(&upd(1, prev, &[i; 32]));
        }
        m.flush_all().unwrap();
        // Walk the log in tiny chunks; every chunk must parse as whole
        // frames, and concatenated they must equal one big chunk.
        let (all, end) = m.read_durable_chunk(Lsn::NULL, 1 << 20).unwrap();
        let mut walked = Vec::new();
        let mut at = m.first_lsn();
        while at < end {
            let (chunk, next) = m.read_durable_chunk(at, 40).unwrap();
            assert!(next > at, "no progress at {at}");
            walked.extend_from_slice(&chunk);
            at = next;
        }
        assert_eq!(walked, all);
    }

    #[test]
    fn ingest_extends_log_and_survives_reopen() {
        let dir = TempDir::new("wal");
        let primary = LogManager::open(&dir.file("p"), LogOptions::default(), new_stats()).unwrap();
        let standby_path = dir.file("s");
        let standby =
            LogManager::open(&standby_path, LogOptions::default(), new_stats()).unwrap();
        let mut prev = Lsn::NULL;
        for i in 0..5u8 {
            prev = m_append(&primary, i, prev);
        }
        primary.flush_all().unwrap();
        let mut at = standby.next_lsn();
        loop {
            let (chunk, next) = primary.read_durable_chunk(at, 64).unwrap();
            if chunk.is_empty() {
                break;
            }
            standby.ingest_frames(at, &chunk).unwrap();
            at = next;
        }
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
        let (chunk, next) = primary.read_durable_chunk(Lsn::NULL, 1 << 20).unwrap();
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
    fn tiny_ring_wraps_and_backpressures() {
        let dir = TempDir::new("wal");
        // 2 segments × 64 bytes (62-byte frames, just under the one-segment
        // reservation cap): every frame wraps, and sustained appends
        // exercise the has_space help-drain path.
        let opts = LogOptions {
            ring_segments: 2,
            ring_segment_bytes: 64,
            ..LogOptions::default()
        };
        let m = LogManager::open(&dir.file("wal"), opts, new_stats()).unwrap();
        let mut prev = Lsn::NULL;
        for i in 0..50u8 {
            prev = m.append(&upd(1, prev, &[i; 24]));
        }
        m.flush_to(prev).unwrap();
        assert!(m.flushed_lsn() > prev);
        let bodies: Vec<_> = m.scan(Lsn::NULL).map(|r| r.unwrap().body).collect();
        assert_eq!(bodies.len(), 50);
        for (i, b) in bodies.iter().enumerate() {
            assert_eq!(b, &vec![i as u8; 24]);
        }
    }

    #[test]
    fn mirror_never_leads_published_watermark() {
        let dir = TempDir::new("wal");
        let m = mgr(&dir);
        let mut prev = Lsn::NULL;
        for i in 0..20u8 {
            prev = m.append(&upd(1, prev, &[i; 8]));
            // Read order matters: mirror first, then published.
            let mirror = m.flushed_lsn();
            let published = m.published_lsn();
            assert!(mirror <= published, "durable mirror leads publication");
            if i % 5 == 0 {
                m.flush_to(prev).unwrap();
            }
        }
    }
}
