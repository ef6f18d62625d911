//! Partitioned buffer pool with integrated page latches.
//!
//! Each buffer frame owns an `RwLock<PageBuf>` inline; holding the lock *is*
//! holding the page latch, in the mode the lock was taken in. Frames
//! additionally carry an explicit atomic pin count: guards hold a
//! [`PinGuard`] (an RAII pin), so a latched (or merely fixed) page can never
//! be evicted, and unpinning is one atomic decrement — no pool-wide lock
//! anywhere on the release path. Pins and page guards *borrow* the pool:
//! a fix touches no reference count, only the frame's own words.
//!
//! **Partitioning.** The page table is split into N partitions ("shards"):
//! `hash(PageId) → shard`, each shard owning a contiguous slice of the frame
//! array plus its own mutex, page table, dirty-page bookkeeping and
//! [`Clock`] hand. The shard count follows from the frame count alone
//! ([`BufferPool::partitions`]). A hit takes one shard mutex briefly; a
//! re-pin through an existing [`PinGuard`] (or a guard's
//! [`PageGuard::repin`]) touches only the frame's atomics. Shard mutexes
//! report to the latch monitor as `PoolShard` (rank 3 — a thread never
//! holds two shards at once). Fixes and misses are counted once, in `Stats`
//! (`page_fixes`, `page_reads`); `obs.pool` holds evictions and shard
//! contention.
//!
//! The pool implements the ARIES buffer policies (paper §1.2):
//!
//! * **steal**: eviction writes dirty pages regardless of transaction state,
//!   after enforcing the **WAL rule** (log forced up to the victim's
//!   `page_lsn` first);
//! * **no-force**: nothing here flushes at commit; only checkpoints and
//!   eviction write pages;
//! * a **dirty page table** records, for every dirty cached page, its
//!   `rec_lsn` — the LSN of the first record that dirtied it — which fuzzy
//!   checkpoints persist and restart's forward pass reads. It is kept
//!   per-shard (a page's DPT entry lives in the shard that owns its frame)
//!   and merged on snapshot.
//!
//! **Failed loads.** A miss installs its page-table mapping *before* the
//! read I/O, so concurrent fixes of the same page hit the loading frame and
//! wait on the loader's latch instead of double-loading. If the read fails
//! the install is unwound; any pin taken on the frame in that window turns
//! into [`Error::StalePin`] at its next latch attempt (the frame's atomic
//! owner word is validated after every latch acquisition). `fix_*` retries
//! the fix transparently; explicit [`PinGuard`] holders see the error.
//!
//! Latch acquisition supports conditional (`try_`) variants, used by the
//! B+-tree to obey the paper's rule that nothing waits for a latch while
//! holding an incompatible one out of order.

use crate::disk::DiskManager;
use crate::eviction::Clock;
use ariesim_common::stats::{Bump, StatsHandle};
use ariesim_common::{Error, Lsn, PageBuf, PageId, Result};
use ariesim_fault::crash_point;
use ariesim_obs::monitor::{Class, Held};
use ariesim_obs::{ObsHandle, SpanKind};
use ariesim_wal::{DptEntry, LogManager};
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::HashMap;
// The per-frame protocol words (`pins`, `owner`) are model-checkable facade
// atomics — their interleavings are what `crates/model`'s pool harnesses
// explore.
use ariesim_common::msync::AtomicU32;
use std::sync::atomic::Ordering;
use std::sync::Arc;

type Slot = RwLock<PageBuf>;
type ReadLatch<'p> = RwLockReadGuard<'p, PageBuf>;
type WriteLatch<'p> = RwLockWriteGuard<'p, PageBuf>;

/// One latch mode, as the fix and latch routines see it: how the frame's
/// `RwLock` is taken.
struct Mode<'p, L> {
    try_latch: fn(&'p Slot) -> Option<L>,
    wait_latch: fn(&'p Slot) -> L,
    /// A miss loads under the write latch (see `claim`); this hands that
    /// latch out in the mode that was asked for.
    from_loaded: fn(WriteLatch<'p>) -> L,
}

/// The write latch a miss loads under, with its monitor report.
type LoadLatch<'p> = (WriteLatch<'p>, Held);

impl<'p> Mode<'p, ReadLatch<'p>> {
    const SHARED: Self = Mode {
        try_latch: RwLock::try_read,
        wait_latch: RwLock::read,
        from_loaded: RwLockWriteGuard::downgrade,
    };
}

impl<'p> Mode<'p, WriteLatch<'p>> {
    const EXCLUSIVE: Self = Mode {
        try_latch: RwLock::try_write,
        wait_latch: RwLock::write,
        from_loaded: std::convert::identity,
    };
}

/// One buffer frame: the latched page image plus its pin count. The pin
/// count is outside every mutex — pinning from a hit happens under the
/// owning shard's mutex (so eviction, which also holds it, cannot race),
/// re-pinning from an existing pin and *all* unpinning are plain atomics.
struct Frame {
    buf: Slot,
    pins: AtomicU32,
    /// PageId this frame currently holds (NULL while free), written only
    /// under the owning shard's mutex at install/unwind. Latchers validate
    /// it against their pin after acquiring the latch: a failed load
    /// unwinds a frame while foreign pins may exist, and those pins must
    /// fail loudly ([`Error::StalePin`]) rather than read whatever image
    /// the frame holds now.
    owner: AtomicU32,
}

/// Mutable state of one partition, guarded by the shard mutex.
struct ShardInner {
    /// Page → partition-local frame index.
    table: HashMap<PageId, usize>,
    /// Partition-local frame index → the page it holds (NULL while free).
    meta: Vec<PageId>,
    /// Dirty page table slice: page → rec_lsn, for pages framed here. The
    /// one record of dirtiness: a page is dirty iff it has an entry.
    dpt: HashMap<PageId, Lsn>,
    clock: Clock,
}

struct Shard {
    /// Global index of this partition's frame 0.
    base: usize,
    inner: Mutex<ShardInner>,
}

/// Shard-mutex guard carrying its latch-monitor report, so a shard held
/// across a latch wait is a counted order violation rather than a silent
/// hang.
struct ShardGuard<'a>(parking_lot::MutexGuard<'a, ShardInner>, #[allow(dead_code)] Held);

impl std::ops::Deref for ShardGuard<'_> {
    type Target = ShardInner;

    fn deref(&self) -> &ShardInner {
        &self.0
    }
}

impl std::ops::DerefMut for ShardGuard<'_> {
    fn deref_mut(&mut self) -> &mut ShardInner {
        &mut self.0
    }
}

/// The buffer pool. Page guards and pins borrow it.
pub struct BufferPool {
    frames: Vec<Frame>,
    shards: Vec<Shard>,
    disk: DiskManager,
    log: Arc<LogManager>,
    stats: StatsHandle,
    obs: ObsHandle,
}

impl BufferPool {
    pub fn new(
        disk: DiskManager,
        log: Arc<LogManager>,
        frames: usize,
        stats: StatsHandle,
        obs: ObsHandle,
    ) -> Arc<BufferPool> {
        assert!(frames >= 8, "pool too small to be useful");
        // Page-table partition count: 8, but every partition must own
        // enough frames (16) for the deepest simultaneous pin chain with
        // slack, so a tiny pool collapses to one partition rather than
        // starving a partition of frames for its pin chains.
        let n = (frames / 16).clamp(1, 8);
        // Distribute frames: the first `frames % n` shards get one extra.
        let mut shards = Vec::with_capacity(n);
        let mut base = 0;
        for sid in 0..n {
            let len = frames / n + usize::from(sid < frames % n);
            shards.push(Shard {
                base,
                inner: Mutex::new(ShardInner {
                    table: HashMap::new(),
                    meta: vec![PageId::NULL; len],
                    dpt: HashMap::new(),
                    clock: Clock::new(len),
                }),
            });
            base += len;
        }
        Arc::new(BufferPool {
            frames: (0..frames)
                .map(|_| Frame {
                    buf: RwLock::new(PageBuf::zeroed()),
                    pins: AtomicU32::new(0),
                    owner: AtomicU32::new(PageId::NULL.0),
                })
                .collect(),
            shards,
            disk,
            log,
            stats,
            obs,
        })
    }

    pub fn obs(&self) -> &ObsHandle {
        &self.obs
    }

    pub fn disk(&self) -> &DiskManager {
        &self.disk
    }

    /// Number of page-table partitions in use.
    pub fn partitions(&self) -> usize {
        self.shards.len()
    }

    /// Resident pages per partition, counted from the page tables (test
    /// oracle for how pages spread over the shards).
    pub fn shard_occupancy(&self) -> Vec<usize> {
        (0..self.shards.len())
            .map(|sid| self.lock_shard(sid, "storage::pool::shard_occupancy").table.len())
            .collect()
    }

    /// Sum of all frame pin counts (test oracle for pin balance).
    pub fn total_pins(&self) -> u64 {
        self.frames
            .iter()
            // ordering: pin words synchronize via AcqRel RMWs; Acquire here keeps this sum coherent with them (still advisory across frames)
            .map(|f| f.pins.load(Ordering::Acquire) as u64)
            .sum()
    }

    fn shard_of(&self, page: PageId) -> usize {
        // Fibonacci hashing spreads the mostly-sequential PageIds evenly.
        let h = (page.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        (h as usize) % self.shards.len()
    }

    fn lock_shard(&self, sid: usize, site: &'static str) -> ShardGuard<'_> {
        let shard = &self.shards[sid];
        let held = self.obs.monitor.acquired(Class::PoolShard, site, true);
        let inner = match shard.inner.try_lock() {
            Some(g) => g,
            None => {
                // ordering: contention counter is advisory; no payload rides on it
                self.obs.pool.shard_contended.fetch_add(1, Ordering::Relaxed);
                shard.inner.lock()
            }
        };
        ShardGuard(inner, held)
    }

    // --- fixing ---------------------------------------------------------

    /// Fix `page` and latch it shared. Blocks until the latch is available.
    pub fn fix_s(&self, page: PageId) -> Result<PageReadGuard<'_>> {
        self.fix(page, &Mode::SHARED, false, "storage::pool::fix_s")
    }

    /// Fix `page` and latch it shared, failing with [`Error::WouldBlock`]
    /// instead of waiting for the latch.
    pub fn try_fix_s(&self, page: PageId) -> Result<PageReadGuard<'_>> {
        self.fix(page, &Mode::SHARED, true, "storage::pool::fix_s")
    }

    /// Fix `page` and latch it exclusive. Blocks until available.
    pub fn fix_x(&self, page: PageId) -> Result<PageWriteGuard<'_>> {
        self.fix(page, &Mode::EXCLUSIVE, false, "storage::pool::fix_x")
    }

    /// Fix `page` and latch it exclusive, failing with [`Error::WouldBlock`]
    /// instead of waiting.
    pub fn try_fix_x(&self, page: PageId) -> Result<PageWriteGuard<'_>> {
        self.fix(page, &Mode::EXCLUSIVE, true, "storage::pool::fix_x")
    }

    /// Fix `page` without latching it: the returned pin keeps the frame
    /// resident, and its [`PinGuard::latch_s`]/[`PinGuard::latch_x`] latch
    /// the page again without any shard lookup. This is the fast re-access
    /// path for callers that revisit the same page repeatedly (redo loops,
    /// standby apply).
    pub fn pin(&self, page: PageId) -> Result<PinGuard<'_>> {
        self.stats.page_fixes.bump();
        let (pin, _) = self.claim(page)?;
        Ok(pin)
    }

    fn fix<'p, L>(
        &'p self,
        page: PageId,
        mode: &Mode<'p, L>,
        conditional: bool,
        site: &'static str,
    ) -> Result<PageGuard<'p, L>> {
        self.stats.page_fixes.bump();
        loop {
            let (pin, loaded) = self.claim(page)?;
            let Some((wlatch, held)) = loaded else {
                match self.latch_frame(pin, mode, conditional, site) {
                    // A concurrent failed load unwound the frame between
                    // our pin and our latch; re-fix from the page table.
                    Err(Error::StalePin { .. }) => continue,
                    other => return other,
                }
            };
            // The latch was already acquired (and reported) inside `claim`,
            // under the load I/O.
            self.stats.latches_page.bump();
            return Ok(PageGuard {
                latch: (mode.from_loaded)(wlatch),
                _held: held,
                pin,
            });
        }
    }

    /// Latch an already-pinned frame. On a conditional miss the pin is
    /// dropped (one atomic) and [`Error::WouldBlock`] returned; if the
    /// frame stopped holding the pinned page (a concurrent failed load
    /// unwound it), [`Error::StalePin`].
    fn latch_frame<'p, L>(
        &'p self,
        pin: PinGuard<'p>,
        mode: &Mode<'p, L>,
        conditional: bool,
        site: &'static str,
    ) -> Result<PageGuard<'p, L>> {
        let slot = &self.frames[pin.frame].buf;
        // A blocking request is reported (and order-checked) before it can
        // block; a conditional one only once it is granted.
        let monitor = &self.obs.monitor;
        let blocking = (!conditional).then(|| monitor.acquired(Class::PageLatch, site, true));
        let latch = match (mode.try_latch)(slot) {
            Some(g) => g,
            None if conditional => return Err(Error::WouldBlock),
            None => {
                self.stats.latch_page_waits.bump();
                let _span = self.obs.span(SpanKind::LatchWait, 0, pin.page.0);
                (mode.wait_latch)(slot)
            }
        };
        let held = blocking.unwrap_or_else(|| monitor.acquired(Class::PageLatch, site, false));
        // ordering: acquire pairs with the Release owner store at
        // install/unwind — seeing the new owner implies seeing the table
        // state that produced it.
        if self.frames[pin.frame].owner.load(Ordering::Acquire) != pin.page.0 {
            return Err(Error::StalePin { page: pin.page });
        }
        self.stats.latches_page.bump();
        Ok(PageGuard {
            latch,
            _held: held,
            pin,
        })
    }

    /// Write a dirty page's latched `image` to disk. The monitor checks the
    /// WAL rule first: the log must already be durable past the record at
    /// the image's page_LSN (the caller forced it).
    fn write_back(&self, page: PageId, image: &PageBuf) -> Result<()> {
        let durable = self.log.flushed_lsn().0;
        self.obs.monitor.on_write_back(page.0, image.page_lsn().0, durable);
        let _span = self.obs.span(SpanKind::PageWrite, 0, page.0);
        self.disk.write_page(image)
    }

    /// Pin `page`'s frame, loading it from disk if absent. On a miss the
    /// write latch the load I/O happened under comes back too, still held.
    fn claim(&self, page: PageId) -> Result<(PinGuard<'_>, Option<LoadLatch<'_>>)> {
        debug_assert!(!page.is_null(), "fix of NULL page");
        let sid = self.shard_of(page);
        loop {
            let mut g = self.lock_shard(sid, "storage::pool::claim");
            if let Some(&local) = g.table.get(&page) {
                let gidx = self.shards[sid].base + local;
                // ordering: AcqRel pin increment pairs with the install/eviction pin checks — a nonzero count must imply a visible frame
                self.frames[gidx].pins.fetch_add(1, Ordering::AcqRel);
                g.clock.on_hit(local);
                drop(g);
                let pin = PinGuard {
                    pool: self,
                    frame: gidx,
                    page,
                };
                return Ok((pin, None));
            }
            // Miss: the clock proposes victims among this shard's frames;
            // a frame is accepted only if unpinned *and* its latch is free
            // (the conditional write latch is claimed inside the callback
            // and kept for the eviction + load I/O).
            let base = self.shards[sid].base;
            let mut wlatch: Option<LoadLatch<'_>> = None;
            let mut latch_busy = false;
            let victim = g.clock.victim(|local| {
                let fr = &self.frames[base + local];
                // ordering: pairs with the AcqRel pin RMWs; a frame seen unpinned here is re-checked under its write latch before eviction
                if fr.pins.load(Ordering::Acquire) != 0 {
                    return false;
                }
                match fr.buf.try_write() {
                    Some(w) => {
                        // A trylock: it joins the held set unchecked.
                        let site = "storage::pool::claim.load";
                        let held = self.obs.monitor.acquired(Class::PageLatch, site, false);
                        wlatch = Some((w, held));
                        true
                    }
                    None => {
                        // pins==0 yet latch held: a checkpoint fence is
                        // walking the frames. Transient.
                        latch_busy = true;
                        false
                    }
                }
            });
            let (Some(local), Some((mut latch, held))) = (victim, wlatch) else {
                drop(g);
                if latch_busy {
                    std::thread::yield_now();
                    continue;
                }
                return Err(Error::BufferPoolFull);
            };
            let old = g.meta[local];
            let old_dirty = g.dpt.contains_key(&old);
            let gidx = base + local;
            drop(g);
            // The old mapping stays in the table until the write-back below
            // completes: a concurrent fix of the old page must HIT this
            // frame (and block on our latch), never miss and fault a stale
            // image in from disk while the newest version only exists here.
            //
            // I/O outside the shard mutex, under the frame's write latch.
            if old_dirty {
                crash_point!("pool.evict.begin");
                // WAL rule: the log must cover the page before it hits disk.
                self.log.flush_to(latch.page_lsn())?;
                crash_point!("pool.evict.after_force");
                self.write_back(old, &latch)?;
                crash_point!("pool.evict.after_write");
            }
            // Re-take the shard mutex to complete the eviction. Two races
            // can void the victim while the mutex was dropped:
            //  * a thread hit the old page during our write-back (pinning
            //    the frame, then blocking on our latch) — the frame must
            //    keep the old page;
            //  * a concurrent miss on `page` won the install into another
            //    frame (each racer's victim scan skips the other's latched
            //    frame) — a second insert would overwrite the winner's
            //    mapping and leave two frames caching the page, splitting
            //    readers and writers across divergent images.
            // Either way: keep the old mapping, record the write-back if it
            // ran (the disk image is current; we held the write latch
            // throughout), and retry — the next pass takes the hit path.
            let mut g = self.lock_shard(sid, "storage::pool::claim.install");
            // ordering: pin re-check pairs with the AcqRel pin increments; a
            // hit that pinned this frame during the I/O must be visible here.
            if self.frames[gidx].pins.load(Ordering::Acquire) != 0
                || g.table.contains_key(&page)
            {
                if old_dirty {
                    g.dpt.remove(&old);
                }
                drop(g);
                drop((latch, held));
                std::thread::yield_now();
                continue;
            }
            if !old.is_null() {
                g.table.remove(&old);
                g.dpt.remove(&old);
            }
            g.table.insert(page, local);
            g.meta[local] = page;
            // ordering: Release publishes the table/meta state that produced this owner; stale-pin re-checks load it with Acquire
            self.frames[gidx].owner.store(page.0, Ordering::Release);
            g.clock.on_load(local);
            // ordering: AcqRel pin increment pairs with eviction pin checks
            let prev = self.frames[gidx].pins.fetch_add(1, Ordering::AcqRel);
            debug_assert_eq!(prev, 0, "victim frame was pinned");
            drop(g);
            if !old.is_null() {
                // ordering: advisory counter; nothing synchronizes-with it
                self.obs.pool.evictions.fetch_add(1, Ordering::Relaxed);
            }
            let pin = PinGuard {
                pool: self,
                frame: gidx,
                page,
            };
            let loaded = {
                let _span = self.obs.span(SpanKind::PageRead, 0, page.0);
                self.disk.read_page(page, &mut latch)
            };
            if let Err(e) = loaded {
                // Unwind the install: drop the mapping (the frame holds
                // garbage for `page`) before releasing latch and pin. The
                // owner word goes back to NULL so threads that pinned the
                // frame through the short-lived mapping get `StalePin` from
                // their latch instead of this non-image.
                {
                    let mut g = self.lock_shard(sid, "storage::pool::claim.unwind");
                    if g.table.get(&page) == Some(&local) {
                        g.table.remove(&page);
                        g.meta[local] = PageId::NULL;
                        // ordering: Release publishes the table removal; a pinned reader's Acquire owner re-check must see NULL and fail
                        self.frames[gidx].owner.store(PageId::NULL.0, Ordering::Release);
                    }
                }
                drop((latch, held));
                drop(pin);
                return Err(e);
            }
            return Ok((pin, Some((latch, held))));
        }
    }

    fn mark_dirty(&self, page: PageId, rec_lsn: Lsn) {
        let sid = self.shard_of(page);
        let mut g = self.lock_shard(sid, "storage::pool::mark_dirty");
        g.dpt.entry(page).or_insert(rec_lsn);
    }

    // --- flushing -----------------------------------------------------------

    /// Write `page` to disk if it is cached and dirty (WAL rule enforced).
    /// A page that is not dirty is not fixed: fixing an evicted page would
    /// read it back from disk, and could evict another, only to find it
    /// clean.
    pub fn flush_page(&self, page: PageId) -> Result<()> {
        let sid = self.shard_of(page);
        let dirty = || self.lock_shard(sid, "storage::pool::flush_page").dpt.contains_key(&page);
        if !dirty() {
            return Ok(());
        }
        let guard = self.fix_s(page)?;
        // Re-checked under the latch: an eviction or another flush may have
        // written the page back since.
        if dirty() {
            crash_point!("pool.flush.begin");
            self.log.flush_to(guard.page_lsn())?;
            crash_point!("pool.flush.after_force");
            self.write_back(page, &guard)?;
            crash_point!("pool.flush.after_write");
            self.lock_shard(sid, "storage::pool::flush_page").dpt.remove(&page);
        }
        Ok(())
    }

    /// Flush every dirty page (clean shutdown / heavyweight checkpoint).
    pub fn flush_all(&self) -> Result<()> {
        for e in self.dpt_snapshot() {
            self.flush_page(e.page)?;
        }
        Ok(())
    }

    // --- checkpoint support ---------------------------------------------

    /// Snapshot of the dirty page table **for checkpoints**: first passes a
    /// fence over every resident frame (acquire + release its S latch).
    ///
    /// Why: an update appends its log record and then marks the page dirty,
    /// both inside the page's X-latch critical section. A checkpoint that
    /// snapshots the DPT right after appending CkptBegin could miss a page
    /// whose record (LSN < CkptBegin) is logged but not yet registered —
    /// and restart's forward pass redoes a record below CkptBegin only on a
    /// page the snapshot lists, losing the update. Waiting for each held
    /// latch once guarantees every update logged before the fence has
    /// completed its registration. New updates (LSN > CkptBegin) are always
    /// redone by the forward pass.
    pub fn dpt_snapshot_fenced(&self) -> Vec<DptEntry> {
        let mut resident = Vec::new();
        for sid in 0..self.shards.len() {
            let g = self.lock_shard(sid, "storage::pool::dpt_fence");
            resident.extend(g.table.values().map(|&local| self.shards[sid].base + local));
        }
        for idx in resident {
            let site = "storage::pool::dpt_fence";
            let held = self.obs.monitor.acquired(Class::PageLatch, site, true);
            drop(self.frames[idx].buf.read());
            drop(held);
        }
        self.dpt_snapshot()
    }

    /// Snapshot of the dirty page table, for fuzzy checkpoints.
    pub fn dpt_snapshot(&self) -> Vec<DptEntry> {
        let mut v: Vec<DptEntry> = Vec::new();
        for sid in 0..self.shards.len() {
            let g = self.lock_shard(sid, "storage::pool::dpt_snapshot");
            v.extend(
                g.dpt
                    .iter()
                    .map(|(&page, &rec_lsn)| DptEntry { page, rec_lsn }),
            );
        }
        v.sort_by_key(|e| e.page);
        v
    }

    /// True if `page` is currently cached (for tests).
    pub fn is_cached(&self, page: PageId) -> bool {
        let sid = self.shard_of(page);
        self.lock_shard(sid, "storage::pool::is_cached").table.contains_key(&page)
    }

    /// Test oracle: every shard's page table, frame metadata and frame
    /// owner words agree — each table entry points at a frame holding that
    /// page, and every non-free frame is reachable through exactly its own
    /// table entry, and every dirty page table entry names a page resident
    /// in its shard. A double-installed page would show up here as an
    /// orphaned frame (resident metadata with no table entry), the
    /// signature of two racing misses splitting a page across two frames.
    /// Panics on violation; safe to call concurrently with pool traffic
    /// (each shard is checked under its own mutex).
    pub fn validate_mappings(&self) {
        for sid in 0..self.shards.len() {
            let g = self.lock_shard(sid, "storage::pool::validate");
            let base = self.shards[sid].base;
            for (&page, &local) in g.table.iter() {
                assert_eq!(
                    g.meta[local], page,
                    "table entry names a frame holding another page"
                );
                assert_eq!(
                    // ordering: pairs with the Release owner stores; validation must see the table state that set the owner
                    self.frames[base + local].owner.load(Ordering::Acquire),
                    page.0,
                    "frame owner word drifted from the page table"
                );
            }
            for (local, &m) in g.meta.iter().enumerate() {
                assert!(
                    m.is_null() || g.table.get(&m) == Some(&local),
                    "orphaned frame: {m:?} resident in frame {} without a table entry",
                    base + local
                );
            }
            for page in g.dpt.keys() {
                assert!(
                    g.table.contains_key(page),
                    "dirty page table names {page:?}, which is not resident in its shard"
                );
            }
        }
    }
}

/// An RAII pin on one buffer frame: while any pin is live the frame cannot
/// be evicted, so the page stays resident and re-latchable. Cloning a pin
/// and dropping one are single atomic operations — no shard mutex, which is
/// what makes the re-pin path of repeated page visits contention-free.
pub struct PinGuard<'p> {
    pool: &'p BufferPool,
    /// Global frame index.
    frame: usize,
    page: PageId,
}

impl<'p> PinGuard<'p> {
    /// The pinned page.
    pub fn page(&self) -> PageId {
        self.page
    }

    /// S-latch the pinned page (blocking). No shard lookup: the pin keeps
    /// the frame's identity stable. The only failure is
    /// [`Error::StalePin`] — a concurrent failed load unwound the frame
    /// after this pin was taken; re-fix the page through the pool to retry.
    pub fn latch_s(&self) -> Result<PageReadGuard<'p>> {
        self.pool.latch_frame(self.clone(), &Mode::SHARED, false, "storage::pool::pin.latch_s")
    }

    /// Conditionally S-latch the pinned page.
    pub fn try_latch_s(&self) -> Result<PageReadGuard<'p>> {
        self.pool.latch_frame(self.clone(), &Mode::SHARED, true, "storage::pool::pin.latch_s")
    }

    /// X-latch the pinned page (blocking); failure modes as [`Self::latch_s`].
    pub fn latch_x(&self) -> Result<PageWriteGuard<'p>> {
        self.pool.latch_frame(self.clone(), &Mode::EXCLUSIVE, false, "storage::pool::pin.latch_x")
    }

    /// Conditionally X-latch the pinned page.
    pub fn try_latch_x(&self) -> Result<PageWriteGuard<'p>> {
        self.pool.latch_frame(self.clone(), &Mode::EXCLUSIVE, true, "storage::pool::pin.latch_x")
    }
}

impl Clone for PinGuard<'_> {
    fn clone(&self) -> Self {
        // Safe without the shard mutex: we hold a pin, so the count is ≥ 1
        // and eviction (which requires 0) cannot race the increment.
        // ordering: AcqRel pin increment pairs with eviction pin checks
        self.pool.frames[self.frame].pins.fetch_add(1, Ordering::AcqRel);
        PinGuard { ..*self }
    }
}

impl Drop for PinGuard<'_> {
    fn drop(&mut self) {
        // ordering: AcqRel decrement pairs with eviction pin checks; the release half orders our page accesses before a later evictor reuses the frame
        let prev = self.pool.frames[self.frame].pins.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "unpin of unpinned frame");
    }
}

/// A fixed page, latched in the mode `L` for as long as the guard lives.
/// Dereferences to the page image.
pub struct PageGuard<'p, L> {
    // Field order is drop order: the latch is released, the release is
    // reported to the monitor, the pin goes last — preserving "pins==0 ⇒
    // latch free".
    latch: L,
    _held: Held,
    pin: PinGuard<'p>,
}

/// Shared (S-latched) fixed page.
pub type PageReadGuard<'p> = PageGuard<'p, ReadLatch<'p>>;
/// Exclusive (X-latched) fixed page.
pub type PageWriteGuard<'p> = PageGuard<'p, WriteLatch<'p>>;

impl<'p, L> PageGuard<'p, L> {
    /// Take an extra pin on this page (one atomic; no shard lookup), so it
    /// stays resident after the guard is dropped.
    pub fn repin(&self) -> PinGuard<'p> {
        self.pin.clone()
    }
}

impl<L: std::ops::Deref<Target = PageBuf>> std::ops::Deref for PageGuard<'_, L> {
    type Target = PageBuf;

    fn deref(&self) -> &PageBuf {
        &self.latch
    }
}

impl<'p> PageWriteGuard<'p> {
    /// Record that a logged update with LSN `lsn` modified this page: stamps
    /// `page_lsn` and enters the page in the dirty page table (with `lsn` as
    /// `rec_lsn` if it was clean).
    pub fn record_update(&mut self, lsn: Lsn) {
        self.latch.set_page_lsn(lsn);
        self.mark_dirty_raw(lsn);
    }

    /// Mark dirty without stamping an LSN (used when formatting pages whose
    /// changes are covered by a following logged update).
    pub fn mark_dirty_raw(&mut self, rec_lsn: Lsn) {
        self.pin.pool.mark_dirty(self.pin.page, rec_lsn);
    }

    /// Downgrade to a shared guard without releasing the latch or the pin
    /// (the held depth does not change, so the monitor is not told).
    pub fn downgrade(self) -> PageReadGuard<'p> {
        let PageGuard { latch, _held, pin } = self;
        PageGuard {
            latch: RwLockWriteGuard::downgrade(latch),
            _held,
            pin,
        }
    }
}

impl std::ops::DerefMut for PageWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut PageBuf {
        &mut self.latch
    }
}
