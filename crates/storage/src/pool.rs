//! Partitioned buffer pool with integrated page latches.
//!
//! Each buffer frame is an `RwLock<PageBuf>`; holding the lock *is* holding
//! the page latch, in the mode the lock was taken in. Frames additionally
//! carry an explicit atomic pin count: guards hold a [`PinGuard`] (an RAII
//! pin), so a latched (or merely fixed) page can never be evicted, and
//! unpinning is one atomic decrement — no pool-wide lock anywhere on the
//! release path.
//!
//! **Partitioning.** The page table is split into N partitions ("shards"):
//! `hash(PageId) → shard`, each shard owning a contiguous slice of the frame
//! array plus its own mutex, page table, dirty-page bookkeeping and
//! [`EvictionPolicy`] instance. The shard count follows from the frame
//! count alone ([`PoolOptions::partitions`]). A hit takes one shard mutex
//! briefly; a re-pin through an existing [`PinGuard`] (or a guard's
//! [`PageReadGuard::repin`]) touches only the frame's atomics. The old
//! whole-pool `PoolMutex` lockdep class is retired; shard mutexes register
//! as `PoolShard` (same rank 3 — a thread never holds two shards at once).
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
//!   checkpoints persist and restart's analysis pass rebuilds. It is kept
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
use crate::eviction::{EvictionPolicy, EvictionPolicyKind};
use ariesim_common::stats::{Bump, StatsHandle};
use ariesim_common::{Error, Lsn, PageBuf, PageId, Result};
use ariesim_fault::crash_point;
use ariesim_obs::lockdep;
use ariesim_obs::{EventKind, ModeTag, Obs, ObsHandle, SpanKind};
use ariesim_wal::{DptEntry, LogManager};
use parking_lot::lock_api::{ArcRwLockReadGuard, ArcRwLockWriteGuard};
use parking_lot::{Mutex, RawRwLock, RwLock};
use std::collections::HashMap;
// The per-frame protocol words (`pins`, `owner`) are model-checkable facade
// atomics — their interleavings are what `crates/model`'s pool harnesses
// explore; the per-shard traffic counters are plain std atomics (pure
// statistics, no protocol).
use ariesim_common::msync::AtomicU32;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

type ReadLatch = ArcRwLockReadGuard<RawRwLock, PageBuf>;
type WriteLatch = ArcRwLockWriteGuard<RawRwLock, PageBuf>;

thread_local! {
    /// (currently held, high-water mark) page latches on this thread — the
    /// gauge behind the paper's "not more than 2 index pages are held
    /// latched simultaneously" claim (validated in the latch-budget test).
    static LATCH_DEPTH: std::cell::Cell<(u32, u32)> = const { std::cell::Cell::new((0, 0)) };
}

fn latch_depth_inc() {
    LATCH_DEPTH.with(|d| {
        let (cur, max) = d.get();
        d.set((cur + 1, max.max(cur + 1)));
    });
}

fn latch_depth_dec() {
    LATCH_DEPTH.with(|d| {
        let (cur, max) = d.get();
        d.set((cur.saturating_sub(1), max));
    });
}

/// Reset this thread's latch high-water mark and return the previous value.
pub fn take_latch_high_water() -> u32 {
    LATCH_DEPTH.with(|d| {
        let (cur, max) = d.get();
        d.set((cur, 0));
        max
    })
}

/// Pool tuning.
#[derive(Clone, Debug)]
pub struct PoolOptions {
    /// Number of buffer frames.
    pub frames: usize,
    /// Replacement policy run by each partition.
    pub policy: EvictionPolicyKind,
}

impl Default for PoolOptions {
    fn default() -> Self {
        PoolOptions {
            frames: 256,
            policy: EvictionPolicyKind::Clock,
        }
    }
}

impl PoolOptions {
    /// Page-table partition count: 8, but every partition must own enough
    /// frames (16) for the deepest simultaneous pin chain with slack, so a
    /// tiny pool collapses to one partition rather than starving a
    /// partition of frames for its pin chains.
    pub fn partitions(&self) -> usize {
        (self.frames / 16).clamp(1, 8)
    }
}

#[derive(Clone, Copy)]
struct FrameMeta {
    page: PageId,
    dirty: bool,
}

impl FrameMeta {
    const FREE: FrameMeta = FrameMeta {
        page: PageId::NULL,
        dirty: false,
    };
}

/// One buffer frame: the latched page image plus its pin count. The pin
/// count is outside every mutex — pinning from a hit happens under the
/// owning shard's mutex (so eviction, which also holds it, cannot race),
/// re-pinning from an existing pin and *all* unpinning are plain atomics.
struct Frame {
    buf: Arc<RwLock<PageBuf>>,
    pins: AtomicU32,
    /// PageId this frame currently holds (NULL while free), written only
    /// under the owning shard's mutex at install/unwind. Latchers validate
    /// it against their pin after acquiring the latch: a failed load
    /// unwinds a frame while foreign pins may exist, and those pins must
    /// fail loudly ([`Error::StalePin`]) rather than read whatever image
    /// the frame holds now.
    owner: AtomicU32,
}

/// Per-partition traffic counters (relaxed atomics; read per shard through
/// [`BufferPool::shard_stats`] and summed into `obs.pool`).
#[derive(Default)]
pub struct ShardCounters {
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub evictions: AtomicU64,
    /// Shard-mutex acquisitions that found the mutex already held.
    pub contended: AtomicU64,
}

/// Mutable state of one partition, guarded by the shard mutex.
struct ShardInner {
    /// Page → partition-local frame index.
    table: HashMap<PageId, usize>,
    meta: Vec<FrameMeta>,
    /// Dirty page table slice: page → rec_lsn, for pages framed here.
    dpt: HashMap<PageId, Lsn>,
    policy: Box<dyn EvictionPolicy>,
}

struct Shard {
    /// Global index of this partition's frame 0.
    base: usize,
    inner: Mutex<ShardInner>,
    counters: ShardCounters,
}

/// Shard-mutex guard that reports its acquisition/release to the lockdep
/// graph, so a shard-held-across-a-latch-wait bug shows up as an
/// order-violating edge rather than a silent hang.
struct ShardGuard<'a>(parking_lot::MutexGuard<'a, ShardInner>);

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

impl Drop for ShardGuard<'_> {
    fn drop(&mut self) {
        lockdep::released(lockdep::Class::PoolShard);
    }
}

/// The buffer pool. Use through `Arc` — page guards keep the pool alive.
pub struct BufferPool {
    frames: Vec<Frame>,
    shards: Vec<Shard>,
    policy_name: &'static str,
    disk: DiskManager,
    log: Arc<LogManager>,
    stats: StatsHandle,
    obs: ObsHandle,
}

impl BufferPool {
    pub fn new(
        disk: DiskManager,
        log: Arc<LogManager>,
        opts: PoolOptions,
        stats: StatsHandle,
    ) -> Arc<BufferPool> {
        BufferPool::new_with_obs(disk, log, opts, stats, Obs::disabled())
    }

    pub fn new_with_obs(
        disk: DiskManager,
        log: Arc<LogManager>,
        opts: PoolOptions,
        stats: StatsHandle,
        obs: ObsHandle,
    ) -> Arc<BufferPool> {
        assert!(opts.frames >= 8, "pool too small to be useful");
        let n = opts.partitions();
        // Distribute frames: the first `frames % n` shards get one extra.
        let mut shards = Vec::with_capacity(n);
        let mut base = 0;
        for sid in 0..n {
            let len = opts.frames / n + usize::from(sid < opts.frames % n);
            shards.push(Shard {
                base,
                inner: Mutex::new(ShardInner {
                    table: HashMap::new(),
                    meta: vec![FrameMeta::FREE; len],
                    dpt: HashMap::new(),
                    policy: opts.policy.build(len),
                }),
                counters: ShardCounters::default(),
            });
            base += len;
        }
        Arc::new(BufferPool {
            frames: (0..opts.frames)
                .map(|_| Frame {
                    buf: Arc::new(RwLock::new(PageBuf::zeroed())),
                    pins: AtomicU32::new(0),
                    owner: AtomicU32::new(PageId::NULL.0),
                })
                .collect(),
            shards,
            policy_name: opts.policy.name(),
            disk,
            log,
            stats,
            obs,
        })
    }

    pub fn obs(&self) -> &ObsHandle {
        &self.obs
    }

    pub fn stats(&self) -> &StatsHandle {
        &self.stats
    }

    pub fn disk(&self) -> &DiskManager {
        &self.disk
    }

    /// Number of page-table partitions in use.
    pub fn partitions(&self) -> usize {
        self.shards.len()
    }

    /// Name of the eviction policy the partitions run.
    pub fn eviction_policy(&self) -> &'static str {
        self.policy_name
    }

    /// Per-partition counter snapshot: `(hits, misses, evictions,
    /// contended)` per shard.
    pub fn shard_stats(&self) -> Vec<(u64, u64, u64, u64)> {
        self.shards
            .iter()
            .map(|s| {
                (
                    // ordering: advisory per-shard counters; nothing synchronizes-with them
                    s.counters.hits.load(Ordering::Relaxed),
                    s.counters.misses.load(Ordering::Relaxed), // ordering: as above
                    s.counters.evictions.load(Ordering::Relaxed), // ordering: as above
                    s.counters.contended.load(Ordering::Relaxed), // ordering: as above
                )
            })
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
        lockdep::acquired(lockdep::Class::PoolShard, site, true);
        let inner = match shard.inner.try_lock() {
            Some(g) => g,
            None => {
                // ordering: contention counters are advisory; no payload rides on them
                shard.counters.contended.fetch_add(1, Ordering::Relaxed);
                self.obs.pool.shard_contended.fetch_add(1, Ordering::Relaxed); // ordering: as above
                shard.inner.lock()
            }
        };
        ShardGuard(inner)
    }

    // --- fixing ---------------------------------------------------------

    /// Fix `page` and latch it shared. Blocks until the latch is available.
    pub fn fix_s(self: &Arc<Self>, page: PageId) -> Result<PageReadGuard> {
        self.fix_shared(page, false)
    }

    /// Fix `page` and latch it shared, failing with [`Error::WouldBlock`]
    /// instead of waiting for the latch.
    pub fn try_fix_s(self: &Arc<Self>, page: PageId) -> Result<PageReadGuard> {
        self.fix_shared(page, true)
    }

    /// Fix `page` and latch it exclusive. Blocks until available.
    pub fn fix_x(self: &Arc<Self>, page: PageId) -> Result<PageWriteGuard> {
        self.fix_exclusive(page, false)
    }

    /// Fix `page` and latch it exclusive, failing with [`Error::WouldBlock`]
    /// instead of waiting.
    pub fn try_fix_x(self: &Arc<Self>, page: PageId) -> Result<PageWriteGuard> {
        self.fix_exclusive(page, true)
    }

    /// Fix `page` without latching it: the returned pin keeps the frame
    /// resident, and its [`PinGuard::latch_s`]/[`PinGuard::latch_x`] latch
    /// the page again without any shard lookup. This is the fast re-access
    /// path for callers that revisit the same page repeatedly (redo loops,
    /// standby apply).
    pub fn pin(self: &Arc<Self>, page: PageId) -> Result<PinGuard> {
        self.stats.page_fixes.bump();
        match self.claim(page)? {
            Claimed::Hit(pin) => Ok(pin),
            Claimed::Loaded(latch, pin) => {
                drop(latch);
                lockdep::released(lockdep::Class::PageLatch);
                Ok(pin)
            }
        }
    }

    fn fix_shared(self: &Arc<Self>, page: PageId, conditional: bool) -> Result<PageReadGuard> {
        self.stats.page_fixes.bump();
        loop {
            match self.claim(page)? {
                Claimed::Hit(pin) => {
                    match self.latch_frame_s(pin, conditional, "storage::pool::fix_s") {
                        // A concurrent failed load unwound the frame between
                        // our pin and our latch; re-fix from the page table.
                        Err(Error::StalePin { .. }) => continue,
                        other => return other,
                    }
                }
                Claimed::Loaded(wlatch, pin) => {
                    // The latch was already acquired (and lockdep-recorded)
                    // inside `claim`, under the load I/O.
                    self.stats.latches_page.bump();
                    latch_depth_inc();
                    self.note_latch_acquired(page, ModeTag::S);
                    return Ok(PageReadGuard {
                        latch: Some(ArcRwLockWriteGuard::downgrade(wlatch)),
                        pin,
                    });
                }
            }
        }
    }

    fn fix_exclusive(self: &Arc<Self>, page: PageId, conditional: bool) -> Result<PageWriteGuard> {
        self.stats.page_fixes.bump();
        loop {
            match self.claim(page)? {
                Claimed::Hit(pin) => {
                    match self.latch_frame_x(pin, conditional, "storage::pool::fix_x") {
                        // Unwound under us (see `fix_shared`); retry the fix.
                        Err(Error::StalePin { .. }) => continue,
                        other => return other,
                    }
                }
                Claimed::Loaded(wlatch, pin) => {
                    // Latch acquired (and lockdep-recorded) inside `claim`.
                    self.stats.latches_page.bump();
                    latch_depth_inc();
                    self.note_latch_acquired(page, ModeTag::X);
                    return Ok(PageWriteGuard {
                        latch: Some(wlatch),
                        pin,
                    });
                }
            }
        }
    }

    /// Latch an already-pinned frame shared. On a conditional miss the pin
    /// is dropped (one atomic) and [`Error::WouldBlock`] returned; if the
    /// frame stopped holding the pinned page (a concurrent failed load
    /// unwound it), [`Error::StalePin`].
    fn latch_frame_s(
        &self,
        pin: PinGuard,
        conditional: bool,
        site: &'static str,
    ) -> Result<PageReadGuard> {
        let slot = self.frames[pin.frame].buf.clone();
        let latch = match slot.try_read_arc() {
            Some(g) => g,
            None if conditional => return Err(Error::WouldBlock),
            None => {
                self.stats.latch_page_waits.bump();
                let wait = self.obs.timer();
                let span = self.obs.span(SpanKind::LatchWait, 0, pin.page.0);
                let g = slot.read_arc();
                drop(span);
                self.obs.hist.latch_wait_page.record_since(wait);
                g
            }
        };
        // ordering: acquire pairs with the Release owner store at
        // install/unwind — seeing the new owner implies seeing the table
        // state that produced it.
        if self.frames[pin.frame].owner.load(Ordering::Acquire) != pin.page.0 {
            return Err(Error::StalePin { page: pin.page });
        }
        self.stats.latches_page.bump();
        latch_depth_inc();
        lockdep::acquired(lockdep::Class::PageLatch, site, !conditional);
        self.note_latch_acquired(pin.page, ModeTag::S);
        Ok(PageReadGuard {
            latch: Some(latch),
            pin,
        })
    }

    /// Latch an already-pinned frame exclusive; see [`Self::latch_frame_s`].
    fn latch_frame_x(
        &self,
        pin: PinGuard,
        conditional: bool,
        site: &'static str,
    ) -> Result<PageWriteGuard> {
        let slot = self.frames[pin.frame].buf.clone();
        let latch = match slot.try_write_arc() {
            Some(g) => g,
            None if conditional => return Err(Error::WouldBlock),
            None => {
                self.stats.latch_page_waits.bump();
                let wait = self.obs.timer();
                let span = self.obs.span(SpanKind::LatchWait, 0, pin.page.0);
                let g = slot.write_arc();
                drop(span);
                self.obs.hist.latch_wait_page.record_since(wait);
                g
            }
        };
        // ordering: see `latch_frame_s` — acquire pairs with the Release
        // owner store at install/unwind.
        if self.frames[pin.frame].owner.load(Ordering::Acquire) != pin.page.0 {
            return Err(Error::StalePin { page: pin.page });
        }
        self.stats.latches_page.bump();
        latch_depth_inc();
        lockdep::acquired(lockdep::Class::PageLatch, site, !conditional);
        self.note_latch_acquired(pin.page, ModeTag::X);
        Ok(PageWriteGuard {
            latch: Some(latch),
            pin,
        })
    }

    fn note_latch_acquired(&self, page: PageId, mode: ModeTag) {
        self.obs.monitor.on_page_latch_acquired(page.0);
        self.obs.event(EventKind::LatchAcquire, mode, 0, page.0, 0);
    }

    fn note_latch_released(&self, page: u32, mode: ModeTag) {
        lockdep::released(lockdep::Class::PageLatch);
        self.obs.monitor.on_page_latch_released(page);
        self.obs.event(EventKind::LatchRelease, mode, 0, page, 0);
    }

    /// Ring evidence of the WAL rule: a dirty page hit disk at `page_lsn`
    /// while the log was durable to `durable` (`durable >= page_lsn` must
    /// hold on every such event; tests check the dump).
    fn note_write_back(&self, page: PageId, page_lsn: Lsn) {
        let durable = self.log.flushed_lsn();
        self.obs.event(
            EventKind::PageWriteBack,
            ModeTag::None,
            durable.0,
            page.0,
            page_lsn.0,
        );
    }

    /// Pin `page`'s frame, loading it from disk if absent. On a miss, the
    /// returned write latch is already held (the load I/O happened under it).
    fn claim(self: &Arc<Self>, page: PageId) -> Result<Claimed> {
        debug_assert!(!page.is_null(), "fix of NULL page");
        let sid = self.shard_of(page);
        loop {
            let mut g = self.lock_shard(sid, "storage::pool::claim");
            if let Some(&local) = g.table.get(&page) {
                let gidx = self.shards[sid].base + local;
                // ordering: AcqRel pin increment pairs with the install/eviction pin checks — a nonzero count must imply a visible frame
                self.frames[gidx].pins.fetch_add(1, Ordering::AcqRel);
                g.policy.on_hit(local);
                drop(g);
                // ordering: advisory counters; nothing synchronizes-with them
                self.shards[sid].counters.hits.fetch_add(1, Ordering::Relaxed);
                self.obs.pool.hits.fetch_add(1, Ordering::Relaxed); // ordering: as above
                return Ok(Claimed::Hit(PinGuard {
                    pool: self.clone(),
                    frame: gidx,
                    page,
                }));
            }
            // Miss: the policy proposes victims among this shard's frames;
            // a frame is accepted only if unpinned *and* its latch is free
            // (the conditional write latch is claimed inside the callback
            // and kept for the eviction + load I/O).
            let base = self.shards[sid].base;
            let mut wlatch: Option<WriteLatch> = None;
            let mut latch_busy = false;
            let victim = {
                let inner: &mut ShardInner = &mut g;
                let frames = &self.frames;
                inner.policy.victim(&mut |local| {
                    let fr = &frames[base + local];
                    // ordering: pairs with the AcqRel pin RMWs; a frame seen unpinned here is re-checked under its write latch before eviction
                    if fr.pins.load(Ordering::Acquire) != 0 {
                        return false;
                    }
                    match fr.buf.try_write_arc() {
                        Some(w) => {
                            wlatch = Some(w);
                            true
                        }
                        None => {
                            // pins==0 yet latch held: a checkpoint fence is
                            // walking the frames. Transient.
                            latch_busy = true;
                            false
                        }
                    }
                })
            };
            let (Some(local), Some(latch)) = (victim, wlatch) else {
                drop(g);
                if latch_busy {
                    std::thread::yield_now();
                    continue;
                }
                return Err(Error::BufferPoolFull);
            };
            let old = g.meta[local];
            let gidx = base + local;
            drop(g);
            // The old mapping stays in the table until the write-back below
            // completes: a concurrent fix of the old page must HIT this
            // frame (and block on our latch), never miss and fault a stale
            // image in from disk while the newest version only exists here.
            //
            // I/O outside the shard mutex, under the frame's write latch.
            // The latch was obtained with a trylock, so it joins the lockdep
            // held set without an ordering edge.
            lockdep::acquired(lockdep::Class::PageLatch, "storage::pool::claim.load", false);
            let mut latch = latch;
            if old.dirty {
                let written = (|| {
                    crash_point!("pool.evict.begin");
                    // WAL rule: the log must cover the page before it hits
                    // disk.
                    self.log.flush_to(latch.page_lsn())?;
                    crash_point!("pool.evict.after_force");
                    let io = self.obs.timer();
                    {
                        let _span = self.obs.span(SpanKind::PageWrite, 0, old.page.0);
                        self.disk.write_page(&latch)?;
                    }
                    crash_point!("pool.evict.after_write");
                    self.obs.hist.page_write.record_since(io);
                    self.note_write_back(old.page, latch.page_lsn());
                    Ok(())
                })();
                if let Err(e) = written {
                    drop(latch);
                    lockdep::released(lockdep::Class::PageLatch);
                    return Err(e);
                }
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
                if old.dirty {
                    g.meta[local].dirty = false;
                    g.dpt.remove(&old.page);
                }
                drop(g);
                drop(latch);
                lockdep::released(lockdep::Class::PageLatch);
                std::thread::yield_now();
                continue;
            }
            if !old.page.is_null() {
                g.table.remove(&old.page);
                g.dpt.remove(&old.page);
            }
            g.table.insert(page, local);
            g.meta[local] = FrameMeta { page, dirty: false };
            // ordering: Release publishes the table/meta state that produced this owner; stale-pin re-checks load it with Acquire
            self.frames[gidx].owner.store(page.0, Ordering::Release);
            g.policy.on_load(local);
            // ordering: AcqRel pin increment pairs with eviction pin checks
            let prev = self.frames[gidx].pins.fetch_add(1, Ordering::AcqRel);
            debug_assert_eq!(prev, 0, "victim frame was pinned");
            drop(g);
            // ordering: advisory counters; nothing synchronizes-with them
            self.shards[sid].counters.misses.fetch_add(1, Ordering::Relaxed);
            self.obs.pool.misses.fetch_add(1, Ordering::Relaxed); // ordering: as above
            if !old.page.is_null() {
                // ordering: advisory counters; nothing synchronizes-with them
                self.shards[sid].counters.evictions.fetch_add(1, Ordering::Relaxed);
                self.obs.pool.evictions.fetch_add(1, Ordering::Relaxed); // ordering: as above
            }
            let pin = PinGuard {
                pool: self.clone(),
                frame: gidx,
                page,
            };
            let loaded = (|| {
                let io = self.obs.timer();
                {
                    let _span = self.obs.span(SpanKind::PageRead, 0, page.0);
                    *latch = self.disk.read_page(page)?;
                }
                self.obs.hist.page_read.record_since(io);
                Ok(())
            })();
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
                        g.meta[local] = FrameMeta::FREE;
                        // ordering: Release publishes the table removal; a pinned reader's Acquire owner re-check must see NULL and fail
                        self.frames[gidx].owner.store(PageId::NULL.0, Ordering::Release);
                    }
                }
                drop(latch);
                lockdep::released(lockdep::Class::PageLatch);
                drop(pin);
                return Err(e);
            }
            return Ok(Claimed::Loaded(latch, pin));
        }
    }

    fn unpin_frame(&self, frame: usize) {
        // ordering: AcqRel decrement pairs with eviction pin checks; the release half orders our page accesses before a later evictor reuses the frame
        let prev = self.frames[frame].pins.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "unpin of unpinned frame");
    }

    fn mark_dirty(&self, page: PageId, rec_lsn: Lsn) {
        let sid = self.shard_of(page);
        let mut g = self.lock_shard(sid, "storage::pool::mark_dirty");
        if let Some(&local) = g.table.get(&page) {
            g.meta[local].dirty = true;
        }
        g.dpt.entry(page).or_insert(rec_lsn);
    }

    // --- flushing -----------------------------------------------------------

    /// Write `page` to disk if it is cached and dirty (WAL rule enforced).
    pub fn flush_page(self: &Arc<Self>, page: PageId) -> Result<()> {
        let guard = self.fix_s(page)?;
        let sid = self.shard_of(page);
        let dirty = {
            let g = self.lock_shard(sid, "storage::pool::flush_page");
            g.table.get(&page).is_some_and(|&l| g.meta[l].dirty)
        };
        if dirty {
            crash_point!("pool.flush.begin");
            self.log.flush_to(guard.page_lsn())?;
            crash_point!("pool.flush.after_force");
            let io = self.obs.timer();
            {
                let _span = self.obs.span(SpanKind::PageWrite, 0, page.0);
                self.disk.write_page(&guard)?;
            }
            crash_point!("pool.flush.after_write");
            self.obs.hist.page_write.record_since(io);
            self.note_write_back(page, guard.page_lsn());
            let mut g = self.lock_shard(sid, "storage::pool::flush_page");
            if let Some(&local) = g.table.get(&page) {
                g.meta[local].dirty = false;
            }
            g.dpt.remove(&page);
        }
        Ok(())
    }

    /// Flush every dirty page (clean shutdown / heavyweight checkpoint).
    pub fn flush_all(self: &Arc<Self>) -> Result<()> {
        for p in self.dirty_pages() {
            self.flush_page(p)?;
        }
        Ok(())
    }

    /// Every dirty page, in (shard, page) order.
    fn dirty_pages(&self) -> Vec<PageId> {
        let mut pages = Vec::new();
        for sid in 0..self.shards.len() {
            let g = self.lock_shard(sid, "storage::pool::dirty_pages");
            let mut v: Vec<PageId> = g.dpt.keys().copied().collect();
            drop(g);
            v.sort();
            pages.extend(v);
        }
        pages
    }

    // --- checkpoint support ---------------------------------------------

    /// Snapshot of the dirty page table **for checkpoints**: first passes a
    /// fence over every resident frame (acquire + release its S latch).
    ///
    /// Why: an update appends its log record and then marks the page dirty,
    /// both inside the page's X-latch critical section. A checkpoint that
    /// snapshots the DPT right after appending CkptBegin could miss a page
    /// whose record (LSN < CkptBegin) is logged but not yet registered —
    /// and restart's analysis never scans below CkptBegin, losing the
    /// update. Waiting for each held latch once guarantees every update
    /// logged before the fence has completed its registration. New updates
    /// (LSN > CkptBegin) are covered by the analysis scan itself.
    pub fn dpt_snapshot_fenced(&self) -> Vec<DptEntry> {
        let mut resident = Vec::new();
        for sid in 0..self.shards.len() {
            let g = self.lock_shard(sid, "storage::pool::dpt_fence");
            let base = self.shards[sid].base;
            resident.extend(
                g.meta
                    .iter()
                    .enumerate()
                    .filter_map(|(i, m)| (!m.page.is_null()).then_some(base + i)),
            );
        }
        for idx in resident {
            lockdep::acquired(lockdep::Class::PageLatch, "storage::pool::dpt_fence", true);
            drop(self.frames[idx].buf.read_arc());
            lockdep::released(lockdep::Class::PageLatch);
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
    /// table entry. A double-installed page would show up here as an
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
                    g.meta[local].page, page,
                    "table entry names a frame holding another page"
                );
                assert_eq!(
                    // ordering: pairs with the Release owner stores; validation must see the table state that set the owner
                    self.frames[base + local].owner.load(Ordering::Acquire),
                    page.0,
                    "frame owner word drifted from the page table"
                );
            }
            for (local, m) in g.meta.iter().enumerate() {
                assert!(
                    m.page.is_null() || g.table.get(&m.page) == Some(&local),
                    "orphaned frame: {:?} resident in frame {} without a table entry",
                    m.page,
                    base + local
                );
            }
        }
    }
}

enum Claimed {
    /// Frame was resident: pin already taken.
    Hit(PinGuard),
    /// Frame was loaded under this already-held write latch.
    Loaded(WriteLatch, PinGuard),
}

/// An RAII pin on one buffer frame: while any pin is live the frame cannot
/// be evicted, so the page stays resident and re-latchable. Cloning a pin
/// and dropping one are single atomic operations — no shard mutex, which is
/// what makes the re-pin path of repeated page visits contention-free.
pub struct PinGuard {
    pool: Arc<BufferPool>,
    /// Global frame index.
    frame: usize,
    page: PageId,
}

impl PinGuard {
    /// The pinned page.
    pub fn page(&self) -> PageId {
        self.page
    }

    /// S-latch the pinned page (blocking). No shard lookup: the pin keeps
    /// the frame's identity stable. The only failure is
    /// [`Error::StalePin`] — a concurrent failed load unwound the frame
    /// after this pin was taken; re-fix the page through the pool to retry.
    pub fn latch_s(&self) -> Result<PageReadGuard> {
        self.pool
            .latch_frame_s(self.clone(), false, "storage::pool::pin.latch_s")
    }

    /// Conditionally S-latch the pinned page.
    pub fn try_latch_s(&self) -> Result<PageReadGuard> {
        self.pool
            .latch_frame_s(self.clone(), true, "storage::pool::pin.latch_s")
    }

    /// X-latch the pinned page (blocking); failure modes as [`Self::latch_s`].
    pub fn latch_x(&self) -> Result<PageWriteGuard> {
        self.pool
            .latch_frame_x(self.clone(), false, "storage::pool::pin.latch_x")
    }

    /// Conditionally X-latch the pinned page.
    pub fn try_latch_x(&self) -> Result<PageWriteGuard> {
        self.pool
            .latch_frame_x(self.clone(), true, "storage::pool::pin.latch_x")
    }
}

impl Clone for PinGuard {
    fn clone(&self) -> PinGuard {
        // Safe without the shard mutex: we hold a pin, so the count is ≥ 1
        // and eviction (which requires 0) cannot race the increment.
        // ordering: AcqRel pin increment pairs with eviction pin checks
        self.pool.frames[self.frame].pins.fetch_add(1, Ordering::AcqRel);
        PinGuard {
            pool: self.pool.clone(),
            frame: self.frame,
            page: self.page,
        }
    }
}

impl Drop for PinGuard {
    fn drop(&mut self) {
        self.pool.unpin_frame(self.frame);
    }
}

/// Shared (S-latched) fixed page. Dereferences to the page image.
pub struct PageReadGuard {
    latch: Option<ReadLatch>,
    pin: PinGuard,
}

impl PageReadGuard {
    /// Take an extra pin on this page (one atomic; no shard lookup), so it
    /// stays resident after the guard is dropped.
    pub fn repin(&self) -> PinGuard {
        self.pin.clone()
    }
}

impl std::ops::Deref for PageReadGuard {
    type Target = PageBuf;

    fn deref(&self) -> &PageBuf {
        self.latch.as_ref().expect("latch held")
    }
}

impl Drop for PageReadGuard {
    fn drop(&mut self) {
        // Latch released before the pin (which drops with the struct),
        // preserving "pins==0 ⇒ latch free".
        if let Some(latch) = self.latch.take() {
            let page = latch.page_id().0;
            drop(latch);
            latch_depth_dec();
            self.pin.pool.note_latch_released(page, ModeTag::S);
        }
    }
}

/// Exclusive (X-latched) fixed page.
pub struct PageWriteGuard {
    latch: Option<WriteLatch>,
    pin: PinGuard,
}

impl PageWriteGuard {
    /// Record that a logged update with LSN `lsn` modified this page: stamps
    /// `page_lsn` and enters the page in the dirty page table (with `lsn` as
    /// `rec_lsn` if it was clean).
    pub fn record_update(&mut self, lsn: Lsn) {
        self.latch.as_mut().expect("latch held").set_page_lsn(lsn);
        self.pin.pool.mark_dirty(self.pin.page, lsn);
    }

    /// Mark dirty without stamping an LSN (used when formatting pages whose
    /// changes are covered by a following logged update).
    pub fn mark_dirty_raw(&mut self, rec_lsn: Lsn) {
        self.pin.pool.mark_dirty(self.pin.page, rec_lsn);
    }

    /// Take an extra pin on this page (one atomic; no shard lookup).
    pub fn repin(&self) -> PinGuard {
        self.pin.clone()
    }

    /// Downgrade to a shared guard without releasing the latch.
    pub fn downgrade(mut self) -> PageReadGuard {
        let latch = self.latch.take().expect("latch held");
        let page = latch.page_id().0;
        let pin = self.pin.clone();
        let pool = pin.pool.clone();
        pool.obs.event(EventKind::LatchRelease, ModeTag::X, 0, page, 0);
        pool.obs.event(EventKind::LatchAcquire, ModeTag::S, 0, page, 0);
        // `self` now has no latch: its drop releases only the original pin,
        // while `pin` holds the frame through the downgrade.
        drop(self);
        PageReadGuard {
            latch: Some(ArcRwLockWriteGuard::downgrade(latch)),
            pin,
        }
    }
}

impl std::ops::Deref for PageWriteGuard {
    type Target = PageBuf;

    fn deref(&self) -> &PageBuf {
        self.latch.as_ref().expect("latch held")
    }
}

impl std::ops::DerefMut for PageWriteGuard {
    fn deref_mut(&mut self) -> &mut PageBuf {
        self.latch.as_mut().expect("latch held")
    }
}

impl Drop for PageWriteGuard {
    fn drop(&mut self) {
        if let Some(latch) = self.latch.take() {
            let page = latch.page_id().0;
            drop(latch);
            latch_depth_dec();
            self.pin.pool.note_latch_released(page, ModeTag::X);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ariesim_common::page::PageType;
    use ariesim_common::stats::new_stats;
    use ariesim_common::tmp::TempDir;
    use ariesim_wal::LogOptions;

    fn setup(frames: usize) -> (TempDir, Arc<BufferPool>, Arc<LogManager>) {
        setup_opts(PoolOptions {
            frames,
            ..PoolOptions::default()
        })
    }

    fn setup_opts(opts: PoolOptions) -> (TempDir, Arc<BufferPool>, Arc<LogManager>) {
        let dir = TempDir::new("pool");
        let stats = new_stats();
        let log = Arc::new(
            LogManager::open(&dir.file("wal"), LogOptions::default(), stats.clone()).unwrap(),
        );
        let disk = DiskManager::open(&dir.file("db"), stats.clone()).unwrap();
        let pool = BufferPool::new(disk, log.clone(), opts, stats);
        (dir, pool, log)
    }

    fn format_page(pool: &Arc<BufferPool>, id: PageId) {
        let mut g = pool.fix_x(id).unwrap();
        g.format(id, PageType::Heap, 0, 0);
        g.record_update(Lsn(1));
    }

    #[test]
    fn fix_miss_then_hit() {
        let (_d, pool, _log) = setup(8);
        format_page(&pool, PageId(1));
        assert!(pool.is_cached(PageId(1)));
        let g = pool.fix_s(PageId(1)).unwrap();
        assert_eq!(g.page_id(), PageId(1));
    }

    #[test]
    fn two_shared_guards_coexist() {
        let (_d, pool, _log) = setup(8);
        format_page(&pool, PageId(1));
        let a = pool.fix_s(PageId(1)).unwrap();
        let b = pool.fix_s(PageId(1)).unwrap();
        assert_eq!(a.page_id(), b.page_id());
    }

    #[test]
    fn conditional_x_fails_under_s() {
        let (_d, pool, _log) = setup(8);
        format_page(&pool, PageId(1));
        let _s = pool.fix_s(PageId(1)).unwrap();
        assert!(matches!(
            pool.try_fix_x(PageId(1)),
            Err(Error::WouldBlock)
        ));
        // And conditional S under X:
        drop(_s);
        let _x = pool.fix_x(PageId(1)).unwrap();
        assert!(matches!(
            pool.try_fix_s(PageId(1)),
            Err(Error::WouldBlock)
        ));
    }

    #[test]
    fn eviction_writes_dirty_page_and_obeys_wal() {
        let (_d, pool, log) = setup(8);
        // Dirty page 1 with an unflushed log record's LSN.
        let fake_lsn = {
            use ariesim_wal::{LogRecord, RmId};
            use ariesim_common::TxnId;
            log.append(&LogRecord::update(
                TxnId(1),
                Lsn::NULL,
                RmId::Heap,
                PageId(1),
                vec![1],
            ))
        };
        {
            let mut g = pool.fix_x(PageId(1)).unwrap();
            g.format(PageId(1), PageType::Heap, 7, 0);
            g.record_update(fake_lsn);
        }
        assert_eq!(pool.dpt_snapshot().len(), 1);
        assert!(log.flushed_lsn() <= fake_lsn, "log not yet forced");
        // Evict by filling the pool.
        for i in 2..20u32 {
            format_page(&pool, PageId(i));
        }
        assert!(!pool.is_cached(PageId(1)), "page 1 should be evicted");
        // WAL rule: log now covers the page's LSN.
        assert!(log.flushed_lsn() > fake_lsn);
        // Content survived the round trip.
        let g = pool.fix_s(PageId(1)).unwrap();
        assert_eq!(g.owner(), 7);
        assert_eq!(g.page_lsn(), fake_lsn);
    }

    #[test]
    fn pinned_pages_are_never_evicted() {
        let (_d, pool, _log) = setup(8);
        let guards: Vec<_> = (1..=8u32)
            .map(|i| {
                let mut g = pool.fix_x(PageId(i)).unwrap();
                g.format(PageId(i), PageType::Heap, 0, 0);
                g.record_update(Lsn(1));
                g
            })
            .collect();
        // All frames pinned: another fix must fail, not evict.
        assert!(matches!(pool.fix_s(PageId(99)), Err(Error::BufferPoolFull)));
        drop(guards);
        assert!(pool.fix_s(PageId(99)).is_ok());
    }

    #[test]
    fn flush_page_clears_dirty_and_dpt() {
        let (_d, pool, _log) = setup(8);
        format_page(&pool, PageId(3));
        assert_eq!(pool.dpt_snapshot().len(), 1);
        pool.flush_page(PageId(3)).unwrap();
        assert!(pool.dpt_snapshot().is_empty());
        // Disk has the content.
        let img = pool.disk().read_page(PageId(3)).unwrap();
        assert_eq!(img.page_id(), PageId(3));
    }

    #[test]
    fn dpt_rec_lsn_is_first_dirtying_lsn() {
        let (_d, pool, _log) = setup(8);
        {
            let mut g = pool.fix_x(PageId(4)).unwrap();
            g.format(PageId(4), PageType::Heap, 0, 0);
            g.record_update(Lsn(10));
            g.record_update(Lsn(20));
        }
        let dpt = pool.dpt_snapshot();
        assert_eq!(dpt.len(), 1);
        assert_eq!(dpt[0].rec_lsn, Lsn(10));
        // page_lsn advanced to the latest.
        let g = pool.fix_s(PageId(4)).unwrap();
        assert_eq!(g.page_lsn(), Lsn(20));
    }

    #[test]
    fn downgrade_keeps_content_visible() {
        let (_d, pool, _log) = setup(8);
        let mut g = pool.fix_x(PageId(5)).unwrap();
        g.format(PageId(5), PageType::IndexLeaf, 2, 0);
        g.record_update(Lsn(2));
        let r = g.downgrade();
        assert_eq!(r.owner(), 2);
        // Another S guard can join while downgraded guard held.
        let r2 = pool.fix_s(PageId(5)).unwrap();
        assert_eq!(r2.owner(), 2);
        drop(r2);
        drop(r);
        assert_eq!(pool.total_pins(), 0, "downgrade must not leak pins");
    }

    #[test]
    fn flush_all_empties_dpt() {
        let (_d, pool, _log) = setup(16);
        for i in 1..6u32 {
            format_page(&pool, PageId(i));
        }
        assert_eq!(pool.dpt_snapshot().len(), 5);
        pool.flush_all().unwrap();
        assert!(pool.dpt_snapshot().is_empty());
    }

    #[test]
    fn concurrent_fixes_stress() {
        let (_d, pool, _log) = setup(16);
        for i in 1..=32u32 {
            format_page(&pool, PageId(i));
        }
        pool.flush_all().unwrap();
        std::thread::scope(|s| {
            for t in 0..8 {
                let pool = pool.clone();
                s.spawn(move || {
                    for i in 0..200u32 {
                        let id = PageId(1 + (i * 7 + t) % 32);
                        if i % 3 == 0 {
                            let mut g = pool.fix_x(id).unwrap();
                            let lsn = Lsn(g.page_lsn().0 + 1);
                            g.record_update(lsn);
                        } else {
                            let g = pool.fix_s(id).unwrap();
                            assert_eq!(g.page_id(), id);
                        }
                    }
                });
            }
        });
        // All pins released.
        assert_eq!(pool.total_pins(), 0);
        assert!(pool.fix_s(PageId(1)).is_ok());
    }

    #[test]
    fn partitions_spread_pages_and_auto_clamp() {
        let (_d, pool, _log) = setup(8);
        assert_eq!(pool.partitions(), 1, "tiny pool collapses to 1 shard");
        let (_d2, pool2, _log2) = setup(256);
        assert_eq!(pool2.partitions(), 8);
        for i in 1..=64u32 {
            format_page(&pool2, PageId(i));
        }
        let stats = pool2.shard_stats();
        let used = stats.iter().filter(|&&(_, m, _, _)| m > 0).count();
        assert!(used >= 4, "pages should land in several partitions: {stats:?}");
        // Per-shard misses sum to the 64 loads.
        assert_eq!(stats.iter().map(|&(_, m, _, _)| m).sum::<u64>(), 64);
    }

    #[test]
    fn lru_k_policy_drives_the_pool() {
        let (_d, pool, _log) = setup_opts(PoolOptions {
            frames: 8,
            policy: EvictionPolicyKind::LruK(2),
        });
        assert_eq!(pool.eviction_policy(), "lru-k");
        for i in 1..=20u32 {
            format_page(&pool, PageId(i));
        }
        // Recent pages resident, early ones evicted.
        assert!(pool.is_cached(PageId(20)));
        assert!(!pool.is_cached(PageId(1)));
    }

    #[test]
    fn pin_guard_keeps_page_resident_and_relatches() {
        let (_d, pool, _log) = setup(8);
        format_page(&pool, PageId(1));
        let pin = pool.pin(PageId(1)).unwrap();
        // Hammer the pool so an unpinned page 1 would be evicted.
        for i in 2..=30u32 {
            format_page(&pool, PageId(i));
        }
        assert!(pool.is_cached(PageId(1)), "pin must prevent eviction");
        {
            let g = pin.latch_s().unwrap();
            assert_eq!(g.page_id(), PageId(1));
        }
        {
            let mut g = pin.latch_x().unwrap();
            g.record_update(Lsn(9));
        }
        assert_eq!(pool.dpt_snapshot().len(), pool.dpt_snapshot().len());
        drop(pin);
        assert_eq!(pool.total_pins(), 0);
    }

    #[test]
    fn repin_from_guard_is_lock_free_and_balanced() {
        let (_d, pool, _log) = setup(8);
        format_page(&pool, PageId(2));
        let pin = {
            let g = pool.fix_s(PageId(2)).unwrap();
            g.repin()
        };
        assert_eq!(pool.total_pins(), 1);
        let g2 = pin.try_latch_s().unwrap();
        assert_eq!(g2.page_id(), PageId(2));
        drop(g2);
        drop(pin);
        assert_eq!(pool.total_pins(), 0);
    }

    /// Two concurrent misses on the same page must resolve to a single
    /// frame: the loser of the install race aborts its eviction and retries
    /// as a hit. The interleaving is forced deterministically — a write
    /// hook holds thread A open inside its victim write-back (the
    /// drop-mutex/relock window) while thread B misses on the same page,
    /// picks a different victim (A's is latched), and installs first. A's
    /// re-locked install must then notice B's mapping and back off;
    /// a second insert would orphan B's frame and split readers across two
    /// divergent images, which `validate_mappings` reports.
    #[test]
    fn concurrent_misses_on_same_page_install_one_frame() {
        use std::sync::mpsc;

        let (_d, pool, _log) = setup(8);
        const N: u32 = 24;
        for i in 1..=N {
            format_page(&pool, PageId(i)); // every page stays dirty
        }
        let target = PageId(1);
        assert!(!pool.is_cached(target), "target must start evicted");

        // Hook: the FIRST write-back (thread A's victim) announces itself
        // and blocks until released; everything after passes through.
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = std::sync::Mutex::new(release_rx);
        let armed = std::sync::atomic::AtomicBool::new(true);
        pool.disk().set_write_hook(Some(Arc::new(move |_id: PageId| {
            if armed.swap(false, Ordering::AcqRel) {
                entered_tx.send(()).unwrap();
                release_rx.lock().unwrap().recv().unwrap();
            }
            Ok(())
        })));

        std::thread::scope(|s| {
            let a = {
                let pool = pool.clone();
                s.spawn(move || pool.fix_s(target).map(|g| g.page_id()))
            };
            // A is now parked inside its victim's write-back, its victim
            // latched, the target not yet in the page table.
            entered_rx.recv().unwrap();
            let b = {
                let pool = pool.clone();
                s.spawn(move || pool.fix_s(target).map(|g| g.page_id()))
            };
            // B misses too, takes a different victim, and installs the
            // target while A is still blocked.
            assert_eq!(b.join().unwrap().unwrap(), target);
            // Released, A must abandon its own install and resolve to B's
            // frame via the hit path.
            release_tx.send(()).unwrap();
            assert_eq!(a.join().unwrap().unwrap(), target);
        });

        pool.disk().set_write_hook(None);
        assert_eq!(pool.total_pins(), 0);
        pool.validate_mappings();
    }

    /// A pin taken through the short-lived mapping of an in-flight load
    /// whose read then fails must not silently observe a recycled frame:
    /// the unwind clears the frame's owner word, latching through the stale
    /// pin reports `StalePin`, and re-fixing through the pool retries the
    /// read.
    #[test]
    fn failed_load_unwind_invalidates_concurrent_pins() {
        use std::sync::mpsc;

        let (_d, pool, _log) = setup(8);
        format_page(&pool, PageId(1));
        pool.flush_all().unwrap();
        // Push page 1 out so the next fix is a miss.
        for i in 2..=30u32 {
            format_page(&pool, PageId(i));
        }
        assert!(!pool.is_cached(PageId(1)), "page 1 must start evicted");

        // Hook: announce entry into the read, hold the load open until
        // released, then fail it.
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = std::sync::Mutex::new(release_rx);
        pool.disk().set_read_hook(Some(Arc::new(move |id: PageId| {
            if id == PageId(1) {
                entered_tx.send(()).unwrap();
                release_rx.lock().unwrap().recv().unwrap();
                return Err(Error::Io(std::io::Error::other("injected read fault")));
            }
            Ok(())
        })));

        let mut stale_pin = None;
        std::thread::scope(|s| {
            let loader = s.spawn(|| pool.fix_s(PageId(1)));
            // The loader has installed the mapping and is inside the read;
            // pin the page through that mapping (pins don't latch, so this
            // does not wait out the load).
            entered_rx.recv().unwrap();
            let pin = pool.pin(PageId(1)).unwrap();
            release_tx.send(()).unwrap();
            assert!(loader.join().unwrap().is_err(), "injected fault surfaces");
            stale_pin = Some(pin);
        });
        let pin = stale_pin.unwrap();

        // The unwind freed the frame out from under the pin: latching must
        // fail loudly rather than hand back whatever the frame holds now.
        assert!(matches!(pin.latch_s(), Err(Error::StalePin { page }) if page == PageId(1)));
        assert!(matches!(pin.try_latch_x(), Err(Error::StalePin { page }) if page == PageId(1)));

        // Re-fixing through the pool retries the read and succeeds once the
        // fault is cleared.
        pool.disk().set_read_hook(None);
        let g = pool.fix_s(PageId(1)).unwrap();
        assert_eq!(g.page_id(), PageId(1));
        drop(g);
        drop(pin);
        assert_eq!(pool.total_pins(), 0);
        pool.validate_mappings();
    }
}
