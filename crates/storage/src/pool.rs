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
//! **The page map.** Which frame holds a page is one atomic word per page
//! in a page-indexed array ([`PageMap`]), allocated in 4096-page chunks on
//! first use so an entry never moves. A `fix_*` hit reads the entry, pins
//! the frame and latches it: no mutex and no hash. The frame may be evicted
//! between the read and the pin; the owner word every latcher validates
//! after acquiring the latch then fails ([`Error::StalePin`]) and `fix_*`
//! retries. A re-pin through an existing [`PinGuard`] (or a guard's
//! [`PageGuard::repin`]) touches only the frame's atomics.
//!
//! **Partitioning.** Misses, eviction, [`BufferPool::pin`], the dirty page
//! table and flushing go through N partitions ("shards"): `hash(PageId) →
//! shard`, each shard owning a contiguous slice of the frame array plus its
//! own mutex, dirty-page bookkeeping and [`Clock`] hand; a page's map entry
//! is written only under its shard's mutex. The shard count follows from
//! the frame count alone ([`BufferPool::partitions`]). Shard mutexes report
//! to the latch monitor as `PoolShard` (rank 3 — a thread never holds two
//! shards at once). Fixes and misses are counted once, in `Stats`
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
//! **Failed loads.** A miss installs its page-map entry *before* the read
//! I/O, so concurrent fixes of the same page hit the loading frame and wait
//! on the loader's latch instead of double-loading. If the read fails the
//! install is unwound; any pin taken on the frame in that window turns into
//! [`Error::StalePin`] at its next latch attempt, exactly as a hit that
//! raced an eviction does. `fix_*` retries the fix transparently; explicit
//! [`PinGuard`] holders see the error.
//!
//! Latch acquisition supports conditional (`try_`) variants, used by the
//! B+-tree to obey the paper's rule that nothing waits for a latch while
//! holding an incompatible one out of order.

use crate::disk::DiskManager;
use crate::eviction::{Clock, Hand};
use ariesim_common::stats::{Bump, StatsHandle};
use ariesim_common::{Error, Lsn, PageBuf, PageId, Result};
use ariesim_fault::crash_point;
use ariesim_obs::monitor::{Class, Held};
use ariesim_obs::{ObsHandle, SpanKind};
use ariesim_wal::{DptEntry, LogManager};
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::HashMap;
// The per-frame protocol words (`pins`, `owner`) and the page map's entries
// are model-checkable facade atomics — their interleavings are what
// `crates/model`'s pool harnesses explore.
use ariesim_common::msync::AtomicU32;
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};

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
/// count is outside every mutex: a page-map hit, re-pinning from an
/// existing pin and *all* unpinning are plain atomics; only
/// [`BufferPool::pin`] and a miss pin under the shard mutex.
struct Frame {
    buf: Slot,
    pins: AtomicU32,
    /// PageId this frame currently holds (NULL while free), written only
    /// under the owning shard's mutex and the frame's write latch, at
    /// install/unwind. Latchers validate it against their pin after
    /// acquiring the latch: a hit may pin a frame an eviction is taking, and
    /// a failed load unwinds a frame while foreign pins may exist; those
    /// pins must fail loudly ([`Error::StalePin`]) rather than read whatever
    /// image the frame holds now.
    owner: AtomicU32,
}

/// Pages per chunk of the page map.
const MAP_CHUNK: usize = 4096;
/// Chunks per block of the page map: 1024 blocks of 1024 chunks cover
/// every `PageId`.
const MAP_BLOCK: usize = 1024;

/// `MAP_CHUNK` entries.
type MapChunk = Box<[AtomicU32]>;
/// `MAP_BLOCK` chunks, each allocated on first use.
type MapBlock = Box<[OnceLock<MapChunk>]>;

/// Page → frame, read with no mutex. One entry per page: the global frame
/// index plus one, 0 while the page is not resident. Chunks (and the
/// blocks that point at them) are allocated on first use and never freed,
/// so an entry never moves. An entry is written only under the shard mutex
/// of its page's partition.
struct PageMap {
    blocks: Box<[OnceLock<MapBlock>]>,
}

impl PageMap {
    fn new() -> PageMap {
        PageMap {
            blocks: (0..MAP_BLOCK).map(|_| OnceLock::new()).collect(),
        }
    }

    fn split(page: PageId) -> (usize, usize, usize) {
        let p = page.0 as usize;
        (p / (MAP_CHUNK * MAP_BLOCK), p / MAP_CHUNK % MAP_BLOCK, p % MAP_CHUNK)
    }

    /// `page`'s entry, if its chunk exists.
    fn entry(&self, page: PageId) -> Option<&AtomicU32> {
        let (b, c, i) = Self::split(page);
        Some(&self.blocks[b].get()?[c].get()?[i])
    }

    /// The frame holding `page`, if it is resident.
    fn get(&self, page: PageId) -> Option<usize> {
        // ordering: Acquire pairs with the Release stores in `set`/`clear`; the frame found is still validated against its owner word under the latch
        match self.entry(page)?.load(Ordering::Acquire) {
            0 => None,
            f => Some(f as usize - 1),
        }
    }

    fn set(&self, page: PageId, frame: usize) {
        let (b, c, i) = Self::split(page);
        let block = self.blocks[b].get_or_init(|| (0..MAP_BLOCK).map(|_| OnceLock::new()).collect());
        let chunk = block[c].get_or_init(|| (0..MAP_CHUNK).map(|_| AtomicU32::new(0)).collect());
        // ordering: Release publishes the install (meta, DPT) to a hit that Acquire-loads the entry
        chunk[i].store(frame as u32 + 1, Ordering::Release);
    }

    fn clear(&self, page: PageId) {
        if let Some(e) = self.entry(page) {
            // ordering: Release, as in `set`
            e.store(0, Ordering::Release);
        }
    }

    /// Every page with an entry (test oracle).
    fn pages(&self) -> Vec<PageId> {
        let mut out = Vec::new();
        for (b, block) in self.blocks.iter().enumerate() {
            for (c, chunk) in block.get().into_iter().flat_map(|cs| cs.iter().enumerate()) {
                for (i, e) in chunk.get().into_iter().flat_map(|es| es.iter().enumerate()) {
                    // ordering: Acquire, as in `get`
                    if e.load(Ordering::Acquire) != 0 {
                        out.push(PageId(((b * MAP_BLOCK + c) * MAP_CHUNK + i) as u32));
                    }
                }
            }
        }
        out
    }
}

/// Mutable state of one partition, guarded by the shard mutex.
struct ShardInner {
    /// Partition-local frame index → the page it holds (NULL while free).
    meta: Vec<PageId>,
    /// Dirty page table slice: page → rec_lsn, for pages framed here. The
    /// one record of dirtiness: a page is dirty iff it has an entry.
    dpt: HashMap<PageId, Lsn>,
    hand: Hand,
}

struct Shard {
    /// Global index of this partition's frame 0.
    base: usize,
    /// Reference bits of this partition's frames, set by hits outside the
    /// mutex.
    clock: Clock,
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
    map: PageMap,
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
        // Partition count: 8, but every partition must own
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
                clock: Clock::new(len),
                inner: Mutex::new(ShardInner {
                    meta: vec![PageId::NULL; len],
                    dpt: HashMap::new(),
                    hand: Hand::new(len),
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
            map: PageMap::new(),
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

    /// Number of partitions in use.
    pub fn partitions(&self) -> usize {
        self.shards.len()
    }

    /// Resident pages per partition (test oracle for how pages spread over
    /// the shards).
    pub fn shard_occupancy(&self) -> Vec<usize> {
        (0..self.shards.len())
            .map(|sid| {
                let g = self.lock_shard(sid, "storage::pool::shard_occupancy");
                g.meta.iter().filter(|m| !m.is_null()).count()
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
            let (pin, loaded) = match self.hit(page) {
                Some(pin) => (pin, None),
                None => self.claim(page)?,
            };
            let Some((wlatch, held)) = loaded else {
                match self.latch_frame(pin, mode, conditional, site) {
                    // An eviction took the frame, or a concurrent failed
                    // load unwound it, between our pin and our latch;
                    // re-fix from the page map.
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
        // install/unwind — seeing the new owner implies seeing the map
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

    /// Pin `page`'s frame through the page map: an entry load and a pin.
    /// `fix` calls it with no shard mutex, so an eviction may take the
    /// frame between the two; the post-latch owner check then fails with
    /// `StalePin`. A miss calls it again under the shard mutex.
    fn hit(&self, page: PageId) -> Option<PinGuard<'_>> {
        let frame = self.map.get(page)?;
        // ordering: AcqRel pin increment pairs with the install's pin re-check — a pin it misses belongs to a hit whose owner check will fail
        self.frames[frame].pins.fetch_add(1, Ordering::AcqRel);
        let shard = &self.shards[self.shard_of(page)];
        shard.clock.on_hit(frame - shard.base);
        Some(PinGuard {
            pool: self,
            frame,
            page,
        })
    }

    /// Pin `page`'s frame under its shard mutex, loading it from disk if
    /// absent. On a miss the write latch the load I/O happened under comes
    /// back too, still held.
    fn claim(&self, page: PageId) -> Result<(PinGuard<'_>, Option<LoadLatch<'_>>)> {
        debug_assert!(!page.is_null(), "fix of NULL page");
        let sid = self.shard_of(page);
        let shard = &self.shards[sid];
        loop {
            let mut g = self.lock_shard(sid, "storage::pool::claim");
            if let Some(pin) = self.hit(page) {
                drop(g);
                return Ok((pin, None));
            }
            // Miss: the clock proposes victims among this shard's frames;
            // a frame is accepted only if unpinned *and* its latch is free
            // (the conditional write latch is claimed inside the callback
            // and kept for the eviction + load I/O).
            let base = shard.base;
            let mut wlatch: Option<LoadLatch<'_>> = None;
            let mut latch_busy = false;
            let victim = shard.clock.victim(&mut g.hand, |local| {
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
            // The old mapping stays in the map until the write-back below
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
                || self.map.get(page).is_some()
            {
                if old_dirty {
                    g.dpt.remove(&old);
                }
                drop(g);
                drop((latch, held));
                std::thread::yield_now();
                continue;
            }
            // A hit that read the old entry may still pin the frame from
            // here on, so the install's own pin need not be the only one:
            // such a pin fails its owner check under the latch. What holds
            // instead is that a frame is remapped only under its write
            // latch, which this miss has held since the victim scan.
            debug_assert!(
                old.is_null() || self.map.get(old) == Some(gidx),
                "victim frame remapped under its write latch"
            );
            if !old.is_null() {
                self.map.clear(old);
                g.dpt.remove(&old);
            }
            self.map.set(page, gidx);
            g.meta[local] = page;
            // ordering: Release publishes the map/meta state that produced this owner; stale-pin re-checks load it with Acquire
            self.frames[gidx].owner.store(page.0, Ordering::Release);
            shard.clock.on_hit(local);
            // ordering: AcqRel pin increment pairs with eviction pin checks
            self.frames[gidx].pins.fetch_add(1, Ordering::AcqRel);
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
                    if self.map.get(page) == Some(gidx) {
                        self.map.clear(page);
                        g.meta[local] = PageId::NULL;
                        // ordering: Release publishes the map removal; a pinned reader's Acquire owner re-check must see NULL and fail
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
            let base = self.shards[sid].base;
            resident.extend((0..g.meta.len()).filter(|&l| !g.meta[l].is_null()).map(|l| base + l));
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
        self.map.get(page).is_some()
    }

    /// Test oracle: the page map, every shard's frame metadata and the
    /// frame owner words agree — each map entry points at a frame of its
    /// page's shard holding that page, every non-free frame is reachable
    /// through exactly its own map entry, and every dirty page table entry
    /// names a resident page. A double-installed page would show up here as
    /// an orphaned frame (resident metadata with no map entry), the
    /// signature of two racing misses splitting a page across two frames.
    /// Panics on violation; safe to call concurrently with pool traffic
    /// (each shard is checked under its own mutex, which its pages' map
    /// entries are written under).
    pub fn validate_mappings(&self) {
        let pages = self.map.pages();
        for sid in 0..self.shards.len() {
            let g = self.lock_shard(sid, "storage::pool::validate");
            let base = self.shards[sid].base;
            for &page in pages.iter().filter(|&&p| self.shard_of(p) == sid) {
                // Re-read under the mutex: the snapshot may predate it.
                let Some(frame) = self.map.get(page) else { continue };
                assert!(
                    frame >= base && frame - base < g.meta.len(),
                    "map entry for {page:?} names frame {frame}, outside its shard"
                );
                assert_eq!(
                    g.meta[frame - base], page,
                    "map entry names a frame holding another page"
                );
                assert_eq!(
                    // ordering: pairs with the Release owner stores; validation must see the map state that set the owner
                    self.frames[frame].owner.load(Ordering::Acquire),
                    page.0,
                    "frame owner word drifted from the page map"
                );
            }
            for (local, &m) in g.meta.iter().enumerate() {
                assert!(
                    m.is_null() || self.map.get(m) == Some(base + local),
                    "orphaned frame: {m:?} resident in frame {} without a map entry",
                    base + local
                );
            }
            for page in g.dpt.keys() {
                assert!(
                    self.map
                        .get(*page)
                        .is_some_and(|f| f >= base && f - base < g.meta.len() && g.meta[f - base] == *page),
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
