//! The heap manager: logged, locked record operations on heap files.

use crate::body::HeapBody;
use ariesim_common::ids::SlotNo;
use ariesim_common::page::PageType;
use ariesim_common::slotted::{MAX_CELL_LEN, SLOT_LEN};
use ariesim_common::{Error, PageBuf, PageId, Result, Rid, TableId, TxnId};
use ariesim_lock::{LockDuration, LockManager, LockMode, LockName};
use ariesim_storage::{BufferPool, PageWriteGuard, SpaceMap};
use ariesim_txn::{Core, TxnHandle};
use ariesim_wal::{ChainLogger, LogManager, LogRecord, ResourceManager, RmId};
use parking_lot::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::sync::Arc;

/// Space reserved on heap pages by uncommitted deletes: an insert must not
/// consume it, so that the deletes' page-oriented undo can always re-insert.
#[derive(Default)]
struct Reservations {
    /// page → total reserved bytes
    per_page: HashMap<PageId, usize>,
    /// txn → (page → bytes), so transaction end can release precisely.
    per_txn: HashMap<TxnId, HashMap<PageId, usize>>,
}

impl Reservations {
    /// Reserve `bytes` on `page` for `txn`; true when it is `txn`'s first
    /// reservation.
    fn add(&mut self, txn: TxnId, page: PageId, bytes: usize) -> bool {
        *self.per_page.entry(page).or_insert(0) += bytes;
        let first = !self.per_txn.contains_key(&txn);
        *self
            .per_txn
            .entry(txn)
            .or_default()
            .entry(page)
            .or_insert(0) += bytes;
        first
    }

    fn release(&mut self, txn: TxnId, page: PageId, bytes: usize) {
        if let Some(pages) = self.per_txn.get_mut(&txn) {
            if let Some(b) = pages.get_mut(&page) {
                let take = bytes.min(*b);
                *b -= take;
                if *b == 0 {
                    pages.remove(&page);
                }
                if let Some(total) = self.per_page.get_mut(&page) {
                    *total = total.saturating_sub(take);
                    if *total == 0 {
                        self.per_page.remove(&page);
                    }
                }
            }
        }
    }

    fn release_txn(&mut self, txn: TxnId) {
        if let Some(pages) = self.per_txn.remove(&txn) {
            for (page, bytes) in pages {
                if let Some(total) = self.per_page.get_mut(&page) {
                    *total = total.saturating_sub(bytes);
                    if *total == 0 {
                        self.per_page.remove(&page);
                    }
                }
            }
        }
    }

    fn reserved(&self, page: PageId) -> usize {
        self.per_page.get(&page).copied().unwrap_or(0)
    }
}

/// What the heap manager knows about free space, under one mutex: the
/// delete reservations and the **free-space book**.
///
/// The book holds, per heap file (keyed by its first page), the
/// chain-ordered prefix of the file's pages this manager has passed, each
/// with its exact `total_free()` as of the last change made under the
/// page's X latch. It lets an insert latch the one page that has room
/// instead of walking the chain. It is not logged: the page under its X
/// latch stays the only truth and the book only chooses which page to
/// latch, so an out-of-date entry can cost placement, never correctness.
/// It starts empty — after open and after restart, whose redo does not
/// touch it — and grows as inserts walk past its tail.
#[derive(Default)]
struct Space {
    resv: Reservations,
    /// first page → (page, free bytes), in chain order
    books: HashMap<PageId, Vec<(PageId, usize)>>,
    /// page → (its file's first page, its position in that book)
    at: HashMap<PageId, (PageId, usize)>,
}

impl Space {
    /// The first page of `file`'s book with `need` bytes free beyond its
    /// reservations — the page a walk from the first page would stop at —
    /// or, when no page in the book has them, `Err` with the page a walk
    /// resumes from: the book's tail, or the first page of an empty book.
    fn pick(&self, file: PageId, need: usize) -> std::result::Result<PageId, PageId> {
        let book = self.books.get(&file).map_or(&[][..], Vec::as_slice);
        book.iter()
            .find(|&&(page, free)| free >= need && free >= need + self.resv.reserved(page))
            .map(|&(page, _)| page)
            .ok_or_else(|| book.last().map_or(file, |&(page, _)| page))
    }

    /// Refresh `page`'s entry, if the book has one.
    fn refresh(&mut self, page: PageId, free: usize) {
        if let Some(&(file, i)) = self.at.get(&page) {
            if let Some(entry) = self.books.get_mut(&file).and_then(|b| b.get_mut(i)) {
                entry.1 = free;
            }
        }
    }

    /// Refresh `page`'s entry, or append one when the page continues
    /// `file`'s book: the first page of an empty book, or the page whose
    /// chain predecessor `prev` is the book's tail (`prev` is NULL when
    /// the caller did not come from the predecessor).
    fn note(&mut self, file: PageId, prev: PageId, page: PageId, free: usize) {
        if self.at.contains_key(&page) {
            return self.refresh(page, free);
        }
        let book = self.books.entry(file).or_default();
        let continues = match book.last() {
            None => page == file,
            Some(&(tail, _)) => !prev.is_null() && prev == tail,
        };
        if continues {
            self.at.insert(page, (file, book.len()));
            book.push((page, free));
        }
    }

    /// Drop the book holding `page`: the undo of a file extension changed
    /// its chain.
    fn forget_file_of(&mut self, page: PageId) {
        if let Some(&(file, _)) = self.at.get(&page) {
            for (p, _) in self.books.remove(&file).unwrap_or_default() {
                self.at.remove(&p);
            }
        }
    }
}

/// The heap record manager. One instance serves every table; per-table state
/// is just the first page id (kept by the catalog in `ariesim-db`).
pub struct HeapManager {
    pool: Arc<BufferPool>,
    space_map: SpaceMap,
    locks: Arc<LockManager>,
    log: Arc<LogManager>,
    /// Never held while acquiring a latch or a lock. Shared with the
    /// end-of-transaction action that drops a deleter's reservations.
    space: Arc<Mutex<Space>>,
    /// Lock data pages instead of records (the paper's §2.1 page
    /// granularity), selectable per database.
    pub page_granularity: bool,
}

impl HeapManager {
    /// The heap manager of `core`'s engine, registered as its
    /// [`RmId::Heap`] resource manager. When
    /// `page_granularity` is true, record operations lock the data *page*
    /// instead of the record (§2.1's coarser granule).
    pub fn new(core: &Core, page_granularity: bool) -> Result<Arc<HeapManager>> {
        let heap = Arc::new(HeapManager {
            space_map: SpaceMap::new(core.pool.clone()),
            pool: core.pool.clone(),
            locks: core.locks.clone(),
            log: core.log.clone(),
            space: Arc::default(),
            page_granularity,
        });
        core.rms.register(heap.clone())?;
        Ok(heap)
    }

    /// Reserve `bytes` on `page` for `txn`'s undo, with the space book held
    /// as `space`. On `txn`'s first reservation, have the transaction's end
    /// drop them all: only a transaction that reserved pays for that.
    fn reserve(&self, mut space: MutexGuard<'_, Space>, txn: &TxnHandle, page: PageId, bytes: usize) {
        let first = space.resv.add(txn.id, page, bytes);
        drop(space);
        if first {
            let (space, id) = (self.space.clone(), txn.id);
            txn.at_end(move || space.lock().resv.release_txn(id));
        }
    }

    fn data_lock(&self, rid: Rid) -> LockName {
        LockName::for_data(rid, self.page_granularity)
    }

    /// Under `page`'s X latch (`g`): bring the book up to date for it and
    /// say whether `need` bytes fit beyond its reservations.
    fn has_room(&self, file: PageId, prev: PageId, page: PageId, g: &PageBuf, need: usize) -> bool {
        let free = g.total_free();
        let mut space = self.space.lock();
        space.note(file, prev, page, free);
        free >= need + space.resv.reserved(page)
    }

    /// Create a heap file for `table`: allocates and formats its first page
    /// within `txn`. Returns the first page id.
    pub fn create_file(&self, txn: &TxnHandle, table: TableId) -> Result<PageId> {
        txn.with_logger(&self.log, |logger| {
            let page = self.space_map.allocate(logger)?;
            let mut g = self.pool.fix_x(page)?;
            g.format(page, PageType::Heap, table.0, 0);
            let lsn = logger.update(RmId::Heap, page, HeapBody::Format { table }.encode());
            g.record_update(lsn);
            Ok(page)
        })
    }

    /// Insert a record, returning its RID. Takes a commit-duration X lock on
    /// the RID (which, under data-only locking, is also the lock on every
    /// index key derived from this record).
    ///
    /// Placement is first fit in chain order. The free-space book names the
    /// page, so an insert that does not grow the file fixes one page; only
    /// when no page in the book has room does it walk on from the book's
    /// tail, extending the file at the chain's end.
    pub fn insert(
        &self,
        txn: &TxnHandle,
        table: TableId,
        first_page: PageId,
        data: &[u8],
    ) -> Result<Rid> {
        if data.len() > MAX_CELL_LEN {
            return Err(Error::TooLarge {
                len: data.len(),
                max: MAX_CELL_LEN,
            });
        }
        let need = data.len() + SLOT_LEN;
        loop {
            let picked = self.space.lock().pick(first_page, need);
            let (page, mut g) = match picked {
                Ok(page) => {
                    let g = self.pool.fix_x(page)?;
                    if !self.has_room(first_page, PageId::NULL, page, &g, need) {
                        continue; // another transaction took the room first
                    }
                    (page, g)
                }
                Err(tail) => self.walk(txn, table, first_page, tail, need)?,
            };
            // Choose a slot whose RID we can lock: a dead slot may carry a
            // commit-duration lock from an uncommitted deleter, in which
            // case we must not reuse it (conditional probe, paper §2.2
            // style: never wait for a lock under a latch).
            let mut chosen: Option<SlotNo> = None;
            for i in 0..g.slot_count() {
                if g.cell(i).is_none() {
                    let rid = Rid {
                        page,
                        slot: SlotNo(i),
                    };
                    match self.locks.request(
                        txn.id,
                        self.data_lock(rid),
                        LockMode::X,
                        LockDuration::Commit,
                        true,
                    ) {
                        Ok(()) => {
                            chosen = Some(SlotNo(i));
                            break;
                        }
                        Err(Error::WouldBlock) => continue,
                        Err(e) => return Err(e),
                    }
                }
            }
            let slot = match chosen {
                Some(s) => s,
                None => {
                    // Fresh slot: its RID has never existed, but under
                    // page-granularity locking the page lock itself can
                    // conflict, so probe conditionally all the same.
                    let s = SlotNo(g.slot_count());
                    let rid = Rid { page, slot: s };
                    match self.locks.request(
                        txn.id,
                        self.data_lock(rid),
                        LockMode::X,
                        LockDuration::Commit,
                        true,
                    ) {
                        Ok(()) => s,
                        Err(Error::WouldBlock) => {
                            // Release the latch and choose again after
                            // waiting unconditionally.
                            let rid_lock = self.data_lock(rid);
                            drop(g);
                            self.locks.request(
                                txn.id,
                                rid_lock,
                                LockMode::X,
                                LockDuration::Commit,
                                false,
                            )?;
                            continue;
                        }
                        Err(e) => return Err(e),
                    }
                }
            };
            let rid = Rid { page, slot };
            g.alloc_cell_at(slot, data)?;
            let lsn = txn.with_logger(&self.log, |l| {
                l.update(
                    RmId::Heap,
                    page,
                    HeapBody::Insert {
                        table,
                        slot,
                        data: data.to_vec(),
                    }
                    .encode(),
                )
            });
            g.record_update(lsn);
            self.space.lock().refresh(page, g.total_free());
            return Ok(rid);
        }
    }

    /// Walk `file`'s chain from `page` (the book's tail), adding every page
    /// passed to the book, up to the first with room for `need` bytes;
    /// extend the file when the chain ends first. Returns that page,
    /// X-latched.
    fn walk(
        &self,
        txn: &TxnHandle,
        table: TableId,
        file: PageId,
        mut page: PageId,
        need: usize,
    ) -> Result<(PageId, PageWriteGuard<'_>)> {
        let mut prev = PageId::NULL;
        let mut g = self.pool.fix_x(page)?;
        loop {
            if self.has_room(file, prev, page, &g, need) {
                return Ok((page, g));
            }
            prev = page;
            let next = g.next();
            if next.is_null() {
                (page, g) = self.extend_file(txn, table, page, g)?;
            } else {
                drop(g);
                page = next;
                g = self.pool.fix_x(page)?;
            }
        }
    }

    /// Append a fresh page to the heap file as a nested top action, while
    /// holding the X latch on the current last page (`g`). Returns the new
    /// page, X-latched.
    fn extend_file<'p>(
        &'p self,
        txn: &TxnHandle,
        table: TableId,
        last: PageId,
        mut g: PageWriteGuard<'p>,
    ) -> Result<(PageId, PageWriteGuard<'p>)> {
        let token = txn.begin_nta();
        let (new_page, ng) = txn.with_logger(&self.log, |logger| -> Result<_> {
            let new_page = self.space_map.allocate(logger)?;
            let mut ng = self.pool.fix_x(new_page)?;
            ng.format(new_page, PageType::Heap, table.0, 0);
            let lsn = logger.update(RmId::Heap, new_page, HeapBody::Format { table }.encode());
            ng.record_update(lsn);
            let lsn = logger.update(
                RmId::Heap,
                last,
                HeapBody::ChainNext {
                    old: PageId::NULL,
                    new: new_page,
                }
                .encode(),
            );
            g.set_next(new_page);
            g.record_update(lsn);
            Ok((new_page, ng))
        })?;
        drop(g);
        txn.end_nta(&self.log, token);
        Ok((new_page, ng))
    }

    /// Delete the record at `rid`. Takes the commit-duration X lock first
    /// (no latches held), then applies and logs the delete and reserves the
    /// freed space until the transaction ends.
    pub fn delete(&self, txn: &TxnHandle, table: TableId, rid: Rid) -> Result<Vec<u8>> {
        self.locks.request(
            txn.id,
            self.data_lock(rid),
            LockMode::X,
            LockDuration::Commit,
            false,
        )?;
        let mut g = self.pool.fix_x(rid.page)?;
        let data = g.free_cell(rid.slot).map_err(|_| Error::BadRid { rid })?;
        let lsn = txn.with_logger(&self.log, |l| {
            l.update(
                RmId::Heap,
                rid.page,
                HeapBody::Delete {
                    table,
                    slot: rid.slot,
                    data: data.clone(),
                }
                .encode(),
            )
        });
        g.record_update(lsn);
        let mut space = self.space.lock();
        space.refresh(rid.page, g.total_free());
        self.reserve(space, txn, rid.page, data.len());
        Ok(data)
    }

    /// Fetch the record at `rid`: [`fetch_run`](Self::fetch_run) of one RID.
    pub fn fetch(&self, txn: &TxnHandle, rid: Rid, already_locked: bool) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.fetch_run(txn, &[rid], already_locked, |_, cell| {
            out.extend_from_slice(cell);
            Ok(())
        })?;
        Ok(out)
    }

    /// Hand the record at each of `rids` to `f`, in order, in place on its
    /// S-latched page: `f` must take no latch or lock.
    ///
    /// With data-only locking the index manager has usually *already* locked
    /// these RIDs on the caller's behalf (paper §2.1: "the record manager
    /// does not have to lock the corresponding record"), so `already_locked`
    /// suppresses the S locks. Otherwise every lock is requested, in order,
    /// before any latch is taken. Each maximal run of RIDs on one page then
    /// costs one fix of that page.
    pub fn fetch_run(
        &self,
        txn: &TxnHandle,
        rids: &[Rid],
        already_locked: bool,
        mut f: impl FnMut(Rid, &[u8]) -> Result<()>,
    ) -> Result<()> {
        if !already_locked {
            for &rid in rids {
                self.locks.request(
                    txn.id,
                    self.data_lock(rid),
                    LockMode::S,
                    LockDuration::Commit,
                    false,
                )?;
            }
        }
        for on_page in rids.chunk_by(|a, b| a.page == b.page) {
            let Some(first) = on_page.first() else { continue };
            let g = self.pool.fix_s(first.page)?;
            for &rid in on_page {
                f(rid, g.cell(rid.slot.0).ok_or(Error::BadRid { rid })?)?;
            }
        }
        Ok(())
    }

    /// Replace the record at `rid` in place, returning the replaced image
    /// (callers doing index maintenance diff old against new). The new
    /// image must fit in the page (records never move — RIDs are stable
    /// names; see crate docs). A shorter image reserves the bytes it gives
    /// up until the transaction ends, as a delete does, so that the undo
    /// can always put the old image back.
    pub fn update(&self, txn: &TxnHandle, table: TableId, rid: Rid, new: &[u8]) -> Result<Vec<u8>> {
        self.locks.request(
            txn.id,
            self.data_lock(rid),
            LockMode::X,
            LockDuration::Commit,
            false,
        )?;
        let mut g = self.pool.fix_x(rid.page)?;
        let old = g.cell(rid.slot.0).ok_or(Error::BadRid { rid })?.to_vec();
        let reserved = self.space.lock().resv.reserved(rid.page);
        if new.len() > old.len() && g.total_free() + old.len() < new.len() + reserved {
            return Err(Error::TooLarge {
                len: new.len(),
                max: g.total_free() + old.len() - reserved.min(g.total_free() + old.len()),
            });
        }
        g.replace_cell_at(rid.slot.0, new)?;
        let lsn = txn.with_logger(&self.log, |l| {
            l.update(
                RmId::Heap,
                rid.page,
                HeapBody::Update {
                    table,
                    slot: rid.slot,
                    old: old.clone(),
                    new: new.to_vec(),
                }
                .encode(),
            )
        });
        g.record_update(lsn);
        let mut space = self.space.lock();
        space.refresh(rid.page, g.total_free());
        if new.len() < old.len() {
            self.reserve(space, txn, rid.page, old.len() - new.len());
        }
        Ok(old)
    }

    /// Unlocked scan of a heap file (verification / examples). Returns every
    /// live record in (page, slot) order.
    pub fn scan_all(&self, first_page: PageId) -> Result<Vec<(Rid, Vec<u8>)>> {
        let mut out = Vec::new();
        let mut page = first_page;
        while !page.is_null() {
            let g = self.pool.fix_s(page)?;
            for i in 0..g.slot_count() {
                if let Some(c) = g.cell(i) {
                    out.push((
                        Rid {
                            page,
                            slot: SlotNo(i),
                        },
                        c.to_vec(),
                    ));
                }
            }
            page = g.next();
        }
        Ok(out)
    }
}

impl ResourceManager for HeapManager {
    fn rm_id(&self) -> RmId {
        RmId::Heap
    }

    #[deny(clippy::wildcard_enum_match_arm)]
    fn redo(&self, page: &mut PageBuf, rec: &LogRecord) -> Result<()> {
        match HeapBody::decode(&rec.body)? {
            HeapBody::Insert { slot, data, .. } => page.alloc_cell_at(slot, &data),
            HeapBody::Delete { slot, .. } => page.free_cell(slot).map(|_| ()),
            HeapBody::Update { slot, new, .. } => page.replace_cell_at(slot.0, &new),
            HeapBody::Format { table } => {
                page.format(rec.page, PageType::Heap, table.0, 0);
                Ok(())
            }
            HeapBody::ChainNext { new, .. } => {
                page.set_next(new);
                Ok(())
            }
            HeapBody::Noop => Ok(()),
        }
    }

    #[deny(clippy::wildcard_enum_match_arm)]
    fn undo(&self, logger: &mut ChainLogger<'_>, rec: &LogRecord) -> Result<()> {
        // Heap undo is always page-oriented: RIDs are stable, and
        // reservations guarantee re-insert space.
        let mut g = self.pool.fix_x(rec.page)?;
        let clr_body = match HeapBody::decode(&rec.body)? {
            HeapBody::Insert { table, slot, data } => {
                g.free_cell(slot)?;
                HeapBody::Delete { table, slot, data }
            }
            HeapBody::Delete { table, slot, data } => {
                g.alloc_cell_at(slot, &data)?;
                self.space
                    .lock()
                    .resv
                    .release(logger.txn, rec.page, data.len());
                HeapBody::Insert { table, slot, data }
            }
            HeapBody::Update {
                table,
                slot,
                old,
                new,
            } => {
                g.replace_cell_at(slot.0, &old)?;
                if old.len() > new.len() {
                    self.space
                        .lock()
                        .resv
                        .release(logger.txn, rec.page, old.len() - new.len());
                }
                HeapBody::Update {
                    table,
                    slot,
                    old: new,
                    new: old,
                }
            }
            HeapBody::Format { .. } => {
                // The page becomes unreachable once the space-map undo frees
                // it; its bytes need no restoration.
                self.space.lock().forget_file_of(rec.page);
                HeapBody::Noop
            }
            HeapBody::ChainNext { old, new } => {
                g.set_next(old);
                self.space.lock().forget_file_of(rec.page);
                HeapBody::ChainNext {
                    old: new,
                    new: old,
                }
            }
            HeapBody::Noop => HeapBody::Noop,
        };
        let lsn = logger.clr(RmId::Heap, rec.page, rec.prev_lsn, clr_body.encode());
        g.record_update(lsn);
        self.space.lock().refresh(rec.page, g.total_free());
        Ok(())
    }
}
