//! The heap manager: logged, locked record operations on heap files.

use crate::body::HeapBody;
use ariesim_common::ids::SlotNo;
use ariesim_common::page::PageType;
use ariesim_common::slotted::SLOT_LEN;
use ariesim_common::{Error, PageBuf, PageId, Result, Rid, TableId, TxnId};
use ariesim_lock::{LockDuration, LockManager, LockMode, LockName};
use ariesim_storage::{BufferPool, SpaceMap};
use ariesim_txn::{Core, TxnHandle};
use ariesim_wal::{ChainLogger, LogManager, LogRecord, ResourceManager, RmId};
use parking_lot::Mutex;
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
    fn add(&mut self, txn: TxnId, page: PageId, bytes: usize) {
        *self.per_page.entry(page).or_insert(0) += bytes;
        *self
            .per_txn
            .entry(txn)
            .or_default()
            .entry(page)
            .or_insert(0) += bytes;
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

/// The heap record manager. One instance serves every table; per-table state
/// is just the first page id (kept by the catalog in `ariesim-db`).
pub struct HeapManager {
    pool: Arc<BufferPool>,
    space: SpaceMap,
    locks: Arc<LockManager>,
    log: Arc<LogManager>,
    resv: Mutex<Reservations>,
    /// Lock data pages instead of records (the paper's §2.1 page
    /// granularity), selectable per database.
    pub page_granularity: bool,
}

impl HeapManager {
    /// The heap manager of `core`'s engine, registered as its
    /// [`RmId::Heap`] resource manager and told when transactions end. When
    /// `page_granularity` is true, record operations lock the data *page*
    /// instead of the record (§2.1's coarser granule).
    pub fn new(core: &Core, page_granularity: bool) -> Arc<HeapManager> {
        let heap = Arc::new(HeapManager {
            space: SpaceMap::new(core.pool.clone()),
            pool: core.pool.clone(),
            locks: core.locks.clone(),
            log: core.log.clone(),
            resv: Mutex::new(Reservations::default()),
            page_granularity,
        });
        core.rms.register(heap.clone());
        let hook = heap.clone();
        core.tm.on_end(Arc::new(move |txn| hook.on_txn_end(txn)));
        heap
    }

    /// Transaction-end hook body: drop the transaction's reservations.
    fn on_txn_end(&self, txn: TxnId) {
        self.resv.lock().release_txn(txn);
    }

    fn data_lock(&self, rid: Rid) -> LockName {
        LockName::for_data(rid, self.page_granularity)
    }

    /// Create a heap file for `table`: allocates and formats its first page
    /// within `txn`. Returns the first page id.
    pub fn create_file(&self, txn: &TxnHandle, table: TableId) -> Result<PageId> {
        txn.with_logger(&self.log, |logger| {
            let page = self.space.allocate(logger)?;
            let mut g = self.pool.fix_x(page)?; // latch-rank: 2
            g.format(page, PageType::Heap, table.0, 0);
            let lsn = logger.update(RmId::Heap, page, HeapBody::Format { table }.encode());
            g.record_update(lsn);
            Ok(page)
        })
    }

    /// Insert a record, returning its RID. Takes a commit-duration X lock on
    /// the RID (which, under data-only locking, is also the lock on every
    /// index key derived from this record).
    pub fn insert(
        &self,
        txn: &TxnHandle,
        table: TableId,
        first_page: PageId,
        data: &[u8],
    ) -> Result<Rid> {
        let mut page = first_page;
        loop {
            let mut g = self.pool.fix_x(page)?; // latch-rank: 2
            let reserved = self.resv.lock().reserved(page);
            if g.total_free() >= data.len() + SLOT_LEN + reserved {
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
                                // Release the latch and retry the page after
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
                return Ok(rid);
            }
            // No room here: follow the chain, extending the file at its end.
            let next = g.next();
            if next.is_null() {
                let new_page = self.extend_file(txn, table, page, g)?;
                page = new_page;
            } else {
                drop(g);
                page = next;
            }
        }
    }

    /// Append a fresh page to the heap file as a nested top action, while
    /// holding the X latch on the current last page (`g`). Returns the new
    /// page's id.
    fn extend_file(
        &self,
        txn: &TxnHandle,
        table: TableId,
        last: PageId,
        mut g: ariesim_storage::PageWriteGuard,
    ) -> Result<PageId> {
        let token = txn.begin_nta();
        let new_page = txn.with_logger(&self.log, |logger| -> Result<PageId> {
            let new_page = self.space.allocate(logger)?;
            {
                let mut ng = self.pool.fix_x(new_page)?; // latch-rank: 2
                ng.format(new_page, PageType::Heap, table.0, 0);
                let lsn = logger.update(RmId::Heap, new_page, HeapBody::Format { table }.encode());
                ng.record_update(lsn);
            }
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
            Ok(new_page)
        })?;
        drop(g);
        txn.end_nta(&self.log, token);
        Ok(new_page)
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
        let mut g = self.pool.fix_x(rid.page)?; // latch-rank: 2
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
        self.resv.lock().add(txn.id, rid.page, data.len());
        Ok(data)
    }

    /// Fetch the record at `rid`.
    ///
    /// With data-only locking the index manager has usually *already* locked
    /// this RID on the caller's behalf (paper §2.1: "the record manager does
    /// not have to lock the corresponding record"), so `already_locked`
    /// suppresses the S lock.
    pub fn fetch(&self, txn: &TxnHandle, rid: Rid, already_locked: bool) -> Result<Vec<u8>> {
        if !already_locked {
            self.locks.request(
                txn.id,
                self.data_lock(rid),
                LockMode::S,
                LockDuration::Commit,
                false,
            )?;
        }
        let g = self.pool.fix_s(rid.page)?; // latch-rank: 2
        g.cell(rid.slot.0)
            .map(|c| c.to_vec())
            .ok_or(Error::BadRid { rid })
    }

    /// Replace the record at `rid` in place, returning the replaced image
    /// (callers doing index maintenance diff old against new). The new
    /// image must fit in the page (records never move — RIDs are stable
    /// names; see crate docs).
    pub fn update(&self, txn: &TxnHandle, table: TableId, rid: Rid, new: &[u8]) -> Result<Vec<u8>> {
        self.locks.request(
            txn.id,
            self.data_lock(rid),
            LockMode::X,
            LockDuration::Commit,
            false,
        )?;
        let mut g = self.pool.fix_x(rid.page)?; // latch-rank: 2
        let old = g.cell(rid.slot.0).ok_or(Error::BadRid { rid })?.to_vec();
        let reserved = self.resv.lock().reserved(rid.page);
        if new.len() > old.len() && g.total_free() + old.len() < new.len() + reserved {
            return Err(Error::TooLarge {
                len: new.len(),
                max: g.total_free() + old.len() - reserved.min(g.total_free() + old.len()),
            });
        }
        g.free_cell(rid.slot)?;
        g.alloc_cell_at(rid.slot, new)?;
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
        Ok(old)
    }

    /// Unlocked scan of a heap file (verification / examples). Returns every
    /// live record in (page, slot) order.
    pub fn scan_all(&self, first_page: PageId) -> Result<Vec<(Rid, Vec<u8>)>> {
        let mut out = Vec::new();
        let mut page = first_page;
        while !page.is_null() {
            let g = self.pool.fix_s(page)?; // latch-rank: 2
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

    fn redo(&self, page: &mut PageBuf, rec: &LogRecord) -> Result<()> {
        match HeapBody::decode(&rec.body)? {
            HeapBody::Insert { slot, data, .. } => page.alloc_cell_at(slot, &data),
            HeapBody::Delete { slot, .. } => page.free_cell(slot).map(|_| ()),
            HeapBody::Update { slot, new, .. } => {
                page.free_cell(slot)?;
                page.alloc_cell_at(slot, &new)
            }
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

    fn undo(&self, logger: &mut ChainLogger<'_>, rec: &LogRecord) -> Result<()> {
        // Heap undo is always page-oriented: RIDs are stable, and
        // reservations guarantee re-insert space.
        let mut g = self.pool.fix_x(rec.page)?; // latch-rank: 2
        let clr_body = match HeapBody::decode(&rec.body)? {
            HeapBody::Insert { table, slot, data } => {
                g.free_cell(slot)?;
                HeapBody::Delete { table, slot, data }
            }
            HeapBody::Delete { table, slot, data } => {
                g.alloc_cell_at(slot, &data)?;
                self.resv.lock().release(logger.txn, rec.page, data.len());
                HeapBody::Insert { table, slot, data }
            }
            HeapBody::Update {
                table,
                slot,
                old,
                new,
            } => {
                g.free_cell(slot)?;
                g.alloc_cell_at(slot, &old)?;
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
                HeapBody::Noop
            }
            HeapBody::ChainNext { old, new } => {
                g.set_next(old);
                HeapBody::ChainNext {
                    old: new,
                    new: old,
                }
            }
            HeapBody::Noop => HeapBody::Noop,
        };
        let lsn = logger.clr(RmId::Heap, rec.page, rec.prev_lsn, clr_body.encode());
        g.record_update(lsn);
        Ok(())
    }
}
