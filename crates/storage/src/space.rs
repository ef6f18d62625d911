//! Logged page-allocation space map.
//!
//! Page splits allocate pages and page deletions free them, *inside nested
//! top actions* (paper §3). For those SMOs to be atomic and recoverable, the
//! allocation state itself must be logged: this module keeps a bitmap page
//! (page 1) whose updates are redo-undo log records owned by
//! [`ariesim_wal::RmId::Space`].
//!
//! The map is deliberately latch-only (no locks): concurrent transactions
//! may set and clear different bits under the page's X latch, and because a
//! bit update is independent of every other bit, page-oriented undo of one
//! transaction's allocation never disturbs another's — the same argument the
//! paper makes for key inserts/deletes on index pages.

use crate::pool::BufferPool;
use ariesim_common::codec::{Reader, Writer};
use ariesim_common::page::{PageType, PAGE_HEADER_LEN, PAGE_SIZE};
use ariesim_common::{Error, Lsn, PageBuf, PageId, Result};
use ariesim_wal::{ChainLogger, LogRecord, ResourceManager, RmId};
use std::sync::Arc;

/// The space map lives at this fixed page.
pub const SPACE_MAP_PAGE: PageId = PageId(1);

/// First page id handed out by the allocator (0 = the NULL sentinel, never
/// used; 1 = space map; 2 = catalog).
pub const FIRST_USER_PAGE: u32 = 3;

/// Number of pages the single-page bitmap can govern.
pub const MAX_PAGES: u32 = ((PAGE_SIZE - PAGE_HEADER_LEN) * 8) as u32;

/// Page allocator over the bitmap page.
pub struct SpaceMap {
    pool: Arc<BufferPool>,
}

fn bit_pos(page: PageId) -> (usize, u8) {
    let n = page.0 - FIRST_USER_PAGE;
    (PAGE_HEADER_LEN + (n / 8) as usize, 1u8 << (n % 8))
}

fn get_bit(buf: &PageBuf, page: PageId) -> bool {
    let (byte, mask) = bit_pos(page);
    buf.as_bytes()[byte] & mask != 0
}

fn set_bit(buf: &mut PageBuf, page: PageId, v: bool) {
    let (byte, mask) = bit_pos(page);
    if v {
        buf.as_bytes_mut()[byte] |= mask;
    } else {
        buf.as_bytes_mut()[byte] &= !mask;
    }
}

fn encode_body(page: PageId, alloc: bool) -> Vec<u8> {
    let mut w = Writer::with_capacity(5);
    w.page_id(page).u8(alloc as u8);
    w.into_vec()
}

fn decode_body(rec: &LogRecord) -> Result<(PageId, bool)> {
    let mut r = Reader::new(&rec.body);
    let page = r.page_id()?;
    let alloc = r.u8()? != 0;
    Ok((page, alloc))
}

impl SpaceMap {
    pub fn new(pool: Arc<BufferPool>) -> SpaceMap {
        SpaceMap { pool }
    }

    /// Format the bitmap page. Called once at database creation; the caller
    /// force-writes it (DDL is not replayed by recovery — see DESIGN.md §4).
    pub fn initialize(pool: &Arc<BufferPool>) -> Result<()> {
        let mut g = pool.fix_x(SPACE_MAP_PAGE)?;
        g.format(SPACE_MAP_PAGE, PageType::SpaceMap, 0, 0);
        g.mark_dirty_raw(Lsn::FIRST);
        Ok(())
    }

    /// Allocate the lowest free page, logging the bitmap update through the
    /// caller's transaction chain. Returns the page id; the caller formats
    /// the page itself (and logs that separately).
    pub fn allocate(&self, logger: &mut ChainLogger<'_>) -> Result<PageId> {
        let mut g = self.pool.fix_x(SPACE_MAP_PAGE)?;
        for n in 0..MAX_PAGES {
            let page = PageId(FIRST_USER_PAGE + n);
            if !get_bit(&g, page) {
                set_bit(&mut g, page, true);
                let lsn = logger.update(RmId::Space, SPACE_MAP_PAGE, encode_body(page, true));
                g.record_update(lsn);
                return Ok(page);
            }
        }
        Err(Error::Internal("space map exhausted".into()))
    }

    /// Free a page (logged).
    pub fn free(&self, logger: &mut ChainLogger<'_>, page: PageId) -> Result<()> {
        let mut g = self.pool.fix_x(SPACE_MAP_PAGE)?;
        if !get_bit(&g, page) {
            return Err(Error::Internal(format!("double free of {page}")));
        }
        set_bit(&mut g, page, false);
        let lsn = logger.update(RmId::Space, SPACE_MAP_PAGE, encode_body(page, false));
        g.record_update(lsn);
        Ok(())
    }

    /// Allocation state of `page` (for invariant checks).
    pub fn is_allocated(&self, page: PageId) -> Result<bool> {
        let g = self.pool.fix_s(SPACE_MAP_PAGE)?;
        Ok(get_bit(&g, page))
    }

    /// All allocated pages (for the structural invariant checker).
    pub fn allocated_pages(&self) -> Result<Vec<PageId>> {
        let g = self.pool.fix_s(SPACE_MAP_PAGE)?;
        Ok((0..MAX_PAGES)
            .map(|n| PageId(FIRST_USER_PAGE + n))
            .filter(|&p| get_bit(&g, p))
            .collect())
    }
}

/// Resource manager for space-map records.
pub struct SpaceRm {
    pool: Arc<BufferPool>,
}

impl SpaceRm {
    pub fn new(pool: Arc<BufferPool>) -> SpaceRm {
        SpaceRm { pool }
    }
}

impl ResourceManager for SpaceRm {
    fn rm_id(&self) -> RmId {
        RmId::Space
    }

    fn redo(&self, page: &mut PageBuf, rec: &LogRecord) -> Result<()> {
        let (target, alloc) = decode_body(rec)?;
        set_bit(page, target, alloc);
        Ok(())
    }

    fn undo(&self, logger: &mut ChainLogger<'_>, rec: &LogRecord) -> Result<()> {
        let (target, alloc) = decode_body(rec)?;
        let mut g = self.pool.fix_x(SPACE_MAP_PAGE)?;
        set_bit(&mut g, target, !alloc);
        let lsn = logger.clr(
            RmId::Space,
            SPACE_MAP_PAGE,
            rec.prev_lsn,
            encode_body(target, !alloc),
        );
        g.record_update(lsn);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskManager;
    use ariesim_common::stats::new_stats;
    use ariesim_common::tmp::TempDir;
    use ariesim_common::TxnId;
    use ariesim_wal::{LogManager, LogOptions};

    fn setup() -> (TempDir, Arc<BufferPool>, Arc<LogManager>) {
        let dir = TempDir::new("space");
        let stats = new_stats();
        let log = Arc::new(
            LogManager::open(&dir.file("wal"), LogOptions::default(), stats.clone()).unwrap(),
        );
        let disk = DiskManager::open(&dir.file("db"), stats.clone()).unwrap();
        let pool = BufferPool::new(disk, log.clone(), 256, stats, ariesim_obs::Obs::disabled());
        SpaceMap::initialize(&pool).unwrap();
        (dir, pool, log)
    }

    #[test]
    fn allocate_is_dense_from_first_user_page() {
        let (_d, pool, log) = setup();
        let sm = SpaceMap::new(pool);
        let mut cl = ChainLogger::new(&log, TxnId(1), Lsn::NULL);
        let a = sm.allocate(&mut cl).unwrap();
        let b = sm.allocate(&mut cl).unwrap();
        assert_eq!(a, PageId(FIRST_USER_PAGE));
        assert_eq!(b, PageId(FIRST_USER_PAGE + 1));
        assert!(sm.is_allocated(a).unwrap());
    }

    #[test]
    fn free_then_reallocate_lowest() {
        let (_d, pool, log) = setup();
        let sm = SpaceMap::new(pool);
        let mut cl = ChainLogger::new(&log, TxnId(1), Lsn::NULL);
        let a = sm.allocate(&mut cl).unwrap();
        let _b = sm.allocate(&mut cl).unwrap();
        sm.free(&mut cl, a).unwrap();
        assert!(!sm.is_allocated(a).unwrap());
        let c = sm.allocate(&mut cl).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn double_free_is_error() {
        let (_d, pool, log) = setup();
        let sm = SpaceMap::new(pool);
        let mut cl = ChainLogger::new(&log, TxnId(1), Lsn::NULL);
        let a = sm.allocate(&mut cl).unwrap();
        sm.free(&mut cl, a).unwrap();
        assert!(sm.free(&mut cl, a).is_err());
    }

    #[test]
    fn updates_are_logged_with_chain() {
        let (_d, pool, log) = setup();
        let sm = SpaceMap::new(pool);
        let mut cl = ChainLogger::new(&log, TxnId(9), Lsn::NULL);
        let a = sm.allocate(&mut cl).unwrap();
        sm.free(&mut cl, a).unwrap();
        let recs: Vec<LogRecord> = log.scan(Lsn::NULL).map(|r| r.unwrap()).collect();
        assert_eq!(recs.len(), 2);
        assert!(recs.iter().all(|r| r.rm == RmId::Space));
        assert_eq!(recs[1].prev_lsn, recs[0].lsn);
        assert_eq!(decode_body(&recs[0]).unwrap(), (a, true));
        assert_eq!(decode_body(&recs[1]).unwrap(), (a, false));
    }

    #[test]
    fn rm_redo_applies_bit() {
        let (_d, pool, log) = setup();
        let sm = SpaceMap::new(pool.clone());
        let mut cl = ChainLogger::new(&log, TxnId(1), Lsn::NULL);
        let a = sm.allocate(&mut cl).unwrap();
        let rec = log.scan(Lsn::NULL).next().unwrap().unwrap();
        // Redo into a freshly formatted page reproduces the bit.
        let mut img = PageBuf::zeroed();
        img.format(SPACE_MAP_PAGE, PageType::SpaceMap, 0, 0);
        let rm = SpaceRm::new(pool);
        rm.redo(&mut img, &rec).unwrap();
        assert!(get_bit(&img, a));
    }

    #[test]
    fn rm_undo_inverts_and_writes_clr() {
        let (_d, pool, log) = setup();
        let sm = SpaceMap::new(pool.clone());
        let mut cl = ChainLogger::new(&log, TxnId(1), Lsn::NULL);
        let a = sm.allocate(&mut cl).unwrap();
        let alloc_rec = log.scan(Lsn::NULL).next().unwrap().unwrap();
        let rm = SpaceRm::new(pool);
        rm.undo(&mut cl, &alloc_rec).unwrap();
        assert!(!sm.is_allocated(a).unwrap());
        let recs: Vec<LogRecord> = log.scan(Lsn::NULL).map(|r| r.unwrap()).collect();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].kind, ariesim_wal::RecordKind::Clr);
        assert_eq!(recs[1].undo_next_lsn, alloc_rec.prev_lsn);
    }

    #[test]
    fn allocated_pages_lists_exactly_the_set_bits() {
        let (_d, pool, log) = setup();
        let sm = SpaceMap::new(pool);
        let mut cl = ChainLogger::new(&log, TxnId(1), Lsn::NULL);
        let a = sm.allocate(&mut cl).unwrap();
        let b = sm.allocate(&mut cl).unwrap();
        let c = sm.allocate(&mut cl).unwrap();
        sm.free(&mut cl, b).unwrap();
        assert_eq!(sm.allocated_pages().unwrap(), vec![a, c]);
    }
}
