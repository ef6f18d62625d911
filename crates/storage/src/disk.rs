//! Disk manager: a file of [`PAGE_SIZE`]-byte pages.
//!
//! The database file is the *stable* page store. Reads of pages beyond the
//! current end of file return zeroed images (the file is grown lazily by the
//! first write), which a formatted page always overwrites before use.

use ariesim_common::stats::{Bump, StatsHandle};
use ariesim_common::{PageBuf, PageId, Result, PAGE_SIZE};
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::ErrorKind;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::Arc;

/// Read-fault hook: consulted with the page id before every
/// [`DiskManager::read_page`]; an `Err` becomes the read's result.
pub type ReadFaultHook = Arc<dyn Fn(PageId) -> Result<()> + Send + Sync>;

/// Write-fault hook: consulted with the page id before every
/// [`DiskManager::write_page`]; an `Err` becomes the write's result.
pub type WriteFaultHook = Arc<dyn Fn(PageId) -> Result<()> + Send + Sync>;

/// Thread-safe page file: every access is one positional call, so readers
/// and writers of different pages never serialise on a file cursor.
pub struct DiskManager {
    file: File,
    stats: StatsHandle,
    read_hook: Mutex<Option<ReadFaultHook>>,
    write_hook: Mutex<Option<WriteFaultHook>>,
}

impl DiskManager {
    pub fn open(path: &Path, stats: StatsHandle) -> Result<DiskManager> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        Ok(DiskManager {
            file,
            stats,
            read_hook: Mutex::new(None),
            write_hook: Mutex::new(None),
        })
    }

    /// Install (or, with `None`, remove) a [`ReadFaultHook`]. Test-only
    /// instrumentation: the hook can delay or fail reads to drive the
    /// I/O-error paths above the disk (e.g. the buffer pool's load unwind)
    /// deterministically.
    pub fn set_read_hook(&self, hook: Option<ReadFaultHook>) {
        *self.read_hook.lock() = hook;
    }

    /// Install (or, with `None`, remove) a [`WriteFaultHook`]. Test-only
    /// instrumentation, like [`Self::set_read_hook`] but for writes — e.g.
    /// holding a thread open inside an eviction write-back to force the
    /// racy interleavings of the buffer pool's install path.
    pub fn set_write_hook(&self, hook: Option<WriteFaultHook>) {
        *self.write_hook.lock() = hook;
    }

    /// Number of pages the file currently holds (rounded up).
    pub fn page_count(&self) -> Result<u32> {
        let len = self.file.metadata()?.len();
        Ok(len.div_ceil(PAGE_SIZE as u64) as u32)
    }

    /// Read a page image into `into`; whatever lies beyond EOF reads as
    /// zeroes.
    pub fn read_page(&self, id: PageId, into: &mut PageBuf) -> Result<()> {
        let hook = self.read_hook.lock().clone();
        if let Some(hook) = hook {
            hook(id)?;
        }
        let bytes = into.as_bytes_mut();
        let mut filled = 0;
        while filled < PAGE_SIZE {
            match self.file.read_at(&mut bytes[filled..], id.file_offset() + filled as u64) {
                Ok(0) => break, // EOF: the file is grown lazily by the first write
                Ok(n) => filled += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        bytes[filled..].fill(0);
        self.stats.page_reads.bump();
        Ok(())
    }

    /// Write a page image at its id's offset, growing the file if needed.
    pub fn write_page(&self, page: &PageBuf) -> Result<()> {
        let hook = self.write_hook.lock().clone();
        if let Some(hook) = hook {
            hook(page.page_id())?;
        }
        self.file
            .write_all_at(page.as_bytes().as_slice(), page.page_id().file_offset())?;
        self.stats.page_writes.bump();
        Ok(())
    }

    /// Force file contents to stable storage.
    pub fn sync(&self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ariesim_common::page::PageType;
    use ariesim_common::stats::new_stats;
    use ariesim_common::tmp::TempDir;
    use ariesim_common::Lsn;

    fn read(d: &DiskManager, id: PageId) -> PageBuf {
        let mut buf = PageBuf::zeroed();
        d.read_page(id, &mut buf).unwrap();
        buf
    }

    #[test]
    fn write_then_read_roundtrip() {
        let dir = TempDir::new("disk");
        let d = DiskManager::open(&dir.file("db"), new_stats()).unwrap();
        let mut p = PageBuf::zeroed();
        p.format(PageId(3), PageType::Heap, 7, 0);
        p.set_page_lsn(Lsn(42));
        d.write_page(&p).unwrap();
        let q = read(&d, PageId(3));
        assert_eq!(q.page_id(), PageId(3));
        assert_eq!(q.page_lsn(), Lsn(42));
        assert_eq!(q.owner(), 7);
    }

    #[test]
    fn read_beyond_eof_is_zeroed() {
        let dir = TempDir::new("disk");
        let d = DiskManager::open(&dir.file("db"), new_stats()).unwrap();
        // A frame being reused still holds its previous page: the unread
        // tail must be cleared, not left over.
        let mut p = PageBuf::zeroed();
        p.format(PageId(9), PageType::Heap, 7, 0);
        d.read_page(PageId(100), &mut p).unwrap();
        assert!(p.as_bytes().iter().all(|&b| b == 0));
    }

    #[test]
    fn page_count_tracks_highest_write() {
        let dir = TempDir::new("disk");
        let d = DiskManager::open(&dir.file("db"), new_stats()).unwrap();
        assert_eq!(d.page_count().unwrap(), 0);
        let mut p = PageBuf::zeroed();
        p.format(PageId(4), PageType::Heap, 0, 0);
        d.write_page(&p).unwrap();
        assert_eq!(d.page_count().unwrap(), 5);
    }

    #[test]
    fn reopen_preserves_pages() {
        let dir = TempDir::new("disk");
        let path = dir.file("db");
        {
            let d = DiskManager::open(&path, new_stats()).unwrap();
            let mut p = PageBuf::zeroed();
            p.format(PageId(1), PageType::IndexLeaf, 9, 0);
            d.write_page(&p).unwrap();
        }
        let d = DiskManager::open(&path, new_stats()).unwrap();
        let p = read(&d, PageId(1));
        assert_eq!(p.owner(), 9);
        assert_eq!(p.page_type().unwrap(), PageType::IndexLeaf);
    }

    #[test]
    fn stats_count_io() {
        let dir = TempDir::new("disk");
        let stats = new_stats();
        let d = DiskManager::open(&dir.file("db"), stats.clone()).unwrap();
        let mut p = PageBuf::zeroed();
        p.format(PageId(1), PageType::Heap, 0, 0);
        d.write_page(&p).unwrap();
        read(&d, PageId(1));
        let s = stats.snapshot();
        assert_eq!((s.page_writes, s.page_reads), (1, 1));
    }
}
