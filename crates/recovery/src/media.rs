//! Media recovery: fuzzy image copies and page-oriented roll-forward.
//!
//! The paper's §5: "ARIES/IM supports page-oriented media recovery for
//! indexes — dumps of indexes can be taken and when there is a problem in
//! reading a page ... the page can be loaded from the last dump and then, by
//! rolling forward using the log, the page can be brought up-to-date."
//!
//! The copy is *fuzzy*: pages are copied one at a time through the buffer
//! pool (each under its S latch, so no torn images) without quiescing
//! updates. Because a copied image may already contain updates logged after
//! the copy began, roll-forward takes restart's redo step on the image —
//! the same `page_lsn` comparison skips updates already present.

use crate::restart::redo_step;
use ariesim_common::stats::Bump;
use ariesim_common::{Error, Lsn, PageBuf, PageId, Result};
use ariesim_txn::Core;
use std::collections::HashMap;

/// A fuzzy dump of a set of pages plus the LSN roll-forward must start from.
pub struct ImageCopy {
    /// Every log record with LSN ≥ this may be missing from the images.
    pub start_lsn: Lsn,
    pages: HashMap<PageId, PageBuf>,
}

impl ImageCopy {
    /// Take a fuzzy copy of `pages` (typically: every page of one index, as
    /// reported by the checker, plus the space map).
    pub fn take(core: &Core, pages: &[PageId]) -> Result<ImageCopy> {
        // Anything logged before this point will be in the images we copy
        // (we read through the pool, which holds the newest versions).
        let start_lsn = core.log.next_lsn();
        let mut map = HashMap::with_capacity(pages.len());
        for &p in pages {
            let g = core.pool.fix_s(p)?;
            map.insert(p, PageBuf::from_bytes(g.as_bytes().as_slice())?);
        }
        Ok(ImageCopy {
            start_lsn,
            pages: map,
        })
    }

    /// Pages contained in the dump.
    pub fn page_ids(&self) -> Vec<PageId> {
        let mut v: Vec<PageId> = self.pages.keys().copied().collect();
        v.sort();
        v
    }

    /// Recover one page: start from the dumped image and roll forward every
    /// later record for that page. One pass of the log per call (the paper's
    /// media-recovery efficiency measure counts these). The recovered image
    /// is returned; the caller decides where to put it.
    pub fn recover_page(&self, core: &Core, page: PageId) -> Result<PageBuf> {
        let mut img = self
            .pages
            .get(&page)
            .ok_or_else(|| Error::Internal(format!("page {page} not in image copy")))?
            .clone();
        core.stats.media_recovery_passes.bump();
        for rec in core.log.scan(self.start_lsn) {
            let rec = rec?;
            if rec.page != page || !rec.kind.is_redoable() {
                continue;
            }
            redo_step(&core.rms, &mut img, &rec)?;
        }
        Ok(img)
    }

    /// Convenience: recover a page and install it into the database through
    /// the buffer pool (used after simulating the loss of a disk page).
    pub fn restore_into(&self, core: &Core, page: PageId) -> Result<()> {
        let img = self.recover_page(core, page)?;
        let mut g = core.pool.fix_x(page)?;
        let lsn = img.page_lsn();
        *g.as_bytes_mut() = *img.as_bytes();
        g.record_update(lsn);
        Ok(())
    }
}
