//! Slotted-page body layout, shared by heap data pages and index pages.
//!
//! The body (bytes [`PAGE_HEADER_LEN`]`..PAGE_SIZE`) holds a slot array
//! growing upward from the header and a cell area growing downward from the
//! end of the page:
//!
//! ```text
//! [ header | slot0 slot1 ... slotN | ....free.... | cellN ... cell1 cell0 ]
//!           ^PAGE_HEADER_LEN                      ^heap_top          ^PAGE_SIZE
//! ```
//!
//! Each slot is 4 bytes: cell offset (u16) and cell length (u16). A slot with
//! offset 0 is *dead* — offset 0 lies inside the page header, so it can never
//! address a real cell.
//!
//! Two usage disciplines share this layout:
//!
//! * **Index pages** keep cells sorted by key and use the *positional* API
//!   ([`PageBuf::insert_cell_at`] / [`PageBuf::delete_cell_at`]) which shifts
//!   the slot array. Slot numbers are not stable and nothing outside the page
//!   refers to them.
//! * **Heap pages** need stable RIDs, so they use the *allocating* API
//!   ([`PageBuf::alloc_cell`] / [`PageBuf::free_cell`]) which reuses dead
//!   slots and never renumbers live ones.
//!
//! Cell space lost to deletion is reclaimed lazily by compaction when an
//! insert needs contiguous room that exists only as fragments.

use crate::error::{Error, Result};
use crate::ids::SlotNo;
use crate::page::{PageBuf, OFF_HEAP_TOP, OFF_SLOT_COUNT, PAGE_HEADER_LEN, PAGE_SIZE};

/// Bytes of slot-array overhead per cell.
pub const SLOT_LEN: usize = 4;

/// Largest cell that fits on a freshly formatted page.
pub const MAX_CELL_LEN: usize = PAGE_SIZE - PAGE_HEADER_LEN - SLOT_LEN;

impl PageBuf {
    // --- slot bookkeeping ---------------------------------------------------

    /// Number of slots (live + dead) on the page.
    pub fn slot_count(&self) -> u16 {
        self.get_u16(OFF_SLOT_COUNT)
    }

    fn set_slot_count(&mut self, n: u16) {
        self.put_u16(OFF_SLOT_COUNT, n);
    }

    fn heap_top(&self) -> usize {
        self.get_u16(OFF_HEAP_TOP) as usize
    }

    fn set_heap_top(&mut self, v: usize) {
        debug_assert!(v <= PAGE_SIZE);
        self.put_u16(OFF_HEAP_TOP, v as u16);
    }

    fn slot_off(i: u16) -> usize {
        PAGE_HEADER_LEN + i as usize * SLOT_LEN
    }

    fn read_slot(&self, i: u16) -> (usize, usize) {
        let off = Self::slot_off(i);
        (
            self.get_u16(off) as usize,
            self.get_u16(off + 2) as usize,
        )
    }

    fn write_slot(&mut self, i: u16, cell_off: usize, cell_len: usize) {
        let off = Self::slot_off(i);
        self.put_u16(off, cell_off as u16);
        self.put_u16(off + 2, cell_len as u16);
    }

    // --- queries -------------------------------------------------------------

    /// Cell bytes at slot `i`; `None` if the slot is dead or out of range.
    pub fn cell(&self, i: u16) -> Option<&[u8]> {
        if i >= self.slot_count() {
            return None;
        }
        let (off, len) = self.read_slot(i);
        if off == 0 {
            return None;
        }
        Some(&self.as_bytes()[off..off + len])
    }

    /// Number of live (non-dead) slots.
    pub fn live_cells(&self) -> u16 {
        (0..self.slot_count())
            .filter(|&i| self.read_slot(i).0 != 0)
            .count() as u16
    }

    /// True if the page has no live cells.
    pub fn is_body_empty(&self) -> bool {
        self.live_cells() == 0
    }

    /// Contiguous free bytes between the slot array and the cell area.
    pub fn contiguous_free(&self) -> usize {
        self.heap_top() - (PAGE_HEADER_LEN + self.slot_count() as usize * SLOT_LEN)
    }

    /// Total reclaimable free bytes (contiguous + dead-cell fragments). A dead
    /// slot's 4 slot bytes are only reclaimable for positional pages (where
    /// dead slots never exist) so they are not counted here.
    pub fn total_free(&self) -> usize {
        let live_bytes: usize = (0..self.slot_count())
            .map(|i| {
                let (off, len) = self.read_slot(i);
                if off == 0 {
                    0
                } else {
                    len
                }
            })
            .sum();
        PAGE_SIZE
            - PAGE_HEADER_LEN
            - self.slot_count() as usize * SLOT_LEN
            - live_bytes
    }

    /// Would a cell of `len` bytes fit if we also need a new slot entry?
    pub fn fits(&self, len: usize) -> bool {
        self.total_free() >= len + SLOT_LEN
    }

    // --- compaction ------------------------------------------------------------

    /// Rewrite the cell area so all free space is contiguous. Live slot
    /// numbers and cell contents are unchanged.
    pub fn compact(&mut self) {
        // Copy the page out once, then repack slot by slot from the page
        // end downward.
        let scratch = *self.as_bytes();
        let mut top = PAGE_SIZE;
        for i in 0..self.slot_count() {
            let (off, len) = self.read_slot(i);
            if off == 0 {
                continue;
            }
            top -= len;
            self.as_bytes_mut()[top..top + len].copy_from_slice(&scratch[off..off + len]);
            self.write_slot(i, top, len);
        }
        self.set_heap_top(top);
    }

    fn make_room(&mut self, len: usize, extra_slots: usize) -> Result<usize> {
        if len > MAX_CELL_LEN {
            return Err(Error::TooLarge {
                len,
                max: MAX_CELL_LEN,
            });
        }
        let slot_bytes = extra_slots * SLOT_LEN;
        if self.contiguous_free() < len + slot_bytes {
            if self.total_free() < len + slot_bytes {
                return Err(Error::TooLarge {
                    len,
                    max: self.total_free().saturating_sub(slot_bytes),
                });
            }
            self.compact();
        }
        let top = self.heap_top() - len;
        Ok(top)
    }

    // --- positional API (index pages) -------------------------------------------

    /// Insert a cell at position `idx`, shifting slots `idx..` up by one.
    /// Fails with [`Error::TooLarge`] if the page cannot hold it.
    pub fn insert_cell_at(&mut self, idx: u16, data: &[u8]) -> Result<()> {
        let n = self.slot_count();
        assert!(idx <= n, "insert_cell_at index {idx} > slot count {n}");
        let top = self.make_room(data.len(), 1)?;
        self.as_bytes_mut()[top..top + data.len()].copy_from_slice(data);
        self.set_heap_top(top);
        // Shift the slot array up by one entry.
        let src = Self::slot_off(idx);
        let end = Self::slot_off(n);
        self.as_bytes_mut().copy_within(src..end, src + SLOT_LEN);
        self.write_slot(idx, top, data.len());
        self.set_slot_count(n + 1);
        Ok(())
    }

    /// Remove the cell at position `idx`, shifting slots `idx+1..` down.
    /// Returns the removed cell's bytes.
    pub fn delete_cell_at(&mut self, idx: u16) -> Result<Vec<u8>> {
        let n = self.slot_count();
        if idx >= n {
            return Err(Error::Internal(format!(
                "delete_cell_at {idx} on page with {n} slots"
            )));
        }
        let data = self
            .cell(idx)
            .ok_or_else(|| Error::Internal(format!("delete_cell_at {idx}: dead slot")))?
            .to_vec();
        let src = Self::slot_off(idx + 1);
        let end = Self::slot_off(n);
        self.as_bytes_mut().copy_within(src..end, src - SLOT_LEN);
        self.set_slot_count(n - 1);
        // The cell bytes become a fragment; reclaimed by the next compaction.
        Ok(data)
    }

    /// Replace the cell at position `idx` with `data`, keeping its slot
    /// number — so it serves both disciplines: index parent updates and heap
    /// record updates (do, redo and undo). An image no longer than the old
    /// one is overwritten in place; a longer one is allocated afresh,
    /// compacting first if only fragments have room.
    pub fn replace_cell_at(&mut self, idx: u16, data: &[u8]) -> Result<()> {
        let n = self.slot_count();
        if idx >= n {
            return Err(Error::Internal(format!(
                "replace_cell_at {idx} on page with {n} slots"
            )));
        }
        let (old_off, old_len) = self.read_slot(idx);
        if old_off == 0 {
            return Err(Error::Internal(format!("replace_cell_at {idx}: dead slot")));
        }
        if data.len() <= old_len {
            // In-place: keep the old offset, shrink the length.
            let bytes = self.as_bytes_mut();
            bytes[old_off..old_off + data.len()].copy_from_slice(data);
            self.write_slot(idx, old_off, data.len());
            return Ok(());
        }
        // Need a bigger cell: kill the old one first so compaction can reclaim
        // it, then allocate fresh space.
        self.write_slot(idx, 0, 0);
        let top = match self.make_room(data.len(), 0) {
            Ok(t) => t,
            Err(e) => {
                // Restore the original cell on failure.
                self.write_slot(idx, old_off, old_len);
                return Err(e);
            }
        };
        self.as_bytes_mut()[top..top + data.len()].copy_from_slice(data);
        self.set_heap_top(top);
        self.write_slot(idx, top, data.len());
        Ok(())
    }

    // --- allocating API (heap pages) ----------------------------------------------

    /// Store `data` in a free slot (reusing a dead one if available) and
    /// return its stable slot number.
    pub fn alloc_cell(&mut self, data: &[u8]) -> Result<SlotNo> {
        let n = self.slot_count();
        let reuse = (0..n).find(|&i| self.read_slot(i).0 == 0);
        let extra_slots = usize::from(reuse.is_none());
        let top = self.make_room(data.len(), extra_slots)?;
        self.as_bytes_mut()[top..top + data.len()].copy_from_slice(data);
        self.set_heap_top(top);
        let slot = match reuse {
            Some(i) => i,
            None => {
                self.set_slot_count(n + 1);
                n
            }
        };
        self.write_slot(slot, top, data.len());
        Ok(SlotNo(slot))
    }

    /// Store `data` at a *specific* slot number, which must be dead or beyond
    /// the current slot array (recovery redo of a heap insert must reproduce
    /// the exact RID).
    pub fn alloc_cell_at(&mut self, slot: SlotNo, data: &[u8]) -> Result<()> {
        let n = self.slot_count();
        if slot.0 < n && self.read_slot(slot.0).0 != 0 {
            return Err(Error::Internal(format!(
                "alloc_cell_at: slot {} already live",
                slot.0
            )));
        }
        let extra = (slot.0 as usize + 1).saturating_sub(n as usize);
        let top = self.make_room(data.len(), extra)?;
        self.as_bytes_mut()[top..top + data.len()].copy_from_slice(data);
        self.set_heap_top(top);
        if slot.0 >= n {
            // Intervening new slots are born dead.
            for i in n..slot.0 {
                self.write_slot(i, 0, 0);
            }
            self.set_slot_count(slot.0 + 1);
        }
        self.write_slot(slot.0, top, data.len());
        Ok(())
    }

    /// Free a heap cell, leaving a dead slot so other RIDs stay valid.
    /// Returns the old contents.
    pub fn free_cell(&mut self, slot: SlotNo) -> Result<Vec<u8>> {
        let data = self
            .cell(slot.0)
            .ok_or(Error::BadRid {
                rid: crate::ids::Rid {
                    page: self.page_id(),
                    slot,
                },
            })?
            .to_vec();
        self.write_slot(slot.0, 0, 0);
        Ok(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::PageId;
    use crate::page::PageType;

    fn fresh() -> PageBuf {
        let mut p = PageBuf::zeroed();
        p.format(PageId(1), PageType::Heap, 0, 0);
        p
    }

    #[test]
    fn positional_insert_preserves_order() {
        let mut p = fresh();
        p.insert_cell_at(0, b"bb").unwrap();
        p.insert_cell_at(0, b"aa").unwrap();
        p.insert_cell_at(2, b"dd").unwrap();
        p.insert_cell_at(2, b"cc").unwrap();
        let cells: Vec<&[u8]> = (0..p.slot_count()).map(|i| p.cell(i).unwrap()).collect();
        assert_eq!(cells, vec![&b"aa"[..], b"bb", b"cc", b"dd"]);
    }

    #[test]
    fn positional_delete_shifts_down() {
        let mut p = fresh();
        for (i, c) in [b"a", b"b", b"c"].iter().enumerate() {
            p.insert_cell_at(i as u16, *c).unwrap();
        }
        let removed = p.delete_cell_at(1).unwrap();
        assert_eq!(removed, b"b");
        assert_eq!(p.slot_count(), 2);
        assert_eq!(p.cell(0).unwrap(), b"a");
        assert_eq!(p.cell(1).unwrap(), b"c");
    }

    #[test]
    fn alloc_reuses_dead_slots() {
        let mut p = fresh();
        let s0 = p.alloc_cell(b"one").unwrap();
        let s1 = p.alloc_cell(b"two").unwrap();
        assert_eq!((s0.0, s1.0), (0, 1));
        p.free_cell(s0).unwrap();
        assert!(p.cell(0).is_none());
        assert_eq!(p.cell(1).unwrap(), b"two"); // stable
        let s2 = p.alloc_cell(b"three").unwrap();
        assert_eq!(s2.0, 0); // reused
        assert_eq!(p.cell(0).unwrap(), b"three");
    }

    #[test]
    fn alloc_cell_at_reproduces_exact_slot() {
        let mut p = fresh();
        p.alloc_cell_at(SlotNo(3), b"redo").unwrap();
        assert_eq!(p.slot_count(), 4);
        assert!(p.cell(0).is_none() && p.cell(2).is_none());
        assert_eq!(p.cell(3).unwrap(), b"redo");
        // Occupied slot is rejected.
        assert!(p.alloc_cell_at(SlotNo(3), b"again").is_err());
        // Dead slot is accepted.
        p.alloc_cell_at(SlotNo(1), b"fill").unwrap();
        assert_eq!(p.cell(1).unwrap(), b"fill");
    }

    #[test]
    fn compaction_reclaims_fragments() {
        let mut p = fresh();
        // Fill the page with 100-byte cells.
        let blob = [7u8; 100];
        let mut slots = Vec::new();
        while p.fits(blob.len()) {
            slots.push(p.alloc_cell(&blob).unwrap());
        }
        assert!(p.alloc_cell(&[0u8; 200]).is_err());
        // Free two non-adjacent cells: 200 bytes total, fragmented.
        p.free_cell(slots[0]).unwrap();
        p.free_cell(slots[2]).unwrap();
        // A 150-byte insert only fits after compaction, which make_room does
        // automatically.
        let s = p.alloc_cell(&[9u8; 150]).unwrap();
        assert_eq!(p.cell(s.0).unwrap(), &[9u8; 150][..]);
        // Untouched neighbours survive compaction.
        assert_eq!(p.cell(slots[1].0).unwrap(), &blob[..]);
    }

    #[test]
    fn replace_cell_grow_and_shrink() {
        let mut p = fresh();
        p.insert_cell_at(0, b"aaaa").unwrap();
        p.insert_cell_at(1, b"bbbb").unwrap();
        p.replace_cell_at(0, b"xx").unwrap(); // shrink in place
        assert_eq!(p.cell(0).unwrap(), b"xx");
        p.replace_cell_at(0, b"yyyyyyyy").unwrap(); // grow
        assert_eq!(p.cell(0).unwrap(), b"yyyyyyyy");
        assert_eq!(p.cell(1).unwrap(), b"bbbb");
    }

    #[test]
    fn replace_failure_restores_original() {
        let mut p = fresh();
        p.insert_cell_at(0, b"small").unwrap();
        let huge = vec![1u8; PAGE_SIZE];
        assert!(p.replace_cell_at(0, &huge).is_err());
        assert_eq!(p.cell(0).unwrap(), b"small");
    }

    #[test]
    fn too_large_cell_is_rejected_upfront() {
        let mut p = fresh();
        assert!(matches!(
            p.insert_cell_at(0, &vec![0u8; MAX_CELL_LEN + 1]),
            Err(Error::TooLarge { .. })
        ));
    }

    #[test]
    fn free_counters_are_consistent() {
        let mut p = fresh();
        let before = p.total_free();
        assert_eq!(before, p.contiguous_free());
        p.insert_cell_at(0, &[0u8; 64]).unwrap();
        assert_eq!(p.total_free(), before - 64 - SLOT_LEN);
        p.delete_cell_at(0).unwrap();
        assert_eq!(p.total_free(), before);
    }

    #[test]
    fn emptiness_tracks_live_cells_only() {
        let mut p = fresh();
        assert!(p.is_body_empty());
        let s = p.alloc_cell(b"x").unwrap();
        assert!(!p.is_body_empty());
        p.free_cell(s).unwrap();
        assert!(p.is_body_empty()); // dead slot remains but page is "empty"
        assert_eq!(p.slot_count(), 1);
    }

    #[test]
    fn fill_page_exactly_to_capacity() {
        let mut p = fresh();
        let free = p.total_free();
        // One cell consuming every available byte.
        let cell = vec![3u8; free - SLOT_LEN];
        p.insert_cell_at(0, &cell).unwrap();
        assert_eq!(p.total_free(), 0);
        assert!(!p.fits(1));
    }
}
