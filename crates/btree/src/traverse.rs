//! Tree traversal — the paper's Figure 4.
//!
//! Latch-coupled descent: the parent's latch is held while the child's is
//! requested, so at most two page latches are ever held and the page being
//! entered can neither be freed nor restructured under the traverser (an SMO
//! needs the X latch of every page it touches, and never holds a lower-level
//! latch while requesting an upper-level one — §4's deadlock-freedom
//! argument).
//!
//! The **ambiguity test**: descending to the *rightmost* child of a nonleaf
//! whose SM_Bit is '1' cannot be trusted — an in-progress split may not yet
//! have posted the separator that would route the key elsewhere. In that
//! case (or when the nonleaf is empty, or a latched page turns out not to be
//! the expected index page at all) the traverser releases everything,
//! acquires the tree latch for **instant** duration in S mode — i.e. waits
//! for the in-flight SMO to complete — and restarts from the root. A caller
//! that already holds the tree latch says so (`tree_latched`): its latch
//! excludes SMOs for the whole descent, and taking it a second time would
//! be a wait on a latch of equal rank — a deadlock with an SMO's X request
//! queued between the two. Restarting
//! from the root is a conservative instance of Figure 4's "unwind recursion
//! as far as necessary" (see DESIGN.md §4); the restarts are counted in
//! `traversal_restarts`.

use crate::node::{node_highest_high_key, node_search};
use crate::BTree;
use ariesim_common::key::SearchKey;
use ariesim_common::page::PageType;
use ariesim_common::stats::Bump;
use ariesim_common::{Error, Lsn, PageBuf, PageId, Result};
use ariesim_obs::monitor::{Class, Held};
use ariesim_obs::SpanKind;
use ariesim_storage::{PageReadGuard, PageWriteGuard};

/// S-mode tree-latch guard, carrying its latch-monitor report.
#[allow(dead_code)]
pub struct TreeSGuard<'a>(parking_lot::RwLockReadGuard<'a, ()>, Held);

/// X-mode tree-latch guard, carrying its latch-monitor report.
#[allow(dead_code)]
pub struct TreeXGuard<'a>(parking_lot::RwLockWriteGuard<'a, ()>, Held);

/// The latched leaf a traversal ends at: S for fetches, X for modifications
/// (Figure 4's final step).
pub enum LeafGuard<'p> {
    S(PageReadGuard<'p>),
    X(PageWriteGuard<'p>),
}

impl<'p> LeafGuard<'p> {
    pub fn page(&self) -> &PageBuf {
        match self {
            LeafGuard::S(g) => g,
            LeafGuard::X(g) => g,
        }
    }

    pub fn page_id(&self) -> PageId {
        self.page().page_id()
    }

    pub fn lsn(&self) -> Lsn {
        self.page().page_lsn()
    }

    pub fn as_x(&mut self) -> Result<&mut PageWriteGuard<'p>> {
        match self {
            LeafGuard::X(g) => Ok(g),
            LeafGuard::S(_) => Err(Error::Internal(
                "leaf latched S where X is required".into(),
            )),
        }
    }
}

/// Is this page a live page of `tree` at `level`? A mismatch means the
/// traverser raced an SMO (e.g. latched a page just freed by a page
/// deletion) and must restart.
fn valid_page(page: &PageBuf, tree: &BTree, level: u16) -> bool {
    let ty = match page.page_type() {
        Ok(t) => t,
        Err(_) => return false,
    };
    let want = if level == 0 {
        PageType::IndexLeaf
    } else {
        PageType::IndexNonLeaf
    };
    ty == want && page.owner() == tree.index_id.0 && page.level() == level
}

impl BTree {
    // --- tree latch helpers (§2.1) --------------------------------------

    /// Instant-duration S tree latch: wait for any in-progress SMO to finish
    /// (establishes a POSC), then release immediately.
    ///
    /// A queued SMO stops new S acquirers, as a queued writer does on a
    /// page latch: `read` waits behind it and `try_read` fails. That cannot
    /// deadlock: no thread acquires the latch while holding it (the monitor
    /// counts that rank-equal wait as an order violation).
    pub(crate) fn tree_instant_s(&self) {
        self.stats.latches_tree.bump();
        self.stats.latches_tree_instant.bump();
        let _held = self.obs.monitor.acquired(Class::TreeLatch, "btree::tree_instant_s", true);
        if let Some(g) = self.tree_latch.try_read() {
            drop(g);
            return;
        }
        self.stats.latch_tree_waits.bump();
        let _span = self.obs.span(SpanKind::LatchWait, 0, 0);
        drop(self.tree_latch.read());
    }

    /// Conditional S tree latch (used by boundary-key deletes, Figure 7).
    pub(crate) fn try_tree_s(&self) -> Option<TreeSGuard<'_>> {
        let g = self.tree_latch.try_read()?;
        self.stats.latches_tree.bump();
        Some(TreeSGuard(g, self.obs.monitor.acquired(Class::TreeLatch, "btree::try_tree_s", false)))
    }

    /// Unconditional S tree latch.
    pub(crate) fn tree_s(&self) -> TreeSGuard<'_> {
        self.stats.latches_tree.bump();
        let held = self.obs.monitor.acquired(Class::TreeLatch, "btree::tree_s", true);
        if let Some(g) = self.tree_latch.try_read() {
            return TreeSGuard(g, held);
        }
        self.stats.latch_tree_waits.bump();
        let span = self.obs.span(SpanKind::LatchWait, 0, 0);
        let g = self.tree_latch.read();
        drop(span);
        TreeSGuard(g, held)
    }

    /// X tree latch: serializes SMOs on this index.
    pub(crate) fn tree_x(&self) -> TreeXGuard<'_> {
        self.stats.latches_tree.bump();
        let held = self.obs.monitor.acquired(Class::TreeLatch, "btree::tree_x", true);
        if let Some(g) = self.tree_latch.try_write() {
            return TreeXGuard(g, held);
        }
        self.stats.latch_tree_waits.bump();
        let span = self.obs.span(SpanKind::LatchWait, 0, 0);
        let g = self.tree_latch.write();
        drop(span);
        TreeXGuard(g, held)
    }

    // --- Figure 4 ---------------------------------------------------------

    /// Traverse to the leaf that should hold `search`, latched S
    /// (`for_update == false`) or X (`for_update == true`). `tree_latched`:
    /// the caller holds the tree latch across this call, so no SMO is in
    /// progress and the tree latch must not be requested again.
    pub(crate) fn traverse(
        &self,
        search: &SearchKey<'_>,
        for_update: bool,
        tree_latched: bool,
    ) -> Result<LeafGuard<'_>> {
        'restart: loop {
            self.stats.tree_traversals.bump();
            // Latch the root; upgrade to X if it is itself the leaf we must
            // modify. (The root's identity is fixed, but its *level* can
            // change under an SMO, hence the re-checks.)
            let root_guard = self.pool.fix_s(self.root)?;
            let mut parent: PageReadGuard = if root_guard.level() == 0 {
                if !for_update {
                    return Ok(LeafGuard::S(root_guard));
                }
                drop(root_guard);
                let gx = self.pool.fix_x(self.root)?;
                if gx.level() == 0 {
                    return Ok(LeafGuard::X(gx));
                }
                gx.downgrade()
            } else {
                root_guard
            };

            // Descend through nonleaf pages with latch coupling.
            loop {
                let level = parent.level();
                debug_assert!(level > 0);
                let n = parent.slot_count();
                let routes_rightmost = if n == 0 {
                    true
                } else {
                    match node_highest_high_key(&parent)? {
                        // Only a rightmost cell: every key routes to it.
                        None => true,
                        Some(hk) => search.cmp_key(&hk) != std::cmp::Ordering::Less,
                    }
                };
                let ambiguous = n == 0 || (routes_rightmost && parent.sm_bit());
                if ambiguous {
                    // Figure 4: unfinished SMO — wait for it via the tree
                    // latch, then go down again. While holding the S tree
                    // latch (no SMO can be in progress) we also reset the
                    // now-stale SM_Bit — the paper's "the SM_Bit can be
                    // reset to '0' once the SMO which caused it to be set
                    // has been completed" — otherwise every later traversal
                    // to a rightmost child would restart forever.
                    let ambiguous_page = parent.page_id();
                    drop(parent);
                    self.stats.traversal_restarts.bump();
                    {
                        let _t = (!tree_latched).then(|| self.tree_s());
                        let mut g = self.pool.fix_x(ambiguous_page)?;
                        if g.sm_bit()
                            && g.owner() == self.index_id.0
                            && matches!(g.page_type(), Ok(PageType::IndexNonLeaf))
                        {
                            // Unlogged hint reset (see DESIGN.md §4): redo
                            // determinism is unaffected because no LSN moves.
                            g.set_sm_bit(false);
                            let lsn = g.page_lsn();
                            g.mark_dirty_raw(lsn);
                        }
                    }
                    continue 'restart;
                }
                let (_slot, child_id) = node_search(&parent, search)?;
                let child_level = level - 1;
                if child_level == 0 && for_update {
                    let child = self.pool.fix_x(child_id)?;
                    drop(parent);
                    if !valid_page(&child, self, 0) {
                        drop(child);
                        self.stats.traversal_restarts.bump();
                        if !tree_latched {
                            self.tree_instant_s();
                        }
                        continue 'restart;
                    }
                    return Ok(LeafGuard::X(child));
                }
                let child = self.pool.fix_s(child_id)?;
                drop(parent);
                if !valid_page(&child, self, child_level) {
                    drop(child);
                    self.stats.traversal_restarts.bump();
                    if !tree_latched {
                        self.tree_instant_s();
                    }
                    continue 'restart;
                }
                if child_level == 0 {
                    return Ok(LeafGuard::S(child));
                }
                parent = child;
            }
        }
    }
}
