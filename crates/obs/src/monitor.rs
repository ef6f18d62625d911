//! Live protocol invariant monitor — the engine's one dynamic checker.
//!
//! ARIES/IM's concurrency and recovery claims rest on five checkable
//! invariants:
//!
//! 1. **Latch depth ≤ 2** — traversal uses latch coupling, so a thread
//!    never holds more than two page latches at once (parent + child;
//!    §3 of the paper).
//! 2. **Latch order** — a thread blocks only on a class ranked above
//!    everything it holds (see [`Class::rank`], §4); page-latch coupling is
//!    the one rank-equal wait allowed. A trylock cannot wait, so it joins
//!    the held set unchecked.
//! 3. **No unconditional lock wait while latched** — waiting for a lock
//!    while holding a tree or page latch would allow undetectable
//!    latch/lock deadlocks; §2.2 requires conditional requests (and latch
//!    release on denial) instead.
//! 4. **Page-oriented redo** — restart redo never re-traverses the tree;
//!    `redo_traversals` must be exactly 0 after recovery (§10).
//! 5. **The WAL rule** — a dirty page reaches disk only after the log
//!    record at its page_LSN is durable (§1.2). The durable end is
//!    exclusive, so the rule is `page_lsn < durable` (checked by
//!    [`Monitor::on_write_back`] before every page write).
//!
//! What a thread holds is one thread-local word (latches and mutexes are
//! thread-owned, never transferred), updated where the latch word changes
//! hands: by [`Monitor::acquired`], and by dropping the [`Held`] token it
//! returns, which the latch's guard carries. Violations are counted;
//! [`MonitorSnapshot::clean`] is the verdict tests, the crash matrix and the
//! `--obs` report read.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// A synchronisation class the latch protocol orders.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Class {
    /// The index-wide SMO tree latch (`btree::traverse`).
    TreeLatch,
    /// A buffer-pool page latch (`storage::pool`).
    PageLatch,
    /// One of the buffer pool's partition mutexes. Shards share the class:
    /// a thread never holds two at once.
    PoolShard,
    /// One of the lock table's shard mutexes. Shards share the class: a
    /// thread holds two only in the wait path's sweep, which locks every
    /// shard in index order and reports as one acquisition.
    LockTable,
}

const CLASSES: [Class; 4] = [
    Class::TreeLatch,
    Class::PageLatch,
    Class::PoolShard,
    Class::LockTable,
];

impl Class {
    /// Acquisition rank — the paper's §4 order: the tree latch before any
    /// page latch, page latches before the pool's and lock manager's leaf
    /// mutexes, which are never held across each other.
    pub fn rank(self) -> u8 {
        match self {
            Class::TreeLatch => 1,
            Class::PageLatch => 2,
            Class::PoolShard | Class::LockTable => 3,
        }
    }

    /// One held instance in the packed record (a count byte per class).
    fn unit(self) -> u64 {
        1 << (8 * self as u32)
    }

    fn field(self) -> u64 {
        0xFF * self.unit()
    }

    /// The held classes a blocking acquisition of `self` must not wait
    /// under: every class of higher rank, and of equal rank except for
    /// page-latch coupling. Inlined so that for the constant class at each
    /// acquisition site the mask folds to a constant.
    #[inline]
    fn forbidden_under(self) -> u64 {
        CLASSES
            .iter()
            .filter(|h| {
                h.rank() > self.rank() || (h.rank() == self.rank() && self != Class::PageLatch)
            })
            .fold(0, |mask, h| mask | h.field())
    }
}

thread_local! {
    /// What the calling thread holds: a count byte per [`Class`], plus (at
    /// [`HIGH_WATER`]) its page-latch high-water mark since the last
    /// [`take_latch_high_water`]. Crate-global (not per-`Obs`) because a
    /// thread has one latch stack no matter how many observability handles
    /// exist.
    static HELD: Cell<u64> = const { Cell::new(0) };
}

const HIGH_WATER: u32 = 32;

fn count(held: u64, class: Class) -> u64 {
    (held & class.field()) / class.unit()
}

/// Page latches currently held by the calling thread.
pub fn current_latch_depth() -> u64 {
    count(HELD.get(), Class::PageLatch)
}

/// Reset the calling thread's latch high-water mark and return the previous
/// value — the per-operation gauge behind the paper's "not more than 2 index
/// pages are held latched simultaneously" claim (`tests/latch_budget.rs`).
pub fn take_latch_high_water() -> u64 {
    let held = HELD.get();
    HELD.set(held & !(0xFF << HIGH_WATER));
    held >> HIGH_WATER
}

/// One reported acquisition of a class, held by the guard of what was
/// acquired. Dropping it reports the release, so a panic unwinding past a
/// latch (a torture crash point) leaves the held record balanced. It cannot
/// leave its thread (`!Send`), so every drop decrements a count its own
/// creation incremented.
#[must_use = "dropping the token reports the release"]
pub struct Held(Class, PhantomData<*const ()>);

impl Drop for Held {
    #[inline]
    fn drop(&mut self) {
        HELD.set(HELD.get() - self.0.unit());
    }
}

/// Maximum page latches a traversal may hold (parent + child).
pub const MAX_PAGE_LATCHES: u64 = 2;

/// The first blocking acquisition that broke the latch order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OrderViolation {
    /// A class the thread held while requesting `acquired`.
    pub held: Class,
    pub acquired: Class,
    pub site: &'static str,
}

/// The first page write-back that broke the WAL rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalViolation {
    pub page: u32,
    pub page_lsn: u64,
    /// The log's exclusive durable end when the page was written.
    pub durable: u64,
}

/// Always-on invariant monitor; one per [`crate::Obs`].
#[derive(Default)]
pub struct Monitor {
    /// Highest page-latch depth any thread reached.
    max_latch_depth: AtomicU64,
    /// Times a thread exceeded [`MAX_PAGE_LATCHES`].
    latch_depth_violations: AtomicU64,
    /// Unconditional lock requests made while latched.
    lock_wait_with_latch_violations: AtomicU64,
    /// Blocking acquisitions against the rank order.
    latch_order_violations: AtomicU64,
    first_order_violation: OnceLock<OrderViolation>,
    /// Tree traversals observed during restart redo (must stay 0).
    redo_traversal_violations: AtomicU64,
    /// Page write-backs whose page_LSN the log did not yet cover.
    wal_rule_violations: AtomicU64,
    first_wal_violation: OnceLock<WalViolation>,
}

impl Monitor {
    /// The calling thread acquires one `class` at `site`; the release is
    /// reported when the returned token drops. A blocking acquisition
    /// reports *before* it can block, so its order check counts even a wait
    /// that never ends; a trylock reports once it has succeeded
    /// (`blocking == false`) and is not order-checked.
    #[inline]
    pub fn acquired(&self, class: Class, site: &'static str, blocking: bool) -> Held {
        let held = HELD.get();
        let conflict = held & class.forbidden_under();
        if blocking && conflict != 0 {
            self.order_violation(CLASSES[conflict.trailing_zeros() as usize / 8], class, site);
        }
        let mut now = held + class.unit();
        if class == Class::PageLatch {
            let depth = count(now, class);
            // The high-water byte is the record's top byte, so `max` of the
            // two records keeps the higher mark.
            now = now.max((depth << HIGH_WATER) | (now & !(0xFF << HIGH_WATER)));
            // The depth is 1 or 2 essentially always: a plain load keeps the
            // per-grant cost off this process-global line unless the maximum
            // rises.
            if depth > self.max_latch_depth.load(Ordering::Relaxed) {
                self.max_latch_depth.fetch_max(depth, Ordering::Relaxed);
            }
            if depth > MAX_PAGE_LATCHES {
                self.latch_depth_violations.fetch_add(1, Ordering::Relaxed);
            }
        }
        HELD.set(now);
        Held(class, PhantomData)
    }

    #[cold]
    fn order_violation(&self, held: Class, acquired: Class, site: &'static str) {
        self.latch_order_violations.fetch_add(1, Ordering::Relaxed);
        let _ = self.first_order_violation.set(OrderViolation {
            held,
            acquired,
            site,
        });
    }

    /// The calling thread makes an unconditional lock request, one that
    /// may block. Legal only with no tree or page latch held (§2.2), whether
    /// or not this request ends up waiting.
    pub fn on_unconditional_lock_request(&self) {
        if HELD.get() & (Class::TreeLatch.field() | Class::PageLatch.field()) != 0 {
            self.lock_wait_with_latch_violations
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Restart finished; `redo_traversals` is the counter value after the
    /// redo pass. ARIES/IM redo is page-oriented, so it must be 0.
    pub fn on_restart_complete(&self, redo_traversals: u64) {
        self.redo_traversal_violations
            .fetch_add(redo_traversals, Ordering::Relaxed);
    }

    /// `page` (page_LSN `page_lsn`) is about to be written to disk while the
    /// log is durable up to the exclusive end `durable`. The record at
    /// `page_lsn` must already be durable; a page never stamped (NULL,
    /// i.e. 0) needs no log.
    pub fn on_write_back(&self, page: u32, page_lsn: u64, durable: u64) {
        if page_lsn != 0 && page_lsn >= durable {
            self.wal_rule_violations.fetch_add(1, Ordering::Relaxed);
            let first = WalViolation {
                page,
                page_lsn,
                durable,
            };
            let _ = self.first_wal_violation.set(first);
        }
    }

    pub fn snapshot(&self) -> MonitorSnapshot {
        MonitorSnapshot {
            max_latch_depth: self.max_latch_depth.load(Ordering::Relaxed),
            latch_depth_violations: self.latch_depth_violations.load(Ordering::Relaxed),
            lock_wait_with_latch_violations: self
                .lock_wait_with_latch_violations
                .load(Ordering::Relaxed),
            latch_order_violations: self.latch_order_violations.load(Ordering::Relaxed),
            first_order_violation: self.first_order_violation.get().copied(),
            redo_traversal_violations: self.redo_traversal_violations.load(Ordering::Relaxed),
            wal_rule_violations: self.wal_rule_violations.load(Ordering::Relaxed),
            first_wal_violation: self.first_wal_violation.get().copied(),
        }
    }
}

/// Point-in-time copy of the monitor's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MonitorSnapshot {
    pub max_latch_depth: u64,
    pub latch_depth_violations: u64,
    pub lock_wait_with_latch_violations: u64,
    pub latch_order_violations: u64,
    pub first_order_violation: Option<OrderViolation>,
    pub redo_traversal_violations: u64,
    pub wal_rule_violations: u64,
    pub first_wal_violation: Option<WalViolation>,
}

impl MonitorSnapshot {
    /// True when no invariant was ever violated.
    pub fn clean(&self) -> bool {
        self.latch_depth_violations == 0
            && self.lock_wait_with_latch_violations == 0
            && self.latch_order_violations == 0
            && self.redo_traversal_violations == 0
            && self.wal_rule_violations == 0
    }
}

#[cfg(test)]
mod tests {
    use super::Class::*;
    use super::*;

    /// Run `body` on a fresh thread (empty held record) against a fresh
    /// monitor; the tokens it drops must leave nothing held.
    fn run(body: impl FnOnce(&Monitor) + Send) -> MonitorSnapshot {
        let m = Monitor::default();
        std::thread::scope(|s| {
            s.spawn(|| {
                body(&m);
                assert_eq!(
                    HELD.get() & !(0xFF << HIGH_WATER),
                    0,
                    "case left a class held"
                );
            });
        });
        m.snapshot()
    }

    #[test]
    fn legal_order_is_clean() {
        let s = run(|m| {
            m.on_unconditional_lock_request(); // nothing held: fine
            let tree = m.acquired(TreeLatch, "tree", true);
            let parent = m.acquired(PageLatch, "parent", true);
            let child = m.acquired(PageLatch, "child", true); // coupling
            assert_eq!(current_latch_depth(), 2);
            drop(m.acquired(LockTable, "table", true));
            drop(parent);
            let next = m.acquired(PageLatch, "next", true);
            drop((next, child, tree));
            assert_eq!(take_latch_high_water(), 2);
            assert_eq!(take_latch_high_water(), 0);
        });
        assert!(s.clean() && s.max_latch_depth == 2, "{s:?}");
    }

    #[test]
    fn page_latch_then_pool_shard_is_legal() {
        // Guards mark pages dirty (shard mutex) while X-latched, and
        // eviction relocks the shard under the frame latch.
        let s = run(|m| {
            let _page = m.acquired(PageLatch, "fix", true);
            let _shard = m.acquired(PoolShard, "mark_dirty", true);
        });
        assert!(s.clean(), "{s:?}");
    }

    #[test]
    fn lock_wait_under_a_page_latch_is_counted() {
        let s = run(|m| {
            let _page = m.acquired(PageLatch, "fix", true);
            m.on_unconditional_lock_request();
        });
        assert_eq!(s.lock_wait_with_latch_violations, 1, "{s:?}");
    }

    #[test]
    fn lock_wait_under_the_tree_latch_is_counted() {
        let s = run(|m| {
            let _tree = m.acquired(TreeLatch, "smo", true);
            m.on_unconditional_lock_request();
        });
        assert_eq!(s.lock_wait_with_latch_violations, 1, "{s:?}");
    }

    #[test]
    fn rank_inversion_is_counted_with_its_site() {
        let s = run(|m| {
            let _page = m.acquired(PageLatch, "fix", true);
            let _tree = m.acquired(TreeLatch, "tree_x", true);
            let _again = m.acquired(TreeLatch, "again", true); // counted, not first
        });
        assert_eq!(s.latch_order_violations, 2, "{s:?}");
        let first = OrderViolation {
            held: PageLatch,
            acquired: TreeLatch,
            site: "tree_x",
        };
        assert_eq!(s.first_order_violation, Some(first));
        assert!(!s.clean());
    }

    #[test]
    fn pool_shard_held_across_a_blocking_page_latch_is_counted() {
        // A shard holder stalled behind latch traffic would serialize its
        // whole partition.
        let s = run(|m| {
            let _shard = m.acquired(PoolShard, "claim", true);
            let _page = m.acquired(PageLatch, "fix", true);
        });
        assert_eq!(s.latch_order_violations, 1, "{s:?}");
        assert_eq!(s.first_order_violation.map(|v| v.held), Some(PoolShard));
    }

    #[test]
    fn shard_under_shard_is_counted() {
        // Only page-latch coupling may wait within its own rank.
        let s = run(|m| {
            let _a = m.acquired(PoolShard, "a", true);
            let _b = m.acquired(PoolShard, "b", true);
            let _c = m.acquired(LockTable, "c", true);
        });
        assert_eq!(s.latch_order_violations, 2, "{s:?}");
    }

    #[test]
    fn third_page_latch_is_a_depth_violation_not_an_order_one() {
        let s = run(|m| {
            let _held = ["a", "b", "c"].map(|site| m.acquired(PageLatch, site, true));
        });
        assert_eq!(
            (s.max_latch_depth, s.latch_depth_violations),
            (3, 1),
            "{s:?}"
        );
        assert_eq!(s.latch_order_violations, 0, "{s:?}");
    }

    #[test]
    fn trylock_is_exempt_from_the_order_check() {
        // A denied trylock is never reported; a granted one joins the held
        // set (and counts toward depth) without an order check.
        let s = run(|m| {
            let shard = m.acquired(PoolShard, "claim", true);
            let _load = m.acquired(PageLatch, "claim.load", false);
            drop(shard);
            let _tree = m.acquired(TreeLatch, "try_tree_s", false);
        });
        assert!(s.clean() && s.max_latch_depth == 1, "{s:?}");
    }

    #[test]
    fn redo_traversals_checked() {
        let m = Monitor::default();
        m.on_restart_complete(0);
        assert!(m.snapshot().clean());
        m.on_restart_complete(3);
        assert_eq!(m.snapshot().redo_traversal_violations, 3);
    }

    #[test]
    fn write_back_needs_the_page_lsn_record_durable() {
        let m = Monitor::default();
        m.on_write_back(1, 100, 101); // record at 100 lies below the end
        m.on_write_back(2, 0, 0); // never stamped: needs no log
        assert!(m.snapshot().clean(), "{:?}", m.snapshot());
        m.on_write_back(3, 100, 100); // the end is exclusive: one too early
        m.on_write_back(4, 200, 100); // counted, not first
        let s = m.snapshot();
        assert_eq!(s.wal_rule_violations, 2, "{s:?}");
        let first = s.first_wal_violation.map(|v| (v.page, v.page_lsn, v.durable));
        assert_eq!(first, Some((3, 100, 100)));
        assert!(!s.clean());
    }
}
