//! Live latch-protocol invariant monitors.
//!
//! ARIES/IM's concurrency claims rest on three checkable invariants:
//!
//! 1. **Latch depth ≤ 2** — traversal uses latch coupling, so a thread
//!    never holds more than two page latches at once (parent + child;
//!    §3 of the paper).
//! 2. **No unconditional lock wait while holding a page latch** — waiting
//!    for a lock while latched would allow undetectable latch/lock
//!    deadlocks; §2.2 requires conditional requests (and latch release on
//!    denial) instead.
//! 3. **Page-oriented redo** — restart redo never re-traverses the tree;
//!    `redo_traversals` must be exactly 0 after recovery (§10).
//!
//! The monitor tracks page-latch depth in a thread-local (latches are
//! thread-owned, never transferred), keeps violation counters that tests
//! and the `--obs` report read, and can optionally panic at the violation
//! site (`enforce`) so a debug run points straight at the bad code path.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

thread_local! {
    /// (held now, high-water mark since the last [`take_latch_high_water`])
    /// page latches on this thread. Crate-global (not per-`Obs`) because a
    /// thread has one physical latch stack no matter how many observability
    /// handles exist.
    static PAGE_LATCHES: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Page latches currently held by the calling thread.
pub fn current_latch_depth() -> u64 {
    PAGE_LATCHES.with(|d| d.get().0)
}

/// Reset the calling thread's latch high-water mark and return the previous
/// value — the per-operation gauge behind the paper's "not more than 2 index
/// pages are held latched simultaneously" claim (`tests/latch_budget.rs`).
pub fn take_latch_high_water() -> u64 {
    PAGE_LATCHES.with(|d| {
        let (held, high) = d.get();
        d.set((held, 0));
        high
    })
}

/// Maximum page latches a traversal may hold (parent + child).
pub const MAX_PAGE_LATCHES: u64 = 2;

/// Always-on invariant monitor; one per [`crate::Obs`].
#[derive(Default)]
pub struct Monitor {
    /// Highest page-latch depth any thread reached.
    max_latch_depth: AtomicU64,
    /// Times a thread exceeded [`MAX_PAGE_LATCHES`].
    latch_depth_violations: AtomicU64,
    /// Times a thread blocked unconditionally on a lock while latched.
    lock_wait_with_latch_violations: AtomicU64,
    /// Times a latch release was observed with no latch held (bookkeeping
    /// bug in the instrumented code, not a protocol violation per se).
    latch_underflows: AtomicU64,
    /// Tree traversals observed during restart redo (must stay 0).
    redo_traversal_violations: AtomicU64,
    /// Panic at the violation site instead of only counting.
    enforce: AtomicBool,
}

impl Monitor {
    /// Enable or disable panic-on-violation (debug runs and tests).
    pub fn set_enforce(&self, on: bool) {
        self.enforce.store(on, Ordering::Relaxed);
    }

    fn enforcing(&self) -> bool {
        self.enforce.load(Ordering::Relaxed)
    }

    /// A page latch was granted to the calling thread.
    pub fn on_page_latch_acquired(&self, page: u32) {
        let depth = PAGE_LATCHES.with(|d| {
            let (held, high) = d.get();
            d.set((held + 1, high.max(held + 1)));
            held + 1
        });
        // The depth is 1 or 2 essentially always: a plain load keeps the
        // per-grant cost off this process-global line unless the maximum rises.
        if depth > self.max_latch_depth.load(Ordering::Relaxed) {
            self.max_latch_depth.fetch_max(depth, Ordering::Relaxed);
        }
        if depth > MAX_PAGE_LATCHES {
            self.latch_depth_violations.fetch_add(1, Ordering::Relaxed);
            if self.enforcing() {
                panic!(
                    "latch-protocol violation: thread holds {depth} page latches \
                     (> {MAX_PAGE_LATCHES}) after latching page {page}"
                );
            }
        }
    }

    /// A page latch held by the calling thread was released.
    pub fn on_page_latch_released(&self, page: u32) {
        let underflow = PAGE_LATCHES.with(|d| {
            let (held, high) = d.get();
            if held == 0 {
                true
            } else {
                d.set((held - 1, high));
                false
            }
        });
        if underflow {
            self.latch_underflows.fetch_add(1, Ordering::Relaxed);
            if self.enforcing() {
                panic!("latch bookkeeping underflow releasing page {page}");
            }
        }
    }

    /// The calling thread is about to block (unconditionally) on a lock.
    /// Legal only with zero page latches held (§2.2).
    pub fn on_unconditional_lock_wait(&self) {
        let depth = current_latch_depth();
        if depth > 0 {
            self.lock_wait_with_latch_violations
                .fetch_add(1, Ordering::Relaxed);
            if self.enforcing() {
                panic!(
                    "latch-protocol violation: unconditional lock wait while \
                     holding {depth} page latch(es)"
                );
            }
        }
    }

    /// Restart finished; `redo_traversals` is the counter value after the
    /// redo pass. ARIES/IM redo is page-oriented, so it must be 0.
    pub fn on_restart_complete(&self, redo_traversals: u64) {
        if redo_traversals != 0 {
            self.redo_traversal_violations
                .fetch_add(redo_traversals, Ordering::Relaxed);
            if self.enforcing() {
                panic!(
                    "page-oriented-redo violation: restart redo performed \
                     {redo_traversals} tree traversal(s)"
                );
            }
        }
    }

    pub fn snapshot(&self) -> MonitorSnapshot {
        MonitorSnapshot {
            max_latch_depth: self.max_latch_depth.load(Ordering::Relaxed),
            latch_depth_violations: self.latch_depth_violations.load(Ordering::Relaxed),
            lock_wait_with_latch_violations: self
                .lock_wait_with_latch_violations
                .load(Ordering::Relaxed),
            latch_underflows: self.latch_underflows.load(Ordering::Relaxed),
            redo_traversal_violations: self.redo_traversal_violations.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of the monitor's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MonitorSnapshot {
    pub max_latch_depth: u64,
    pub latch_depth_violations: u64,
    pub lock_wait_with_latch_violations: u64,
    pub latch_underflows: u64,
    pub redo_traversal_violations: u64,
}

impl MonitorSnapshot {
    /// True when no invariant was ever violated.
    pub fn clean(&self) -> bool {
        self.latch_depth_violations == 0
            && self.lock_wait_with_latch_violations == 0
            && self.latch_underflows == 0
            && self.redo_traversal_violations == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unwind any latch depth this test thread accumulated so tests stay
    /// independent (TLS is per-thread, and the test harness reuses threads).
    fn drain_depth(m: &Monitor) {
        while current_latch_depth() > 0 {
            m.on_page_latch_released(0);
        }
    }

    #[test]
    fn depth_tracking_and_max() {
        let m = Monitor::default();
        drain_depth(&m);
        let base = m.snapshot();
        m.on_page_latch_acquired(1);
        m.on_page_latch_acquired(2);
        assert_eq!(current_latch_depth(), 2);
        m.on_page_latch_released(2);
        m.on_page_latch_acquired(3);
        m.on_page_latch_released(3);
        m.on_page_latch_released(1);
        let s = m.snapshot();
        assert_eq!(s.max_latch_depth, 2);
        assert_eq!(s.latch_depth_violations, base.latch_depth_violations);
        assert_eq!(current_latch_depth(), 0);
    }

    #[test]
    fn depth_violation_counted() {
        let m = Monitor::default();
        std::thread::scope(|s| {
            s.spawn(|| {
                m.on_page_latch_acquired(1);
                m.on_page_latch_acquired(2);
                m.on_page_latch_acquired(3); // one too many
            });
        });
        let s = m.snapshot();
        assert_eq!(s.max_latch_depth, 3);
        assert_eq!(s.latch_depth_violations, 1);
        assert!(!s.clean());
    }

    #[test]
    fn lock_wait_with_latch_counted() {
        let m = Monitor::default();
        std::thread::scope(|s| {
            s.spawn(|| {
                m.on_unconditional_lock_wait(); // depth 0: fine
                m.on_page_latch_acquired(7);
                m.on_unconditional_lock_wait(); // depth 1: violation
                m.on_page_latch_released(7);
            });
        });
        assert_eq!(m.snapshot().lock_wait_with_latch_violations, 1);
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
    #[should_panic(expected = "latch-protocol violation")]
    fn enforce_mode_panics() {
        let m = Monitor::default();
        m.set_enforce(true);
        // Run on a dedicated thread so TLS starts at zero, then re-panic.
        let err = std::thread::spawn(move || {
            m.on_page_latch_acquired(1);
            m.on_unconditional_lock_wait();
        })
        .join()
        .unwrap_err();
        std::panic::resume_unwind(err);
    }
}
