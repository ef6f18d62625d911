//! Span-based time attribution.
//!
//! A span is a scoped region of wall time tagged with a [`SpanKind`]
//! (lock wait, latch wait, WAL append, fsync, page I/O, standby apply, or
//! user work). Spans nest on a per-thread stack. A guard's drop is the one
//! place a timed interval is recorded: its **inclusive** elapsed time goes
//! into the kind's latency histogram, and its **self time** — elapsed time
//! minus the time spent inside child spans — into the kind's total in the
//! owning [`Obs`](crate::Obs)'s [`SpanTotals`]. Because self times never
//! double-count nested work, the sum of all span self times over a window
//! equals the wall time covered by the outermost spans: wrap every
//! foreground operation in a `UserWork` span and the per-kind totals become
//! a complete breakdown of where the time went.
//!
//! The hot path is lock-free: a thread-local `Vec` push/pop, two clock
//! reads and relaxed atomic adds. A disabled `Obs` hands out a disarmed
//! guard whose `Drop` is a single branch.
//!
//! Balance under panic is guaranteed by RAII: unwinding drops the guard,
//! which pops the stack frame it pushed. Spans from *different* `Obs`
//! domains may nest on one thread (e.g. a primary-domain `UserWork` span
//! around a standby-domain read); child-time subtraction still applies —
//! each guard records into its own domain, so a domain's totals only
//! include time its own spans claimed as self time.

use crate::hist::LatencyHistogram;
use crate::Obs;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// What a span attributes its time to. Discriminants index the arrays in
/// [`SpanTotals`] and [`SPAN_NAMES`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum SpanKind {
    /// Blocked in an unconditional lock wait.
    LockWait = 0,
    /// Blocked acquiring a page or tree latch.
    LatchWait = 1,
    /// Appending a record to the WAL (serialization + buffer copy, under
    /// the log mutex).
    WalAppend = 2,
    /// Forcing the WAL to durable storage (write + fsync).
    WalFsync = 3,
    /// Reading a page from disk into the buffer pool.
    PageRead = 4,
    /// Writing a dirty page from the buffer pool to disk.
    PageWrite = 5,
    /// Applying redo on a standby or during restart recovery.
    Apply = 6,
    /// Foreground work not otherwise attributed; wrap whole operations in
    /// this so the breakdown sums to wall time.
    UserWork = 7,
}

/// Number of span kinds; sizes the arrays in [`SpanTotals`].
pub const SPAN_KIND_COUNT: usize = 8;

/// Stable snake_case names, indexed by `SpanKind as usize`.
pub const SPAN_NAMES: [&str; SPAN_KIND_COUNT] = [
    "lock_wait",
    "latch_wait",
    "wal_append",
    "wal_fsync",
    "page_read",
    "page_write",
    "apply",
    "user_work",
];

/// Exact per-kind totals: self time, and a histogram of inclusive elapsed
/// times whose sample count is the kind's span count.
#[derive(Default)]
pub struct SpanTotals {
    self_ns: [AtomicU64; SPAN_KIND_COUNT],
    pub(crate) hist: [LatencyHistogram; SPAN_KIND_COUNT],
}

impl SpanTotals {
    fn add(&self, kind: SpanKind, elapsed_ns: u64, self_ns: u64) {
        self.self_ns[kind as usize].fetch_add(self_ns, Ordering::Relaxed);
        self.hist[kind as usize].record_ns(elapsed_ns);
    }

    /// Inclusive elapsed times of the closed spans of `kind`.
    pub fn hist(&self, kind: SpanKind) -> &LatencyHistogram {
        &self.hist[kind as usize]
    }

    pub fn snapshot(&self) -> SpanSnapshot {
        SpanSnapshot {
            self_ns: std::array::from_fn(|i| self.self_ns[i].load(Ordering::Relaxed)),
            count: std::array::from_fn(|i| self.hist[i].snapshot().count),
        }
    }

    pub fn reset(&self) {
        for i in 0..SPAN_KIND_COUNT {
            self.self_ns[i].store(0, Ordering::Relaxed);
            self.hist[i].reset();
        }
    }
}

/// Point-in-time copy of [`SpanTotals`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Self nanoseconds per kind, indexed by `SpanKind as usize`.
    pub self_ns: [u64; SPAN_KIND_COUNT],
    /// Completed spans per kind.
    pub count: [u64; SPAN_KIND_COUNT],
}

impl SpanSnapshot {
    /// Total self time across all kinds — the wall time covered by the
    /// outermost spans.
    pub fn total_ns(&self) -> u64 {
        self.self_ns.iter().sum()
    }

    pub fn is_empty(&self) -> bool {
        self.count.iter().all(|&c| c == 0)
    }
}

struct Frame {
    child_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// Current span-nesting depth on this thread. Exposed for balance tests.
#[doc(hidden)]
pub fn stack_depth() -> usize {
    STACK.with(|s| s.borrow().len())
}

/// RAII guard for one span; see [`Obs::span`](crate::Obs::span). Dropping
/// it (normally or during unwind) closes the span and records its time.
pub struct SpanGuard<'a> {
    armed: Option<(&'a Obs, Instant)>,
    kind: SpanKind,
}

pub(crate) fn begin(obs: &Obs, kind: SpanKind) -> SpanGuard<'_> {
    if !obs.on() {
        return SpanGuard { armed: None, kind };
    }
    STACK.with(|s| s.borrow_mut().push(Frame { child_ns: 0 }));
    SpanGuard {
        armed: Some((obs, Instant::now())),
        kind,
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some((obs, start)) = self.armed.take() else {
            return;
        };
        let elapsed = start.elapsed().as_nanos() as u64;
        let self_ns = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let child_ns = s.pop().map_or(0, |f| f.child_ns);
            if let Some(parent) = s.last_mut() {
                parent.child_ns = parent.child_ns.saturating_add(elapsed);
            }
            elapsed.saturating_sub(child_ns)
        });
        obs.spans.add(self.kind, elapsed, self_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;
    use std::time::Duration;

    #[test]
    fn disabled_guard_is_inert() {
        let obs = Obs::disabled();
        {
            let _g = obs.span(SpanKind::UserWork, 1, 0);
            assert_eq!(stack_depth(), 0);
        }
        assert!(obs.spans.snapshot().is_empty());
    }

    #[test]
    fn nested_spans_subtract_child_time() {
        let obs = Obs::enabled(64);
        let t0 = Instant::now();
        {
            let _outer = obs.span(SpanKind::UserWork, 1, 0);
            std::thread::sleep(Duration::from_millis(4));
            {
                let _inner = obs.span(SpanKind::WalFsync, 1, 0);
                std::thread::sleep(Duration::from_millis(8));
            }
        }
        let wall = t0.elapsed().as_nanos() as u64;
        let s = obs.spans.snapshot();
        let user = s.self_ns[SpanKind::UserWork as usize];
        let fsync = s.self_ns[SpanKind::WalFsync as usize];
        assert_eq!(s.count[SpanKind::UserWork as usize], 1);
        assert_eq!(s.count[SpanKind::WalFsync as usize], 1);
        assert!(fsync >= 8_000_000, "inner self time too small: {fsync}");
        assert!(user >= 4_000_000, "outer self time too small: {user}");
        // Outer self time excludes the inner span entirely: the two self
        // times together fit in the wall time around the outer span, however
        // long either sleep overran.
        assert!(
            user + fsync <= wall,
            "outer ({user}) + inner ({fsync}) self time exceeds the wall time ({wall})"
        );
        assert_eq!(s.total_ns(), user + fsync);
    }

    #[test]
    fn histogram_takes_inclusive_time_totals_take_self_time() {
        let obs = Obs::enabled(64);
        {
            let _outer = obs.span(SpanKind::UserWork, 1, 0);
            std::thread::sleep(Duration::from_millis(2));
            let _inner = obs.span(SpanKind::PageRead, 1, 7);
            std::thread::sleep(Duration::from_millis(6));
        }
        let s = obs.spans.snapshot();
        let user = obs.spans.hist(SpanKind::UserWork).snapshot();
        let read = obs.spans.hist(SpanKind::PageRead).snapshot();
        assert_eq!((user.count, read.count), (1, 1));
        // A childless span's self time is its elapsed time.
        assert_eq!(read.sum_ns, s.self_ns[SpanKind::PageRead as usize]);
        // The outer span's histogram holds the child's time too; its total
        // does not.
        assert!(user.sum_ns >= 8_000_000, "inclusive time too small: {}", user.sum_ns);
        assert_eq!(user.sum_ns - read.sum_ns, s.self_ns[SpanKind::UserWork as usize]);
    }

    #[test]
    fn stack_balances_across_panic_unwind() {
        let obs = Obs::enabled(64);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _outer = obs.span(SpanKind::UserWork, 1, 0);
            let _inner = obs.span(SpanKind::LockWait, 1, 0);
            panic!("boom");
        }));
        assert!(result.is_err());
        assert_eq!(stack_depth(), 0, "unwind must pop every frame");
        let s = obs.spans.snapshot();
        assert_eq!(s.count[SpanKind::UserWork as usize], 1);
        assert_eq!(s.count[SpanKind::LockWait as usize], 1);
        // A fresh span on the same thread still nests correctly.
        {
            let _g = obs.span(SpanKind::Apply, 2, 0);
            assert_eq!(stack_depth(), 1);
        }
        assert_eq!(stack_depth(), 0);
    }

    #[test]
    fn spans_on_many_threads_accumulate() {
        let obs = Obs::enabled(1024);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let obs = &obs;
                s.spawn(move || {
                    for _ in 0..50 {
                        let _g = obs.span(SpanKind::UserWork, t, 0);
                    }
                });
            }
        });
        assert_eq!(obs.spans.snapshot().count[SpanKind::UserWork as usize], 200);
    }
}
