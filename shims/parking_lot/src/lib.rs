//! Std-only stand-in for the subset of `parking_lot` this workspace uses.
//!
//! The build environment has no access to a crates registry, so the real
//! `parking_lot` cannot be vendored; this crate re-implements the API surface
//! the workspace actually calls:
//!
//! * [`Mutex`] / [`MutexGuard`] — poison-ignoring, guard returned directly;
//! * [`Condvar`] with `wait` / `wait_for` taking `&mut MutexGuard`;
//! * [`RwLock`] — poison-ignoring, with conditional acquisition
//!   (`try_read` / `try_write`) and `RwLockWriteGuard::downgrade` as an
//!   associated fn;
//! * [`Parker`], the WAL group commit's one-token wakeup.
//!
//! **What the `RwLock` is.** Every page latch and the tree latch is one of
//! these. It holds a [`std::sync::RwLock`] and nothing else: on Linux that
//! is one futex word, an uncontended acquire or release is one atomic RMW,
//! and no system call is made when nobody waits — a latch's price. The
//! semantics the workspace depends on are std's:
//!
//! * a queued writer blocks new readers, `try_read` included (no writer
//!   starvation: the SMO tree-latch acquirer must not starve behind a
//!   stream of traversals). No thread takes a latch it already holds, so
//!   there is no recursive read to exempt;
//! * `downgrade` is atomic: no writer can sneak in between the write and
//!   read phases;
//! * `try_*` never blocks.
//!
//! Every acquire and release also reports to the model checker's
//! schedule-point hooks (see [`sched`]): acquires before the std call,
//! releases after the std unlock. On ordinary threads that is a single
//! thread-local flag read. The controller grants an acquire only when its
//! ownership model says it cannot block, so under the model the std lock is
//! never contended.

use std::sync::{PoisonError, TryLockError};
use std::time::Duration;

pub mod sched;

use sched::OpKind;

/// Address of a lock, used as its identity at schedule points. Fat pointers
/// (unsized `T`) lose their metadata in the cast, which is exactly right:
/// identity is the allocation, not the view.
fn obj_id<T: ?Sized>(p: *const T) -> sched::ObjId {
    p as *const () as usize
}

/// The outcome of a std `try_*`: a poisoned lock is still acquired.
fn granted<G>(r: std::sync::TryLockResult<G>) -> Option<G> {
    match r {
        Ok(g) => Some(g),
        Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

// --- Mutex -----------------------------------------------------------------

/// Poison-ignoring wrapper over [`std::sync::Mutex`].
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let obj = obj_id(self);
        sched::acquire_point(OpKind::MutexLock, obj);
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())),
            obj,
        }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let obj = obj_id(self);
        if !sched::acquire_point(OpKind::MutexTryLock, obj) {
            return None;
        }
        Some(MutexGuard {
            inner: Some(granted(self.inner.try_lock())?),
            obj,
        })
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

/// Guard for [`Mutex`]. The inner `Option` exists so [`Condvar::wait_for`]
/// can temporarily take the std guard by value.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
    /// Lock identity for the release schedule point.
    obj: sched::ObjId,
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Real unlock first (dropping the std guard), then notify: the
        // controller must never grant a waiter before the lock is free.
        self.inner.take();
        sched::release_point(OpKind::MutexUnlock, self.obj);
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

// --- Condvar ---------------------------------------------------------------

/// Result of [`Condvar::wait_for`].
#[derive(Clone, Copy, Debug)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// Wrapper over [`std::sync::Condvar`] with the parking_lot calling
/// convention (`&mut MutexGuard` instead of guard-by-value).
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    pub const fn new() -> Condvar {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        // The model checker intercepts locks and atomics but not condvars
        // (nothing it models uses one); a wait would park the virtual
        // thread outside the controller's view and hang the schedule.
        assert!(
            !sched::thread_armed(),
            "Condvar::wait is not supported under the model checker"
        );
        let g = guard.inner.take().expect("guard present");
        let g = self.inner.wait(g).unwrap_or_else(|e| e.into_inner());
        guard.inner = Some(g);
    }

    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        assert!(
            !sched::thread_armed(),
            "Condvar::wait_for is not supported under the model checker"
        );
        let g = guard.inner.take().expect("guard present");
        let (g, res) = match self.inner.wait_timeout(g, timeout) {
            Ok((g, res)) => (g, res),
            Err(e) => {
                let (g, res) = e.into_inner();
                (g, res)
            }
        };
        guard.inner = Some(g);
        WaitTimeoutResult {
            timed_out: res.timed_out(),
        }
    }

    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

// --- Parker ----------------------------------------------------------------

/// Futex-style one-token parker, the blocking primitive of the WAL group
/// commit barrier: committers park until a group leader unparks them, and
/// an `unpark` that races ahead of the `park` is never lost (the token
/// stays set).
///
/// Under the model checker, `park`/`park_timeout` never block: they consume
/// the token if present and otherwise return **spuriously** after a
/// schedule point — a blocked virtual thread outside the controller's view
/// would hang the schedule. Every caller must therefore loop on its actual
/// predicate (durable LSN reached, queue non-empty, …), treating the parker
/// purely as a wakeup hint. That is also the correct discipline against
/// real spurious wakeups.
#[derive(Default)]
pub struct Parker {
    /// 1 = a wakeup is pending; `park` consumes it with a swap.
    token: std::sync::atomic::AtomicU32,
    mu: std::sync::Mutex<()>,
    cv: std::sync::Condvar,
}

impl Parker {
    pub const fn new() -> Parker {
        Parker {
            token: std::sync::atomic::AtomicU32::new(0),
            mu: std::sync::Mutex::new(()),
            cv: std::sync::Condvar::new(),
        }
    }

    /// Consume a pending token, or block until one arrives (may also return
    /// spuriously; callers loop on their predicate).
    pub fn park(&self) {
        self.park_inner(None);
    }

    /// [`Parker::park`] with an upper bound on the blocking time.
    pub fn park_timeout(&self, timeout: Duration) {
        self.park_inner(Some(timeout));
    }

    fn park_inner(&self, timeout: Option<Duration>) {
        // This crate sits *below* the msync facade (ariesim_common depends
        // on us), so the schedule point is reported directly: the token RMW
        // is a real interleaving choice the model controller must own.
        sched::acquire_point(OpKind::AtomicRmw, obj_id(self));
        // ordering: Acquire pairs with the Release store in `unpark`, so
        // state written before the unpark is visible after a consumed park.
        if self.token.swap(0, std::sync::atomic::Ordering::Acquire) == 1 {
            return;
        }
        if sched::thread_armed() {
            // Under the model a park is a spurious return: blocking here
            // would park the virtual thread outside the controller's view.
            return;
        }
        let mut g = self.mu.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            // ordering: Acquire — as above; re-checked under the mutex so a
            // wakeup between the first check and the wait is not missed.
            if self.token.swap(0, std::sync::atomic::Ordering::Acquire) == 1 {
                return;
            }
            match timeout {
                None => {
                    g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
                }
                Some(t) => {
                    let (g2, res) = match self.cv.wait_timeout(g, t) {
                        Ok(p) => p,
                        Err(e) => e.into_inner(),
                    };
                    g = g2;
                    if res.timed_out() {
                        return;
                    }
                }
            }
        }
    }

    /// Make the next (or current) `park` return. Never lost: if no thread
    /// is parked, the token satisfies the next park.
    pub fn unpark(&self) {
        sched::acquire_point(OpKind::AtomicStore, obj_id(self));
        // ordering: Release publishes the waker's writes to the Acquire
        // swap in `park`.
        self.token.store(1, std::sync::atomic::Ordering::Release);
        // Briefly take the mutex so a parker between its token re-check and
        // its wait cannot miss the notification (classic missed-wakeup
        // fence), then notify.
        drop(self.mu.lock().unwrap_or_else(|e| e.into_inner()));
        self.cv.notify_all();
    }
}

// --- RwLock ----------------------------------------------------------------

/// Poison-ignoring wrapper over [`std::sync::RwLock`] that reports every
/// acquire and release to the model checker's schedule points.
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    pub const fn new(value: T) -> RwLock<T> {
        RwLock {
            inner: std::sync::RwLock::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        sched::acquire_point(OpKind::RwShared, obj_id(self));
        RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
            _release: Release(OpKind::RwUnlockShared, obj_id(self)),
        }
    }

    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        if !sched::acquire_point(OpKind::RwTryShared, obj_id(self)) {
            return None;
        }
        Some(RwLockReadGuard {
            inner: granted(self.inner.try_read())?,
            _release: Release(OpKind::RwUnlockShared, obj_id(self)),
        })
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        sched::acquire_point(OpKind::RwExclusive, obj_id(self));
        RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
            release: Release(OpKind::RwUnlockExclusive, obj_id(self)),
        }
    }

    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        if !sched::acquire_point(OpKind::RwTryExclusive, obj_id(self)) {
            return None;
        }
        Some(RwLockWriteGuard {
            inner: granted(self.inner.try_write())?,
            release: Release(OpKind::RwUnlockExclusive, obj_id(self)),
        })
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

/// The release schedule point a guard owes. A guard declares it after the
/// std guard, so it drops second: the real unlock comes first and the
/// controller never grants a waiter before the lock is free.
struct Release(OpKind, sched::ObjId);

impl Drop for Release {
    fn drop(&mut self) {
        sched::release_point(self.0, self.1);
    }
}

/// Shared guard.
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
    _release: Release,
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

/// Exclusive guard.
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
    release: Release,
}

impl<'a, T: ?Sized> RwLockWriteGuard<'a, T> {
    /// Atomically convert to a shared guard (no writer can intervene).
    pub fn downgrade(this: Self) -> RwLockReadGuard<'a, T> {
        let RwLockWriteGuard { inner, mut release } = this;
        let inner = std::sync::RwLockWriteGuard::downgrade(inner);
        // The exclusive hold's release point reports the downgrade; the
        // shared hold owes its own.
        let shared = Release(OpKind::RwUnlockShared, release.1);
        release.0 = OpKind::RwDowngrade;
        drop(release);
        RwLockReadGuard {
            inner,
            _release: shared,
        }
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn parker_token_prevents_lost_wakeup() {
        let p = Parker::new();
        p.unpark(); // unpark before park: token must satisfy the next park
        let start = std::time::Instant::now();
        p.park();
        assert!(start.elapsed() < Duration::from_secs(1));
        // Token consumed: a timed park now waits out the timeout.
        let start = std::time::Instant::now();
        p.park_timeout(Duration::from_millis(20));
        assert!(start.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn parker_wakes_blocked_thread() {
        let p = Arc::new(Parker::new());
        let flag = Arc::new(AtomicUsize::new(0));
        let h = {
            let p = p.clone();
            let flag = flag.clone();
            std::thread::spawn(move || {
                while flag.load(Ordering::Acquire) == 0 {
                    p.park();
                }
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        flag.store(1, Ordering::Release);
        p.unpark();
        h.join().unwrap();
    }

    #[test]
    fn mutex_and_condvar_wait_for() {
        let m = Mutex::new(0u32);
        let cv = Condvar::new();
        let mut g = m.lock();
        let res = cv.wait_for(&mut g, Duration::from_millis(10));
        assert!(res.timed_out());
        *g += 1;
        drop(g);
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn rwlock_shared_then_exclusive() {
        let l = RwLock::new(5u32);
        {
            let a = l.read();
            let b = l.try_read().expect("readers share");
            assert_eq!((*a, *b), (5, 5));
            assert!(l.try_write().is_none());
        }
        *l.write() = 6;
        assert_eq!(*l.read(), 6);
        assert!(l.try_write().is_some());
    }

    /// Writer preference, which keeps an SMO's X tree-latch request from
    /// starving behind a stream of traversals: once a writer queues, a
    /// conditional read fails and an unconditional one waits behind it.
    #[test]
    fn queued_writer_fails_try_read_and_blocks_new_reads() {
        let l = RwLock::new(0u32);
        let held = l.read();
        let read_done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| *l.write() += 1);
            let deadline = std::time::Instant::now() + Duration::from_secs(20);
            while l.try_read().is_some() {
                assert!(std::time::Instant::now() < deadline, "writer never queued");
                std::thread::yield_now();
            }
            s.spawn(|| {
                let v = *l.read();
                read_done.store(true, Ordering::Release);
                v
            });
            std::thread::sleep(Duration::from_millis(50));
            assert!(
                !read_done.load(Ordering::Acquire),
                "a new read got past the queued writer"
            );
            assert_eq!(*held, 0);
            drop(held);
        });
        assert!(read_done.load(Ordering::Acquire));
        assert_eq!(l.into_inner(), 1);
    }

    #[test]
    fn write_guard_downgrade_blocks_writers() {
        let l = RwLock::new(1u32);
        let mut w = l.write();
        *w = 2;
        let r = RwLockWriteGuard::downgrade(w);
        assert_eq!(*r, 2);
        assert!(l.try_write().is_none());
        let r2 = l.try_read().expect("second reader joins");
        assert_eq!(*r2, 2);
        drop(r);
        assert!(l.try_write().is_none(), "one reader still holds it");
        drop(r2);
        assert!(l.try_write().is_some());
    }

    /// Every entry point on one lock guarding a counter pair: a broken
    /// exclusion shows as a torn pair or a short count.
    #[test]
    fn concurrent_readers_and_writers_consistent() {
        const ROUNDS: u64 = 2_000;
        let l = RwLock::new((0u64, 0u64));
        let writes = AtomicUsize::new(0);
        let check = |pair: &(u64, u64)| assert_eq!(pair.0, pair.1, "torn pair");
        let bump = |pair: &mut (u64, u64)| {
            pair.0 += 1;
            std::hint::spin_loop();
            pair.1 += 1;
            writes.fetch_add(1, Ordering::Relaxed);
        };
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..ROUNDS {
                        bump(&mut l.write());
                        if let Some(mut g) = l.try_write() {
                            bump(&mut g);
                        }
                        let mut w = l.write();
                        bump(&mut w);
                        check(&RwLockWriteGuard::downgrade(w));
                    }
                });
            }
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..ROUNDS {
                        check(&l.read());
                        if let Some(g) = l.try_read() {
                            check(&g);
                        }
                    }
                });
            }
        });
        let n = writes.load(Ordering::Relaxed) as u64;
        assert!(n >= 4 * ROUNDS);
        assert_eq!(l.into_inner(), (n, n));
    }
}
