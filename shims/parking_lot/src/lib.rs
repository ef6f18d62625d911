//! Std-only stand-in for the subset of `parking_lot` this workspace uses.
//!
//! The build environment has no access to a crates registry, so the real
//! `parking_lot` cannot be vendored; this crate re-implements the API surface
//! the workspace actually calls, on top of `std::sync` primitives:
//!
//! * [`Mutex`] / [`MutexGuard`] — poison-ignoring, guard returned directly;
//! * [`Condvar`] with `wait` / `wait_for` taking `&mut MutexGuard`;
//! * [`RwLock`] with recursive reads (`read_recursive`), conditional
//!   acquisition (`try_read` / `try_write` / `try_read_recursive`), owned
//!   `Arc` guards (`read_arc` / `write_arc` and `try_` variants) and
//!   write-to-read downgrade — none of which `std::sync::RwLock` offers,
//!   hence the hand-rolled state machine.
//!
//! Semantics the workspace depends on and this shim preserves:
//!
//! * a blocked writer blocks **new non-recursive readers** (no writer
//!   starvation: the SMO tree-latch acquirer must not starve behind a
//!   stream of traversals);
//! * `read_recursive` ignores queued writers, so a thread already holding
//!   the lock shared can re-enter without self-deadlock;
//! * `downgrade` is atomic: no writer can sneak in between the write and
//!   read phases.
//!
//! Additionally, every acquire/release path reports to the model checker's
//! schedule-point hooks (see [`sched`]); on ordinary threads that is a
//! single thread-local flag read.

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Duration;

pub mod sched;

use sched::OpKind;

/// Address of a lock, used as its identity at schedule points. Fat pointers
/// (unsized `T`) lose their metadata in the cast, which is exactly right:
/// identity is the allocation, not the view.
fn obj_id<T: ?Sized>(p: *const T) -> sched::ObjId {
    p as *const () as usize
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
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard {
                inner: Some(g),
                obj,
            }),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(MutexGuard {
                inner: Some(e.into_inner()),
                obj,
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
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

#[derive(Default)]
struct RwState {
    /// Number of shared holders.
    readers: usize,
    /// Exclusive holder present.
    writer: bool,
    /// Writers blocked in `write()`; new non-recursive readers defer to them.
    writers_waiting: usize,
}

/// Read-write lock with recursive reads, conditional acquisition, owned
/// `Arc` guards, and atomic write→read downgrade.
pub struct RwLock<T: ?Sized> {
    state: std::sync::Mutex<RwState>,
    cond: std::sync::Condvar,
    data: UnsafeCell<T>,
}

unsafe impl<T: ?Sized + Send> Send for RwLock<T> {}
unsafe impl<T: ?Sized + Send + Sync> Sync for RwLock<T> {}

impl<T> RwLock<T> {
    pub const fn new(value: T) -> RwLock<T> {
        RwLock {
            state: std::sync::Mutex::new(RwState {
                readers: 0,
                writer: false,
                writers_waiting: 0,
            }),
            cond: std::sync::Condvar::new(),
            data: UnsafeCell::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> RwLock<T> {
    fn st(&self) -> std::sync::MutexGuard<'_, RwState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_shared(&self, recursive: bool) {
        let kind = if recursive {
            OpKind::RwSharedRecursive
        } else {
            OpKind::RwShared
        };
        sched::acquire_point(kind, obj_id(self));
        let mut st = self.st();
        while st.writer || (!recursive && st.writers_waiting > 0) {
            st = self.cond.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.readers += 1;
    }

    fn try_lock_shared(&self, recursive: bool) -> bool {
        let kind = if recursive {
            OpKind::RwTrySharedRecursive
        } else {
            OpKind::RwTryShared
        };
        if !sched::acquire_point(kind, obj_id(self)) {
            return false;
        }
        let mut st = self.st();
        if st.writer || (!recursive && st.writers_waiting > 0) {
            return false;
        }
        st.readers += 1;
        true
    }

    fn lock_exclusive(&self) {
        sched::acquire_point(OpKind::RwExclusive, obj_id(self));
        let mut st = self.st();
        st.writers_waiting += 1;
        while st.writer || st.readers > 0 {
            st = self.cond.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.writers_waiting -= 1;
        st.writer = true;
    }

    fn try_lock_exclusive(&self) -> bool {
        if !sched::acquire_point(OpKind::RwTryExclusive, obj_id(self)) {
            return false;
        }
        let mut st = self.st();
        if st.writer || st.readers > 0 {
            return false;
        }
        st.writer = true;
        true
    }

    fn unlock_shared(&self) {
        {
            let mut st = self.st();
            debug_assert!(st.readers > 0);
            st.readers -= 1;
            if st.readers == 0 {
                self.cond.notify_all();
            }
        }
        sched::release_point(OpKind::RwUnlockShared, obj_id(self));
    }

    fn unlock_exclusive(&self) {
        {
            let mut st = self.st();
            debug_assert!(st.writer);
            st.writer = false;
            self.cond.notify_all();
        }
        sched::release_point(OpKind::RwUnlockExclusive, obj_id(self));
    }

    /// Exclusive → shared without a window for another writer.
    fn downgrade_exclusive(&self) {
        {
            let mut st = self.st();
            debug_assert!(st.writer);
            st.writer = false;
            st.readers = 1;
            // Other readers may join; waiting writers see readers > 0.
            self.cond.notify_all();
        }
        sched::release_point(OpKind::RwDowngrade, obj_id(self));
    }

    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.lock_shared(false);
        RwLockReadGuard { lock: self }
    }

    /// Shared acquisition that ignores queued writers, so a thread that
    /// already holds the lock shared can safely re-enter.
    pub fn read_recursive(&self) -> RwLockReadGuard<'_, T> {
        self.lock_shared(true);
        RwLockReadGuard { lock: self }
    }

    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        // `.then(||)` not `.then_some()`: the guard must only exist (and
        // therefore only ever run its unlocking Drop) on success.
        self.try_lock_shared(false)
            .then(|| RwLockReadGuard { lock: self })
    }

    pub fn try_read_recursive(&self) -> Option<RwLockReadGuard<'_, T>> {
        self.try_lock_shared(true)
            .then(|| RwLockReadGuard { lock: self })
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.lock_exclusive();
        RwLockWriteGuard { lock: self }
    }

    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        self.try_lock_exclusive()
            .then(|| RwLockWriteGuard { lock: self })
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T> RwLock<T> {
    pub fn read_arc(self: &Arc<Self>) -> lock_api::ArcRwLockReadGuard<RawRwLock, T> {
        self.lock_shared(false);
        lock_api::ArcRwLockReadGuard {
            lock: self.clone(),
            _raw: PhantomData,
        }
    }

    pub fn try_read_arc(self: &Arc<Self>) -> Option<lock_api::ArcRwLockReadGuard<RawRwLock, T>> {
        self.try_lock_shared(false)
            .then(|| lock_api::ArcRwLockReadGuard {
                lock: self.clone(),
                _raw: PhantomData,
            })
    }

    pub fn write_arc(self: &Arc<Self>) -> lock_api::ArcRwLockWriteGuard<RawRwLock, T> {
        self.lock_exclusive();
        lock_api::ArcRwLockWriteGuard {
            lock: self.clone(),
            _raw: PhantomData,
        }
    }

    pub fn try_write_arc(self: &Arc<Self>) -> Option<lock_api::ArcRwLockWriteGuard<RawRwLock, T>> {
        self.try_lock_exclusive()
            .then(|| lock_api::ArcRwLockWriteGuard {
                lock: self.clone(),
                _raw: PhantomData,
            })
    }
}

/// Borrowed shared guard.
pub struct RwLockReadGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // Safety: shared lock held for the guard's lifetime.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.unlock_shared();
    }
}

/// Borrowed exclusive guard.
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // Safety: exclusive lock held for the guard's lifetime.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // Safety: exclusive lock held for the guard's lifetime.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.unlock_exclusive();
    }
}

/// Marker standing in for `parking_lot::RawRwLock` in the arc-guard types.
pub struct RawRwLock;

pub mod lock_api {
    //! Owned (`Arc`-holding) guards, mirroring `parking_lot::lock_api`.

    use super::{RawRwLock, RwLock};
    use std::marker::PhantomData;
    use std::sync::Arc;

    /// Owned shared guard: keeps the lock (and its `Arc`) alive.
    pub struct ArcRwLockReadGuard<R, T: ?Sized> {
        pub(crate) lock: Arc<RwLock<T>>,
        pub(crate) _raw: PhantomData<R>,
    }

    impl<T: ?Sized> std::ops::Deref for ArcRwLockReadGuard<RawRwLock, T> {
        type Target = T;

        fn deref(&self) -> &T {
            // Safety: shared lock held for the guard's lifetime.
            unsafe { &*self.lock.data.get() }
        }
    }

    impl<R, T: ?Sized> Drop for ArcRwLockReadGuard<R, T> {
        fn drop(&mut self) {
            self.lock.unlock_shared();
        }
    }

    /// Owned exclusive guard.
    pub struct ArcRwLockWriteGuard<R, T: ?Sized> {
        pub(crate) lock: Arc<RwLock<T>>,
        pub(crate) _raw: PhantomData<R>,
    }

    impl<T: ?Sized> ArcRwLockWriteGuard<RawRwLock, T> {
        /// Atomically convert to a shared guard (no writer can intervene).
        pub fn downgrade(this: Self) -> ArcRwLockReadGuard<RawRwLock, T> {
            this.lock.downgrade_exclusive();
            let lock = this.lock.clone();
            std::mem::forget(this); // ownership of the hold moved to the read guard
            ArcRwLockReadGuard {
                lock,
                _raw: PhantomData,
            }
        }
    }

    impl<T: ?Sized> std::ops::Deref for ArcRwLockWriteGuard<RawRwLock, T> {
        type Target = T;

        fn deref(&self) -> &T {
            // Safety: exclusive lock held for the guard's lifetime.
            unsafe { &*self.lock.data.get() }
        }
    }

    impl<T: ?Sized> std::ops::DerefMut for ArcRwLockWriteGuard<RawRwLock, T> {
        fn deref_mut(&mut self) -> &mut T {
            // Safety: exclusive lock held for the guard's lifetime.
            unsafe { &mut *self.lock.data.get() }
        }
    }

    impl<R, T: ?Sized> Drop for ArcRwLockWriteGuard<R, T> {
        fn drop(&mut self) {
            self.lock.unlock_exclusive();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::lock_api::ArcRwLockWriteGuard;
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
            let b = l.read_recursive();
            assert_eq!((*a, *b), (5, 5));
            assert!(l.try_write().is_none());
        }
        *l.write() = 6;
        assert_eq!(*l.read(), 6);
    }

    #[test]
    fn try_read_defers_to_waiting_writer_but_recursive_does_not() {
        let l = Arc::new(RwLock::new(()));
        let _r = l.read();
        let l2 = l.clone();
        let h = std::thread::spawn(move || {
            let _w = l2.write();
        });
        // Wait until the writer is queued.
        while l.st().writers_waiting == 0 {
            std::thread::yield_now();
        }
        assert!(l.try_read().is_none(), "plain read must defer to writer");
        assert!(
            l.try_read_recursive().is_some(),
            "recursive read must not self-deadlock"
        );
        drop(_r);
        h.join().unwrap();
    }

    #[test]
    fn arc_write_guard_downgrade_blocks_writers() {
        let l = Arc::new(RwLock::new(1u32));
        let w = l.write_arc();
        let r = ArcRwLockWriteGuard::downgrade(w);
        assert_eq!(*r, 1);
        assert!(l.try_write().is_none());
        let r2 = l.try_read_arc().expect("second reader joins");
        assert_eq!(*r2, 1);
        drop(r);
        drop(r2);
        assert!(l.try_write().is_some());
    }

    #[test]
    fn concurrent_readers_and_writers_consistent() {
        let l = Arc::new(RwLock::new(0u64));
        let writes = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let l = l.clone();
                let writes = writes.clone();
                s.spawn(move || {
                    for _ in 0..200 {
                        *l.write() += 1;
                        writes.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            for _ in 0..4 {
                let l = l.clone();
                s.spawn(move || {
                    for _ in 0..200 {
                        let _v = *l.read();
                    }
                });
            }
        });
        assert_eq!(*l.read(), 800);
        assert_eq!(writes.load(Ordering::Relaxed), 800);
    }
}
