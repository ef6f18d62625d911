//! Std-only stand-in for the subset of `parking_lot` this workspace uses.
//!
//! The build environment has no access to a crates registry, so the real
//! `parking_lot` cannot be vendored; this crate re-implements the API surface
//! the workspace actually calls:
//!
//! * [`Mutex`] / [`MutexGuard`] — poison-ignoring, guard returned directly;
//! * [`Condvar`] with `wait` / `wait_for` taking `&mut MutexGuard`;
//! * [`RwLock`] with recursive reads (`read_recursive`), conditional
//!   acquisition (`try_read` / `try_write` / `try_read_recursive`) and
//!   write-to-read downgrade — none of which `std::sync::RwLock` offers,
//!   hence the hand-rolled lock.
//!
//! **What the `RwLock` is.** Every page latch and the tree latch is one of
//! these, so it is priced like a latch: the whole state is one `AtomicUsize`
//! (reader count | `WRITER` | `WRITERS_WAITING` | `PARKED`). An uncontended
//! acquire is one CAS, a release one RMW, and `try_*` touches nothing else.
//! The `std` mutex + condvar beside the word are only the parking place: a
//! thread that must wait sets `PARKED` under the mutex, re-checks the word
//! and waits; a releaser takes the mutex and notifies only when its RMW saw
//! `PARKED` — no system call when nobody waits.
//!
//! Semantics the workspace depends on and this shim preserves:
//!
//! * a blocked writer blocks **new non-recursive readers** (no writer
//!   starvation: the SMO tree-latch acquirer must not starve behind a
//!   stream of traversals);
//! * `read_recursive` ignores queued writers, so a thread already holding
//!   the lock shared can re-enter without self-deadlock;
//! * `downgrade` is atomic: no writer can sneak in between the write and
//!   read phases;
//! * `try_*` never blocks.
//!
//! Additionally, every acquire/release path reports to the model checker's
//! schedule-point hooks (see [`sched`]); on ordinary threads that is a
//! single thread-local flag read. The lock is one primitive to the model
//! controller, as it was when a mutex guarded its state: the controller
//! grants an acquire only when its ownership model says it cannot block, so
//! under the model a granted acquire is always a first-try CAS, the word
//! never carries `PARKED` or `WRITERS_WAITING`, and the parking path does
//! not run. The word's own interleavings (CAS retry, park/wake handshake)
//! are therefore outside the controller's view; what covers them is this
//! file's test module (fast path never parks, lost-wakeup hammer, writer
//! preference, last-reader-only wake — run in debug and `--release`) and
//! `tests/pool_stress.rs`.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// Set by a thread about to wait on `cond`, under the `park` mutex; a
/// releaser that sees it takes that mutex, clears it and notifies.
const PARKED: usize = 1;
/// At least one writer is blocked in `write()` (count kept under `park`);
/// new non-recursive readers defer to it.
const WRITERS_WAITING: usize = 2;
/// Exclusive holder present.
const WRITER: usize = 4;
/// The shared-holder count lives in the bits above the flags.
const ONE_READER: usize = 8;
const READERS: usize = !(ONE_READER - 1);

/// Read-write lock with recursive reads, conditional acquisition and atomic
/// write→read downgrade: one state word, plus a mutex + condvar that only a
/// thread that has to wait (or wake one) ever touches.
pub struct RwLock<T: ?Sized> {
    state: AtomicUsize,
    /// The parking place. Guards the number of writers blocked in `write()`.
    park: std::sync::Mutex<usize>,
    cond: std::sync::Condvar,
    data: UnsafeCell<T>,
}

// SAFETY: the lock hands out `&T` to many threads or `&mut T` to one, so it
// is `Sync` exactly when `T` may be shared and sent; `state`, `park` and
// `cond` are `Sync` themselves.
unsafe impl<T: ?Sized + Send> Send for RwLock<T> {}
unsafe impl<T: ?Sized + Send + Sync> Sync for RwLock<T> {}

impl<T> RwLock<T> {
    pub const fn new(value: T) -> RwLock<T> {
        RwLock {
            state: AtomicUsize::new(0),
            park: std::sync::Mutex::new(0),
            cond: std::sync::Condvar::new(),
            data: UnsafeCell::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

/// What stops a shared acquisition: the writer, and for a non-recursive
/// read a queued writer too.
const fn shared_blockers(recursive: bool) -> usize {
    if recursive {
        WRITER
    } else {
        WRITER | WRITERS_WAITING
    }
}

impl<T: ?Sized> RwLock<T> {
    fn parking_place(&self) -> std::sync::MutexGuard<'_, usize> {
        self.park.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// One attempt at the word, retried only while the lock stays
    /// grantable: add `delta` if none of `blockers` is set.
    fn try_acquire(&self, blockers: usize, delta: usize) -> bool {
        // ordering: Relaxed — only a guess for the CAS below, which re-reads
        let mut s = self.state.load(Ordering::Relaxed);
        while s & blockers == 0 {
            // ordering: Acquire on success pairs with the Release RMW of the
            // unlock that made the word grantable, so the previous holder's
            // writes to `data` are visible; a failed CAS publishes nothing
            match self.state.compare_exchange_weak(s, s + delta, Ordering::Acquire, Ordering::Relaxed) {
                Ok(_) => return true,
                Err(now) => s = now,
            }
        }
        false
    }

    /// The contended path: wait on the condvar until `try_acquire` grants.
    /// Lost wakeups are excluded by the word's modification order: PARKED
    /// is set (an RMW) before the re-check, so a release RMW either comes
    /// before it (the re-check sees the lock free) or after it (the
    /// releaser sees PARKED and notifies under the mutex we wait with).
    #[cold]
    fn acquire_parked(&self, blockers: usize, delta: usize) {
        #[cfg(test)]
        slow_path::note_park();
        let writer = delta == WRITER;
        let mut waiting_writers = self.parking_place();
        if writer {
            *waiting_writers += 1;
        }
        let announce = if writer { PARKED | WRITERS_WAITING } else { PARKED };
        loop {
            // ordering: Relaxed — the flags carry no payload; the handshake
            // with the releaser is the mutex plus this word's RMW order
            self.state.fetch_or(announce, Ordering::Relaxed);
            if self.try_acquire(blockers, delta) {
                break;
            }
            waiting_writers = self.cond.wait(waiting_writers).unwrap_or_else(|e| e.into_inner());
        }
        if writer {
            *waiting_writers -= 1;
            if *waiting_writers == 0 {
                // ordering: Relaxed — flag only; readers it lets in take
                // their own Acquire CAS
                self.state.fetch_and(!WRITERS_WAITING, Ordering::Relaxed);
            }
        }
    }

    /// A release saw PARKED: wake every waiter; the ones that still cannot
    /// proceed announce themselves again before waiting again.
    #[cold]
    fn wake_parked(&self) {
        #[cfg(test)]
        slow_path::note_wake();
        let _place = self.parking_place();
        // ordering: Relaxed — flag only, cleared under the mutex every
        // waiter sets it under
        self.state.fetch_and(!PARKED, Ordering::Relaxed);
        self.cond.notify_all();
    }

    fn lock_shared(&self, recursive: bool) {
        let kind = if recursive {
            OpKind::RwSharedRecursive
        } else {
            OpKind::RwShared
        };
        sched::acquire_point(kind, obj_id(self));
        let blockers = shared_blockers(recursive);
        if !self.try_acquire(blockers, ONE_READER) {
            self.acquire_parked(blockers, ONE_READER);
        }
    }

    fn try_lock_shared(&self, recursive: bool) -> bool {
        let kind = if recursive {
            OpKind::RwTrySharedRecursive
        } else {
            OpKind::RwTryShared
        };
        sched::acquire_point(kind, obj_id(self))
            && self.try_acquire(shared_blockers(recursive), ONE_READER)
    }

    fn lock_exclusive(&self) {
        sched::acquire_point(OpKind::RwExclusive, obj_id(self));
        if !self.try_acquire(WRITER | READERS, WRITER) {
            self.acquire_parked(WRITER | READERS, WRITER);
        }
    }

    fn try_lock_exclusive(&self) -> bool {
        sched::acquire_point(OpKind::RwTryExclusive, obj_id(self))
            && self.try_acquire(WRITER | READERS, WRITER)
    }

    fn unlock_shared(&self) {
        // ordering: Release publishes this reader's accesses to the writer
        // whose Acquire CAS next takes the word
        let prev = self.state.fetch_sub(ONE_READER, Ordering::Release);
        debug_assert!(prev & READERS != 0);
        // Only the last reader can unblock anyone.
        if prev & (READERS | PARKED) == ONE_READER | PARKED {
            self.wake_parked();
        }
        sched::release_point(OpKind::RwUnlockShared, obj_id(self));
    }

    fn unlock_exclusive(&self) {
        // ordering: Release publishes the writer's stores to `data` to the
        // next Acquire CAS on the word
        let prev = self.state.fetch_and(!WRITER, Ordering::Release);
        debug_assert!(prev & WRITER != 0);
        if prev & PARKED != 0 {
            self.wake_parked();
        }
        sched::release_point(OpKind::RwUnlockExclusive, obj_id(self));
    }

    /// Exclusive → shared without a window for another writer: one RMW
    /// turns the writer bit into the first reader.
    fn downgrade_exclusive(&self) {
        // ordering: Release — readers that join after this Acquire the
        // writer's stores through it
        let prev = self.state.fetch_xor(WRITER | ONE_READER, Ordering::Release);
        debug_assert!(prev & (WRITER | READERS) == WRITER);
        // Parked readers may join; parked writers see a reader and re-park.
        if prev & PARKED != 0 {
            self.wake_parked();
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

/// Borrowed shared guard.
pub struct RwLockReadGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: shared lock held for the guard's lifetime.
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

impl<'a, T: ?Sized> RwLockWriteGuard<'a, T> {
    /// Atomically convert to a shared guard (no writer can intervene).
    pub fn downgrade(this: Self) -> RwLockReadGuard<'a, T> {
        let lock = this.lock;
        std::mem::forget(this); // the hold moves to the read guard
        lock.downgrade_exclusive();
        RwLockReadGuard { lock }
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: exclusive lock held for the guard's lifetime.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: exclusive lock held for the guard's lifetime.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.unlock_exclusive();
    }
}

/// Per-thread counts of parking-path entries, so the tests can pin that an
/// uncontended cycle never reaches the mutex or the condvar.
#[cfg(test)]
mod slow_path {
    use std::cell::Cell;

    thread_local! {
        static PARKS: Cell<usize> = const { Cell::new(0) };
        static WAKES: Cell<usize> = const { Cell::new(0) };
    }

    pub fn note_park() {
        PARKS.with(|c| c.set(c.get() + 1));
    }

    pub fn note_wake() {
        WAKES.with(|c| c.set(c.get() + 1));
    }

    /// (parks, wakes) performed by the calling thread so far.
    pub fn counts() -> (usize, usize) {
        (PARKS.with(Cell::get), WAKES.with(Cell::get))
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
        while l.state.load(Ordering::Relaxed) & WRITERS_WAITING == 0 {
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
    fn write_guard_downgrade_blocks_writers() {
        let l = RwLock::new(1u32);
        let w = l.write();
        let r = RwLockWriteGuard::downgrade(w);
        assert_eq!(*r, 1);
        assert!(l.try_write().is_none());
        let r2 = l.try_read().expect("second reader joins");
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

    /// The regression this lock exists to prevent: an acquire or release
    /// nobody contends must stay on the state word.
    #[test]
    fn uncontended_cycles_never_enter_the_parking_path() {
        let l = RwLock::new(0u64);
        let before = slow_path::counts();
        for _ in 0..1_000_000 {
            drop(std::hint::black_box(l.read()));
        }
        for _ in 0..1_000_000 {
            *l.write() += 1;
        }
        for _ in 0..1_000 {
            let w = l.try_write().expect("free");
            let r = RwLockWriteGuard::downgrade(w);
            drop(l.try_read_recursive().expect("shared"));
            drop(r);
        }
        assert_eq!(slow_path::counts(), before, "(parks, wakes) moved");
        assert_eq!(l.state.load(Ordering::Relaxed), 0);
        assert_eq!(l.into_inner(), 1_000_000);
    }

    /// Lost-wakeup hammer: every entry point mixed on one lock guarding a
    /// counter pair. A lost wakeup shows as the watchdog firing, a broken
    /// exclusion as a torn pair or a short count.
    #[test]
    fn mixed_operations_lose_no_wakeup_and_no_update() {
        const THREADS: u64 = 6;
        const OPS: u64 = 20_000;
        let l = Arc::new(RwLock::new((0u64, 0u64)));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        for t in 0..THREADS {
            let l = l.clone();
            let done_tx = done_tx.clone();
            std::thread::spawn(move || {
                let mut rng = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t + 1);
                let mut written = 0u64;
                let check = |pair: &(u64, u64)| assert_eq!(pair.0, pair.1, "torn pair");
                let bump = |pair: &mut (u64, u64)| {
                    pair.0 += 1;
                    std::hint::spin_loop();
                    pair.1 += 1;
                };
                for _ in 0..OPS {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    match rng % 7 {
                        0 | 1 => check(&l.read()),
                        2 => {
                            bump(&mut l.write());
                            written += 1;
                        }
                        3 => {
                            if let Some(g) = l.try_read() {
                                check(&g);
                            }
                        }
                        4 => {
                            if let Some(mut g) = l.try_write() {
                                bump(&mut g);
                                written += 1;
                            }
                        }
                        5 => {
                            // Re-entry must get through a queued writer.
                            let outer = l.read();
                            check(&l.read_recursive());
                            check(&outer);
                        }
                        _ => {
                            let mut w = l.write();
                            bump(&mut w);
                            written += 1;
                            let r = RwLockWriteGuard::downgrade(w);
                            check(&r);
                        }
                    }
                }
                done_tx.send(written).expect("main is waiting");
            });
        }
        let mut written = 0;
        for _ in 0..THREADS {
            written += done_rx
                .recv_timeout(Duration::from_secs(120))
                .unwrap_or_else(|_| {
                    panic!("watchdog: a thread is stuck, word = {:#x}", l.state.load(Ordering::Relaxed))
                });
        }
        assert_eq!(*l.read(), (written, written));
        assert_eq!(l.state.load(Ordering::Relaxed) & !PARKED, 0);
    }

    /// No thundering herd: a reader release that cannot unblock anyone does
    /// not notify; the last one does, once.
    #[test]
    fn parked_writer_is_woken_by_the_last_reader_only() {
        let l = Arc::new(RwLock::new(()));
        let got = Arc::new(AtomicBool::new(false));
        let (r1, r2, r3) = (l.read(), l.read(), l.read());
        let h = {
            let (l, got) = (l.clone(), got.clone());
            std::thread::spawn(move || {
                let _w = l.write();
                got.store(true, Ordering::Release);
            })
        };
        while l.state.load(Ordering::Relaxed) & PARKED == 0 {
            std::thread::yield_now();
        }
        let (_, wakes) = slow_path::counts();
        drop(r1);
        drop(r2);
        assert_eq!(slow_path::counts().1, wakes, "a non-last reader notified");
        assert!(!got.load(Ordering::Acquire), "writer ran beside a reader");
        drop(r3);
        assert_eq!(slow_path::counts().1, wakes + 1);
        h.join().unwrap();
        assert!(got.load(Ordering::Acquire));
    }
}
