//! The lock manager proper.
//!
//! A single hash table of lock heads guarded by one mutex, with per-waiter
//! condition variables. Grant policy:
//!
//! * a **new** request is granted iff its mode is compatible with every lock
//!   granted to *other* transactions and no one is already queued (strict
//!   FIFO, which prevents starvation of X requests behind reader streams);
//! * a **conversion** (the requester already holds the name) is granted iff
//!   the target mode `sup(held, requested)` is compatible with every *other*
//!   granted lock; conversions wait at the front of the queue, ahead of new
//!   requests, as in System R;
//! * an **instant-duration** grant is never recorded: the requester only
//!   learns the lock was grantable at that instant (paper Figure 2 — the
//!   insert's next-key lock);
//! * a **conditional** request that cannot be granted immediately returns
//!   [`Error::WouldBlock`] without queueing (paper §2.2: never wait for a
//!   lock while holding latches).
//!
//! Deadlock detection runs at enqueue time: a waits-for graph is built from
//! the lock table (waiter → incompatible holder, waiter → incompatible
//! earlier waiter) and if the new waiter closes a cycle it is chosen as the
//! victim and receives [`Error::Deadlock`]. Because rolling-back transactions
//! never request locks (paper §4), victims can always be safely rolled back.

use crate::mode::{LockDuration, LockMode};
use crate::name::LockName;
use ariesim_common::stats::{Bump, StatsHandle};
use ariesim_common::{Error, Result, TxnId};
use ariesim_obs::monitor::{Class, Held};
use ariesim_obs::{ObsHandle, SpanKind};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::Duration;

/// How long an unconditional wait may take before the manager declares the
/// system wedged. This is a test-harness backstop, not part of the protocol:
/// the deadlock detector should make it unreachable.
const WAIT_WEDGE_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Debug)]
struct Granted {
    txn: TxnId,
    mode: LockMode,
    duration: LockDuration,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum WaitOutcome {
    Waiting,
    Granted,
}

struct WaitCell {
    state: Mutex<WaitOutcome>,
    cv: Condvar,
}

struct Waiter {
    txn: TxnId,
    mode: LockMode,
    duration: LockDuration,
    /// Conversion of an existing grant (takes queue priority).
    convert: bool,
    cell: Arc<WaitCell>,
}

#[derive(Default)]
struct Head {
    granted: Vec<Granted>,
    queue: VecDeque<Waiter>,
}

impl Head {
    fn find_granted(&self, txn: TxnId) -> Option<usize> {
        self.granted.iter().position(|g| g.txn == txn)
    }

    fn compatible_with_others(&self, txn: TxnId, mode: LockMode) -> bool {
        self.granted
            .iter()
            .all(|g| g.txn == txn || mode.compatible_with(g.mode))
    }
}

#[derive(Default)]
struct State {
    heads: HashMap<LockName, Head>,
    /// Names on which each transaction has a recorded grant.
    txn_locks: HashMap<TxnId, HashSet<LockName>>,
}

/// The lock manager. Thread-safe; one per database.
pub struct LockManager {
    state: Mutex<State>,
    stats: StatsHandle,
    obs: ObsHandle,
}

/// Lock-table guard carrying its latch-monitor report (class
/// [`Class::LockTable`]).
struct StateGuard<'a>(parking_lot::MutexGuard<'a, State>, #[allow(dead_code)] Held);

impl std::ops::Deref for StateGuard<'_> {
    type Target = State;

    fn deref(&self) -> &State {
        &self.0
    }
}

impl std::ops::DerefMut for StateGuard<'_> {
    fn deref_mut(&mut self) -> &mut State {
        &mut self.0
    }
}

impl LockManager {
    pub fn new(stats: StatsHandle, obs: ObsHandle) -> LockManager {
        LockManager {
            state: Mutex::new(State::default()),
            stats,
            obs,
        }
    }

    /// The observability handle the manager reports to.
    pub fn obs(&self) -> &ObsHandle {
        &self.obs
    }

    fn lock_state(&self, site: &'static str) -> StateGuard<'_> {
        let held = self.obs.monitor.acquired(Class::LockTable, site, true);
        StateGuard(self.state.lock(), held)
    }

    /// Request `name` in `mode` for `duration` on behalf of `txn`.
    ///
    /// `conditional` requests never wait: they return
    /// [`Error::WouldBlock`] if not immediately grantable. Unconditional
    /// requests wait (FIFO) and may fail with [`Error::Deadlock`].
    pub fn request(
        &self,
        txn: TxnId,
        name: LockName,
        mode: LockMode,
        duration: LockDuration,
        conditional: bool,
    ) -> Result<()> {
        if !conditional {
            // §2.2: a request that may wait holds no tree or page latch,
            // whether or not it waits.
            self.obs.monitor.on_unconditional_lock_request();
        }
        let cell;
        {
            let mut guard = self.lock_state("lock::manager::request");
            let st = &mut *guard;
            let head = st.heads.entry(name.clone()).or_default();

            if let Some(gi) = head.find_granted(txn) {
                let held = head.granted[gi].mode;
                let target = held.sup(mode);
                if target == held {
                    // Already covered: just strengthen the duration.
                    if duration > head.granted[gi].duration {
                        head.granted[gi].duration = duration;
                    }
                    self.note_grant(&name, duration);
                    return Ok(());
                }
                // Conversion.
                if head.compatible_with_others(txn, target) {
                    head.granted[gi].mode = target;
                    if duration > head.granted[gi].duration {
                        head.granted[gi].duration = duration;
                    }
                    self.note_grant(&name, duration);
                    return Ok(());
                }
                if conditional {
                    self.stats.lock_conditional_denials.bump();
                    return Err(Error::WouldBlock);
                }
                cell = self.enqueue(st, txn, name.clone(), mode, duration, true)?;
            } else {
                let grantable = head.queue.is_empty() && head.compatible_with_others(txn, mode);
                if grantable {
                    // An instant lock evaporates on grant: it is never recorded.
                    if duration != LockDuration::Instant {
                        head.granted.push(Granted {
                            txn,
                            mode,
                            duration,
                        });
                        st.txn_locks.entry(txn).or_default().insert(name.clone());
                    }
                    self.note_grant(&name, duration);
                    return Ok(());
                }
                if conditional {
                    self.stats.lock_conditional_denials.bump();
                    return Err(Error::WouldBlock);
                }
                cell = self.enqueue(st, txn, name.clone(), mode, duration, false)?;
            }
        }
        // Wait outside the table mutex.
        let wait_span = self.obs.span(SpanKind::LockWait, txn.0, 0);
        self.stats.lock_waits.bump();
        let mut s = cell.state.lock();
        while *s == WaitOutcome::Waiting {
            if cell
                .cv
                .wait_for(&mut s, WAIT_WEDGE_TIMEOUT)
                .timed_out()
            {
                drop(s);
                return Err(Error::Internal(format!(
                    "lock wait wedged: {txn} waiting for {name:?} in {mode:?}"
                )));
            }
        }
        drop(s);
        drop(wait_span);
        self.note_grant(&name, duration);
        Ok(())
    }

    /// Count the grant (duration and lock-name kind) in the stats counters.
    fn note_grant(&self, name: &LockName, duration: LockDuration) {
        self.stats.locks_acquired.bump();
        match duration {
            LockDuration::Instant => self.stats.locks_instant.bump(),
            LockDuration::Commit => self.stats.locks_commit.bump(),
            LockDuration::Manual => {}
        }
        match name {
            LockName::Record(_) | LockName::Page(_) => self.stats.locks_record.bump(),
            LockName::KeyValue(..) => self.stats.locks_keyvalue.bump(),
            LockName::Eof(_) => self.stats.locks_eof.bump(),
            LockName::Table(_) => {}
        }
    }

    /// Queue a waiter; returns its wait cell, or `Error::Deadlock` if adding
    /// the edge would close a waits-for cycle through `txn`.
    #[expect(
        clippy::expect_used,
        reason = "head exists: key re-checked under the same state-mutex critical section (two identical sites)"
    )]
    fn enqueue(
        &self,
        st: &mut State,
        txn: TxnId,
        name: LockName,
        mode: LockMode,
        duration: LockDuration,
        convert: bool,
    ) -> Result<Arc<WaitCell>> {
        let cell = Arc::new(WaitCell {
            state: Mutex::new(WaitOutcome::Waiting),
            cv: Condvar::new(),
        });
        let waiter = Waiter {
            txn,
            mode,
            duration,
            convert,
            cell: cell.clone(),
        };
        {
            let head = st.heads.get_mut(&name).expect("head exists");
            if convert {
                // Conversions go ahead of new requests but behind existing
                // conversions (FIFO among converters).
                let pos = head.queue.iter().take_while(|w| w.convert).count();
                head.queue.insert(pos, waiter);
            } else {
                head.queue.push_back(waiter);
            }
        }
        if self.would_deadlock(st, txn) {
            // Remove the waiter we just added and fail the request.
            let head = st.heads.get_mut(&name).expect("head exists");
            head.queue.retain(|w| !Arc::ptr_eq(&w.cell, &cell));
            self.stats.deadlocks.bump();
            return Err(Error::Deadlock { txn });
        }
        Ok(cell)
    }

    /// Build the waits-for graph and test whether `start` is on a cycle.
    ///
    /// Edges: each waiter waits for (a) every *other* holder whose granted
    /// mode is incompatible with the waiter's target mode, and (b) every
    /// earlier waiter in the same queue whose mode is incompatible (strict
    /// FIFO means only incompatible predecessors can stall it indefinitely;
    /// compatible predecessors resolve transitively through their own edges).
    fn would_deadlock(&self, st: &State, start: TxnId) -> bool {
        let mut edges: HashMap<TxnId, Vec<TxnId>> = HashMap::new();
        for head in st.heads.values() {
            for (i, w) in head.queue.iter().enumerate() {
                let target = if w.convert {
                    head.granted
                        .iter()
                        .find(|g| g.txn == w.txn)
                        .map(|g| g.mode.sup(w.mode))
                        .unwrap_or(w.mode)
                } else {
                    w.mode
                };
                let out = edges.entry(w.txn).or_default();
                for g in &head.granted {
                    if g.txn != w.txn && !target.compatible_with(g.mode) {
                        out.push(g.txn);
                    }
                }
                for v in head.queue.iter().take(i) {
                    if v.txn != w.txn && !target.compatible_with(v.mode) {
                        out.push(v.txn);
                    }
                }
            }
        }
        // DFS from `start` looking for a path back to `start`.
        let mut stack: Vec<TxnId> = edges.get(&start).cloned().unwrap_or_default();
        let mut seen: HashSet<TxnId> = HashSet::new();
        while let Some(t) = stack.pop() {
            if t == start {
                return true;
            }
            if seen.insert(t) {
                if let Some(next) = edges.get(&t) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        false
    }

    /// Re-examine a head after its granted set changed, waking every waiter
    /// that can now be granted.
    fn grant_waiters(&self, st: &mut State, name: &LockName) {
        let mut to_wake: Vec<Arc<WaitCell>> = Vec::new();
        {
            let Some(head) = st.heads.get_mut(name) else {
                return;
            };
            let mut blocked_regular = false;
            let mut i = 0;
            while i < head.queue.len() {
                let w = &head.queue[i];
                let (grantable, target) = if w.convert {
                    match head.granted.iter().position(|g| g.txn == w.txn) {
                        Some(gi) => {
                            let target = head.granted[gi].mode.sup(w.mode);
                            (head.compatible_with_others(w.txn, target), target)
                        }
                        // Holder vanished (rollback released it): treat as new.
                        None => (
                            !blocked_regular && head.compatible_with_others(w.txn, w.mode),
                            w.mode,
                        ),
                    }
                } else if blocked_regular {
                    (false, w.mode)
                } else {
                    (head.compatible_with_others(w.txn, w.mode), w.mode)
                };

                if grantable {
                    #[expect(
                        clippy::expect_used,
                        reason = "index came from enumerate() over the same queue under the mutex"
                    )]
                    let w = head.queue.remove(i).expect("index in range");
                    if w.duration != LockDuration::Instant {
                        match head.granted.iter_mut().find(|g| g.txn == w.txn) {
                            Some(g) => {
                                g.mode = target;
                                if w.duration > g.duration {
                                    g.duration = w.duration;
                                }
                            }
                            None => {
                                head.granted.push(Granted {
                                    txn: w.txn,
                                    mode: target,
                                    duration: w.duration,
                                });
                                st.txn_locks
                                    .entry(w.txn)
                                    .or_default()
                                    .insert(name.clone());
                            }
                        }
                    }
                    to_wake.push(w.cell);
                    // Do not advance i: queue shifted left.
                } else {
                    if !w.convert {
                        blocked_regular = true;
                    }
                    i += 1;
                }
            }
            if head.granted.is_empty() && head.queue.is_empty() {
                st.heads.remove(name);
            }
        }
        for cell in to_wake {
            *cell.state.lock() = WaitOutcome::Granted;
            cell.cv.notify_all();
        }
    }

    /// Release one manual lock.
    pub fn release(&self, txn: TxnId, name: &LockName) {
        let mut st = self.lock_state("lock::manager::release");
        if let Some(head) = st.heads.get_mut(name) {
            if let Some(gi) = head.find_granted(txn) {
                head.granted.remove(gi);
                if let Some(set) = st.txn_locks.get_mut(&txn) {
                    set.remove(name);
                }
                self.grant_waiters(&mut st, name);
            }
        }
    }

    /// Release every lock held by `txn` (commit or rollback completion).
    pub fn release_all(&self, txn: TxnId) {
        let mut st = self.lock_state("lock::manager::release_all");
        let names: Vec<LockName> = st
            .txn_locks
            .remove(&txn)
            .map(|s| s.into_iter().collect())
            .unwrap_or_default();
        for name in names {
            if let Some(head) = st.heads.get_mut(&name) {
                if let Some(gi) = head.find_granted(txn) {
                    head.granted.remove(gi);
                }
                self.grant_waiters(&mut st, &name);
            }
        }
    }

    /// Mode in which `txn` currently holds `name`, if any. For assertions.
    pub fn holds(&self, txn: TxnId, name: &LockName) -> Option<LockMode> {
        let st = self.lock_state("lock::manager::holds");
        st.heads
            .get(name)?
            .granted
            .iter()
            .find(|g| g.txn == txn)
            .map(|g| g.mode)
    }

    /// Duration recorded for `txn`'s grant on `name`, if any. For assertions.
    pub fn holds_duration(&self, txn: TxnId, name: &LockName) -> Option<LockDuration> {
        let st = self.lock_state("lock::manager::holds_duration");
        st.heads
            .get(name)?
            .granted
            .iter()
            .find(|g| g.txn == txn)
            .map(|g| g.duration)
    }

    /// Number of recorded grants held by `txn`. For assertions.
    pub fn held_count(&self, txn: TxnId) -> usize {
        let st = self.lock_state("lock::manager::held_count");
        st.txn_locks.get(&txn).map_or(0, |s| s.len())
    }

    /// True if any transaction is queued anywhere. For assertions.
    pub fn has_waiters(&self) -> bool {
        let st = self.lock_state("lock::manager::has_waiters");
        st.heads.values().any(|h| !h.queue.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ariesim_common::stats::new_stats;
    use ariesim_common::{IndexId, PageId, Rid};
    use std::sync::atomic::{AtomicBool, Ordering};

    fn lm() -> LockManager {
        LockManager::new(new_stats(), ariesim_obs::Obs::disabled())
    }

    fn rec(n: u16) -> LockName {
        LockName::Record(Rid::new(PageId(1), n))
    }

    use LockDuration::*;
    use LockMode::*;

    #[test]
    fn grant_and_reentrant_grant() {
        let m = lm();
        m.request(TxnId(1), rec(0), S, Commit, false).unwrap();
        m.request(TxnId(1), rec(0), S, Commit, false).unwrap();
        assert_eq!(m.holds(TxnId(1), &rec(0)), Some(S));
        assert_eq!(m.held_count(TxnId(1)), 1);
    }

    #[test]
    fn shared_locks_coexist() {
        let m = lm();
        m.request(TxnId(1), rec(0), S, Commit, false).unwrap();
        m.request(TxnId(2), rec(0), S, Commit, false).unwrap();
        assert_eq!(m.holds(TxnId(1), &rec(0)), Some(S));
        assert_eq!(m.holds(TxnId(2), &rec(0)), Some(S));
    }

    #[test]
    fn conditional_conflict_returns_wouldblock() {
        let m = lm();
        m.request(TxnId(1), rec(0), X, Commit, false).unwrap();
        let e = m.request(TxnId(2), rec(0), S, Commit, true).unwrap_err();
        assert!(matches!(e, Error::WouldBlock));
        assert!(!m.has_waiters(), "conditional request must not queue");
    }

    #[test]
    fn self_conversion_upgrades_in_place() {
        let m = lm();
        m.request(TxnId(1), rec(0), S, Commit, false).unwrap();
        m.request(TxnId(1), rec(0), X, Commit, false).unwrap();
        assert_eq!(m.holds(TxnId(1), &rec(0)), Some(X));
        // IX + S = SIX
        m.request(TxnId(1), rec(1), IX, Commit, false).unwrap();
        m.request(TxnId(1), rec(1), S, Commit, false).unwrap();
        assert_eq!(m.holds(TxnId(1), &rec(1)), Some(SIX));
    }

    #[test]
    fn instant_lock_leaves_no_trace() {
        let m = lm();
        m.request(TxnId(1), rec(0), X, Instant, false).unwrap();
        assert_eq!(m.holds(TxnId(1), &rec(0)), None);
        // Another txn can take it right away.
        m.request(TxnId(2), rec(0), X, Commit, true).unwrap();
    }

    #[test]
    fn instant_conflicts_like_any_lock() {
        let m = lm();
        m.request(TxnId(1), rec(0), X, Commit, false).unwrap();
        let e = m
            .request(TxnId(2), rec(0), X, Instant, true)
            .unwrap_err();
        assert!(matches!(e, Error::WouldBlock));
    }

    #[test]
    fn release_wakes_waiter() {
        let m = Arc::new(lm());
        m.request(TxnId(1), rec(0), X, Manual, false).unwrap();
        let granted = Arc::new(AtomicBool::new(false));
        let h = {
            let m = m.clone();
            let granted = granted.clone();
            std::thread::spawn(move || {
                m.request(TxnId(2), rec(0), X, Commit, false).unwrap();
                granted.store(true, Ordering::SeqCst);
            })
        };
        // Give the waiter time to queue.
        while !m.has_waiters() {
            std::thread::yield_now();
        }
        assert!(!granted.load(Ordering::SeqCst));
        m.release(TxnId(1), &rec(0));
        h.join().unwrap();
        assert!(granted.load(Ordering::SeqCst));
        assert_eq!(m.holds(TxnId(2), &rec(0)), Some(X));
    }

    #[test]
    fn release_all_releases_everything() {
        let m = lm();
        m.request(TxnId(1), rec(0), X, Commit, false).unwrap();
        m.request(TxnId(1), rec(1), S, Commit, false).unwrap();
        m.request(TxnId(1), LockName::Eof(IndexId(1)), S, Commit, false)
            .unwrap();
        assert_eq!(m.held_count(TxnId(1)), 3);
        m.release_all(TxnId(1));
        assert_eq!(m.held_count(TxnId(1)), 0);
        m.request(TxnId(2), rec(0), X, Commit, true).unwrap();
    }

    #[test]
    fn two_txn_deadlock_detected() {
        let m = Arc::new(lm());
        m.request(TxnId(1), rec(0), X, Commit, false).unwrap();
        m.request(TxnId(2), rec(1), X, Commit, false).unwrap();
        // T2 waits for rec(0).
        let m2 = m.clone();
        let h = std::thread::spawn(move || m2.request(TxnId(2), rec(0), X, Commit, false));
        while !m.has_waiters() {
            std::thread::yield_now();
        }
        // T1 requesting rec(1) closes the cycle: T1 must be the victim.
        let e = m.request(TxnId(1), rec(1), X, Commit, false).unwrap_err();
        assert!(matches!(e, Error::Deadlock { txn: TxnId(1) }), "{e:?}");
        // Unblock T2.
        m.release_all(TxnId(1));
        h.join().unwrap().unwrap();
    }

    #[test]
    fn conversion_deadlock_detected() {
        // Both hold S, both try to convert to X: classic conversion deadlock.
        let m = Arc::new(lm());
        m.request(TxnId(1), rec(0), S, Commit, false).unwrap();
        m.request(TxnId(2), rec(0), S, Commit, false).unwrap();
        let m2 = m.clone();
        let h = std::thread::spawn(move || m2.request(TxnId(2), rec(0), X, Commit, false));
        while !m.has_waiters() {
            std::thread::yield_now();
        }
        let e = m.request(TxnId(1), rec(0), X, Commit, false).unwrap_err();
        assert!(matches!(e, Error::Deadlock { txn: TxnId(1) }));
        m.release_all(TxnId(1));
        h.join().unwrap().unwrap();
        assert_eq!(m.holds(TxnId(2), &rec(0)), Some(X));
    }

    #[test]
    fn fifo_prevents_starvation_writer_between_readers() {
        let m = Arc::new(lm());
        m.request(TxnId(1), rec(0), S, Manual, false).unwrap();
        // Writer queues.
        let mw = m.clone();
        let writer = std::thread::spawn(move || {
            mw.request(TxnId(2), rec(0), X, Manual, false).unwrap();
            // Hold briefly, then release.
            mw.release(TxnId(2), &rec(0));
        });
        while !m.has_waiters() {
            std::thread::yield_now();
        }
        // A late reader must queue behind the writer, not jump it.
        let mr = m.clone();
        let reader = std::thread::spawn(move || {
            mr.request(TxnId(3), rec(0), S, Manual, false).unwrap();
            mr.release(TxnId(3), &rec(0));
        });
        // Give the reader time to either (incorrectly) grab the lock or queue.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(
            m.holds(TxnId(3), &rec(0)),
            None,
            "late reader must wait behind queued writer"
        );
        m.release(TxnId(1), &rec(0));
        writer.join().unwrap();
        reader.join().unwrap();
    }

    #[test]
    fn duration_strengthens_but_never_weakens() {
        let m = lm();
        m.request(TxnId(1), rec(0), S, Manual, false).unwrap();
        m.request(TxnId(1), rec(0), S, Commit, false).unwrap();
        assert_eq!(m.holds_duration(TxnId(1), &rec(0)), Some(Commit));
        // Re-request with weaker duration: stays commit.
        m.request(TxnId(1), rec(0), S, Instant, false).unwrap();
        assert_eq!(m.holds_duration(TxnId(1), &rec(0)), Some(Commit));
    }

    #[test]
    fn stress_many_threads_no_lost_wakeups() {
        let m = Arc::new(lm());
        let counter = Arc::new(std::sync::atomic::AtomicU64::new(0));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let m = m.clone();
                let counter = counter.clone();
                s.spawn(move || {
                    for i in 0..50 {
                        let txn = TxnId(1 + t * 1000 + i);
                        loop {
                            match m.request(txn, rec(0), X, Manual, false) {
                                Ok(()) => break,
                                Err(Error::Deadlock { .. }) => continue,
                                Err(e) => panic!("{e}"),
                            }
                        }
                        counter.fetch_add(1, Ordering::SeqCst);
                        m.release(txn, &rec(0));
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 400);
        assert!(!m.has_waiters());
    }

    #[test]
    fn stats_classify_names_and_durations() {
        let stats = new_stats();
        let m = LockManager::new(stats.clone(), ariesim_obs::Obs::disabled());
        m.request(TxnId(1), rec(0), X, Commit, false).unwrap();
        m.request(TxnId(1), LockName::key_value(IndexId(1), b"k".to_vec()), S, Commit, false)
            .unwrap();
        m.request(TxnId(1), LockName::Eof(IndexId(1)), S, Instant, false)
            .unwrap();
        let s = stats.snapshot();
        assert_eq!(s.locks_acquired, 3);
        assert_eq!(s.locks_record, 1);
        assert_eq!(s.locks_keyvalue, 1);
        assert_eq!(s.locks_eof, 1);
        assert_eq!(s.locks_instant, 1);
        assert_eq!(s.locks_commit, 2);
    }
}
