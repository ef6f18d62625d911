//! Schedule-point hooks for the deterministic model checker.
//!
//! The model checker (`crates/model`) runs N "virtual" threads under a
//! single logical thread of control: every synchronization operation —
//! Mutex/RwLock acquire and release, facade atomics (see
//! `ariesim_common::msync`), and explicit `yield_point!()`s — reports to a
//! per-thread [`ThreadHook`] before (acquires) or after (releases) touching
//! the real primitive. The hook blocks the thread until the controller
//! grants it the next step, which is what turns preemption into an
//! enumerable choice instead of an accident of OS timing.
//!
//! Threads without an installed hook (everything outside a model run —
//! ordinary tests, benches, production paths) pay exactly one thread-local
//! `Cell<bool>` read per operation, mirroring the `crash_point!` design:
//! the instrumentation is always compiled, the *cost* is a disarmed fast
//! path.
//!
//! Two invariants the controller relies on and this module's callers (the
//! lock shims) uphold:
//!
//! * a blocking acquire calls [`acquire_point`] *before* touching the real
//!   lock, and the controller only grants the step once its ownership model
//!   says the acquire cannot block — so a granted real acquire always
//!   succeeds immediately and no virtual thread is ever parked inside a
//!   real lock's wait queue;
//! * a release performs the real unlock *first* and then calls
//!   [`release_point`] — the notification is asynchronous (the releasing
//!   thread keeps running to its next schedule point), which is safe
//!   because only one virtual thread runs at a time.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Identity of the synchronized object: the address of the `Mutex`,
/// `RwLock`, facade atomic, or (for yields) the site string. Raw addresses
/// are not stable across executions; the controller re-keys them to small
/// first-seen ordinals before they enter a trace.
pub type ObjId = usize;

/// What kind of operation is at the schedule point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// First schedule point of a spawned virtual thread, before any user
    /// code runs.
    ThreadStart,
    MutexLock,
    MutexTryLock,
    MutexUnlock,
    RwShared,
    RwTryShared,
    RwExclusive,
    RwTryExclusive,
    RwUnlockShared,
    RwUnlockExclusive,
    /// Exclusive→shared downgrade: a release-class op (never blocks).
    RwDowngrade,
    AtomicLoad,
    AtomicStore,
    AtomicRmw,
    Yield,
}

impl OpKind {
    /// Conditional acquires never block: the controller always schedules
    /// them and instead dictates their outcome.
    pub fn is_try(self) -> bool {
        matches!(
            self,
            OpKind::MutexTryLock | OpKind::RwTryShared | OpKind::RwTryExclusive
        )
    }

    /// Stable lower-snake name used in schedule traces.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::ThreadStart => "thread_start",
            OpKind::MutexLock => "mutex_lock",
            OpKind::MutexTryLock => "mutex_try_lock",
            OpKind::MutexUnlock => "mutex_unlock",
            OpKind::RwShared => "rw_shared",
            OpKind::RwTryShared => "rw_try_shared",
            OpKind::RwExclusive => "rw_exclusive",
            OpKind::RwTryExclusive => "rw_try_exclusive",
            OpKind::RwUnlockShared => "rw_unlock_shared",
            OpKind::RwUnlockExclusive => "rw_unlock_exclusive",
            OpKind::RwDowngrade => "rw_downgrade",
            OpKind::AtomicLoad => "atomic_load",
            OpKind::AtomicStore => "atomic_store",
            OpKind::AtomicRmw => "atomic_rmw",
            OpKind::Yield => "yield",
        }
    }

    /// Inverse of [`OpKind::name`], for parsing schedule traces.
    pub fn parse(name: &str) -> Option<OpKind> {
        Some(match name {
            "thread_start" => OpKind::ThreadStart,
            "mutex_lock" => OpKind::MutexLock,
            "mutex_try_lock" => OpKind::MutexTryLock,
            "mutex_unlock" => OpKind::MutexUnlock,
            "rw_shared" => OpKind::RwShared,
            "rw_try_shared" => OpKind::RwTryShared,
            "rw_exclusive" => OpKind::RwExclusive,
            "rw_try_exclusive" => OpKind::RwTryExclusive,
            "rw_unlock_shared" => OpKind::RwUnlockShared,
            "rw_unlock_exclusive" => OpKind::RwUnlockExclusive,
            "rw_downgrade" => OpKind::RwDowngrade,
            "atomic_load" => OpKind::AtomicLoad,
            "atomic_store" => OpKind::AtomicStore,
            "atomic_rmw" => OpKind::AtomicRmw,
            "yield" => OpKind::Yield,
            _ => return None,
        })
    }
}

/// One schedule-point operation.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub kind: OpKind,
    pub obj: ObjId,
}

/// Installed per virtual thread by the model runtime.
pub trait ThreadHook {
    /// Blocking schedule point before an acquire-class op (or an atomic /
    /// yield). Returns `false` only for try-ops the controller has decided
    /// must fail — the caller then skips the real primitive entirely.
    fn schedule(&self, op: Op) -> bool;

    /// Non-blocking notification after a release-class op completed on the
    /// real primitive.
    fn release(&self, op: Op);
}

thread_local! {
    /// Disarmed fast path: one `Cell` read per sync op on ordinary threads.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static HOOK: RefCell<Option<Rc<dyn ThreadHook>>> = const { RefCell::new(None) };
}

/// Install `hook` for the current thread; every subsequent sync op on this
/// thread becomes a schedule point until [`clear_thread_hook`].
pub fn install_thread_hook(hook: Rc<dyn ThreadHook>) {
    HOOK.with(|h| *h.borrow_mut() = Some(hook));
    ARMED.with(|a| a.set(true));
}

/// Remove the current thread's hook (idempotent).
pub fn clear_thread_hook() {
    ARMED.with(|a| a.set(false));
    HOOK.with(|h| *h.borrow_mut() = None);
}

/// Is the current thread a model thread with a live, armed hook?
pub fn thread_armed() -> bool {
    ARMED.with(|a| a.get())
}

/// Arm/disarm without touching the installed hook. The model runtime
/// disarms a thread *before* unwinding it out of a schedule (teardown), so
/// the lock releases its drop handlers perform pass straight through
/// instead of re-blocking on a controller that has moved on.
pub fn set_thread_armed(on: bool) {
    ARMED.with(|a| a.set(on));
}

/// Schedule point before an acquire-class op. Returns whether a try-op may
/// proceed (always `true` for non-try ops and on disarmed threads).
#[inline]
pub fn acquire_point(kind: OpKind, obj: ObjId) -> bool {
    if !thread_armed() {
        return true;
    }
    let hook = HOOK.with(|h| h.borrow().clone());
    match hook {
        Some(h) => h.schedule(Op { kind, obj }),
        None => true,
    }
}

/// Notification after a release-class op.
#[inline]
pub fn release_point(kind: OpKind, obj: ObjId) {
    if !thread_armed() {
        return;
    }
    let hook = HOOK.with(|h| h.borrow().clone());
    if let Some(h) = hook {
        h.release(Op { kind, obj });
    }
}
