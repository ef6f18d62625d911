//! Execution of one schedule: N virtual threads under one thread of control.
//!
//! Virtual threads are real OS threads, but the controller lets exactly one
//! run at a time: each thread blocks in its [`ThreadHook`] at every schedule
//! point (lock acquires, parks and unparks, facade atomics, `yield_point!`s)
//! until the controller grants it the next step. Blocking acquires are
//! granted only when the controller's ownership model says they cannot
//! block, so the *real* `std` primitives underneath never park a granted
//! thread — the model's enabledness decisions, not OS arbitration, pick
//! every winner.
//! Try-acquires are always grantable; the grant dictates their outcome and
//! the real try runs only on model-success (under the one-runner invariant
//! the real primitive then agrees with the model). An untimed park is
//! granted once its parker's token is set, so one nothing unparks is a
//! deadlock, like a lock nothing releases. A timed park is always grantable
//! (it consumes the token if one is set, else it is a timeout or a
//! spurious return); one granted when every runnable thread is in a
//! tokenless timed park is a *forced timeout* — the run only went on
//! because the waiter sat out its whole timeout — and
//! [`Env::forced_timeouts`] counts them for harnesses whose waits must
//! always be ended by a wakeup.
//!
//! The harness body runs on its own unregistered thread: setup and final
//! assertions pass through the hooks unscheduled, and only the code between
//! `Env::spawn` and the end of `Env::join` is explored. Teardown (abort,
//! deadlock, step cap, prune) unwinds each virtual thread with a private
//! panic payload after disarming its hook, so guard drops release the real
//! locks without re-entering the controller.

use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Once};

use parking_lot::sched::{self, Op, OpKind, ThreadHook};

use crate::trace::Step;

/// Panic payload used to unwind virtual threads at teardown. Never escapes
/// the runtime: the spawn wrapper swallows it.
struct ModelAbort;

std::thread_local! {
    /// Set on model-run threads so the process panic hook stays silent for
    /// their (expected, captured) panics.
    static QUIET: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

static QUIET_HOOK: Once = Once::new();

fn init_quiet_panics() {
    QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET.with(|q| q.get()) {
                prev(info);
            }
        }));
    });
}

fn payload_msg(p: &(dyn Any + Send)) -> Option<String> {
    if p.is::<ModelAbort>() {
        return None;
    }
    if let Some(s) = p.downcast_ref::<&str>() {
        return Some((*s).to_string());
    }
    if let Some(s) = p.downcast_ref::<String>() {
        return Some(s.clone());
    }
    Some("<non-string panic payload>".to_string())
}

enum Event {
    /// Sent from the body thread, in spawn order, before the OS thread exists.
    Spawned { tid: usize, grant: Sender<Grant> },
    /// Virtual thread `tid` is blocked at a schedule point.
    At { tid: usize, op: Op },
    /// Virtual thread `tid` completed a release-class op (non-blocking).
    ReleaseEv { tid: usize, op: Op },
    /// Virtual thread `tid` ran to completion (or finished unwinding).
    Finished { tid: usize, panic: Option<String> },
    /// The body called `Env::join`: all spawns are in, scheduling may start.
    BodyReady { spawned: usize },
    /// The body thread finished (normally or by panic).
    BodyDone { panic: Option<String> },
}

enum Grant {
    Run { try_ok: bool },
    Abort,
}

struct VthreadHook {
    tid: usize,
    ctrl: Sender<Event>,
    grant: Receiver<Grant>,
}

impl VthreadHook {
    fn abort(&self) -> ! {
        sched::set_thread_armed(false);
        std::panic::panic_any(ModelAbort);
    }
}

impl ThreadHook for VthreadHook {
    fn schedule(&self, op: Op) -> bool {
        if self.ctrl.send(Event::At { tid: self.tid, op }).is_err() {
            self.abort();
        }
        match self.grant.recv() {
            Ok(Grant::Run { try_ok }) => try_ok,
            Ok(Grant::Abort) | Err(_) => self.abort(),
        }
    }

    fn release(&self, op: Op) {
        let _ = self.ctrl.send(Event::ReleaseEv { tid: self.tid, op });
    }
}

/// Handle the harness body uses to spawn and join virtual threads.
pub struct Env {
    ctrl: Sender<Event>,
    handles: Vec<std::thread::JoinHandle<()>>,
    spawned: usize,
    joined: bool,
    forced_timeouts: Arc<AtomicUsize>,
}

impl Env {
    fn new(ctrl: Sender<Event>, forced_timeouts: Arc<AtomicUsize>) -> Env {
        Env {
            ctrl,
            handles: Vec::new(),
            spawned: 0,
            joined: false,
            forced_timeouts,
        }
    }

    /// Timed parks this schedule granted when every runnable thread was in
    /// a timed park with no token: in a real run, nothing would have woken
    /// the waiter before its timeout. Final after [`Env::join`].
    pub fn forced_timeouts(&self) -> usize {
        // ordering: the controller counts before it sends the grant, and
        // `join` has joined every thread a grant reached.
        self.forced_timeouts.load(Ordering::Relaxed)
    }

    /// Spawn a virtual thread. It blocks before running any user code and
    /// executes only when the controller schedules it; tids are assigned in
    /// spawn order, which is what traces refer to.
    pub fn spawn<F: FnOnce() + Send + 'static>(&mut self, f: F) {
        assert!(!self.joined, "Env::spawn after Env::join");
        let tid = self.spawned;
        self.spawned += 1;
        let (gtx, grx) = channel::<Grant>();
        let _ = self.ctrl.send(Event::Spawned { tid, grant: gtx });
        let ctrl = self.ctrl.clone();
        let h = std::thread::Builder::new()
            .name(format!("model-t{tid}"))
            .spawn(move || {
                QUIET.with(|q| q.set(true));
                let hook = Rc::new(VthreadHook {
                    tid,
                    ctrl: ctrl.clone(),
                    grant: grx,
                });
                sched::install_thread_hook(hook);
                let res = catch_unwind(AssertUnwindSafe(|| {
                    // First schedule point, before any user code: makes the
                    // thread's very existence a scheduling decision.
                    sched::acquire_point(OpKind::ThreadStart, tid);
                    f();
                }));
                sched::clear_thread_hook();
                let panic = match res {
                    Ok(()) => None,
                    Err(p) => payload_msg(&*p),
                };
                let _ = ctrl.send(Event::Finished { tid, panic });
            })
            .expect("spawn model vthread");
        self.handles.push(h);
    }

    /// Release the scheduler (spawned threads only start running now) and
    /// block until every virtual thread has finished. The body's code after
    /// `join` — final assertions — runs unscheduled against the settled
    /// state.
    pub fn join(&mut self) {
        if !self.joined {
            self.joined = true;
            let _ = self.ctrl.send(Event::BodyReady {
                spawned: self.spawned,
            });
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// One thread's pending operation as the scheduler sees it: `obj` is the
/// small first-seen ordinal, `enabled` is the ownership model's verdict,
/// `try_ok` the outcome a try-op would be dictated (meaningless otherwise).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PendingOp {
    pub tid: usize,
    pub kind: OpKind,
    pub obj: u32,
    pub enabled: bool,
    pub try_ok: bool,
}

/// Scheduling policy driving one execution. `choose` returns the tid to run
/// next (must be enabled), or `None` to prune the execution (sleep sets /
/// replay divergence) — the runtime then aborts all threads quietly.
pub(crate) trait Scheduler {
    fn choose(
        &mut self,
        step: usize,
        prev: Option<usize>,
        run_len: usize,
        pending: &[PendingOp],
    ) -> Option<usize>;
}

pub(crate) struct ExecOutcome {
    pub steps: Vec<Step>,
    /// First failure observed: a virtual-thread panic, a body-assert panic,
    /// a deadlock, or the step cap. `None` for clean or pruned executions.
    pub failure: Option<String>,
    pub pruned: bool,
}

/// The controller's model of one object: a lock's ownership, or a
/// parker's token. Atomics/yields carry no state; mutexes only ever set
/// `excl`.
#[derive(Default)]
struct LockState {
    excl: bool,
    shared: u32,
    token: bool,
}

fn classify(kind: OpKind, st: &LockState) -> (bool, bool) {
    match kind {
        OpKind::MutexLock => (!st.excl, true),
        OpKind::Park => (st.token, true),
        OpKind::RwShared => (!st.excl, true),
        OpKind::RwExclusive => (!st.excl && st.shared == 0, true),
        OpKind::MutexTryLock => (true, !st.excl),
        OpKind::RwTryShared => (true, !st.excl),
        OpKind::RwTryExclusive => (true, !st.excl && st.shared == 0),
        _ => (true, true),
    }
}

fn apply_acquire(st: &mut LockState, kind: OpKind, ok: bool) {
    match kind {
        OpKind::MutexLock | OpKind::RwExclusive => st.excl = true,
        OpKind::RwShared => st.shared += 1,
        OpKind::MutexTryLock | OpKind::RwTryExclusive if ok => st.excl = true,
        OpKind::RwTryShared if ok => st.shared += 1,
        OpKind::Unpark => st.token = true,
        OpKind::Park | OpKind::ParkTimeout => st.token = false,
        _ => {}
    }
}

fn apply_release(st: &mut LockState, kind: OpKind) {
    match kind {
        OpKind::MutexUnlock | OpKind::RwUnlockExclusive => st.excl = false,
        OpKind::RwUnlockShared => st.shared = st.shared.saturating_sub(1),
        OpKind::RwDowngrade => {
            st.excl = false;
            st.shared += 1;
        }
        _ => {}
    }
}

enum TState {
    /// Spawned, grant channel live, not yet at a schedule point.
    Starting,
    /// Blocked at a schedule point.
    Waiting(Op),
    /// Granted a step; running until its next event.
    Running,
    Done,
}

struct Thr {
    grant: Sender<Grant>,
    state: TState,
}

/// Execute one schedule of `body` under `scheduler`. Deterministic given the
/// scheduler's decisions: object ids are first-seen ordinals, thread ids are
/// spawn order, and all cross-thread communication is the single event
/// channel.
pub(crate) fn run_schedule<F>(
    body: Arc<F>,
    scheduler: &mut dyn Scheduler,
    max_steps: usize,
) -> ExecOutcome
where
    F: Fn(&mut Env) + Send + Sync + 'static,
{
    init_quiet_panics();
    let (tx, rx) = channel::<Event>();
    let body_tx = tx.clone();
    drop(tx);
    let forced_timeouts = Arc::new(AtomicUsize::new(0));
    let body_forced = forced_timeouts.clone();
    let body_handle = std::thread::Builder::new()
        .name("model-body".into())
        .spawn(move || {
            QUIET.with(|q| q.set(true));
            let mut env = Env::new(body_tx.clone(), body_forced);
            let res = catch_unwind(AssertUnwindSafe(|| (*body)(&mut env)));
            let panic = match res {
                Ok(()) if !env.joined && env.spawned > 0 => {
                    Some("harness body returned without calling env.join()".to_string())
                }
                Ok(()) => None,
                Err(p) => payload_msg(&*p),
            };
            let _ = body_tx.send(Event::BodyDone { panic });
            // If the body died before join(), reap the still-live vthreads
            // here (the controller aborts them on seeing BodyDone).
            for h in env.handles.drain(..) {
                let _ = h.join();
            }
        })
        .expect("spawn model body");

    let mut threads: Vec<Thr> = Vec::new();
    let mut locks: HashMap<u32, LockState> = HashMap::new();
    let mut objs: HashMap<usize, u32> = HashMap::new();
    let mut steps: Vec<Step> = Vec::new();
    let mut failure: Option<String> = None;
    let mut pruned = false;
    let mut body_done: Option<Option<String>> = None;
    let mut expected: Option<usize> = None;

    fn small(objs: &mut HashMap<usize, u32>, raw: usize) -> u32 {
        let next = objs.len() as u32;
        *objs.entry(raw).or_insert(next)
    }

    let recv = |rx: &Receiver<Event>| rx.recv().expect("model: event channel closed");

    // Phase 1: wait for every spawned thread to reach its start point and
    // the body to park in join() — or for the body to die early.
    loop {
        match recv(&rx) {
            Event::Spawned { tid, grant } => {
                assert_eq!(tid, threads.len(), "model: spawn order violated");
                threads.push(Thr {
                    grant,
                    state: TState::Starting,
                });
            }
            Event::At { tid, op } => threads[tid].state = TState::Waiting(op),
            Event::BodyReady { spawned } => expected = Some(spawned),
            Event::BodyDone { panic } => {
                body_done = Some(panic);
                break;
            }
            Event::Finished { tid, .. } => threads[tid].state = TState::Done,
            Event::ReleaseEv { .. } => unreachable!("model: release before first grant"),
        }
        if let Some(n) = expected {
            if threads.len() == n
                && threads
                    .iter()
                    .all(|t| matches!(t.state, TState::Waiting(_) | TState::Done))
            {
                break;
            }
        }
    }

    if let Some(panic) = &body_done {
        // Body died before scheduling began (setup panic, or returned
        // without join): abort whatever was spawned.
        failure = panic.clone().or_else(|| {
            (!threads.is_empty())
                .then(|| "harness body exited before scheduling began".to_string())
        });
        abort_all(&mut threads, &rx);
    } else {
        // Phase 2: the scheduling loop.
        let mut prev: Option<usize> = None;
        let mut run_len = 0usize;
        while threads.iter().any(|t| !matches!(t.state, TState::Done)) {
            let pending: Vec<PendingOp> = threads
                .iter()
                .enumerate()
                .filter_map(|(tid, t)| match t.state {
                    TState::Waiting(op) => {
                        let sid = small(&mut objs, op.obj);
                        let st = locks.entry(sid).or_default();
                        let (enabled, try_ok) = classify(op.kind, st);
                        Some(PendingOp {
                            tid,
                            kind: op.kind,
                            obj: sid,
                            enabled,
                            try_ok,
                        })
                    }
                    _ => None,
                })
                .collect();
            if !pending.iter().any(|p| p.enabled) {
                failure = Some(format!("deadlock: {}", describe(&pending)));
                abort_all(&mut threads, &rx);
                break;
            }
            if steps.len() >= max_steps {
                failure = Some(format!(
                    "step cap ({max_steps}) exceeded — livelock or runaway schedule"
                ));
                abort_all(&mut threads, &rx);
                break;
            }
            let Some(tid) = scheduler.choose(steps.len(), prev, run_len, &pending) else {
                pruned = true;
                abort_all(&mut threads, &rx);
                break;
            };
            let p = *pending
                .iter()
                .find(|p| p.tid == tid)
                .expect("model: scheduler chose a thread with no pending op");
            assert!(p.enabled, "model: scheduler chose a disabled thread");
            let tokenless_park = |q: &PendingOp| {
                q.kind == OpKind::ParkTimeout && !locks.get(&q.obj).is_some_and(|st| st.token)
            };
            if pending.iter().filter(|q| q.enabled).all(tokenless_park) {
                // ordering: read by the body only after `join`.
                forced_timeouts.fetch_add(1, Ordering::Relaxed);
            }
            apply_acquire(locks.entry(p.obj).or_default(), p.kind, p.try_ok);
            threads[tid].state = TState::Running;
            threads[tid]
                .grant
                .send(Grant::Run { try_ok: p.try_ok })
                .expect("model: grant channel closed");
            steps.push(Step {
                tid,
                kind: p.kind,
                obj: p.obj,
                ok: p.try_ok,
            });
            run_len = if prev == Some(tid) { run_len + 1 } else { 1 };
            prev = Some(tid);
            // Run the granted thread to its next schedule point, folding in
            // the releases it performs along the way.
            loop {
                match recv(&rx) {
                    Event::ReleaseEv { tid: rtid, op } => {
                        debug_assert_eq!(rtid, tid, "model: release from a non-running thread");
                        let sid = small(&mut objs, op.obj);
                        apply_release(locks.entry(sid).or_default(), op.kind);
                    }
                    Event::At { tid: atid, op } => {
                        debug_assert_eq!(atid, tid, "model: event from a non-running thread");
                        threads[atid].state = TState::Waiting(op);
                        break;
                    }
                    Event::Finished { tid: ftid, panic } => {
                        threads[ftid].state = TState::Done;
                        if failure.is_none() {
                            failure = panic;
                        }
                        break;
                    }
                    _ => unreachable!("model: unexpected event during quantum"),
                }
            }
            if failure.is_some() {
                abort_all(&mut threads, &rx);
                break;
            }
        }
    }

    // Phase 3: wait for the body (its join() returns once all vthreads are
    // done, then its final assertions run unscheduled).
    if body_done.is_none() {
        loop {
            // Non-BodyDone events here are releases from the body's own
            // teardown path: harmless, drain and keep waiting.
            if let Event::BodyDone { panic } = recv(&rx) {
                body_done = Some(panic);
                break;
            }
        }
    }
    // A pruned execution aborts its threads mid-flight, so the body's
    // post-join assertions ran against a half-done state: not evidence.
    if failure.is_none() && !pruned {
        failure = body_done.flatten();
    }
    let _ = body_handle.join();
    ExecOutcome {
        steps,
        failure,
        pruned,
    }
}

/// Unwind every live virtual thread and wait for all of them to finish.
/// Called only when no thread holds a grant (all Waiting/Starting/Done).
fn abort_all(threads: &mut [Thr], rx: &Receiver<Event>) {
    for t in threads.iter() {
        if matches!(t.state, TState::Waiting(_)) {
            let _ = t.grant.send(Grant::Abort);
        }
    }
    while threads.iter().any(|t| !matches!(t.state, TState::Done)) {
        match rx.recv() {
            // A Starting thread reaches its first schedule point mid-abort:
            // turn it right around.
            Ok(Event::At { tid, .. }) => {
                let _ = threads[tid].grant.send(Grant::Abort);
            }
            Ok(Event::Finished { tid, .. }) => threads[tid].state = TState::Done,
            Ok(_) => {}
            Err(_) => break,
        }
    }
}

fn describe(pending: &[PendingOp]) -> String {
    pending
        .iter()
        .map(|p| format!("t{} blocked at {}(obj{})", p.tid, p.kind.name(), p.obj))
        .collect::<Vec<_>>()
        .join("; ")
}
