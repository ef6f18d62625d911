//! Toy harnesses: known-racy and known-correct counters, three races the
//! buffer pool shipped with or would ship with without its re-checks, and
//! a lock wait whose grant forgets the wakeup, reduced to a few lines each.
//!
//! These exercise the checker itself (facade atomics, `yield_point!`, mutex
//! modeling, failure capture) with a state space small enough to enumerate
//! by hand, and they anchor the determinism tests: their failure messages
//! contain no addresses, paths or iteration-order artifacts, so the whole
//! trace must be byte-identical run to run.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use ariesim_common::msync::AtomicU32;
use parking_lot::Parker;

use crate::runtime::Env;

/// Deliberate race: the increment is a separate facade load and store, so
/// two threads interleaving between them lose an update.
pub fn lost_update(env: &mut Env) {
    let c = Arc::new(AtomicU32::new(0));
    for _ in 0..2 {
        let c = c.clone();
        env.spawn(move || {
            // ordering: the race under test is the non-atomicity of the
            // load/store pair, not the memory orders.
            let v = c.load(Ordering::Acquire);
            ariesim_common::yield_point!();
            // ordering: see the load above.
            c.store(v + 1, Ordering::Release);
        });
    }
    env.join();
    // ordering: single-threaded again after join.
    assert_eq!(c.load(Ordering::Acquire), 2, "lost update");
}

/// The correct twin: the read-modify-write runs under a mutex. Exploration
/// must complete without a failure.
pub fn mutex_counter(env: &mut Env) {
    let c = Arc::new(parking_lot::Mutex::new(0u32));
    for _ in 0..2 {
        let c = c.clone();
        env.spawn(move || {
            let mut g = c.lock();
            *g += 1;
        });
    }
    env.join();
    assert_eq!(*c.lock(), 2, "mutex counter lost an update");
}

/// The page both toy pool races fight over, and "no page".
const PAGE: u32 = 7;
const NO_PAGE: u32 = 0;

/// A two-slot page table: `map` says which slot caches [`PAGE`], `resident`
/// what each slot holds, `claimed` which slots a miss has taken as victim.
#[derive(Default)]
struct TwoSlots {
    map: Option<usize>,
    resident: [u32; 2],
    claimed: [bool; 2],
}

/// Deliberate race, the shape of the pool's historical double install: a
/// miss claims a victim slot under the table mutex, drops the mutex for its
/// I/O, and on re-lock installs **without re-checking** whether a racing
/// miss already mapped the page. Two misses then cache the page in two
/// slots, one of them unreachable — the orphan `validate_mappings` hunts
/// for in the real pool (whose install re-checks the table).
pub fn install_no_recheck(env: &mut Env) {
    let table = Arc::new(parking_lot::Mutex::new(TwoSlots::default()));
    for _ in 0..2 {
        let table = table.clone();
        env.spawn(move || {
            let slot = {
                let mut t = table.lock();
                if t.map.is_some() {
                    return; // hit
                }
                let s = usize::from(t.claimed[0]);
                t.claimed[s] = true;
                s
            };
            // The victim write-back and the page read happen here.
            ariesim_common::yield_point!();
            let mut t = table.lock();
            t.map = Some(slot);
            t.resident[slot] = PAGE;
        });
    }
    env.join();
    let t = table.lock();
    for (slot, &page) in t.resident.iter().enumerate() {
        assert!(
            page == NO_PAGE || t.map == Some(slot),
            "orphaned frame: page {page} resident in slot {slot} without a table entry"
        );
    }
}

/// Deliberate race, the shape of the pool's historical stale pin: a loader
/// maps the page to a frame before its read, the read fails, and the loader
/// unwinds the mapping and clears the frame's owner word — all under the
/// frame latch. A reader that found the short-lived mapping latches the
/// frame afterwards **without validating the owner word** and reads a frame
/// that never held the page (the real pool's latch path checks the owner
/// and retries the fix).
pub fn latch_no_owner_check(env: &mut Env) {
    let mapped = Arc::new(parking_lot::Mutex::new(false));
    let owner = Arc::new(AtomicU32::new(NO_PAGE));
    let frame = Arc::new(parking_lot::RwLock::new(NO_PAGE));
    {
        let (mapped, owner, frame) = (mapped.clone(), owner.clone(), frame.clone());
        env.spawn(move || {
            let _load_latch = frame.write();
            *mapped.lock() = true;
            // ordering: Release/Acquire as on the pool's owner word; the
            // race under test is the reader never loading it.
            owner.store(PAGE, Ordering::Release);
            // The read fails here: unwind the install.
            *mapped.lock() = false;
            // ordering: see the store above.
            owner.store(NO_PAGE, Ordering::Release);
        });
    }
    env.spawn(move || {
        if !*mapped.lock() {
            return; // miss: nothing pinned
        }
        let image = frame.read();
        assert_eq!(*image, PAGE, "stale pin: latched a frame that does not hold the page");
    });
    env.join();
    // ordering: single-threaded again after join.
    assert_eq!(owner.load(Ordering::Acquire), NO_PAGE, "unwind left an owner");
}

/// Deliberate race, the shape of a page-map hit without the owner check: a
/// reader reads the page's map entry, pins the frame and latches it
/// **without validating the owner word**, while an evictor, holding the
/// frame's write latch and seeing no pin, clears the entry and loads
/// another page into the frame. The reader then reads a page it never
/// fixed (the real pool's latch path checks the owner and retries the
/// fix).
pub fn hit_no_owner_check(env: &mut Env) {
    const OTHER: u32 = 8;
    let entry = Arc::new(AtomicU32::new(1));
    let pins = Arc::new(AtomicU32::new(0));
    let frame = Arc::new(parking_lot::RwLock::new(PAGE));
    {
        let (entry, pins, frame) = (entry.clone(), pins.clone(), frame.clone());
        env.spawn(move || {
            let mut image = frame.write();
            // ordering: Acquire/AcqRel as on the pool's pin word; the race
            // under test is the reader never loading the owner.
            if pins.load(Ordering::Acquire) != 0 {
                return; // pinned: not a victim
            }
            // ordering: Release, as the pool's map entry stores.
            entry.store(0, Ordering::Release);
            *image = OTHER;
        });
    }
    env.spawn(move || {
        // ordering: Acquire, as the pool's map entry loads.
        if entry.load(Ordering::Acquire) == 0 {
            return; // miss
        }
        // ordering: see the evictor's pin load.
        pins.fetch_add(1, Ordering::AcqRel);
        let image = frame.read();
        assert_eq!(*image, PAGE, "stale hit: latched a frame an eviction took");
    });
    env.join();
}

/// The lock table's wait/grant handshake, reduced to one name.
struct OneName {
    held: bool,
    /// The queued waiter's parker.
    waiter: Option<Arc<Parker>>,
}

/// Deliberate race, a grant that forgets the wakeup: a waiter queues its
/// parker on a held name and parks, with a timeout as the lock manager's
/// waiters do, until its queue entry is gone; the holder's release grants
/// it by dequeuing it **without unparking** it. A waiter that parked before
/// the grant wakes only when its timeout runs out (the real lock manager
/// unparks every waiter it grants), which the checker counts as a forced
/// timeout.
pub fn grant_without_unpark(env: &mut Env) {
    let table = Arc::new(parking_lot::Mutex::new(OneName {
        held: true,
        waiter: None,
    }));
    {
        let table = table.clone();
        env.spawn(move || {
            let me = Parker::current();
            {
                let mut t = table.lock();
                if !t.held {
                    return; // granted at once
                }
                t.waiter = Some(me.clone());
            }
            while table.lock().waiter.is_some() {
                me.park_timeout(Duration::from_secs(30));
            }
        });
    }
    env.spawn(move || {
        let mut t = table.lock();
        t.held = false;
        // The grant: the waiter leaves the queue, and is never unparked.
        t.waiter.take();
    });
    env.join();
    assert_eq!(
        env.forced_timeouts(),
        0,
        "lost wakeup: a waiter slept out its timeout"
    );
}
