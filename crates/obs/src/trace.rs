//! Structured event tracing: a fixed-capacity, lock-free ring buffer.
//!
//! Writers claim a global sequence number with one `fetch_add` and publish
//! into `slot = seq % capacity` under a per-slot seqlock (odd = write in
//! progress). Readers copy a slot's words and accept the copy only if the
//! slot's sequence word was even and unchanged around the copy. A reader
//! racing a wrapping writer therefore drops that slot instead of observing
//! a torn event; every word is an `AtomicU64`, so there is no undefined
//! behaviour anywhere, and recording never blocks or allocates.
//!
//! The ring answers the question counters cannot: *which interleaving*
//! happened. A [`EventRing::snapshot`] of a Figure 1/3/11 run reads event
//! by event — latch hand-offs, lock waits, SMO windows, traversal restarts.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// What happened. Discriminants are stored in the ring's slots.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum EventKind {
    /// A page latch was granted (`page`, `mode`).
    LatchAcquire = 0,
    /// A page latch was released (`page`, `mode`).
    LatchRelease = 1,
    /// A lock was granted (`txn`, `aux` = lock-name hash).
    LockGrant = 2,
    /// An unconditional lock request started waiting.
    LockWait = 3,
    /// A conditional lock request was denied (the §2.2 release-latches path).
    LockDeny = 4,
    /// A structure modification operation began (`page` = SMO root page).
    SmoBegin = 5,
    /// A structure modification operation completed.
    SmoEnd = 6,
    /// A traversal restarted after the Figure 4 ambiguity test (`page`).
    TraversalRestart = 7,
    /// The log was forced (`aux` = bytes made durable).
    LogForce = 8,
    /// A CLR (or dummy CLR) was written (`aux` = its LSN).
    ClrWrite = 9,
    /// A tree latch was acquired (`mode`; `page` unused).
    TreeLatchAcquire = 10,
    /// A dirty page was written back to disk by the pool (eviction or
    /// flush). `page` is the page, `aux` its `page_lsn`, and `txn` carries
    /// the log's durable LSN at the instant of the write — so `txn >= aux`
    /// on every such event *is* the WAL rule, checkable from a snapshot.
    PageWriteBack = 11,
}

impl EventKind {
    fn from_u8(v: u8) -> Option<EventKind> {
        Some(match v {
            0 => EventKind::LatchAcquire,
            1 => EventKind::LatchRelease,
            2 => EventKind::LockGrant,
            3 => EventKind::LockWait,
            4 => EventKind::LockDeny,
            5 => EventKind::SmoBegin,
            6 => EventKind::SmoEnd,
            7 => EventKind::TraversalRestart,
            8 => EventKind::LogForce,
            9 => EventKind::ClrWrite,
            10 => EventKind::TreeLatchAcquire,
            11 => EventKind::PageWriteBack,
            _ => return None,
        })
    }
}

/// Latch/lock mode tag carried by latch and lock events.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum ModeTag {
    None = 0,
    S = 1,
    X = 2,
    Instant = 3,
}

impl ModeTag {
    fn from_u8(v: u8) -> ModeTag {
        match v {
            1 => ModeTag::S,
            2 => ModeTag::X,
            3 => ModeTag::Instant,
            _ => ModeTag::None,
        }
    }
}

/// A decoded trace event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Event {
    /// Global order of the event (gaps mean the ring wrapped).
    pub seq: u64,
    /// Nanoseconds since the ring was created.
    pub ts_ns: u64,
    /// OS-assigned-ish thread tag (stable within a process run).
    pub thread: u32,
    /// Transaction the event belongs to; 0 when unknown (latch layer).
    pub txn: u64,
    pub kind: EventKind,
    pub mode: ModeTag,
    /// Page id the event concerns; 0 when not applicable.
    pub page: u32,
    /// Kind-specific payload (LSN, byte count, lock-name hash).
    pub aux: u64,
}

const SLOT_WORDS: usize = 5;

struct Slot {
    /// Seqlock word: `2*seq + 1` while writing, `2*seq + 2` when published.
    seq: AtomicU64,
    words: [AtomicU64; SLOT_WORDS],
}

thread_local! {
    static THREAD_TAG: u32 = {
        use std::sync::atomic::AtomicU32;
        static NEXT: AtomicU32 = AtomicU32::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

/// Small dense per-process thread tag (thread ids are unwieldy in events).
pub fn thread_tag() -> u32 {
    THREAD_TAG.with(|t| *t)
}

/// The ring. Capacity is rounded up to a power of two.
pub struct EventRing {
    slots: Vec<Slot>,
    mask: u64,
    cursor: AtomicU64,
    epoch: Instant,
}

impl EventRing {
    pub fn new(capacity: usize) -> EventRing {
        let cap = capacity.next_power_of_two().max(8);
        EventRing {
            slots: (0..cap)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    words: [const { AtomicU64::new(0) }; SLOT_WORDS],
                })
                .collect(),
            mask: cap as u64 - 1,
            cursor: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of events ever recorded (≥ number still resident).
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Record one event. Lock-free: one fetch_add + seven relaxed stores.
    pub fn push(&self, kind: EventKind, mode: ModeTag, txn: u64, page: u32, aux: u64) {
        let seq = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq & self.mask) as usize];
        let ts = self.epoch.elapsed().as_nanos() as u64;
        let meta = (thread_tag() as u64) << 32 | (kind as u64) << 8 | mode as u64;
        slot.seq.store(2 * seq + 1, Ordering::Release);
        slot.words[0].store(ts, Ordering::Relaxed);
        slot.words[1].store(meta, Ordering::Relaxed);
        slot.words[2].store(txn, Ordering::Relaxed);
        slot.words[3].store(page as u64, Ordering::Relaxed);
        slot.words[4].store(aux, Ordering::Relaxed);
        slot.seq.store(2 * seq + 2, Ordering::Release);
    }

    /// Copy out every resident, fully-published event, oldest first.
    /// Events being overwritten during the copy are skipped, not torn.
    pub fn snapshot(&self) -> Vec<Event> {
        self.snapshot_with_stats().0
    }

    /// [`snapshot`](Self::snapshot) plus a [`RingStats`] accounting for
    /// what the snapshot could *not* see: events overwritten by ring wrap
    /// and slots skipped because a writer raced the copy, so a reader can
    /// say "incomplete" instead of silently under-reporting.
    pub fn snapshot_with_stats(&self) -> (Vec<Event>, RingStats) {
        let mut out = Vec::with_capacity(self.slots.len());
        let mut torn = 0u64;
        for slot in &self.slots {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 {
                continue; // never written
            }
            if s1 % 2 == 1 {
                torn += 1; // mid-write
                continue;
            }
            let words: [u64; SLOT_WORDS] =
                std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
            let s2 = slot.seq.load(Ordering::Acquire);
            if s1 != s2 {
                torn += 1; // overwritten while copying
                continue;
            }
            let seq = (s1 - 2) / 2;
            let meta = words[1];
            let Some(kind) = EventKind::from_u8((meta >> 8) as u8) else {
                torn += 1; // undecodable kind: treat as a torn slot
                continue;
            };
            out.push(Event {
                seq,
                ts_ns: words[0],
                thread: (meta >> 32) as u32,
                txn: words[2],
                kind,
                mode: ModeTag::from_u8(meta as u8),
                page: words[3] as u32,
                aux: words[4],
            });
        }
        out.sort_by_key(|e| e.seq);
        let recorded = self.recorded();
        let stats = RingStats {
            recorded,
            capacity: self.capacity() as u64,
            resident: out.len() as u64,
            dropped: recorded.saturating_sub(self.capacity() as u64),
            torn,
        };
        (out, stats)
    }

    pub fn reset(&self) {
        // Not atomic w.r.t. concurrent pushes; callers quiesce first.
        self.cursor.store(0, Ordering::Relaxed);
        for s in &self.slots {
            s.seq.store(0, Ordering::Relaxed);
        }
    }
}

/// Completeness accounting for one ring snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RingStats {
    /// Events ever pushed into the ring.
    pub recorded: u64,
    /// Ring capacity in slots.
    pub capacity: u64,
    /// Events the snapshot actually returned.
    pub resident: u64,
    /// Events lost to ring wrap (`recorded - capacity`, clamped at 0).
    pub dropped: u64,
    /// Slots skipped because a writer raced the copy (mid-write or
    /// overwritten while copying).
    pub torn: u64,
}

impl RingStats {
    /// Whether the snapshot saw every event ever recorded.
    pub fn complete(&self) -> bool {
        self.dropped == 0 && self.torn == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_snapshot_in_order() {
        let r = EventRing::new(16);
        r.push(EventKind::LatchAcquire, ModeTag::S, 1, 42, 0);
        r.push(EventKind::LockWait, ModeTag::X, 1, 0, 7);
        r.push(EventKind::LatchRelease, ModeTag::S, 1, 42, 0);
        let evs = r.snapshot();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].kind, EventKind::LatchAcquire);
        assert_eq!(evs[0].page, 42);
        assert_eq!(evs[1].kind, EventKind::LockWait);
        assert_eq!(evs[1].aux, 7);
        assert!(evs[0].seq < evs[1].seq && evs[1].seq < evs[2].seq);
    }

    #[test]
    fn ring_wraps_keeping_newest() {
        let r = EventRing::new(8);
        for i in 0..20u64 {
            r.push(EventKind::LogForce, ModeTag::None, 0, 0, i);
        }
        let evs = r.snapshot();
        assert_eq!(evs.len(), 8);
        assert_eq!(evs.first().unwrap().aux, 12);
        assert_eq!(evs.last().unwrap().aux, 19);
        assert_eq!(r.recorded(), 20);
    }

    #[test]
    fn wrap_reports_dropped_events() {
        let r = EventRing::new(8);
        for i in 0..20u64 {
            r.push(EventKind::LogForce, ModeTag::None, 0, 0, i);
        }
        let (evs, stats) = r.snapshot_with_stats();
        assert_eq!(evs.len(), 8);
        assert_eq!(stats.recorded, 20);
        assert_eq!(stats.dropped, 12);
        assert_eq!(stats.resident, 8);
        assert!(!stats.complete());
    }

    #[test]
    fn unwrapped_ring_is_complete() {
        let r = EventRing::new(8);
        r.push(EventKind::LockGrant, ModeTag::S, 1, 0, 0);
        let (_, stats) = r.snapshot_with_stats();
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.torn, 0);
        assert!(stats.complete());
    }

    #[test]
    fn concurrent_pushes_never_tear() {
        let r = EventRing::new(64);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let r = &r;
                s.spawn(move || {
                    for i in 0..5000 {
                        r.push(EventKind::LockGrant, ModeTag::S, t, i as u32, i);
                    }
                });
            }
        });
        assert_eq!(r.recorded(), 20_000);
        for e in r.snapshot() {
            // Every surviving event must be internally consistent.
            assert_eq!(e.kind, EventKind::LockGrant);
            assert_eq!(e.aux, e.page as u64);
        }
    }

    #[test]
    fn thread_tags_are_distinct() {
        let a = thread_tag();
        let b = std::thread::spawn(thread_tag).join().unwrap();
        assert_ne!(a, b);
    }
}
