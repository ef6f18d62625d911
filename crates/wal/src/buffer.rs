//! Lock-free log-buffer ring: the append side of the WAL pipeline.
//!
//! Appenders claim a byte range with one `fetch_add` on `reserved` (the
//! claim *is* the LSN assignment — LSNs are byte offsets), copy their frame
//! into the ring without any lock, and publish completion by adding the
//! byte count to the per-segment `filled` counters. The drain side (a
//! group-commit leader) computes the longest *fully
//! published* prefix — no holes — and copies it out; `drained` trails
//! behind and bounds how far ahead `reserved` may run (backpressure).
//!
//! # Counter design
//!
//! `filled[s]` is **cumulative over the whole log**, never reset per lap:
//! after `n` complete laps plus a partial lap reaching byte `off` of the
//! ring, segment `s` holds exactly
//!
//! ```text
//! expected(s, base+off) = n*seg + clamp(off - s*seg, 0, seg)
//! ```
//!
//! published bytes. Resetting per lap would race a slow publisher from lap
//! `n` against a fast one from lap `n+1`; a cumulative counter makes their
//! contributions commute.
//!
//! # The published-prefix snapshot rule
//!
//! `published_to` walks segment windows and advances over a window iff
//! `filled[s]` equals the full-window expectation. Comparing against an
//! arbitrary target is unsound — a hole below the target can be masked by
//! bytes published *above* it in the same segment. Two rules make the
//! equality test exact:
//!
//! * **Snapshot clamp (intra-lap):** the target is clamped to a snapshot
//!   of `reserved` taken **after** the `filled` read (the Acquire on
//!   `filled` forbids hoisting the `reserved` load above it), so every
//!   contribution in the `filled` snapshot came from a reservation made
//!   before the `reserved` read.
//! * **Segment-floor backpressure (cross-lap):** [`LogBuffer::has_space`]
//!   holds an appender out of a segment's *next lap* until the drain
//!   watermark has left that segment entirely (`end ≤ seg_floor(drained)
//!   + cap`, not `end ≤ drained + cap`). Without it, a publisher lapping
//!   the segment that still contains the watermark bumps `filled[s]` past
//!   the current-lap expectation and the equality can never hold again:
//!   the drain watermark freezes, the ring fills, and every appender
//!   spins in `has_space` — a permanent livelock, not a stale snapshot.
//!   The floor costs at most one segment of usable capacity, which is why
//!   a single reservation must fit in `cap - seg` bytes
//!   ([`LogBuffer::max_reservation`]).
//!
//! With both rules, at target `min(window_end, reserved)` equality holds
//! iff there is no hole. Failure is conservative: the caller retries
//! (spin-to-stable watermark).

use ariesim_common::msync::AtomicU64;
use std::sync::atomic::Ordering;

/// Raw ring storage. Appenders write disjoint reserved ranges concurrently
/// while the drainer reads only fully published (and therefore no longer
/// written) ranges, so unsynchronized byte access is race-free by
/// construction; the synchronization lives in `reserved`/`filled`/`drained`.
struct Slots {
    ptr: *mut u8,
    len: usize,
}

// Safety: see `Slots` — all concurrent access is to disjoint byte ranges,
// coordinated through the atomic counters.
unsafe impl Send for Slots {}
unsafe impl Sync for Slots {}

impl Drop for Slots {
    fn drop(&mut self) {
        // Reconstruct the Box allocated in `LogBuffer::new`.
        unsafe {
            drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                self.ptr, self.len,
            )));
        }
    }
}

/// Bounded in-memory segment ring for lock-free log appends.
pub struct LogBuffer {
    /// LSN mapped to ring offset 0 at open; fixed for the buffer's life.
    base: u64,
    /// Segment size in bytes (power of two).
    seg: u64,
    /// Total capacity = seg * nsegs (power of two).
    cap: u64,
    slots: Slots,
    /// Next LSN to hand out. Claiming a range is one `fetch_add` here.
    reserved: AtomicU64,
    /// LSN below which the drainer has copied everything out; appenders may
    /// not reserve past `drained + cap` (backpressure).
    drained: AtomicU64,
    /// Cumulative published-bytes counter per segment; see module docs.
    filled: Vec<AtomicU64>,
}

impl LogBuffer {
    /// Create a ring whose offset 0 corresponds to LSN `base`.
    pub fn new(base: u64, seg_bytes: u64, nsegs: u64) -> LogBuffer {
        assert!(seg_bytes.is_power_of_two(), "segment size must be 2^k");
        assert!(nsegs.is_power_of_two(), "segment count must be 2^k");
        let cap = seg_bytes * nsegs;
        let slab = vec![0u8; cap as usize].into_boxed_slice();
        let len = slab.len();
        let ptr = Box::into_raw(slab) as *mut u8;
        LogBuffer {
            base,
            seg: seg_bytes,
            cap,
            slots: Slots { ptr, len },
            reserved: AtomicU64::new(base),
            drained: AtomicU64::new(base),
            filled: (0..nsegs).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Ring capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.cap
    }

    /// Claim `len` bytes; returns the start LSN. The caller must wait for
    /// [`LogBuffer::has_space`] before copying in (the claim itself never
    /// blocks — LSN order is decided here, space is awaited after).
    pub fn reserve(&self, len: u64) -> u64 {
        // ordering: Relaxed — the claim only orders the LSN counter itself;
        // the copied bytes are published by the Release in `publish`.
        self.reserved.fetch_add(len, Ordering::Relaxed)
    }

    /// Claim `[start, start+len)` only if `start` is exactly the current
    /// watermark. Used by standby ingest, which must not race appenders: a
    /// concurrent reservation makes the CAS fail and the caller error out.
    pub fn try_reserve_at(&self, start: u64, len: u64) -> bool {
        self.reserved
            // ordering: Relaxed — same claim-only role as `reserve`; the
            // bytes themselves are published through `filled` / `drained`.
            .compare_exchange(start, start + len, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    }

    /// True when the range ending at `end` fits in the ring. The bound is
    /// the *segment floor* of the drain watermark plus the capacity — not
    /// the watermark itself — so no byte of a segment's next lap is written
    /// (and published) while the watermark still sits inside that segment.
    /// See the cross-lap rule in the module docs: admitting such a publish
    /// wedges `published_to` permanently.
    pub fn has_space(&self, end: u64) -> bool {
        // ordering: Acquire pairs with the Release store in `mark_drained`,
        // so overwriting a drained range happens-after its copy-out.
        let d = self.drained.load(Ordering::Acquire);
        end <= d - (d - self.base) % self.seg + self.cap
    }

    /// Largest reservation `has_space` can ever admit: one segment of the
    /// capacity is sacrificed to the cross-lap backpressure rule (module
    /// docs), so callers must bound their frames by `cap - seg`.
    pub fn max_reservation(&self) -> u64 {
        self.cap - self.seg
    }

    /// Current reservation watermark (the next LSN to be handed out).
    pub fn reserved(&self) -> u64 {
        // ordering: Relaxed — a monotone watermark read; any needed
        // happens-before comes from `filled` (see `published_to`).
        self.reserved.load(Ordering::Relaxed)
    }

    /// Current drain watermark.
    pub fn drained(&self) -> u64 {
        // ordering: Acquire pairs with the Release in `mark_drained` so the
        // caller may reuse the space below without racing the copy-out.
        self.drained.load(Ordering::Acquire)
    }

    /// Copy `bytes` into the ring at LSN `start`. The caller must hold the
    /// reservation `[start, start+len)` and have awaited `has_space`.
    pub fn copy_in(&self, start: u64, bytes: &[u8]) {
        debug_assert!(bytes.len() as u64 <= self.cap);
        let mut off = ((start - self.base) & (self.cap - 1)) as usize;
        let mut src = bytes;
        while !src.is_empty() {
            let n = src.len().min(self.cap as usize - off);
            // Safety: the reservation gives this thread exclusive access to
            // these ring bytes until they are published and drained.
            unsafe {
                std::ptr::copy_nonoverlapping(src.as_ptr(), self.slots.ptr.add(off), n);
            }
            src = &src[n..];
            off = 0;
        }
    }

    /// Publish the copied range `[start, start+len)`: add its bytes to the
    /// per-segment counters. A range spanning segment boundaries publishes
    /// each window separately (this is the "torn reservation" the drain
    /// side's spin-to-stable watermark must tolerate).
    pub fn publish(&self, start: u64, len: u64) {
        let mut at = start;
        let end = start + len;
        while at < end {
            let s = self.seg_index(at);
            let window_end = (at - (at - self.base) % self.seg) + self.seg;
            let n = end.min(window_end) - at;
            // ordering: Release publishes the copied bytes to the Acquire
            // load in `published_to`; multiple publishers on one segment
            // form a release sequence headed by each RMW, so an Acquire
            // read of the sum synchronizes with every contributor.
            self.filled[s].fetch_add(n, Ordering::Release);
            at += n;
        }
    }

    /// Largest LSN `p ≥ from` such that every byte in `[from, p)` is
    /// published, computed per the snapshot rule in the module docs. May
    /// conservatively return early; callers retry (spin-to-stable).
    pub fn published_to(&self, from: u64) -> u64 {
        let mut at = from;
        loop {
            let s = self.seg_index(at);
            let window_end = (at - (at - self.base) % self.seg) + self.seg;
            // ordering: Acquire makes the copied bytes of every publisher
            // visible (release-sequence on the fetch_adds) and forbids
            // hoisting the `reserved` load below above this read — the
            // snapshot-order requirement for soundness (module docs).
            let f = self.filled[s].load(Ordering::Acquire);
            // ordering: Relaxed — clamping target; read *after* `filled`.
            let r = self.reserved.load(Ordering::Relaxed);
            let target = window_end.min(r);
            if target <= at {
                return at;
            }
            if f != self.expected(s, target) {
                return at; // hole (or stale snapshot): caller retries
            }
            at = target;
            if target < window_end {
                return at; // reached the reservation watermark
            }
        }
    }

    /// Longest fully published prefix starting at the drain watermark.
    pub fn published(&self) -> u64 {
        self.published_to(self.drained())
    }

    /// Copy the published range `[from, to)` out of the ring into `out`.
    /// Caller must have verified publication (via [`LogBuffer::published_to`])
    /// and be the sole drainer. Call [`LogBuffer::mark_drained`] after the
    /// bytes have been secured (e.g. appended to the durable image).
    pub fn copy_out(&self, from: u64, to: u64, out: &mut Vec<u8>) {
        debug_assert!(to - from <= self.cap);
        let mut at = from;
        while at < to {
            let off = ((at - self.base) & (self.cap - 1)) as usize;
            let n = ((to - at) as usize).min(self.cap as usize - off);
            // Safety: `[from, to)` is published — all writers are done — and
            // not yet drained, so no writer may touch these bytes.
            unsafe {
                out.extend_from_slice(std::slice::from_raw_parts(self.slots.ptr.add(off), n));
            }
            at += n as u64;
        }
    }

    /// Advance the drain watermark to `to`, releasing ring space to
    /// appenders blocked in `has_space`.
    pub fn mark_drained(&self, to: u64) {
        debug_assert!(to >= self.drained());
        // ordering: Release — the copy-out above happens-before any appender
        // that sees the new watermark and reuses the space (Acquire in
        // `has_space`).
        self.drained.store(to, Ordering::Release);
    }

    /// Account for `len` bytes at `start` that bypassed the ring (standby
    /// ingest writes through to the image directly). Keeps the `filled`
    /// bookkeeping consistent so later ring appends still publish cleanly.
    /// Caller must hold the reservation and immediately `mark_drained`.
    pub fn skip(&self, start: u64, len: u64) {
        self.publish(start, len);
    }

    fn seg_index(&self, lsn: u64) -> usize {
        (((lsn - self.base) & (self.cap - 1)) / self.seg) as usize
    }

    /// Cumulative bytes segment `s` must hold once everything below `upto`
    /// is published; see the counter-design section of the module docs.
    fn expected(&self, s: usize, upto: u64) -> u64 {
        let off = upto - self.base;
        let laps = off / self.cap;
        let rem = off % self.cap;
        laps * self.seg + rem.saturating_sub(s as u64 * self.seg).min(self.seg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(b: &LogBuffer) -> Vec<u8> {
        let mut out = Vec::new();
        let from = b.drained();
        let to = b.published_to(from);
        b.copy_out(from, to, &mut out);
        b.mark_drained(to);
        out
    }

    #[test]
    fn expected_math_over_laps() {
        let b = LogBuffer::new(100, 8, 4); // cap 32
        assert_eq!(b.expected(0, 100), 0);
        assert_eq!(b.expected(0, 104), 4);
        assert_eq!(b.expected(0, 108), 8);
        assert_eq!(b.expected(1, 108), 0);
        assert_eq!(b.expected(1, 120), 8);
        assert_eq!(b.expected(3, 132), 8); // one full lap
        assert_eq!(b.expected(0, 136), 12); // lap + 4 into seg 0
        assert_eq!(b.expected(2, 136), 8);
    }

    #[test]
    fn roundtrip_across_wrap() {
        let b = LogBuffer::new(16, 8, 2); // cap 16
        let mut lsn = 16u64;
        let mut all_in = Vec::new();
        let mut all_out = Vec::new();
        for i in 0..10u8 {
            let chunk = vec![i; 5];
            let start = b.reserve(5);
            assert_eq!(start, lsn);
            while !b.has_space(start + 5) {
                all_out.extend_from_slice(&drain_all(&b));
            }
            b.copy_in(start, &chunk);
            b.publish(start, 5);
            all_in.extend_from_slice(&chunk);
            lsn += 5;
        }
        all_out.extend_from_slice(&drain_all(&b));
        assert_eq!(all_out, all_in);
        assert_eq!(b.drained(), lsn);
    }

    #[test]
    fn multi_window_frame_publishes_torn() {
        let b = LogBuffer::new(0, 8, 4);
        let start = b.reserve(20); // spans segments 0,1,2
        b.copy_in(start, &[7u8; 20]);
        // Publish only the first window's worth: prefix must stop there.
        b.publish(start, 8);
        assert_eq!(b.published(), 8);
        b.publish(start + 8, 12);
        assert_eq!(b.published(), 20);
    }

    #[test]
    fn hole_blocks_prefix() {
        let b = LogBuffer::new(0, 8, 4);
        let a = b.reserve(4);
        let c = b.reserve(4);
        b.copy_in(c, &[2u8; 4]);
        b.publish(c, 4); // later range published, earlier is a hole
        assert_eq!(b.published(), 0);
        b.copy_in(a, &[1u8; 4]);
        b.publish(a, 4);
        assert_eq!(b.published(), 8);
        assert_eq!(drain_all(&b), vec![1, 1, 1, 1, 2, 2, 2, 2]);
    }

    #[test]
    fn concurrent_publish_stress() {
        let b = std::sync::Arc::new(LogBuffer::new(0, 1 << 10, 8));
        let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let drainer = {
            let b = b.clone();
            let done = done.clone();
            std::thread::spawn(move || {
                let mut out = Vec::new();
                loop {
                    let from = b.drained();
                    let to = b.published_to(from);
                    if to > from {
                        b.copy_out(from, to, &mut out);
                        b.mark_drained(to);
                    } else if done.load(std::sync::atomic::Ordering::Acquire)
                        && b.drained() == b.reserved()
                    {
                        return out;
                    } else {
                        std::thread::yield_now();
                    }
                }
            })
        };
        std::thread::scope(|s| {
            for t in 0..4u8 {
                let b = &b;
                s.spawn(move || {
                    for i in 0..200u32 {
                        let len = 1 + ((t as u64 * 31 + i as u64 * 7) % 96);
                        let start = b.reserve(len);
                        while !b.has_space(start + len) {
                            std::thread::yield_now();
                        }
                        let chunk = vec![t; len as usize];
                        b.copy_in(start, &chunk);
                        b.publish(start, len);
                    }
                });
            }
        });
        done.store(true, std::sync::atomic::Ordering::Release);
        let out = drainer.join().unwrap();
        assert_eq!(out.len() as u64, b.reserved());
        // Every thread's bytes all arrived (ranges are contiguous per
        // reservation, so counting per-thread bytes suffices).
        let mut counts = [0u64; 4];
        for byte in &out {
            counts[*byte as usize] += 1;
        }
        for (t, n) in counts.iter().enumerate() {
            let expect: u64 = (0..200u32)
                .map(|i| 1 + ((t as u64 * 31 + i as u64 * 7) % 96))
                .sum();
            assert_eq!(*n, expect, "thread {t} byte count");
        }
    }

    #[test]
    fn next_lap_waits_for_drain_to_leave_segment() {
        // Regression: the cross-lap wedge. With plain `end <= drained + cap`
        // backpressure, a reservation reaching into segment 0's second lap
        // while the drain watermark sat mid-way through segment 0's first
        // lap would publish into `filled[0]`, overshooting the first-lap
        // expectation; `published_to` then returns the watermark forever,
        // the ring never frees space, and every appender livelocks in
        // `has_space`. (First hit by a read-mostly workload whose commits
        // no longer force the log, letting the ring lag a full lap.)
        let b = LogBuffer::new(16, 8, 2); // windows [16,24) [24,32), cap 16
        let s0 = b.reserve(16);
        b.copy_in(s0, &[1u8; 16]);
        b.publish(s0, 16);
        assert_eq!(b.published_to(16), 32);
        // Drain only half of segment 0's window: watermark mid-window.
        let mut out = Vec::new();
        b.copy_out(16, 20, &mut out);
        b.mark_drained(20);
        // [32,36) is segment 0, lap 2: must be refused while the watermark
        // is inside segment 0 (old bound admitted it: 36 <= 20 + 16).
        let s1 = b.reserve(4);
        assert_eq!(s1, 32);
        assert!(!b.has_space(s1 + 4));
        // Once the watermark leaves segment 0, the reservation fits and the
        // published prefix advances through the second lap.
        b.copy_out(20, 24, &mut out);
        b.mark_drained(24);
        assert!(b.has_space(s1 + 4));
        b.copy_in(s1, &[2u8; 4]);
        b.publish(s1, 4);
        assert_eq!(b.published_to(24), 36);
        assert_eq!(out, vec![1u8; 8]);
    }

    #[test]
    fn skip_keeps_accounting_consistent() {
        let b = LogBuffer::new(0, 8, 2);
        let s0 = b.reserve(10);
        b.skip(s0, 10);
        b.mark_drained(10);
        assert_eq!(b.published(), 10);
        // A normal append after the skip still publishes and drains.
        let s1 = b.reserve(4);
        b.copy_in(s1, b"abcd");
        b.publish(s1, 4);
        assert_eq!(drain_all(&b), b"abcd");
    }
}
