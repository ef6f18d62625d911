//! Clock (second chance): the buffer pool's replacement policy.
//!
//! Each pool partition owns one [`Clock`] over that partition's frames only
//! (all indices below are partition-local). Its reference bits are relaxed
//! facade atomics, because a page-map hit sets one with no mutex held; the
//! sweep ([`Clock::victim`]) runs under the partition's shard mutex, which
//! also guards the sweep's [`Hand`].
//!
//! The contract that keeps eviction safe lives in the `evictable` callback
//! passed to [`Clock::victim`]: it returns `true` only for frames with a
//! zero pin count whose page latch was *conditionally* acquired (the caller
//! keeps that latch for the eviction). The policy therefore cannot — even
//! buggily — evict a pinned or latched frame; the worst it can do is pick a
//! cold victim. The WAL rule (`flush_to` before write-back) is likewise
//! enforced by the pool after the victim is chosen, never here.

// A reference bit is a model-checkable facade atomic: the model's pool
// harnesses explore hits setting it against a sweep clearing it.
use ariesim_common::msync::AtomicU32;
use std::sync::atomic::Ordering;

/// One reference bit per frame.
pub struct Clock {
    refbit: Box<[AtomicU32]>,
}

/// Where the sweep stands, and its scratch. Kept by the caller under the
/// mutex that serialises sweeps.
pub struct Hand {
    next: usize,
    /// Frames already probed by the current [`Clock::victim`] call. Kept
    /// here so the miss path never allocates under the shard mutex.
    asked: Vec<bool>,
}

impl Hand {
    pub fn new(frames: usize) -> Hand {
        Hand {
            next: 0,
            asked: vec![false; frames],
        }
    }
}

impl Clock {
    pub fn new(frames: usize) -> Clock {
        Clock {
            refbit: (0..frames).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    /// `frame` was found resident (page-map hit) or just had a page
    /// installed (miss path). Sets the frame's bit only if it is clear:
    /// sixteen frames' bits share a cache line, so a store on every hit
    /// would take that line from the other cores each time; a load leaves
    /// it shared.
    pub fn on_hit(&self, frame: usize) {
        let bit = &self.refbit[frame];
        // ordering: a reference bit is a replacement hint; nothing is published through it
        if bit.load(Ordering::Relaxed) == 0 {
            // ordering: as above
            bit.store(1, Ordering::Relaxed);
        }
    }

    /// Choose an eviction victim. `evictable(frame)` is `true` iff the
    /// frame is unpinned and its latch could be claimed; only a frame for
    /// which it returned `true` is ever returned, and it is called at most
    /// once per frame per invocation (the callback has the side effect of
    /// claiming the latch). Returns `None` when no frame is evictable.
    pub fn victim(&self, hand: &mut Hand, mut evictable: impl FnMut(usize) -> bool) -> Option<usize> {
        let n = self.refbit.len();
        hand.asked.fill(false);
        let mut probed = 0;
        // Pass 1 clears reference bits, pass 2 takes the first frame whose
        // bit was already clear; a third pass catches frames whose bit was
        // set between our clearing and our return sweep. Pinned/latched
        // frames are skipped without consuming their reference bit.
        for _ in 0..3 * n {
            let f = hand.next;
            hand.next = (hand.next + 1) % n;
            // ordering: a reference bit is a replacement hint; a hit racing the sweep only changes which cold frame is chosen
            if self.refbit[f].load(Ordering::Relaxed) != 0 {
                // ordering: as above
                self.refbit[f].store(0, Ordering::Relaxed);
                continue;
            }
            if hand.asked[f] {
                // Already probed unevictable this invocation; every frame
                // asked once means nothing can be evicted.
                if probed == n {
                    return None;
                }
                continue;
            }
            hand.asked[f] = true;
            probed += 1;
            if evictable(f) {
                return Some(f);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all(_f: usize) -> bool {
        true
    }

    #[test]
    fn clock_gives_second_chance() {
        let (c, mut h) = (Clock::new(4), Hand::new(4));
        for f in 0..4 {
            c.on_hit(f);
        }
        c.on_hit(2);
        // First sweep clears all bits; frame 0 is the first whose bit is
        // found clear on the return sweep.
        assert_eq!(c.victim(&mut h, all), Some(0));
        // Hand advanced past 0; next victim continues the sweep.
        assert_eq!(c.victim(&mut h, all), Some(1));
    }

    #[test]
    fn clock_skips_unevictable_and_reports_exhaustion() {
        let (c, mut h) = (Clock::new(3), Hand::new(3));
        for f in 0..3 {
            c.on_hit(f);
        }
        assert_eq!(c.victim(&mut h, |_| false), None);
        assert_eq!(c.victim(&mut h, |f| f == 1), Some(1));
    }
}
