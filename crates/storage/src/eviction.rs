//! Clock (second chance): the buffer pool's replacement policy.
//!
//! Each pool partition owns one [`Clock`] over that partition's frames only
//! (all indices below are partition-local) and calls it under the
//! partition's shard mutex, so it needs no synchronization of its own.
//!
//! The contract that keeps eviction safe lives in the `evictable` callback
//! passed to [`Clock::victim`]: it returns `true` only for frames with a
//! zero pin count whose page latch was *conditionally* acquired (the caller
//! keeps that latch for the eviction). The policy therefore cannot — even
//! buggily — evict a pinned or latched frame; the worst it can do is pick a
//! cold victim. The WAL rule (`flush_to` before write-back) is likewise
//! enforced by the pool after the victim is chosen, never here.

/// One reference bit per frame and a sweeping hand.
pub struct Clock {
    refbit: Vec<bool>,
    hand: usize,
    /// Scratch for [`Clock::victim`]: frames already probed this invocation.
    /// Kept here so the miss path never allocates under the shard mutex.
    asked: Vec<bool>,
}

impl Clock {
    pub fn new(frames: usize) -> Clock {
        Clock {
            refbit: vec![false; frames],
            hand: 0,
            asked: vec![false; frames],
        }
    }

    /// `frame` was found resident (page-table hit).
    pub fn on_hit(&mut self, frame: usize) {
        self.refbit[frame] = true;
    }

    /// A page was just installed into `frame` (miss path).
    pub fn on_load(&mut self, frame: usize) {
        self.refbit[frame] = true;
    }

    /// Choose an eviction victim. `evictable(frame)` is `true` iff the
    /// frame is unpinned and its latch could be claimed; only a frame for
    /// which it returned `true` is ever returned, and it is called at most
    /// once per frame per invocation (the callback has the side effect of
    /// claiming the latch). Returns `None` when no frame is evictable.
    pub fn victim(&mut self, mut evictable: impl FnMut(usize) -> bool) -> Option<usize> {
        let n = self.refbit.len();
        self.asked.fill(false);
        let mut probed = 0;
        // Pass 1 clears reference bits, pass 2 takes the first frame whose
        // bit was already clear; a third pass catches frames whose bit was
        // set between our clearing and our return sweep. Pinned/latched
        // frames are skipped without consuming their reference bit.
        for _ in 0..3 * n {
            let f = self.hand;
            self.hand = (self.hand + 1) % n;
            if self.refbit[f] {
                self.refbit[f] = false;
                continue;
            }
            if self.asked[f] {
                // Already probed unevictable this invocation; every frame
                // asked once means nothing can be evicted.
                if probed == n {
                    return None;
                }
                continue;
            }
            self.asked[f] = true;
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
        let mut c = Clock::new(4);
        for f in 0..4 {
            c.on_load(f);
        }
        c.on_hit(2);
        // First sweep clears all bits; frame 0 is the first whose bit is
        // found clear on the return sweep.
        assert_eq!(c.victim(&mut all), Some(0));
        // Hand advanced past 0; next victim continues the sweep.
        assert_eq!(c.victim(&mut all), Some(1));
    }

    #[test]
    fn clock_skips_unevictable_and_reports_exhaustion() {
        let mut c = Clock::new(3);
        for f in 0..3 {
            c.on_load(f);
        }
        assert_eq!(c.victim(&mut |_| false), None);
        assert_eq!(c.victim(&mut |f| f == 1), Some(1));
    }
}
