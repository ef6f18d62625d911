//! Instrumentation counters.
//!
//! The paper's efficiency measures (§1) are "the number of locks acquired,
//! the number of pages accessed during redo, undo, and normal operations,
//! the number of passes of the log made during media recovery, and the number
//! of required synchronous data base page and log I/Os". Every subsystem
//! increments these shared counters so the benchmark harness can print
//! exactly those comparisons for ARIES/IM vs its baselines.
//!
//! Counters are plain relaxed atomics: they order nothing and must never be
//! used for synchronization.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

macro_rules! counters {
    ($( $(#[$doc:meta])* $name:ident ),* $(,)?) => {
        /// Live counter block, shared via [`StatsHandle`].
        #[derive(Default)]
        pub struct Stats {
            $( $(#[$doc])* pub $name: AtomicU64, )*
        }

        /// A point-in-time copy of every counter.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $( pub $name: u64, )*
        }

        impl Stats {
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    // ordering: statistics counter; snapshots are advisory, no payload is published through them
                    $( $name: self.$name.load(Ordering::Relaxed), )*
                }
            }

            pub fn reset(&self) {
                // ordering: advisory counter reset; racing bumps may survive and that is fine
                $( self.$name.store(0, Ordering::Relaxed); )*
            }
        }

        impl StatsSnapshot {
            /// Per-counter difference `self - earlier` (saturating).
            pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot {
                    $( $name: self.$name.saturating_sub(earlier.$name), )*
                }
            }
        }
    };
}

counters! {
    // --- lock manager ----------------------------------------------------
    /// Lock requests granted (any name, any mode, any duration).
    locks_acquired,
    /// Lock requests that blocked (unconditional wait actually occurred).
    lock_waits,
    /// Conditional lock requests denied (the §2.2 release-latches path).
    lock_conditional_denials,
    /// Locks acquired on record RIDs (data-only locking).
    locks_record,
    /// Locks acquired on index key values (index-specific / KVL locking).
    locks_keyvalue,
    /// Locks acquired on the per-index EOF name.
    locks_eof,
    /// Instant-duration lock acquisitions.
    locks_instant,
    /// Commit-duration lock acquisitions.
    locks_commit,
    /// Next-key locks acquired by index insert/delete/fetch protocols.
    locks_next_key,
    /// Deadlocks detected (victims chosen).
    deadlocks,

    // --- latches ----------------------------------------------------------
    /// Page latch acquisitions (S or X).
    latches_page,
    /// Page latch acquisitions that had to wait.
    latch_page_waits,
    /// Tree latch acquisitions (S, X or instant).
    latches_tree,
    /// Tree latch acquisitions that had to wait.
    latch_tree_waits,
    /// Instant-duration tree latch acquisitions (POSC establishment).
    latches_tree_instant,

    // --- buffer pool / I/O --------------------------------------------------
    /// Page fixes (buffer pool lookups).
    page_fixes,
    /// Pages read from disk (misses).
    page_reads,
    /// Pages written to disk.
    page_writes,
    /// Synchronous log flushes (forced writes).
    log_forces,
    /// Log records appended.
    log_records,
    /// Log bytes appended.
    log_bytes,

    // --- index operations ----------------------------------------------------
    /// Completed tree traversals (root-to-leaf descents).
    tree_traversals,
    /// Traversals restarted because of an unfinished SMO (ambiguity path).
    traversal_restarts,
    /// Page split SMOs performed.
    smo_splits,
    /// Page deletion SMOs performed.
    smo_page_deletes,
    /// Key inserts performed.
    index_inserts,
    /// Key deletes performed.
    index_deletes,
    /// Fetch / fetch-next calls served.
    index_fetches,

    // --- recovery ---------------------------------------------------------------
    /// Redoable log records examined by restart's forward pass (a
    /// standby's included).
    redo_records_seen,
    /// Updates actually redone (page_lsn < record LSN).
    redo_applied,
    /// Tree traversals performed during the redo pass. The paper requires
    /// this to be zero: redo is always page-oriented.
    redo_traversals,
    /// Undo actions performed page-oriented (no traversal).
    undo_page_oriented,
    /// Undo actions that required a logical undo (retraversal from root).
    undo_logical,
    /// Page accesses by restart's forward pass: one per redoable record
    /// that survives the dirty-page-table filter, whether or not the page was
    /// already in the pool (the paper's §1 measure of pages touched during
    /// restart — not a count of disk reads, which is `page_reads`).
    restart_page_reads,
    /// Log passes performed during media recovery.
    media_recovery_passes,
}

/// Shared handle to a counter block.
pub type StatsHandle = Arc<Stats>;

/// Convenience constructor.
pub fn new_stats() -> StatsHandle {
    Arc::new(Stats::default())
}

/// Extension so call sites read `stats.page_fixes.bump()`.
pub trait Bump {
    fn bump(&self);
    fn add(&self, n: u64);
    fn get(&self) -> u64;
}

impl Bump for AtomicU64 {
    #[inline]
    fn bump(&self) {
        self.fetch_add(1, Ordering::Relaxed); // ordering: advisory counter; nothing synchronizes-with it
    }

    #[inline]
    fn add(&self, n: u64) {
        self.fetch_add(n, Ordering::Relaxed); // ordering: advisory counter; nothing synchronizes-with it
    }

    #[inline]
    fn get(&self) -> u64 {
        self.load(Ordering::Relaxed) // ordering: advisory read of a counter; staleness is acceptable
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_diff() {
        let s = new_stats();
        s.locks_acquired.bump();
        s.locks_acquired.bump();
        let a = s.snapshot();
        s.locks_acquired.bump();
        s.page_fixes.add(5);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.locks_acquired, 1);
        assert_eq!(d.page_fixes, 5);
        assert_eq!(d.lock_waits, 0);
    }

    #[test]
    fn reset_zeroes_all() {
        let s = new_stats();
        s.smo_splits.add(3);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn concurrent_bumps_do_not_lose_counts() {
        let s = new_stats();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = &s;
                scope.spawn(move || {
                    for _ in 0..1000 {
                        s.latches_page.bump();
                    }
                });
            }
        });
        assert_eq!(s.latches_page.get(), 4000);
    }
}
