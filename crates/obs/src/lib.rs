//! `ariesim-obs` — runtime observability for the ARIES/IM reproduction.
//!
//! Two pillars, both std-only and lock-free on the hot path:
//!
//! * [`span`] — scoped timers, one per timed site (lock wait, latch wait,
//!   WAL append and fsync, page I/O, redo apply, user work). Each kind
//!   keeps a log2-bucket [`hist`] of inclusive times and a self-time total.
//! * [`monitor`] — live checks of the protocol invariants the paper argues
//!   for: page-latch depth ≤ 2, latch acquisition order, no unconditional
//!   lock wait while latched, page-oriented (traversal-free) restart redo,
//!   and the WAL rule at every page write-back.
//!
//! Everything hangs off an [`Obs`] handle (an `Arc` internally). An engine
//! is opened with one (`Core::open` hands the same handle to every
//! component); [`Obs::disabled`] reduces every span to a single branch on a
//! `bool`. Invariant monitoring is always on — it is the cheapest pillar (a
//! thread-local increment) and the most valuable one.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod hist;
pub mod json;
pub mod monitor;
pub mod span;

pub use hist::{fmt_ns, Gauge, HistogramSnapshot, LatencyHistogram};
pub use monitor::{
    current_latch_depth, take_latch_high_water, Monitor, MonitorSnapshot, MAX_PAGE_LATCHES,
};
pub use span::{SpanGuard, SpanKind, SpanSnapshot, SpanTotals, SPAN_KIND_COUNT, SPAN_NAMES};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared handle to one observability domain (typically one per `Rig`
/// or one per database instance).
pub type ObsHandle = Arc<Obs>;

/// Replication lag in bytes of log.
///
/// Watermark semantics: the primary's *durable end* is the LSN up to which
/// the log is fsynced and therefore shippable; the standby's *applied LSN*
/// is the watermark below which every record has been redone into its
/// buffer pool (reads at or below it see a consistent prefix). Lag is
/// `durable_end - applied`; an LSN *is* a byte offset into the log, so the
/// difference is a byte count.
#[derive(Default)]
pub struct ReplLag {
    /// Bytes of durable primary log the standby has not yet applied.
    pub bytes: Gauge,
}

impl ReplLag {
    /// Set the lag from the two watermarks (see the type-level doc).
    pub fn set_watermarks(&self, durable_end_lsn: u64, applied_lsn: u64) {
        self.bytes.set(durable_end_lsn.saturating_sub(applied_lsn));
    }

    pub fn reset(&self) {
        self.bytes.reset();
    }
}

/// Restart-recovery phases as published by the `recovery_phase` gauge.
/// There is no separate analysis phase: REDO is the one forward pass, which
/// also rebuilds the transaction table.
pub mod recovery_phase {
    pub const IDLE: u64 = 0;
    pub const REDO: u64 = 1;
    pub const UNDO: u64 = 2;
    pub const COMPLETE: u64 = 3;

    pub fn name(v: u64) -> &'static str {
        match v {
            REDO => "redo",
            UNDO => "undo",
            COMPLETE => "complete",
            _ => "idle",
        }
    }
}

/// Live restart-recovery progress, written by restart's forward pass
/// (`recovery::ForwardPass`: phase REDO while it decodes, then UNDO, then
/// COMPLETE), read by the observability report and checked at each crash
/// inside recovery by the crash matrix (`tests/crash_matrix.rs`). A
/// standby's pass publishes here too, in phase REDO until it is promoted.
/// All gauges are relaxed stores; a sampler may see the phase and LSN from
/// adjacent instants, so it should tolerate small inconsistencies.
#[derive(Default)]
pub struct RecoveryProgress {
    /// Current phase (see [`recovery_phase`]).
    pub phase: Gauge,
    /// LSN the forward pass has reached.
    pub current_lsn: Gauge,
    /// LSN the pass is driving toward (end of log, or a standby's ingested
    /// end).
    pub target_lsn: Gauge,
    /// Pages to which redo has actually been applied so far.
    pub pages_redone: Gauge,
    /// Loser transactions still to be rolled back in the undo pass.
    pub losers_remaining: Gauge,
}

impl RecoveryProgress {
    pub fn reset(&self) {
        self.phase.reset();
        self.current_lsn.reset();
        self.target_lsn.reset();
        self.pages_redone.reset();
        self.losers_remaining.reset();
    }
}

/// Instantaneous gauges kept by an [`Obs`]. Unlike the spans these are
/// always live (a gauge `set` is two relaxed stores): replication lag and
/// recovery progress are operational signals, not profiling ones.
#[derive(Default)]
pub struct Gauges {
    /// Standby replication lag in bytes (see [`ReplLag`]).
    pub repl_lag: ReplLag,
    /// Restart-recovery progress (see [`RecoveryProgress`]).
    pub recovery: RecoveryProgress,
}

/// Buffer-pool counters that `Stats` does not carry (fixes and misses are
/// `page_fixes` and `page_reads` there), bumped by `ariesim_storage::pool`
/// and read out by [`Obs::render_report`]. Always live (plain relaxed
/// atomics). Per-partition breakdowns live in the pool itself (partition
/// count is not known when the handle is built).
#[derive(Default)]
pub struct PoolCounters {
    /// Evictions (a resident page was displaced to make room).
    pub evictions: AtomicU64,
    /// Shard-mutex acquisitions that found the mutex already held.
    pub shard_contended: AtomicU64,
}

impl PoolCounters {
    /// `(name, value)` per counter, in read-out order.
    pub fn named(&self) -> [(&'static str, u64); 2] {
        [
            ("evictions", self.evictions.load(Ordering::Relaxed)),
            ("shard_contended", self.shard_contended.load(Ordering::Relaxed)),
        ]
    }

    pub fn reset(&self) {
        self.evictions.store(0, Ordering::Relaxed);
        self.shard_contended.store(0, Ordering::Relaxed);
    }
}

/// WAL group-commit counters, bumped by `ariesim_wal::manager` and read
/// out next to the pool's. Always live, like [`PoolCounters`]: plain
/// relaxed atomics, no protocol role (the model checker ignores them).
#[derive(Default)]
pub struct WalCounters {
    /// Group-flush batches executed (each is one write + optional fsync).
    pub group_batches: AtomicU64,
    /// Committers whose flush_to was satisfied by a batch they did not
    /// lead: `riders / (batches + riders)` is the amortization ratio.
    pub group_riders: AtomicU64,
}

impl WalCounters {
    /// `(name, value)` per counter, in read-out order.
    pub fn named(&self) -> [(&'static str, u64); 2] {
        [
            ("group_batches", self.group_batches.load(Ordering::Relaxed)),
            ("group_riders", self.group_riders.load(Ordering::Relaxed)),
        ]
    }

    pub fn reset(&self) {
        self.group_batches.store(0, Ordering::Relaxed);
        self.group_riders.store(0, Ordering::Relaxed);
    }
}

/// One observability domain: spans + gauges + counters + invariant monitor.
pub struct Obs {
    enabled: bool,
    pub gauge: Gauges,
    /// Per-kind span histograms and self-time totals (see [`span`]).
    pub spans: SpanTotals,
    /// Buffer-pool traffic counters (see [`PoolCounters`]).
    pub pool: PoolCounters,
    /// WAL group-commit counters (see [`WalCounters`]).
    pub wal: WalCounters,
    pub monitor: Monitor,
}

impl Obs {
    fn new(enabled: bool) -> ObsHandle {
        Arc::new(Obs {
            enabled,
            gauge: Gauges::default(),
            spans: SpanTotals::default(),
            pool: PoolCounters::default(),
            wal: WalCounters::default(),
            monitor: Monitor::default(),
        })
    }

    /// A disabled handle: spans compile down to one branch; invariant
    /// monitoring stays live (it is nearly free and guards correctness,
    /// not performance).
    pub fn disabled() -> ObsHandle {
        Obs::new(false)
    }

    /// An enabled handle: spans are timed. The argument is ignored; it is
    /// kept for the callers that pass one.
    pub fn enabled(_ring_capacity: usize) -> ObsHandle {
        Obs::new(true)
    }

    /// Whether timing is active. Monitors ignore this.
    #[inline]
    pub fn on(&self) -> bool {
        self.enabled
    }

    /// Open a span of `kind` (see [`span`]). The returned guard closes the
    /// span when dropped; on a disabled handle it is an inert value. `txn`
    /// and `page` are not recorded.
    #[inline]
    pub fn span(&self, kind: SpanKind, _txn: u64, _page: u32) -> SpanGuard<'_> {
        span::begin(self, kind)
    }

    /// Reset spans, gauges and counters (monitor counters persist — a past
    /// violation should not be erasable between report windows).
    pub fn reset(&self) {
        self.gauge.repl_lag.reset();
        self.gauge.recovery.reset();
        self.spans.reset();
        self.pool.reset();
        self.wal.reset();
    }

    /// Per-kind span histograms with their self-time totals, in
    /// discriminant order.
    fn span_rows(&self) -> impl Iterator<Item = (&'static str, HistogramSnapshot, u64)> + '_ {
        let totals = self.spans.snapshot();
        (0..SPAN_KIND_COUNT).map(move |i| {
            (SPAN_NAMES[i], self.spans.hist[i].snapshot(), totals.self_ns[i])
        })
    }

    /// Aligned-text report: one row per span kind (inclusive-time
    /// percentiles, self time and its share), the counters and gauges, and
    /// the monitor verdict. This is what `experiments -- all --obs` prints.
    pub fn render_report(&self) -> String {
        let mut out = String::new();
        let total = self.spans.snapshot().total_ns().max(1);
        out.push_str(&format!(
            "{:<12} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10} {:>6}\n",
            "span", "count", "p50", "p95", "p99", "max", "self", "share"
        ));
        for (name, s, self_ns) in self.span_rows().filter(|(_, s, _)| s.count != 0) {
            out.push_str(&format!(
                "{:<12} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10} {:>5.1}%\n",
                name,
                s.count,
                fmt_ns(s.p50()),
                fmt_ns(s.p95()),
                fmt_ns(s.p99()),
                fmt_ns(s.max()),
                fmt_ns(self_ns),
                100.0 * self_ns as f64 / total as f64,
            ));
        }
        for (label, counters) in [
            ("pool", &self.pool.named()[..]),
            ("wal", &self.wal.named()[..]),
        ] {
            if counters.iter().any(|&(_, v)| v != 0) {
                out.push_str(label);
                out.push(':');
                for (name, v) in counters {
                    out.push_str(&format!(" {name} {v}"));
                }
                out.push('\n');
            }
        }
        let lag = &self.gauge.repl_lag;
        if lag.bytes.max() != 0 {
            out.push_str(&format!(
                "repl lag: {} bytes now, {} bytes max\n",
                lag.bytes.last(),
                lag.bytes.max(),
            ));
        }
        let rec = &self.gauge.recovery;
        if rec.phase.max() != 0 {
            out.push_str(&format!(
                "recovery: phase {} lsn {}/{} pages redone {} losers remaining {}\n",
                recovery_phase::name(rec.phase.last()),
                rec.current_lsn.last(),
                rec.target_lsn.last(),
                rec.pages_redone.last(),
                rec.losers_remaining.last(),
            ));
        }
        let m = self.monitor.snapshot();
        out.push_str(&format!(
            "monitor: max page-latch depth {} (limit {}), \
             depth violations {}, lock-wait-while-latched {}, \
             order violations {}{}, redo traversals {}, \
             WAL-rule violations {}{} — {}\n",
            m.max_latch_depth,
            MAX_PAGE_LATCHES,
            m.latch_depth_violations,
            m.lock_wait_with_latch_violations,
            m.latch_order_violations,
            m.first_order_violation.map_or(String::new(), |v| format!(
                " (first: {:?} requested under {:?} at {})",
                v.acquired, v.held, v.site
            )),
            m.redo_traversal_violations,
            m.wal_rule_violations,
            m.first_wal_violation.map_or(String::new(), |v| format!(
                " (first: page {} at page_LSN {} with the log durable to {})",
                v.page, v.page_lsn, v.durable
            )),
            if m.clean() { "CLEAN" } else { "VIOLATED" },
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_an_enabled_handle_times_spans() {
        for (obs, on) in [(Obs::disabled(), false), (Obs::enabled(64), true)] {
            assert_eq!(obs.on(), on);
            drop(obs.span(SpanKind::LockWait, 5, 0));
            assert_eq!(obs.spans.hist(SpanKind::LockWait).snapshot().count, on as u64);
        }
    }

    #[test]
    fn report_lists_active_kinds_and_verdict() {
        let obs = Obs::enabled(64);
        drop(obs.span(SpanKind::PageRead, 0, 1));
        drop(obs.span(SpanKind::PageRead, 0, 2));
        let report = obs.render_report();
        assert!(report.contains("page_read            2 "), "{report}");
        assert!(!report.contains("page_write")); // zero-count rows hidden
        assert!(report.contains("CLEAN"));

        // Counters, the lag gauge and the first WAL-rule offender.
        obs.monitor.on_write_back(9, 512, 512);
        obs.pool.shard_contended.store(2, Ordering::Relaxed);
        obs.wal.group_riders.store(3, Ordering::Relaxed);
        obs.gauge.repl_lag.set_watermarks(900, 100);
        let report = obs.render_report();
        assert!(report.contains("pool: evictions 0 shard_contended 2\n"));
        assert!(report.contains("wal: group_batches 0 group_riders 3\n"));
        assert!(report.contains("repl lag: 800 bytes now, 800 bytes max\n"));
        assert!(report.contains(
            "WAL-rule violations 1 (first: page 9 at page_LSN 512 with the log durable to 512) \
             — VIOLATED\n"
        ));
    }

    #[test]
    fn reset_clears_measurements_not_monitor() {
        let obs = Obs::enabled(64);
        drop(obs.span(SpanKind::UserWork, 0, 0));
        std::thread::scope(|s| {
            s.spawn(|| {
                drop(obs.monitor.acquired(monitor::Class::PageLatch, "test", true));
            });
        });
        obs.reset();
        assert!(obs.spans.snapshot().is_empty());
        assert_eq!(obs.spans.hist(SpanKind::UserWork).snapshot().count, 0);
        assert_eq!(obs.monitor.snapshot().max_latch_depth, 1);
    }
}
