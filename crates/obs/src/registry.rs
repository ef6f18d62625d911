//! A unified metrics registry with Prometheus and JSON exposition.
//!
//! Every observable quantity in the engine — the [`Obs`](crate::Obs)
//! histograms, gauges, and span totals, the ring's completeness counters,
//! the latch-monitor verdict counters, and the `ariesim-common` paper
//! counters — registers here under a unique snake_case name and is
//! collected lazily at exposition time through a closure. Registration is
//! cheap and happens once per domain; collection walks the closures, so an
//! exposition is always a point-in-time snapshot of the live atomics.
//!
//! Uniqueness and naming are enforced at registration time (a duplicate or
//! non-snake_case name panics immediately, not at scrape time), and
//! `arieslint` audits the registered literal names statically.

use crate::hist::{bucket_top, HistogramSnapshot};
use crate::{json, ObsHandle};
use ariesim_common::stats::StatsHandle;
use std::sync::Mutex;

/// One collected sample.
#[derive(Clone, Debug)]
pub enum MetricValue {
    /// Monotonically non-decreasing count.
    Counter(u64),
    /// Instantaneous value.
    Gauge(u64),
    /// Full distribution snapshot (boxed: a snapshot is ~64 buckets wide,
    /// scalar variants should not pay for it).
    Histogram(Box<HistogramSnapshot>),
}

impl MetricValue {
    fn kind_str(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

type Collector = Box<dyn Fn() -> MetricValue + Send + Sync>;

struct Entry {
    name: String,
    help: String,
    collector: Collector,
}

/// The registry. Insertion order is preserved in expositions.
#[derive(Default)]
pub struct MetricsRegistry {
    entries: Mutex<Vec<Entry>>,
}

/// `[a-z][a-z0-9_]*`: the naming rule every registered metric must follow
/// (also enforced statically by `arieslint`'s metric-name audit).
pub fn is_snake_case(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some('a'..='z'))
        && chars.all(|c| matches!(c, 'a'..='z' | '0'..='9' | '_'))
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn register(&self, name: &str, help: &str, collector: Collector) {
        assert!(
            is_snake_case(name),
            "metric name {name:?} is not snake_case"
        );
        let mut entries = self.entries.lock().unwrap();
        assert!(
            !entries.iter().any(|e| e.name == name),
            "duplicate metric name {name:?}"
        );
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            collector,
        });
    }

    pub fn register_counter(
        &self,
        name: &str,
        help: &str,
        f: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.register(name, help, Box::new(move || MetricValue::Counter(f())));
    }

    pub fn register_gauge(
        &self,
        name: &str,
        help: &str,
        f: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.register(name, help, Box::new(move || MetricValue::Gauge(f())));
    }

    pub fn register_histogram(
        &self,
        name: &str,
        help: &str,
        f: impl Fn() -> HistogramSnapshot + Send + Sync + 'static,
    ) {
        self.register(
            name,
            help,
            Box::new(move || MetricValue::Histogram(Box::new(f()))),
        );
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<String> {
        self.entries
            .lock()
            .unwrap()
            .iter()
            .map(|e| e.name.clone())
            .collect()
    }

    /// Collect every metric now: (name, value) in registration order.
    pub fn collect(&self) -> Vec<(String, MetricValue)> {
        self.entries
            .lock()
            .unwrap()
            .iter()
            .map(|e| (e.name.clone(), (e.collector)()))
            .collect()
    }

    /// Prometheus text exposition format (histograms as cumulative
    /// `_bucket{le=...}` series over the log2 bucket bounds, trimmed to
    /// the highest occupied bucket).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for entry in self.entries.lock().unwrap().iter() {
            let value = (entry.collector)();
            out.push_str(&format!("# HELP {} {}\n", entry.name, entry.help));
            out.push_str(&format!("# TYPE {} {}\n", entry.name, value.kind_str()));
            match value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                    out.push_str(&format!("{} {}\n", entry.name, v));
                }
                MetricValue::Histogram(s) => {
                    let last = s
                        .buckets
                        .iter()
                        .rposition(|&b| b != 0)
                        .map_or(0, |i| i + 1);
                    let mut cumulative = 0u64;
                    for (i, &b) in s.buckets[..last].iter().enumerate() {
                        cumulative += b;
                        let top = bucket_top(i);
                        if top == u64::MAX {
                            break; // folded into +Inf below
                        }
                        out.push_str(&format!(
                            "{}_bucket{{le=\"{}\"}} {}\n",
                            entry.name, top, cumulative
                        ));
                    }
                    out.push_str(&format!(
                        "{}_bucket{{le=\"+Inf\"}} {}\n",
                        entry.name, s.count
                    ));
                    out.push_str(&format!("{}_sum {}\n", entry.name, s.sum_ns));
                    out.push_str(&format!("{}_count {}\n", entry.name, s.count));
                }
            }
        }
        out
    }

    /// JSON snapshot exposition: one object keyed by metric name, each
    /// value carrying its type tag.
    pub fn render_json(&self) -> String {
        let mut root = json::Object::new();
        for (name, value) in self.collect() {
            let mut o = json::Object::new();
            o.field_str("type", value.kind_str());
            match value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                    o.field_u64("value", v);
                }
                MetricValue::Histogram(s) => {
                    o.field_u64("count", s.count);
                    o.field_u64("sum_ns", s.sum_ns);
                    o.field_u64("max_ns", s.max_ns);
                    o.field_u64("p50_ns", s.p50());
                    o.field_u64("p95_ns", s.p95());
                    o.field_u64("p99_ns", s.p99());
                }
            }
            root.field_raw(&name, &o.finish());
        }
        root.finish()
    }
}

/// Build a registry exposing everything an [`Obs`](crate::Obs) domain
/// knows: all latency histograms, the replication-lag and recovery
/// gauges, per-kind span self-time totals, ring completeness counters,
/// and the latch-monitor verdict counters.
pub fn for_obs(obs: &ObsHandle) -> MetricsRegistry {
    let reg = MetricsRegistry::new();
    register_obs(&reg, obs);
    reg
}

/// Register one obs domain's metrics into an existing registry.
pub fn register_obs(reg: &MetricsRegistry, obs: &ObsHandle) {
    for (i, (name, _)) in obs.hist.named().iter().enumerate() {
        let o = obs.clone();
        reg.register_histogram(
            name,
            "latency histogram (nanoseconds, log2 buckets)",
            move || o.hist.named()[i].1.snapshot(),
        );
    }

    let o = obs.clone();
    reg.register_gauge(
        "repl_lag_bytes",
        "bytes of durable primary log the standby has not applied",
        move || o.gauge.repl_lag.bytes.last(),
    );
    let o = obs.clone();
    reg.register_gauge(
        "repl_lag_lsn_delta",
        "replication lag as an LSN delta (durable end minus applied)",
        move || o.gauge.repl_lag.lsn_delta.last(),
    );
    let o = obs.clone();
    reg.register_gauge(
        "recovery_phase",
        "restart phase: 0 idle, 1 analysis, 2 redo, 3 undo, 4 complete",
        move || o.gauge.recovery.phase.last(),
    );
    let o = obs.clone();
    reg.register_gauge(
        "recovery_current_lsn",
        "LSN the current restart pass has reached",
        move || o.gauge.recovery.current_lsn.last(),
    );
    let o = obs.clone();
    reg.register_gauge(
        "recovery_target_lsn",
        "end-of-log LSN the restart pass is driving toward",
        move || o.gauge.recovery.target_lsn.last(),
    );
    let o = obs.clone();
    reg.register_gauge(
        "recovery_pages_redone",
        "pages to which restart redo has been applied",
        move || o.gauge.recovery.pages_redone.last(),
    );
    let o = obs.clone();
    reg.register_gauge(
        "recovery_losers_remaining",
        "loser transactions not yet rolled back by restart undo",
        move || o.gauge.recovery.losers_remaining.last(),
    );

    for (i, base) in crate::span::SPAN_NAMES.iter().enumerate() {
        let o = obs.clone();
        reg.register_counter(
            &format!("span_{base}_self_ns"),
            "span self time attributed to this kind (nanoseconds)",
            move || o.spans.snapshot().self_ns[i],
        );
        let o = obs.clone();
        reg.register_counter(
            &format!("span_{base}_count"),
            "completed spans of this kind",
            move || o.spans.snapshot().count[i],
        );
    }

    let o = obs.clone();
    reg.register_counter(
        "trace_events_recorded",
        "events ever pushed into the event ring",
        move || o.ring.recorded(),
    );
    let o = obs.clone();
    reg.register_counter(
        "trace_events_dropped",
        "events lost to event-ring wrap (attribution incomplete when > 0)",
        move || o.ring.snapshot_with_stats().1.dropped,
    );

    let o = obs.clone();
    reg.register_gauge(
        "latch_depth_max",
        "maximum simultaneous page-latch depth observed",
        move || o.monitor.snapshot().max_latch_depth,
    );
    let o = obs.clone();
    reg.register_counter(
        "latch_depth_violations",
        "page-latch depth limit violations (must stay 0)",
        move || o.monitor.snapshot().latch_depth_violations,
    );
    let o = obs.clone();
    reg.register_counter(
        "lock_wait_with_latch_violations",
        "unconditional lock waits while holding a latch (must stay 0)",
        move || o.monitor.snapshot().lock_wait_with_latch_violations,
    );
    let o = obs.clone();
    reg.register_counter(
        "latch_underflows",
        "latch releases without a matching acquire (must stay 0)",
        move || o.monitor.snapshot().latch_underflows,
    );
    let o = obs.clone();
    reg.register_counter(
        "redo_traversal_violations",
        "tree traversals during restart redo (must stay 0)",
        move || o.monitor.snapshot().redo_traversal_violations,
    );

    let o = obs.clone();
    reg.register_counter(
        "pool_hits",
        "buffer-pool page-table hits (frame already resident)",
        move || o.pool.hits.load(std::sync::atomic::Ordering::Relaxed),
    );
    let o = obs.clone();
    reg.register_counter(
        "pool_misses",
        "buffer-pool misses (page loaded from disk)",
        move || o.pool.misses.load(std::sync::atomic::Ordering::Relaxed),
    );
    let o = obs.clone();
    reg.register_counter(
        "pool_evictions",
        "buffer-pool evictions (resident page displaced)",
        move || o.pool.evictions.load(std::sync::atomic::Ordering::Relaxed),
    );
    let o = obs.clone();
    reg.register_counter(
        "pool_shard_contended",
        "pool shard-mutex acquisitions that found the mutex held",
        move || o.pool.shard_contended.load(std::sync::atomic::Ordering::Relaxed),
    );
    let o = obs.clone();
    reg.register_counter(
        "wal_group_batches",
        "WAL group-flush batches (one write + optional fsync each)",
        move || o.wal.group_batches.load(std::sync::atomic::Ordering::Relaxed),
    );
    let o = obs.clone();
    reg.register_counter(
        "wal_group_riders",
        "committers satisfied by a group flush they did not lead",
        move || o.wal.group_riders.load(std::sync::atomic::Ordering::Relaxed),
    );
}

/// Bridge every `ariesim-common` paper counter (locks acquired, page
/// I/Os, log passes, ...) into the registry as counters, keeping the
/// counter-block field names.
pub fn register_stats(reg: &MetricsRegistry, stats: &StatsHandle) {
    let names: Vec<&'static str> = stats
        .snapshot()
        .entries()
        .iter()
        .map(|&(n, _)| n)
        .collect();
    for (i, name) in names.into_iter().enumerate() {
        let s = stats.clone();
        reg.register_counter(name, "paper efficiency counter (see common::stats)", move || {
            s.snapshot().entries()[i].1
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;

    #[test]
    fn snake_case_rule() {
        assert!(is_snake_case("op_commit"));
        assert!(is_snake_case("p99"));
        assert!(!is_snake_case("OpCommit"));
        assert!(!is_snake_case("_lead"));
        assert!(!is_snake_case("9lead"));
        assert!(!is_snake_case("has-dash"));
        assert!(!is_snake_case(""));
    }

    #[test]
    #[should_panic(expected = "duplicate metric name")]
    fn duplicate_registration_panics() {
        let reg = MetricsRegistry::new();
        reg.register_counter("twice", "first", || 1);
        reg.register_counter("twice", "second", || 2);
    }

    #[test]
    #[should_panic(expected = "not snake_case")]
    fn bad_name_panics() {
        let reg = MetricsRegistry::new();
        reg.register_counter("NotSnake", "bad", || 0);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let obs = Obs::enabled(64);
        obs.hist.op_commit.record_ns(1_000);
        obs.hist.op_commit.record_ns(3_000);
        obs.gauge.repl_lag.set_watermarks(500, 100);
        let reg = for_obs(&obs);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE op_commit histogram"));
        assert!(text.contains("op_commit_count 2\n"));
        assert!(text.contains("op_commit_sum 4000\n"));
        assert!(text.contains("op_commit_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("# TYPE repl_lag_bytes gauge"));
        assert!(text.contains("repl_lag_bytes 400\n"));
        assert!(text.contains("repl_lag_lsn_delta 400\n"));
        assert!(text.contains("# TYPE trace_events_recorded counter"));
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let reg = MetricsRegistry::new();
        let h = std::sync::Arc::new(crate::LatencyHistogram::default());
        h.record_ns(1); // bucket 0 (le 1)
        h.record_ns(2); // bucket 1 (le 3)
        h.record_ns(2);
        let hc = h.clone();
        reg.register_histogram("tiny", "test", move || hc.snapshot());
        let text = reg.render_prometheus();
        assert!(text.contains("tiny_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("tiny_bucket{le=\"3\"} 3\n"));
        assert!(text.contains("tiny_bucket{le=\"+Inf\"} 3\n"));
    }

    #[test]
    fn json_exposition_round_trips() {
        let obs = Obs::enabled(64);
        obs.hist.lock_wait.record_ns(2_000);
        obs.gauge.recovery.pages_redone.set(7);
        let reg = for_obs(&obs);
        let v = json::parse(&reg.render_json()).expect("valid JSON");
        let lw = v.get("lock_wait").unwrap();
        assert_eq!(lw.get("type").unwrap().as_str(), Some("histogram"));
        assert_eq!(lw.get("count").unwrap().as_u64(), Some(1));
        assert_eq!(lw.get("sum_ns").unwrap().as_u64(), Some(2_000));
        let pr = v.get("recovery_pages_redone").unwrap();
        assert_eq!(pr.get("type").unwrap().as_str(), Some("gauge"));
        assert_eq!(pr.get("value").unwrap().as_u64(), Some(7));
    }

    #[test]
    fn obs_and_stats_names_are_unique_and_snake_case() {
        let obs = Obs::enabled(64);
        let reg = for_obs(&obs);
        register_stats(&reg, &ariesim_common::stats::new_stats());
        let names = reg.names();
        for n in &names {
            assert!(is_snake_case(n), "bad metric name {n:?}");
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate names registered");
        // The registry really did absorb all three sources.
        assert!(names.iter().any(|n| n == "op_commit"));
        assert!(names.iter().any(|n| n == "span_wal_fsync_self_ns"));
        assert!(names.iter().any(|n| n == "locks_acquired"));
    }

    #[test]
    fn stats_bridge_tracks_live_counters() {
        let stats = ariesim_common::stats::new_stats();
        let reg = MetricsRegistry::new();
        register_stats(&reg, &stats);
        stats
            .locks_acquired
            .fetch_add(3, std::sync::atomic::Ordering::Relaxed);
        let collected = reg.collect();
        let (_, v) = collected
            .iter()
            .find(|(n, _)| n == "locks_acquired")
            .expect("bridged");
        match v {
            MetricValue::Counter(3) => {}
            other => panic!("expected Counter(3), got {other:?}"),
        }
    }
}
