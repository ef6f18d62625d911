//! Every metric the benchmark reports, by name and unit, and how each is
//! computed from a repetition's raw data.
//!
//! The tables here are the single definition; `BENCHMARK.json` repeats them
//! for the driver and a test holds the two together.

use crate::gen::{OpKind, KINDS};
use crate::ladder::Ladder;
use crate::run::{Phase, Restart, Round, Traced, Untraced};
use crate::summary::{median, p50_us, percentile};
use crate::trace::SpanLog;
use ariesim_common::stats::StatsSnapshot;
use ariesim_obs::SpanKind;

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric's definition. `bound` is the share of the parent's
/// median by which the metric may get worse before a change is a regression:
/// 0.10, or twice the quartile distance measured over ten seeds where that is
/// larger, capped at the contract's 0.25 — which every timing reaches on the
/// reference host, whose speed shifts by a third for minutes at a time.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Every workload reports every one of these, never zero. Latencies are the
/// op probe's (one client, alone, between slices of load), so a workload
/// whose mix lacks an operation still measures it on its own pool and data,
/// and none depends on how the host scheduled the loaded clients.
pub const END_TO_END: [EndToEnd; 11] = [
    EndToEnd {
        name: "throughput_ops_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "read_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "scan_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "insert_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "update_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "delete_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "restart_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wal_bytes_per_op",
        unit: "B/op",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "space_amp",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric's definition; per-layer metrics have no bound.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Named `<crate>.<metric>`. Sources: *ladder* (single-threaded loop over
/// the layer's public function), *stats* (`db.stats` delta over the timed
/// phase per committed operation), *traced* (the traced phase), *restart*
/// (the timed `Db::open` after the crash), *samples* (exact latencies).
pub const PER_LAYER: [PerLayer; 74] = [
    // common — ladder
    layer("common.slotted_insert_ns", "ns", Lower),
    layer("common.slotted_read_ns", "ns", Lower),
    // storage — ladder, stats, traced
    layer("storage.fix_hit_ns", "ns", Lower),
    layer("storage.fix_miss_ns", "ns", Lower),
    layer("storage.fixes_per_op", "1/op", Lower),
    layer("storage.hit_rate", "share", Higher),
    layer("storage.page_reads_per_op", "1/op", Lower),
    layer("storage.page_writes_per_op", "1/op", Lower),
    layer("storage.latch_page_waits_per_kop", "1/kop", Lower),
    layer("storage.evictions_per_op", "1/op", Lower),
    layer("storage.page_read_share", "share", Lower),
    layer("storage.page_write_share", "share", Lower),
    layer("storage.latch_wait_share", "share", Lower),
    layer("storage.shard_contended_per_kop", "1/kop", Lower),
    // lock — ladder, stats, traced
    layer("lock.request_release_ns", "ns", Lower),
    layer("lock.locks_per_read", "count", Lower),
    layer("lock.locks_per_scan", "count", Lower),
    layer("lock.locks_per_insert", "count", Lower),
    layer("lock.locks_per_update", "count", Lower),
    layer("lock.locks_per_delete", "count", Lower),
    layer("lock.waits_per_kop", "1/kop", Lower),
    layer("lock.deadlocks_per_kop", "1/kop", Lower),
    layer("lock.conditional_denials_per_kop", "1/kop", Lower),
    layer("lock.wait_share", "share", Lower),
    // wal — ladder, stats, traced
    layer("wal.append_ns", "ns", Lower),
    layer("wal.force_ns", "ns", Lower),
    layer("wal.force_fsync_ns", "ns", Lower),
    layer("wal.scan_mb_s", "MB/s", Higher),
    layer("wal.records_per_op", "1/op", Lower),
    layer("wal.forces_per_commit", "1/op", Lower),
    layer("wal.append_share", "share", Lower),
    layer("wal.fsync_share", "share", Lower),
    layer("wal.group_riders_share", "share", Higher),
    // btree — ladder, stats
    layer("btree.fetch_ns", "ns", Lower),
    layer("btree.fetch_next_ns", "ns", Lower),
    layer("btree.insert_ns", "ns", Lower),
    layer("btree.delete_ns", "ns", Lower),
    layer("btree.traversals_per_op", "1/op", Lower),
    layer("btree.latches_per_op", "1/op", Lower),
    layer("btree.restarts_per_kop", "1/kop", Lower),
    layer("btree.splits_per_kop", "1/kop", Lower),
    layer("btree.page_deletes_per_kop", "1/kop", Lower),
    layer("btree.tree_latch_waits_per_kop", "1/kop", Lower),
    // record — ladder
    layer("record.insert_ns", "ns", Lower),
    layer("record.fetch_ns", "ns", Lower),
    layer("record.update_ns", "ns", Lower),
    layer("record.delete_ns", "ns", Lower),
    layer("record.fixes_per_insert", "count", Lower),
    // txn — ladder
    layer("txn.begin_commit_ro_ns", "ns", Lower),
    layer("txn.commit_rw_ns", "ns", Lower),
    layer("txn.rollback_ns_per_update", "ns", Lower),
    // recovery — restart
    layer("recovery.log_mb", "MB", Lower),
    layer("recovery.analyzed_records", "count", Lower),
    layer("recovery.redo_seen", "count", Lower),
    layer("recovery.redo_applied", "count", Lower),
    layer("recovery.undone", "count", Lower),
    layer("recovery.page_reads", "count", Lower),
    layer("recovery.redo_traversals", "count", Lower),
    layer("recovery.mb_s", "MB/s", Higher),
    // db — traced spans, samples, ladder, traced
    layer("db.begin_p50_us", "us", Lower),
    layer("db.commit_p50_us", "us", Lower),
    layer("db.read_p99_us", "us", Lower),
    layer("db.scan_p99_us", "us", Lower),
    layer("db.insert_p99_us", "us", Lower),
    layer("db.update_p99_us", "us", Lower),
    layer("db.delete_p99_us", "us", Lower),
    layer("db.op_max_ms", "ms", Lower),
    layer("db.abort_share", "share", Lower),
    layer("db.read_overhead_ns", "ns", Lower),
    layer("db.insert_overhead_ns", "ns", Lower),
    layer("db.update_overhead_ns", "ns", Lower),
    layer("db.delete_overhead_ns", "ns", Lower),
    layer("db.user_work_share", "share", Lower),
    layer("db.trace_overhead_share", "share", Lower),
];

/// A measured value.
#[derive(Clone, Debug)]
pub struct Value {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Pair every metric of a table with its computed value. A metric without a
/// value, or a value without a metric, is a bug in this file.
fn in_table_order(
    table: impl ExactSizeIterator<Item = (&'static str, &'static str)>,
    values: &[(&str, f64)],
) -> Vec<Value> {
    assert_eq!(table.len(), values.len(), "a value names no metric");
    table
        .map(|(name, unit)| {
            let (_, value) = values
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("metric {name} has no value"));
            Value {
                name,
                unit,
                value: *value,
            }
        })
        .collect()
}

/// Ascending exact latencies of `kind` in `phases`.
fn samples<'a>(phases: impl Iterator<Item = &'a Phase>, kind: OpKind) -> Vec<u64> {
    let mut all: Vec<u64> = phases
        .flat_map(|p| &p.clients)
        .flat_map(|c| c.lat[kind as usize].iter().copied())
        .collect();
    all.sort_unstable();
    all
}

/// Sum of one `Stats` counter over every timed phase of the repetition.
fn timed_total(u: &Untraced, counter: impl Fn(&StatsSnapshot) -> u64) -> u64 {
    u.segments().map(|s| counter(&s.timed.stats)).sum()
}

fn timed_committed(u: &Untraced) -> u64 {
    u.segments().map(|s| s.timed.committed()).sum()
}

/// The round whose restart the host disturbed least.
fn best_restart(u: &Untraced) -> &Restart {
    let by_time = |a: &&Round, b: &&Round| {
        let (a, b) = (a.aftermath.restart.restart_s, b.aftermath.restart.restart_s);
        a.total_cmp(&b)
    };
    &u.rounds
        .iter()
        .min_by(by_time)
        .expect("a round ran")
        .aftermath
        .restart
}

/// The end-to-end metrics of one untraced repetition, in table order.
///
/// Timings are taken where the host disturbed them least
/// ([`Untraced::timings`]); counts and sizes are taken over everything.
pub fn end_to_end(u: &Untraced) -> Vec<Value> {
    let t = u.timings(0);
    let p50 = |kind: OpKind| t.p50_us[kind as usize];
    let space_amp: Vec<f64> = u.rounds.iter().map(|r| r.aftermath.space_amp).collect();
    let values = [
        ("throughput_ops_s", t.throughput_ops_s),
        ("read_p50_us", p50(OpKind::Read)),
        ("scan_p50_us", p50(OpKind::Scan)),
        ("insert_p50_us", p50(OpKind::Insert)),
        ("update_p50_us", p50(OpKind::Update)),
        ("delete_p50_us", p50(OpKind::Delete)),
        ("restart_s", t.restart_s),
        ("setup_s", t.setup_s),
        (
            "wal_bytes_per_op",
            timed_total(u, |s| s.log_bytes) as f64 / timed_committed(u) as f64,
        ),
        ("space_amp", median(&space_amp)),
        ("peak_rss_mb", u.peak_rss_mb),
    ];
    in_table_order(END_TO_END.iter().map(|m| (m.name, m.unit)), &values)
}

/// The per-layer metrics of one traced run (its untraced reference
/// repetition, its traced repetition and its ladder), in table order.
pub fn per_layer(u: &Untraced, t: &Traced, l: &Ladder) -> Vec<Value> {
    let ops = timed_committed(u) as f64;
    let per_op = |counter: fn(&StatsSnapshot) -> u64| timed_total(u, counter) as f64 / ops;
    let per_kop = |counter: fn(&StatsSnapshot) -> u64| timed_total(u, counter) as f64 * 1e3 / ops;
    let (fixes, reads) = (
        timed_total(u, |s| s.page_fixes),
        timed_total(u, |s| s.page_reads),
    );
    let retries: u64 = u.segments().map(|s| s.timed.retries()).sum();
    let untraced_wall: f64 = u.segments().map(|s| s.timed.wall_s).sum();
    let r = best_restart(u);

    let traced_ops = t.phase.committed() as f64;
    let span_total = t.engine_spans.total_ns().max(1) as f64;
    let span_share = |kind: SpanKind| t.engine_spans.self_ns[kind as usize] as f64 / span_total;
    let flushes = t.wal_group_batches + t.wal_group_riders;

    // Every exact sample of the repetition, by kind: tails are no gate, so
    // nothing is filtered. A percentile the samples cannot support reads 0.
    let all = KINDS.map(|kind| samples(u.segments().flat_map(|s| [&s.timed, &s.probe]), kind));
    let p99 =
        |kind: OpKind| percentile(&all[kind as usize], 0.99).map_or(0.0, |ns| ns as f64 / 1e3);
    let op_max_ns = all
        .iter()
        .filter_map(|v| v.last().copied())
        .max()
        .unwrap_or(0);
    let span_p50 = |name| p50_us(&SpanLog::durations(&t.logs, name));

    let values = [
        ("common.slotted_insert_ns", l.slotted_insert_ns),
        ("common.slotted_read_ns", l.slotted_read_ns),
        ("storage.fix_hit_ns", l.fix_hit_ns),
        ("storage.fix_miss_ns", l.fix_miss_ns),
        ("storage.fixes_per_op", per_op(|s| s.page_fixes)),
        ("storage.hit_rate", 1.0 - reads as f64 / fixes.max(1) as f64),
        ("storage.page_reads_per_op", per_op(|s| s.page_reads)),
        ("storage.page_writes_per_op", per_op(|s| s.page_writes)),
        (
            "storage.latch_page_waits_per_kop",
            per_kop(|s| s.latch_page_waits),
        ),
        (
            "storage.evictions_per_op",
            t.pool_evictions as f64 / traced_ops,
        ),
        ("storage.page_read_share", span_share(SpanKind::PageRead)),
        ("storage.page_write_share", span_share(SpanKind::PageWrite)),
        ("storage.latch_wait_share", span_share(SpanKind::LatchWait)),
        (
            "storage.shard_contended_per_kop",
            t.pool_shard_contended as f64 * 1e3 / traced_ops,
        ),
        ("lock.request_release_ns", l.lock_request_release_ns),
        ("lock.locks_per_read", l.locks_per_read),
        ("lock.locks_per_scan", l.locks_per_scan),
        ("lock.locks_per_insert", l.locks_per_insert),
        ("lock.locks_per_update", l.locks_per_update),
        ("lock.locks_per_delete", l.locks_per_delete),
        ("lock.waits_per_kop", per_kop(|s| s.lock_waits)),
        ("lock.deadlocks_per_kop", per_kop(|s| s.deadlocks)),
        (
            "lock.conditional_denials_per_kop",
            per_kop(|s| s.lock_conditional_denials),
        ),
        ("lock.wait_share", span_share(SpanKind::LockWait)),
        ("wal.append_ns", l.wal_append_ns),
        ("wal.force_ns", l.wal_force_ns),
        ("wal.force_fsync_ns", l.wal_force_fsync_ns),
        ("wal.scan_mb_s", l.wal_scan_mb_s),
        ("wal.records_per_op", per_op(|s| s.log_records)),
        ("wal.forces_per_commit", per_op(|s| s.log_forces)),
        ("wal.append_share", span_share(SpanKind::WalAppend)),
        ("wal.fsync_share", span_share(SpanKind::WalFsync)),
        (
            "wal.group_riders_share",
            t.wal_group_riders as f64 / flushes.max(1) as f64,
        ),
        ("btree.fetch_ns", l.btree_fetch_ns),
        ("btree.fetch_next_ns", l.btree_fetch_next_ns),
        ("btree.insert_ns", l.btree_insert_ns),
        ("btree.delete_ns", l.btree_delete_ns),
        ("btree.traversals_per_op", per_op(|s| s.tree_traversals)),
        (
            "btree.latches_per_op",
            per_op(|s| s.latches_page + s.latches_tree),
        ),
        ("btree.restarts_per_kop", per_kop(|s| s.traversal_restarts)),
        ("btree.splits_per_kop", per_kop(|s| s.smo_splits)),
        (
            "btree.page_deletes_per_kop",
            per_kop(|s| s.smo_page_deletes),
        ),
        (
            "btree.tree_latch_waits_per_kop",
            per_kop(|s| s.latch_tree_waits),
        ),
        ("record.insert_ns", l.record_insert_ns),
        ("record.fetch_ns", l.record_fetch_ns),
        ("record.update_ns", l.record_update_ns),
        ("record.delete_ns", l.record_delete_ns),
        ("record.fixes_per_insert", l.record_fixes_per_insert),
        ("txn.begin_commit_ro_ns", l.txn_begin_commit_ro_ns),
        ("txn.commit_rw_ns", l.txn_commit_rw_ns),
        ("txn.rollback_ns_per_update", l.txn_rollback_ns_per_update),
        ("recovery.log_mb", r.log_mb),
        ("recovery.analyzed_records", r.analyzed as f64),
        ("recovery.redo_seen", r.redo_seen as f64),
        ("recovery.redo_applied", r.redo_applied as f64),
        ("recovery.undone", r.undone as f64),
        ("recovery.page_reads", r.stats.restart_page_reads as f64),
        ("recovery.redo_traversals", r.stats.redo_traversals as f64),
        ("recovery.mb_s", r.log_mb / r.restart_s),
        ("db.begin_p50_us", span_p50("begin")),
        ("db.commit_p50_us", span_p50("commit")),
        ("db.read_p99_us", p99(OpKind::Read)),
        ("db.scan_p99_us", p99(OpKind::Scan)),
        ("db.insert_p99_us", p99(OpKind::Insert)),
        ("db.update_p99_us", p99(OpKind::Update)),
        ("db.delete_p99_us", p99(OpKind::Delete)),
        ("db.op_max_ms", op_max_ns as f64 / 1e6),
        ("db.abort_share", retries as f64 / (ops + retries as f64)),
        (
            "db.read_overhead_ns",
            l.db_read_ns - (l.btree_fetch_ns + l.record_fetch_ns),
        ),
        (
            "db.insert_overhead_ns",
            l.db_insert_ns - (l.record_insert_ns + l.btree_insert_ns),
        ),
        ("db.update_overhead_ns", l.db_update_ns - l.record_update_ns),
        (
            "db.delete_overhead_ns",
            l.db_delete_ns - (l.record_delete_ns + l.btree_delete_ns),
        ),
        ("db.user_work_share", span_share(SpanKind::UserWork)),
        (
            "db.trace_overhead_share",
            1.0 - t.phase.throughput() / (ops / untraced_wall),
        ),
    ];
    in_table_order(PER_LAYER.iter().map(|m| (m.name, m.unit)), &values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert_eq!(names.iter().collect::<HashSet<_>>().len(), names.len());
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for n in &names {
            assert!(n.len() <= 64 && n.chars().all(ok), "{n}");
        }
        let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for u in units {
            assert!(u.len() <= 16 && u.chars().all(unit_ok), "{u}");
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_repeats_these_tables() {
        use ariesim_obs::json::{parse, JsonValue};
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).unwrap()).expect("valid JSON");
        let list = |key: &str| match doc.get(key) {
            Some(JsonValue::Array(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let text =
            |v: &JsonValue, key: &str| v.get(key).and_then(JsonValue::as_str).unwrap().to_string();

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text(j, "name"), m.name);
            assert_eq!(text(j, "unit"), m.unit, "{}", m.name);
            assert_eq!(text(j, "better"), m.better.as_str(), "{}", m.name);
            assert_eq!(
                j.get("bound"),
                Some(&JsonValue::Number(m.bound)),
                "{}",
                m.name
            );
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(text(j, "name"), m.name);
            assert_eq!(text(j, "unit"), m.unit, "{}", m.name);
            assert_eq!(text(j, "better"), m.better.as_str(), "{}", m.name);
        }
        let workloads: Vec<String> = list("workloads").iter().map(|w| text(w, "name")).collect();
        let ours: Vec<&str> = crate::spec::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
        assert_eq!(list("paths"), vec![JsonValue::String("benchmark".into())]);
    }
}
