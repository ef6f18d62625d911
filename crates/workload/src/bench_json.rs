//! `BENCH_<topic>.json` emission and validation.
//!
//! One stable machine-readable schema (`ariesim-bench-v1`) for every
//! benchmark the workload harness produces, so CI can smoke-validate the
//! files and downstream tooling can diff runs. Built on the std-only
//! writer/parser in `ariesim_obs::json`.

use crate::driver::{KeyDist, RunResult, WorkloadConfig};
use ariesim_common::{Error, Result};
use ariesim_obs::json::{self, JsonValue, Object};
use ariesim_obs::HistogramSnapshot;

/// Schema identifier stamped into every BENCH file.
pub const SCHEMA: &str = "ariesim-bench-v1";

fn hist_json(s: &HistogramSnapshot) -> String {
    let mut o = Object::new();
    o.field_u64("count", s.count);
    o.field_u64("p50_ns", s.p50());
    o.field_u64("p99_ns", s.p99());
    o.field_u64("max_ns", s.max());
    o.field_u64("mean_ns", s.mean_ns());
    o.finish()
}

fn config_json(cfg: &WorkloadConfig) -> String {
    let mut o = Object::new();
    o.field_u64("ops_per_thread", cfg.ops_per_thread);
    o.field_u64("keyspace", cfg.keyspace);
    o.field_u64("payload_bytes", cfg.payload as u64);
    match cfg.dist {
        KeyDist::Uniform => {
            o.field_str("dist", "uniform");
        }
        KeyDist::Zipfian(theta) => {
            o.field_str("dist", "zipfian");
            o.field_f64("theta", theta);
        }
    }
    o.field_str("mix", &cfg.mix.to_string());
    o.field_u64("seed", cfg.seed);
    o.field_f64("standby_read_fraction", cfg.standby_read_fraction);
    o.finish()
}

fn breakdown_json(r: &RunResult) -> String {
    let mut spans = Object::new();
    for (name, self_ns, count) in r.breakdown.named() {
        let mut s = Object::new();
        s.field_u64("self_ns", self_ns);
        s.field_u64("count", count);
        spans.field_raw(name, &s.finish());
    }
    let mut o = Object::new();
    o.field_u64("wall_ns", r.wall_ns);
    o.field_u64("attributed_ns", r.breakdown.total_ns());
    o.field_u64("aborted_ns", r.aborted_ns);
    o.field_f64("coverage", r.attribution_coverage());
    o.field_raw("spans", &spans.finish());
    o.finish()
}

fn run_json(r: &RunResult) -> String {
    let mut lat = Object::new();
    lat.field_raw("read", &hist_json(&r.read));
    lat.field_raw("insert", &hist_json(&r.insert));
    lat.field_raw("update", &hist_json(&r.update));
    lat.field_raw("delete", &hist_json(&r.delete));
    lat.field_raw("commit", &hist_json(&r.commit));
    lat.field_raw("repl_apply", &hist_json(&r.repl_apply));

    let mut o = Object::new();
    o.field_u64("threads", r.threads as u64);
    o.field_u64("ops", r.ops);
    o.field_u64("elapsed_ms", r.elapsed.as_millis() as u64);
    o.field_f64("throughput_ops_s", r.throughput());
    o.field_u64("aborts", r.aborts);
    o.field_u64("standby_reads", r.standby_reads);
    o.field_u64("max_repl_lag_bytes", r.max_lag_bytes);
    o.field_u64("max_repl_lag_lsn_delta", r.max_lag_lsn_delta);
    o.field_raw("latency", &lat.finish());
    o.field_raw("breakdown", &breakdown_json(r));
    // Group-commit amortization: batch/rider counts plus the batch-size
    // distribution (values are waiters per batch, not nanoseconds).
    let mut bs = Object::new();
    bs.field_u64("count", r.wal_batch.count);
    bs.field_u64("p50", r.wal_batch.p50());
    bs.field_u64("p99", r.wal_batch.p99());
    bs.field_u64("max", r.wal_batch.max());
    bs.field_u64("mean", r.wal_batch.mean_ns());
    let mut wg = Object::new();
    wg.field_u64("batches", r.wal_group_batches);
    wg.field_u64("riders", r.wal_group_riders);
    wg.field_raw("batch_size", &bs.finish());
    o.field_raw("wal_group", &wg.finish());
    o.finish()
}

/// Render one BENCH document: a topic, the run configuration, and one
/// entry per thread count.
pub fn bench_json(topic: &str, cfg: &WorkloadConfig, runs: &[RunResult]) -> String {
    let mut o = Object::new();
    o.field_str("schema", SCHEMA);
    o.field_str("topic", topic);
    o.field_raw("config", &config_json(cfg));
    let mut arr = String::from("[");
    for (i, r) in runs.iter().enumerate() {
        if i > 0 {
            arr.push(',');
        }
        arr.push_str(&run_json(r));
    }
    arr.push(']');
    o.field_raw("runs", &arr);
    o.finish()
}

fn need<'a>(v: &'a JsonValue, key: &str, ctx: &str) -> Result<&'a JsonValue> {
    v.get(key)
        .ok_or_else(|| Error::Internal(format!("BENCH json: missing {ctx}.{key}")))
}

fn need_u64(v: &JsonValue, key: &str, ctx: &str) -> Result<u64> {
    need(v, key, ctx)?
        .as_u64()
        .ok_or_else(|| Error::Internal(format!("BENCH json: {ctx}.{key} not a u64")))
}

/// Validate one BENCH document against the `ariesim-bench-v1` schema:
/// parses, checks the schema tag, and checks every run entry for the
/// required counters and internally-consistent latency blocks
/// (`p50 <= p99 <= max`). Returns the topic.
pub fn validate(text: &str) -> Result<String> {
    let v = json::parse(text)
        .ok_or_else(|| Error::Internal("BENCH json: not valid JSON".into()))?;
    let schema = need(&v, "schema", "root")?
        .as_str()
        .ok_or_else(|| Error::Internal("BENCH json: schema not a string".into()))?;
    if schema != SCHEMA {
        return Err(Error::Internal(format!(
            "BENCH json: schema {schema:?}, expected {SCHEMA:?}"
        )));
    }
    let topic = need(&v, "topic", "root")?
        .as_str()
        .ok_or_else(|| Error::Internal("BENCH json: topic not a string".into()))?
        .to_string();
    need(&v, "config", "root")?;
    let JsonValue::Array(runs) = need(&v, "runs", "root")? else {
        return Err(Error::Internal("BENCH json: runs not an array".into()));
    };
    if runs.is_empty() {
        return Err(Error::Internal("BENCH json: no runs".into()));
    }
    for run in runs {
        let threads = need_u64(run, "threads", "run")?;
        if threads == 0 {
            return Err(Error::Internal("BENCH json: run with zero threads".into()));
        }
        need_u64(run, "ops", "run")?;
        need_u64(run, "aborts", "run")?;
        need_u64(run, "max_repl_lag_bytes", "run")?;
        need_u64(run, "max_repl_lag_lsn_delta", "run")?;
        need(run, "throughput_ops_s", "run")?;
        // Per-phase commit-path attribution: every span kind must be
        // present, and the attributed time must explain the measured op
        // wall time (the coverage acceptance bound below).
        let bd = need(run, "breakdown", "run")?;
        let wall_ns = need_u64(bd, "wall_ns", "breakdown")?;
        let attributed = need_u64(bd, "attributed_ns", "breakdown")?;
        need_u64(bd, "aborted_ns", "breakdown")?;
        let spans = need(bd, "spans", "breakdown")?;
        for name in ariesim_obs::SPAN_NAMES {
            let s = need(spans, name, "breakdown.spans")?;
            need_u64(s, "self_ns", name)?;
            need_u64(s, "count", name)?;
        }
        if wall_ns > 0 {
            let cov = attributed as f64 / wall_ns as f64;
            // Upper slack is wider than lower: a group-commit leader's
            // fsync self-time and the wait of the riders it serves cover
            // the same wall period — a batch can therefore be counted from
            // both sides and push coverage slightly above 1.
            if !(0.95..=1.10).contains(&cov) {
                return Err(Error::Internal(format!(
                    "BENCH json: breakdown covers {cov:.3} of wall time, \
                     outside [0.95, 1.10]"
                )));
            }
        }
        // Group-commit stats are emitted by current builds but absent from
        // BENCH files produced before the WAL pipeline landed, so they are
        // validated only when present.
        if let Some(wg) = run.get("wal_group") {
            need_u64(wg, "batches", "wal_group")?;
            need_u64(wg, "riders", "wal_group")?;
            let bs = need(wg, "batch_size", "wal_group")?;
            need_u64(bs, "count", "wal_group.batch_size")?;
            need_u64(bs, "p50", "wal_group.batch_size")?;
            need_u64(bs, "p99", "wal_group.batch_size")?;
        }
        let lat = need(run, "latency", "run")?;
        for op in ["read", "insert", "update", "delete", "commit", "repl_apply"] {
            let h = need(lat, op, "latency")?;
            let count = need_u64(h, "count", op)?;
            let p50 = need_u64(h, "p50_ns", op)?;
            let p99 = need_u64(h, "p99_ns", op)?;
            need_u64(h, "max_ns", op)?;
            // p50/p99 are bucket tops of the same histogram, so ordering
            // must hold; max_ns is exact and may sit below a bucket top.
            if count > 0 && p50 > p99 {
                return Err(Error::Internal(format!(
                    "BENCH json: {op} percentiles not ordered (p50 {p50} > p99 {p99})"
                )));
            }
        }
    }
    Ok(topic)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ariesim_obs::LatencyHistogram;
    use std::time::Duration;

    fn fake_result(threads: usize) -> RunResult {
        let h = LatencyHistogram::default();
        h.record_ns(1_000);
        h.record_ns(2_000);
        h.record_ns(50_000);
        // wall = 3 populated op histograms (53 µs each) + aborted time;
        // the fake breakdown attributes exactly that, so coverage = 1.
        let mut breakdown = ariesim_obs::SpanSnapshot::default();
        breakdown.self_ns[ariesim_obs::SpanKind::UserWork as usize] = 100_000;
        breakdown.count[ariesim_obs::SpanKind::UserWork as usize] = 9;
        breakdown.self_ns[ariesim_obs::SpanKind::LockWait as usize] = 60_000;
        breakdown.count[ariesim_obs::SpanKind::LockWait as usize] = 2;
        RunResult {
            threads,
            ops: 1000,
            elapsed: Duration::from_millis(250),
            read: h.snapshot(),
            insert: h.snapshot(),
            update: h.snapshot(),
            delete: HistogramSnapshot::default(),
            commit: h.snapshot(),
            aborts: 3,
            standby_reads: 200,
            max_lag_bytes: 4096,
            max_lag_lsn_delta: 4096,
            repl_apply: h.snapshot(),
            breakdown,
            wall_ns: 160_000,
            aborted_ns: 1_000,
            wal_group_batches: 40,
            wal_group_riders: 160,
            wal_batch: h.snapshot(),
        }
    }

    #[test]
    fn emitted_document_validates() {
        let cfg = WorkloadConfig::default();
        let text = bench_json("replication", &cfg, &[fake_result(1), fake_result(8)]);
        assert_eq!(validate(&text).unwrap(), "replication");
        // And the interesting fields survive a round-trip.
        let v = json::parse(&text).unwrap();
        let runs = match v.get("runs").unwrap() {
            JsonValue::Array(a) => a,
            other => panic!("runs not an array: {other:?}"),
        };
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[1].get("threads").unwrap().as_u64(), Some(8));
        assert_eq!(
            runs[0].get("max_repl_lag_bytes").unwrap().as_u64(),
            Some(4096)
        );
        assert_eq!(
            v.get("config").unwrap().get("dist").unwrap().as_str(),
            Some("zipfian")
        );
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate("not json").is_err());
        assert!(validate(r#"{"schema":"other","topic":"t","runs":[]}"#).is_err());
        let cfg = WorkloadConfig::default();
        let good = bench_json("t", &cfg, &[fake_result(1)]);
        assert!(validate(&good).is_ok());
        let wrong_schema = good.replace(SCHEMA, "ariesim-bench-v0");
        assert!(validate(&wrong_schema).is_err());
        let no_runs = bench_json("t", &cfg, &[]);
        assert!(validate(&no_runs).is_err());
        let no_lat = good.replace("\"latency\"", "\"latency_gone\"");
        assert!(validate(&no_lat).is_err());
        let no_breakdown = good.replace("\"breakdown\"", "\"breakdown_gone\"");
        assert!(validate(&no_breakdown).is_err());
        // Attribution that explains only a fraction of wall time fails the
        // 5% coverage bound.
        let poor_coverage = good.replace("\"attributed_ns\":160000", "\"attributed_ns\":10000");
        assert_ne!(poor_coverage, good, "replacement must hit");
        assert!(validate(&poor_coverage).is_err());
    }
}
