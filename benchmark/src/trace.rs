//! Spans recorded by the benchmark's own code around its calls into `Db`.
//!
//! Each transaction attempt is one `txn` span with a child span per call
//! (`begin`, the row operation, `commit` or `rollback`); the four share a
//! transaction id. Spans stay in memory during the phase and are written as
//! JSONL when it ends. The timed phases run with [`NoTrace`], which compiles
//! to nothing: end-to-end metrics are never taken with tracing on.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// `parent` of a span that has none.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Index of the parent span in the same client's log.
    pub parent: u32,
    /// Shared by the spans of one transaction attempt.
    pub txn: u64,
    /// Nanoseconds since the phase's origin.
    pub start_ns: u64,
    pub end_ns: u64,
}

pub trait Tracer {
    /// Open a span now; returns its id for [`close`](Tracer::close) and for
    /// children to name as parent.
    fn open(&mut self, name: &'static str, parent: u32, txn: u64) -> u32;
    fn close(&mut self, id: u32);
}

/// Tracing off.
pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline]
    fn open(&mut self, _: &'static str, _: u32, _: u64) -> u32 {
        0
    }
    #[inline]
    fn close(&mut self, _: u32) {}
}

/// One client's in-memory span log.
pub struct SpanLog {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(origin: Instant, capacity: usize) -> SpanLog {
        SpanLog {
            origin,
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Ascending durations of the spans called `name`.
    pub fn durations(logs: &[SpanLog], name: &str) -> Vec<u64> {
        let mut d: Vec<u64> = logs
            .iter()
            .flat_map(|l| &l.spans)
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        d.sort_unstable();
        d
    }
}

impl Tracer for SpanLog {
    #[inline]
    fn open(&mut self, name: &'static str, parent: u32, txn: u64) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            txn,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    #[inline]
    fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
    }
}

/// Write every client's spans to `path`, one JSON object per line.
pub fn write_jsonl(path: &Path, logs: &[SpanLog]) -> std::io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    for (client, log) in logs.iter().enumerate() {
        for (id, s) in log.spans.iter().enumerate() {
            write!(w, "{{\"client\":{client},\"id\":{id},\"parent\":")?;
            match s.parent {
                NO_PARENT => write!(w, "null")?,
                p => write!(w, "{p}")?,
            }
            writeln!(
                w,
                ",\"txn\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.txn, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_round_trip_as_jsonl() {
        let mut log = SpanLog::new(Instant::now(), 4);
        let txn = log.open("txn", NO_PARENT, 7);
        let begin = log.open("begin", txn, 7);
        log.close(begin);
        log.close(txn);
        assert_eq!(log.spans[begin as usize].parent, txn);
        assert!(log.spans[txn as usize].end_ns >= log.spans[begin as usize].end_ns);

        let dir = crate::workdir::WorkDir::new("t-trace").unwrap();
        let path = dir.path().join("t.jsonl");
        write_jsonl(&path, &[log]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let v = ariesim_obs::json::parse(lines[1]).expect("valid JSON");
        assert_eq!(v.get("name").unwrap().as_str(), Some("begin"));
        assert_eq!(v.get("parent").unwrap().as_u64(), Some(0));
        assert_eq!(v.get("txn").unwrap().as_u64(), Some(7));
        assert_eq!(
            ariesim_obs::json::parse(lines[0]).unwrap().get("parent"),
            Some(&ariesim_obs::json::JsonValue::Null)
        );
    }
}
