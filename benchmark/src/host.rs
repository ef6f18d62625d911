//! What this checkout's earlier runs found the host capable of.
//!
//! The reference host has slow spells: for three to five minutes at a time
//! everything the guest does takes 30–50% longer, with no stolen time in
//! `/proc/stat` and nothing a run could compare itself with — every round of
//! a run that falls inside a spell is slow, and they agree with each other.
//! What a run can compare itself with is the same code's earlier runs. The
//! record kept here, a small text file under `benchmark/out/`, holds the
//! lowest speed index (see [`speed_index`]) each workload has reached in this
//! checkout; a run that finds itself well above it waits and tries again
//! instead of reporting the spell (`run::run_untraced`). Each checkout has
//! its own record, so one commit is never compared with another, and a
//! missing or unreadable record only means no run waits.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// A run is in a slow spell when its speed index is above this multiple of
/// the lowest on record. Quiet runs drift by ±8% over minutes and the record
/// keeps the lowest of many, so typical quiet runs read 1.05–1.15 of it.
pub const SLOW_SPELL: f64 = 1.25;
/// All the runs of a checkout together wait at most this long, so a record
/// that can never be matched again (the host got slower for good) costs a
/// bounded amount and then stops mattering.
pub const WAIT_CAP_S: f64 = 600.0;

/// How fast the host is running this engine, as one number: the geometric
/// mean of the five probe latencies (µs; lower is faster). Short single-client
/// transactions are what a slow spell slows most, and five medians of a
/// thousand samples each repeat within a few percent.
pub fn speed_index(p50_us: &[f64; 5]) -> f64 {
    (p50_us
        .iter()
        .map(|v| v.max(f64::MIN_POSITIVE).ln())
        .sum::<f64>()
        / 5.0)
        .exp()
}

const WAITED: &str = "waited_s";

#[derive(Debug, Default)]
pub struct HostRecord {
    path: PathBuf,
    /// Lowest speed index per key (workload and `--seconds`), plus the
    /// seconds waited so far under [`WAITED`].
    entries: BTreeMap<String, f64>,
}

impl HostRecord {
    /// The record at `path`; empty when there is none yet or it cannot be read.
    pub fn load(path: &Path) -> HostRecord {
        let text = std::fs::read_to_string(path).unwrap_or_default();
        let entries = text
            .lines()
            .filter_map(|l| l.split_once(' '))
            .filter_map(|(k, v)| Some((k.to_string(), v.parse::<f64>().ok()?)))
            .filter(|(_, v)| v.is_finite() && *v >= 0.0)
            .collect();
        HostRecord {
            path: path.to_path_buf(),
            entries,
        }
    }

    /// Lowest speed index on record for `key`.
    pub fn lowest(&self, key: &str) -> Option<f64> {
        self.entries.get(key).copied()
    }

    /// Whether a run may still wait for a slow spell to pass.
    pub fn may_wait(&self) -> bool {
        self.entries.get(WAITED).copied().unwrap_or(0.0) < WAIT_CAP_S
    }

    /// Record that a run reached `index` on `key` after waiting `waited_s`.
    pub fn note(&mut self, key: &str, index: f64, waited_s: f64) -> std::io::Result<()> {
        let lowest = self.entries.entry(key.to_string()).or_insert(index);
        *lowest = lowest.min(index);
        *self.entries.entry(WAITED.to_string()).or_insert(0.0) += waited_s;
        let text: String = (self.entries.iter())
            .map(|(k, v)| format!("{k} {v}\n"))
            .collect();
        std::fs::write(&self.path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workdir::WorkDir;

    #[test]
    fn record_keeps_the_lowest_index_and_the_time_waited() {
        let dir = WorkDir::new("t-host").unwrap();
        let path = dir.path().join("host-speed");
        let mut r = HostRecord::load(&path);
        assert_eq!(r.lowest("w@10"), None);
        assert!(r.may_wait());
        r.note("w@10", 20.0, 0.0).unwrap();
        r.note("w@10", 25.0, 45.0).unwrap();
        r.note("v@10", 7.5, WAIT_CAP_S).unwrap();

        let r = HostRecord::load(&path);
        assert_eq!(r.lowest("w@10"), Some(20.0));
        assert_eq!(r.lowest("v@10"), Some(7.5));
        assert!(!r.may_wait(), "the checkout's waiting is used up");

        std::fs::write(&path, "w@10 nonsense\nv@10 -3\nno-value\n").unwrap();
        let r = HostRecord::load(&path);
        assert_eq!((r.lowest("w@10"), r.lowest("v@10")), (None, None));
    }

    #[test]
    fn speed_index_is_the_geometric_mean() {
        assert!((speed_index(&[2.0, 8.0, 4.0, 4.0, 4.0]) - 4.0).abs() < 1e-12);
        // A spell that slows every latency by 40% raises the index by 40%.
        let quiet = [4.4, 81.0, 145.0, 14.9, 12.1];
        let slow = quiet.map(|v| v * 1.4);
        assert!((speed_index(&slow) / speed_index(&quiet) - 1.4).abs() < 1e-12);
    }
}
