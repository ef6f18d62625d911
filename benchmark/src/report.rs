//! Reports over several repetitions, and the rule two reports are compared
//! by: the rule later performance changes are judged with.

use crate::metrics::{Better, EndToEnd, Value, END_TO_END};
use crate::summary::{median, quartile_distance};
use ariesim_obs::json::{self, JsonValue};
use std::collections::BTreeMap;
use std::fmt::Write;

/// One metric's value in every repetition.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Series {
    pub unit: String,
    pub values: Vec<f64>,
}

impl Series {
    pub fn median(&self) -> f64 {
        median(&self.values)
    }

    /// Quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        quartile_distance(&self.values) / self.median().abs().max(f64::MIN_POSITIVE)
    }
}

/// workload → metric → series, plus the facts of the host it was taken on.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    /// `nproc`, `commit`, `profile`, … recorded at run time.
    pub host: BTreeMap<String, String>,
    pub workloads: BTreeMap<String, BTreeMap<String, Series>>,
}

impl Report {
    pub fn record(&mut self, workload: &str, values: &[Value]) {
        let w = self.workloads.entry(workload.to_string()).or_default();
        for v in values {
            let s = w.entry(v.name.to_string()).or_default();
            s.unit = v.unit.to_string();
            s.values.push(v.value);
        }
    }

    pub fn to_json(&self) -> String {
        let mut host = json::Object::new();
        for (k, v) in &self.host {
            host.field_str(k, v);
        }
        let mut workloads = json::Object::new();
        for (name, metrics) in &self.workloads {
            let mut ms = json::Object::new();
            for (metric, s) in metrics {
                let values: Vec<String> = s.values.iter().map(|v| format!("{v}")).collect();
                let mut o = json::Object::new();
                o.field_str("unit", &s.unit);
                o.field_f64("median", s.median());
                o.field_f64("quartile_distance", quartile_distance(&s.values));
                o.field_raw("values", &format!("[{}]", values.join(",")));
                ms.field_raw(metric, &o.finish());
            }
            workloads.field_raw(name, &ms.finish());
        }
        let mut root = json::Object::new();
        root.field_raw("host", &host.finish());
        root.field_raw("workloads", &workloads.finish());
        root.finish()
    }

    pub fn from_json(text: &str) -> Result<Report, String> {
        let fields = |v: &JsonValue, what: &str| match v {
            JsonValue::Object(f) => Ok(f.clone()),
            _ => Err(format!("{what} is not an object")),
        };
        let root = json::parse(text).ok_or("not valid JSON")?;
        let mut report = Report::default();
        for (k, v) in fields(root.get("host").ok_or("no \"host\"")?, "host")? {
            report
                .host
                .insert(k, v.as_str().unwrap_or_default().to_string());
        }
        let workloads = root.get("workloads").ok_or("no \"workloads\"")?;
        for (workload, metrics) in fields(workloads, "workloads")? {
            let w = report.workloads.entry(workload).or_default();
            for (metric, s) in fields(&metrics, "a workload")? {
                let Some(JsonValue::Array(raw)) = s.get("values") else {
                    return Err(format!("{metric} has no \"values\" array"));
                };
                let values = raw
                    .iter()
                    .map(|v| match v {
                        JsonValue::Number(n) => Ok(*n),
                        JsonValue::Uint(n) => Ok(*n as f64),
                        _ => Err(format!("{metric} has a value that is not a number")),
                    })
                    .collect::<Result<Vec<f64>, String>>()?;
                if values.is_empty() {
                    return Err(format!("{metric} has no values"));
                }
                let unit = s
                    .get("unit")
                    .and_then(JsonValue::as_str)
                    .unwrap_or_default();
                w.insert(
                    metric,
                    Series {
                        unit: unit.to_string(),
                        values,
                    },
                );
            }
        }
        Ok(report)
    }

    /// Median, spread and sample count of every metric, one row each.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (workload, metrics) in &self.workloads {
            let _ = writeln!(out, "{workload}");
            let _ = writeln!(
                out,
                "  {:<36} {:>16} {:<6} {:>9} {:>3}",
                "metric", "median", "unit", "spread", "n"
            );
            for (name, s) in metrics {
                let _ = writeln!(
                    out,
                    "  {:<36} {:>16.4} {:<6} {:>8.2}% {:>3}",
                    name,
                    s.median(),
                    s.unit,
                    100.0 * s.spread(),
                    s.values.len()
                );
            }
        }
        out
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Same,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A side's quartile distance is wider than the bound: the runs cannot
    /// tell a regression of that size from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub fn verdict(m: &EndToEnd, a: &Series, b: &Series) -> Verdict {
    let (ma, mb) = (a.median(), b.median());
    let worse_by = match m.better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    if worse_by > m.bound * ma.abs() {
        Verdict::Worse
    } else if a.spread() > m.bound || b.spread() > m.bound {
        Verdict::Unresolved
    } else {
        Verdict::Same
    }
}

/// Compare every (end-to-end metric, workload) both reports hold. Returns
/// the table and how many rows were `worse` and `unresolved`.
pub fn compare(a: &Report, b: &Report) -> (String, usize, usize) {
    let mut out = String::new();
    let (mut worse, mut unresolved) = (0, 0);
    let _ = writeln!(
        out,
        "{:<14} {:<18} {:>14} {:>8} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A qd", "B median", "B qd", "bound"
    );
    for (workload, am) in &a.workloads {
        let Some(bm) = b.workloads.get(workload) else {
            continue;
        };
        for m in &END_TO_END {
            let (Some(sa), Some(sb)) = (am.get(m.name), bm.get(m.name)) else {
                continue;
            };
            let v = verdict(m, sa, sb);
            worse += usize::from(v == Verdict::Worse);
            unresolved += usize::from(v == Verdict::Unresolved);
            let _ = writeln!(
                out,
                "{:<14} {:<18} {:>14.4} {:>7.2}% {:>14.4} {:>7.2}% {:>5.0}%  {}",
                workload,
                m.name,
                sa.median(),
                100.0 * sa.spread(),
                sb.median(),
                100.0 * sb.spread(),
                100.0 * m.bound,
                v.as_str()
            );
        }
    }
    (out, worse, unresolved)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(values: &[f64]) -> Series {
        Series {
            unit: "us".into(),
            values: values.to_vec(),
        }
    }

    fn metric(better: Better) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "us",
            better,
            bound: 0.10,
        }
    }

    #[test]
    fn verdict_follows_direction_bound_and_spread() {
        let lat = &metric(Better::Lower);
        let a = series(&[10.0, 10.1, 9.9, 10.0, 10.05]);
        assert_eq!(
            verdict(lat, &a, &series(&[10.5, 10.6, 10.4, 10.5, 10.5])),
            Verdict::Same
        );
        assert_eq!(
            verdict(lat, &a, &series(&[11.5, 11.6, 11.4, 11.5, 11.5])),
            Verdict::Worse
        );
        assert_eq!(
            verdict(lat, &a, &series(&[5.0, 5.1, 4.9, 5.0, 5.0])),
            Verdict::Same
        );
        // Noisy B whose median is within the bound: cannot tell.
        assert_eq!(
            verdict(lat, &a, &series(&[8.0, 12.0, 10.0, 7.0, 13.0])),
            Verdict::Unresolved
        );
        let tput = &metric(Better::Higher);
        let a = series(&[100.0, 101.0, 99.0]);
        assert_eq!(
            verdict(tput, &a, &series(&[80.0, 81.0, 79.0])),
            Verdict::Worse
        );
        assert_eq!(
            verdict(tput, &a, &series(&[120.0, 121.0, 119.0])),
            Verdict::Same
        );
    }

    #[test]
    fn report_round_trips_and_compares_with_itself_as_same() {
        let mut r = Report::default();
        r.host.insert("nproc".into(), "2".into());
        for v in [1.5, 1.0, 2.0] {
            r.record(
                "read_hot",
                &[Value {
                    name: "read_p50_us",
                    unit: "us",
                    value: v,
                }],
            );
        }
        let back = Report::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
        let (table, worse, unresolved) = compare(&r, &back);
        assert!(table.contains("read_p50_us"), "{table}");
        // A spread of a third of the median is wider than the bound, so even
        // A against A is reported as unresolved, never as unchanged.
        assert_eq!((worse, unresolved), (0, 1));
        assert!(Report::from_json("{}").is_err());
    }
}
