//! `benchmark compare PARENT CHANGE`: the regression and gain rules over
//! two sets of runs.
//!
//! Each file holds run records, one JSON object per line, as `--out`
//! appends them. Runs pair up in file order per (workload, metric). Bounds
//! and directions come from `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{self, Json};
use crate::metrics::quartiles;

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One end-to-end or per-layer metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecMetric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// `None` for per-layer metrics, which have no bound.
    pub bound: Option<f64>,
}

/// The metrics `BENCHMARK.json` declares, end-to-end first.
pub fn load_spec(text: &str) -> Result<Vec<SpecMetric>, String> {
    let root = json::parse(text)?;
    let mut out = Vec::new();
    for (section, bounded) in [("end_to_end", true), ("per_layer", false)] {
        let items = root
            .get(section)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("spec has no `{section}` list"))?;
        for item in items {
            let field = |k: &str| {
                item.get(k)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("a `{section}` entry lacks `{k}`"))
            };
            let better = match field("better")? {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("unknown direction `{other}`")),
            };
            let bound = if bounded {
                Some(
                    item.get("bound")
                        .and_then(Json::as_f64)
                        .ok_or("an end-to-end entry lacks `bound`")?,
                )
            } else {
                None
            };
            out.push(SpecMetric {
                name: field("name")?.to_string(),
                unit: field("unit")?.to_string(),
                better,
                bound,
            });
        }
    }
    Ok(out)
}

/// Values per (workload, metric), in run order.
pub type Runs = BTreeMap<(String, String), Vec<f64>>;

/// Reads run records (one JSON object per line).
pub fn load_runs(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: no workload", n + 1))?;
        let metrics = record
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or_else(|| format!("line {}: no metrics", n + 1))?;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("line {}: {name} has no value", n + 1))?;
            runs.entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(runs)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Regression,
    /// The change wins at least 9 of 10 pairs and its median moved by more
    /// than the parent's interquartile range.
    Gain,
    /// A side's spread is wider than the bound, and not every change run
    /// beats every parent run.
    Unresolved,
    Unchanged,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Regression => "REGRESSION",
            Verdict::Gain => "gain",
            Verdict::Unresolved => "unresolved",
            Verdict::Unchanged => "unchanged",
        }
    }
}

/// Applies the rules to one metric. Both sides must be non-empty.
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let (Some(qa), Some(qb)) = (quartiles(parent), quartiles(change)) else {
        return Verdict::Unresolved;
    };
    // Positive `improvement` is a move in the better direction.
    let improvement = |from: f64, to: f64| match better {
        Better::Lower => from - to,
        Better::Higher => to - from,
    };
    let spread = |q: [f64; 3]| (q[2] - q[0]) / q[1].abs();
    let beats = |b: f64, a: f64| improvement(a, b) > 0.0;
    let all_better = change.iter().all(|&b| parent.iter().all(|&a| beats(b, a)));
    if (spread(qa) > bound || spread(qb) > bound) && !all_better {
        return Verdict::Unresolved;
    }
    let shift = improvement(qa[1], qb[1]);
    if -shift > bound * qa[1].abs() {
        return Verdict::Regression;
    }
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(&a, &b)| beats(b, a))
        .count();
    if pairs > 0 && wins * 10 >= pairs * 9 && shift > qa[2] - qa[0] {
        Verdict::Gain
    } else {
        Verdict::Unchanged
    }
}

/// The comparison report, and whether any metric regressed.
pub fn compare(spec: &[SpecMetric], parent: &Runs, change: &Runs) -> (String, bool) {
    let mut workloads: Vec<&str> = parent
        .keys()
        .chain(change.keys())
        .map(|(w, _)| w.as_str())
        .collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<14} {:<32} {:>34} {:>34}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]"
    );
    for workload in workloads {
        for metric in spec {
            let key = (workload.to_string(), metric.name.clone());
            let (Some(a), Some(b)) = (parent.get(&key), change.get(&key)) else {
                continue;
            };
            let cell = |v: &[f64]| {
                quartiles(v).map_or_else(String::new, |q| {
                    format!("{:.4} [{:.4}, {:.4}]", q[1], q[0], q[2])
                })
            };
            let label = match metric.bound {
                Some(bound) => {
                    let v = verdict(a, b, metric.better, bound);
                    regressed |= v == Verdict::Regression;
                    v.as_str()
                }
                None => "-",
            };
            let _ = writeln!(
                out,
                "{workload:<14} {:<32} {:>34} {:>34}  {label}",
                format!("{} ({})", metric.name, metric.unit),
                cell(a),
                cell(b),
            );
        }
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};

    const LOW: Better = Better::Lower;

    #[test]
    fn identical_sets_are_unchanged() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.2];
        assert_eq!(verdict(&a, &a, LOW, 0.1), Verdict::Unchanged);
    }

    #[test]
    fn worsening_past_the_bound_is_a_regression() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.2];
        let b = a.map(|x| x * 1.2);
        assert_eq!(verdict(&a, &b, LOW, 0.1), Verdict::Regression);
        assert_eq!(verdict(&b, &a, Better::Higher, 0.1), Verdict::Regression);
        // Within the bound: not a regression.
        let c = a.map(|x| x * 1.05);
        assert_eq!(verdict(&a, &c, LOW, 0.1), Verdict::Unchanged);
    }

    #[test]
    fn gain_needs_nine_of_ten_pair_wins_and_a_shift_beyond_the_iqr() {
        let a: Vec<f64> = (0..10).map(|i| 10.0 + 0.05 * f64::from(i)).collect();
        let b: Vec<f64> = a.iter().map(|x| x * 0.9).collect();
        assert_eq!(verdict(&a, &b, LOW, 0.1), Verdict::Gain);
        // Two of ten pairs lost: no gain claimed.
        let mut c = b.clone();
        c[0] = 20.0;
        c[1] = 20.0;
        assert_eq!(verdict(&a, &c, LOW, 0.5), Verdict::Unchanged);
        // Every pair won, but by less than the parent's IQR.
        let d: Vec<f64> = a.iter().map(|x| x - 0.01).collect();
        assert_eq!(verdict(&a, &d, LOW, 0.1), Verdict::Unchanged);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let a = [5.0, 10.0, 15.0, 10.0, 20.0];
        let b = [6.0, 9.0, 16.0, 10.0, 19.0];
        assert_eq!(verdict(&a, &b, LOW, 0.1), Verdict::Unresolved);
        // ... unless every change run beats every parent run.
        let c = [1.0, 1.1, 1.2, 1.0, 1.1];
        assert_ne!(verdict(&a, &c, LOW, 0.1), Verdict::Unresolved);
    }

    #[test]
    fn compare_reads_records_and_flags_regressions() {
        let spec = vec![SpecMetric {
            name: "op_p50_ms".into(),
            unit: "ms".into(),
            better: LOW,
            bound: Some(0.1),
        }];
        let record = |v: f64| {
            format!(
                "{{\"workload\": \"w\", \"seed\": 1, \"trace\": 0, \"correct\": true, \
                 \"attempted\": 1, \"failed\": 0, \
                 \"metrics\": {{\"op_p50_ms\": {{\"value\": {v}, \"unit\": \"ms\"}}}}}}\n"
            )
        };
        let parent = load_runs(&[10.0, 10.1, 10.0].map(record).concat()).unwrap();
        let same = load_runs(&[10.0, 10.05, 10.1].map(record).concat()).unwrap();
        let worse = load_runs(&[13.0, 13.1, 13.0].map(record).concat()).unwrap();
        assert!(!compare(&spec, &parent, &same).1);
        let (report, regressed) = compare(&spec, &parent, &worse);
        assert!(regressed);
        assert!(report.contains("REGRESSION"), "{report}");
        assert!(load_runs("{\"metrics\": {}}").is_err());
    }

    #[test]
    fn benchmark_json_declares_exactly_the_catalogue() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let spec = load_spec(&text).unwrap();
        let declared: Vec<(&str, &str, bool)> = spec
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str(), m.bound.is_some()))
            .collect();
        let catalogue: Vec<(&str, &str, bool)> = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, true))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, false)))
            .collect();
        assert_eq!(declared, catalogue);
        for m in &spec {
            if let Some(bound) = m.bound {
                assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", m.name);
            }
        }
    }
}
