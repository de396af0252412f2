//! The metric catalogue, the statistics behind it, and the result line.
//!
//! Every workload reports every metric of its mode (end-to-end untraced,
//! per-layer traced), so the names and units live here once. A per-layer
//! metric a workload does not exercise reads 0. Bounds are not repeated
//! here: `compare` reads them from `BENCHMARK.json`, and a test keeps the
//! two catalogues in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use varitune_trace::SpanNode;

/// One named, unit-carrying metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// What a user of the flow or the daemon sees. An "operation" is the
/// workload's unit of work: one method's Table 2 sweep, an ECO round or a
/// served job.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("ops_per_s", "1/s"),
    m("op_p50_ms", "ms"),
    m("peak_rss_mb", "MB"),
];

/// Totals over one traced pass (one set-up plus a fixed number of
/// operations), so they compare across commits on the same host.
pub const PER_LAYER: &[Metric] = &[
    m("liberty.ingest_ms", "ms"),
    m("liberty.cells_parsed", "count"),
    m("libchar.characterize_ms", "ms"),
    m("libchar.mc_trials", "count"),
    m("netlist.generate_ms", "ms"),
    m("synth.map_ms", "ms"),
    m("core.tune_ms", "ms"),
    m("core.orchestrate_ms", "ms"),
    m("synth.synthesize_ms", "ms"),
    m("synth.iterations", "count"),
    m("synth.buffers_inserted", "count"),
    m("synth.met_timing_ratio", "ratio"),
    m("sta.paths_ms", "ms"),
    m("sta.graph_build_ms", "ms"),
    m("sta.graph_builds", "count"),
    m("sta.ssta_build_ms", "ms"),
    m("sta.ssta_propagate_ms", "ms"),
    m("sta.ssta_analyses", "count"),
    m("sta.incremental_ms", "ms"),
    m("sta.gates_recomputed", "count"),
    m("serve.frame_mb", "MB"),
    m("serve.cache_hit_ratio", "ratio"),
    m("serve.retries", "count"),
    m("serve.jobs_shed", "count"),
    m("serve.characterizations", "count"),
    m("serve.job_p90_ms", "ms"),
    m("attribution.unattributed_share", "ratio"),
    m("trace.overhead_share", "ratio"),
];

/// Per-layer metrics read straight from the program's own trace counters,
/// as (metric name, counter name).
pub const TRACE_COUNTERS: &[(&str, &str)] = &[
    ("liberty.cells_parsed", "liberty.cells_parsed"),
    ("libchar.mc_trials", "libchar.mc_trials"),
    ("synth.iterations", "synth.iterations"),
    ("synth.buffers_inserted", "synth.buffers_inserted"),
    ("sta.graph_builds", "sta.graph_builds"),
    ("sta.ssta_analyses", "sta.ssta.analyses"),
    ("sta.gates_recomputed", "sta.gates_recomputed"),
];

/// Which per-layer metric a span's self time (its duration less its
/// children's) counts toward, as (span name, metric name). The `flow.*`,
/// `synth.*`, `libchar.*` and `sta.*` spans are the program's own; the
/// `benchmark.*` spans wrap calls that have no span of their own, or whose
/// span opens only partway in, so their self time is exactly that part.
/// A span missing here counts toward no layer and shows in
/// `attribution.unattributed_share`.
pub const SPAN_METRICS: &[(&str, &str)] = &[
    // `prepare_from_liberty_text` parses and screens before `flow.prepare`
    // opens.
    ("benchmark.prepare", "liberty.ingest_ms"),
    ("benchmark.ingest", "liberty.ingest_ms"),
    ("flow.prepare", "core.orchestrate_ms"),
    ("flow.characterize", "libchar.characterize_ms"),
    ("libchar.mc_characterize", "libchar.characterize_ms"),
    ("flow.generate_design", "netlist.generate_ms"),
    ("benchmark.generate", "netlist.generate_ms"),
    ("benchmark.map", "synth.map_ms"),
    ("flow.tune", "core.tune_ms"),
    ("flow.run", "core.orchestrate_ms"),
    // A sweep's own code: comparing candidates, freeing discarded designs.
    ("benchmark.select", "core.orchestrate_ms"),
    ("flow.synthesize", "synth.synthesize_ms"),
    ("synth.optimize", "synth.synthesize_ms"),
    ("flow.sta", "sta.paths_ms"),
    // `Flow::ssta` builds (and drops) a timing graph around the SSTA spans.
    ("flow.ssta", "sta.graph_build_ms"),
    ("benchmark.graph_build", "sta.graph_build_ms"),
    ("sta.ssta.build", "sta.ssta_build_ms"),
    ("sta.ssta.analyze", "sta.ssta_propagate_ms"),
    ("benchmark.eco_edit", "sta.incremental_ms"),
];

/// Adds the self time of every span in `spans` (and below) to the metric
/// [`SPAN_METRICS`] maps it to, in milliseconds. Spans carry durations
/// only because this package enables the trace crate's `wall-clock`
/// feature.
pub fn add_span_ms(spans: &[SpanNode], out: &mut BTreeMap<&'static str, f64>) {
    for span in spans {
        let children: u64 = span.children.iter().filter_map(|c| c.nanos).sum();
        let metric = SPAN_METRICS.iter().find(|(name, _)| *name == span.name);
        if let (Some(nanos), Some((_, metric))) = (span.nanos, metric) {
            *out.entry(metric).or_default() += nanos.saturating_sub(children) as f64 / 1e6;
        }
        add_span_ms(&span.children, out);
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of `values`; `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    quartiles(values).map(|q| q[1])
}

/// First, second and third quartile with Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so numbers here match any script that post-processes the runs.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    match len {
        0 => None,
        1 => Some([data[0]; 3]),
        _ => {
            let n = 4usize;
            let m = len + 1;
            let mut q = [0.0; 3];
            for (i, slot) in (1..n).zip(q.iter_mut()) {
                let j = (i * m / n).clamp(1, len - 1);
                // Negative at the clamped ends: Python extrapolates there.
                let delta = (i * m) as f64 - (j * n) as f64;
                *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
            }
            Some(q)
        }
    }
}

/// Peak resident set (`VmHWM`) of this process in MB, if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// One run's verdict and measured values, in catalogue order.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub values: Vec<(Metric, f64)>,
}

impl RunResult {
    /// The result object the benchmark prints as its last line. Values
    /// keep every digit; non-finite values (which no metric should
    /// produce) print as 0 rather than break the JSON.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (metric, value)) in self.values.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                s,
                "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                metric.name,
                metric.unit
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark contract's name rule: starts with a letter or digit,
    /// at most 64 characters of `[A-Za-z0-9_.-]`.
    fn valid_name(name: &str) -> bool {
        name.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(metric.name), "{}", metric.name);
            assert!(seen.insert(metric.name), "duplicate {}", metric.name);
            assert!(!metric.unit.is_empty() && metric.unit.len() <= 16);
        }
        let targets = TRACE_COUNTERS.iter().map(|(metric, _)| metric);
        for name in targets.chain(SPAN_METRICS.iter().map(|(_, metric)| metric)) {
            assert!(PER_LAYER.iter().any(|m| m.name == *name), "{name}");
        }
    }

    #[test]
    fn spans_count_their_self_time_toward_their_layer() {
        let node = |name: &str, ms: u64, children| SpanNode {
            name: name.to_string(),
            nanos: Some(ms * 1_000_000),
            children,
        };
        let tree = [node(
            "flow.run",
            10,
            vec![
                node(
                    "flow.synthesize",
                    6,
                    vec![node("synth.optimize", 5, vec![])],
                ),
                node("flow.sta", 3, vec![node("unmapped", 1, vec![])]),
            ],
        )];
        let mut ms = BTreeMap::new();
        add_span_ms(&tree, &mut ms);
        assert_eq!(ms.get("core.orchestrate_ms"), Some(&1.0));
        assert_eq!(ms.get("synth.synthesize_ms"), Some(&6.0));
        assert_eq!(ms.get("sta.paths_ms"), Some(&2.0));
        assert_eq!(ms.values().sum::<f64>(), 9.0);
    }

    /// Per-layer times need span durations, which only the trace crate's
    /// `wall-clock` feature records.
    #[test]
    fn spans_carry_durations() {
        let ((), trace) = varitune_trace::capture(|| {
            let _span = varitune_trace::span!("benchmark.select");
        });
        assert!(trace.spans[0].nanos.is_some());
    }

    #[test]
    fn name_validation_rejects_bad_names() {
        assert!(valid_name("sta.ssta_build_ms"));
        assert!(valid_name("9lives-ok"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/ed"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([4, 1, 3], n=4) == [1.0, 3.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0]), Some([1.0, 3.0, 4.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(median(&[2.0, 1.0]), Some(1.5));
        assert_eq!(quartiles(&[7.0]), Some([7.0; 3]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = RunResult {
            correct: true,
            attempted: 3,
            failed: 0,
            values: vec![(END_TO_END[0], 0.5), (END_TO_END[1], f64::NAN)],
        };
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"ops_per_s\": {\"value\": 0, \"unit\": \"1/s\"}}}"
        );
    }
}
