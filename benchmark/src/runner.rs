//! The measurement loop every workload shares.
//!
//! A workload is a set-up (what a user pays once: ingestion,
//! characterization, design generation, a warmed daemon) plus a sequence
//! of operations that repeats in cycles. The untraced run makes one
//! measured pass — set-up, then whole cycles of operations until
//! `--seconds` have passed — reads the peak memory, and then sets up
//! [`SETUPS`]` - 1` more times so that `setup_s` is a median. The traced
//! run makes two passes of identical, fixed work (one set-up plus
//! [`Workload::traced_ops`] operations), first plain and then inside
//! `varitune_trace::capture`, and checks that both produce the same output
//! digest.
//!
//! Both passes run the same code. Per-layer times are read from the spans
//! the program records, which carry durations because this package enables
//! the trace crate's `wall-clock` feature
//! ([`SPAN_METRICS`](crate::metrics::SPAN_METRICS)).

use std::collections::BTreeMap;
use std::time::Instant;

use varitune_trace::FlowTrace;

use crate::metrics::{
    add_span_ms, median, peak_rss_mb, percentile, Metric, RunResult, END_TO_END, PER_LAYER,
    TRACE_COUNTERS,
};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// How many operations a pass runs: at least `min_ops`, at most
/// `max_ops`, and a new cycle of `cycle` operations only while `seconds`
/// have not passed.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    seconds: f64,
    min_ops: usize,
    max_ops: usize,
    cycle: usize,
    start: Instant,
}

impl Plan {
    /// Whether operation number `index` (counting from 0) may start.
    pub fn admits(&self, index: usize) -> bool {
        index < self.max_ops
            && (index < self.min_ops
                || !index.is_multiple_of(self.cycle)
                || self.start.elapsed().as_secs_f64() < self.seconds)
    }
}

/// Per-operation latencies (in operation order) and the failure count.
#[derive(Debug, Default)]
pub struct Ops {
    pub op_ms: Vec<f64>,
    pub failed: usize,
}

/// Runs `op(0)`, `op(1)`, … one after another while `plan` admits them.
/// `op` returns whether the operation succeeded; `Err` aborts the run.
pub fn sequential(
    plan: &Plan,
    mut op: impl FnMut(usize) -> Result<bool, String>,
) -> Result<Ops, String> {
    let mut ops = Ops::default();
    while plan.admits(ops.op_ms.len()) {
        let t0 = Instant::now();
        if !op(ops.op_ms.len())? {
            ops.failed += 1;
        }
        ops.op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    Ok(ops)
}

/// What a workload hands back after its operations.
#[derive(Debug, Default)]
pub struct Finish {
    /// Digest of the outputs.
    pub digest: u64,
    /// Every failed output check.
    pub failures: Vec<String>,
    /// Per-layer values only the workload can compute.
    pub layer_values: Vec<(&'static str, f64)>,
    /// Traces recorded outside this process's capture (the daemon's
    /// per-job traces); their spans and counters count toward the
    /// per-layer metrics too.
    pub traces: Vec<FlowTrace>,
    /// What per-layer times are a share of, when not the pass's wall time:
    /// the daemon's jobs overlap, so it is their summed round trips.
    pub attributable_ms: Option<f64>,
}

pub trait Workload {
    /// Everything set-up produces; may borrow from the set-up scope.
    type State<'s>;

    /// Operations per cycle. A pass only stops at the end of a cycle, so
    /// every pass runs the same mix of operations.
    fn cycle(&self) -> usize;

    /// Operations in one traced pass, a multiple of [`Workload::cycle`].
    fn traced_ops(&self) -> usize;

    /// Performs the set-up, hands the state to `body`, then tears it
    /// down.
    fn with_setup<R>(&self, body: impl FnOnce(&mut Self::State<'_>) -> R) -> Result<R, String>;

    /// Runs the operations `plan` admits. Operation `i` always does the
    /// same work for a given seed.
    fn run_ops(&self, state: &mut Self::State<'_>, plan: &Plan) -> Result<Ops, String>;

    /// Checks the outputs accumulated in `state` and digests them.
    fn finish(&self, state: &mut Self::State<'_>) -> Result<Finish, String>;
}

/// One pass: set-up, operations, checks.
struct Pass {
    setup_s: f64,
    body_s: f64,
    ops: Ops,
    finish: Finish,
}

fn pass<W: Workload>(w: &W, seconds: f64, min_ops: usize, max_ops: usize) -> Result<Pass, String> {
    let t0 = Instant::now();
    w.with_setup(|state| {
        let setup_s = t0.elapsed().as_secs_f64();
        let plan = Plan {
            seconds,
            min_ops,
            max_ops,
            cycle: w.cycle(),
            start: Instant::now(),
        };
        let ops = w.run_ops(state, &plan)?;
        let body_s = plan.start.elapsed().as_secs_f64();
        // The checks record into a private recorder, so the spans and
        // counters of a traced pass cover set-up and operations only.
        let (finish, _) = varitune_trace::capture_job(|| w.finish(state));
        Ok(Pass {
            setup_s,
            body_s,
            ops,
            finish: finish?,
        })
    })?
}

/// The outcome of one benchmark invocation on one workload.
pub struct Outcome {
    pub result: RunResult,
    pub digest: u64,
    pub failures: Vec<String>,
}

/// The untraced run: end-to-end metrics.
pub fn run_untraced<W: Workload>(w: &W, seconds: f64) -> Result<Outcome, String> {
    let p = pass(w, seconds, 1, usize::MAX)?;
    // Read before the extra set-ups: the daemon never frees what its
    // caches hold, so their memory would count although no measured
    // operation used it.
    let rss_mb = peak_rss_mb().unwrap_or(0.0);
    let mut setups = vec![p.setup_s];
    for _ in 1..SETUPS {
        let t0 = Instant::now();
        setups.push(w.with_setup(|_| t0.elapsed().as_secs_f64())?);
    }
    let n = p.ops.op_ms.len();
    let value = |metric: &Metric| -> f64 {
        match metric.name {
            "setup_s" => median(&setups).unwrap_or(0.0),
            "ops_per_s" => n as f64 / p.body_s,
            "op_p50_ms" => percentile(&p.ops.op_ms, 50.0).unwrap_or(0.0),
            "peak_rss_mb" => rss_mb,
            other => unreachable!("end-to-end metric {other} has no source"),
        }
    };
    Ok(Outcome {
        result: RunResult {
            correct: p.finish.failures.is_empty(),
            attempted: n,
            failed: p.ops.failed,
            values: END_TO_END.iter().map(|m| (*m, value(m))).collect(),
        },
        digest: p.finish.digest,
        failures: p.finish.failures,
    })
}

/// The traced run: per-layer metrics from a traced pass, plus the tracing
/// overhead against an identical untraced pass.
pub fn run_traced<W: Workload>(w: &W) -> Result<Outcome, String> {
    let ops = w.traced_ops();
    let plain = pass(w, 0.0, ops, ops)?;
    let (traced, trace) = varitune_trace::capture(|| pass(w, 0.0, ops, ops));
    let mut traced = traced?;
    let mut failures = std::mem::take(&mut traced.finish.failures);
    failures.extend(plain.finish.failures);
    if traced.finish.digest != plain.finish.digest {
        failures.push(format!(
            "traced output digest {:#018x} differs from untraced {:#018x}",
            traced.finish.digest, plain.finish.digest
        ));
    }
    let traces: Vec<&FlowTrace> = std::iter::once(&trace)
        .chain(&traced.finish.traces)
        .collect();
    let mut span_ms = BTreeMap::new();
    for t in &traces {
        add_span_ms(&t.spans, &mut span_ms);
    }
    let attributed_ms: f64 = span_ms.values().sum();
    let traced_s = traced.setup_s + traced.body_s;
    let attributable_ms = traced.finish.attributable_ms.unwrap_or(traced_s * 1e3);
    let value = |name: &str| -> f64 {
        if let Some((_, counter)) = TRACE_COUNTERS.iter().find(|(m, _)| *m == name) {
            return traces.iter().map(|t| t.counter(counter) as f64).sum();
        }
        if let Some((_, v)) = traced.finish.layer_values.iter().find(|(m, _)| *m == name) {
            return *v;
        }
        match name {
            "attribution.unattributed_share" => 1.0 - attributed_ms / attributable_ms,
            "trace.overhead_share" => traced_s / (plain.setup_s + plain.body_s) - 1.0,
            // 0 when the layer did no work on this workload.
            _ => span_ms.get(name).copied().unwrap_or(0.0),
        }
    };
    let values = PER_LAYER.iter().map(|m| (*m, value(m.name))).collect();
    Ok(Outcome {
        result: RunResult {
            correct: failures.is_empty(),
            attempted: plain.ops.op_ms.len() + traced.ops.op_ms.len(),
            failed: plain.ops.failed + traced.ops.failed,
            values,
        },
        digest: traced.finish.digest,
        failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload whose operation `i` fails when `i` is odd.
    struct Alternating;

    impl Workload for Alternating {
        type State<'s> = Vec<usize>;

        fn cycle(&self) -> usize {
            2
        }

        fn traced_ops(&self) -> usize {
            4
        }

        fn with_setup<R>(&self, body: impl FnOnce(&mut Vec<usize>) -> R) -> Result<R, String> {
            let mut state = {
                let _span = varitune_trace::span!("benchmark.ingest");
                Vec::new()
            };
            Ok(body(&mut state))
        }

        fn run_ops(&self, state: &mut Vec<usize>, plan: &Plan) -> Result<Ops, String> {
            sequential(plan, |i| {
                let _span = varitune_trace::span!("flow.tune");
                varitune_trace::add("synth.iterations", 3);
                state.push(i);
                Ok(i % 2 == 0)
            })
        }

        fn finish(&self, state: &mut Vec<usize>) -> Result<Finish, String> {
            Ok(Finish {
                digest: state.iter().sum::<usize>() as u64,
                layer_values: vec![("serve.retries", 7.0)],
                ..Finish::default()
            })
        }
    }

    #[test]
    fn failed_operations_are_counted_not_fatal() {
        // One whole cycle even with no time to run.
        let out = run_untraced(&Alternating, 0.0).unwrap();
        assert_eq!((out.result.attempted, out.result.failed), (2, 1));
        let out = run_traced(&Alternating).unwrap();
        assert_eq!((out.result.attempted, out.result.failed), (8, 4));
        assert!(out.result.correct);
        assert_eq!(out.digest, 6);
    }

    #[test]
    fn plan_runs_the_minimum_then_whole_cycles_until_the_deadline() {
        let plan = Plan {
            seconds: 0.0,
            min_ops: 1,
            max_ops: 10,
            cycle: 3,
            start: Instant::now(),
        };
        // The cycle the minimum started runs to its end.
        assert!(plan.admits(0));
        assert!(plan.admits(2));
        assert!(!plan.admits(3));
        let open = Plan {
            seconds: 3600.0,
            ..plan
        };
        assert!(open.admits(9));
        assert!(!open.admits(10));
    }

    #[test]
    fn traced_run_reports_every_per_layer_metric() {
        let out = run_traced(&Alternating).unwrap();
        let names: Vec<_> = out.result.values.iter().map(|(m, _)| m.name).collect();
        let expected: Vec<_> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, expected);
        let get = |n: &str| {
            out.result
                .values
                .iter()
                .find(|(m, _)| m.name == n)
                .map(|(_, v)| *v)
        };
        assert_eq!(get("serve.retries"), Some(7.0));
        // At least: the recorder is process-wide, and other tests may run
        // flow code while this one captures.
        assert!(get("synth.iterations").unwrap() >= 12.0);
        assert!(get("core.tune_ms").unwrap() > 0.0);
        let share = get("attribution.unattributed_share").unwrap();
        assert!(share.is_finite() && share < 1.0, "{share}");
    }
}
