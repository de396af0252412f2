//! Determinism contract of the observability layer, exercised through the
//! full flow: counters and histograms are functions of the workload alone,
//! so a captured [`FlowTrace`] is **bit-identical** across worker-thread
//! counts and **byte-identical** across reruns (default build, no
//! `wall-clock`). Each capture records only its own thread and the
//! parallel workers that thread starts, so sibling tests running at the
//! same time cannot pollute the traces compared here, and an untraced run
//! records nothing.
//!
//! [`FlowTrace`]: varitune::trace::FlowTrace

use varitune::core::flow::{Flow, FlowConfig, FLOW_STAGE_SPANS};
use varitune::core::{TuningMethod, TuningParams};
use varitune::synth::SynthConfig;
use varitune::trace::{FlowTrace, Histogram, Metrics, SpanNode};

/// Captures one full flow — prepare, baseline, tuned — at `threads`
/// workers and returns the trace.
fn traced_flow(threads: usize) -> FlowTrace {
    let mut cfg = FlowConfig::small_for_tests();
    cfg.threads = threads;
    let (_, trace) = varitune::trace::capture(|| {
        let flow = Flow::prepare(cfg).expect("flow preparation");
        let synth = SynthConfig::with_clock_period(6.0);
        let baseline = flow.run_baseline(&synth).expect("baseline");
        let params = TuningParams::table2_sweep(TuningMethod::SigmaCeiling)[1];
        let (_, tuned) = flow
            .run_tuned(TuningMethod::SigmaCeiling, params, &synth)
            .expect("tuned run");
        assert!(baseline.design.sigma > 0.0 && tuned.design.sigma > 0.0);
    });
    trace
}

#[test]
fn flow_trace_is_bit_identical_across_thread_counts() {
    let one = traced_flow(1).to_json();
    let two = traced_flow(2).to_json();
    let eight = traced_flow(8).to_json();
    assert_eq!(one, two, "1-thread and 2-thread traces differ");
    assert_eq!(one, eight, "1-thread and 8-thread traces differ");
}

#[test]
fn flow_trace_is_byte_identical_across_reruns() {
    let first = traced_flow(2).to_json();
    let second = traced_flow(2).to_json();
    assert_eq!(first, second);
    // And the serialized form survives a parse/render cycle untouched.
    let reparsed = FlowTrace::from_json(&first).expect("trace parses");
    assert_eq!(reparsed.to_json(), first);
}

#[test]
fn flow_trace_covers_every_documented_stage() {
    let trace = traced_flow(1);
    let names = trace.span_names();
    for stage in FLOW_STAGE_SPANS {
        assert!(
            names.contains(stage),
            "documented flow stage `{stage}` missing from trace; spans: {names:?}"
        );
    }
    // Well-formed hierarchy: characterize and generate_design nest under
    // prepare, synthesize and sta under run.
    let child_names = |parent: &str| -> Vec<&str> {
        fn find<'a>(nodes: &'a [SpanNode], parent: &str) -> Option<&'a SpanNode> {
            nodes.iter().find_map(|n| {
                (n.name == parent)
                    .then_some(n)
                    .or_else(|| find(&n.children, parent))
            })
        }
        find(&trace.spans, parent)
            .unwrap_or_else(|| panic!("span `{parent}` not found"))
            .children
            .iter()
            .map(|c| c.name.as_str())
            .collect()
    };
    let prepare = child_names("flow.prepare");
    assert!(
        prepare.contains(&"flow.characterize"),
        "prepare children: {prepare:?}"
    );
    assert!(
        prepare.contains(&"flow.generate_design"),
        "prepare children: {prepare:?}"
    );
    let run = child_names("flow.run");
    assert!(run.contains(&"flow.synthesize"), "run children: {run:?}");
    assert!(run.contains(&"flow.sta"), "run children: {run:?}");
}

#[test]
fn flow_report_embeds_counter_snapshot_only_when_tracing() {
    let untraced = Flow::prepare(FlowConfig::small_for_tests()).expect("flow");
    assert!(untraced.report.counters.is_empty());
    let (flow, _) =
        varitune::trace::capture(|| Flow::prepare(FlowConfig::small_for_tests()).expect("flow"));
    assert!(flow.report.counters.contains_key("core.flows_prepared"));
    assert!(flow.report.counters.contains_key("libchar.mc_trials"));
}

// ---------------------------------------------------------------------
// Metrics algebra: merge is associative and commutative, and sharded
// accumulation equals sequential accumulation — the property that makes
// traces thread-count-invariant. Fixed pseudo-random inputs keep this
// offline (the same laws are checked on arbitrary inputs by the
// `proptest`-gated suite in `property_based.rs`).
// ---------------------------------------------------------------------

/// Small deterministic value stream (splitmix-style) for metric inputs.
fn values(seed: u64, n: usize) -> Vec<u64> {
    let mut x = seed;
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % 100_000
        })
        .collect()
}

fn metrics_from(seed: u64) -> Metrics {
    let mut m = Metrics::new();
    for v in values(seed, 64) {
        m.add(["alpha", "beta", "gamma"][(v % 3) as usize], v);
        m.observe("sizes", v);
    }
    m
}

#[test]
fn metrics_merge_is_associative_and_commutative() {
    let (a, b, c) = (metrics_from(1), metrics_from(2), metrics_from(3));

    let mut ab_c = a.clone();
    ab_c.merge(&b);
    ab_c.merge(&c);
    let mut bc = b.clone();
    bc.merge(&c);
    let mut a_bc = a.clone();
    a_bc.merge(&bc);
    assert_eq!(ab_c, a_bc, "merge must be associative");

    let mut ab = a.clone();
    ab.merge(&b);
    let mut ba = b.clone();
    ba.merge(&a);
    assert_eq!(ab, ba, "merge must be commutative");
}

#[test]
fn sharded_histograms_equal_sequential() {
    let data = values(9, 1024);
    let mut sequential = Histogram::new();
    for &v in &data {
        sequential.observe(v);
    }
    for shards in [2usize, 3, 8] {
        let mut merged = Histogram::new();
        for chunk in data.chunks(data.len().div_ceil(shards)) {
            let mut shard = Histogram::new();
            for &v in chunk {
                shard.observe(v);
            }
            merged.merge(&shard);
        }
        assert_eq!(merged, sequential, "{shards} shards diverged");
    }
}
