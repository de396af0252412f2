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
use varitune::libchar::generate_nominal;
use varitune::liberty::write_library;
use varitune::synth::SynthConfig;
use varitune::trace::{FlowTrace, Histogram, Metrics, SpanNode};
use varitune::variation::rng::rng_from;
use varitune::variation::Xoshiro256PlusPlus;

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

/// Captures a flow prepared from Liberty `text` at `threads` workers and
/// returns the trace.
fn traced_text_prepare(text: &str, threads: usize) -> FlowTrace {
    let mut cfg = FlowConfig::small_for_tests();
    cfg.threads = threads;
    let (_, trace) = varitune::trace::capture(|| {
        Flow::prepare_from_liberty_text(cfg, text).expect("flow prepared from text")
    });
    trace
}

#[test]
fn text_ingestion_trace_is_byte_identical_across_thread_counts() {
    // `Flow::prepare` never parses; this one ingests the generated
    // library's text, so the parse's counters are in the trace too.
    let text = write_library(&generate_nominal(&FlowConfig::small_for_tests().generate))
        .expect("generated library serializes");
    let one = traced_text_prepare(&text, 1).to_json();
    let two = traced_text_prepare(&text, 2).to_json();
    let eight = traced_text_prepare(&text, 8).to_json();
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
// traces thread-count-invariant — and a trace's JSON round-trips. Each
// law runs on `CASES` generated inputs, one in-tree xoshiro256++ stream
// per case, so every run draws the same inputs.
// ---------------------------------------------------------------------

const CASES: u64 = 256;

/// One generator per generated case of `property`.
fn cases(property: &'static str) -> impl Iterator<Item = Xoshiro256PlusPlus> {
    (0..CASES).map(move |case| rng_from(0x7ACE, property, case))
}

/// Up to 63 events, each an increment of one of four counters and an
/// observation of one histogram, with values below 1,000,000.
fn seeded_metrics(rng: &mut Xoshiro256PlusPlus) -> Metrics {
    let mut m = Metrics::new();
    for _ in 0..rng.next_u64() % 64 {
        let v = rng.next_u64() % 1_000_000;
        m.add(["a", "b", "c", "d"][(rng.next_u64() % 4) as usize], v);
        m.observe("h", v);
    }
    m
}

#[test]
fn metrics_merge_is_associative_and_commutative() {
    for mut rng in cases("metrics-merge") {
        let [a, b, c] = std::array::from_fn(|_| seeded_metrics(&mut rng));

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
}

#[test]
fn sharded_histograms_equal_sequential() {
    for mut rng in cases("histogram-shards") {
        // Up to 1,024 values below 2^63 with a uniform bit length, so the
        // values reach every bucket and long sums saturate.
        let n = 1 + (rng.next_u64() % 1024) as usize;
        let data: Vec<u64> = (0..n)
            .map(|_| (rng.next_u64() >> 1) >> (rng.next_u64() % 64))
            .collect();
        let mut sequential = Histogram::new();
        for &v in &data {
            sequential.observe(v);
        }
        for shards in 1..=8 {
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
}

#[test]
fn flow_trace_json_round_trips_on_seeded_metrics() {
    for mut rng in cases("trace-json") {
        let trace = FlowTrace {
            spans: Vec::new(),
            metrics: seeded_metrics(&mut rng),
        };
        let text = trace.to_json();
        let back = FlowTrace::from_json(&text).expect("parses");
        assert_eq!(back, trace);
        assert_eq!(back.to_json(), text);
    }
}
