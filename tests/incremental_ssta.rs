//! Oracle suite for incremental SSTA: after seeded random edit sequences
//! (each step followed by `update`), `analyze_ssta` on the edited graph —
//! which re-propagates only the changed cone when it analyzed the same
//! graph last — must equal a fresh `SstaModel::build(..).analyze()` bit for
//! bit: the report digest plus every net's arrival mean and sigma.
//!
//! The retained state is process-wide, so every test here holds [`SERIAL`]
//! for its whole body. Each graph is built over the very `StatLibrary` the
//! analysis receives: a graph over a copy of the mean library never
//! retains anything, and would test nothing.

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use varitune_libchar::{generate_mc_libraries, generate_nominal, GenerateConfig, StatLibrary};
use varitune_liberty::{CellId, TimingType};
use varitune_netlist::{generate_mcu, McuConfig, NetId};
use varitune_sta::graph::EndpointKind;
use varitune_sta::{
    analyze_ssta, SstaModel, SstaOptions, SstaReport, StaConfig, StaError, TimingGraph, WireModel,
};
use varitune_synth::{map_netlist, LibraryConstraints, TargetLibrary};
use varitune_trace::FlowTrace;
use varitune_variation::Xoshiro256PlusPlus;

const PERIOD_NS: f64 = 2.41;
const SEED: u64 = 7;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The statistical library every graph here is built over.
fn stat() -> &'static StatLibrary {
    static STAT: OnceLock<StatLibrary> = OnceLock::new();
    STAT.get_or_init(|| {
        let cfg = GenerateConfig::full();
        let mc = generate_mc_libraries(&generate_nominal(&cfg), &cfg, 6, SEED);
        StatLibrary::from_libraries(&mc).expect("characterization")
    })
}

/// A timing graph of `mcu` over `stat.mean`.
fn graph_over<'l>(stat: &'l StatLibrary, mcu: &McuConfig) -> TimingGraph<'l> {
    let constraints = LibraryConstraints::unconstrained();
    let target = TargetLibrary::new(&stat.mean, &constraints);
    let design = map_netlist(generate_mcu(mcu), &target, WireModel::default()).expect("mapping");
    let cfg = StaConfig::with_clock_period(PERIOD_NS);
    TimingGraph::new(design, &stat.mean, &cfg).expect("engine build")
}

fn opts(max_local_terms: usize) -> SstaOptions {
    SstaOptions {
        max_local_terms,
        ..SstaOptions::default()
    }
}

/// `analyze_ssta` under a trace capture, with the capture's counters.
fn traced(
    graph: &TimingGraph<'_>,
    stat: &StatLibrary,
    opts: SstaOptions,
) -> (SstaReport, FlowTrace) {
    let (report, trace) = varitune_trace::capture(|| analyze_ssta(graph, stat, opts));
    (report.expect("analyze_ssta"), trace)
}

/// Asserts `report` equals a fresh full analysis of `graph`, bit for bit.
fn assert_matches_full(
    report: &SstaReport,
    graph: &TimingGraph<'_>,
    stat: &StatLibrary,
    opts: SstaOptions,
    ctx: &str,
) {
    let full = SstaModel::build(graph, stat, opts)
        .and_then(|m| m.analyze())
        .expect("full analysis");
    assert_eq!(
        report.digest(),
        full.digest(),
        "{ctx}: digest {:#018x} vs full {:#018x}",
        report.digest(),
        full.digest()
    );
    assert_eq!(report.arrival_mean.len(), full.arrival_mean.len(), "{ctx}");
    for (ni, (a, b)) in report
        .arrival_mean
        .iter()
        .zip(&full.arrival_mean)
        .enumerate()
    {
        assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: net {ni} mean {a} vs {b}");
    }
    for (ni, (a, b)) in report
        .arrival_sigma
        .iter()
        .zip(&full.arrival_sigma)
        .enumerate()
    {
        assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: net {ni} sigma {a} vs {b}");
    }
}

/// Same-family drive variants of gate `gi`'s cell, by id.
fn variants(graph: &TimingGraph<'_>, gi: usize) -> Vec<CellId> {
    let Some((family, _)) = graph.cell_name(gi).rsplit_once('_') else {
        return Vec::new();
    };
    let prefix = format!("{family}_");
    let lib = graph.lib();
    (0..lib.cells.len())
        .filter(|&i| lib.cells[i].name.starts_with(&prefix))
        .map(|i| CellId(i as u32))
        .collect()
}

fn pick(rng: &mut Xoshiro256PlusPlus, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// Resizes `n` random gates to random same-family variants.
fn resize_random(graph: &mut TimingGraph<'_>, rng: &mut Xoshiro256PlusPlus, n: usize) {
    for _ in 0..n {
        let gi = pick(rng, graph.gate_count());
        let v = variants(graph, gi);
        if !v.is_empty() {
            let cell = v[pick(rng, v.len())];
            graph.resize_gate_id(gi, cell).expect("same-family resize");
        }
    }
}

/// A driven net with at least two sinks, searched from a random start.
fn splittable_net(graph: &TimingGraph<'_>, rng: &mut Xoshiro256PlusPlus) -> Option<NetId> {
    let nets = graph.loads().len();
    let start = pick(rng, nets);
    (0..nets)
        .map(|i| NetId(((start + i) % nets) as u32))
        .find(|&n| graph.fanout(n) >= 2 && graph.driver(n).is_some())
}

/// Edit kinds a random sequence draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Edit {
    Resize,
    SetLoad,
    ClearLoad,
    Split,
    InvalidateAll,
}

/// Runs a seeded random edit sequence, checking every step against a
/// fresh full analysis. Returns the edits applied.
fn run_sequence(
    graph: &mut TimingGraph<'_>,
    stat: &StatLibrary,
    opts: SstaOptions,
    seed: u64,
    steps: usize,
    ctx: &str,
) -> Vec<Edit> {
    let inv = graph.lib().cell_id("INV_2").expect("INV_2");
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let mut overridden: Vec<NetId> = Vec::new();
    let mut applied = Vec::new();
    let report = analyze_ssta(graph, stat, opts).expect("first analysis");
    assert_matches_full(
        &report,
        graph,
        stat,
        opts,
        &format!("{ctx}: first analysis"),
    );
    for step in 0..steps {
        let roll = rng.next_f64();
        let edit = if roll < 0.5 {
            let n = if rng.next_f64() < 0.2 { 16 } else { 1 };
            resize_random(graph, &mut rng, n);
            Edit::Resize
        } else if roll < 0.65 {
            let net = NetId(pick(&mut rng, graph.loads().len()) as u32);
            let load = graph.load(net) * (0.5 + 1.5 * rng.next_f64()) + 1e-4;
            graph.set_load(net, Some(load)).expect("set_load");
            overridden.push(net);
            Edit::SetLoad
        } else if roll < 0.75 && !overridden.is_empty() {
            let net = overridden.swap_remove(pick(&mut rng, overridden.len()));
            graph.set_load(net, None).expect("clear load");
            Edit::ClearLoad
        } else if roll < 0.85 {
            match splittable_net(graph, &mut rng) {
                Some(net) => {
                    graph.split_fanout_id(net, inv).expect("fanout split");
                    Edit::Split
                }
                None => continue,
            }
        } else {
            graph.invalidate_all();
            Edit::InvalidateAll
        };
        graph.update().expect("update");
        let report = analyze_ssta(graph, stat, opts).expect("analyze_ssta");
        assert_matches_full(
            &report,
            graph,
            stat,
            opts,
            &format!("{ctx}: step {step} ({edit:?})"),
        );
        applied.push(edit);
    }
    applied
}

#[test]
fn random_edit_sequences_match_full_analysis_on_the_small_mcu() {
    let _serial = serial();
    let stat = stat();
    for (i, m) in [4usize, 32, 128].into_iter().enumerate() {
        let mut graph = graph_over(stat, &McuConfig::small_for_tests());
        let edits = run_sequence(
            &mut graph,
            stat,
            opts(m),
            0x5eed + i as u64,
            40,
            &format!("M={m}"),
        );
        let mut kinds = edits.clone();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), 5, "M={m}: every edit kind ran: {edits:?}");
    }
}

/// The paper-scale MCU's widest stage clears the sharding threshold, so
/// at every thread count the first analysis and the bulk load step shard.
#[test]
fn paper_scale_sequence_matches_full_analysis_at_1_2_8_threads() {
    let _serial = serial();
    let stat = stat();
    let opts = opts(32);
    let (mut finals, mut fold_steps) = (Vec::new(), Vec::new());
    for threads in [1usize, 2, 8] {
        let ctx = format!("{threads} thread(s)");
        let mut graph = graph_over(stat, &McuConfig::paper_scale());
        graph.set_threads(threads);
        let (_, first) = traced(&graph, stat, opts);
        let all_arcs = first.counter("sta.ssta.arcs_modeled");
        run_sequence(&mut graph, stat, opts, 0xbeef, 6, &ctx);

        // Override the load of every other driven net: about half the
        // gates re-model, and a wide stage's dirty list shards.
        let driven: Vec<NetId> = (0..graph.loads().len() as u32)
            .map(NetId)
            .filter(|&n| graph.driver(n).is_some())
            .collect();
        for &net in driven.iter().step_by(2) {
            graph.set_load(net, Some(graph.load(net) * 1.25)).unwrap();
        }
        graph.update().unwrap();
        let (report, trace) = traced(&graph, stat, opts);
        let modeled = trace.counter("sta.ssta.arcs_modeled");
        assert!(
            modeled > 0 && modeled < all_arcs,
            "{ctx}: bulk step re-modelled {modeled} of {all_arcs} arcs"
        );
        fold_steps.push(trace.counter("sta.ssta.fold_steps"));
        assert!(
            trace.counter("variation.shard_calls") > 0,
            "{ctx}: the bulk re-analysis never sharded a stage"
        );
        assert_matches_full(&report, &graph, stat, opts, &format!("{ctx}: bulk load"));
        for &net in driven.iter().step_by(2) {
            graph.set_load(net, None).unwrap();
        }
        graph.update().unwrap();
        let report = analyze_ssta(&graph, stat, opts).unwrap();
        assert_matches_full(&report, &graph, stat, opts, &format!("{ctx}: cleared"));
        finals.push(report.digest());
    }
    assert_eq!(finals[0], finals[1], "2 threads diverged");
    assert_eq!(finals[0], finals[2], "8 threads diverged");
    assert_eq!(fold_steps[0], fold_steps[1], "2 threads folded other steps");
    assert_eq!(fold_steps[0], fold_steps[2], "8 threads folded other steps");
}

#[test]
fn a_resize_re_evaluates_only_its_cone() {
    let _serial = serial();
    let stat = stat();
    let opts = opts(32);
    let mut graph = graph_over(stat, &McuConfig::small_for_tests());
    let gates = graph.gate_count() as u64;
    let endpoints = graph.endpoints().len() as u64;
    let (_, first) = traced(&graph, stat, opts);
    assert_eq!(first.counter("sta.ssta.gates_evaluated"), gates);
    assert_eq!(first.counter("sta.ssta.fold_steps"), endpoints);
    let all_arcs = first.counter("sta.ssta.arcs_modeled");

    // Nothing changed: nothing re-models, re-evaluates or re-folds.
    let (report, again) = traced(&graph, stat, opts);
    assert_eq!(again.counter("sta.ssta.gates_evaluated"), 0);
    assert_eq!(again.counter("sta.ssta.arcs_modeled"), 0);
    assert_eq!(again.counter("sta.ssta.fold_steps"), 0);
    assert_matches_full(&report, &graph, stat, opts, "no edit");

    // A resizable gate driving a late endpoint: its cone starts past the
    // fold's first checkpoint.
    let gi = graph
        .endpoints()
        .iter()
        .rev()
        .filter_map(|ep| graph.driver(ep.net))
        .find(|&g| variants(&graph, g).len() > 1)
        .expect("a resizable gate");
    let to = *variants(&graph, gi)
        .iter()
        .find(|&&c| c != graph.cell_id(gi))
        .unwrap();
    graph.resize_gate_id(gi, to).unwrap();
    graph.update().unwrap();
    let (report, trace) = traced(&graph, stat, opts);
    let evaluated = trace.counter("sta.ssta.gates_evaluated");
    let modeled = trace.counter("sta.ssta.arcs_modeled");
    assert!(
        evaluated > 0 && evaluated < gates,
        "a resize evaluated {evaluated} of {gates} gates"
    );
    assert!(
        modeled > 0 && modeled < all_arcs,
        "a resize re-modelled {modeled} of {all_arcs} arcs"
    );
    // The fold resumes from a checkpoint before the first endpoint in the
    // cone; a resume from step 0 would fold every endpoint.
    let steps = trace.counter("sta.ssta.fold_steps");
    assert!(
        steps > 0 && steps < endpoints,
        "a resize folded {steps} of {endpoints} endpoints"
    );
    assert_matches_full(&report, &graph, stat, opts, "one resize");

    // A full STA sweep moves no bits, so SSTA has nothing to redo.
    graph.invalidate_all();
    graph.update().unwrap();
    let (report, trace) = traced(&graph, stat, opts);
    assert_eq!(trace.counter("sta.ssta.gates_evaluated"), 0);
    assert_eq!(trace.counter("sta.ssta.fold_steps"), 0);
    assert_matches_full(&report, &graph, stat, opts, "invalidate_all");
}

/// Moves only one endpoint's required time: two flip-flop cells that are
/// one cell but for their setup tables, so swapping them leaves every arc
/// model and the data net's form bit-identical. The fold must still
/// restart at or before that endpoint.
#[test]
fn a_required_time_change_restarts_the_fold_at_its_endpoint() {
    let _serial = serial();
    let opts = opts(32);
    // The last flip-flop endpoint, and two cells of its gate's family.
    let probe = graph_over(stat(), &McuConfig::small_for_tests());
    let (e, gi) = probe
        .endpoints()
        .iter()
        .enumerate()
        .rev()
        .find_map(|(e, ep)| match ep.kind {
            EndpointKind::FlipFlopData { gate } => Some((e, gate)),
            EndpointKind::PrimaryOutput => None,
        })
        .expect("a flip-flop endpoint");
    let family = variants(&probe, gi);
    assert!(family.len() >= 2, "flip-flop family {family:?}");
    let (a, b) = (family[0], family[1]);
    drop(probe);

    // `b` becomes a copy of `a` under its own name, pin caps and launch
    // arcs included, with 50 ns more setup time: enough to make its
    // endpoint the critical one.
    let mut pair = stat().clone();
    for lib in [&mut pair.mean, &mut pair.sigma] {
        let name = lib.cells[b.index()].name.clone();
        lib.cells[b.index()] = lib.cells[a.index()].clone();
        lib.cells[b.index()].name = name;
    }
    let setup_arcs = pair.mean.cells[b.index()]
        .pins
        .iter_mut()
        .flat_map(|p| &mut p.timing)
        .filter(|arc| arc.timing_type == TimingType::SetupRising);
    for arc in setup_arcs {
        for lut in [&mut arc.cell_rise, &mut arc.cell_fall]
            .into_iter()
            .flatten()
        {
            lut.values.iter_mut().flatten().for_each(|v| *v += 50.0);
        }
    }

    // Every flip-flop mapped to `b` moves to `a`, the swapped one too.
    let mut graph = graph_over(&pair, &McuConfig::small_for_tests());
    let n_ep = graph.endpoints().len();
    for g in 0..graph.gate_count() {
        if g == gi || graph.cell_id(g) == b {
            graph.resize_gate_id(g, a).unwrap();
        }
    }
    graph.update().unwrap();
    let before = analyze_ssta(&graph, &pair, opts).unwrap();
    graph.resize_gate_id(gi, b).unwrap();
    graph.update().unwrap();
    let (after, trace) = traced(&graph, &pair, opts);

    assert_eq!(trace.counter("sta.ssta.gates_evaluated"), 0);
    let d = graph.endpoints()[e].net.0 as usize;
    assert_eq!(
        (
            before.arrival_mean[d].to_bits(),
            before.arrival_sigma[d].to_bits()
        ),
        (
            after.arrival_mean[d].to_bits(),
            after.arrival_sigma[d].to_bits()
        ),
        "the data net's form moved"
    );
    assert_ne!(
        before.endpoints[e].required.to_bits(),
        after.endpoints[e].required.to_bits(),
        "the required time did not move"
    );
    let steps = trace.counter("sta.ssta.fold_steps") as usize;
    assert!(
        steps >= n_ep - e && steps < n_ep,
        "endpoint {e} of {n_ep} changed and the fold took {steps} steps"
    );
    assert_ne!(after.digest(), before.digest(), "the report did not move");
    assert_matches_full(&after, &graph, &pair, opts, "setup-only swap");
}

/// Gates the forward pass evaluated in one `analyze_ssta` call.
fn evaluated(graph: &TimingGraph<'_>, stat: &StatLibrary, opts: SstaOptions) -> u64 {
    traced(graph, stat, opts)
        .1
        .counter("sta.ssta.gates_evaluated")
}

#[test]
fn each_invalidating_event_forces_a_full_analysis() {
    let _serial = serial();
    let stat = stat();
    let opts = opts(32);
    let mut graph = graph_over(stat, &McuConfig::small_for_tests());
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(11);
    let full = |g: &TimingGraph<'_>| g.gate_count() as u64;
    evaluated(&graph, stat, opts);
    // The control: a re-analysis after a resize is incremental.
    resize_random(&mut graph, &mut rng, 1);
    graph.update().unwrap();
    assert!(evaluated(&graph, stat, opts) < full(&graph));

    // A structural edit.
    let net = splittable_net(&graph, &mut rng).expect("a splittable net");
    let inv = stat.mean.cell_id("INV_2").unwrap();
    graph.split_fanout_id(net, inv).unwrap();
    graph.update().unwrap();
    assert_eq!(evaluated(&graph, stat, opts), full(&graph), "split_fanout");

    // Another StatLibrary: a copy is another library, and it never
    // retains, so the original's next analysis is full too.
    let copy = stat.clone();
    assert_eq!(
        evaluated(&graph, &copy, opts),
        full(&graph),
        "other library"
    );
    assert_eq!(evaluated(&graph, stat, opts), full(&graph), "after a copy");

    // Other options.
    assert_eq!(
        evaluated(&graph, stat, SstaOptions::default()),
        full(&graph)
    );
    assert_eq!(evaluated(&graph, stat, opts), full(&graph), "other options");

    // A graph built between two analyses.
    let other = graph_over(stat, &McuConfig::small_for_tests());
    assert_eq!(evaluated(&graph, stat, opts), full(&graph), "graph built");

    // Another graph analyzed in between.
    evaluated(&other, stat, opts);
    assert_eq!(evaluated(&graph, stat, opts), full(&graph), "other graph");
    assert_eq!(evaluated(&graph, stat, opts), 0, "unchanged re-analysis");
    let report = analyze_ssta(&graph, stat, opts).unwrap();
    assert_matches_full(&report, &graph, stat, opts, "after the events");
}

#[test]
fn an_analysis_that_errors_retains_nothing() {
    let _serial = serial();
    let opts = opts(32);
    // A library whose sigma column lacks one cell the graph does not use
    // yet: resizing a gate to it makes the re-model fail.
    let probe = graph_over(stat(), &McuConfig::small_for_tests());
    let used: Vec<CellId> = (0..probe.gate_count()).map(|g| probe.cell_id(g)).collect();
    let (gi, unused) = (0..probe.gate_count())
        .find_map(|g| {
            let v = variants(&probe, g);
            v.into_iter().find(|c| !used.contains(c)).map(|c| (g, c))
        })
        .expect("a gate with an unused variant");
    let original = probe.cell_id(gi);
    drop(probe);
    let mut broken = stat().clone();
    broken.sigma.cells[unused.index()].name.push_str("_missing");
    let mut graph = graph_over(&broken, &McuConfig::small_for_tests());

    evaluated(&graph, &broken, opts);
    graph.resize_gate_id(gi, unused).unwrap();
    graph.update().unwrap();
    let err = analyze_ssta(&graph, &broken, opts).unwrap_err();
    assert!(matches!(err, StaError::UnknownCell { .. }), "{err}");

    graph.resize_gate_id(gi, original).unwrap();
    graph.update().unwrap();
    assert_eq!(
        evaluated(&graph, &broken, opts),
        graph.gate_count() as u64,
        "the analysis after an error is full"
    );
    let report = analyze_ssta(&graph, &broken, opts).unwrap();
    assert_matches_full(&report, &graph, &broken, opts, "after an error");
}
