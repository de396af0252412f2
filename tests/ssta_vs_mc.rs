//! Differential suite: the SSTA engine against Monte Carlo.
//!
//! Two oracles, each used where it is sound:
//!
//! * **Graph-level MC** (`SstaModel::monte_carlo`) samples the exact
//!   per-arc model the canonical forms are built from — one die factor
//!   plus an independent local factor per arc — and maxes through the
//!   *whole graph*, so it sees path switching at reconvergent endpoints.
//!   This is the oracle for per-endpoint moments on the MCU: path-level
//!   MC (`sta::mc`) samples only the deterministically-worst path per
//!   endpoint and therefore *underestimates* the true statistical mean
//!   wherever near-tie paths reconverge, by far more than the SSTA error
//!   being measured.
//! * **Path-level MC** (`sta::mc::simulate_worst_paths`) is exact on a
//!   single-path design (nothing to switch to), so a pure chain is where
//!   SSTA is held to it directly.
//!
//! Tolerances mirror the committed `ssta_harness` gates: worst endpoint
//! mean within 2 %, median endpoint sigma within 5 %, worst endpoint
//! sigma within 25 % (Clark's Gaussian-form max underestimates sigma at
//! cascaded near-tie maxes — see `DESIGN.md`), criticalities summing to
//! 1, and digest-identical reports across thread counts and a rerun.

use varitune::libchar::{generate_mc_libraries, generate_nominal, GenerateConfig, StatLibrary};
use varitune::netlist::{generate_mcu, GateKind, McuConfig, Netlist};
use varitune::sta::{
    analyze, MappedDesign, SstaModel, SstaOptions, StaConfig, TimingGraph, WireModel,
};
use varitune::synth::{map_netlist, LibraryConstraints, TargetLibrary};

const PERIOD_NS: f64 = 2.41;
const SEED: u64 = 7;

/// Statistical library + timing graph over the small (test-scale) MCU —
/// the same fixture recipe as `ssta_harness --smoke`.
fn mcu_fixture() -> (StatLibrary, TimingGraph<'static>) {
    mcu_fixture_at(&McuConfig::small_for_tests())
}

/// [`mcu_fixture`]'s recipe over an MCU of any size.
fn mcu_fixture_at(mcu_cfg: &McuConfig) -> (StatLibrary, TimingGraph<'static>) {
    let gen_cfg = GenerateConfig::full();
    let nominal = generate_nominal(&gen_cfg);
    let mc = generate_mc_libraries(&nominal, &gen_cfg, 6, SEED);
    let stat = StatLibrary::from_libraries(&mc).expect("characterization");
    let mcu = generate_mcu(mcu_cfg);
    let constraints = LibraryConstraints::unconstrained();
    let target = TargetLibrary::new(&stat.mean, &constraints);
    let design = map_netlist(mcu, &target, WireModel::default()).expect("mapping");
    // The graph borrows the mean library; leak it so the fixture can be
    // returned (test-only, bounded to one allocation per call).
    let stat_ref: &'static StatLibrary = Box::leak(Box::new(stat));
    let cfg = StaConfig::with_clock_period(PERIOD_NS);
    let graph = TimingGraph::new(design, &stat_ref.mean, &cfg).expect("engine build");
    (stat_ref.clone(), graph)
}

#[test]
fn ssta_endpoint_moments_match_graph_mc_on_mcu() {
    let (stat, graph) = mcu_fixture();
    let model = SstaModel::build(&graph, &stat, SstaOptions::default()).expect("model");
    let report = model.analyze().expect("analyze");
    let mc = model.monte_carlo(10_000, SEED, 0).expect("mc");

    let mut max_mean_rel = 0.0f64;
    let mut max_sigma_rel = 0.0f64;
    let mut sigma_rels = Vec::new();
    for (i, ep) in report.endpoints.iter().enumerate() {
        let (m, s) = (mc.endpoint_mean[i], mc.endpoint_sigma[i]);
        max_mean_rel = max_mean_rel.max((ep.mean - m).abs() / m.max(1e-9));
        if s > 0.002 {
            sigma_rels.push((ep.sigma - s).abs() / s);
        }
    }
    sigma_rels.sort_by(f64::total_cmp);
    for &r in &sigma_rels {
        max_sigma_rel = max_sigma_rel.max(r);
    }
    let median_sigma_rel = sigma_rels[sigma_rels.len() / 2];
    assert!(
        max_mean_rel < 0.02,
        "worst endpoint mean off by {max_mean_rel}"
    );
    assert!(
        median_sigma_rel < 0.05,
        "median endpoint sigma off by {median_sigma_rel}"
    );
    assert!(
        max_sigma_rel < 0.25,
        "worst endpoint sigma off by {max_sigma_rel}"
    );

    // Design-level moments: mean within 2 %, sigma within 10 % (the
    // design form is a max over every endpoint — the most skew-exposed
    // statistic, so it gets twice the median-endpoint allowance).
    let dm = (report.design_mean() - mc.design_mean).abs() / mc.design_mean;
    let ds = (report.design_sigma() - mc.design_sigma).abs() / mc.design_sigma;
    assert!(dm < 0.02, "design mean off by {dm}");
    assert!(ds < 0.10, "design sigma off by {ds}");
}

#[test]
fn ssta_criticalities_sum_to_one_over_endpoint_cut() {
    let (stat, graph) = mcu_fixture();
    let model = SstaModel::build(&graph, &stat, SstaOptions::default()).expect("model");
    let report = model.analyze().expect("analyze");
    // The endpoints are a path-disjoint cut of the timing graph: every
    // path crosses exactly one, so endpoint criticalities partition the
    // probability of being critical.
    let sum = report.criticality_sum();
    assert!((sum - 1.0).abs() < 1e-9, "criticalities sum to {sum}");
    for ep in &report.endpoints {
        assert!((0.0..=1.0 + 1e-12).contains(&ep.criticality));
    }
    // Gate criticalities are probabilities too, and the top-ranked list
    // is sorted descending.
    let top = report.top_gate_criticalities(10);
    for w in top.windows(2) {
        assert!(w[0].1 >= w[1].1);
    }
    for &(_, c) in &top {
        assert!((0.0..=1.0 + 1e-12).contains(&c));
    }
}

#[test]
fn ssta_reports_bit_identical_across_threads_and_rerun() {
    let (stat, mut graph) = mcu_fixture();
    let mut digests = Vec::new();
    for &t in &[1usize, 2, 8] {
        graph.set_threads(t);
        let model = SstaModel::build(&graph, &stat, SstaOptions::default()).expect("model");
        digests.push(model.analyze().expect("analyze").digest());
    }
    assert_eq!(digests[0], digests[1], "digest diverged at 2 threads");
    assert_eq!(digests[0], digests[2], "digest diverged at 8 threads");
    // Rerun at the first thread count: bit-identical again.
    graph.set_threads(1);
    let model = SstaModel::build(&graph, &stat, SstaOptions::default()).expect("model");
    assert_eq!(digests[0], model.analyze().expect("analyze").digest());
    // The MC oracle itself is bit-identical across thread counts.
    let a = model.monte_carlo(200, SEED, 1).expect("mc");
    let b = model.monte_carlo(200, SEED, 8).expect("mc");
    assert_eq!(a, b);
}

/// The paper-scale MCU's widest stage (5,428 gates) clears the engine's
/// sharding threshold, which the small MCU's (88 gates) does not, so this
/// is the test that drives SSTA's sharded propagation. The digests are
/// frozen for three truncation widths and must not depend on the thread
/// count. Neither may the trace: every run shards a stage, and the four
/// runs' traces render the same JSON. Each trace is a job capture, so
/// tests running beside this one cannot add to it.
#[test]
fn ssta_sharded_propagation_digests_are_frozen() {
    let (stat, mut graph) = mcu_fixture_at(&McuConfig::paper_scale());
    let frozen: [(usize, u64); 3] = [
        (4, 0x5aaa_5b1c_c165_9e61),
        (32, 0xd7ef_14f1_9c32_00c0),
        (128, 0x3c43_2c2d_9ca7_5925),
    ];
    for (max_local_terms, want) in frozen {
        let opts = SstaOptions {
            max_local_terms,
            ..SstaOptions::default()
        };
        // Threads 1/2/8, then a rerun at 1.
        let mut traces = Vec::new();
        for threads in [1usize, 2, 8, 1] {
            graph.set_threads(threads);
            let model = SstaModel::build(&graph, &stat, opts).expect("model");
            let (report, trace) = varitune::trace::capture(|| model.analyze().expect("analyze"));
            assert!(
                trace.counter("variation.shard_calls") > 0,
                "M={max_local_terms} at {threads} thread(s): the analysis never sharded a stage"
            );
            traces.push(trace.to_json());
            assert_eq!(
                report.digest(),
                want,
                "M={max_local_terms} at {threads} thread(s): digest {:#018x}",
                report.digest()
            );
        }
        for (threads, trace) in [2, 8, 1].into_iter().zip(&traces[1..]) {
            assert_eq!(
                trace, &traces[0],
                "M={max_local_terms}: the trace at {threads} thread(s) differs from 1 thread's"
            );
        }
    }
}

/// On a pure chain there is exactly one path, so `sta::mc`'s path-level
/// Monte Carlo samples the same model the canonical forms encode — a
/// direct SSTA-vs-`sta::mc` check with no path-switching confound.
#[test]
fn ssta_matches_path_mc_on_single_path_chain() {
    use varitune::sta::{mc::simulate_worst_paths, paths::worst_paths};
    use varitune::variation::mc::VariationMode;
    use varitune::variation::ProcessCorner;

    let gen_cfg = GenerateConfig::small_for_tests();
    let nominal = generate_nominal(&gen_cfg);
    let mc_libs = generate_mc_libraries(&nominal, &gen_cfg, 6, SEED);
    let stat = StatLibrary::from_libraries(&mc_libs).expect("characterization");

    let mut nl = Netlist::new("chain");
    let mut prev = nl.add_input("a");
    for i in 0..12 {
        let n = nl.add_net(format!("n{i}"));
        nl.add_gate(GateKind::Inv, &[prev], &[n]);
        prev = n;
    }
    nl.mark_output(prev);
    let design = MappedDesign::from_names(nl, &["INV_2"; 12], &stat.mean, WireModel::default())
        .expect("mapping");

    let cfg = StaConfig::with_clock_period(10.0);
    let report = analyze(&design, &stat.mean, &cfg).expect("sta");
    let (paths, _) = worst_paths(&design, &stat.mean, &stat, &report, 0.0).expect("paths");
    assert_eq!(paths.len(), 1, "a chain has one worst path");
    let mc = simulate_worst_paths(
        &paths,
        &stat,
        ProcessCorner::Typical,
        VariationMode::GlobalAndLocal,
        10_000,
        SEED,
        0,
    )
    .expect("path mc");

    let graph = TimingGraph::new(design, &stat.mean, &cfg).expect("engine");
    let model = SstaModel::build(&graph, &stat, SstaOptions::default()).expect("model");
    let ssta = model.analyze().expect("analyze");
    assert_eq!(ssta.endpoints.len(), 1);
    let ep = &ssta.endpoints[0];
    let (m, s) = (mc[0].mc.summary.mean, mc[0].mc.summary.std_dev);
    let dm = (ep.mean - m).abs() / m;
    let ds = (ep.sigma - s).abs() / s;
    assert!(
        dm < 0.02,
        "chain mean off by {dm} (SSTA {} vs MC {m})",
        ep.mean
    );
    assert!(
        ds < 0.05,
        "chain sigma off by {ds} (SSTA {} vs MC {s})",
        ep.sigma
    );
}
