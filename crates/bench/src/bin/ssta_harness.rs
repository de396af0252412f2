//! Differential SSTA harness: statistical STA versus graph-level Monte
//! Carlo on the paper MCU and the 10× SoC. Run with `--help` for the
//! flags.
//!
//! For each scale the harness characterizes the statistical library,
//! builds the timing engine, runs the canonical-form SSTA propagation at
//! every requested thread count (reports must be **digest-identical**
//! across thread counts and across a rerun — enforced on every host), and
//! then samples the *same* arc model with the graph Monte-Carlo oracle.
//! Per-endpoint SSTA mean must agree with the MC sample mean within 2 %,
//! the *median* endpoint sigma within 5 %, and the *worst* endpoint sigma
//! within 20 % (paper scale, full profile; looser at the reduced trial
//! counts of `--smoke` and the x10 scale — see [`Tolerances`] for why the
//! worst-endpoint bound is wider), criticalities must sum to 1, and the
//! MC itself must be bit-identical across thread counts.
//!
//! The headline perf claim — SSTA beats Monte Carlo by ≥ 10× wall-clock at
//! paper scale — is asserted in the full profile only (any host: the ratio
//! pits one propagation against thousands, so it does not depend on core
//! count).
//!
//! Last, each scale runs four ECO rounds on its graph, as the `soc_eco`
//! benchmark does: upsize the 32 most critical gates, `update`, and
//! re-analyze with `analyze_ssta`, which re-propagates only the changed
//! cone. Every round's report must be digest-identical to a full
//! `SstaModel` analysis at every requested thread count. Results land in
//! `BENCH_ssta.json`.

use std::process::ExitCode;
use std::time::Instant;

use varitune_bench::harness::{
    self, best_of, hardware_threads, ms_since, Args, Kind, Obj, Spec, Value,
};
use varitune_libchar::{generate_mc_libraries, generate_nominal, GenerateConfig, StatLibrary};
use varitune_netlist::{generate_mcu, generate_soc, McuConfig, SocConfig};
use varitune_sta::{
    analyze_ssta, GraphMcResult, SstaModel, SstaOptions, SstaReport, StaConfig, TimingGraph,
    WireModel,
};
use varitune_synth::{map_netlist, LibraryConstraints, TargetLibrary};

const SPEC: Spec = Spec {
    name: "ssta_harness",
    flags: &[
        ("--smoke", Kind::Switch, "small designs, 6 MC libraries"),
        ("--scale", Kind::Choice(&["paper", "x10", "all"]), "scales"),
        ("--trials", Kind::Count(10_000), "MC trials (x10: 1/20)"),
        ("--threads", Kind::Threads(&[1, 2, 8]), "thread counts"),
        ("--repeat", Kind::Count(3), "best-of-N SSTA runs"),
    ],
    out: Some("BENCH_ssta.json"),
    ids: None,
};

/// Clock period (ns) the MCU/SoC designs are analyzed at — the same
/// operating point `sta_harness` uses.
const PERIOD_NS: f64 = 2.41;

/// MC libraries behind the statistical library (full profile).
const MC_LIBRARIES: usize = 25;

/// Master seed for characterization and the MC oracle.
const SEED: u64 = 7;

/// ECO rounds of the re-analysis check.
const ECO_ROUNDS: usize = 4;

/// Gates upsized per ECO round (as in the `soc_eco` benchmark).
const ECO_GATES: usize = 32;

struct Tolerances {
    /// Relative endpoint/design mean tolerance.
    mean_rel: f64,
    /// Relative tolerance on the *median* endpoint sigma error, and on the
    /// design-level sigma: the statistics that drive the yield objective.
    sigma_rel: f64,
    /// Relative tolerance on the *worst* endpoint sigma error, wider than
    /// `sigma_rel`. The error is a bias, not a few outliers: ROADMAP item 1
    /// measured SSTA sigma below MC at 99.2 % of paper-scale endpoints
    /// (M = 128, 10k trials), worst 13.4 %.
    sigma_rel_worst: f64,
    /// Absolute sigma floor (ns): shields near-degenerate endpoints where
    /// a relative bound is meaningless.
    sigma_abs: f64,
}

fn main() -> ExitCode {
    harness::main(&SPEC, std::env::args(), run)
}

fn run(args: &Args) -> Result<(), String> {
    let smoke = args.switch("--smoke");
    let scale = args.choice("--scale");
    let trials = args.count("--trials");
    let threads = args.threads("--threads");
    let repeat = args.count("--repeat");
    let hw = hardware_threads();
    let profile = if smoke { "smoke" } else { "full" };
    println!(
        "SSTA harness (std::time::Instant, offline) — scale {scale}, {profile} profile, \
         {hw} hardware threads"
    );

    // One statistical library serves every scale.
    let build_span = varitune_trace::span!("ssta_harness.build");
    // The full 304-cell library even in smoke: the MCU/SoC generators
    // need every gate family; smoke economizes on MC libraries and design
    // scale instead.
    let gen_cfg = GenerateConfig::full();
    let mc_libs = if smoke { 6 } else { MC_LIBRARIES };
    let t0 = Instant::now();
    let nominal = generate_nominal(&gen_cfg);
    let mc = generate_mc_libraries(&nominal, &gen_cfg, mc_libs, SEED);
    let stat =
        StatLibrary::from_libraries(&mc).map_err(|e| format!("characterization failed: {e}"))?;
    println!(
        "characterized {} cells from {mc_libs} MC libraries in {:.1} ms",
        stat.mean.cells.len(),
        ms_since(t0)
    );
    drop(build_span);

    let mut rows: Vec<Obj> = Vec::new();
    if scale == "paper" || scale == "all" {
        let tol = Tolerances {
            mean_rel: if smoke { 0.05 } else { 0.02 },
            sigma_rel: if smoke { 0.10 } else { 0.05 },
            sigma_rel_worst: if smoke { 0.25 } else { 0.20 },
            sigma_abs: 0.002,
        };
        rows.push(run_scale(
            &stat, "paper", smoke, trials, repeat, threads, &tol,
        )?);
    }
    if scale == "x10" || scale == "all" {
        // The SoC runs a reduced trial count; sigma sampling error scales
        // as 1/sqrt(2n), so the bound widens accordingly.
        let soc_trials = if smoke {
            trials
        } else {
            (trials / 20).max(100)
        };
        let tol = Tolerances {
            mean_rel: 0.05,
            sigma_rel: 0.10,
            sigma_rel_worst: 0.25,
            sigma_abs: 0.002,
        };
        rows.push(run_scale(
            &stat, "x10", smoke, soc_trials, repeat, threads, &tol,
        )?);
    }

    args.write_out(
        &Obj::new()
            .with("host_hardware_threads", hw)
            .with("profile", profile)
            .with("scale_rows", rows),
    )
}

#[allow(clippy::too_many_lines)]
fn run_scale(
    stat: &StatLibrary,
    scale: &str,
    smoke: bool,
    trials: usize,
    repeat: usize,
    threads: &[usize],
    tol: &Tolerances,
) -> Result<Obj, String> {
    // Build the design and the deterministic engine over the mean library.
    let build_span = varitune_trace::span!("ssta_harness.build");
    let cfg = StaConfig::with_clock_period(PERIOD_NS);
    let constraints = LibraryConstraints::unconstrained();
    let target = TargetLibrary::new(&stat.mean, &constraints);
    let mut graph = match scale {
        "paper" => {
            let mcu = if smoke {
                McuConfig::small_for_tests()
            } else {
                McuConfig::paper_scale()
            };
            let design = map_netlist(generate_mcu(&mcu), &target, WireModel::default())
                .map_err(|e| format!("{scale}: mapping failed: {e}"))?;
            TimingGraph::new(design, &stat.mean, &cfg)
                .map_err(|e| format!("{scale}: engine build failed: {e}"))?
        }
        _ => {
            let soc = if smoke {
                SocConfig::x10().smoke()
            } else {
                SocConfig::x10()
            };
            let design = map_netlist(generate_soc(&soc), &target, WireModel::default())
                .map_err(|e| format!("{scale}: mapping failed: {e}"))?;
            TimingGraph::new(design, &stat.mean, &cfg)
                .map_err(|e| format!("{scale}: engine build failed: {e}"))?
        }
    };
    let gates = graph.gate_count();
    println!("{scale}: {gates} gates; {trials} MC trials; best of {repeat}");
    drop(build_span);

    // SSTA propagation at every thread count: digest-identical, timed.
    let analyze_span = varitune_trace::span!("ssta_harness.analyze");
    let opts = SstaOptions {
        // The SoC carries ~300k nets; 32 local terms per form bounds the
        // working set. Truncation costs accuracy: ROADMAP item 1 measured
        // the median endpoint sigma error on the paper MCU at 9.8 / 4.1 /
        // 3.1 / 3.0 % for M = 4 / 32 / 128 / 1024.
        max_local_terms: if scale == "x10" { 32 } else { 128 },
        ..SstaOptions::default()
    };
    let mut ssta_ms = f64::INFINITY;
    let mut reference: Option<SstaReport> = None;
    for &t in threads {
        graph.set_threads(t);
        // The model rides out with its report, so it is dropped untimed.
        let mut report = None;
        let dt = best_of(
            repeat,
            || SstaModel::build(&graph, stat, opts).and_then(|m| m.analyze().map(|r| (m, r))),
            |run| report = Some(run.map(|(_, r)| r)),
        );
        let report = report
            .expect("repeat >= 1")
            .map_err(|e| format!("{scale}: SSTA analysis failed: {e}"))?;
        match &reference {
            None => reference = Some(report),
            Some(r) => {
                if report.digest() != r.digest() {
                    return Err(format!("{scale}: SSTA digest diverged at {t} threads"));
                }
            }
        }
        println!("SSTA @ {t:>2} thr:   {dt:>9.3} ms");
        ssta_ms = ssta_ms.min(dt);
    }
    let report = reference.expect("at least one thread count");
    // Rerun at the first thread count: the digest must be reproducible.
    graph.set_threads(threads[0]);
    let rerun = SstaModel::build(&graph, stat, opts)
        .and_then(|m| m.analyze())
        .map_err(|e| format!("{scale}: SSTA rerun failed: {e}"))?;
    if rerun.digest() != report.digest() {
        return Err(format!("{scale}: SSTA rerun digest diverged"));
    }
    println!(
        "SSTA digest {:#018x} (threads {threads:?} + rerun)",
        report.digest()
    );
    let crit_sum = report.criticality_sum();
    if (crit_sum - 1.0).abs() > 1e-9 {
        return Err(format!(
            "{scale}: criticalities sum to {crit_sum}, expected 1"
        ));
    }
    drop(analyze_span);

    // The Monte-Carlo oracle over the same arc model. Bit-identity across
    // thread counts is checked on a short prefix; the full run then uses
    // every core.
    let mc_span = varitune_trace::span!("ssta_harness.mc");
    let model = SstaModel::build(&graph, stat, opts)
        .map_err(|e| format!("{scale}: SSTA model build failed: {e}"))?;
    let probe_trials = 128.min(trials);
    let mut probe: Option<GraphMcResult> = None;
    for &t in threads {
        let r = model
            .monte_carlo(probe_trials, SEED, t)
            .map_err(|e| format!("{scale}: MC probe failed: {e}"))?;
        match &probe {
            None => probe = Some(r),
            Some(p) => {
                if &r != p {
                    return Err(format!("{scale}: MC diverged at {t} threads"));
                }
            }
        }
    }
    println!("MC bit-identical across threads {threads:?} ({probe_trials} trials)");
    let t0 = Instant::now();
    let mc = model
        .monte_carlo(trials, SEED, 0)
        .map_err(|e| format!("{scale}: MC failed: {e}"))?;
    let mc_ms = ms_since(t0);
    println!("MC {trials} trials: {mc_ms:>9.1} ms");
    drop(mc_span);

    // Differential gate: SSTA moments against MC sample moments. Scan
    // every endpoint first so a failure reports the worst offender, not
    // the first.
    let mut max_mean_rel = 0.0f64;
    let mut max_sigma_rel = 0.0f64;
    let mut sigma_rels: Vec<f64> = Vec::with_capacity(report.endpoints.len());
    let mut worst_mean: Option<(usize, f64, f64)> = None;
    let mut worst_sigma: Option<(usize, f64, f64)> = None;
    for (i, ep) in report.endpoints.iter().enumerate() {
        let (m, s) = (mc.endpoint_mean[i], mc.endpoint_sigma[i]);
        let mean_rel = (ep.mean - m).abs() / m.max(1e-9);
        if mean_rel > max_mean_rel {
            max_mean_rel = mean_rel;
            worst_mean = Some((i, ep.mean, m));
        }
        if s > tol.sigma_abs {
            let sigma_rel = (ep.sigma - s).abs() / s;
            sigma_rels.push(sigma_rel);
            if sigma_rel > max_sigma_rel {
                max_sigma_rel = sigma_rel;
                worst_sigma = Some((i, ep.sigma, s));
            }
        }
    }
    sigma_rels.sort_by(f64::total_cmp);
    let median_sigma_rel = if sigma_rels.is_empty() {
        0.0
    } else {
        sigma_rels[sigma_rels.len() / 2]
    };
    if max_mean_rel > tol.mean_rel {
        let (i, a, m) = worst_mean.unwrap_or_default();
        return Err(format!(
            "{scale}: endpoint {i} mean off by {:.2}% (SSTA {a} vs MC {m})",
            max_mean_rel * 100.0
        ));
    }
    if median_sigma_rel > tol.sigma_rel {
        return Err(format!(
            "{scale}: median endpoint sigma off by {:.2}% (bound {:.0}%)",
            median_sigma_rel * 100.0,
            tol.sigma_rel * 100.0
        ));
    }
    if max_sigma_rel > tol.sigma_rel_worst {
        let (i, a, s) = worst_sigma.unwrap_or_default();
        return Err(format!(
            "{scale}: endpoint {i} sigma off by {:.2}% (SSTA {a} vs MC {s})",
            max_sigma_rel * 100.0
        ));
    }
    let design_mean_rel = (report.design_mean() - mc.design_mean).abs() / mc.design_mean;
    let design_sigma_err = (report.design_sigma() - mc.design_sigma).abs();
    // The design form is a max over *every* endpoint — the statistic most
    // exposed to Clark's Gaussian-form skew (thousands of near-tie folds)
    // — so its sigma gets twice the median-endpoint allowance.
    if design_mean_rel > tol.mean_rel
        || design_sigma_err > (2.0 * tol.sigma_rel * mc.design_sigma).max(tol.sigma_abs)
    {
        return Err(format!(
            "{scale}: design moments diverged — SSTA ({}, {}) vs MC ({}, {})",
            report.design_mean(),
            report.design_sigma(),
            mc.design_mean,
            mc.design_sigma
        ));
    }
    println!(
        "moments agree: worst endpoint mean {:.2}%, median sigma {:.2}%, worst sigma {:.2}% \
         (bounds {:.0}% / {:.0}% / {:.0}%)",
        max_mean_rel * 100.0,
        median_sigma_rel * 100.0,
        max_sigma_rel * 100.0,
        tol.mean_rel * 100.0,
        tol.sigma_rel * 100.0,
        tol.sigma_rel_worst * 100.0
    );

    // The headline claim: at paper scale, full profile, SSTA must beat the
    // Monte Carlo it replaces by at least an order of magnitude.
    let speedup = mc_ms / ssta_ms;
    if scale == "paper" && !smoke {
        if speedup < 10.0 {
            return Err(format!(
                "FAIL: SSTA speedup over {trials}-trial MC is {speedup:.1}x (< 10x)"
            ));
        }
        println!("paper: SSTA {ssta_ms:.2} ms vs MC {mc_ms:.0} ms — {speedup:.0}x (>= 10x)");
    }

    let arcs = model.arc_model().0.len();
    let (incremental_ms, gates_evaluated) =
        reanalyze(&mut graph, stat, &target, opts, threads, &report, scale)?;
    let fixed = Value::Fixed;
    Ok(Obj::new()
        .with("scale", scale)
        .with("gates", gates)
        .with("arcs", arcs)
        .with("endpoints", report.endpoints.len())
        .with("mc_trials", trials)
        .with("ssta_ms", fixed(ssta_ms, 3))
        .with("mc_ms", fixed(mc_ms, 1))
        .with("ssta_speedup_over_mc", fixed(speedup, 1))
        .with("report_digest", format!("{:#018x}", report.digest()))
        .with("ssta_design_mean_ns", fixed(report.design_mean(), 6))
        .with("ssta_design_sigma_ns", fixed(report.design_sigma(), 6))
        .with("mc_design_mean_ns", fixed(mc.design_mean, 6))
        .with("mc_design_sigma_ns", fixed(mc.design_sigma, 6))
        .with(
            format!("yield_at_{PERIOD_NS}ns_clock"),
            fixed(report.yield_at(PERIOD_NS), 6),
        )
        .with(
            "worst_endpoint_mean_err_pct",
            fixed(max_mean_rel * 100.0, 3),
        )
        .with(
            "median_endpoint_sigma_err_pct",
            fixed(median_sigma_rel * 100.0, 3),
        )
        .with(
            "worst_endpoint_sigma_err_pct",
            fixed(max_sigma_rel * 100.0, 3),
        )
        .with("criticality_sum", fixed(crit_sum, 12))
        .with("digest_identical_across_threads", true)
        .with("incremental_ms", fixed(incremental_ms, 3))
        .with("gates_evaluated", gates_evaluated)
        .with("incremental_digest_identical", true))
}

/// The ECO rounds: upsize the [`ECO_GATES`] most critical gates, `update`,
/// re-analyze incrementally at the first thread count, and check the
/// report against a full analysis at every thread count. `full` is the
/// unedited graph's full report. Returns the median wall-clock of one
/// incremental `analyze_ssta` and the gates each round's forward pass
/// evaluated.
fn reanalyze(
    graph: &mut TimingGraph<'_>,
    stat: &StatLibrary,
    target: &TargetLibrary<'_>,
    opts: SstaOptions,
    threads: &[usize],
    full: &SstaReport,
    scale: &str,
) -> Result<(f64, Vec<u64>), String> {
    let _span = varitune_trace::span!("ssta_harness.reanalyze");
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("{scale}: {what} failed: {e}");
    graph.set_threads(threads[0]);
    // The first `analyze_ssta` is a full one; the rounds start from it.
    let mut last = analyze_ssta(graph, stat, opts).map_err(|e| fail("SSTA", &e))?;
    if last.digest() != full.digest() {
        return Err(format!(
            "{scale}: analyze_ssta digest differs from SstaModel::analyze"
        ));
    }
    let mut times = Vec::with_capacity(ECO_ROUNDS);
    let mut gates_evaluated = Vec::with_capacity(ECO_ROUNDS);
    for round in 0..ECO_ROUNDS {
        for (gate, _) in last.top_gate_criticalities(ECO_GATES) {
            if let Some(bigger) = target.upsize_id(graph.cell_id(gate)) {
                graph
                    .resize_gate_id(gate, bigger.id)
                    .map_err(|e| fail("upsize", &e))?;
            }
        }
        graph.update().map_err(|e| fail("update", &e))?;
        // A private capture counts this call's evaluated gates; its
        // counters then join the run's trace.
        let ((report, ms), trace) = varitune_trace::capture(|| {
            let t0 = Instant::now();
            let r = analyze_ssta(graph, stat, opts);
            (r, ms_since(t0))
        });
        varitune_trace::merge_metrics(&trace.metrics);
        let report = report.map_err(|e| fail("incremental SSTA", &e))?;
        for &t in threads {
            graph.set_threads(t);
            let want = SstaModel::build(graph, stat, opts)
                .and_then(|m| m.analyze())
                .map_err(|e| fail("full SSTA", &e))?;
            if want.digest() != report.digest() {
                return Err(format!(
                    "{scale}: round {round}: incremental digest {:#018x}, full at {t} threads \
                     {:#018x}",
                    report.digest(),
                    want.digest()
                ));
            }
        }
        graph.set_threads(threads[0]);
        let evaluated = trace.counter("sta.ssta.gates_evaluated");
        println!(
            "ECO round {round}: {evaluated} of {} gates evaluated, {ms:>8.3} ms \
             (digest-identical to full at threads {threads:?})",
            graph.gate_count()
        );
        times.push(ms);
        gates_evaluated.push(evaluated);
        last = report;
    }
    times.sort_by(f64::total_cmp);
    let mid = times.len() / 2;
    Ok(((times[mid - 1] + times[mid]) / 2.0, gates_evaluated))
}
