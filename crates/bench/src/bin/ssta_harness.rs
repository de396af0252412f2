//! Differential SSTA harness: statistical STA versus graph-level Monte
//! Carlo on the paper MCU and the 10× SoC.
//!
//! ```text
//! ssta_harness [--smoke] [--scale paper|x10|all] [--trials N]
//!              [--threads N,N,...] [--repeat N] [--out PATH] [--trace PATH]
//! ```
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

use varitune_bench::trace::run_traced;
use varitune_libchar::{generate_mc_libraries, generate_nominal, GenerateConfig, StatLibrary};
use varitune_netlist::{generate_mcu, generate_soc, McuConfig, SocConfig};
use varitune_sta::{
    analyze_ssta, GraphMcResult, SstaModel, SstaOptions, SstaReport, StaConfig, TimingGraph,
    WireModel,
};
use varitune_synth::{map_netlist, map_soa, LibraryConstraints, TargetLibrary};

const DEFAULT_THREADS: [usize; 3] = [1, 2, 8];

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
    /// Relative tolerance on the *worst* endpoint sigma error. Wider than
    /// `sigma_rel` by design: Clark's max is exact in second moments only
    /// for jointly Gaussian inputs, and cascaded near-tie maxes of skewed
    /// maxima (mux/adder trees) underestimate sigma at a handful of
    /// shallow endpoints. Correlation itself is exact — every arc carries
    /// its own keyed source — so this residue is the Gaussian-form
    /// approximation, not lost covariance.
    sigma_rel_worst: f64,
    /// Absolute sigma floor (ns): shields near-degenerate endpoints where
    /// a relative bound is meaningless.
    sigma_abs: f64,
}

/// One completed scale measurement, rendered into `scale_rows`.
struct ScaleRow {
    scale: String,
    gates: usize,
    arcs: usize,
    endpoints: usize,
    trials: usize,
    ssta_ms: f64,
    mc_ms: f64,
    speedup: f64,
    digest: u64,
    ssta_design_mean: f64,
    ssta_design_sigma: f64,
    mc_design_mean: f64,
    mc_design_sigma: f64,
    yield_at_clock: f64,
    max_mean_rel_err: f64,
    median_sigma_err_rel: f64,
    max_sigma_err_rel: f64,
    criticality_sum: f64,
    reanalysis: Reanalysis,
}

/// The ECO re-analysis rounds of one scale.
struct Reanalysis {
    /// Median wall-clock of one incremental `analyze_ssta`.
    incremental_ms: f64,
    /// Gates each round's forward pass evaluated.
    gates_evaluated: Vec<u64>,
}

fn main() -> ExitCode {
    let mut smoke = false;
    let mut scale = "paper".to_string();
    let mut trials = 10_000usize;
    let mut repeat = 3usize;
    let mut threads: Vec<usize> = DEFAULT_THREADS.to_vec();
    let mut out = "BENCH_ssta.json".to_string();
    let mut trace: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--scale" => match it.next() {
                Some(s) if ["paper", "x10", "all"].contains(&s.as_str()) => scale = s,
                _ => return usage("--scale expects paper, x10 or all"),
            },
            "--trials" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => trials = n,
                _ => return usage("--trials expects a positive integer"),
            },
            "--repeat" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => repeat = n,
                _ => return usage("--repeat expects a positive integer"),
            },
            "--threads" => match it.next().map(parse_thread_list) {
                Some(Some(list)) if !list.is_empty() && !list.contains(&0) => threads = list,
                _ => return usage("--threads expects a comma-separated list like 1,2,8"),
            },
            "--out" => match it.next() {
                Some(p) => out = p,
                None => return usage("--out expects a path"),
            },
            "--trace" => match it.next() {
                Some(p) => trace = Some(p),
                None => return usage("--trace expects a path"),
            },
            "--help" | "-h" => {
                eprintln!(
                    "usage: ssta_harness [--smoke] [--scale paper|x10|all] [--trials N] \
                     [--threads N,N,...] [--repeat N] [--out PATH] [--trace PATH]"
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    run_traced(trace.as_deref(), || {
        run(smoke, &scale, trials, repeat, &threads, &out)
    })
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn run(
    smoke: bool,
    scale: &str,
    trials: usize,
    repeat: usize,
    threads: &[usize],
    out: &str,
) -> ExitCode {
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
    let stat = match StatLibrary::from_libraries(&mc) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("characterization failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "characterized {} cells from {mc_libs} MC libraries in {:.1} ms",
        stat.mean.cells.len(),
        t0.elapsed().as_secs_f64() * 1e3
    );
    drop(build_span);

    let mut rows: Vec<ScaleRow> = Vec::new();
    if scale == "paper" || scale == "all" {
        let tol = Tolerances {
            mean_rel: if smoke { 0.05 } else { 0.02 },
            sigma_rel: if smoke { 0.10 } else { 0.05 },
            sigma_rel_worst: if smoke { 0.25 } else { 0.20 },
            sigma_abs: 0.002,
        };
        match run_scale(&stat, "paper", smoke, trials, repeat, threads, &tol) {
            Ok(row) => rows.push(row),
            Err(code) => return code,
        }
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
        match run_scale(&stat, "x10", smoke, soc_trials, repeat, threads, &tol) {
            Ok(row) => rows.push(row),
            Err(code) => return code,
        }
    }

    // The headline claim: at paper scale, full profile, SSTA must beat the
    // Monte Carlo it replaces by at least an order of magnitude.
    if !smoke {
        if let Some(paper) = rows.iter().find(|r| r.scale == "paper") {
            if paper.speedup < 10.0 {
                eprintln!(
                    "FAIL: SSTA speedup over {}-trial MC is {:.1}x (< 10x)",
                    paper.trials, paper.speedup
                );
                return ExitCode::FAILURE;
            }
            println!(
                "paper: SSTA {:.2} ms vs MC {:.0} ms — {:.0}x (>= 10x)",
                paper.ssta_ms, paper.mc_ms, paper.speedup
            );
        }
    }

    let json = render_json(hw, profile, &rows);
    if let Err(e) = std::fs::write(out, json) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out}");
    ExitCode::SUCCESS
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
) -> Result<ScaleRow, ExitCode> {
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
            let design = match map_netlist(&generate_mcu(&mcu), &target, WireModel::default()) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("{scale}: mapping failed: {e}");
                    return Err(ExitCode::FAILURE);
                }
            };
            match TimingGraph::new(design, &stat.mean, &cfg) {
                Ok(g) => g,
                Err(e) => {
                    eprintln!("{scale}: engine build failed: {e}");
                    return Err(ExitCode::FAILURE);
                }
            }
        }
        _ => {
            let soc = if smoke {
                SocConfig::x10().smoke()
            } else {
                SocConfig::x10()
            };
            let design = match map_soa(generate_soc(&soc), &target, WireModel::default()) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("{scale}: mapping failed: {e}");
                    return Err(ExitCode::FAILURE);
                }
            };
            match TimingGraph::new_soa(design, &stat.mean, &cfg) {
                Ok(g) => g,
                Err(e) => {
                    eprintln!("{scale}: engine build failed: {e}");
                    return Err(ExitCode::FAILURE);
                }
            }
        }
    };
    let gates = graph.gate_count();
    println!("{scale}: {gates} gates; {trials} MC trials; best of {repeat}");
    drop(build_span);

    // SSTA propagation at every thread count: digest-identical, timed.
    let analyze_span = varitune_trace::span!("ssta_harness.analyze");
    let opts = SstaOptions {
        // The SoC carries ~300k nets; 32 local terms per form bounds the
        // working set without measurably moving the moments (accuracy is
        // flat from M=16 up — the error floor is the Clark approximation).
        max_local_terms: if scale == "x10" { 32 } else { 128 },
        ..SstaOptions::default()
    };
    let mut ssta_ms = f64::INFINITY;
    let mut reference: Option<SstaReport> = None;
    for &t in threads {
        graph.set_threads(t);
        let mut dt = f64::INFINITY;
        let mut report = None;
        for _ in 0..repeat {
            let t0 = Instant::now();
            let model = match SstaModel::build(&graph, stat, opts) {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("{scale}: SSTA model build failed: {e}");
                    return Err(ExitCode::FAILURE);
                }
            };
            let r = match model.analyze() {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("{scale}: SSTA analysis failed: {e}");
                    return Err(ExitCode::FAILURE);
                }
            };
            dt = dt.min(t0.elapsed().as_secs_f64() * 1e3);
            report = Some(r);
        }
        let report = report.expect("repeat >= 1");
        match &reference {
            None => reference = Some(report),
            Some(r) => {
                if report.digest() != r.digest() {
                    eprintln!("{scale}: SSTA digest diverged at {t} threads");
                    return Err(ExitCode::FAILURE);
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
        .map_err(|e| {
            eprintln!("{scale}: SSTA rerun failed: {e}");
            ExitCode::FAILURE
        })?;
    if rerun.digest() != report.digest() {
        eprintln!("{scale}: SSTA rerun digest diverged");
        return Err(ExitCode::FAILURE);
    }
    println!(
        "SSTA digest {:#018x} (threads {threads:?} + rerun)",
        report.digest()
    );
    let crit_sum = report.criticality_sum();
    if (crit_sum - 1.0).abs() > 1e-9 {
        eprintln!("{scale}: criticalities sum to {crit_sum}, expected 1");
        return Err(ExitCode::FAILURE);
    }
    drop(analyze_span);

    // The Monte-Carlo oracle over the same arc model. Bit-identity across
    // thread counts is checked on a short prefix; the full run then uses
    // every core.
    let mc_span = varitune_trace::span!("ssta_harness.mc");
    let model = SstaModel::build(&graph, stat, opts).map_err(|e| {
        eprintln!("{scale}: SSTA model build failed: {e}");
        ExitCode::FAILURE
    })?;
    let probe_trials = 128.min(trials);
    let mut probe: Option<GraphMcResult> = None;
    for &t in threads {
        let r = model.monte_carlo(probe_trials, SEED, t).map_err(|e| {
            eprintln!("{scale}: MC probe failed: {e}");
            ExitCode::FAILURE
        })?;
        match &probe {
            None => probe = Some(r),
            Some(p) => {
                if &r != p {
                    eprintln!("{scale}: MC diverged at {t} threads");
                    return Err(ExitCode::FAILURE);
                }
            }
        }
    }
    println!("MC bit-identical across threads {threads:?} ({probe_trials} trials)");
    let t0 = Instant::now();
    let mc = model.monte_carlo(trials, SEED, 0).map_err(|e| {
        eprintln!("{scale}: MC failed: {e}");
        ExitCode::FAILURE
    })?;
    let mc_ms = t0.elapsed().as_secs_f64() * 1e3;
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
        eprintln!(
            "{scale}: endpoint {i} mean off by {:.2}% (SSTA {a} vs MC {m})",
            max_mean_rel * 100.0
        );
        return Err(ExitCode::FAILURE);
    }
    if median_sigma_rel > tol.sigma_rel {
        eprintln!(
            "{scale}: median endpoint sigma off by {:.2}% (bound {:.0}%)",
            median_sigma_rel * 100.0,
            tol.sigma_rel * 100.0
        );
        return Err(ExitCode::FAILURE);
    }
    if max_sigma_rel > tol.sigma_rel_worst {
        let (i, a, s) = worst_sigma.unwrap_or_default();
        eprintln!(
            "{scale}: endpoint {i} sigma off by {:.2}% (SSTA {a} vs MC {s})",
            max_sigma_rel * 100.0
        );
        return Err(ExitCode::FAILURE);
    }
    let design_mean_rel = (report.design_mean() - mc.design_mean).abs() / mc.design_mean;
    let design_sigma_err = (report.design_sigma() - mc.design_sigma).abs();
    // The design form is a max over *every* endpoint — the statistic most
    // exposed to Clark's Gaussian-form skew (thousands of near-tie folds)
    // — so its sigma gets twice the median-endpoint allowance.
    if design_mean_rel > tol.mean_rel
        || design_sigma_err > (2.0 * tol.sigma_rel * mc.design_sigma).max(tol.sigma_abs)
    {
        eprintln!(
            "{scale}: design moments diverged — SSTA ({}, {}) vs MC ({}, {})",
            report.design_mean(),
            report.design_sigma(),
            mc.design_mean,
            mc.design_sigma
        );
        return Err(ExitCode::FAILURE);
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

    Ok(ScaleRow {
        scale: scale.to_string(),
        gates,
        arcs: model.arc_model().0.len(),
        endpoints: report.endpoints.len(),
        trials,
        ssta_ms,
        mc_ms,
        speedup: mc_ms / ssta_ms,
        digest: report.digest(),
        ssta_design_mean: report.design_mean(),
        ssta_design_sigma: report.design_sigma(),
        mc_design_mean: mc.design_mean,
        mc_design_sigma: mc.design_sigma,
        yield_at_clock: report.yield_at(PERIOD_NS),
        max_mean_rel_err: max_mean_rel,
        median_sigma_err_rel: median_sigma_rel,
        max_sigma_err_rel: max_sigma_rel,
        criticality_sum: crit_sum,
        reanalysis: reanalyze(&mut graph, stat, &target, opts, threads, &report, scale)?,
    })
}

/// The ECO rounds: upsize the [`ECO_GATES`] most critical gates, `update`,
/// re-analyze incrementally at the first thread count, and check the
/// report against a full analysis at every thread count. `full` is the
/// unedited graph's full report.
fn reanalyze(
    graph: &mut TimingGraph<'_>,
    stat: &StatLibrary,
    target: &TargetLibrary<'_>,
    opts: SstaOptions,
    threads: &[usize],
    full: &SstaReport,
    scale: &str,
) -> Result<Reanalysis, ExitCode> {
    let _span = varitune_trace::span!("ssta_harness.reanalyze");
    let fail = |what: &str, e: &dyn std::fmt::Display| {
        eprintln!("{scale}: {what} failed: {e}");
        ExitCode::FAILURE
    };
    graph.set_threads(threads[0]);
    // The first `analyze_ssta` is a full one; the rounds start from it.
    let mut last = analyze_ssta(graph, stat, opts).map_err(|e| fail("SSTA", &e))?;
    if last.digest() != full.digest() {
        eprintln!("{scale}: analyze_ssta digest differs from SstaModel::analyze");
        return Err(ExitCode::FAILURE);
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
        let ((report, ms), trace) = varitune_trace::capture_job(|| {
            let t0 = Instant::now();
            let r = analyze_ssta(graph, stat, opts);
            (r, t0.elapsed().as_secs_f64() * 1e3)
        });
        varitune_trace::merge_metrics(&trace.metrics);
        let report = report.map_err(|e| fail("incremental SSTA", &e))?;
        for &t in threads {
            graph.set_threads(t);
            let want = SstaModel::build(graph, stat, opts)
                .and_then(|m| m.analyze())
                .map_err(|e| fail("full SSTA", &e))?;
            if want.digest() != report.digest() {
                eprintln!(
                    "{scale}: round {round}: incremental digest {:#018x}, full at {t} threads \
                     {:#018x}",
                    report.digest(),
                    want.digest()
                );
                return Err(ExitCode::FAILURE);
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
    Ok(Reanalysis {
        incremental_ms: (times[mid - 1] + times[mid]) / 2.0,
        gates_evaluated,
    })
}

fn render_json(hw: usize, profile: &str, rows: &[ScaleRow]) -> String {
    let scale_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\n      \"scale\": \"{}\",\n      \"gates\": {},\n      \
                 \"arcs\": {},\n      \"endpoints\": {},\n      \"mc_trials\": {},\n      \
                 \"ssta_ms\": {:.3},\n      \"mc_ms\": {:.1},\n      \
                 \"ssta_speedup_over_mc\": {:.1},\n      \
                 \"report_digest\": \"{:#018x}\",\n      \
                 \"ssta_design_mean_ns\": {:.6},\n      \
                 \"ssta_design_sigma_ns\": {:.6},\n      \
                 \"mc_design_mean_ns\": {:.6},\n      \
                 \"mc_design_sigma_ns\": {:.6},\n      \
                 \"yield_at_{}ns_clock\": {:.6},\n      \
                 \"worst_endpoint_mean_err_pct\": {:.3},\n      \
                 \"median_endpoint_sigma_err_pct\": {:.3},\n      \
                 \"worst_endpoint_sigma_err_pct\": {:.3},\n      \
                 \"criticality_sum\": {:.12},\n      \
                 \"digest_identical_across_threads\": true,\n      \
                 \"incremental_ms\": {:.3},\n      \
                 \"gates_evaluated\": [{}],\n      \
                 \"incremental_digest_identical\": true\n    }}",
                r.scale,
                r.gates,
                r.arcs,
                r.endpoints,
                r.trials,
                r.ssta_ms,
                r.mc_ms,
                r.speedup,
                r.digest,
                r.ssta_design_mean,
                r.ssta_design_sigma,
                r.mc_design_mean,
                r.mc_design_sigma,
                PERIOD_NS,
                r.yield_at_clock,
                r.max_mean_rel_err * 100.0,
                r.median_sigma_err_rel * 100.0,
                r.max_sigma_err_rel * 100.0,
                r.criticality_sum,
                r.reanalysis.incremental_ms,
                r.reanalysis
                    .gates_evaluated
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(", "),
            )
        })
        .collect();
    format!(
        "{{\n  \"host_hardware_threads\": {hw},\n  \"profile\": \"{profile}\",\n  \
         \"scale_rows\": [\n{}\n  ]\n}}\n",
        scale_rows.join(",\n")
    )
}

fn parse_thread_list(s: String) -> Option<Vec<usize>> {
    s.split(',')
        .map(|p| p.trim().parse::<usize>().ok())
        .collect()
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    eprintln!(
        "usage: ssta_harness [--smoke] [--scale paper|x10|all] [--trials N] \
         [--threads N,N,...] [--repeat N] [--out PATH] [--trace PATH]"
    );
    ExitCode::FAILURE
}
