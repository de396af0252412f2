//! Offline optimizer-backend harness: runs the full Table-2 grid through
//! the `Optimizer` trait, then the deterministic evolutionary Pareto
//! search, and commits the front next to the paper points. Run with
//! `--help` for the flags.
//!
//! Everything runs on the golden small-scale flow
//! (`FlowConfig::small_for_tests()` at the golden suite's 6 ns clock), so
//! the emitted paper points are the exact operating points the golden
//! snapshot pins. The evolutionary search runs once per thread count in
//! `--threads` (default `1,2,8`) and the harness **asserts** — before
//! writing anything — that the fronts are f64-bit-identical across thread
//! counts and that a rerun reproduces the front byte-identically. In full
//! (non-smoke) mode it additionally gates on the front carrying at least
//! five points with at least one matching-or-dominating a Table-2 point.
//! `--trace` writes a `varitune-trace` flow trace as the other harnesses
//! do.

use std::process::ExitCode;
use std::time::Instant;

use varitune_bench::harness::{self, ms_since, Args, Kind, Obj, Spec, Value};
use varitune_core::flow::{Flow, FlowConfig};
use varitune_core::{
    EvolutionConfig, EvolutionaryOptimizer, PaperMethodOptimizer, TuningMethod, TuningParams,
};
use varitune_synth::SynthConfig;

/// Clock period of the golden small-scale grid (`tests/golden_experiments.rs`).
const PERIOD_NS: f64 = 6.0;

/// Search seed of the committed `BENCH_optimize.json`, the same as
/// `EvolutionConfig::default()`'s.
const DEFAULT_SEED: u64 = 20_140_324;

const SPEC: Spec = Spec {
    name: "optimize_harness",
    flags: &[
        ("--smoke", Kind::Switch, "a search sized for CI"),
        ("--threads", Kind::Threads(&[1, 2, 8]), "thread counts"),
        ("--seed", Kind::Int(DEFAULT_SEED), "search seed"),
    ],
    out: Some("BENCH_optimize.json"),
    ids: None,
};

fn main() -> ExitCode {
    harness::main(&SPEC, std::env::args(), run)
}

struct Point {
    label: String,
    sigma: f64,
    area: f64,
    restricted_pins: usize,
}

/// The report rows of `points`. Floats print in shortest round-trip form,
/// so equal text means equal bits.
fn report(points: &[Point]) -> Vec<Obj> {
    let row = |p: &Point| {
        Obj::new()
            .with("label", p.label.as_str())
            .with("sigma_ns", Value::Float(p.sigma))
            .with("area_um2", Value::Float(p.area))
            .with("restricted_pins", p.restricted_pins)
    };
    points.iter().map(row).collect()
}

fn run(args: &Args) -> Result<(), String> {
    let smoke = args.switch("--smoke");
    let threads = args.threads("--threads");
    let seed = args.int("--seed");
    let scale = if smoke { "smoke" } else { "full" };
    println!("optimizer-backend harness (offline) — {scale} scale, golden small-scale grid");

    // Smoke bounds the search to fit the CI budget; full mode is what the
    // committed BENCH_optimize.json carries.
    let (population, generations) = if smoke { (6, 2) } else { (16, 8) };

    let prepare_span = varitune_trace::span!("optimize_harness.prepare");
    let flow = Flow::prepare(FlowConfig::small_for_tests())
        .map_err(|e| format!("flow preparation failed: {e}"))?;
    let synth = SynthConfig::with_clock_period(PERIOD_NS);
    drop(prepare_span);

    // The five paper methods × four Table-2 parameters, all routed through
    // the Optimizer trait — the same 20 operating points the golden
    // snapshot suite pins.
    let grid_span = varitune_trace::span!("optimize_harness.paper_grid");
    let t0 = Instant::now();
    let mut paper: Vec<Point> = Vec::with_capacity(20);
    for method in TuningMethod::ALL {
        for params in TuningParams::table2_sweep(method) {
            let backend = PaperMethodOptimizer { method, params };
            let candidate = match flow.optimize(&backend, &synth) {
                Ok(mut cands) if cands.len() == 1 => cands.remove(0),
                Ok(_) => return Err("paper backend returned an unexpected candidate count".into()),
                Err(e) => return Err(format!("paper method {method} failed: {e}")),
            };
            paper.push(Point {
                label: format!("{method} ({})", params.varied_value(method)),
                sigma: candidate.sigma(),
                area: candidate.area(),
                restricted_pins: candidate.tuned.restricted_pins,
            });
        }
    }
    let paper_grid_ms = ms_since(t0);
    drop(grid_span);
    println!(
        "paper grid:   {} points through PaperMethodOptimizer in {paper_grid_ms:.1} ms",
        paper.len()
    );

    // Evolutionary search, once per requested thread count. The fronts
    // must agree to the bit; a rerun must reproduce the first byte for
    // byte. Both are checked before anything is written.
    let search_span = varitune_trace::span!("optimize_harness.search");
    let t0 = Instant::now();
    let mut fronts: Vec<Vec<Point>> = Vec::with_capacity(threads.len() + 1);
    let mut runs: Vec<usize> = threads.to_vec();
    runs.push(threads[0]); // determinism rerun
    for &t in &runs {
        let config = EvolutionConfig {
            seed,
            population,
            generations,
            threads: t,
            seed_paper_methods: true,
        };
        let front = flow
            .optimize(&EvolutionaryOptimizer::new(config), &synth)
            .map_err(|e| format!("evolutionary search (threads = {t}) failed: {e}"))?;
        fronts.push(
            front
                .iter()
                .enumerate()
                .map(|(i, c)| Point {
                    label: format!("front #{i}"),
                    sigma: c.sigma(),
                    area: c.area(),
                    restricted_pins: c.tuned.restricted_pins,
                })
                .collect::<Vec<_>>(),
        );
    }
    let search_ms = ms_since(t0);
    drop(search_span);

    // The last run is the rerun. Equal bits print equal text, so a
    // bit-identical rerun is also byte-identical in the report.
    for (front, &t) in fronts.iter().zip(&runs).skip(1) {
        if !bit_identical(&fronts[0], front) {
            let first = runs[0];
            return Err(format!(
                "determinism violation: front at threads = {t} differs from threads = {first}"
            ));
        }
    }
    let front = &fronts[0];
    println!(
        "search:       {} front points in {search_ms:.1} ms, bit-identical across threads {:?} \
         and a rerun",
        front.len(),
        threads
    );

    let matched = paper
        .iter()
        .filter(|p| front.iter().any(|f| f.sigma <= p.sigma && f.area <= p.area))
        .count();
    println!(
        "coverage:     front matches-or-dominates {matched}/{} paper points",
        paper.len()
    );
    if !smoke {
        if front.len() < 5 {
            return Err(format!(
                "acceptance: front has {} points, need >= 5",
                front.len()
            ));
        }
        if matched < 1 {
            return Err("acceptance: no front point matches-or-dominates a Table-2 point".into());
        }
    }

    args.write_out(
        &Obj::new()
            .with("scale", scale)
            .with("clock_period_ns", Value::Float(PERIOD_NS))
            .with("seed", seed)
            .with("population", population)
            .with("generations", generations)
            .with("threads_checked", threads.to_vec())
            .with("paper_methods", report(&paper))
            .with("front", report(front))
            .with("paper_points_matched_or_dominated", matched)
            .with(
                "determinism",
                Obj::new()
                    .with("bit_identical_across_threads", true)
                    .with("rerun_byte_identical", true),
            )
            .with(
                "timing",
                Obj::new()
                    .with("paper_grid_ms", Value::Fixed(paper_grid_ms, 1))
                    .with("search_ms", Value::Fixed(search_ms, 1)),
            ),
    )
}

fn bit_identical(a: &[Point], b: &[Point]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.sigma.to_bits() == y.sigma.to_bits()
                && x.area.to_bits() == y.area.to_bits()
                && x.restricted_pins == y.restricted_pins
        })
}
