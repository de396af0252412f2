//! Offline tuning micro-harness: wall time of the paper's §IV+§VI front end
//! — `Flow::prepare` (nominal library, Monte-Carlo libraries, statistical
//! merge, design) plus the full Table-2 `tune` sweep — with a component
//! breakdown. Run with `--help` for the flags.
//!
//! The harness times the exact calls `Flow::prepare` makes (so the sum is
//! the prepare cost) and then every `tune()` of the Table-2 parameter grid
//! (5 methods × 4 parameter values), each the best of `--repeat` runs.
//! Tuning results are checked for determinism across repeats. The report
//! goes to `--out` (default `BENCH_tune.json`); `--trace` additionally
//! writes a `varitune-trace` flow trace, which is byte-identical across
//! reruns in default builds.

use std::process::ExitCode;

use varitune_bench::harness::{self, best_of, Args, Kind, Obj, Spec, Value};
use varitune_core::flow::FlowConfig;
use varitune_core::{tune, TuningMethod, TuningParams};
use varitune_libchar::{generate_nominal, StatLibrary};
use varitune_netlist::generate_mcu;

const SPEC: Spec = Spec {
    name: "tune_harness",
    flags: &[
        ("--smoke", Kind::Switch, "the small test flow"),
        ("--repeat", Kind::Count(1), "best-of-N runs per timing"),
    ],
    out: Some("BENCH_tune.json"),
    ids: None,
};

fn main() -> ExitCode {
    harness::main(&SPEC, std::env::args(), run)
}

fn run(args: &Args) -> Result<(), String> {
    let smoke = args.switch("--smoke");
    let repeat = args.count("--repeat");
    let scale = if smoke { "smoke" } else { "paper" };
    println!("tuning micro-harness (std::time::Instant, offline) — {scale} scale");

    let cfg = if smoke {
        FlowConfig::small_for_tests()
    } else {
        FlowConfig::paper_scale()
    };

    // Component timings of what Flow::prepare runs, each the best of
    // `repeat`: the nominal library, the streaming MC characterization +
    // Welford merge in one fused pass, and the design.
    let prepare_span = varitune_trace::span!("tune_harness.prepare");
    let (mut nominal, mut stat) = (None, None);
    let gen = &cfg.generate;
    let nominal_ms = best_of(repeat, || generate_nominal(gen), |n| nominal = Some(n));
    let nominal = nominal.expect("repeat >= 1");
    let char_ms = best_of(
        repeat,
        || StatLibrary::from_monte_carlo(&nominal, gen, cfg.mc_libraries, cfg.seed, cfg.threads),
        |s| stat = Some(s),
    );
    let stat = stat.expect("repeat >= 1");
    let mcu_ms = best_of(
        repeat,
        || generate_mcu(&cfg.mcu),
        |n| drop(std::hint::black_box(n)),
    );
    drop(prepare_span);
    let prepare_ms = nominal_ms + char_ms + mcu_ms;
    println!("nominal library:       {nominal_ms:>9.1} ms");
    println!(
        "{} MC libs + merge:    {char_ms:>9.1} ms (streamed)",
        cfg.mc_libraries
    );
    println!("design generation:     {mcu_ms:>9.1} ms");
    println!("prepare total:         {prepare_ms:>9.1} ms");

    // The full Table-2 tuning grid: 5 methods x 4 parameter values, the
    // sweep behind Fig. 10 / Table 3. Deterministic across repeats.
    let grid: Vec<(TuningMethod, TuningParams)> = TuningMethod::ALL
        .iter()
        .flat_map(|&m| {
            TuningParams::table2_sweep(m)
                .into_iter()
                .map(move |p| (m, p))
        })
        .collect();
    let sweep_span = varitune_trace::span!("tune_harness.tune_sweep");
    let sweep = || -> Vec<usize> {
        let tuned = grid.iter().map(|&(m, p)| tune(&stat, m, p));
        tuned
            .map(|t| std::hint::black_box(t).restricted_pins)
            .collect()
    };
    let mut restricted = Vec::with_capacity(repeat);
    let tune_ms = best_of(repeat, sweep, |pins| restricted.push(pins));
    if restricted.iter().any(|pins| *pins != restricted[0]) {
        return Err("tuning is not deterministic across repeats".to_string());
    }
    drop(sweep_span);
    let total_ms = prepare_ms + tune_ms;
    println!("tune x{} (Table 2):    {tune_ms:>9.1} ms", grid.len());
    println!("prepare + tune:        {total_ms:>9.1} ms");

    let prepare = Obj::new()
        .with("nominal_ms", Value::Fixed(nominal_ms, 1))
        .with("mc_characterization_ms", Value::Fixed(char_ms, 1))
        .with("design_ms", Value::Fixed(mcu_ms, 1))
        .with("total_ms", Value::Fixed(prepare_ms, 1));
    let tune_row = Obj::new()
        .with("calls", grid.len())
        .with("total_ms", Value::Fixed(tune_ms, 1));
    args.write_out(
        &Obj::new()
            .with("scale", scale)
            .with("mc_libraries", cfg.mc_libraries)
            .with("prepare", prepare)
            .with("tune", tune_row)
            .with("total_ms", Value::Fixed(total_ms, 1)),
    )
}
