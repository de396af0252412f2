//! Experiment runner: regenerates every table and figure of the paper.
//! Run with `--help` for the flags and ids.
//!
//! Ids: fig1..fig16, tab1..tab3 and the ablations; `all` (the default)
//! runs everything in reporting order. `--scale paper` (the default) uses
//! the 304-cell library, 50 MC libraries and the ~20 k-gate design;
//! `--scale small` is a fast sanity run. `--threads N` sets the
//! Monte-Carlo characterization worker count (`0` = all cores, the
//! default); results are bit-identical for any N. `--trace PATH` writes a
//! `varitune-trace` flow trace of the whole run.

use std::process::ExitCode;
use std::time::Instant;

use varitune_bench::experiments::{run_experiment, ALL_IDS};
use varitune_bench::harness::{self, Args, Kind, Spec};
use varitune_bench::{Ctx, Scale};

const SPEC: Spec = Spec {
    name: "experiments",
    flags: &[
        ("--scale", Kind::Choice(&["paper", "small"]), "sizes"),
        ("--threads", Kind::Int(0), "MC workers, 0 = all cores"),
    ],
    out: None,
    ids: Some(&ALL_IDS),
};

fn main() -> ExitCode {
    harness::main(&SPEC, std::env::args(), run)
}

fn run(args: &Args) -> Result<(), String> {
    let mut scale = match args.choice("--scale") {
        "small" => Scale::small(),
        _ => Scale::paper(),
    };
    scale.flow.threads = args.int("--threads") as usize;
    eprintln!(
        "[experiments] preparing context at scale `{}`...",
        scale.label
    );
    let t0 = Instant::now();
    let ctx = Ctx::new(scale);
    eprintln!(
        "[experiments] ready in {:.1}s: min period {:.2} ns, design `{}` ({} gates)",
        t0.elapsed().as_secs_f64(),
        ctx.periods.high,
        ctx.flow.netlist.name,
        ctx.flow.netlist.gate_count()
    );

    for id in args.ids() {
        let t = Instant::now();
        let out = run_experiment(&ctx, id);
        println!("==================== {id} ====================");
        println!("{out}");
        eprintln!(
            "[experiments] {id} done in {:.1}s",
            t.elapsed().as_secs_f64()
        );
    }
    Ok(())
}
