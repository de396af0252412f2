//! Quickstart: the whole flow on a small fixture in under a minute.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Prepares a synthetic 304-cell library with its Monte-Carlo statistical
//! companion, generates a reduced microcontroller, synthesizes a baseline,
//! tunes the library with a sigma ceiling, re-synthesizes, and prints the
//! sigma-reduction / area-increase trade-off — the paper's headline
//! numbers in miniature.

use varitune::core::flow::{Comparison, Flow, FlowConfig};
use varitune::core::{TuningMethod, TuningParams};
use varitune::synth::SynthConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("preparing library, statistical library and design...");
    let flow = Flow::prepare(FlowConfig::small_for_tests())?;
    println!(
        "  library `{}`: {} cells; design `{}`: {} gates",
        flow.nominal.name,
        flow.nominal.cells.len(),
        flow.netlist.name,
        flow.netlist.gate_count()
    );

    let cfg = SynthConfig::with_clock_period(6.0);
    println!("\nbaseline synthesis @ {} ns...", cfg.sta.clock_period);
    let baseline = flow.run_baseline(&cfg)?;
    println!(
        "  area {:.0} um^2, design sigma {:.4} ns, worst slack {:.3} ns",
        baseline.area(),
        baseline.sigma(),
        baseline.synthesis.report.worst_slack()
    );

    println!("\ntuning with a sigma ceiling of 0.02 ns...");
    let (tuned_lib, tuned) = flow.run_tuned(
        TuningMethod::SigmaCeiling,
        TuningParams::with_sigma_ceiling(0.02),
        &cfg,
    )?;
    println!(
        "  {} output pins restricted, {} left free",
        tuned_lib.restricted_pins, tuned_lib.unrestricted_pins
    );
    println!(
        "  area {:.0} um^2, design sigma {:.4} ns, {} buffers inserted",
        tuned.area(),
        tuned.sigma(),
        tuned.synthesis.buffers_inserted
    );

    let cmp = Comparison::between(&baseline, &tuned);
    println!(
        "\nresult: sigma {:+.1}% at {:+.1}% area",
        -cmp.sigma_reduction_pct(),
        cmp.area_increase_pct()
    );
    println!("(the paper reports -37% sigma at +7% area at full scale)");
    Ok(())
}
