//! Sign-off hand-off: synthesize a design and emit the classic trio a
//! place-and-route / simulation flow consumes — gate-level Verilog, SDF
//! delays, and the tuned-window sidecar — plus hold, power and yield
//! sign-off numbers.
//!
//! ```text
//! cargo run --release --example signoff_export [out_dir]
//! ```

use std::path::PathBuf;

use varitune::core::flow::{Flow, FlowConfig};
use varitune::core::{tune, TuningMethod, TuningParams};
use varitune::netlist::random_activity;
use varitune::sta::paths::deadline_at_yield;
use varitune::sta::{
    analyze_hold, estimate_power_with_activity, write_sdf, HoldConfig, PowerConfig,
};
use varitune::synth::{write_verilog, SynthConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_dir = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);

    let flow = Flow::prepare(FlowConfig::small_for_tests())?;
    let period = 6.0;
    let cfg = SynthConfig::with_clock_period(period);

    println!("tuning (sigma ceiling 0.02) and synthesizing @ {period} ns...");
    let tuned = tune(
        &flow.stat,
        TuningMethod::SigmaCeiling,
        TuningParams::with_sigma_ceiling(0.02),
    );
    let run = flow.run(&tuned.constraints, &cfg)?;
    let design = &run.synthesis.design;
    println!(
        "  {} cells, area {:.0} um^2, setup slack {:.3} ns",
        design.netlist.gate_count(),
        run.area(),
        run.synthesis.report.worst_slack()
    );

    // Hold sign-off (min-delay analysis with characterized hold arcs).
    let hold = analyze_hold(design, &flow.stat.mean, &HoldConfig::default())?;
    let ff_hold_ok = hold
        .endpoints
        .iter()
        .filter(|e| run.synthesis.report.nets[e.net.0 as usize].driver.is_some())
        .all(|e| e.slack() >= 0.0);
    println!(
        "  hold on register transfers: {}",
        if ff_hold_ok { "clean" } else { "VIOLATED" }
    );

    // Power sign-off with simulated switching activity.
    let activity = random_activity(&design.netlist, 256, 7)?;
    let power = estimate_power_with_activity(
        design,
        &flow.stat.mean,
        &run.synthesis.report,
        &PowerConfig::with_clock_period(period),
        &activity.per_net,
    )?;
    println!(
        "  power: {:.3} mW (internal {:.3}, switching {:.3}, leakage {:.3})",
        power.total(),
        power.internal,
        power.switching,
        power.leakage
    );

    // Parametric yield: the clock the design could actually ship at.
    let d99 = deadline_at_yield(&run.paths, 0.99, 1e-4)?;
    println!("  99% parametric-yield deadline: {d99:.3} ns");

    // Hand-off files.
    let v_path = out_dir.join("varitune_signoff.v");
    let sdf_path = out_dir.join("varitune_signoff.sdf");
    let win_path = out_dir.join("varitune_signoff.windows");
    std::fs::write(&v_path, write_verilog(design, &flow.stat.mean)?)?;
    std::fs::write(
        &sdf_path,
        write_sdf(design, &flow.stat.mean, &run.synthesis.report)?,
    )?;
    std::fs::write(&win_path, tuned.constraints.to_text())?;
    println!("\nwrote:");
    for p in [&v_path, &sdf_path, &win_path] {
        println!("  {}", p.display());
    }
    Ok(())
}
