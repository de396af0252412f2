//! Path-level Monte Carlo (Figs. 15–16 in miniature): extract the worst
//! paths of a synthesized design and study them under corner and
//! global/local variation.
//!
//! ```text
//! cargo run --release --example path_monte_carlo
//! ```

use varitune::core::flow::{Flow, FlowConfig};
use varitune::synth::SynthConfig;
use varitune::variation::mc::{local_variation_share, simulate_path, PathCell, VariationMode};
use varitune::variation::ProcessCorner;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let flow = Flow::prepare(FlowConfig::small_for_tests())?;
    let run = flow.run_baseline(&SynthConfig::with_clock_period(6.0))?;

    // Shortest and deepest worst paths of the design.
    let mut paths: Vec<_> = run.paths.iter().filter(|p| p.depth() >= 2).collect();
    paths.sort_by_key(|p| p.depth());
    let (short, long) = (paths[0], paths[paths.len() - 1]);

    for (label, path) in [("short", short), ("long", long)] {
        // Convert the extracted path into the MC model: per-cell mean and
        // relative sigma from the statistical library at the recorded
        // operating points.
        let cells: Vec<PathCell> = path
            .cells
            .iter()
            .map(|c| {
                let (m, s) = flow.stat.delay_stat_id(c.cell, c.out_pin, c.slew, c.load)?;
                Ok::<_, varitune::liberty::InterpolateError>(PathCell::new(m, s / m))
            })
            .collect::<Result<_, _>>()?;

        println!("\n{label} path ({} cells):", cells.len());
        let typ = simulate_path(
            &cells,
            ProcessCorner::Typical,
            VariationMode::LocalOnly,
            200,
            1,
        );
        for corner in ProcessCorner::ALL {
            let r = simulate_path(&cells, corner, VariationMode::LocalOnly, 200, 1);
            println!(
                "  {corner:<8} mean {:.4} ns ({:+5.1}%)   sigma {:.5} ns ({:+5.1}%)",
                r.summary.mean,
                100.0 * (r.summary.mean / typ.summary.mean - 1.0),
                r.summary.std_dev,
                100.0 * (r.summary.std_dev / typ.summary.std_dev - 1.0),
            );
        }
        let share = local_variation_share(&cells, ProcessCorner::Typical, 200, 1);
        println!("  local variation share of total: {:.0}%", 100.0 * share);
    }
    println!(
        "\nExpected: mean and sigma scale together across corners (Fig. 15),\n\
         and the local share is larger for the short path (Fig. 16)."
    );
    Ok(())
}
