//! Oracle for path sign-off: `worst_paths` walks the critical-predecessor
//! tree once and shares every path prefix between endpoints, so each of its
//! paths must equal a per-endpoint `extract_path` to the last bit — mean,
//! sigma, arrival and every cell — at any correlation `rho`.

use std::collections::BTreeSet;

use varitune::core::flow::{Flow, FlowConfig};
use varitune::sta::paths::{extract_path, worst_paths, PathCellSample, PathTiming};
use varitune::sta::{analyze, MappedDesign, TimingReport};
use varitune::synth::SynthConfig;

fn assert_cells_bit_identical(a: &PathCellSample, b: &PathCellSample, ctx: &str) {
    assert_eq!(
        (a.gate, a.cell, a.out_pin, a.crit_input),
        (b.gate, b.cell, b.out_pin, b.crit_input),
        "{ctx}"
    );
    assert_eq!(a.slew.to_bits(), b.slew.to_bits(), "{ctx}: slew");
    assert_eq!(a.load.to_bits(), b.load.to_bits(), "{ctx}: load");
    assert_eq!(a.delay.to_bits(), b.delay.to_bits(), "{ctx}: delay");
}

fn assert_paths_bit_identical(a: &PathTiming, b: &PathTiming, ctx: &str) {
    assert_eq!(a.endpoint, b.endpoint, "{ctx}");
    assert_eq!(a.mean.to_bits(), b.mean.to_bits(), "{ctx}: mean");
    assert_eq!(a.sigma.to_bits(), b.sigma.to_bits(), "{ctx}: sigma");
    assert_eq!(a.arrival.to_bits(), b.arrival.to_bits(), "{ctx}: arrival");
    assert_eq!(a.depth(), b.depth(), "{ctx}: depth");
    for (i, (x, y)) in a.cells.iter().zip(&b.cells).enumerate() {
        assert_cells_bit_identical(x, y, &format!("{ctx}: cell {i}"));
    }
}

/// The synthesized small MCU with two extra endpoints: a primary input
/// marked as an output (an empty path) and an output net marked a second
/// time (one unique endpoint, two report entries).
fn fixture() -> (Flow, MappedDesign, TimingReport) {
    let flow = Flow::prepare(FlowConfig::small_for_tests()).expect("flow");
    let run = flow
        .run_baseline(&SynthConfig::with_clock_period(6.0))
        .expect("baseline");
    let mut design = run.synthesis.design;
    let pi = design.netlist.primary_inputs[0];
    let po = design.netlist.primary_outputs[0];
    design.netlist.mark_output(pi);
    design.netlist.mark_output(po);
    let report = analyze(&design, &flow.stat.mean, &run.synthesis.report.config).expect("sta");
    (flow, design, report)
}

#[test]
fn memoized_worst_paths_match_per_endpoint_extraction_bit_for_bit() {
    let (flow, design, report) = fixture();
    let (lib, stat) = (&flow.stat.mean, &flow.stat);
    let mut unique = BTreeSet::new();
    let endpoints: Vec<_> = report
        .endpoints
        .iter()
        .map(|e| e.net)
        .filter(|&n| unique.insert(n))
        .collect();
    assert!(
        endpoints.len() < report.endpoints.len(),
        "a repeated endpoint"
    );

    for rho in [0.0, 0.5] {
        let (paths, design_t) = worst_paths(&design, lib, stat, &report, rho).expect("paths");
        assert_eq!(paths.len(), endpoints.len());
        assert_eq!(design_t.path_count, endpoints.len());
        for (p, &ep) in paths.iter().zip(&endpoints) {
            let oracle = extract_path(&design, lib, stat, &report, ep, rho).expect("oracle");
            assert_paths_bit_identical(p, &oracle, &format!("rho {rho}, endpoint {}", ep.0));
        }

        // The primary input's path is empty; its sums stay at
        // `Iterator::sum`'s identity, -0.0.
        let pi = design.netlist.primary_inputs[0];
        let empty = paths
            .iter()
            .find(|p| p.endpoint == pi)
            .expect("PI endpoint");
        assert_eq!(empty.depth(), 0);
        assert_eq!(empty.mean.to_bits(), (-0.0f64).to_bits());
        // Some path launches from a flip-flop, which times from its clock.
        assert!(paths.iter().any(|p| p.cells.first().is_some_and(|c| {
            c.crit_input.is_none() && design.netlist.gate_kind(c.gate).is_sequential()
        })));
        // Paths share prefixes: some gate sits on more than one path.
        let mut on_paths = BTreeSet::new();
        let shared = paths
            .iter()
            .flat_map(|p| &p.cells)
            .any(|c| !on_paths.insert(c.gate));
        assert!(shared, "no two paths share a cell");
    }
}
