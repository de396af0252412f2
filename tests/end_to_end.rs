//! Workspace integration tests: the full flow from library generation to
//! tuned synthesis, exercised across crate boundaries.

use varitune::core::flow::{Comparison, Flow, FlowConfig};
use varitune::core::{tune, TuningMethod, TuningParams};
use varitune::synth::{synthesize, LibraryConstraints, SynthConfig};

fn flow_fixture() -> Flow {
    Flow::prepare(FlowConfig::small_for_tests()).expect("flow preparation")
}

#[test]
fn headline_sigma_ceiling_reduces_sigma_at_bounded_area_cost() {
    let flow = flow_fixture();
    let cfg = SynthConfig::with_clock_period(6.0);
    let baseline = flow.run_baseline(&cfg).expect("baseline");

    // Sweep the Table 2 ceilings and keep the best trade-off, as Fig. 10
    // does.
    let mut best: Option<Comparison> = None;
    for params in TuningParams::table2_sweep(TuningMethod::SigmaCeiling) {
        let (_lib, run) = flow
            .run_tuned(TuningMethod::SigmaCeiling, params, &cfg)
            .expect("tuned run");
        let cmp = Comparison::between(&baseline, &run);
        if best
            .as_ref()
            .is_none_or(|b| cmp.sigma_reduction_pct() > b.sigma_reduction_pct())
        {
            best = Some(cmp);
        }
    }
    let best = best.expect("at least one candidate");
    assert!(
        best.sigma_reduction_pct() > 10.0,
        "expected a double-digit sigma cut, got {:.1}%",
        best.sigma_reduction_pct()
    );
}

#[test]
fn every_tuning_method_produces_a_usable_library() {
    let flow = flow_fixture();
    let cfg = SynthConfig::with_clock_period(6.0);
    for method in TuningMethod::ALL {
        let params = TuningParams::table2_sweep(method)[1];
        let (tuned_lib, run) = flow
            .run_tuned(method, params, &cfg)
            .unwrap_or_else(|e| panic!("{method} failed: {e}"));
        run.synthesis
            .design
            .netlist
            .validate()
            .expect("valid netlist");
        assert!(run.design.sigma > 0.0, "{method}: sigma must be positive");
        assert!(
            tuned_lib.restricted_pins + tuned_lib.unrestricted_pins > 0,
            "{method}: accounting empty"
        );
    }
}

#[test]
fn relaxed_timing_has_higher_baseline_sigma_than_tight_timing() {
    // §VII: "a relaxed timing results in a higher design sigma" because
    // synthesis optimizes area with small (high-sigma) cells.
    let flow = flow_fixture();
    let tight = flow
        .run_baseline(&SynthConfig::with_clock_period(2.0))
        .expect("tight run");
    let relaxed = flow
        .run_baseline(&SynthConfig::with_clock_period(16.0))
        .expect("relaxed run");
    // Compare per-path average sigma (the design aggregate also depends on
    // path counts, which are equal here, but the per-path view is the
    // paper's argument).
    let avg = |run: &varitune::core::FlowRun| {
        run.paths.iter().map(|p| p.sigma).sum::<f64>() / run.paths.len() as f64
    };
    assert!(
        avg(&relaxed) > avg(&tight),
        "relaxed {} vs tight {}",
        avg(&relaxed),
        avg(&tight)
    );
}

#[test]
fn tuned_windows_are_respected_by_the_synthesized_design() {
    // Every gate's final operating point (input slew, output load) must lie
    // inside its cell's tuned window — that is the contract tuning hands to
    // synthesis.
    let flow = flow_fixture();
    let cfg = SynthConfig::with_clock_period(8.0);
    let tuned = tune(
        &flow.stat,
        TuningMethod::SigmaCeiling,
        TuningParams::with_sigma_ceiling(0.025),
    );
    let run = flow.run(&tuned.constraints, &cfg).expect("tuned synthesis");
    let design = &run.synthesis.design;
    let report = &run.synthesis.report;
    let mut checked = 0;
    for gi in 0..design.netlist.gate_count() {
        let cell = design.cell_of(gi, &flow.stat.mean).expect("mapped cell");
        for (j, &out) in design.netlist.gate_outputs(gi).iter().enumerate() {
            let pin = cell.output_pins().nth(j).expect("output pin");
            let w = tuned.constraints.window(&cell.name, &pin.name);
            let load = report.nets[out.0 as usize].load;
            assert!(
                load <= w.max_load * 1.0001,
                "gate {gi} ({}) load {load} outside window max {}",
                cell.name,
                w.max_load
            );
            checked += 1;
        }
    }
    assert!(checked > 100, "checked {checked} pins");
}

#[test]
fn statistical_library_written_and_reparsed_preserves_flow_results() {
    // The statistical library survives a Liberty round trip, and the
    // re-parsed library produces identical tuning.
    let flow = flow_fixture();
    let text = varitune::liberty::write_library(&flow.stat.sigma).unwrap();
    let reparsed = varitune::liberty::parse_library(&text).expect("parse back");
    assert_eq!(reparsed.cells, flow.stat.sigma.cells);

    let params = TuningParams::with_sigma_ceiling(0.02);
    let a = tune(&flow.stat, TuningMethod::SigmaCeiling, params);
    let mut stat2 = flow.stat.clone();
    stat2.sigma = reparsed;
    let b = tune(&stat2, TuningMethod::SigmaCeiling, params);
    assert_eq!(a.constraints, b.constraints);
}

#[test]
fn full_flow_is_deterministic_across_processes_inputs() {
    let a = flow_fixture();
    let b = flow_fixture();
    let cfg = SynthConfig::with_clock_period(6.0);
    let ra = a.run_baseline(&cfg).expect("run a");
    let rb = b.run_baseline(&cfg).expect("run b");
    assert_eq!(ra.synthesis.design.cells, rb.synthesis.design.cells);
    assert_eq!(ra.design, rb.design);
}

#[test]
fn synthesize_rejects_library_without_needed_family() {
    let flow = flow_fixture();
    let mut lib = flow.stat.mean.clone();
    lib.cells.retain(|c| !c.name.starts_with("DF"));
    let err = synthesize(
        &flow.netlist,
        &lib,
        &LibraryConstraints::unconstrained(),
        &SynthConfig::with_clock_period(6.0),
    )
    .unwrap_err();
    assert!(err.to_string().contains("DF"), "{err}");
}

#[test]
fn tuned_library_roundtrip_interns_to_identical_ids() {
    // Satellite check for the typed-ID core: write a *tuned* library (the
    // mean library with the tuned windows applied as pin limits) through
    // the Liberty writer, parse it back, and require that the re-parsed
    // library interns every cell, family and pin to the identical IDs. The
    // IDs are positional, so this pins down that the writer emits cells and
    // pins in model order and the parser preserves it.
    let flow = flow_fixture();
    let tuned = tune(
        &flow.stat,
        TuningMethod::SigmaCeiling,
        TuningParams::with_sigma_ceiling(0.02),
    );
    assert!(
        !tuned.constraints.is_empty(),
        "tuning must restrict something"
    );

    // Apply the windows: clamp each restricted pin's limits to its window.
    let mut lib = flow.stat.mean.clone();
    for ((cell, pin), w) in tuned.constraints.iter() {
        let c = lib
            .cells
            .iter_mut()
            .find(|c| &c.name == cell)
            .expect("constraint names a library cell");
        let p = c
            .pins
            .iter_mut()
            .find(|p| &p.name == pin)
            .expect("constraint names a pin");
        if w.max_load.is_finite() {
            p.max_capacitance = Some(p.max_capacitance.unwrap_or(w.max_load).min(w.max_load));
        }
        if w.max_slew.is_finite() {
            p.max_transition = Some(p.max_transition.unwrap_or(w.max_slew).min(w.max_slew));
        }
    }

    let text = varitune::liberty::write_library(&lib).unwrap();
    let parsed = varitune::liberty::parse_library(&text).expect("parse tuned library");
    assert_eq!(parsed.cells, lib.cells);

    // Cell IDs are identical for every name.
    for cell in &lib.cells {
        assert_eq!(
            parsed.cell_id(&cell.name),
            lib.cell_id(&cell.name),
            "cell {} must intern to the same id",
            cell.name
        );
    }
    // The whole interner agrees: families (names, order, members) and the
    // pin table.
    let a = lib.interner();
    let b = parsed.interner();
    assert_eq!(a.families(), b.families());
    for (ci, cell) in lib.cells.iter().enumerate() {
        let id = varitune::liberty::CellId(ci as u32);
        for pi in 0..cell.pins.len() {
            assert_eq!(a.pin_id(id, pi), b.pin_id(id, pi));
        }
    }
}
