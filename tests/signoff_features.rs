//! Integration tests for the sign-off surface added around the paper's
//! core: hold analysis, simulation-driven power, Verilog/SDF export,
//! yield, the exclusion baseline and the constraints sidecar — all
//! exercised on a synthesized design, across crate boundaries.

use varitune::core::flow::{Flow, FlowConfig};
use varitune::core::{tune, tune_by_exclusion, TuningMethod, TuningParams};
use varitune::liberty::Library;
use varitune::netlist::random_activity;
use varitune::sta::paths::{deadline_at_yield, timing_yield};
use varitune::sta::MappedDesign;
use varitune::sta::{
    analyze_hold, estimate_power, estimate_power_with_activity, report_timing, write_sdf,
    HoldConfig, PowerConfig,
};
use varitune::synth::{synthesize, write_verilog, LibraryConstraints, SynthConfig};

fn fixture() -> (Flow, varitune::core::FlowRun) {
    let flow = Flow::prepare(FlowConfig::small_for_tests()).expect("flow");
    let run = flow
        .run_baseline(&SynthConfig::with_clock_period(6.0))
        .expect("baseline");
    (flow, run)
}

#[test]
fn hold_is_clean_on_register_transfers_of_a_synthesized_design() {
    let (flow, run) = fixture();
    let hold = analyze_hold(
        &run.synthesis.design,
        &flow.stat.mean,
        &HoldConfig::default(),
    )
    .expect("hold analysis");
    // Register-to-register transfers (driver present) must be hold-clean;
    // primary-input endpoints are unconstrained and legitimately report
    // violations.
    let mut checked = 0;
    for ep in &hold.endpoints {
        if run.synthesis.report.nets[ep.net.0 as usize]
            .driver
            .is_some()
        {
            assert!(
                ep.slack() >= 0.0,
                "hold violation on a register transfer: slack {}",
                ep.slack()
            );
            checked += 1;
        }
    }
    assert!(checked > 20, "checked only {checked} transfers");
}

#[test]
fn tuning_reduces_the_99_percent_yield_deadline() {
    let (flow, baseline) = fixture();
    let (_lib, tuned) = flow
        .run_tuned(
            TuningMethod::SigmaCeiling,
            TuningParams::with_sigma_ceiling(0.02),
            &SynthConfig::with_clock_period(6.0),
        )
        .expect("tuned run");
    let d_base = deadline_at_yield(&baseline.paths, 0.99, 1e-4).expect("valid yield query");
    let d_tuned = deadline_at_yield(&tuned.paths, 0.99, 1e-4).expect("valid yield query");
    assert!(
        d_tuned < d_base,
        "tuned 99% deadline {d_tuned} should beat baseline {d_base}"
    );
    // Sanity: the recovered deadlines really deliver the yield.
    assert!(timing_yield(&baseline.paths, d_base) >= 0.989);
    assert!(timing_yield(&tuned.paths, d_tuned) >= 0.989);
}

#[test]
fn simulated_activity_power_is_finite_and_ordered() {
    let (flow, run) = fixture();
    let cfg = PowerConfig::with_clock_period(6.0);
    let blanket = estimate_power(
        &run.synthesis.design,
        &flow.stat.mean,
        &run.synthesis.report,
        &cfg,
    )
    .expect("blanket power");
    let activity = random_activity(&run.synthesis.design.netlist, 128, 11).expect("sim");
    let measured = estimate_power_with_activity(
        &run.synthesis.design,
        &flow.stat.mean,
        &run.synthesis.report,
        &cfg,
        &activity.per_net,
    )
    .expect("measured power");
    for p in [blanket, measured] {
        assert!(p.total().is_finite() && p.total() > 0.0);
        assert!(p.leakage > 0.0);
    }
    // Leakage is activity independent.
    assert!((blanket.leakage - measured.leakage).abs() < 1e-12);
}

#[test]
fn verilog_and_sdf_agree_on_instances() {
    let (flow, run) = fixture();
    let v = write_verilog(&run.synthesis.design, &flow.stat.mean).expect("verilog");
    let sdf = write_sdf(
        &run.synthesis.design,
        &flow.stat.mean,
        &run.synthesis.report,
    )
    .expect("sdf");
    let gates = run.synthesis.design.netlist.gate_count();
    assert_eq!(sdf.matches("(INSTANCE ").count(), gates);
    // Every SDF instance name appears in the Verilog netlist.
    for line in sdf
        .lines()
        .filter(|l| l.trim_start().starts_with("(INSTANCE"))
    {
        let name = line
            .trim()
            .trim_start_matches("(INSTANCE ")
            .trim_end_matches(')');
        assert!(
            v.contains(name),
            "SDF instance `{name}` missing from Verilog"
        );
    }
}

#[test]
fn timing_report_text_covers_the_most_critical_path() {
    let (flow, run) = fixture();
    let text = report_timing(
        &run.synthesis.design,
        &flow.stat.mean,
        &flow.stat,
        &run.synthesis.report,
        3,
    )
    .expect("report");
    assert!(text.contains("Path 1:"));
    assert!(text.contains("slack"));
    assert!(text.lines().count() > 15, "report too short:\n{text}");
}

#[test]
fn exclusion_baseline_is_coarser_than_windows_at_the_same_budget() {
    let (flow, _) = fixture();
    let budget = 0.02;
    // Windowed tuning restricts pins but keeps every cell usable.
    let windowed = tune(
        &flow.stat,
        TuningMethod::SigmaCeiling,
        TuningParams::with_sigma_ceiling(budget),
    );
    assert!(windowed.restricted_pins > 0);
    // Exclusion removes whole cells.
    let excluded = tune_by_exclusion(&flow.stat, budget);
    assert!(!excluded.excluded.is_empty());
    // Both still let synthesis close timing on the fixture design.
    let w_run = flow
        .run(&windowed.constraints, &SynthConfig::with_clock_period(6.0))
        .expect("windowed synthesis");
    assert!(w_run.synthesis.met_timing);
    let e_run = flow
        .run(
            &excluded.constraints(),
            &SynthConfig::with_clock_period(6.0),
        )
        .expect("exclusion synthesis");
    assert!(e_run.synthesis.met_timing);
    // The design indexes the full library and uses no excluded cell.
    let design = &e_run.synthesis.design;
    for gi in 0..design.netlist.gate_count() {
        let name = design.cell_label(gi, &flow.stat.mean);
        assert!(!excluded.excluded.contains(&name), "gate {gi} uses {name}");
    }
}

/// Synthesis on a copy of `lib` without the `excluded` cells: the oracle
/// for a run under the same cells as a don't-use set.
fn filtered_copy(lib: &Library, excluded: &[String]) -> Library {
    let mut copy = lib.clone();
    copy.cells.retain(|c| !excluded.contains(&c.name));
    copy
}

#[test]
fn exclusion_through_the_flow_matches_synthesis_on_a_filtered_copy() {
    let (flow, _) = fixture();
    let cfg = SynthConfig::with_clock_period(6.0);
    let names = |d: &MappedDesign, lib: &Library| -> Vec<String> {
        (0..d.netlist.gate_count())
            .map(|gi| d.cell_label(gi, lib))
            .collect()
    };
    for budget in [0.04, 0.03, 0.02, 0.01] {
        let excluded = tune_by_exclusion(&flow.stat, budget);
        assert!(!excluded.excluded.is_empty(), "budget {budget}");
        let run = flow
            .run(&excluded.constraints(), &cfg)
            .expect("exclusion run");
        let copy = filtered_copy(&flow.stat.mean, &excluded.excluded);
        let oracle = synthesize(
            &flow.netlist,
            &copy,
            &LibraryConstraints::unconstrained(),
            &cfg,
        )
        .expect("synthesis on the copy");
        let got = &run.synthesis;
        assert_eq!(
            names(&got.design, &flow.stat.mean),
            names(&oracle.design, &copy),
            "budget {budget}"
        );
        assert_eq!(got.design.netlist, oracle.design.netlist, "budget {budget}");
        assert_eq!(got.area.to_bits(), oracle.area.to_bits(), "budget {budget}");
        assert_eq!(
            got.report.worst_slack().to_bits(),
            oracle.report.worst_slack().to_bits(),
            "budget {budget}"
        );
    }
}

#[test]
fn mismatched_signoff_inputs_yield_typed_errors_not_panics() {
    use varitune::sta::StaError;
    let (flow, run) = fixture();
    let cfg = PowerConfig::with_clock_period(6.0);

    // Activity vector shorter than the net list: a typed mismatch, not an
    // index panic.
    let short_activity = vec![0.1; run.synthesis.design.netlist.net_count() / 2];
    let err = estimate_power_with_activity(
        &run.synthesis.design,
        &flow.stat.mean,
        &run.synthesis.report,
        &cfg,
        &short_activity,
    )
    .expect_err("short activity must be rejected");
    assert!(
        matches!(err, StaError::MismatchedInput { .. }),
        "unexpected error: {err}"
    );

    // A stale timing report (fewer nets than the design) against power and
    // SDF export: both demote to the same typed error.
    let mut stale = run.synthesis.report.clone();
    stale.nets.truncate(stale.nets.len() / 2);
    let err = estimate_power(&run.synthesis.design, &flow.stat.mean, &stale, &cfg)
        .expect_err("stale report must be rejected by power");
    assert!(
        matches!(err, StaError::MismatchedInput { .. }),
        "unexpected error: {err}"
    );
    let err = write_sdf(&run.synthesis.design, &flow.stat.mean, &stale)
        .expect_err("stale report must be rejected by SDF export");
    assert!(
        matches!(err, StaError::MismatchedInput { .. }),
        "unexpected error: {err}"
    );
    // The messages carry the mismatch so logs are actionable.
    assert!(err.to_string().contains("mismatch"), "got: {err}");
}

#[test]
fn constraints_sidecar_round_trips_through_disk_format() {
    let (flow, _run) = fixture();
    let tuned = tune(
        &flow.stat,
        TuningMethod::CellSlewSlope,
        TuningParams::with_slew_slope(0.01),
    );
    let text = tuned.constraints.to_text();
    let parsed = LibraryConstraints::from_text(&text).expect("parse sidecar");
    assert_eq!(parsed, tuned.constraints);
}
