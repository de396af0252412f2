//! One id space from mapping to sign-off: a design's `CellId`s index the
//! library it was mapped on, and every analysis that takes a design and a
//! library rejects a library with another cell list as
//! `StaError::MismatchedInput`.
//!
//! Each case hands a design mapped on a copy of the library without its
//! first cell — so every id is off by one — to one entry point together
//! with the full library. Without the check the entry points read other
//! cells than the ones the design was mapped on: they return numbers for
//! them or fail on a table or arc those cells lack. The Verilog writer
//! checks the same fingerprint and answers `MapError::MismatchedLibrary`.
//!
//! The right library can still hold the wrong cell for a gate: a 2-input
//! NAND bound to `INV_1` has more inputs than its cell has input pins.
//! Every entry that looks up a gate's arcs by input position answers that
//! with `StaError::MissingArc`, as `analyze` does, instead of indexing
//! past the cell's pins.

use varitune::libchar::{generate_nominal, GenerateConfig, StatLibrary};
use varitune::liberty::Library;
use varitune::netlist::{GateKind, Netlist};
use varitune::sta::paths::worst_paths;
use varitune::sta::{
    analyze, analyze_hold, analyze_ssta, estimate_power, estimate_power_with_activity,
    report_timing, required_times, write_sdf, HoldConfig, MappedDesign, PowerConfig, SstaOptions,
    StaConfig, StaError, TimingGraph, TimingReport, WireModel,
};
use varitune::synth::{synthesize, write_verilog, LibraryConstraints, MapError, SynthConfig};

/// The full library, the copy without its first cell (each as a
/// statistical library), and a design synthesized on the copy with its
/// timing report.
struct Mismatch {
    full: StatLibrary,
    filtered: StatLibrary,
    design: MappedDesign,
    report: TimingReport,
}

fn stat_of(nominal: &Library) -> StatLibrary {
    let cfg = GenerateConfig::small_for_tests();
    StatLibrary::try_from_monte_carlo(nominal, &cfg, 4, 11, 1, false).expect("characterization")
}

/// Registers into a NAND/NOR/INV/MUX cone into registers: every family of
/// the small library, so each one's ids shift in the copy.
fn netlist() -> Netlist {
    let mut nl = Netlist::new("mismatch");
    let (a, b, s) = (nl.add_input("a"), nl.add_input("b"), nl.add_input("s"));
    let (qa, qb) = (nl.add_net("qa"), nl.add_net("qb"));
    nl.add_gate(GateKind::Dff, &[a], &[qa]);
    nl.add_gate(GateKind::Dff, &[b], &[qb]);
    let (x, y, z, m) = (
        nl.add_net("x"),
        nl.add_net("y"),
        nl.add_net("z"),
        nl.add_net("m"),
    );
    nl.add_gate(GateKind::Nand, &[qa, qb], &[x]);
    nl.add_gate(GateKind::Nor, &[qa, x], &[y]);
    nl.add_gate(GateKind::Inv, &[y], &[z]);
    nl.add_gate(GateKind::Mux2, &[x, z, s], &[m]);
    let q = nl.add_net("q");
    nl.add_gate(GateKind::Dff, &[m], &[q]);
    nl.mark_output(q);
    nl.mark_output(z);
    nl
}

fn mismatch() -> Mismatch {
    let nominal = generate_nominal(&GenerateConfig::small_for_tests());
    let mut copy = nominal.clone();
    copy.cells.remove(0);
    let (full, filtered) = (stat_of(&nominal), stat_of(&copy));
    let run = synthesize(
        &netlist(),
        &filtered.mean,
        &LibraryConstraints::unconstrained(),
        &SynthConfig::with_clock_period(4.0),
    )
    .expect("synthesis on the copy");
    Mismatch {
        full,
        filtered,
        design: run.design,
        report: run.report,
    }
}

/// `result` must be the fingerprint mismatch (`None` below is a success).
fn assert_mismatched<T>(result: Result<T, StaError>) {
    match result.err() {
        Some(StaError::MismatchedInput { reason }) => {
            assert!(reason.contains("fingerprint"), "{reason}");
        }
        other => panic!("expected MismatchedInput, got {other:?}"),
    }
}

#[test]
fn the_copy_signs_off_its_own_design() {
    // The control: on the library it was mapped on, every entry succeeds.
    let m = mismatch();
    let lib = &m.filtered.mean;
    let cfg = PowerConfig::with_clock_period(4.0);
    let graph = TimingGraph::new(m.design.clone(), lib, &m.report.config).expect("graph");
    analyze_ssta(&graph, &m.filtered, SstaOptions::default()).expect("ssta");
    worst_paths(&m.design, lib, &m.filtered, &m.report, 0.0).expect("paths");
    analyze_hold(&m.design, lib, &HoldConfig::default()).expect("hold");
    estimate_power(&m.design, lib, &m.report, &cfg).expect("power");
    let activity = vec![0.1; m.design.netlist.net_count()];
    estimate_power_with_activity(&m.design, lib, &m.report, &cfg, &activity).expect("power");
    write_sdf(&m.design, lib, &m.report).expect("sdf");
    report_timing(&m.design, lib, &m.filtered, &m.report, 3).expect("report");
    write_verilog(&m.design, lib).expect("verilog");
}

#[test]
fn timing_graph_rejects_a_design_mapped_on_another_library() {
    let m = mismatch();
    assert_mismatched(TimingGraph::new(m.design, &m.full.mean, &m.report.config));
}

#[test]
fn worst_paths_rejects_a_design_mapped_on_another_library() {
    let m = mismatch();
    assert_mismatched(worst_paths(
        &m.design,
        &m.full.mean,
        &m.full,
        &m.report,
        0.0,
    ));
}

#[test]
fn hold_rejects_a_design_mapped_on_another_library() {
    let m = mismatch();
    assert_mismatched(analyze_hold(
        &m.design,
        &m.full.mean,
        &HoldConfig::default(),
    ));
}

#[test]
fn power_rejects_a_design_mapped_on_another_library() {
    let m = mismatch();
    let cfg = PowerConfig::with_clock_period(4.0);
    assert_mismatched(estimate_power(&m.design, &m.full.mean, &m.report, &cfg));
}

#[test]
fn power_with_activity_rejects_a_design_mapped_on_another_library() {
    let m = mismatch();
    let cfg = PowerConfig::with_clock_period(4.0);
    let activity = vec![0.1; m.design.netlist.net_count()];
    assert_mismatched(estimate_power_with_activity(
        &m.design,
        &m.full.mean,
        &m.report,
        &cfg,
        &activity,
    ));
}

#[test]
fn sdf_rejects_a_design_mapped_on_another_library() {
    let m = mismatch();
    assert_mismatched(write_sdf(&m.design, &m.full.mean, &m.report));
}

#[test]
fn timing_report_rejects_a_design_mapped_on_another_library() {
    let m = mismatch();
    assert_mismatched(report_timing(
        &m.design,
        &m.full.mean,
        &m.full,
        &m.report,
        3,
    ));
}

#[test]
fn ssta_rejects_a_statistical_library_with_another_cell_list() {
    // The graph is consistent (built on the copy it was mapped on); the
    // statistical library handed to SSTA is the full one.
    let m = mismatch();
    let graph =
        TimingGraph::new(m.design, &m.filtered.mean, &m.report.config).expect("graph on the copy");
    assert_mismatched(analyze_ssta(&graph, &m.full, SstaOptions::default()));
}

#[test]
fn verilog_rejects_a_design_mapped_on_another_library() {
    let m = mismatch();
    match write_verilog(&m.design, &m.full.mean) {
        Err(MapError::MismatchedLibrary { reason }) => {
            for lib in [&m.filtered.mean, &m.full.mean] {
                let fingerprint = format!("{:016x}", lib.interner().fingerprint().0);
                assert!(
                    reason.contains(&fingerprint),
                    "{fingerprint} not in {reason}"
                );
            }
        }
        other => panic!("expected MismatchedLibrary, got {other:?}"),
    }
}

/// One 2-input NAND driving an output, bound to `cell` of `lib`.
fn nand_bound_to(lib: &Library, cell: &str) -> MappedDesign {
    let mut nl = Netlist::new("overfull");
    let (a, b, z) = (nl.add_input("a"), nl.add_input("b"), nl.add_net("z"));
    nl.add_gate(GateKind::Nand, &[a, b], &[z]);
    nl.mark_output(z);
    MappedDesign::from_names(nl, &[cell], lib, WireModel::default()).expect("cell in the library")
}

/// The small library, the NAND bound to `INV_1`, and a timing report of
/// the same netlist bound to `ND2_1` for the entries that take one:
/// `analyze` refuses the `INV_1` design itself.
fn overfull() -> (Library, MappedDesign, TimingReport) {
    let lib = generate_nominal(&GenerateConfig::small_for_tests());
    let config = StaConfig::with_clock_period(4.0);
    let report = analyze(&nand_bound_to(&lib, "ND2_1"), &lib, &config).expect("nand on a nand");
    let design = nand_bound_to(&lib, "INV_1");
    assert_missing_arc(analyze(&design, &lib, &config));
    (lib, design, report)
}

/// `result` must be the missing arc of gate 0 on `INV_1`.
fn assert_missing_arc<T>(result: Result<T, StaError>) {
    match result.err() {
        Some(StaError::MissingArc { gate: 0, cell }) => assert_eq!(cell, "INV_1"),
        other => panic!("expected MissingArc on INV_1, got {other:?}"),
    }
}

#[test]
fn hold_reports_a_gate_with_more_inputs_than_its_cell() {
    let (lib, design, _) = overfull();
    assert_missing_arc(analyze_hold(&design, &lib, &HoldConfig::default()));
}

#[test]
fn sdf_reports_a_gate_with_more_inputs_than_its_cell() {
    let (lib, design, report) = overfull();
    assert_missing_arc(write_sdf(&design, &lib, &report));
}

#[test]
fn required_times_report_a_gate_with_more_inputs_than_its_cell() {
    let (lib, design, report) = overfull();
    assert_missing_arc(required_times(&design, &lib, &report));
}
