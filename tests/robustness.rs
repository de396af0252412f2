//! End-to-end robustness: corrupted Liberty text and malformed netlists
//! must produce typed errors or accurate degradation reports — never
//! panics — across every ingestion strictness policy.

use varitune::core::flow::{Flow, FlowConfig, FlowError};
use varitune::core::{Degradation, Strictness};
use varitune::libchar::{generate_nominal, GenerateConfig};
use varitune::liberty::{parse_library_recovering, validate_library, write_library, CellHealth};
use varitune::netlist::{generate_mcu, GateKind, McuConfig, Netlist, ValidateNetlistError};
use varitune::synth::{synthesize, LibraryConstraints, SynthConfig};

fn small_flow_config(strictness: Strictness) -> FlowConfig {
    let mut cfg = FlowConfig::small_for_tests();
    cfg.mc_libraries = 6; // ingestion behaviour, not statistics, is under test
    cfg.strictness = strictness;
    cfg
}

fn pristine_text() -> String {
    write_library(&generate_nominal(&GenerateConfig::full())).expect("generated library writes")
}

#[test]
fn pristine_text_ingests_losslessly_under_strict() {
    let flow =
        Flow::prepare_from_liberty_text(small_flow_config(Strictness::Strict), &pristine_text())
            .expect("pristine text must pass strict ingestion");
    assert!(flow.report.degradations.is_empty());
    assert_eq!(flow.report.parsed_cells, flow.report.kept_cells);
}

#[test]
fn corrupted_text_rejected_by_strict_tolerated_by_quarantine() {
    // Poison one cell's area with NaN: strict refuses the library, while
    // quarantine drops exactly that cell and accounts for it.
    let text = pristine_text().replacen("area : ", "area : nan; // ", 1);
    assert_ne!(text, pristine_text(), "corruption must apply");

    let err = Flow::prepare_from_liberty_text(small_flow_config(Strictness::Strict), &text)
        .expect_err("strict must reject a NaN area");
    assert!(matches!(err, FlowError::Rejected { .. }), "{err}");

    let flow = Flow::prepare_from_liberty_text(small_flow_config(Strictness::Quarantine), &text)
        .expect("quarantine must recover");
    let (parsed, _) = parse_library_recovering(&text);
    let dropped: Vec<&str> = parsed
        .cells
        .iter()
        .map(|c| c.name.as_str())
        .filter(|n| flow.nominal.cell(n).is_none())
        .collect();
    assert_eq!(
        flow.report.quarantined_cells(),
        dropped,
        "every dropped cell must appear in the degradation ledger"
    );
    assert!(!dropped.is_empty());
}

#[test]
fn truncated_library_fails_with_typed_error_not_panic() {
    let text = pristine_text();
    let cut = &text[..text.len() / 3];
    for strictness in [
        Strictness::Strict,
        Strictness::Quarantine,
        Strictness::BestEffort,
    ] {
        // Either outcome is fine — rejection or a degraded-but-consistent
        // flow — as long as nothing panics and the ledger balances.
        match Flow::prepare_from_liberty_text(small_flow_config(strictness), cut) {
            Err(e) => {
                let _ = e.to_string(); // typed and displayable
            }
            Ok(flow) => {
                assert_eq!(
                    flow.report.parsed_cells - flow.report.kept_cells,
                    flow.report.quarantined_cells().len()
                );
            }
        }
    }
}

#[test]
fn best_effort_keeps_suspect_cells_that_quarantine_drops() {
    // A negative area is only a warning: suspect, not unusable.
    let text = pristine_text().replacen("area : ", "area : -", 1);
    let q = Flow::prepare_from_liberty_text(small_flow_config(Strictness::Quarantine), &text)
        .expect("quarantine recovers");
    let b = Flow::prepare_from_liberty_text(small_flow_config(Strictness::BestEffort), &text)
        .expect("best-effort recovers");
    assert!(b.report.kept_cells >= q.report.kept_cells);
    assert!(b
        .report
        .degradations
        .iter()
        .all(|d| !matches!(d, Degradation::CellQuarantined { .. })));
}

#[test]
fn validate_flags_generated_library_as_fully_healthy() {
    let lib = generate_nominal(&GenerateConfig::small_for_tests());
    let health = validate_library(&lib);
    assert!(health.all_healthy());
    assert_eq!(health.worst(), CellHealth::Healthy);
}

#[test]
fn malformed_netlists_produce_typed_synthesis_errors() {
    let lib = generate_nominal(&GenerateConfig::full());
    let cfg = SynthConfig::with_clock_period(12.0);
    let pristine = generate_mcu(&McuConfig::small_for_tests());

    // Dangling primary output.
    let mut nl = pristine.clone();
    nl.primary_outputs[0] = varitune::netlist::NetId(u32::MAX);
    let err = nl.validate().expect_err("dangling port must be caught");
    assert!(
        matches!(err, ValidateNetlistError::DanglingPort { .. }),
        "{err}"
    );
    assert!(
        synthesize(&nl, &lib, &LibraryConstraints::unconstrained(), &cfg).is_err(),
        "synthesis must surface the validation error"
    );

    // Combinational self-loop.
    let mut nl = pristine.clone();
    let gi = (0..nl.gate_count())
        .find(|&i| !nl.gate_kind(i).is_sequential() && !nl.gate_inputs(i).is_empty())
        .expect("mcu has combinational gates");
    nl.set_gate_input(gi, 0, nl.gate_outputs(gi)[0]);
    assert!(synthesize(&nl, &lib, &LibraryConstraints::unconstrained(), &cfg).is_err());

    // Arity break: a zero-input gate of the first gate's kind.
    let mut nl = pristine;
    let z = nl.add_net("arity_break");
    nl.add_gate(nl.gate_kind(0), &[], &[z]);
    assert!(synthesize(&nl, &lib, &LibraryConstraints::unconstrained(), &cfg).is_err());
}

#[test]
fn empty_netlist_ports_are_bounds_checked() {
    let mut nl = Netlist::new("t");
    let a = nl.add_input("a");
    let z = nl.add_net("z");
    nl.add_gate(GateKind::Inv, &[a], &[z]);
    nl.mark_output(z);
    nl.primary_inputs.push(varitune::netlist::NetId(1_000_000));
    let err = nl.validate().expect_err("out-of-range input net");
    assert!(matches!(
        err,
        ValidateNetlistError::DanglingPort { port: "input", .. }
    ));
}
