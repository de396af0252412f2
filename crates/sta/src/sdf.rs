//! SDF (Standard Delay Format) export.
//!
//! Real flows back-annotate gate-level simulation with an SDF file holding
//! each instance's input-to-output path delays at its actual operating
//! point. This writer emits SDF 3.0 `IOPATH` entries using the same LUT
//! evaluations the STA performed: for every gate, every (input, output)
//! arc's rise and fall delay at (that input's propagated slew, the output's
//! load). Together with the Verilog writer this completes the classic
//! synthesis hand-off trio: netlist + library + delays.

use std::fmt::Write as _;

use varitune_liberty::Library;

use crate::graph::{GateArcs, StaError, TimingReport};
use crate::mapped::MappedDesign;

/// Renders the design's delays as SDF 3.0 text.
///
/// Instance and port names match the Verilog writer's sanitization (SDF and
/// the netlist must agree for annotation to apply).
///
/// # Errors
///
/// Returns [`StaError`] for unmapped cells, missing arcs, or failing table
/// evaluations, and [`StaError::MismatchedInput`] when `design` was mapped
/// on a library with another cell list or `report` was built for a
/// different (smaller) design than the one being annotated.
pub fn write_sdf(
    design: &MappedDesign,
    lib: &Library,
    report: &TimingReport,
) -> Result<String, StaError> {
    design.check_library(lib)?;
    let nl = &design.netlist;
    if report.nets.len() < nl.net_count() {
        return Err(StaError::MismatchedInput {
            reason: format!(
                "timing report covers {} nets but the design has {}",
                report.nets.len(),
                nl.net_count()
            ),
        });
    }
    let mut out = String::new();
    let _ = writeln!(out, "(DELAYFILE");
    let _ = writeln!(out, "  (SDFVERSION \"3.0\")");
    let _ = writeln!(out, "  (DESIGN \"{}\")", sanitize(&nl.name));
    let _ = writeln!(out, "  (TIMESCALE 1ns)");

    for gi in 0..nl.gate_count() {
        let cell = design
            .cell_of(gi, lib)
            .ok_or_else(|| StaError::UnknownCell {
                gate: gi,
                name: design.cell_label(gi, lib),
            })?;
        let arcs = GateArcs::new(gi, cell);
        let mut iopaths = Vec::new();
        for (j, &outnet) in nl.gate_outputs(gi).iter().enumerate() {
            let pin = arcs.output(j)?;
            let load = report.nets[outnet.0 as usize].load;
            if nl.gate_kind(gi).is_sequential() {
                // Clock-to-output arc; SDF conventionally names the edge.
                let arc = arcs.launch(pin)?;
                let slew = report.nets[outnet.0 as usize].crit_input_slew;
                let rise = table_delay(arc.cell_rise.as_ref(), slew, load)?;
                let fall = table_delay(arc.cell_fall.as_ref(), slew, load)?;
                iopaths.push(format!(
                    "      (IOPATH (posedge {}) {} {} {})",
                    arc.related_pin,
                    pin.name,
                    triple(rise.unwrap_or(0.0)),
                    triple(fall.unwrap_or(rise.unwrap_or(0.0)))
                ));
                continue;
            }
            for (k, &inp) in nl.gate_inputs(gi).iter().enumerate() {
                let arc = arcs.input_arc(pin, k)?;
                let slew = report.nets[inp.0 as usize].slew;
                let rise = table_delay(arc.cell_rise.as_ref(), slew, load)?;
                let fall = table_delay(arc.cell_fall.as_ref(), slew, load)?;
                iopaths.push(format!(
                    "      (IOPATH {} {} {} {})",
                    arc.related_pin,
                    pin.name,
                    triple(rise.unwrap_or(0.0)),
                    triple(fall.unwrap_or(rise.unwrap_or(0.0)))
                ));
            }
        }
        let _ = writeln!(out, "  (CELL");
        let _ = writeln!(out, "    (CELLTYPE \"{}\")", cell.name);
        let _ = writeln!(out, "    (INSTANCE {})", sanitize(&nl.gate_name(gi)));
        let _ = writeln!(out, "    (DELAY (ABSOLUTE");
        for p in iopaths {
            let _ = writeln!(out, "{p}");
        }
        let _ = writeln!(out, "    ))");
        let _ = writeln!(out, "  )");
    }
    let _ = writeln!(out, ")");
    Ok(out)
}

fn table_delay(
    table: Option<&varitune_liberty::Lut>,
    slew: f64,
    load: f64,
) -> Result<Option<f64>, StaError> {
    match table {
        Some(t) => Ok(Some(t.interpolate(slew, load)?)),
        None => Ok(None),
    }
}

/// SDF min:typ:max triple; this flow reports one corner, so all three are
/// the typical value.
fn triple(v: f64) -> String {
    format!("({v:.4}:{v:.4}:{v:.4})")
}

/// Same identifier sanitization as the Verilog writer.
fn sanitize(name: &str) -> String {
    let mut s = String::with_capacity(name.len() + 2);
    for c in name.chars() {
        match c {
            '[' => s.push_str("_i"),
            ']' => {}
            c if c.is_ascii_alphanumeric() || c == '_' => s.push(c),
            _ => s.push_str("_x"),
        }
    }
    if s.starts_with(|c: char| c.is_ascii_digit()) {
        s.insert(0, 'n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{analyze, StaConfig};
    use crate::mapped::WireModel;
    use varitune_libchar::{generate_nominal, GenerateConfig};
    use varitune_netlist::{GateKind, Netlist};

    fn demo() -> (MappedDesign, Library, TimingReport) {
        let lib = generate_nominal(&GenerateConfig::small_for_tests());
        let mut nl = Netlist::new("demo");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let x = nl.add_net("x");
        let q = nl.add_net("q");
        nl.add_gate(GateKind::Nand, &[a, b], &[x]);
        nl.add_gate(GateKind::Dff, &[x], &[q]);
        nl.mark_output(q);
        let d =
            MappedDesign::from_names(nl, &["ND2_2", "DF_1"], &lib, WireModel::default()).unwrap();
        let r = analyze(&d, &lib, &StaConfig::with_clock_period(5.0)).unwrap();
        (d, lib, r)
    }

    #[test]
    fn sdf_has_header_and_cells() {
        let (d, lib, r) = demo();
        let sdf = write_sdf(&d, &lib, &r).unwrap();
        for needle in [
            "(DELAYFILE",
            "(SDFVERSION \"3.0\")",
            "(DESIGN \"demo\")",
            "(TIMESCALE 1ns)",
            "(CELLTYPE \"ND2_2\")",
            "(CELLTYPE \"DF_1\")",
            "(IOPATH A Z",
            "(IOPATH B Z",
            "(IOPATH (posedge CK) Q",
        ] {
            assert!(sdf.contains(needle), "missing `{needle}`:\n{sdf}");
        }
        // Balanced parens overall.
        let open = sdf.matches('(').count();
        let close = sdf.matches(')').count();
        assert_eq!(open, close);
    }

    #[test]
    fn iopath_delays_match_sta_operating_points() {
        let (d, lib, r) = demo();
        let sdf = write_sdf(&d, &lib, &r).unwrap();
        // Recompute the A->Z rise delay exactly as the writer should.
        let cell = lib.cell("ND2_2").unwrap();
        let arc = &cell.pin("Z").unwrap().timing[0];
        let load = r.nets[2].load;
        let slew = r.nets[0].slew;
        let rise = arc
            .cell_rise
            .as_ref()
            .unwrap()
            .interpolate(slew, load)
            .unwrap();
        assert!(
            sdf.contains(&format!("{rise:.4}")),
            "expected {rise:.4} in:\n{sdf}"
        );
    }

    #[test]
    fn every_gate_appears_once() {
        let (d, lib, r) = demo();
        let sdf = write_sdf(&d, &lib, &r).unwrap();
        assert_eq!(sdf.matches("(INSTANCE ").count(), d.netlist.gate_count());
    }
}
