//! Structural (gate-level) Verilog export of a mapped design.
//!
//! Real synthesis flows hand their result to place-and-route as gate-level
//! Verilog referencing library cells by name. This writer produces that
//! netlist: one module with the design's primary inputs/outputs as ports
//! and one instance per mapped gate with named port connections.
//!
//! Net and instance names are sanitized into Verilog identifiers (the IR
//! uses `[]` freely, which Verilog reserves for buses); the mapping is
//! deterministic and collision-free because every IR name is unique and the
//! sanitizer is injective on the characters it replaces.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use varitune_liberty::Library;
use varitune_netlist::NetId;

use crate::map::MapError;
use varitune_sta::MappedDesign;

/// Renders `design` as structural Verilog against `lib`.
///
/// Sequential cells get their clock pin tied to a module-level `clk` port
/// (the IR models an ideal clock).
///
/// # Errors
///
/// Returns [`MapError::MissingFamily`] if a gate references a cell missing
/// from `lib` (the design and library must match).
pub fn write_verilog(design: &MappedDesign, lib: &Library) -> Result<String, MapError> {
    let nl = &design.netlist;
    let mut out = String::new();
    let has_seq = (0..nl.gate_count()).any(|gi| nl.gate_kind(gi).is_sequential());

    let net_name = |id: NetId| sanitize(nl.net_name(id));

    // Header and ports.
    let mut ports: Vec<String> = Vec::new();
    if has_seq {
        ports.push("clk".to_string());
    }
    ports.extend(nl.primary_inputs.iter().map(|&i| net_name(i)));
    ports.extend(
        nl.primary_outputs
            .iter()
            .map(|&o| format!("{}_po", net_name(o))),
    );
    let _ = writeln!(out, "module {} (", sanitize(&nl.name));
    let _ = writeln!(out, "  {}", ports.join(",\n  "));
    let _ = writeln!(out, ");");
    if has_seq {
        let _ = writeln!(out, "  input clk;");
    }
    for &i in &nl.primary_inputs {
        let _ = writeln!(out, "  input {};", net_name(i));
    }
    for &o in &nl.primary_outputs {
        let _ = writeln!(out, "  output {}_po;", net_name(o));
    }

    // Wires: every net that is not a primary input.
    let pi: std::collections::BTreeSet<NetId> = nl.primary_inputs.iter().copied().collect();
    for idx in 0..nl.net_count() {
        let id = NetId(idx as u32);
        if !pi.contains(&id) {
            let _ = writeln!(out, "  wire {};", net_name(id));
        }
    }
    for &o in &nl.primary_outputs {
        let _ = writeln!(out, "  assign {}_po = {};", net_name(o), net_name(o));
    }

    // Instances.
    for gi in 0..nl.gate_count() {
        let cell = design
            .cell_of(gi, lib)
            .ok_or_else(|| MapError::MissingFamily {
                family: design.cell_label(gi, lib),
                kind: nl.gate_kind(gi).to_string(),
            })?;
        let mut conns: BTreeMap<String, String> = BTreeMap::new();
        for (k, pin) in cell.input_pins().enumerate() {
            if pin.is_clock {
                conns.insert(pin.name.clone(), "clk".to_string());
            } else if let Some(&net) = nl.gate_inputs(gi).get(k) {
                conns.insert(pin.name.clone(), net_name(net));
            }
        }
        for (j, pin) in cell.output_pins().enumerate() {
            if let Some(&net) = nl.gate_outputs(gi).get(j) {
                conns.insert(pin.name.clone(), net_name(net));
            }
        }
        let conn_str: Vec<String> = conns.iter().map(|(p, n)| format!(".{p}({n})")).collect();
        let _ = writeln!(
            out,
            "  {} {} ({});",
            cell.name,
            sanitize(&nl.gate_name(gi)),
            conn_str.join(", ")
        );
    }
    let _ = writeln!(out, "endmodule");
    Ok(out)
}

/// Maps an IR name onto a legal Verilog simple identifier, injectively.
fn sanitize(name: &str) -> String {
    let mut s = String::with_capacity(name.len() + 2);
    for c in name.chars() {
        match c {
            '[' => s.push_str("_i"),
            ']' => {} // closing bracket is implied by the opener
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
    use crate::constraint::LibraryConstraints;
    use crate::optimize::{synthesize, SynthConfig};
    use varitune_libchar::{generate_nominal, GenerateConfig};
    use varitune_netlist::{generate_mcu, GateKind, McuConfig, Netlist};
    use varitune_sta::WireModel;

    #[test]
    fn sanitize_is_verilog_safe() {
        assert_eq!(sanitize("acc_q[3]"), "acc_q_i3");
        assert_eq!(sanitize("3net"), "n3net");
        assert_eq!(sanitize("a.b"), "a_xb");
        assert_eq!(sanitize("plain_name"), "plain_name");
    }

    #[test]
    fn small_design_exports_complete_verilog() {
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
            MappedDesign::from_names(nl, &["ND2_1", "DF_1"], &lib, WireModel::default()).unwrap();
        let v = write_verilog(&d, &lib).unwrap();
        for needle in [
            "module demo (",
            "input clk;",
            "input a;",
            "output q_po;",
            "assign q_po = q;",
            "ND2_1 g0_nand (.A(a), .B(b), .Z(x));",
            "DF_1 g1_dff (.CK(clk), .D(x), .Q(q));",
            "endmodule",
        ] {
            assert!(v.contains(needle), "missing `{needle}` in:\n{v}");
        }
    }

    #[test]
    fn synthesized_mcu_exports_one_instance_per_gate() {
        let lib = generate_nominal(&GenerateConfig::full());
        let nl = generate_mcu(&McuConfig::small_for_tests());
        let r = synthesize(
            &nl,
            &lib,
            &LibraryConstraints::unconstrained(),
            &SynthConfig::with_clock_period(10.0),
        )
        .unwrap();
        let v = write_verilog(&r.design, &lib).unwrap();
        let instances = v
            .lines()
            .filter(|l| l.trim_start().starts_with(|c: char| c.is_ascii_uppercase()))
            .count();
        assert_eq!(instances, r.design.netlist.gate_count());
        assert!(v.ends_with("endmodule\n"));
    }

    #[test]
    fn unknown_cell_is_an_error() {
        let lib = generate_nominal(&GenerateConfig::small_for_tests());
        let mut nl = Netlist::new("bad");
        let a = nl.add_input("a");
        let x = nl.add_net("x");
        nl.add_gate(GateKind::Inv, &[a], &[x]);
        let d = MappedDesign::new(
            nl,
            vec![varitune_liberty::CellId(u32::MAX)],
            WireModel::default(),
        );
        assert!(write_verilog(&d, &lib).is_err());
    }
}
