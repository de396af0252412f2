//! Cell archetypes and the 304-cell inventory of Appendix A.
//!
//! An *archetype* describes one logic function family (e.g. two-input NAND):
//! its pins, Liberty function strings, logical-effort parameters, and the
//! list of drive strengths it is offered in. The inventory mirrors the
//! paper's Appendix A census: 19 inverters, 36 AND/OR, 46 NAND, 43 NOR,
//! 29 XNOR/XOR, 34 adders, 27 multiplexers, 51 flip-flops, 12 latches and
//! 7 other cells — 304 in total.

/// One output of an archetype: the pin name and its logic function.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchOutput {
    /// Output pin name (`Z`, `S`, `CO`, `Q`).
    pub pin: String,
    /// Liberty boolean function of the output.
    pub function: String,
    /// Relative complexity factor of this output's logic cone; scales the
    /// parasitic delay (an adder's sum output is slower than its carry).
    pub complexity: f64,
}

/// Sequential behaviour of an archetype.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SequentialKind {
    /// Purely combinational.
    None,
    /// Rising-edge D flip-flop: arcs run from the clock pin.
    FlipFlop,
    /// Transparent latch: arcs run from the enable pin.
    Latch,
}

/// A cell archetype (logic family at all drive strengths).
#[derive(Debug, Clone, PartialEq)]
pub struct Archetype {
    /// Name prefix, e.g. `ND2`; full cell names are `ND2_<drive>`.
    pub prefix: String,
    /// Data input pin names.
    pub inputs: Vec<String>,
    /// Clock/enable pin name for sequential archetypes.
    pub clock: Option<String>,
    /// Outputs.
    pub outputs: Vec<ArchOutput>,
    /// Logical effort `g` of the family (input-cap multiplier and effort
    /// delay multiplier; 1.0 for an inverter).
    pub logical_effort: f64,
    /// Parasitic delay `p` in units of the technology time constant.
    pub parasitic: f64,
    /// Layout area of the unit-drive variant (µm²); grows sub-linearly with
    /// drive.
    pub unit_area: f64,
    /// Sequential behaviour.
    pub sequential: SequentialKind,
    /// Drive strengths the family is offered in.
    pub drives: Vec<f64>,
}

impl Archetype {
    /// Full cell name for one drive strength, using `P` as the decimal
    /// separator per the paper's naming convention.
    pub fn cell_name(&self, drive: f64) -> String {
        format!("{}_{}", self.prefix, format_drive(drive))
    }

    /// Number of cells this archetype contributes to the library.
    pub fn variant_count(&self) -> usize {
        self.drives.len()
    }

    /// Area of the variant at `drive`: a fixed overhead plus a linear
    /// transistor-width term, matching how real libraries scale.
    pub fn area(&self, drive: f64) -> f64 {
        self.unit_area * (0.45 + 0.55 * drive)
    }
}

/// Formats a drive strength with `P` as decimal separator (`2.5` → `"2P5"`).
pub fn format_drive(drive: f64) -> String {
    if (drive.fract()).abs() < 1e-9 {
        format!("{}", drive as i64)
    } else {
        format!("{:.1}", drive).replace('.', "P")
    }
}

fn out(pin: &str, function: &str, complexity: f64) -> ArchOutput {
    ArchOutput {
        pin: pin.to_string(),
        function: function.to_string(),
        complexity,
    }
}

fn combinational(
    prefix: &str,
    inputs: &[&str],
    function: &str,
    g: f64,
    p: f64,
    unit_area: f64,
    drives: &[f64],
) -> Archetype {
    Archetype {
        prefix: prefix.to_string(),
        inputs: inputs.iter().map(|s| s.to_string()).collect(),
        clock: None,
        outputs: vec![out("Z", function, 1.0)],
        logical_effort: g,
        parasitic: p,
        unit_area,
        sequential: SequentialKind::None,
        drives: drives.to_vec(),
    }
}

/// The complete archetype inventory. The sum of variant counts is exactly
/// 304 (checked by a unit test and relied upon by the experiments).
#[allow(clippy::vec_init_then_push)] // entries are built with interleaved locals
pub fn standard_inventory() -> Vec<Archetype> {
    let d12: &[f64] = &[0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 12.0, 16.0];
    let d10: &[f64] = &[1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 12.0];
    let d9: &[f64] = &[1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 12.0];
    let d6: &[f64] = &[1.0, 2.0, 3.0, 4.0, 6.0, 8.0];

    let mut inv = Vec::new();

    // 19 inverters.
    inv.push(combinational(
        "INV",
        &["A"],
        "!A",
        1.0,
        1.0,
        0.9,
        &[
            0.5, 0.7, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0, 7.0, 8.0, 10.0, 12.0, 16.0,
            20.0, 24.0, 32.0,
        ],
    ));

    // 36 AND/OR (6 functions x 6 drives).
    inv.push(combinational("AN2", &["A", "B"], "A&B", 1.45, 2.3, 1.4, d6));
    inv.push(combinational(
        "AN3",
        &["A", "B", "C"],
        "A&B&C",
        1.65,
        2.8,
        1.7,
        d6,
    ));
    inv.push(combinational(
        "AN4",
        &["A", "B", "C", "D"],
        "A&B&C&D",
        1.85,
        3.3,
        2.0,
        d6,
    ));
    inv.push(combinational("OR2", &["A", "B"], "A|B", 1.7, 2.5, 1.4, d6));
    inv.push(combinational(
        "OR3",
        &["A", "B", "C"],
        "A|B|C",
        2.1,
        3.1,
        1.7,
        d6,
    ));
    inv.push(combinational(
        "OR4",
        &["A", "B", "C", "D"],
        "A|B|C|D",
        2.5,
        3.7,
        2.0,
        d6,
    ));

    // 46 NAND: ND2 x12, ND3 x12, ND4 x12, ND2B x10.
    inv.push(combinational(
        "ND2",
        &["A", "B"],
        "!(A&B)",
        4.0 / 3.0,
        2.0,
        1.2,
        d12,
    ));
    inv.push(combinational(
        "ND3",
        &["A", "B", "C"],
        "!(A&B&C)",
        5.0 / 3.0,
        3.0,
        1.5,
        d12,
    ));
    inv.push(combinational(
        "ND4",
        &["A", "B", "C", "D"],
        "!(A&B&C&D)",
        2.0,
        4.0,
        1.8,
        d12,
    ));
    inv.push(combinational(
        "ND2B",
        &["A", "B"],
        "!(!A&B)",
        1.5,
        2.4,
        1.4,
        d10,
    ));

    // 43 NOR: NR2 x12, NR3 x12, NR4 x9, NR2B x10.
    inv.push(combinational(
        "NR2",
        &["A", "B"],
        "!(A|B)",
        5.0 / 3.0,
        2.2,
        1.2,
        d12,
    ));
    inv.push(combinational(
        "NR3",
        &["A", "B", "C"],
        "!(A|B|C)",
        7.0 / 3.0,
        3.4,
        1.5,
        d12,
    ));
    inv.push(combinational(
        "NR4",
        &["A", "B", "C", "D"],
        "!(A|B|C|D)",
        3.0,
        4.6,
        1.8,
        d9,
    ));
    inv.push(combinational(
        "NR2B",
        &["A", "B"],
        "!(!A|B)",
        1.9,
        2.6,
        1.4,
        d10,
    ));

    // 29 XNOR/XOR: XN2 x10, XN3 x9, EO2 x10.
    inv.push(combinational(
        "XN2",
        &["A", "B"],
        "!(A^B)",
        2.2,
        4.0,
        1.9,
        d10,
    ));
    inv.push(combinational(
        "XN3",
        &["A", "B", "C"],
        "!(A^B^C)",
        2.8,
        5.5,
        2.5,
        d9,
    ));
    inv.push(combinational("EO2", &["A", "B"], "A^B", 2.2, 4.0, 1.9, d10));

    // 34 adders: AD1 (half) x10, AD2 (full) x12, AD3 (full, fast carry) x12.
    inv.push(Archetype {
        prefix: "AD1".to_string(),
        inputs: vec!["A".to_string(), "B".to_string()],
        clock: None,
        outputs: vec![out("S", "A^B", 1.15), out("CO", "A&B", 0.9)],
        logical_effort: 2.3,
        parasitic: 4.5,
        unit_area: 2.4,
        sequential: SequentialKind::None,
        drives: d10.to_vec(),
    });
    inv.push(Archetype {
        prefix: "AD2".to_string(),
        inputs: vec!["A".to_string(), "B".to_string(), "C".to_string()],
        clock: None,
        outputs: vec![out("S", "A^B^C", 1.25), out("CO", "(A&B)|(C&(A^B))", 1.0)],
        logical_effort: 2.6,
        parasitic: 5.5,
        unit_area: 3.2,
        sequential: SequentialKind::None,
        drives: d12.to_vec(),
    });
    inv.push(Archetype {
        prefix: "AD3".to_string(),
        inputs: vec!["A".to_string(), "B".to_string(), "C".to_string()],
        clock: None,
        outputs: vec![out("S", "A^B^C", 1.2), out("CO", "(A&B)|(C&(A^B))", 0.75)],
        logical_effort: 2.8,
        parasitic: 5.0,
        unit_area: 3.8,
        sequential: SequentialKind::None,
        drives: d12.to_vec(),
    });

    // 27 muxes: MU2 x14, MU4 x13.
    let d14: Vec<f64> = vec![
        0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0, 7.0, 8.0, 12.0, 16.0,
    ];
    let d13: Vec<f64> = d14[1..].to_vec();
    inv.push(Archetype {
        prefix: "MU2".to_string(),
        inputs: vec!["A".to_string(), "B".to_string(), "S0".to_string()],
        clock: None,
        outputs: vec![out("Z", "(A&!S0)|(B&S0)", 1.0)],
        logical_effort: 2.0,
        parasitic: 3.2,
        unit_area: 2.2,
        sequential: SequentialKind::None,
        drives: d14,
    });
    inv.push(Archetype {
        prefix: "MU4".to_string(),
        inputs: vec![
            "A".to_string(),
            "B".to_string(),
            "C".to_string(),
            "D".to_string(),
            "S0".to_string(),
            "S1".to_string(),
        ],
        clock: None,
        outputs: vec![out("Z", "(A&!S0&!S1)|(B&S0&!S1)|(C&!S0&S1)|(D&S0&S1)", 1.2)],
        logical_effort: 2.6,
        parasitic: 4.8,
        unit_area: 3.6,
        sequential: SequentialKind::None,
        drives: d13,
    });

    // 51 flip-flops: DF x13, DFR x13, DFS x13, DFRS x12.
    let ff_d13: Vec<f64> = vec![
        0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 16.0,
    ];
    let ff_d12: Vec<f64> = ff_d13[1..].to_vec();
    let ff = |prefix: &str, extra: &[&str], p: f64, area: f64, drives: &[f64]| Archetype {
        prefix: prefix.to_string(),
        inputs: std::iter::once("D")
            .chain(extra.iter().copied())
            .map(|s| s.to_string())
            .collect(),
        clock: Some("CK".to_string()),
        outputs: vec![out("Q", "D", 1.0)],
        logical_effort: 1.5,
        parasitic: p,
        unit_area: area,
        sequential: SequentialKind::FlipFlop,
        drives: drives.to_vec(),
    };
    inv.push(ff("DF", &[], 6.0, 4.0, &ff_d13));
    inv.push(ff("DFR", &["RN"], 6.6, 4.6, &ff_d13));
    inv.push(ff("DFS", &["SN"], 6.6, 4.6, &ff_d13));
    inv.push(ff("DFRS", &["RN", "SN"], 7.2, 5.2, &ff_d12));

    // 12 latches: LAH x6, LAL x6.
    let latch = |prefix: &str| Archetype {
        prefix: prefix.to_string(),
        inputs: vec!["D".to_string()],
        clock: Some("G".to_string()),
        outputs: vec![out("Q", "D", 1.0)],
        logical_effort: 1.4,
        parasitic: 4.2,
        unit_area: 2.8,
        sequential: SequentialKind::Latch,
        drives: d6.to_vec(),
    };
    inv.push(latch("LAH"));
    inv.push(latch("LAL"));

    // 7 others: DEL1 x4 delay buffers, GCKB x3 clock-gating buffers.
    inv.push(combinational(
        "DEL1",
        &["A"],
        "A",
        1.2,
        9.0,
        2.0,
        &[1.0, 2.0, 4.0, 8.0],
    ));
    inv.push(combinational(
        "GCKB",
        &["A"],
        "A",
        1.3,
        2.6,
        1.6,
        &[2.0, 4.0, 8.0],
    ));

    inv
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn inventory_totals_304_cells() {
        let total: usize = standard_inventory()
            .iter()
            .map(Archetype::variant_count)
            .sum();
        assert_eq!(total, 304);
    }

    #[test]
    fn appendix_a_census_matches() {
        // Group by the paper's Appendix A categories via the cell-name
        // prefix, mirroring varitune_liberty::CellKind.
        let mut census: BTreeMap<&str, usize> = BTreeMap::new();
        for a in standard_inventory() {
            let key = match a.prefix.as_str() {
                "INV" => "inverter",
                "AN2" | "AN3" | "AN4" | "OR2" | "OR3" | "OR4" => "or",
                "ND2" | "ND3" | "ND4" | "ND2B" => "nand",
                "NR2" | "NR3" | "NR4" | "NR2B" => "nor",
                "XN2" | "XN3" | "EO2" => "xnor",
                "AD1" | "AD2" | "AD3" => "adder",
                "MU2" | "MU4" => "mux",
                "DF" | "DFR" | "DFS" | "DFRS" => "flipflop",
                "LAH" | "LAL" => "latch",
                _ => "other",
            };
            *census.entry(key).or_default() += a.variant_count();
        }
        assert_eq!(census["inverter"], 19);
        assert_eq!(census["or"], 36);
        assert_eq!(census["nand"], 46);
        assert_eq!(census["nor"], 43);
        assert_eq!(census["xnor"], 29);
        assert_eq!(census["adder"], 34);
        assert_eq!(census["mux"], 27);
        assert_eq!(census["flipflop"], 51);
        assert_eq!(census["latch"], 12);
        assert_eq!(census["other"], 7);
    }

    #[test]
    fn cell_names_use_p_decimal_separator() {
        let a = &standard_inventory()[0];
        assert_eq!(a.cell_name(0.5), "INV_0P5");
        assert_eq!(a.cell_name(4.0), "INV_4");
        assert_eq!(a.cell_name(2.5), "INV_2P5");
    }

    #[test]
    fn all_names_are_unique() {
        let mut names = std::collections::BTreeSet::new();
        for a in standard_inventory() {
            for &d in &a.drives {
                assert!(names.insert(a.cell_name(d)), "duplicate {}", a.cell_name(d));
            }
        }
        assert_eq!(names.len(), 304);
    }

    #[test]
    fn area_grows_with_drive_but_sublinearly() {
        let a = &standard_inventory()[0];
        let a1 = a.area(1.0);
        let a4 = a.area(4.0);
        assert!(a4 > a1);
        assert!(a4 < 4.0 * a1, "area should scale sub-linearly");
    }

    #[test]
    fn sequential_archetypes_have_clock_pins() {
        for a in standard_inventory() {
            match a.sequential {
                SequentialKind::None => assert!(a.clock.is_none(), "{}", a.prefix),
                _ => assert!(a.clock.is_some(), "{}", a.prefix),
            }
        }
    }

    #[test]
    fn drive_lists_are_positive_and_sorted() {
        for a in standard_inventory() {
            assert!(a.drives.iter().all(|&d| d > 0.0), "{}", a.prefix);
            assert!(
                a.drives.windows(2).all(|w| w[0] < w[1]),
                "{} drives not sorted",
                a.prefix
            );
        }
    }

    #[test]
    fn format_drive_cases() {
        assert_eq!(format_drive(1.0), "1");
        assert_eq!(format_drive(0.5), "0P5");
        assert_eq!(format_drive(12.0), "12");
        assert_eq!(format_drive(1.5), "1P5");
    }
}
