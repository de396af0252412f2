//! A mapped design: a generic netlist bound to concrete library cells.

use std::fmt;

use varitune_liberty::{Cell, CellId, Library, LibraryFingerprint};
use varitune_netlist::Netlist;

use crate::StaError;

/// Lumped wire-load model: every net contributes a base capacitance plus a
/// per-fanout increment (pF). This stands in for the pre-layout wire-load
/// tables a synthesis tool would use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireModel {
    /// Capacitance of any driven net (pF).
    pub base: f64,
    /// Additional capacitance per fanout sink (pF).
    pub per_fanout: f64,
}

impl Default for WireModel {
    fn default() -> Self {
        Self {
            base: 0.0006,
            per_fanout: 0.0005,
        }
    }
}

impl WireModel {
    /// Wire capacitance of a net with `fanout` sinks.
    pub fn wire_cap(&self, fanout: usize) -> f64 {
        if fanout == 0 {
            0.0
        } else {
            self.base + self.per_fanout * fanout as f64
        }
    }
}

/// A netlist with one library cell bound to every gate.
///
/// The binding is positional: gate input `k` connects to the cell's `k`-th
/// input pin (in library declaration order, data pins before the clock pin),
/// and gate output `j` to the cell's `j`-th output pin. Cells are stored as
/// typed [`CellId`]s — indices into `Library::cells` — so every analysis
/// loop resolves cells by direct indexing, not name lookup.
///
/// Ids are positional, so they mean the same cells in every library with
/// the same cell names and pin layout: nominal, Monte-Carlo perturbations,
/// the statistical mean/sigma pair. The design records the
/// [`LibraryFingerprint`] of the library it was mapped on, and every
/// analysis that takes a design and a library (timing graph, paths, hold,
/// power, SDF, reports, SSTA) compares it with the library's before it
/// reads a cell, so a design handed a library with another cell list is a
/// [`StaError::MismatchedInput`], not an analysis of the wrong cells.
#[derive(Debug, Clone, PartialEq)]
pub struct MappedDesign {
    /// The underlying generic netlist (buffering during optimization adds
    /// gates here and to `cells` in lockstep).
    pub netlist: Netlist,
    /// Library cell id per gate index.
    pub cells: Vec<CellId>,
    /// Wire-load model used for net capacitances.
    pub wire_model: WireModel,
    /// Fingerprint of the library the ids index.
    library: LibraryFingerprint,
}

/// A cell name that does not exist in the library, reported by
/// [`MappedDesign::from_names`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownCellName {
    /// Gate whose cell could not be resolved.
    pub gate: usize,
    /// The unresolvable name.
    pub name: String,
}

impl fmt::Display for UnknownCellName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "gate {} references unknown cell `{}`",
            self.gate, self.name
        )
    }
}

impl std::error::Error for UnknownCellName {}

impl MappedDesign {
    /// Creates a mapped design whose `cells` index `lib`.
    ///
    /// # Panics
    ///
    /// Panics if `cells` does not have one entry per gate.
    pub fn new(netlist: Netlist, cells: Vec<CellId>, lib: &Library, wire_model: WireModel) -> Self {
        assert_eq!(
            netlist.gate_count(),
            cells.len(),
            "one cell id per gate required"
        );
        Self {
            netlist,
            cells,
            wire_model,
            library: lib.interner().fingerprint(),
        }
    }

    /// Checks that the design's ids index `lib`: its fingerprint must equal
    /// the one the design was mapped on.
    ///
    /// # Errors
    ///
    /// [`StaError::MismatchedInput`] naming both fingerprints otherwise.
    pub fn check_library(&self, lib: &Library) -> Result<(), StaError> {
        let found = lib.interner().fingerprint();
        if found == self.library {
            return Ok(());
        }
        Err(StaError::MismatchedInput {
            reason: format!(
                "design was mapped on library {:016x} but `{}` has fingerprint {:016x}: \
                 its cell ids would index other cells",
                self.library.0, lib.name, found.0
            ),
        })
    }

    /// Creates a mapped design from cell *names*, interning each against
    /// `lib` — the boundary constructor for hand-written designs and tests.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownCellName`] for the first name `lib` does not contain.
    ///
    /// # Panics
    ///
    /// Panics if `names` does not have one entry per gate.
    pub fn from_names<S: AsRef<str>>(
        netlist: Netlist,
        names: &[S],
        lib: &Library,
        wire_model: WireModel,
    ) -> Result<Self, UnknownCellName> {
        let cells = names
            .iter()
            .enumerate()
            .map(|(gi, n)| {
                lib.cell_id(n.as_ref()).ok_or_else(|| UnknownCellName {
                    gate: gi,
                    name: n.as_ref().to_string(),
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::new(netlist, cells, lib, wire_model))
    }

    /// Resolves the library cell of gate `gi` (`None` when the id is out of
    /// range for `lib`).
    pub fn cell_of<'l>(&self, gi: usize, lib: &'l Library) -> Option<&'l Cell> {
        lib.cells.get(self.cells[gi].index())
    }

    /// Display label of gate `gi`'s cell: its library name, or `cell#<id>`
    /// when the id does not resolve in `lib`.
    pub fn cell_label(&self, gi: usize, lib: &Library) -> String {
        match self.cell_of(gi, lib) {
            Some(c) => c.name.clone(),
            None => format!("cell#{}", self.cells[gi].0),
        }
    }

    /// Total cell area of the design under `lib`.
    pub fn total_area(&self, lib: &Library) -> f64 {
        self.cells
            .iter()
            .map(|id| lib.cells.get(id.index()).map_or(0.0, |c| c.area))
            .sum()
    }

    /// Capacitive load on every net: sink input-pin capacitances plus the
    /// wire model. Nets with no sinks have zero load.
    ///
    /// Unknown cell names contribute no pin capacitance (the analysis layer
    /// reports them as errors before loads matter).
    pub fn net_loads(&self, lib: &Library) -> Vec<f64> {
        let nl = &self.netlist;
        let mut loads = vec![0.0f64; nl.net_count()];
        let mut fanouts = vec![0usize; nl.net_count()];
        for (gi, cell_id) in self.cells.iter().enumerate() {
            let cell = lib.cells.get(cell_id.index());
            for (k, &inp) in nl.gate_inputs(gi).iter().enumerate() {
                fanouts[inp.0 as usize] += 1;
                if let Some(c) = cell {
                    if let Some(pin) = c.input_pins().nth(k) {
                        loads[inp.0 as usize] += pin.capacitance;
                    }
                }
            }
        }
        for &po in &nl.primary_outputs {
            fanouts[po.0 as usize] += 1;
        }
        for (i, l) in loads.iter_mut().enumerate() {
            *l += self.wire_model.wire_cap(fanouts[i]);
        }
        loads
    }

    /// Histogram of cell usage: `(cell name, instance count)` sorted by
    /// descending count — the paper's Fig. 9 data. Counting runs over ids;
    /// names are materialized once per distinct cell at this report
    /// boundary.
    pub fn cell_usage(&self, lib: &Library) -> Vec<(String, usize)> {
        let mut counts = vec![0usize; lib.cells.len()];
        for id in &self.cells {
            if let Some(c) = counts.get_mut(id.index()) {
                *c += 1;
            }
        }
        let mut v: Vec<(String, usize)> = counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (lib.cells[i].name.clone(), c))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use varitune_libchar::{generate_nominal, GenerateConfig};
    use varitune_netlist::GateKind;

    fn demo() -> (MappedDesign, Library) {
        let lib = generate_nominal(&GenerateConfig::small_for_tests());
        let mut nl = Netlist::new("demo");
        let a = nl.add_input("a");
        let x = nl.add_net("x");
        let y = nl.add_net("y");
        nl.add_gate(GateKind::Inv, &[a], &[x]);
        nl.add_gate(GateKind::Inv, &[x], &[y]);
        nl.mark_output(y);
        let d =
            MappedDesign::from_names(nl, &["INV_1", "INV_4"], &lib, WireModel::default()).unwrap();
        (d, lib)
    }

    #[test]
    fn area_sums_cell_areas() {
        let (d, lib) = demo();
        let expect = lib.cell("INV_1").unwrap().area + lib.cell("INV_4").unwrap().area;
        assert!((d.total_area(&lib) - expect).abs() < 1e-12);
    }

    #[test]
    fn loads_include_pin_and_wire() {
        let (d, lib) = demo();
        let loads = d.net_loads(&lib);
        // Net x drives INV_4's input: its pin cap plus wire cap for 1 sink.
        let pin = lib
            .cell("INV_4")
            .unwrap()
            .input_pins()
            .next()
            .unwrap()
            .capacitance;
        let expect = pin + d.wire_model.wire_cap(1);
        assert!((loads[1] - expect).abs() < 1e-12, "{}", loads[1]);
        // Net y drives only the primary output: wire cap only.
        assert!((loads[2] - d.wire_model.wire_cap(1)).abs() < 1e-12);
    }

    #[test]
    fn zero_fanout_net_has_zero_load() {
        let lib = generate_nominal(&GenerateConfig::small_for_tests());
        let mut nl = Netlist::new("z");
        let a = nl.add_input("a");
        let x = nl.add_net("x");
        nl.add_gate(GateKind::Inv, &[a], &[x]);
        let d = MappedDesign::from_names(nl, &["INV_1"], &lib, WireModel::default()).unwrap();
        assert_eq!(d.net_loads(&lib)[1], 0.0);
    }

    #[test]
    fn cell_usage_sorted_by_count() {
        let lib = generate_nominal(&GenerateConfig::small_for_tests());
        let mut nl = Netlist::new("u");
        let a = nl.add_input("a");
        let mut prev = a;
        for i in 0..5 {
            let n = nl.add_net(format!("n{i}"));
            nl.add_gate(GateKind::Inv, &[prev], &[n]);
            prev = n;
        }
        let names = ["INV_1", "INV_1", "INV_1", "INV_2", "INV_2"];
        let d = MappedDesign::from_names(nl, &names, &lib, WireModel::default()).unwrap();
        let usage = d.cell_usage(&lib);
        assert_eq!(usage[0], ("INV_1".to_string(), 3));
        assert_eq!(usage[1], ("INV_2".to_string(), 2));
    }

    #[test]
    #[should_panic(expected = "one cell id per gate")]
    fn mismatched_ids_panic() {
        let mut nl = Netlist::new("bad");
        let a = nl.add_input("a");
        let x = nl.add_net("x");
        nl.add_gate(GateKind::Inv, &[a], &[x]);
        let lib = generate_nominal(&GenerateConfig::small_for_tests());
        let _ = MappedDesign::new(nl, vec![], &lib, WireModel::default());
    }

    #[test]
    fn from_names_reports_unknown_cells() {
        let lib = generate_nominal(&GenerateConfig::small_for_tests());
        let mut nl = Netlist::new("bad");
        let a = nl.add_input("a");
        let x = nl.add_net("x");
        nl.add_gate(GateKind::Inv, &[a], &[x]);
        let err =
            MappedDesign::from_names(nl, &["NOPE_9"], &lib, WireModel::default()).unwrap_err();
        assert_eq!(
            err,
            UnknownCellName {
                gate: 0,
                name: "NOPE_9".into()
            }
        );
    }

    #[test]
    fn labels_fall_back_for_unresolvable_ids() {
        let (mut d, lib) = demo();
        assert_eq!(d.cell_label(0, &lib), "INV_1");
        d.cells[0] = CellId(u32::MAX);
        assert_eq!(d.cell_label(0, &lib), format!("cell#{}", u32::MAX));
        assert!(d.cell_of(0, &lib).is_none());
    }

    #[test]
    fn check_library_accepts_equal_structure_and_rejects_another_cell_list() {
        let (d, lib) = demo();
        assert_eq!(d.check_library(&lib), Ok(()));
        // Other values under the same names and pins: the ids still fit.
        let mut scaled = lib.clone();
        scaled.cells[0].area *= 2.0;
        assert_eq!(d.check_library(&scaled), Ok(()));
        // Without its first cell every id would shift by one.
        let mut filtered = lib.clone();
        filtered.cells.remove(0);
        let err = d.check_library(&filtered).unwrap_err();
        assert!(
            matches!(&err, StaError::MismatchedInput { reason } if reason.contains("fingerprint")),
            "{err}"
        );
    }

    #[test]
    fn wire_model_shape() {
        let w = WireModel::default();
        assert_eq!(w.wire_cap(0), 0.0);
        assert!(w.wire_cap(4) > w.wire_cap(1));
    }
}
