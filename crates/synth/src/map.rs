//! Technology mapping: generic gates → library cell families and variants.
//!
//! The mapper consumes the library's [`Interner`](varitune_liberty::Interner):
//! families are resolved to
//! [`FamilyId`]s once, and every per-cell quantity the sizing loops need
//! (drive, effective max load / max slew under the tuning windows, position
//! on the family's drive ladder) is precomputed into dense arrays indexed
//! by [`CellId`]. Cell *names* only appear at the boundaries — building the
//! [`TargetLibrary`] and reporting. A don't-use cell is on no drive ladder,
//! so nothing picks it, and the design still indexes the whole library.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use varitune_liberty::{CellId, FamilyId, Library};
use varitune_netlist::{GateKind, Netlist};
use varitune_sta::{MappedDesign, WireModel};

use crate::constraint::LibraryConstraints;

/// One drive-strength variant of a cell family.
#[derive(Debug, Clone, PartialEq)]
pub struct Variant {
    /// Cell id in the underlying library.
    pub id: CellId,
    /// Cell name (materialized once at construction for reports).
    pub name: String,
    /// Drive strength.
    pub drive: f64,
    /// Area (µm²).
    pub area: f64,
    /// Library `max_capacitance` (min over output pins), before window
    /// restriction.
    pub lib_max_load: f64,
}

/// Error from mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// The library offers no cell family implementing a needed function.
    MissingFamily {
        /// The family prefix that was looked up.
        family: String,
        /// The gate kind that needed it.
        kind: String,
    },
    /// The design was mapped on a library with another cell list, so its
    /// cell ids would name other cells ([`MappedDesign::check_library`]).
    MismatchedLibrary {
        /// The fingerprint check's account, naming both fingerprints.
        reason: String,
    },
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::MissingFamily { family, kind } => {
                write!(f, "library has no `{family}` family for {kind} gates")
            }
            MapError::MismatchedLibrary { reason } => {
                write!(f, "design does not match the library: {reason}")
            }
        }
    }
}

impl Error for MapError {}

/// The mapper's view of a library: drive-variant families resolved to
/// [`FamilyId`]s, with the tuning constraints folded into the ladders and
/// dense per-cell limits at construction time (they are not kept).
#[derive(Debug, Clone)]
pub struct TargetLibrary<'a> {
    /// The underlying Liberty library.
    pub lib: &'a Library,
    /// Sizable variants per family, smallest drive first (indexed by
    /// `FamilyId`; empty for families whose members carry no numeric drive
    /// suffix or are all don't-use).
    variants: Vec<Vec<Variant>>,
    /// Per cell: `(family, position on that family's drive ladder)`.
    ladder_pos: Vec<Option<(FamilyId, u32)>>,
    /// Per cell: drive strength (1.0 when the name has no numeric suffix).
    drive: Vec<f64>,
    /// Per cell: `min(library max_capacitance, window max_load)` over
    /// output pins — the windows are consulted once, in
    /// [`effective_limits`].
    eff_max_load: Vec<f64>,
    /// Per cell: min over output pins of the window `max_slew`.
    eff_max_slew: Vec<f64>,
}

/// Folds the constraints into per-cell limits, indexed by [`CellId`]:
/// `min(library max_capacitance, window max_load)` and the window
/// `max_slew`, each the minimum over the cell's output pins, and whether
/// the cell is don't-use. This is all synthesis reads of `constraints`, so
/// two constraint sets with bit-equal limits synthesize bit-identical
/// designs.
pub(crate) fn effective_limits(
    lib: &Library,
    constraints: &LibraryConstraints,
) -> (Vec<f64>, Vec<f64>, Vec<bool>) {
    let mut limits = (Vec::new(), Vec::new(), Vec::new());
    for cell in &lib.cells {
        let mut load = f64::INFINITY;
        let mut slew = f64::INFINITY;
        for p in cell.output_pins() {
            let win = constraints.window(&cell.name, &p.name);
            load = load.min(p.max_capacitance.unwrap_or(f64::INFINITY).min(win.max_load));
            slew = slew.min(win.max_slew);
        }
        limits.0.push(load);
        limits.1.push(slew);
        limits.2.push(constraints.is_excluded(&cell.name));
    }
    limits
}

impl<'a> TargetLibrary<'a> {
    /// Indexes `lib` by cell family via the library interner, without the
    /// don't-use cells, and folds the windows into per-cell limits.
    pub fn new(lib: &'a Library, constraints: &LibraryConstraints) -> Self {
        let interner = lib.interner();
        let n = lib.cells.len();
        let drive: Vec<f64> = (lib.cells.iter())
            .map(|cell| cell.drive_strength().unwrap_or(1.0))
            .collect();
        let (eff_max_load, eff_max_slew, dont_use) = effective_limits(lib, constraints);

        let mut variants: Vec<Vec<Variant>> = vec![Vec::new(); interner.families().len()];
        let mut ladder_pos: Vec<Option<(FamilyId, u32)>> = vec![None; n];
        for (fi, fam) in interner.families().iter().enumerate() {
            let fid = FamilyId(fi as u32);
            let out = &mut variants[fi];
            for &id in fam.members.iter().filter(|id| !dont_use[id.index()]) {
                let cell = &lib.cells[id.index()];
                let Some(d) = cell.drive_strength() else {
                    continue;
                };
                let lib_max_load = cell
                    .output_pins()
                    .filter_map(|p| p.max_capacitance)
                    .fold(f64::INFINITY, f64::min);
                ladder_pos[id.index()] = Some((fid, out.len() as u32));
                out.push(Variant {
                    id,
                    name: cell.name.clone(),
                    drive: d,
                    area: cell.area,
                    lib_max_load,
                });
            }
        }
        Self {
            lib,
            variants,
            ladder_pos,
            drive,
            eff_max_load,
            eff_max_slew,
        }
    }

    /// Family prefix implementing a gate kind at the given input count.
    pub fn family_for(kind: GateKind, inputs: usize) -> String {
        match kind {
            GateKind::Inv => "INV".to_string(),
            GateKind::Buf => "GCKB".to_string(),
            GateKind::And => format!("AN{inputs}"),
            GateKind::Or => format!("OR{inputs}"),
            GateKind::Nand => format!("ND{inputs}"),
            GateKind::Nor => format!("NR{inputs}"),
            GateKind::Xor => "EO2".to_string(),
            GateKind::Xnor => "XN2".to_string(),
            GateKind::Mux2 => "MU2".to_string(),
            GateKind::Mux4 => "MU4".to_string(),
            GateKind::HalfAdder => "AD1".to_string(),
            GateKind::FullAdder => "AD2".to_string(),
            GateKind::Dff => "DF".to_string(),
        }
    }

    /// The id of the family named `family`, when the library has sizable
    /// variants for it.
    pub fn family_id(&self, family: &str) -> Option<FamilyId> {
        let fid = self.lib.interner().family_id(family)?;
        (!self.variants[fid.index()].is_empty()).then_some(fid)
    }

    /// All sizable variants of a family, smallest drive first.
    pub fn family_variants(&self, family: FamilyId) -> &[Variant] {
        &self.variants[family.index()]
    }

    /// Drive strength of a cell (`1.0` for cells without a numeric
    /// suffix; `1.0` for out-of-range ids).
    pub fn drive(&self, cell: CellId) -> f64 {
        self.drive.get(cell.index()).copied().unwrap_or(1.0)
    }

    /// The maximum load a cell may drive once tuning windows are applied:
    /// `min(library max_capacitance, window max_load)` over output pins.
    /// Out-of-range ids drive nothing.
    pub fn effective_max_load_id(&self, cell: CellId) -> f64 {
        self.eff_max_load.get(cell.index()).copied().unwrap_or(0.0)
    }

    /// The maximum *input* slew a cell may see once tuning windows are
    /// applied (min over output pins' window `max_slew`).
    pub fn effective_max_slew_id(&self, cell: CellId) -> f64 {
        self.eff_max_slew.get(cell.index()).copied().unwrap_or(0.0)
    }

    /// Smallest variant of `family` whose effective max load covers `load`;
    /// falls back to the largest variant when none qualifies.
    pub fn pick_for_load_id(&self, family: FamilyId, load: f64) -> Option<&Variant> {
        let vs = self.family_variants(family);
        vs.iter()
            .find(|v| self.effective_max_load_id(v.id) >= load)
            .or_else(|| vs.last())
    }

    /// The family of a cell, when it sits on a drive ladder.
    pub fn family_of(&self, cell: CellId) -> Option<FamilyId> {
        self.ladder_pos
            .get(cell.index())
            .copied()
            .flatten()
            .map(|(f, _)| f)
    }

    /// The next-larger variant on a cell's drive ladder, if any.
    pub fn upsize_id(&self, cell: CellId) -> Option<&Variant> {
        let (fid, pos) = self.ladder_pos.get(cell.index()).copied().flatten()?;
        self.variants[fid.index()].get(pos as usize + 1)
    }

    /// The next-smaller variant on a cell's drive ladder, if any.
    pub fn downsize_id(&self, cell: CellId) -> Option<&Variant> {
        let (fid, pos) = self.ladder_pos.get(cell.index()).copied().flatten()?;
        let prev = pos.checked_sub(1)?;
        self.variants[fid.index()].get(prev as usize)
    }

    /// The smallest variant with drive ≥ 1 (the initial-mapping choice),
    /// falling back to the family's largest.
    fn initial_variant(&self, family: FamilyId) -> &Variant {
        let vs = self.family_variants(family);
        // `family_variants` ranges are built non-empty by construction.
        #[allow(clippy::expect_used)]
        vs.iter()
            .find(|v| v.drive >= 1.0)
            .unwrap_or_else(|| vs.last().expect("families are non-empty"))
    }
}

/// Initial technology mapping: every gate gets the smallest variant of its
/// family with drive ≥ 1 (size legalization and timing optimization adjust
/// from there).
///
/// `GateKind::Buf` falls back to the `INV`-pair-free `GCKB` family when
/// present, otherwise to `INV` (a polarity-safe simplification used only by
/// reduced test libraries; real runs use the full 304-cell library, which
/// has `GCKB`).
///
/// Family names are formatted and resolved once per distinct
/// `(kind, input count)` pair; the per-gate loop works in ids. The netlist
/// is taken by value and becomes the design's.
///
/// # Errors
///
/// Returns [`MapError::MissingFamily`] when the library lacks a family for
/// a gate function present in the netlist.
pub fn map_netlist(
    netlist: Netlist,
    target: &TargetLibrary<'_>,
    wire_model: WireModel,
) -> Result<MappedDesign, MapError> {
    let mut by_shape: BTreeMap<(GateKind, usize), CellId> = BTreeMap::new();
    let mut cells = Vec::with_capacity(netlist.gate_count());
    for gi in 0..netlist.gate_count() {
        let kind = netlist.gate_kind(gi);
        let n_in = netlist.gate_inputs(gi).len();
        let shape = (kind, n_in);
        let id = match by_shape.get(&shape) {
            Some(&id) => id,
            None => {
                let mut family = TargetLibrary::family_for(kind, n_in);
                let mut fid = target.family_id(&family);
                if kind == GateKind::Buf && fid.is_none() {
                    family = "INV".to_string();
                    fid = target.family_id(&family);
                }
                let fid = fid.ok_or_else(|| MapError::MissingFamily {
                    family,
                    kind: kind.to_string(),
                })?;
                let id = target.initial_variant(fid).id;
                by_shape.insert(shape, id);
                id
            }
        };
        cells.push(id);
    }
    Ok(MappedDesign::new(netlist, cells, target.lib, wire_model))
}

/// [`map_netlist`] under its former name; kept only for `benchmark/`.
pub fn map_soa(
    netlist: Netlist,
    target: &TargetLibrary<'_>,
    wire_model: WireModel,
) -> Result<MappedDesign, MapError> {
    map_netlist(netlist, target, wire_model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use varitune_libchar::{generate_nominal, GenerateConfig};
    use varitune_netlist::{GateKind, Netlist};

    fn full_lib() -> Library {
        generate_nominal(&GenerateConfig::full())
    }

    /// The id of a cell the full library is known to hold.
    fn id(lib: &Library, name: &str) -> CellId {
        lib.cell_id(name).unwrap()
    }

    #[test]
    fn families_are_indexed_and_sorted() {
        let lib = full_lib();
        let c = LibraryConstraints::unconstrained();
        let t = TargetLibrary::new(&lib, &c);
        let invs = t.family_variants(t.family_id("INV").unwrap());
        assert_eq!(invs.len(), 19);
        assert!(invs.windows(2).all(|w| w[0].drive < w[1].drive));
        assert!(t.family_id("ND3").is_some());
        assert!(t.family_id("NOPE").is_none());
    }

    #[test]
    fn variants_carry_library_ids() {
        let lib = full_lib();
        let c = LibraryConstraints::unconstrained();
        let t = TargetLibrary::new(&lib, &c);
        for v in t.family_variants(t.family_id("INV").unwrap()) {
            assert_eq!(lib.cells[v.id.index()].name, v.name);
        }
    }

    #[test]
    fn family_for_covers_all_kinds() {
        assert_eq!(TargetLibrary::family_for(GateKind::Nand, 3), "ND3");
        assert_eq!(TargetLibrary::family_for(GateKind::Nor, 2), "NR2");
        assert_eq!(TargetLibrary::family_for(GateKind::FullAdder, 3), "AD2");
        assert_eq!(TargetLibrary::family_for(GateKind::Dff, 1), "DF");
        assert_eq!(TargetLibrary::family_for(GateKind::Mux4, 6), "MU4");
    }

    #[test]
    fn pick_for_load_prefers_smallest_adequate() {
        let lib = full_lib();
        let c = LibraryConstraints::unconstrained();
        let t = TargetLibrary::new(&lib, &c);
        let inv = t.family_id("INV").unwrap();
        let small = t.pick_for_load_id(inv, 0.001).unwrap();
        let big = t.pick_for_load_id(inv, 0.2).unwrap();
        assert!(small.drive < big.drive);
        // An absurd load falls back to the largest inverter.
        let largest = t.pick_for_load_id(inv, 1e9).unwrap();
        assert_eq!(largest.drive, 32.0);
    }

    #[test]
    fn windows_shrink_effective_max_load() {
        let lib = full_lib();
        let mut c = LibraryConstraints::unconstrained();
        let (inv4, inv8) = (id(&lib, "INV_4"), id(&lib, "INV_8"));
        let base = TargetLibrary::new(&lib, &c).effective_max_load_id(inv4);
        c.set(
            "INV_4",
            "Z",
            crate::constraint::OperatingWindow {
                min_slew: 0.0,
                max_slew: 0.1,
                min_load: 0.0,
                max_load: base / 2.0,
            },
        );
        let t = TargetLibrary::new(&lib, &c);
        assert!((t.effective_max_load_id(inv4) - base / 2.0).abs() < 1e-12);
        assert!((t.effective_max_slew_id(inv4) - 0.1).abs() < 1e-12);
        // Other cells remain unrestricted.
        assert!(t.effective_max_slew_id(inv8).is_infinite());
    }

    #[test]
    fn upsize_downsize_walk_the_ladder() {
        let lib = full_lib();
        let c = LibraryConstraints::unconstrained();
        let t = TargetLibrary::new(&lib, &c);
        let up = t.upsize_id(id(&lib, "INV_1")).unwrap();
        assert_eq!(up.name, "INV_1P5");
        let down = t.downsize_id(up.id).unwrap();
        assert_eq!(down.name, "INV_1");
        assert!(t.downsize_id(id(&lib, "INV_0P5")).is_none());
        assert!(t.upsize_id(id(&lib, "INV_32")).is_none());
    }

    #[test]
    fn map_netlist_assigns_unit_drives() {
        let lib = full_lib();
        let c = LibraryConstraints::unconstrained();
        let t = TargetLibrary::new(&lib, &c);
        let mut nl = Netlist::new("m");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let x = nl.add_net("x");
        let y = nl.add_net("y");
        nl.add_gate(GateKind::Nand, &[a, b], &[x]);
        nl.add_gate(GateKind::Dff, &[x], &[y]);
        let d = map_netlist(nl, &t, WireModel::default()).unwrap();
        assert_eq!(d.cell_label(0, &lib), "ND2_1");
        assert_eq!(d.cell_label(1, &lib), "DF_1");
    }

    /// Constraints that make every cell `keep` rejects don't-use.
    fn dont_use_unless(lib: &Library, keep: impl Fn(&str) -> bool) -> LibraryConstraints {
        let names = lib.cells.iter().map(|cell| cell.name.as_str());
        LibraryConstraints::dont_use(names.filter(|name| !keep(name)))
    }

    #[test]
    fn dont_use_cells_leave_the_ladders() {
        let lib = full_lib();
        let c = LibraryConstraints::dont_use(["INV_1P5"]);
        let t = TargetLibrary::new(&lib, &c);
        let invs = t.family_variants(t.family_id("INV").unwrap());
        assert_eq!(invs.len(), 18);
        assert!(invs.iter().all(|v| v.name != "INV_1P5"));
        // The ladder steps over the excluded drive, both ways.
        assert_eq!(t.upsize_id(id(&lib, "INV_1")).unwrap().name, "INV_2");
        assert_eq!(t.downsize_id(id(&lib, "INV_2")).unwrap().name, "INV_1");
        assert_eq!(t.family_of(id(&lib, "INV_1P5")), None);
    }

    #[test]
    fn missing_family_is_an_error() {
        // A library whose only usable cells are inverters cannot map a
        // NAND.
        let lib = full_lib();
        let c = dont_use_unless(&lib, |name| name.starts_with("INV"));
        let t = TargetLibrary::new(&lib, &c);
        let mut nl = Netlist::new("m");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let x = nl.add_net("x");
        nl.add_gate(GateKind::Nand, &[a, b], &[x]);
        assert!(matches!(
            map_netlist(nl, &t, WireModel::default()),
            Err(MapError::MissingFamily { .. })
        ));
    }

    #[test]
    fn buf_falls_back_to_inv_without_gckb() {
        let lib = full_lib();
        let c = dont_use_unless(&lib, |name| !name.starts_with("GCKB"));
        let t = TargetLibrary::new(&lib, &c);
        let mut nl = Netlist::new("m");
        let a = nl.add_input("a");
        let x = nl.add_net("x");
        nl.add_gate(GateKind::Buf, &[a], &[x]);
        let d = map_netlist(nl, &t, WireModel::default()).unwrap();
        assert!(d.cell_label(0, &lib).starts_with("INV"));
    }
}
