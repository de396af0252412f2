//! Library lints: per-cell health verdicts for ingestion quarantine.
//!
//! [`validate_library`] inspects every cell of a parsed [`Library`] and
//! produces a typed [`CellHealth`] verdict per cell plus the
//! [`Diagnostic`]s that justify it. The lints cover the malformed-data
//! classes that would otherwise surface as panics or nonsense deep inside
//! timing analysis: non-finite LUT values, non-monotonic or mismatched
//! axes, negative capacitances, and missing timing arcs.
//!
//! The severity split mirrors downstream consequences:
//!
//! * **Error** lints make a cell [`CellHealth::Unusable`] — interpolation
//!   or graph construction on it would fail or silently corrupt results
//!   (NaN poisoning, clamped nonsense from unordered axes, missing arcs).
//! * **Warning** lints make a cell [`CellHealth::Suspect`] — the data is
//!   consumable but smells wrong (negative area, negative energy), so a
//!   strict flow may still want to reject it.

use std::collections::HashSet;
use std::fmt;

use crate::diagnostic::{Diagnostic, Severity};
use crate::model::{Cell, Library, Lut, Pin, PinDirection};

/// Typed verdict for one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CellHealth {
    /// No lint fired; safe for every policy.
    Healthy,
    /// Only warning-level lints fired; usable, but strict policies may
    /// reject it.
    Suspect,
    /// At least one error-level lint fired; timing analysis on this cell
    /// would fail or corrupt results.
    Unusable,
}

impl fmt::Display for CellHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CellHealth::Healthy => "healthy",
            CellHealth::Suspect => "suspect",
            CellHealth::Unusable => "unusable",
        };
        f.write_str(s)
    }
}

/// Lint outcome for one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Cell name.
    pub cell: String,
    /// Verdict derived from the worst issue severity.
    pub health: CellHealth,
    /// Everything the lints found, in discovery order.
    pub issues: Vec<Diagnostic>,
}

/// Lint outcome for a whole library, one report per cell.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LibraryHealth {
    /// Per-cell reports in library declaration order.
    pub cells: Vec<CellReport>,
}

impl LibraryHealth {
    /// Whether every cell is [`CellHealth::Healthy`].
    pub fn all_healthy(&self) -> bool {
        self.cells.iter().all(|c| c.health == CellHealth::Healthy)
    }

    /// The worst verdict across the library (`Healthy` when empty).
    pub fn worst(&self) -> CellHealth {
        self.cells
            .iter()
            .map(|c| c.health)
            .max()
            .unwrap_or(CellHealth::Healthy)
    }

    /// Report for the cell named `name`, if present.
    pub fn report(&self, name: &str) -> Option<&CellReport> {
        self.cells.iter().find(|c| c.cell == name)
    }

    /// Iterates over every issue in every cell report.
    pub fn issues(&self) -> impl Iterator<Item = &Diagnostic> {
        self.cells.iter().flat_map(|c| c.issues.iter())
    }
}

/// Lints every cell of `lib` (see the module docs for the lint catalogue).
pub fn validate_library(lib: &Library) -> LibraryHealth {
    LibraryHealth {
        cells: lib.cells.iter().map(validate_cell).collect(),
    }
}

/// Lints a single cell.
pub fn validate_cell(cell: &Cell) -> CellReport {
    let ctx = format!("library/cell({})", cell.name);
    let mut issues = Vec::new();

    check_finite(&mut issues, &ctx, "area", cell.area);
    check_finite(&mut issues, &ctx, "cell_leakage_power", cell.leakage_power);
    if cell.area.is_finite() && cell.area < 0.0 {
        issues.push(Diagnostic::warning(0, 0, &ctx, "negative area"));
    }
    if cell.leakage_power.is_finite() && cell.leakage_power < 0.0 {
        issues.push(Diagnostic::warning(0, 0, &ctx, "negative leakage power"));
    }

    let mut pin_names = HashSet::new();
    for pin in &cell.pins {
        if !pin_names.insert(pin.name.as_str()) {
            issues.push(Diagnostic::warning(
                0,
                0,
                &ctx,
                format!("duplicate pin name `{}`", pin.name),
            ));
        }
    }

    for pin in &cell.pins {
        validate_pin(&mut issues, &ctx, cell, pin);
    }

    if cell.output_pins().next().is_none() {
        issues.push(Diagnostic::error(0, 0, &ctx, "cell has no output pin"));
    } else if !cell.is_sequential() {
        // Combinational mapping needs an arc from every input on some
        // output; a missing one surfaces later as a MissingArc STA error.
        for input in cell.input_pins() {
            let covered = cell.output_pins().any(|o| {
                o.timing
                    .iter()
                    .any(|a| a.timing_type.is_delay_arc() && a.related_pin == input.name)
            });
            if !covered {
                issues.push(Diagnostic::error(
                    0,
                    0,
                    &ctx,
                    format!("input pin `{}` has no timing arc to any output", input.name),
                ));
            }
        }
    }

    let health = match issues.iter().map(|d| d.severity).max() {
        None => CellHealth::Healthy,
        Some(Severity::Warning) => CellHealth::Suspect,
        Some(Severity::Error) => CellHealth::Unusable,
    };
    CellReport {
        cell: cell.name.clone(),
        health,
        issues,
    }
}

fn validate_pin(issues: &mut Vec<Diagnostic>, cell_ctx: &str, cell: &Cell, pin: &Pin) {
    let ctx = format!("{cell_ctx}/pin({})", pin.name);

    if !pin.capacitance.is_finite() {
        issues.push(Diagnostic::error(0, 0, &ctx, "non-finite pin capacitance"));
    } else if pin.capacitance < 0.0 {
        issues.push(Diagnostic::error(0, 0, &ctx, "negative pin capacitance"));
    }
    if let Some(mc) = pin.max_capacitance {
        if !mc.is_finite() {
            issues.push(Diagnostic::error(0, 0, &ctx, "non-finite max_capacitance"));
        } else if mc <= 0.0 {
            issues.push(Diagnostic::error(
                0,
                0,
                &ctx,
                "max_capacitance must be positive",
            ));
        }
    }
    if let Some(mt) = pin.max_transition {
        if !mt.is_finite() {
            issues.push(Diagnostic::error(0, 0, &ctx, "non-finite max_transition"));
        } else if mt <= 0.0 {
            issues.push(Diagnostic::warning(
                0,
                0,
                &ctx,
                "max_transition is not positive",
            ));
        }
    }

    if pin.direction == PinDirection::Output
        && !pin.timing.iter().any(|a| a.timing_type.is_delay_arc())
    {
        issues.push(Diagnostic::error(0, 0, &ctx, "output pin has no delay arc"));
    }

    for arc in &pin.timing {
        let arc_ctx = format!("{ctx}/timing");
        if cell.pin(&arc.related_pin).is_none() {
            issues.push(Diagnostic::error(
                0,
                0,
                &arc_ctx,
                format!("related_pin `{}` does not exist", arc.related_pin),
            ));
        }
        if arc.timing_type.is_delay_arc() && pin.direction == PinDirection::Output {
            if arc.delay_tables().next().is_none() {
                issues.push(Diagnostic::error(0, 0, &arc_ctx, "arc has no delay table"));
            }
            if arc.transition_tables().next().is_none() {
                issues.push(Diagnostic::error(
                    0,
                    0,
                    &arc_ctx,
                    "arc has no transition table",
                ));
            }
        }
        for (slot, lut) in [
            ("cell_rise", &arc.cell_rise),
            ("cell_fall", &arc.cell_fall),
            ("rise_transition", &arc.rise_transition),
            ("fall_transition", &arc.fall_transition),
        ] {
            if let Some(lut) = lut {
                validate_lut(issues, &arc_ctx, slot, lut);
            }
        }
    }

    for power in &pin.internal_power {
        let power_ctx = format!("{ctx}/internal_power");
        if cell.pin(&power.related_pin).is_none() {
            issues.push(Diagnostic::warning(
                0,
                0,
                &power_ctx,
                format!("related_pin `{}` does not exist", power.related_pin),
            ));
        }
        for (slot, lut) in [
            ("rise_power", &power.rise_power),
            ("fall_power", &power.fall_power),
        ] {
            if let Some(lut) = lut {
                validate_lut(issues, &power_ctx, slot, lut);
            }
        }
    }
}

fn validate_lut(issues: &mut Vec<Diagnostic>, ctx: &str, slot: &str, lut: &Lut) {
    if lut.rows() == 0 || lut.cols() == 0 {
        issues.push(Diagnostic::error(0, 0, ctx, format!("{slot}: empty table")));
        return;
    }
    for (name, axis) in [("index_1", &lut.index_slew), ("index_2", &lut.index_load)] {
        if axis.iter().any(|v| !v.is_finite()) {
            issues.push(Diagnostic::error(
                0,
                0,
                ctx,
                format!("{slot}: non-finite value on {name} axis"),
            ));
        } else if axis.windows(2).any(|w| w[1] <= w[0]) {
            issues.push(Diagnostic::error(
                0,
                0,
                ctx,
                format!("{slot}: {name} axis is not strictly increasing"),
            ));
        }
    }
    if !lut.fits_axes() {
        issues.push(Diagnostic::error(
            0,
            0,
            ctx,
            format!(
                "{slot}: values shape {}x{} does not match axes {}x{}",
                lut.values.len(),
                lut.values.first().map_or(0, Vec::len),
                lut.index_slew.len(),
                lut.index_load.len()
            ),
        ));
    }
    if lut.values.iter().flatten().any(|v| !v.is_finite()) {
        issues.push(Diagnostic::error(
            0,
            0,
            ctx,
            format!("{slot}: non-finite table value"),
        ));
    } else if lut.values.iter().flatten().any(|&v| v < 0.0) {
        issues.push(Diagnostic::warning(
            0,
            0,
            ctx,
            format!("{slot}: negative table value"),
        ));
    }
}

fn check_finite(issues: &mut Vec<Diagnostic>, ctx: &str, what: &str, v: f64) {
    if !v.is_finite() {
        issues.push(Diagnostic::error(0, 0, ctx, format!("non-finite {what}")));
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::model::{Library, TimingArc};

    fn healthy_cell() -> Cell {
        let mut c = Cell::new("INV_1", 1.0);
        c.pins.push(Pin::input("A", 0.002));
        let mut z = Pin::output("Z", "!A");
        z.max_capacitance = Some(0.2);
        let mut arc = TimingArc::new("A");
        arc.cell_rise = Some(Lut::filled(vec![0.0, 1.0], vec![0.0, 1.0], 0.1));
        arc.rise_transition = Some(Lut::filled(vec![0.0, 1.0], vec![0.0, 1.0], 0.2));
        z.timing.push(arc);
        c.pins.push(z);
        c
    }

    #[test]
    fn healthy_cell_passes() {
        let r = validate_cell(&healthy_cell());
        assert_eq!(r.health, CellHealth::Healthy, "{:?}", r.issues);
        assert!(r.issues.is_empty());
    }

    #[test]
    fn nan_table_value_is_unusable() {
        let mut c = healthy_cell();
        c.pins[1].timing[0].cell_rise.as_mut().unwrap().values[0][1] = f64::NAN;
        let r = validate_cell(&c);
        assert_eq!(r.health, CellHealth::Unusable);
        assert!(r.issues[0].message.contains("non-finite"), "{:?}", r.issues);
        assert_eq!(r.issues[0].context, "library/cell(INV_1)/pin(Z)/timing");
    }

    #[test]
    fn shuffled_axis_is_unusable() {
        let mut c = healthy_cell();
        c.pins[1].timing[0].cell_rise.as_mut().unwrap().index_slew = vec![1.0, 0.0];
        let r = validate_cell(&c);
        assert_eq!(r.health, CellHealth::Unusable);
        assert!(
            r.issues.iter().any(|d| d.message.contains("increasing")),
            "{:?}",
            r.issues
        );
    }

    #[test]
    fn shape_mismatch_is_unusable() {
        let mut c = healthy_cell();
        c.pins[1].timing[0].cell_rise.as_mut().unwrap().values.pop();
        let r = validate_cell(&c);
        assert_eq!(r.health, CellHealth::Unusable);
        assert!(
            r.issues.iter().any(|d| d.message.contains("shape")),
            "{:?}",
            r.issues
        );
    }

    #[test]
    fn negative_cap_is_unusable_and_negative_area_is_suspect() {
        let mut c = healthy_cell();
        c.pins[0].capacitance = -0.001;
        assert_eq!(validate_cell(&c).health, CellHealth::Unusable);

        let mut c = healthy_cell();
        c.area = -1.0;
        let r = validate_cell(&c);
        assert_eq!(r.health, CellHealth::Suspect);
    }

    #[test]
    fn missing_arc_for_an_input_is_unusable() {
        let mut c = healthy_cell();
        c.pins.insert(1, Pin::input("B", 0.002));
        let r = validate_cell(&c);
        assert_eq!(r.health, CellHealth::Unusable);
        assert!(
            r.issues.iter().any(|d| d.message.contains("`B`")),
            "{:?}",
            r.issues
        );
    }

    #[test]
    fn deleted_arc_leaves_cell_without_output_arcs() {
        let mut c = healthy_cell();
        c.pins[1].timing.clear();
        let r = validate_cell(&c);
        assert_eq!(r.health, CellHealth::Unusable);
    }

    #[test]
    fn library_health_aggregates_worst() {
        let mut lib = Library::new("TT");
        lib.cells.push(healthy_cell());
        let mut bad = healthy_cell();
        bad.name = "INV_2".to_string();
        bad.pins[0].capacitance = f64::INFINITY;
        lib.cells.push(bad);
        let h = validate_library(&lib);
        assert_eq!(h.cells.len(), 2);
        assert!(!h.all_healthy());
        assert_eq!(h.worst(), CellHealth::Unusable);
        assert_eq!(h.report("INV_1").unwrap().health, CellHealth::Healthy);
        assert_eq!(h.report("INV_2").unwrap().health, CellHealth::Unusable);
    }

    #[test]
    fn generated_library_is_fully_healthy() {
        // The in-tree synthetic generator must produce lint-clean cells;
        // quarantine must never drop anything from a clean flow.
        // (Exercised at paper scale by the flow tests; a smoke check here.)
        let mut c = Cell::new("DF_1", 4.0);
        let mut ck = Pin::input("CK", 0.001);
        ck.is_clock = true;
        c.pins.push(ck);
        let mut q = Pin::output("Q", "D");
        q.max_capacitance = Some(0.2);
        let mut arc = TimingArc::new("CK");
        arc.timing_type = crate::model::TimingType::RisingEdge;
        arc.cell_rise = Some(Lut::filled(vec![0.0, 1.0], vec![0.0, 1.0], 0.1));
        arc.rise_transition = Some(Lut::filled(vec![0.0, 1.0], vec![0.0, 1.0], 0.2));
        q.timing.push(arc);
        c.pins.push(q);
        c.pins.insert(1, Pin::input("D", 0.002));
        let r = validate_cell(&c);
        assert_eq!(r.health, CellHealth::Healthy, "{:?}", r.issues);
    }
}
