//! Ingestion screening: strictness policies and cell quarantine.
//!
//! External Liberty sources are not trusted the way the in-tree generator
//! is. Before a library enters the flow it is linted
//! ([`varitune_liberty::validate_library`]) and screened under a
//! [`Strictness`] policy:
//!
//! * [`Strictness::Strict`] — any parse diagnostic or any non-healthy cell
//!   rejects the whole library with [`FlowError::Rejected`],
//! * [`Strictness::Quarantine`] — unusable **and** suspect cells are
//!   dropped, with the same drive-family feasibility fallback as the §IV
//!   exclusion baseline ([`crate::exclusion`]): when every variant of a
//!   family would vanish, the least-bad *suspect* member is retained so
//!   technology mapping stays possible (an unusable cell is never
//!   retained),
//! * [`Strictness::BestEffort`] — only unusable cells are dropped; suspect
//!   cells stay in.
//!
//! Every cell the screen removes (and every sick cell it deliberately
//! keeps) is recorded as a [`Degradation`], so a flow report accounts for
//! the exact difference between what was parsed and what the flow ran on.

use std::fmt;

use varitune_liberty::{validate_library, CellHealth, Diagnostic, Library};

use crate::exclusion::drive_families;
use crate::flow::FlowError;

/// How much damage ingestion tolerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strictness {
    /// Reject the library on any diagnostic or any non-healthy cell.
    #[default]
    Strict,
    /// Drop suspect and unusable cells (with the family feasibility
    /// fallback); tolerate parse diagnostics.
    Quarantine,
    /// Drop only unusable cells; tolerate parse diagnostics and suspect
    /// cells.
    BestEffort,
}

impl fmt::Display for Strictness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Strictness::Strict => "strict",
            Strictness::Quarantine => "quarantine",
            Strictness::BestEffort => "best-effort",
        })
    }
}

/// One accepted loss of fidelity during ingestion.
#[derive(Debug, Clone, PartialEq)]
pub enum Degradation {
    /// The recovering parser reported problems but produced a library.
    ParseDiagnostics {
        /// Error-severity diagnostics tolerated.
        errors: usize,
        /// Warning-severity diagnostics tolerated.
        warnings: usize,
        /// The first diagnostic, rendered, for orientation.
        first: String,
    },
    /// A cell was removed by the health screen.
    CellQuarantined {
        /// Cell name.
        cell: String,
        /// Its lint verdict.
        health: CellHealth,
        /// The first issue that condemned it.
        reason: String,
    },
    /// A suspect cell was retained so its drive family stays mappable.
    CellKeptForFeasibility {
        /// Cell name.
        cell: String,
        /// Its lint verdict (never [`CellHealth::Unusable`]).
        health: CellHealth,
        /// The first issue it carries despite being kept.
        reason: String,
    },
    /// Every member of a drive family was unusable; the family is gone and
    /// synthesis may fail to map gates that needed it.
    FamilyEliminated {
        /// Family name (cell-name prefix before the last `_`).
        family: String,
    },
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Degradation::ParseDiagnostics {
                errors,
                warnings,
                first,
            } => write!(
                f,
                "parse recovered past {errors} error(s), {warnings} warning(s); first: {first}"
            ),
            Degradation::CellQuarantined {
                cell,
                health,
                reason,
            } => write!(f, "cell `{cell}` quarantined ({health}): {reason}"),
            Degradation::CellKeptForFeasibility {
                cell,
                health,
                reason,
            } => write!(
                f,
                "cell `{cell}` kept for family feasibility despite being {health}: {reason}"
            ),
            Degradation::FamilyEliminated { family } => {
                write!(
                    f,
                    "drive family `{family}` eliminated: every member unusable"
                )
            }
        }
    }
}

/// What ingestion did to the library before the flow ran.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FlowReport {
    /// Policy the library was screened under.
    pub strictness: Strictness,
    /// Cells in the library as parsed/provided.
    pub parsed_cells: usize,
    /// Cells the flow actually ran on.
    pub kept_cells: usize,
    /// Every accepted loss, in deterministic (library declaration then
    /// family) order. Empty when ingestion was lossless.
    pub degradations: Vec<Degradation>,
    /// Snapshot of the flight-recorder counters taken when preparation
    /// finished. Empty unless tracing was enabled (see `varitune-trace`);
    /// with tracing on, identical across reruns and thread counts.
    pub counters: std::collections::BTreeMap<String, u64>,
}

impl FlowReport {
    /// A lossless report for trusted (generated) libraries.
    pub fn pristine(strictness: Strictness, cells: usize) -> Self {
        Self {
            strictness,
            parsed_cells: cells,
            kept_cells: cells,
            degradations: Vec::new(),
            counters: std::collections::BTreeMap::new(),
        }
    }

    /// Names of cells recorded as quarantined, in report order.
    pub fn quarantined_cells(&self) -> Vec<&str> {
        self.degradations
            .iter()
            .filter_map(|d| match d {
                Degradation::CellQuarantined { cell, .. } => Some(cell.as_str()),
                _ => None,
            })
            .collect()
    }
}

fn first_issue(issues: &[Diagnostic]) -> String {
    issues
        .first()
        .map_or_else(|| "no recorded issue".to_string(), |d| d.to_string())
}

/// Screens `lib` under `strictness` and returns the library the flow may
/// use plus the degradation ledger.
///
/// `diagnostics` are the recovering parser's findings (empty for libraries
/// that did not come from text).
///
/// # Errors
///
/// [`FlowError::Rejected`] under [`Strictness::Strict`] when anything at
/// all is wrong, and under every policy when the screen would leave no
/// usable cell.
pub fn screen_library(
    lib: &Library,
    diagnostics: &[Diagnostic],
    strictness: Strictness,
) -> Result<(Library, FlowReport), FlowError> {
    let health = validate_library(lib);
    let n_err = diagnostics.iter().filter(|d| d.is_error()).count();
    let n_warn = diagnostics.len() - n_err;

    if strictness == Strictness::Strict {
        if let Some(first) = diagnostics.first() {
            return Err(FlowError::Rejected {
                reason: format!(
                    "strict ingestion: {n_err} parse error(s) and {n_warn} warning(s); first: {first}"
                ),
            });
        }
        if let Some(bad) = health
            .cells
            .iter()
            .find(|r| r.health != CellHealth::Healthy)
        {
            return Err(FlowError::Rejected {
                reason: format!(
                    "strict ingestion: cell `{}` is {}: {}",
                    bad.cell,
                    bad.health,
                    first_issue(&bad.issues)
                ),
            });
        }
        return Ok((
            lib.clone(),
            FlowReport::pristine(strictness, lib.cells.len()),
        ));
    }

    let mut degradations = Vec::new();
    if !diagnostics.is_empty() {
        degradations.push(Degradation::ParseDiagnostics {
            errors: n_err,
            warnings: n_warn,
            first: diagnostics[0].to_string(),
        });
    }

    // A cell is condemned when its verdict reaches the policy's threshold.
    let condemned = |h: CellHealth| match strictness {
        Strictness::Strict => unreachable!("strict handled above"),
        Strictness::Quarantine => h != CellHealth::Healthy,
        Strictness::BestEffort => h == CellHealth::Unusable,
    };
    let mut drop = vec![false; lib.cells.len()];
    for (i, r) in health.cells.iter().enumerate() {
        drop[i] = condemned(r.health);
    }

    // Family feasibility fallback over the exclusion baseline's drive
    // families: where a whole group would vanish, reprieve its least-bad
    // member — unless that member is unusable, which no policy may keep.
    let mut feasibility: Vec<Degradation> = Vec::new();
    for (family, members) in &drive_families(lib) {
        if !members.iter().all(|id| drop[id.index()]) {
            continue; // a healthy-enough variant survives on its own
        }
        // Reprieve the best non-unusable member: fewest issues, ties by
        // declaration order (members are sorted by ascending drive).
        let champion = members
            .iter()
            .filter(|id| health.cells[id.index()].health != CellHealth::Unusable)
            .min_by_key(|id| health.cells[id.index()].issues.len());
        match champion {
            Some(&id) => {
                drop[id.index()] = false;
                let r = &health.cells[id.index()];
                feasibility.push(Degradation::CellKeptForFeasibility {
                    cell: r.cell.clone(),
                    health: r.health,
                    reason: first_issue(&r.issues),
                });
            }
            None => {
                if let Some(name) = family {
                    feasibility.push(Degradation::FamilyEliminated {
                        family: (*name).to_string(),
                    });
                }
            }
        }
    }

    for (i, r) in health.cells.iter().enumerate() {
        if drop[i] {
            degradations.push(Degradation::CellQuarantined {
                cell: r.cell.clone(),
                health: r.health,
                reason: first_issue(&r.issues),
            });
        }
    }
    degradations.extend(feasibility);

    let kept: Vec<String> = lib
        .cells
        .iter()
        .enumerate()
        .filter(|&(i, _)| !drop[i])
        .map(|(_, c)| c.name.clone())
        .collect();
    if kept.is_empty() {
        return Err(FlowError::Rejected {
            reason: format!(
                "{strictness} ingestion left no usable cell ({} parsed, all condemned)",
                lib.cells.len()
            ),
        });
    }

    let mut screened = lib.clone();
    let mut i = 0usize;
    screened.cells.retain(|_| {
        let keep = !drop[i];
        i += 1;
        keep
    });

    let report = FlowReport {
        strictness,
        parsed_cells: lib.cells.len(),
        kept_cells: screened.cells.len(),
        degradations,
        counters: std::collections::BTreeMap::new(),
    };
    varitune_trace::add("core.screens", 1);
    varitune_trace::add("core.cells_parsed", report.parsed_cells as u64);
    varitune_trace::add("core.cells_kept", report.kept_cells as u64);
    varitune_trace::add("core.degradations", report.degradations.len() as u64);
    varitune_trace::add(
        "core.cells_quarantined",
        report.quarantined_cells().len() as u64,
    );
    Ok((screened, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use varitune_libchar::{generate_nominal, GenerateConfig};

    fn healthy_lib() -> Library {
        generate_nominal(&GenerateConfig::small_for_tests())
    }

    /// Poison one cell: NaN area makes it unusable.
    fn poison_unusable(lib: &mut Library, name: &str) {
        let idx = lib.cells.iter().position(|c| c.name == name).unwrap();
        lib.cells[idx].area = f64::NAN;
    }

    /// Taint one cell: negative area is only a warning (suspect).
    fn taint_suspect(lib: &mut Library, name: &str) {
        let idx = lib.cells.iter().position(|c| c.name == name).unwrap();
        lib.cells[idx].area = -1.0;
    }

    #[test]
    fn strict_passes_a_clean_library_losslessly() {
        let lib = healthy_lib();
        let (screened, report) = screen_library(&lib, &[], Strictness::Strict).unwrap();
        assert_eq!(screened, lib);
        assert!(report.degradations.is_empty());
        assert_eq!(report.parsed_cells, report.kept_cells);
    }

    #[test]
    fn strict_rejects_on_any_diagnostic_or_sick_cell() {
        let lib = healthy_lib();
        let diag = [Diagnostic::error(3, 1, "library", "boom")];
        let err = screen_library(&lib, &diag, Strictness::Strict).unwrap_err();
        assert!(matches!(err, FlowError::Rejected { .. }), "{err}");

        let mut sick = healthy_lib();
        taint_suspect(&mut sick, "INV_2");
        let err = screen_library(&sick, &[], Strictness::Strict).unwrap_err();
        let FlowError::Rejected { reason } = err else {
            panic!("expected rejection");
        };
        assert!(reason.contains("INV_2"), "{reason}");
    }

    #[test]
    fn quarantine_drops_suspect_and_unusable_and_accounts_for_both() {
        let mut lib = healthy_lib();
        poison_unusable(&mut lib, "INV_1");
        taint_suspect(&mut lib, "ND2_2");
        let before: Vec<String> = lib.cells.iter().map(|c| c.name.clone()).collect();
        let (screened, report) = screen_library(&lib, &[], Strictness::Quarantine).unwrap();
        assert!(screened.cell("INV_1").is_none());
        assert!(screened.cell("ND2_2").is_none());
        assert_eq!(report.kept_cells, before.len() - 2);
        // Accounting invariant: parsed − kept == quarantined.
        let dropped: Vec<&str> = before
            .iter()
            .filter(|n| screened.cell(n).is_none())
            .map(String::as_str)
            .collect();
        assert_eq!(report.quarantined_cells(), dropped);
    }

    #[test]
    fn best_effort_keeps_suspect_cells() {
        let mut lib = healthy_lib();
        poison_unusable(&mut lib, "INV_1");
        taint_suspect(&mut lib, "ND2_2");
        let (screened, report) = screen_library(&lib, &[], Strictness::BestEffort).unwrap();
        assert!(screened.cell("INV_1").is_none());
        assert!(screened.cell("ND2_2").is_some());
        assert_eq!(report.quarantined_cells(), vec!["INV_1"]);
    }

    #[test]
    fn quarantine_keeps_the_least_bad_suspect_when_a_family_would_vanish() {
        let mut lib = healthy_lib();
        // Make every INV variant suspect; the family must keep one.
        let inv_names: Vec<String> = lib
            .cells
            .iter()
            .filter(|c| c.name.starts_with("INV_"))
            .map(|c| c.name.clone())
            .collect();
        assert!(inv_names.len() > 1);
        for n in &inv_names {
            taint_suspect(&mut lib, n);
        }
        let (screened, report) = screen_library(&lib, &[], Strictness::Quarantine).unwrap();
        let survivors: Vec<&str> = inv_names
            .iter()
            .filter(|n| screened.cell(n).is_some())
            .map(String::as_str)
            .collect();
        assert_eq!(
            survivors.len(),
            1,
            "exactly one INV survives: {survivors:?}"
        );
        assert!(report.degradations.iter().any(|d| matches!(
            d,
            Degradation::CellKeptForFeasibility { cell, .. } if cell == survivors[0]
        )));
    }

    #[test]
    fn an_all_unusable_family_is_eliminated_not_reprieved() {
        let mut lib = healthy_lib();
        let inv_names: Vec<String> = lib
            .cells
            .iter()
            .filter(|c| c.name.starts_with("INV_"))
            .map(|c| c.name.clone())
            .collect();
        for n in &inv_names {
            poison_unusable(&mut lib, n);
        }
        let (screened, report) = screen_library(&lib, &[], Strictness::BestEffort).unwrap();
        for n in &inv_names {
            assert!(
                screened.cell(n).is_none(),
                "unusable `{n}` must not survive"
            );
        }
        assert!(report.degradations.iter().any(|d| matches!(
            d,
            Degradation::FamilyEliminated { family } if family == "INV"
        )));
    }

    #[test]
    fn a_fully_condemned_library_is_rejected_under_every_policy() {
        let mut lib = healthy_lib();
        let names: Vec<String> = lib.cells.iter().map(|c| c.name.clone()).collect();
        for n in &names {
            poison_unusable(&mut lib, n);
        }
        for s in [Strictness::Quarantine, Strictness::BestEffort] {
            let err = screen_library(&lib, &[], s).unwrap_err();
            assert!(matches!(err, FlowError::Rejected { .. }), "{s}: {err}");
        }
    }

    #[test]
    fn screening_is_deterministic() {
        let mut lib = healthy_lib();
        poison_unusable(&mut lib, "INV_1");
        taint_suspect(&mut lib, "ND2_2");
        let a = screen_library(&lib, &[], Strictness::Quarantine).unwrap();
        let b = screen_library(&lib, &[], Strictness::Quarantine).unwrap();
        assert_eq!(a.1, b.1);
        assert_eq!(a.0, b.0);
    }
}
