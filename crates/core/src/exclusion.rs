//! Whole-cell exclusion tuning — the related-work baseline.
//!
//! Prior library-tuning work (the paper cites soft-error, compile-speed and
//! power subsetting) builds a subset by **removing complete cells**. The
//! paper's contribution is precisely *not* doing that: it restricts LUT
//! regions instead, which is finer grained. This module implements the
//! coarse baseline so the two can be compared head-to-head: a cell is
//! dropped when its worst-case sigma exceeds the budget, with a guard that
//! keeps at least one variant per family so synthesis stays feasible. The
//! result applies as a don't-use set ([`ExclusionTuning::constraints`]), so
//! an exclusion run goes through [`crate::Flow::run`] like a windowed one.

use varitune_libchar::StatLibrary;
use varitune_liberty::{CellId, Library};
use varitune_synth::LibraryConstraints;

/// Result of exclusion-based tuning.
#[derive(Debug, Clone, PartialEq)]
pub struct ExclusionTuning {
    /// Sigma budget used (ns).
    pub ceiling: f64,
    /// Cells removed from the library.
    pub excluded: Vec<String>,
    /// Cells kept.
    pub kept: usize,
    /// Cells that violated the budget but were kept as the last usable
    /// variant of their family.
    pub kept_for_feasibility: Vec<String>,
}

impl ExclusionTuning {
    /// The exclusion as synthesis constraints: the excluded cells don't-use.
    pub fn constraints(&self) -> LibraryConstraints {
        LibraryConstraints::dont_use(&self.excluded)
    }
}

/// Excludes every cell whose **worst-entry** delay sigma exceeds `ceiling`
/// — the whole cell is judged by its worst behaviour, because exclusion
/// cannot express "use this cell, but only in its quiet region". That
/// bluntness is exactly what the paper's windowed restriction fixes: a
/// window keeps the same cell available at the operating points where its
/// sigma is fine.
///
/// One variant per family is always kept (the one with the lowest worst
/// sigma) so technology mapping remains possible.
pub fn tune_by_exclusion(stat: &StatLibrary, ceiling: f64) -> ExclusionTuning {
    let cell_count = stat.sigma.cells.len();

    // Worst-case (maximum-entry) delay sigma per cell: one contiguous scan
    // of the columnar sigma blocks, indexed by id.
    let sigma_of: Vec<Option<f64>> = (0..cell_count)
        .map(|i| stat.worst_delay_sigma_id(CellId(i as u32)))
        .collect();

    let mut excluded_ids: Vec<CellId> = Vec::new();
    let mut feasibility_ids: Vec<CellId> = Vec::new();
    let mut kept = 0usize;
    for (_, members) in &drive_families(&stat.sigma) {
        let scored: Vec<(CellId, f64)> = members
            .iter()
            .filter_map(|&id| sigma_of[id.index()].map(|s| (id, s)))
            .collect();
        if scored.is_empty() {
            continue; // no delay tables anywhere in the family
        }
        let all_violate = scored.iter().all(|&(_, s)| s > ceiling);
        let champion = scored
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|&(id, _)| id);
        for &(id, s) in &scored {
            if s > ceiling {
                if all_violate && Some(id) == champion {
                    feasibility_ids.push(id);
                    kept += 1;
                } else {
                    excluded_ids.push(id);
                }
            } else {
                kept += 1;
            }
        }
    }

    // Report boundary: materialize names only now.
    let name_of = |id: &CellId| stat.sigma.cells[id.index()].name.clone();
    let mut excluded: Vec<String> = excluded_ids.iter().map(name_of).collect();
    excluded.sort();
    ExclusionTuning {
        ceiling,
        excluded,
        kept,
        kept_for_feasibility: feasibility_ids.iter().map(name_of).collect(),
    }
}

/// The drive-family partition both cell-removal screens (this baseline
/// and [`crate::quarantine`]) judge feasibility by, in deterministic
/// interner order: each family by name with its members by ascending
/// drive, then every cell without a family (no `_` suffix) as a trailing
/// singleton in id order. A group carries its family's name, `None` for a
/// singleton.
pub(crate) fn drive_families(lib: &Library) -> Vec<(Option<&str>, Vec<CellId>)> {
    let interner = lib.interner();
    let mut groups: Vec<(Option<&str>, Vec<CellId>)> = interner
        .families()
        .iter()
        .map(|f| (Some(f.name.as_str()), f.members.clone()))
        .collect();
    for i in 0..lib.cells.len() {
        let id = CellId(i as u32);
        if interner.family_of(id).is_none() {
            groups.push((None, vec![id]));
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use varitune_libchar::{generate_mc_libraries, generate_nominal, GenerateConfig};

    fn stat_fixture() -> StatLibrary {
        let cfg = GenerateConfig::small_for_tests();
        let nominal = generate_nominal(&cfg);
        let mc = generate_mc_libraries(&nominal, &cfg, 25, 77);
        StatLibrary::from_libraries(&mc).unwrap()
    }

    #[test]
    fn huge_ceiling_excludes_nothing() {
        let stat = stat_fixture();
        let t = tune_by_exclusion(&stat, 100.0);
        assert!(t.excluded.is_empty());
        assert_eq!(t.kept, stat.sigma.cells.len());
    }

    #[test]
    fn tiny_ceiling_keeps_one_variant_per_family() {
        let stat = stat_fixture();
        let t = tune_by_exclusion(&stat, 1e-9);
        // Small library: INV, ND2, NR2, MU2, DF at 4 drives = 20 cells,
        // 5 families -> 5 survivors.
        assert_eq!(t.kept, 5);
        assert_eq!(t.excluded.len(), stat.sigma.cells.len() - 5);
        assert_eq!(t.kept_for_feasibility.len(), 5);
        // The survivor of each family should be its largest drive (lowest
        // Pelgrom sigma).
        assert!(
            t.kept_for_feasibility.iter().any(|n| n == "INV_8"),
            "{:?}",
            t.kept_for_feasibility
        );
    }

    #[test]
    fn excluded_cells_are_high_sigma_small_drives() {
        let stat = stat_fixture();
        // Pick a budget between INV_1's and INV_8's worst sigma.
        let s1 = stat.worst_delay_sigma("INV_1").unwrap();
        let s8 = stat.worst_delay_sigma("INV_8").unwrap();
        assert!(s8 < s1);
        let t = tune_by_exclusion(&stat, 0.5 * (s1 + s8));
        assert!(t.excluded.iter().any(|n| n == "INV_1"));
        assert!(!t.excluded.iter().any(|n| n == "INV_8"));
    }

    #[test]
    fn constraints_exclude_exactly_the_excluded_cells() {
        let stat = stat_fixture();
        let t = tune_by_exclusion(&stat, 1e-9);
        let text = t.constraints().to_text();
        let dont_use: Vec<&str> = (text.lines())
            .filter_map(|line| line.strip_prefix("dont_use "))
            .collect();
        assert_eq!(dont_use, t.excluded);
        assert_eq!(stat.mean.cells.len() - dont_use.len(), t.kept);
    }

    #[test]
    fn feasibility_fallback_keeps_one_variant_per_family_and_synthesis_works() {
        // A ceiling below every cell's sigma would exclude the entire
        // library; the fallback must keep exactly one variant per family —
        // deduplicated, in interner (family-name) order — and the library
        // must still synthesize under the exclusion.
        let stat = stat_fixture();
        let t = tune_by_exclusion(&stat, f64::MIN_POSITIVE);

        let families: Vec<&str> = stat
            .sigma
            .interner()
            .families()
            .iter()
            .map(|f| f.name.as_str())
            .collect();
        let survivor_families: Vec<&str> = t
            .kept_for_feasibility
            .iter()
            .map(|n| n.rsplit_once('_').expect("generated names have drives").0)
            .collect();
        assert_eq!(
            survivor_families, families,
            "one survivor per family, in order"
        );

        let mut unique = t.kept_for_feasibility.clone();
        unique.dedup();
        assert_eq!(unique, t.kept_for_feasibility, "no duplicate survivors");

        assert_eq!(t.kept, families.len());
        let mut nl = varitune_netlist::Netlist::new("feas");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let x = nl.add_net("x");
        let y = nl.add_net("y");
        nl.add_gate(varitune_netlist::GateKind::Nand, &[a, b], &[x]);
        nl.add_gate(varitune_netlist::GateKind::Inv, &[x], &[y]);
        nl.mark_output(y);
        let r = varitune_synth::synthesize(
            &nl,
            &stat.mean,
            &t.constraints(),
            &varitune_synth::SynthConfig::with_clock_period(10.0),
        );
        assert!(r.is_ok(), "the survivors must stay mappable: {r:?}");
    }

    #[test]
    fn exclusion_is_deterministic() {
        let stat = stat_fixture();
        assert_eq!(
            tune_by_exclusion(&stat, 0.01),
            tune_by_exclusion(&stat, 0.01)
        );
    }
}
