//! Synthesis reporting helpers: cell-usage histograms (Fig. 9) and the
//! minimum-period search (Table 1).

use varitune_liberty::Library;
use varitune_netlist::Netlist;

use crate::constraint::LibraryConstraints;
use crate::optimize::{synthesize, SynthConfig, SynthError, SynthesisResult};

/// Finds the minimum achievable clock period by bisection: the smallest
/// period (within `tolerance`) at which synthesis still closes timing.
/// This is how the paper picks its "high performance" constraint.
///
/// `hi` must be achievable; `lo` is assumed unachievable (0 is always a safe
/// choice).
///
/// # Errors
///
/// Propagates [`SynthError`]; also returns the error of the initial `hi`
/// synthesis if even `hi` fails timing (as `Ok` with `met_timing = false`
/// surfaced via the returned period being `hi`).
pub fn find_min_period(
    netlist: &Netlist,
    lib: &Library,
    constraints: &LibraryConstraints,
    mut lo: f64,
    mut hi: f64,
    tolerance: f64,
) -> Result<(f64, SynthesisResult), SynthError> {
    let mut best = synthesize(
        netlist,
        lib,
        constraints,
        &SynthConfig::with_clock_period(hi),
    )?;
    while hi - lo > tolerance {
        let mid = 0.5 * (lo + hi);
        let r = synthesize(
            netlist,
            lib,
            constraints,
            &SynthConfig::with_clock_period(mid),
        )?;
        if r.met_timing {
            hi = mid;
            best = r;
        } else {
            lo = mid;
        }
    }
    Ok((hi, best))
}

/// Cell-usage row for the Fig. 9 histograms.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct UsageRow {
    /// Cell name.
    pub cell: String,
    /// Instances in the baseline design.
    pub baseline: usize,
    /// Instances in the tuned design.
    pub tuned: usize,
}

/// Joins two usage histograms over all cells used at least `min_count`
/// times in either design (the paper lists cells used > 100 times).
pub fn usage_comparison(
    baseline: &[(String, usize)],
    tuned: &[(String, usize)],
    min_count: usize,
) -> Vec<UsageRow> {
    let mut names: std::collections::BTreeSet<&str> = Default::default();
    let b: std::collections::BTreeMap<&str, usize> =
        baseline.iter().map(|(n, c)| (n.as_str(), *c)).collect();
    let t: std::collections::BTreeMap<&str, usize> =
        tuned.iter().map(|(n, c)| (n.as_str(), *c)).collect();
    for (n, c) in b.iter().chain(t.iter()) {
        if *c >= min_count {
            names.insert(n);
        }
    }
    let mut rows: Vec<UsageRow> = names
        .into_iter()
        .map(|n| UsageRow {
            cell: n.to_string(),
            baseline: b.get(n).copied().unwrap_or(0),
            tuned: t.get(n).copied().unwrap_or(0),
        })
        .collect();
    rows.sort_by(|x, y| {
        (y.baseline + y.tuned)
            .cmp(&(x.baseline + x.tuned))
            .then_with(|| x.cell.cmp(&y.cell))
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use varitune_libchar::{generate_nominal, GenerateConfig};
    use varitune_netlist::{generate_mcu, McuConfig};

    #[test]
    fn min_period_search_brackets() {
        let lib = generate_nominal(&GenerateConfig::full());
        let nl = generate_mcu(&McuConfig::small_for_tests());
        let (p, r) = find_min_period(
            &nl,
            &lib,
            &LibraryConstraints::unconstrained(),
            0.0,
            10.0,
            0.25,
        )
        .unwrap();
        assert!(p > 0.0 && p < 10.0, "min period {p}");
        assert!(r.met_timing);
        // Just below the found period, timing should fail.
        let below = synthesize(
            &nl,
            &lib,
            &LibraryConstraints::unconstrained(),
            &SynthConfig::with_clock_period((p - 0.5).max(0.05)),
        )
        .unwrap();
        assert!(!below.met_timing, "period {} unexpectedly met", p - 0.5);
    }

    #[test]
    fn usage_comparison_joins_and_filters() {
        let baseline = vec![("INV_1".to_string(), 120), ("ND2_1".to_string(), 5)];
        let tuned = vec![("INV_1".to_string(), 80), ("INV_4".to_string(), 150)];
        let rows = usage_comparison(&baseline, &tuned, 100);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].cell, "INV_1");
        assert_eq!(rows[0].baseline, 120);
        assert_eq!(rows[0].tuned, 80);
        assert_eq!(rows[1].cell, "INV_4");
        assert_eq!(rows[1].baseline, 0);
    }
}
