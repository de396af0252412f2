//! Synthesis reporting helpers: cell-usage histograms (Fig. 9) and the
//! minimum-period search (Table 1).

use varitune_liberty::Library;
use varitune_netlist::Netlist;
use varitune_sta::StaError;

use crate::constraint::LibraryConstraints;
use crate::optimize::{synthesize, SynthConfig, SynthError, SynthesisResult};

/// Finds the minimum achievable clock period by bisection: the smallest
/// period (within `tolerance`) at which synthesis still closes timing.
/// This is how the paper picks its "high performance" constraint.
///
/// `hi` must be achievable; `lo` is assumed unachievable (0 is always a safe
/// choice). The search also stops when the bracket can no longer shrink,
/// so a `tolerance` below the float spacing of the bracket ends it.
///
/// # Errors
///
/// [`SynthError::Sta`] with [`StaError::InvalidParameter`] if `tolerance`
/// is not finite and positive; otherwise propagates [`SynthError`] from
/// synthesis. If even `hi` fails timing, the search returns `hi` with
/// that run's result (`met_timing` is `false`).
pub fn find_min_period(
    netlist: &Netlist,
    lib: &Library,
    constraints: &LibraryConstraints,
    mut lo: f64,
    mut hi: f64,
    tolerance: f64,
) -> Result<(f64, SynthesisResult), SynthError> {
    // `tolerance <= 0.0` is false for NaN, but the finiteness check
    // rejects NaN on its own.
    if tolerance <= 0.0 || !tolerance.is_finite() {
        return Err(SynthError::Sta(StaError::InvalidParameter {
            reason: format!("bisection tolerance must be finite and > 0, got {tolerance}"),
        }));
    }
    let mut best = synthesize(
        netlist,
        lib,
        constraints,
        &SynthConfig::with_clock_period(hi),
    )?;
    while hi - lo > tolerance {
        let mid = 0.5 * (lo + hi);
        // `tolerance` below the float spacing: the bracket cannot shrink.
        if mid == lo || mid == hi {
            break;
        }
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
    use varitune_netlist::{generate_mcu, GateKind, McuConfig};

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

    /// Two flip-flops around a three-inverter chain: one register-to-
    /// register path, so the clock period decides whether timing closes.
    fn register_chain() -> Netlist {
        let mut nl = Netlist::new("chain");
        let d = nl.add_input("d");
        let mut x = nl.add_net("q0");
        nl.add_gate(GateKind::Dff, &[d], &[x]);
        for i in 0..3 {
            let y = nl.add_net(format!("x{i}"));
            nl.add_gate(GateKind::Inv, &[x], &[y]);
            x = y;
        }
        let q = nl.add_net("q1");
        nl.add_gate(GateKind::Dff, &[x], &[q]);
        nl.mark_output(q);
        nl
    }

    #[test]
    fn min_period_search_terminates_below_float_spacing() {
        let lib = generate_nominal(&GenerateConfig::full());
        let nl = register_chain();
        let free = LibraryConstraints::unconstrained();
        let (coarse, _) = find_min_period(&nl, &lib, &free, 0.0, 10.0, 1e-3).unwrap();
        // Near the answer the f64 spacing is ~1e-16, so this tolerance can
        // never be met by halving the bracket.
        let (p, r) = find_min_period(&nl, &lib, &free, 0.0, 10.0, 1e-300).unwrap();
        assert!(r.met_timing, "period {p}");
        assert!(p > 0.0 && (p - coarse).abs() <= 1e-3, "{p} vs {coarse}");
    }

    #[test]
    fn min_period_search_rejects_a_bad_tolerance() {
        let lib = generate_nominal(&GenerateConfig::full());
        let nl = register_chain();
        let free = LibraryConstraints::unconstrained();
        for bad in [f64::NAN, 0.0, -1.0] {
            let err = find_min_period(&nl, &lib, &free, 0.0, 10.0, bad).unwrap_err();
            assert!(
                matches!(err, SynthError::Sta(StaError::InvalidParameter { .. })),
                "tolerance {bad}: {err}"
            );
        }
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
