//! The five tuning methods and their parameters (§VI.A, Table 2).

use std::fmt;

/// The tuning methods evaluated in the paper (§VI.A):
/// {per-drive-strength, per-cell} clustering × {load-slope, slew-slope}
/// thresholds, plus the per-cell sigma ceiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TuningMethod {
    /// Cluster cells by drive strength, threshold on the load-direction
    /// slope.
    CellStrengthLoadSlope,
    /// Cluster cells by drive strength, threshold on the slew-direction
    /// slope.
    CellStrengthSlewSlope,
    /// Per-cell clustering, load-slope threshold.
    CellLoadSlope,
    /// Per-cell clustering, slew-slope threshold.
    CellSlewSlope,
    /// Per-cell sigma ceiling: restrict every LUT entry whose sigma exceeds
    /// the ceiling.
    SigmaCeiling,
}

impl TuningMethod {
    /// All five methods, in the paper's reporting order (Fig. 10 / Table 3).
    pub const ALL: [TuningMethod; 5] = [
        TuningMethod::CellStrengthLoadSlope,
        TuningMethod::CellStrengthSlewSlope,
        TuningMethod::CellLoadSlope,
        TuningMethod::CellSlewSlope,
        TuningMethod::SigmaCeiling,
    ];

    /// Whether the method clusters cells per drive strength (versus per
    /// cell).
    pub fn is_strength_clustered(self) -> bool {
        matches!(
            self,
            TuningMethod::CellStrengthLoadSlope | TuningMethod::CellStrengthSlewSlope
        )
    }

    /// Whether the method thresholds a slope table (versus the sigma ceiling
    /// applied directly).
    pub fn is_slope_method(self) -> bool {
        !matches!(self, TuningMethod::SigmaCeiling)
    }
}

impl fmt::Display for TuningMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TuningMethod::CellStrengthLoadSlope => "cell-strength load slope",
            TuningMethod::CellStrengthSlewSlope => "cell-strength slew slope",
            TuningMethod::CellLoadSlope => "cell load slope",
            TuningMethod::CellSlewSlope => "cell slew slope",
            TuningMethod::SigmaCeiling => "sigma ceiling",
        };
        f.write_str(s)
    }
}

/// Constraint parameters (Table 2). During a sweep one parameter is varied
/// while the other two stay at their defaults (load slope 1, slew slope
/// 0.06, sigma ceiling 100 — i.e. inactive).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuningParams {
    /// Load-direction slope bound (per index step).
    pub load_slope: f64,
    /// Slew-direction slope bound (per index step).
    pub slew_slope: f64,
    /// Absolute sigma ceiling (ns).
    pub sigma_ceiling: f64,
}

impl Default for TuningParams {
    fn default() -> Self {
        Self {
            load_slope: 1.0,
            slew_slope: 0.06,
            sigma_ceiling: 100.0,
        }
    }
}

impl TuningParams {
    /// Defaults with one load-slope bound activated.
    pub fn with_load_slope(v: f64) -> Self {
        Self {
            load_slope: v,
            ..Self::default()
        }
    }

    /// Defaults with one slew-slope bound activated.
    pub fn with_slew_slope(v: f64) -> Self {
        Self {
            slew_slope: v,
            ..Self::default()
        }
    }

    /// Defaults with one sigma ceiling activated.
    pub fn with_sigma_ceiling(v: f64) -> Self {
        Self {
            sigma_ceiling: v,
            ..Self::default()
        }
    }

    /// The Table 2 sweep for `method`: the varied parameter's four values,
    /// everything else at defaults.
    pub fn table2_sweep(method: TuningMethod) -> Vec<TuningParams> {
        match method {
            TuningMethod::CellStrengthLoadSlope | TuningMethod::CellLoadSlope => {
                [1.0, 0.05, 0.03, 0.01]
                    .iter()
                    .map(|&v| Self::with_load_slope(v))
                    .collect()
            }
            TuningMethod::CellStrengthSlewSlope | TuningMethod::CellSlewSlope => {
                [1.0, 0.05, 0.03, 0.01]
                    .iter()
                    .map(|&v| Self::with_slew_slope(v))
                    .collect()
            }
            TuningMethod::SigmaCeiling => [0.04, 0.03, 0.02, 0.01]
                .iter()
                .map(|&v| Self::with_sigma_ceiling(v))
                .collect(),
        }
    }

    /// The value of the parameter this `method` varies — used for Table 3
    /// style reporting.
    pub fn varied_value(&self, method: TuningMethod) -> f64 {
        match method {
            TuningMethod::CellStrengthLoadSlope | TuningMethod::CellLoadSlope => self.load_slope,
            TuningMethod::CellStrengthSlewSlope | TuningMethod::CellSlewSlope => self.slew_slope,
            TuningMethod::SigmaCeiling => self.sigma_ceiling,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_methods_in_order() {
        assert_eq!(TuningMethod::ALL.len(), 5);
        assert_eq!(TuningMethod::ALL[4], TuningMethod::SigmaCeiling);
    }

    #[test]
    fn clustering_and_slope_flags() {
        assert!(TuningMethod::CellStrengthLoadSlope.is_strength_clustered());
        assert!(!TuningMethod::CellLoadSlope.is_strength_clustered());
        assert!(TuningMethod::CellSlewSlope.is_slope_method());
        assert!(!TuningMethod::SigmaCeiling.is_slope_method());
    }

    #[test]
    fn defaults_match_table2() {
        let d = TuningParams::default();
        assert_eq!(d.load_slope, 1.0);
        assert_eq!(d.slew_slope, 0.06);
        assert_eq!(d.sigma_ceiling, 100.0);
    }

    #[test]
    fn sweeps_vary_exactly_one_parameter() {
        for m in TuningMethod::ALL {
            let sweep = TuningParams::table2_sweep(m);
            assert_eq!(sweep.len(), 4);
            for p in &sweep {
                let d = TuningParams::default();
                // The two non-varied parameters stay at defaults.
                match m {
                    TuningMethod::CellStrengthLoadSlope | TuningMethod::CellLoadSlope => {
                        assert_eq!(p.slew_slope, d.slew_slope);
                        assert_eq!(p.sigma_ceiling, d.sigma_ceiling);
                    }
                    TuningMethod::CellStrengthSlewSlope | TuningMethod::CellSlewSlope => {
                        assert_eq!(p.load_slope, d.load_slope);
                        assert_eq!(p.sigma_ceiling, d.sigma_ceiling);
                    }
                    TuningMethod::SigmaCeiling => {
                        assert_eq!(p.load_slope, d.load_slope);
                        assert_eq!(p.slew_slope, d.slew_slope);
                    }
                }
            }
        }
    }

    #[test]
    fn varied_value_reports_the_active_knob() {
        let p = TuningParams::with_sigma_ceiling(0.02);
        assert_eq!(p.varied_value(TuningMethod::SigmaCeiling), 0.02);
        let q = TuningParams::with_load_slope(0.03);
        assert_eq!(q.varied_value(TuningMethod::CellLoadSlope), 0.03);
    }

    #[test]
    fn display_names_are_distinct() {
        let names: std::collections::BTreeSet<String> =
            TuningMethod::ALL.iter().map(|m| m.to_string()).collect();
        assert_eq!(names.len(), 5);
    }
}
