//! Pelgrom local-mismatch model.
//!
//! Pelgrom's law states that the mismatch sigma of a device parameter scales
//! with the inverse square root of device area: `σ(ΔP) = A_P / √(W·L)`.
//! Larger drive strengths are built from wider (or parallel) transistors, so
//! the *relative* delay mismatch of a cell shrinks like `1/√D` where `D` is
//! the drive strength — the paper leans on exactly this observation (§VI.A,
//! citing Pelgrom et al.) when it clusters cells per drive strength.
//!
//! The model here maps a cell's drive strength and an operating point to the
//! standard deviation of a multiplicative delay perturbation; the
//! characterization engine samples that perturbation once per cell instance
//! per Monte-Carlo library.

use crate::sampler::{Normal, Xoshiro256PlusPlus};

/// Pelgrom-style local mismatch model.
///
/// # Example
///
/// ```
/// use varitune_variation::PelgromModel;
///
/// let m = PelgromModel::new();
/// // Quadrupling the drive halves the relative sigma (sqrt-area law).
/// let s1 = m.relative_sigma(1.0, 0.0);
/// let s4 = m.relative_sigma(4.0, 0.0);
/// assert!((s1 / s4 - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PelgromModel {
    /// Relative delay sigma of a unit-drive cell at the nominal operating
    /// point (e.g. 0.06 = 6 % of the nominal delay).
    pub base_rel_sigma: f64,
    /// Additional relative sigma contributed per unit of *normalized*
    /// electrical stress (load/drive beyond nominal). This makes the sigma
    /// surface climb toward high-load/low-drive corners of a LUT, which is
    /// the gradient the tuning method exploits.
    pub stress_rel_sigma: f64,
    /// Exponent of the drive-strength scaling; 0.5 is Pelgrom's √area law.
    pub area_exponent: f64,
}

impl Default for PelgromModel {
    fn default() -> Self {
        Self {
            base_rel_sigma: 0.06,
            stress_rel_sigma: 0.05,
            area_exponent: 0.5,
        }
    }
}

impl PelgromModel {
    /// Creates the model with the default 40 nm-flavoured constants.
    pub fn new() -> Self {
        Self::default()
    }

    /// Relative (multiplicative) delay sigma for a cell of drive strength
    /// `drive` operating at normalized electrical stress `stress ≥ 0`.
    ///
    /// `stress` is dimensionless: 0 at the easy corner of the LUT (fast input
    /// edge, light load), growing toward slow edges into heavy loads. The
    /// sigma both *grows with stress* and *shrinks with drive strength* —
    /// the two monotonicities visible in Fig. 4 of the paper.
    ///
    /// # Panics
    ///
    /// Panics if `drive` is not strictly positive.
    pub fn relative_sigma(&self, drive: f64, stress: f64) -> f64 {
        assert!(drive > 0.0, "drive strength must be positive");
        let stress = stress.max(0.0);
        (self.base_rel_sigma + self.stress_rel_sigma * stress) / drive.powf(self.area_exponent)
    }

    /// Samples one multiplicative delay perturbation `≥ 0.05` for a cell
    /// instance (truncation guards against non-physical negative delays in
    /// deep MC tails).
    pub fn sample_factor(&self, drive: f64, stress: f64, rng: &mut Xoshiro256PlusPlus) -> f64 {
        let sigma = self.relative_sigma(drive, stress);
        // Invariant: relative_sigma clamps drive/stress into its model
        // range and returns a finite non-negative value by construction.
        #[allow(clippy::expect_used)]
        let normal = Normal::new(1.0, sigma).expect("sigma is finite and non-negative");
        normal.sample(rng).max(0.05)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from;
    use crate::stats::Summary;

    #[test]
    fn sigma_shrinks_with_drive() {
        let m = PelgromModel::new();
        let s1 = m.relative_sigma(1.0, 0.0);
        let s4 = m.relative_sigma(4.0, 0.0);
        let s16 = m.relative_sigma(16.0, 0.0);
        assert!(s1 > s4 && s4 > s16);
        // sqrt law: x4 drive halves sigma.
        assert!((s1 / s4 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sigma_grows_with_stress() {
        let m = PelgromModel::new();
        assert!(m.relative_sigma(2.0, 1.0) > m.relative_sigma(2.0, 0.0));
        assert!(m.relative_sigma(2.0, 3.0) > m.relative_sigma(2.0, 1.0));
    }

    #[test]
    fn negative_stress_is_clamped() {
        let m = PelgromModel::new();
        assert_eq!(m.relative_sigma(1.0, -5.0), m.relative_sigma(1.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_drive_panics() {
        let _ = PelgromModel::new().relative_sigma(0.0, 0.0);
    }

    #[test]
    fn sampled_factors_match_requested_sigma() {
        let m = PelgromModel::new();
        let mut rng = rng_from(11, "pelgrom", 0);
        let samples: Vec<f64> = (0..20_000)
            .map(|_| m.sample_factor(1.0, 0.5, &mut rng))
            .collect();
        let s = Summary::from_samples(&samples).unwrap();
        let expect = m.relative_sigma(1.0, 0.5);
        assert!((s.mean - 1.0).abs() < 0.01, "mean {}", s.mean);
        assert!((s.std_dev - expect).abs() < 0.01, "sigma {}", s.std_dev);
    }

    #[test]
    fn sampled_factors_never_go_nonpositive() {
        // Huge sigma to exercise the truncation.
        let m = PelgromModel {
            base_rel_sigma: 2.0,
            stress_rel_sigma: 0.0,
            area_exponent: 0.5,
        };
        let mut rng = rng_from(3, "trunc", 0);
        for _ in 0..10_000 {
            assert!(m.sample_factor(1.0, 0.0, &mut rng) >= 0.05);
        }
    }
}
