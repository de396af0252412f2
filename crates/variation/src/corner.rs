//! Global (inter-die) corner model.
//!
//! Global variation shifts every device on a die together: a slow die is
//! slower everywhere. The paper validates (§VII.C, Fig. 15) that both the
//! mean and the sigma of a path scale by the *same factor* when moving to a
//! different corner, which is what makes the tuning method corner-portable.
//! We model a corner as a multiplicative delay factor plus a die-to-die
//! spread around it.

use crate::sampler::{Normal, Xoshiro256PlusPlus};

/// A named process corner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcessCorner {
    /// Fast silicon: lower delays.
    Fast,
    /// Typical silicon (the paper's TT1P1V25C).
    Typical,
    /// Slow silicon: higher delays.
    Slow,
}

impl ProcessCorner {
    /// All corners, slow to fast — the order used in Fig. 15 reports.
    pub const ALL: [ProcessCorner; 3] = [
        ProcessCorner::Fast,
        ProcessCorner::Typical,
        ProcessCorner::Slow,
    ];

    /// Nominal multiplicative delay factor of the corner relative to
    /// typical. Fast silicon at 40 nm is roughly 20 % faster, slow roughly
    /// 25 % slower — representative textbook values.
    pub fn delay_factor(self) -> f64 {
        match self {
            ProcessCorner::Fast => 0.80,
            ProcessCorner::Typical => 1.00,
            ProcessCorner::Slow => 1.25,
        }
    }

    /// Relative die-to-die sigma of the global delay factor within this
    /// corner. Global spread does not depend on cell size (it is common-mode
    /// across the die).
    pub fn global_rel_sigma(self) -> f64 {
        0.045
    }

    /// Conventional library name for the corner at 1.1 V / 25 °C, following
    /// the paper's `TT1P1V25C` naming.
    pub fn library_name(self) -> &'static str {
        match self {
            ProcessCorner::Fast => "FF1P1V25C",
            ProcessCorner::Typical => "TT1P1V25C",
            ProcessCorner::Slow => "SS1P1V25C",
        }
    }

    /// Samples one die's global delay factor at this corner.
    // Invariant: delay_factor/global_rel_sigma are compile-time constants
    // per corner, all finite and non-negative.
    #[allow(clippy::expect_used)]
    pub fn sample_die_factor(self, rng: &mut Xoshiro256PlusPlus) -> f64 {
        let n = Normal::new(
            self.delay_factor(),
            self.delay_factor() * self.global_rel_sigma(),
        )
        .expect("finite parameters");
        n.sample(rng).max(0.05)
    }
}

impl std::fmt::Display for ProcessCorner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ProcessCorner::Fast => "fast",
            ProcessCorner::Typical => "typical",
            ProcessCorner::Slow => "slow",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from;
    use crate::stats::Summary;

    #[test]
    fn corner_ordering_is_physical() {
        assert!(ProcessCorner::Fast.delay_factor() < ProcessCorner::Typical.delay_factor());
        assert!(ProcessCorner::Typical.delay_factor() < ProcessCorner::Slow.delay_factor());
        assert_eq!(ProcessCorner::Typical.delay_factor(), 1.0);
    }

    #[test]
    fn library_names_follow_convention() {
        assert_eq!(ProcessCorner::Typical.library_name(), "TT1P1V25C");
        assert_eq!(ProcessCorner::Fast.library_name(), "FF1P1V25C");
        assert_eq!(ProcessCorner::Slow.library_name(), "SS1P1V25C");
    }

    #[test]
    fn die_factor_distribution_centers_on_corner() {
        let mut rng = rng_from(5, "corner", 0);
        let samples: Vec<f64> = (0..20_000)
            .map(|_| ProcessCorner::Slow.sample_die_factor(&mut rng))
            .collect();
        let s = Summary::from_samples(&samples).unwrap();
        assert!((s.mean - 1.25).abs() < 0.01, "{}", s.mean);
        let expect_sigma = 1.25 * ProcessCorner::Slow.global_rel_sigma();
        assert!((s.std_dev - expect_sigma).abs() < 0.005, "{}", s.std_dev);
    }

    #[test]
    fn display_names() {
        assert_eq!(ProcessCorner::Fast.to_string(), "fast");
        assert_eq!(ProcessCorner::ALL.len(), 3);
    }
}
