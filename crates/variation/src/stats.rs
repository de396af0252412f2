//! Summary statistics and the local-variation metric discussion of §III.
//!
//! The paper compares two dispersion metrics for cell-delay distributions:
//! the *variability* (coefficient of variation, eq. 1) and the plain standard
//! deviation, and argues that the standard deviation is the right selection
//! metric because two distributions with identical variability can have very
//! different absolute spreads (Fig. 1). Both metrics are provided here.

/// Summary statistics of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (Bessel-corrected for `n > 1`, else 0).
    pub std_dev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Computes summary statistics of `samples`.
    ///
    /// Returns `None` for an empty slice.
    pub fn from_samples(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut acc = Accumulator::new();
        for &s in samples {
            acc.push(s);
        }
        acc.summary()
    }

    /// The *variability* metric of eq. (1): `std_dev / mean`.
    ///
    /// Returns `None` when the mean is zero (the ratio is undefined).
    pub fn variability(&self) -> Option<f64> {
        (self.mean != 0.0).then(|| self.std_dev / self.mean)
    }
}

/// Streaming (Welford) accumulator for mean and variance.
///
/// Numerically stable for the long MC sample streams produced by the
/// characterization engine; avoids materializing sample vectors when only a
/// [`Summary`] is needed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Accumulator {
    n: usize,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Accumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples seen so far.
    pub fn count(&self) -> usize {
        self.n
    }

    /// Current mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Current sample standard deviation (Bessel-corrected; 0 for < 2
    /// samples).
    pub fn std_dev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Finalizes into a [`Summary`], or `None` if no samples were pushed.
    pub fn summary(&self) -> Option<Summary> {
        (self.n > 0).then(|| Summary {
            n: self.n,
            mean: self.mean,
            std_dev: self.std_dev(),
            min: self.min,
            max: self.max,
        })
    }
}

impl Extend<f64> for Accumulator {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for Accumulator {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut acc = Accumulator::new();
        acc.extend(iter);
        acc
    }
}

/// Standard normal cumulative distribution function Φ(x).
///
/// Uses the Abramowitz–Stegun 7.1.26 rational approximation of `erf`
/// (absolute error < 1.5e-7), which is plenty for yield estimation.
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// Probability that a normally distributed delay `N(mean, sigma)` meets a
/// deadline: `P(delay ≤ deadline)`.
///
/// A zero sigma degenerates to a step function.
pub fn meet_probability(mean: f64, sigma: f64, deadline: f64) -> f64 {
    if sigma <= 0.0 {
        return if mean <= deadline { 1.0 } else { 0.0 };
    }
    normal_cdf((deadline - mean) / sigma)
}

/// Builds a histogram of `samples` over `bins` equal-width buckets spanning
/// `[lo, hi]`. Samples outside the range are clamped into the edge buckets.
///
/// Returns the per-bucket counts and the bucket width. Used by the Fig. 15/16
/// experiment reports.
///
/// # Panics
///
/// Panics if `bins == 0` or `hi <= lo`.
pub fn histogram(samples: &[f64], lo: f64, hi: f64, bins: usize) -> (Vec<usize>, f64) {
    assert!(bins > 0, "histogram needs at least one bin");
    assert!(hi > lo, "histogram range must be non-empty");
    let width = (hi - lo) / bins as f64;
    let mut counts = vec![0usize; bins];
    for &s in samples {
        let idx = (((s - lo) / width).floor() as isize).clamp(0, bins as isize - 1) as usize;
        counts[idx] += 1;
    }
    (counts, width)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_samples() {
        let s = Summary::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_eq!(s.n, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Population sigma is 2; Bessel-corrected is sqrt(32/7).
        assert!((s.std_dev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn summary_of_empty_is_none() {
        assert!(Summary::from_samples(&[]).is_none());
    }

    #[test]
    fn variability_matches_eq1() {
        // The Fig. 1 example: (mu=0.5, sigma=0.01) and (mu=5, sigma=0.1) have
        // identical variability 0.02 but different sigma.
        let left = Summary {
            n: 30,
            mean: 0.5,
            std_dev: 0.01,
            min: 0.0,
            max: 1.0,
        };
        let right = Summary {
            n: 30,
            mean: 5.0,
            std_dev: 0.1,
            min: 0.0,
            max: 10.0,
        };
        assert!((left.variability().unwrap() - 0.02).abs() < 1e-12);
        assert!((right.variability().unwrap() - 0.02).abs() < 1e-12);
        assert!(left.std_dev < right.std_dev);
    }

    #[test]
    fn variability_undefined_for_zero_mean() {
        let s = Summary {
            n: 2,
            mean: 0.0,
            std_dev: 1.0,
            min: -1.0,
            max: 1.0,
        };
        assert!(s.variability().is_none());
    }

    #[test]
    fn accumulator_matches_batch_summary() {
        let data = [0.3, -1.2, 5.5, 2.2, 0.0, 9.1, -3.3];
        let batch = Summary::from_samples(&data).unwrap();
        let streaming: Accumulator = data.iter().copied().collect();
        let s = streaming.summary().unwrap();
        assert!((s.mean - batch.mean).abs() < 1e-12);
        assert!((s.std_dev - batch.std_dev).abs() < 1e-12);
        assert_eq!(s.min, batch.min);
        assert_eq!(s.max, batch.max);
    }

    #[test]
    fn accumulator_single_sample_has_zero_sigma() {
        let mut a = Accumulator::new();
        a.push(3.0);
        let s = a.summary().unwrap();
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.mean, 3.0);
    }

    #[test]
    fn accumulator_is_stable_for_large_offsets() {
        // Classic catastrophic-cancellation case for naive sum-of-squares.
        let offset = 1e9;
        let data: Vec<f64> = [4.0, 7.0, 13.0, 16.0].iter().map(|x| x + offset).collect();
        let s = Summary::from_samples(&data).unwrap();
        assert!((s.std_dev - 30f64.sqrt()).abs() < 1e-6, "{}", s.std_dev);
    }

    #[test]
    fn normal_cdf_reference_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.0) - 0.841_344_7).abs() < 1e-6);
        assert!((normal_cdf(-1.0) - 0.158_655_3).abs() < 1e-6);
        assert!((normal_cdf(3.0) - 0.998_650_1).abs() < 1e-6);
        assert!(normal_cdf(8.0) > 0.999_999);
        assert!(normal_cdf(-8.0) < 1e-6);
    }

    #[test]
    fn normal_cdf_is_monotone_and_symmetric() {
        let mut prev = 0.0;
        for i in -40..=40 {
            let x = i as f64 / 10.0;
            let v = normal_cdf(x);
            assert!(v >= prev, "not monotone at {x}");
            assert!((v + normal_cdf(-x) - 1.0).abs() < 1e-6, "asymmetric at {x}");
            prev = v;
        }
    }

    #[test]
    fn meet_probability_degenerate_sigma() {
        assert_eq!(meet_probability(1.0, 0.0, 2.0), 1.0);
        assert_eq!(meet_probability(3.0, 0.0, 2.0), 0.0);
        // 3-sigma margin: ~99.87 %.
        assert!((meet_probability(1.0, 0.1, 1.3) - 0.99865).abs() < 1e-4);
    }

    #[test]
    fn histogram_counts_and_clamps() {
        let (counts, width) = histogram(&[0.0, 0.1, 0.9, 1.5, -2.0], 0.0, 1.0, 2);
        assert_eq!(counts, vec![3, 2]); // -2.0 clamps low, 1.5 clamps high
        assert!((width - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_rejects_zero_bins() {
        let _ = histogram(&[1.0], 0.0, 1.0, 0);
    }
}
