//! Monte-Carlo simulation of extracted data-paths (Figs. 15 and 16).
//!
//! The paper extracts a short, a medium and a long path from the synthesized
//! design and runs transistor-level MC on them (N = 200) to validate two
//! properties of the statistical library:
//!
//! 1. moving to a different global corner scales the path **mean and sigma by
//!    the same factor** (Fig. 15), and
//! 2. the **share of local variation** in the total variation is large for
//!    short paths and decays with depth (Fig. 16 — 65 %, 37 %, 6 % for
//!    3/18/57-cell paths).
//!
//! Here a path is a chain of [`PathCell`]s (delay mean + relative local
//! sigma). A sample multiplies each cell's mean by an independent local
//! factor and, optionally, by one shared die factor.
//!
//! # Parallelism and determinism
//!
//! Every trial draws from its own seed stream, derived from the run seed
//! and the trial index ([`crate::rng::derive_seed`]), so trials are
//! independent by construction and [`simulate_path_threaded`] can chunk
//! them across threads through [`crate::parallel::run_trials`] with
//! **bit-identical results for any thread count** — `threads = 1` and
//! `threads = 64` produce the same samples in the same order.

use crate::corner::ProcessCorner;
use crate::parallel::run_trials;
use crate::rng::{derive_seed, rng_from};
use crate::sampler::Normal;
use crate::stats::Summary;

/// One cell of an extracted path, as seen by the MC engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathCell {
    /// Typical-corner delay mean of the cell at its operating point (ns).
    pub mean_delay: f64,
    /// Relative local-mismatch sigma of the cell at that operating point.
    pub local_rel_sigma: f64,
}

impl PathCell {
    /// Creates a path cell.
    ///
    /// # Panics
    ///
    /// Panics if `mean_delay` is negative or `local_rel_sigma` is negative.
    pub fn new(mean_delay: f64, local_rel_sigma: f64) -> Self {
        assert!(mean_delay >= 0.0, "mean delay must be non-negative");
        assert!(local_rel_sigma >= 0.0, "sigma must be non-negative");
        Self {
            mean_delay,
            local_rel_sigma,
        }
    }
}

/// Which variation sources a simulation includes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VariationMode {
    /// Local mismatch only: each cell gets an independent perturbation, the
    /// die factor is pinned to the corner nominal.
    LocalOnly,
    /// Global + local: one die factor per sample plus independent local
    /// perturbations (the paper's "global and local MC").
    GlobalAndLocal,
}

/// Result of a path MC run.
#[derive(Debug, Clone, PartialEq)]
pub struct McResult {
    /// Corner the run was performed at.
    pub corner: ProcessCorner,
    /// Variation sources included.
    pub mode: VariationMode,
    /// Raw path-delay samples (ns).
    pub samples: Vec<f64>,
    /// Summary statistics of `samples`.
    pub summary: Summary,
}

/// Runs an `n`-sample Monte Carlo of `path` at `corner` with the given
/// variation `mode`. Deterministic in `seed`; single-threaded (see
/// [`simulate_path_threaded`] for the parallel form that produces the same
/// bits).
///
/// # Example
///
/// ```
/// use varitune_variation::mc::{simulate_path, uniform_path, VariationMode};
/// use varitune_variation::ProcessCorner;
///
/// let path = uniform_path(10, 0.1, 0.05);
/// let run = simulate_path(&path, ProcessCorner::Typical, VariationMode::LocalOnly, 500, 1);
/// assert!((run.summary.mean - 1.0).abs() < 0.05); // 10 cells x 0.1 ns
/// ```
///
/// # Panics
///
/// Panics if `n == 0` or `path` is empty.
pub fn simulate_path(
    path: &[PathCell],
    corner: ProcessCorner,
    mode: VariationMode,
    n: usize,
    seed: u64,
) -> McResult {
    simulate_path_threaded(path, corner, mode, n, seed, 1)
}

/// [`simulate_path`] with the trial loop chunked over `threads` worker
/// threads (`0` = all available cores).
///
/// Each trial's stream is derived from `(seed, corner, mode, trial index)`,
/// so the samples — and therefore the summary — are **bit-identical for
/// every thread count**.
///
/// # Panics
///
/// Panics if `n == 0` or `path` is empty.
pub fn simulate_path_threaded(
    path: &[PathCell],
    corner: ProcessCorner,
    mode: VariationMode,
    n: usize,
    seed: u64,
    threads: usize,
) -> McResult {
    assert!(n > 0, "need at least one MC sample");
    assert!(!path.is_empty(), "path must contain at least one cell");
    let stream = derive_seed(seed, "path-mc", corner as u64 ^ ((mode as u64) << 8));
    // Invariant: PathCell sigmas are caller-constructed model constants,
    // finite and non-negative by the type's documented contract.
    #[allow(clippy::expect_used)]
    let locals: Vec<Normal> = path
        .iter()
        .map(|c| Normal::new(1.0, c.local_rel_sigma).expect("finite sigma"))
        .collect();
    let samples = run_trials(n, threads, |k| {
        let mut rng = rng_from(stream, "trial", k as u64);
        let die = match mode {
            VariationMode::LocalOnly => corner.delay_factor(),
            VariationMode::GlobalAndLocal => corner.sample_die_factor(&mut rng),
        };
        let mut delay = 0.0;
        for (cell, dist) in path.iter().zip(&locals) {
            let local = dist.sample(&mut rng).max(0.05);
            delay += cell.mean_delay * die * local;
        }
        delay
    });
    // Invariant: the `n > 0` assert at function entry guarantees samples.
    #[allow(clippy::expect_used)]
    let summary = Summary::from_samples(&samples).expect("n > 0");
    McResult {
        corner,
        mode,
        samples,
        summary,
    }
}

/// The share of total variance attributable to local variation, measured by
/// running both MC modes and comparing variances:
/// `σ²_local / σ²_total`.
///
/// Returns a fraction in `[0, 1]` (clamped; finite-sample noise can push the
/// raw ratio slightly above 1 for long paths where the local share is tiny).
pub fn local_variation_share(path: &[PathCell], corner: ProcessCorner, n: usize, seed: u64) -> f64 {
    local_variation_share_threaded(path, corner, n, seed, 1)
}

/// [`local_variation_share`] over the parallel engine; bit-identical for
/// any `threads` (`0` = all available cores).
pub fn local_variation_share_threaded(
    path: &[PathCell],
    corner: ProcessCorner,
    n: usize,
    seed: u64,
    threads: usize,
) -> f64 {
    let local = simulate_path_threaded(path, corner, VariationMode::LocalOnly, n, seed, threads);
    let total = simulate_path_threaded(
        path,
        corner,
        VariationMode::GlobalAndLocal,
        n,
        seed,
        threads,
    );
    let lv = local.summary.std_dev.powi(2);
    let tv = total.summary.std_dev.powi(2);
    if tv <= 0.0 {
        return 0.0;
    }
    (lv / tv).clamp(0.0, 1.0)
}

/// Builds an idealized `depth`-cell path of identical cells — handy for
/// tests and for the analytic cross-checks in the Fig. 16 experiment.
pub fn uniform_path(depth: usize, mean_delay: f64, local_rel_sigma: f64) -> Vec<PathCell> {
    vec![PathCell::new(mean_delay, local_rel_sigma); depth]
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: usize = 4000;

    #[test]
    fn local_only_mean_matches_analytic() {
        let path = uniform_path(10, 0.1, 0.05);
        let r = simulate_path(
            &path,
            ProcessCorner::Typical,
            VariationMode::LocalOnly,
            N,
            1,
        );
        assert!((r.summary.mean - 1.0).abs() < 0.01, "{}", r.summary.mean);
    }

    #[test]
    fn local_only_sigma_matches_rss() {
        let path = uniform_path(10, 0.1, 0.05);
        let r = simulate_path(
            &path,
            ProcessCorner::Typical,
            VariationMode::LocalOnly,
            N,
            2,
        );
        // Each cell sigma = 0.1*0.05 = 0.005; RSS over 10 = 0.0158.
        let expect = (10f64).sqrt() * 0.005;
        assert!(
            (r.summary.std_dev - expect).abs() < 0.002,
            "{} vs {}",
            r.summary.std_dev,
            expect
        );
    }

    #[test]
    fn corner_scales_mean_and_sigma_by_same_factor() {
        // The Fig. 15 property.
        let path = uniform_path(18, 0.12, 0.06);
        let typ = simulate_path(
            &path,
            ProcessCorner::Typical,
            VariationMode::LocalOnly,
            N,
            3,
        );
        let slow = simulate_path(&path, ProcessCorner::Slow, VariationMode::LocalOnly, N, 3);
        let mean_ratio = slow.summary.mean / typ.summary.mean;
        let sigma_ratio = slow.summary.std_dev / typ.summary.std_dev;
        assert!((mean_ratio - 1.25).abs() < 0.01, "{mean_ratio}");
        assert!((sigma_ratio - 1.25).abs() < 0.08, "{sigma_ratio}");
    }

    #[test]
    fn global_mode_increases_sigma() {
        let path = uniform_path(18, 0.12, 0.06);
        let local = simulate_path(
            &path,
            ProcessCorner::Typical,
            VariationMode::LocalOnly,
            N,
            4,
        );
        let both = simulate_path(
            &path,
            ProcessCorner::Typical,
            VariationMode::GlobalAndLocal,
            N,
            4,
        );
        assert!(both.summary.std_dev > local.summary.std_dev);
    }

    #[test]
    fn local_share_decays_with_depth() {
        // The Fig. 16 property: local share shrinks as the path deepens,
        // because the common-mode global term grows linearly with depth
        // while the local term grows like sqrt(depth).
        let short =
            local_variation_share(&uniform_path(3, 0.1, 0.08), ProcessCorner::Typical, N, 5);
        let medium =
            local_variation_share(&uniform_path(18, 0.1, 0.08), ProcessCorner::Typical, N, 5);
        let long =
            local_variation_share(&uniform_path(57, 0.1, 0.08), ProcessCorner::Typical, N, 5);
        assert!(short > medium, "short {short} vs medium {medium}");
        assert!(medium > long, "medium {medium} vs long {long}");
        assert!(short > 0.4, "short path should be local-dominated: {short}");
        assert!(long < 0.35, "long path should be global-dominated: {long}");
    }

    #[test]
    fn deterministic_in_seed() {
        let path = uniform_path(5, 0.1, 0.05);
        let a = simulate_path(
            &path,
            ProcessCorner::Fast,
            VariationMode::GlobalAndLocal,
            50,
            9,
        );
        let b = simulate_path(
            &path,
            ProcessCorner::Fast,
            VariationMode::GlobalAndLocal,
            50,
            9,
        );
        assert_eq!(a.samples, b.samples);
        let c = simulate_path(
            &path,
            ProcessCorner::Fast,
            VariationMode::GlobalAndLocal,
            50,
            10,
        );
        assert_ne!(a.samples, c.samples);
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        // The tentpole guarantee: 1, 2 and 8 threads agree to the bit, for
        // both variation modes.
        let path = uniform_path(12, 0.11, 0.07);
        for mode in [VariationMode::LocalOnly, VariationMode::GlobalAndLocal] {
            let one = simulate_path_threaded(&path, ProcessCorner::Slow, mode, 777, 42, 1);
            let two = simulate_path_threaded(&path, ProcessCorner::Slow, mode, 777, 42, 2);
            let eight = simulate_path_threaded(&path, ProcessCorner::Slow, mode, 777, 42, 8);
            assert_eq!(one.samples, two.samples);
            assert_eq!(one.samples, eight.samples);
            assert_eq!(one.summary, eight.summary);
        }
    }

    #[test]
    fn threaded_share_matches_sequential() {
        let path = uniform_path(9, 0.1, 0.06);
        let seq = local_variation_share(&path, ProcessCorner::Typical, 800, 3);
        let par = local_variation_share_threaded(&path, ProcessCorner::Typical, 800, 3, 4);
        assert_eq!(seq, par);
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn empty_path_panics() {
        let _ = simulate_path(&[], ProcessCorner::Typical, VariationMode::LocalOnly, 1, 0);
    }

    #[test]
    #[should_panic(expected = "at least one MC sample")]
    fn zero_samples_panics() {
        let path = uniform_path(1, 0.1, 0.01);
        let _ = simulate_path(
            &path,
            ProcessCorner::Typical,
            VariationMode::LocalOnly,
            0,
            0,
        );
    }
}
