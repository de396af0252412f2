//! Convolution of cell timing distributions into path and design
//! distributions (§V.B, eqs. 5–11).
//!
//! A data-path is a chain of cells, each with a delay mean μ and standard
//! deviation σ. Because the path delay is the sum of cell delays:
//!
//! * eq. (5): `μ_path = Σ μ_cell`,
//! * eq. (8)/(9): `σ²_path = Σ σ² + ρ·ΣΣ σᵢσⱼ (i≠j)` under the
//!   equal-correlation assumption `ρᵢⱼ = ρ`,
//! * eq. (10): with uncorrelated local variation (`ρ = 0`),
//!   `σ_path = √(Σ σ²)`,
//! * eq. (11): the design aggregates its per-endpoint worst paths the same
//!   way: `μ_design = Σ μ_path`, `σ_design = √(Σ σ²_path)`.

/// Mean path delay — eq. (5).
pub fn path_mean(cell_means: impl Iterator<Item = f64>) -> f64 {
    cell_means.sum()
}

/// Path sigma with uniform inter-cell correlation `rho` — eq. (9).
///
/// `rho = 0` reduces to eq. (10); `rho = 1` reduces to the linear sum
/// (fully correlated cells).
///
/// # Example
///
/// ```
/// use varitune_variation::convolve::path_sigma;
///
/// let sigmas = [3.0, 4.0];
/// assert!((path_sigma(&sigmas, 0.0) - 5.0).abs() < 1e-12); // RSS (eq. 10)
/// assert!((path_sigma(&sigmas, 1.0) - 7.0).abs() < 1e-12); // linear sum
/// ```
///
/// # Panics
///
/// Panics if `rho` is outside `[-1, 1]`.
pub fn path_sigma(cell_sigmas: &[f64], rho: f64) -> f64 {
    let sum_sq: f64 = cell_sigmas.iter().map(|s| s * s).sum();
    let sum: f64 = cell_sigmas.iter().sum();
    path_sigma_from_sums(sum, sum_sq, rho)
}

/// [`path_sigma`] from the path's running sums `Σσ` and `Σσ²`: the same
/// arithmetic, so sums accumulated in path order give the same bits.
/// Lets a caller that shares path prefixes keep three numbers per prefix
/// instead of the sigma list.
///
/// # Panics
///
/// Panics if `rho` is outside `[-1, 1]`.
pub fn path_sigma_from_sums(sum: f64, sum_sq: f64, rho: f64) -> f64 {
    assert!(
        (-1.0..=1.0).contains(&rho),
        "correlation must be in [-1, 1]"
    );
    // ΣΣ_{i≠j} σᵢσⱼ = (Σσ)² − Σσ².
    let cross = sum * sum - sum_sq;
    let var = sum_sq + rho * cross;
    var.max(0.0).sqrt()
}

/// Path sigma under uncorrelated local variation — eq. (10).
pub fn path_sigma_rho0(cell_sigmas: impl Iterator<Item = f64>) -> f64 {
    cell_sigmas.map(|s| s * s).sum::<f64>().sqrt()
}

/// Design mean — first half of eq. (11): sum of per-endpoint worst-path
/// means.
pub fn design_mean(path_means: impl Iterator<Item = f64>) -> f64 {
    path_means.sum()
}

/// Design sigma — second half of eq. (11): RSS of per-endpoint worst-path
/// sigmas.
pub fn design_sigma(path_sigmas: impl Iterator<Item = f64>) -> f64 {
    path_sigmas.map(|s| s * s).sum::<f64>().sqrt()
}

/// Full covariance-matrix path variance for heterogeneous correlations —
/// eq. (8) with an explicit matrix. Provided for validation of the
/// equal-correlation shortcut.
///
/// # Panics
///
/// Panics if `corr` is not a `sigmas.len()`-square matrix or has diagonal
/// entries different from 1.
pub fn path_sigma_full(sigmas: &[f64], corr: &[Vec<f64>]) -> f64 {
    let n = sigmas.len();
    assert_eq!(corr.len(), n, "correlation matrix must be square");
    for (i, row) in corr.iter().enumerate() {
        assert_eq!(row.len(), n, "correlation matrix must be square");
        assert!(
            (row[i] - 1.0).abs() < 1e-12,
            "correlation diagonal must be 1"
        );
    }
    let mut var = 0.0;
    for i in 0..n {
        for j in 0..n {
            var += sigmas[i] * sigmas[j] * corr[i][j];
        }
    }
    var.max(0.0).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_is_linear_sum() {
        assert_eq!(path_mean([1.0, 2.0, 3.5].into_iter()), 6.5);
        assert_eq!(path_mean(std::iter::empty()), 0.0);
    }

    #[test]
    fn rho0_is_rss() {
        let s = path_sigma_rho0([3.0, 4.0].into_iter());
        assert!((s - 5.0).abs() < 1e-12);
    }

    #[test]
    fn rho1_is_linear_sum() {
        let s = path_sigma(&[3.0, 4.0], 1.0);
        assert!((s - 7.0).abs() < 1e-12);
    }

    #[test]
    fn rho0_matches_generic() {
        let sigmas = [0.1, 0.2, 0.05, 0.3];
        let a = path_sigma(&sigmas, 0.0);
        let b = path_sigma_rho0(sigmas.iter().copied());
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn intermediate_rho_is_between_extremes() {
        let sigmas = [0.1, 0.2, 0.15];
        let lo = path_sigma(&sigmas, 0.0);
        let hi = path_sigma(&sigmas, 1.0);
        let mid = path_sigma(&sigmas, 0.4);
        assert!(lo < mid && mid < hi);
    }

    #[test]
    fn equal_rho_shortcut_matches_full_matrix() {
        let sigmas = [0.1, 0.25, 0.07];
        let rho = 0.3;
        let corr = vec![
            vec![1.0, rho, rho],
            vec![rho, 1.0, rho],
            vec![rho, rho, 1.0],
        ];
        let a = path_sigma(&sigmas, rho);
        let b = path_sigma_full(&sigmas, &corr);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn negative_rho_reduces_sigma() {
        let sigmas = [0.2, 0.2];
        assert!(path_sigma(&sigmas, -0.5) < path_sigma(&sigmas, 0.0));
        // Perfect anti-correlation of equal sigmas cancels completely.
        assert!(path_sigma(&sigmas, -1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "correlation")]
    fn rho_out_of_range_panics() {
        let _ = path_sigma(&[0.1], 1.5);
    }

    #[test]
    fn design_aggregation_matches_eq11() {
        let means = [1.0, 2.0];
        let sigmas = [0.3, 0.4];
        assert!((design_mean(means.into_iter()) - 3.0).abs() < 1e-12);
        assert!((design_sigma(sigmas.into_iter()) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn deeper_path_of_identical_cells_has_higher_sigma() {
        // The §VII.B observation: under eq. (10) with identical cells,
        // sigma grows like sqrt(depth).
        let short = path_sigma_rho0(std::iter::repeat_n(0.01, 3));
        let long = path_sigma_rho0(std::iter::repeat_n(0.01, 48));
        assert!((long / short - 4.0).abs() < 1e-12); // sqrt(48/3) = 4
    }

    #[test]
    #[should_panic(expected = "square")]
    fn full_matrix_shape_checked() {
        let _ = path_sigma_full(&[0.1, 0.2], &[vec![1.0, 0.0]]);
    }
}
