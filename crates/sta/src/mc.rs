//! Monte-Carlo validation of extracted worst paths (Figs. 15–16 at design
//! scale).
//!
//! [`crate::paths`] attaches *analytic* statistical parameters to each
//! worst path (convolution, eqs. 5–11). This module closes the loop the
//! way the paper does in §VII: convert an extracted [`PathTiming`] into the
//! per-cell Monte-Carlo model of [`varitune_variation::mc`] and actually
//! sample it — per corner, with local-only or global+local variation — so
//! the analytic sigma can be validated against a simulated one.
//!
//! All sampling runs on the deterministic parallel engine: each
//! (path, trial) pair draws from its own derived seed stream, so results
//! are bit-identical for any thread count.

use varitune_libchar::StatLibrary;
use varitune_variation::mc::{simulate_path_threaded, McResult, PathCell, VariationMode};
use varitune_variation::parallel::run_trials;
use varitune_variation::rng::derive_seed;
use varitune_variation::ProcessCorner;

use crate::graph::StaError;
use crate::paths::PathTiming;

/// Converts an extracted worst path into the MC cell model: per-cell mean
/// and *relative* local sigma from the statistical library at the recorded
/// operating point of every cell.
///
/// # Errors
///
/// Propagates [`StaError`] if a cell's statistical tables cannot be
/// evaluated at its operating point.
pub fn mc_cells(path: &PathTiming, stat: &StatLibrary) -> Result<Vec<PathCell>, StaError> {
    path.cells
        .iter()
        .map(|c| {
            let (m, s) = c.delay_stat(stat)?;
            Ok(PathCell::new(m, if m > 0.0 { s / m } else { 0.0 }))
        })
        .collect()
}

/// One simulated path: the MC run plus the analytic parameters it
/// validates.
#[derive(Debug, Clone, PartialEq)]
pub struct PathMcResult {
    /// Index of the path in the input slice.
    pub path_index: usize,
    /// Analytic path mean from the convolution (ns).
    pub analytic_mean: f64,
    /// Analytic path sigma from the convolution (ns).
    pub analytic_sigma: f64,
    /// The Monte-Carlo run.
    pub mc: McResult,
}

/// Runs an `n`-sample Monte Carlo on every path in `paths`, parallelized
/// **across paths** over `threads` workers (`0` = all available cores).
///
/// Path `i` simulates with the seed `derive_seed(seed, "sta-path-mc", i)`,
/// so the result set is deterministic in `seed` and bit-identical for any
/// thread count.
///
/// # Errors
///
/// [`StaError::InvalidParameter`] if `n == 0` (a sample count is data,
/// not an invariant — it must not panic); otherwise propagates the first
/// [`StaError`] from [`mc_cells`]. Empty paths are skipped rather than
/// rejected, since flip-flop-only endpoints can legitimately produce
/// depth-0 paths.
pub fn simulate_worst_paths(
    paths: &[PathTiming],
    stat: &StatLibrary,
    corner: ProcessCorner,
    mode: VariationMode,
    n: usize,
    seed: u64,
    threads: usize,
) -> Result<Vec<PathMcResult>, StaError> {
    if n == 0 {
        return Err(StaError::InvalidParameter {
            reason: "Monte Carlo sample count must be at least 1, got 0".to_string(),
        });
    }
    // Table lookups are cheap and fallible: do them up front, sequentially,
    // so the parallel section is infallible.
    let mut jobs: Vec<(usize, Vec<PathCell>)> = Vec::new();
    for (i, p) in paths.iter().enumerate() {
        let cells = mc_cells(p, stat)?;
        if !cells.is_empty() {
            jobs.push((i, cells));
        }
    }
    let results = run_trials(jobs.len(), threads, |j| {
        let (path_index, cells) = &jobs[j];
        let path_seed = derive_seed(seed, "sta-path-mc", *path_index as u64);
        // Trials stay sequential inside one path; parallelism is across
        // paths, which is where the design-scale work is.
        simulate_path_threaded(cells, corner, mode, n, path_seed, 1)
    });
    Ok(jobs
        .iter()
        .zip(results)
        .map(|(&(path_index, _), mc)| PathMcResult {
            path_index,
            analytic_mean: paths[path_index].mean,
            analytic_sigma: paths[path_index].sigma,
            mc,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{analyze, StaConfig};
    use crate::mapped::{MappedDesign, WireModel};
    use crate::paths::worst_paths;
    use varitune_libchar::{generate_mc_libraries, generate_nominal, GenerateConfig};
    use varitune_liberty::Library;
    use varitune_netlist::{GateKind, Netlist};

    fn fixtures() -> (Library, StatLibrary) {
        let cfg = GenerateConfig::small_for_tests();
        let nominal = generate_nominal(&cfg);
        let mc = generate_mc_libraries(&nominal, &cfg, 25, 7);
        let stat = StatLibrary::from_libraries(&mc).unwrap();
        (nominal, stat)
    }

    fn two_chain_design() -> MappedDesign {
        let mut nl = Netlist::new("two-chains");
        let a = nl.add_input("a");
        let mut prev = a;
        for i in 0..3 {
            let z = nl.add_net(format!("s{i}"));
            nl.add_gate(GateKind::Inv, &[prev], &[z]);
            prev = z;
        }
        nl.mark_output(prev);
        let b = nl.add_input("b");
        let mut prev = b;
        for i in 0..9 {
            let z = nl.add_net(format!("l{i}"));
            nl.add_gate(GateKind::Inv, &[prev], &[z]);
            prev = z;
        }
        nl.mark_output(prev);
        let lib = generate_nominal(&GenerateConfig::small_for_tests());
        MappedDesign::from_names(nl, &["INV_2"; 12], &lib, WireModel::default()).unwrap()
    }

    fn fixture_paths() -> (StatLibrary, Vec<PathTiming>) {
        let (lib, stat) = fixtures();
        let d = two_chain_design();
        let r = analyze(&d, &lib, &StaConfig::with_clock_period(10.0)).unwrap();
        let (paths, _) = worst_paths(&d, &lib, &stat, &r, 0.0).unwrap();
        (stat, paths)
    }

    #[test]
    fn mc_validates_analytic_parameters() {
        let (stat, paths) = fixture_paths();
        let results = simulate_worst_paths(
            &paths,
            &stat,
            ProcessCorner::Typical,
            VariationMode::LocalOnly,
            2000,
            11,
            0,
        )
        .unwrap();
        assert_eq!(results.len(), paths.len());
        for r in &results {
            // Simulated mean within 5 % of the analytic convolution mean,
            // simulated sigma within 25 % of the analytic RSS sigma.
            let dm = (r.mc.summary.mean - r.analytic_mean).abs() / r.analytic_mean;
            assert!(dm < 0.05, "path {}: mean off by {dm}", r.path_index);
            let ds = (r.mc.summary.std_dev - r.analytic_sigma).abs() / r.analytic_sigma;
            assert!(ds < 0.25, "path {}: sigma off by {ds}", r.path_index);
        }
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let (stat, paths) = fixture_paths();
        let run = |threads| {
            simulate_worst_paths(
                &paths,
                &stat,
                ProcessCorner::Slow,
                VariationMode::GlobalAndLocal,
                300,
                5,
                threads,
            )
            .unwrap()
        };
        let one = run(1);
        let two = run(2);
        let eight = run(8);
        assert_eq!(one, two);
        assert_eq!(one, eight);
    }

    #[test]
    fn zero_samples_is_an_error_not_a_panic() {
        let (stat, paths) = fixture_paths();
        let err = simulate_worst_paths(
            &paths,
            &stat,
            ProcessCorner::Typical,
            VariationMode::LocalOnly,
            0,
            1,
            1,
        )
        .unwrap_err();
        assert!(matches!(err, StaError::InvalidParameter { .. }), "{err}");
    }

    #[test]
    fn unknown_cell_is_an_error_not_a_panic() {
        let (stat, mut paths) = fixture_paths();
        paths[0].cells[0].cell = varitune_liberty::CellId(u32::MAX);
        let err = simulate_worst_paths(
            &paths,
            &stat,
            ProcessCorner::Typical,
            VariationMode::LocalOnly,
            10,
            1,
            1,
        );
        assert!(err.is_err());
    }
}
