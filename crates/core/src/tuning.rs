//! The two-stage tuning pipeline (§VI.B–C): threshold extraction per
//! cluster, then per-pin LUT restriction.
//!
//! Stage 1 (slope methods only) derives a **sigma threshold** per cluster:
//! build the cluster's maximum-equivalent sigma LUT, convert it to slew and
//! load slope tables (eqs. 12–13), binarize both against the slope bounds,
//! AND them, find the largest flat rectangle, and read the sigma at the
//! rectangle corner furthest from the origin. The sigma-ceiling method uses
//! its ceiling as the threshold directly.
//!
//! Stage 2 restricts every output pin: build the pin's maximum-equivalent
//! delay-sigma LUT over its timing arcs, binarize against the threshold,
//! take the largest acceptable rectangle, and emit the corresponding
//! min/max slew and load window for synthesis.

use std::collections::BTreeMap;

use varitune_libchar::{StatLibrary, TableKind};
use varitune_liberty::{CellId, Lut};
use varitune_synth::{LibraryConstraints, OperatingWindow};

use crate::methods::{TuningMethod, TuningParams};
use crate::rectangle::{largest_rectangle, Rect};
use crate::slope::{and_tables, binarize, load_slope_table, max_equivalent, slew_slope_table};

/// Threshold extracted for one cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterThreshold {
    /// Cluster label (`"drive 4"` or the cell name).
    pub label: String,
    /// Number of cells in the cluster.
    pub cells: usize,
    /// Extracted sigma threshold (ns); `None` when the cluster has no flat
    /// region under the slope bounds (its cells are left unrestricted).
    pub sigma_threshold: Option<f64>,
}

/// Where a [`TunedLibrary`] came from. Every optimizer backend stamps its
/// candidates so reports can label them without guessing from shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TuningProvenance {
    /// One of the paper's five Table-2 methods (§VI.A) run through the
    /// two-stage [`tune`] pipeline.
    Paper {
        /// Method that produced this tuning.
        method: TuningMethod,
        /// Parameters used.
        params: TuningParams,
    },
    /// A member of the evolutionary optimizer's Pareto front.
    Evolutionary {
        /// Master seed of the search that produced it.
        seed: u64,
        /// Position in the final front, sorted by ascending sigma.
        front_index: usize,
    },
}

impl std::fmt::Display for TuningProvenance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TuningProvenance::Paper { method, params } => {
                write!(f, "{method} ({})", params.varied_value(*method))
            }
            TuningProvenance::Evolutionary { seed, front_index } => {
                write!(f, "evolutionary seed {seed} front #{front_index}")
            }
        }
    }
}

/// Result of tuning a statistical library.
#[derive(Debug, Clone, PartialEq)]
pub struct TunedLibrary {
    /// Backend and parameters that produced this tuning.
    pub provenance: TuningProvenance,
    /// Per-pin operating windows for synthesis.
    pub constraints: LibraryConstraints,
    /// Stage-1 thresholds per cluster (empty for backends without a
    /// cluster stage, e.g. the evolutionary search).
    pub cluster_thresholds: Vec<ClusterThreshold>,
    /// Output pins that received a restriction.
    pub restricted_pins: usize,
    /// Output pins left unrestricted (no acceptable rectangle, or the whole
    /// LUT was acceptable).
    pub unrestricted_pins: usize,
}

impl TunedLibrary {
    /// The paper method behind this tuning, when there is one.
    pub fn method(&self) -> Option<TuningMethod> {
        match self.provenance {
            TuningProvenance::Paper { method, .. } => Some(method),
            TuningProvenance::Evolutionary { .. } => None,
        }
    }

    /// The paper parameters behind this tuning, when there are any.
    pub fn params(&self) -> Option<TuningParams> {
        match self.provenance {
            TuningProvenance::Paper { params, .. } => Some(params),
            TuningProvenance::Evolutionary { .. } => None,
        }
    }
}

/// Runs the full tuning pipeline on `stat` with `method` and `params`.
pub fn tune(stat: &StatLibrary, method: TuningMethod, params: TuningParams) -> TunedLibrary {
    let clusters = build_clusters(stat, method);

    // Stage 1: sigma threshold per cluster, recorded densely by cell id —
    // stage 2 then reads it by position, never by name.
    let mut cluster_thresholds = Vec::with_capacity(clusters.len());
    let mut threshold_of: Vec<Option<f64>> = vec![None; stat.sigma.cells.len()];
    for (label, cells) in &clusters {
        let threshold = if method.is_slope_method() {
            extract_cluster_threshold(stat, cells, &params)
        } else {
            Some(params.sigma_ceiling)
        };
        if threshold.is_some() {
            for c in cells {
                threshold_of[c.index()] = threshold;
            }
        }
        cluster_thresholds.push(ClusterThreshold {
            label: label.clone(),
            cells: cells.len(),
            sigma_threshold: threshold,
        });
    }

    // Stage 2: per-pin LUT restriction.
    let mut constraints = LibraryConstraints::unconstrained();
    let mut restricted = 0usize;
    let mut unrestricted = 0usize;
    for (ci, cell) in stat.sigma.cells.iter().enumerate() {
        let Some(threshold) = threshold_of[ci] else {
            unrestricted += cell.output_pins().count();
            continue;
        };
        for pin in cell.output_pins() {
            let delay_tables: Vec<&Lut> = pin
                .timing
                .iter()
                .flat_map(|a| TableKind::DELAYS.iter().filter_map(|k| k.of(a)))
                .collect();
            let Some(equiv) = max_equivalent(delay_tables) else {
                unrestricted += 1;
                continue;
            };
            let accept = binarize(&equiv, threshold);
            match largest_rectangle(&accept) {
                Some(rect) => {
                    let window = rect_to_window(&equiv, &rect);
                    if window_is_trivial(&equiv, &rect) {
                        unrestricted += 1;
                    } else {
                        constraints.set(cell.name.clone(), pin.name.clone(), window);
                        restricted += 1;
                    }
                }
                None => {
                    // Every entry exceeds the threshold. Excluding the cell
                    // entirely would make synthesis infeasible for some
                    // functions, so — like the paper's "without making the
                    // synthesis unfeasible" proviso — leave it unrestricted.
                    unrestricted += 1;
                }
            }
        }
    }

    if varitune_trace::is_recording() {
        varitune_trace::add("core.tune_calls", 1);
        varitune_trace::add("core.clusters_built", clusters.len() as u64);
        varitune_trace::observe("core.restricted_pins_per_tune", restricted as u64);
    }

    TunedLibrary {
        provenance: TuningProvenance::Paper { method, params },
        constraints,
        cluster_thresholds,
        restricted_pins: restricted,
        unrestricted_pins: unrestricted,
    }
}

/// Clusters the sigma-library cells per the method: by drive strength or
/// one cluster per cell. Cells without a parsable drive strength form their
/// own singleton clusters in strength mode. Clusters carry [`CellId`]
/// members; the `String` label is materialized once per cluster for the
/// report and sorted last to keep the historical (label-lexicographic)
/// cluster order.
fn build_clusters(stat: &StatLibrary, method: TuningMethod) -> Vec<(String, Vec<CellId>)> {
    let cells = &stat.sigma.cells;
    let mut clusters: Vec<(String, Vec<CellId>)> = if method.is_strength_clustered() {
        let mut by_drive: BTreeMap<u64, Vec<CellId>> = BTreeMap::new();
        let mut singles: Vec<(String, Vec<CellId>)> = Vec::new();
        for (i, cell) in cells.iter().enumerate() {
            match cell.drive_strength() {
                Some(d) => by_drive
                    .entry(d.to_bits())
                    .or_default()
                    .push(CellId(i as u32)),
                None => singles.push((format!("cell {}", cell.name), vec![CellId(i as u32)])),
            }
        }
        by_drive
            .into_iter()
            .map(|(bits, members)| (format!("drive {}", f64::from_bits(bits)), members))
            .chain(singles)
            .collect()
    } else {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| (format!("cell {}", c.name), vec![CellId(i as u32)]))
            .collect()
    };
    clusters.sort_by(|a, b| a.0.cmp(&b.0));
    clusters
}

/// Stage 1 for slope methods: equivalent LUT → slope tables → binary AND →
/// largest rectangle → sigma at the far corner.
fn extract_cluster_threshold(
    stat: &StatLibrary,
    cells: &[CellId],
    params: &TuningParams,
) -> Option<f64> {
    let tables: Vec<&Lut> = cells
        .iter()
        .map(|id| &stat.sigma.cells[id.index()])
        .flat_map(|c| c.output_pins())
        .flat_map(|p| &p.timing)
        .flat_map(|a| TableKind::DELAYS.iter().filter_map(|k| k.of(a)))
        .collect();
    let equiv = max_equivalent(tables)?;
    let slew_ok = binarize(&slew_slope_table(&equiv), params.slew_slope);
    let load_ok = binarize(&load_slope_table(&equiv), params.load_slope);
    let flat = and_tables(&slew_ok, &load_ok);
    let rect = largest_rectangle(&flat)?;
    // The marked entry of Fig. 6: the rectangle coordinate furthest from the
    // origin.
    Some(equiv.at(rect.row_hi, rect.col_hi))
}

/// Translates rectangle indices to an operating window over the LUT axes
/// via [`OperatingWindow::from_grid`], which owns the boundary-edge rules
/// (a rectangle edge on the table boundary imposes no bound in that
/// direction). Sharing that constructor keeps windows built from the same
/// rectangle bit-identical across every backend that emits them.
fn rect_to_window(lut: &Lut, rect: &Rect) -> OperatingWindow {
    OperatingWindow::from_grid(
        &lut.index_slew,
        &lut.index_load,
        rect.row_lo,
        rect.row_hi,
        rect.col_lo,
        rect.col_hi,
    )
}

/// A rectangle covering the entire LUT restricts nothing.
fn window_is_trivial(lut: &Lut, rect: &Rect) -> bool {
    rect.row_lo == 0
        && rect.col_lo == 0
        && rect.row_hi + 1 == lut.rows()
        && rect.col_hi + 1 == lut.cols()
}

#[cfg(test)]
mod tests {
    use super::*;
    use varitune_libchar::{generate_mc_libraries, generate_nominal, GenerateConfig};

    fn stat_fixture() -> StatLibrary {
        let cfg = GenerateConfig::small_for_tests();
        let nominal = generate_nominal(&cfg);
        let mc = generate_mc_libraries(&nominal, &cfg, 30, 2024);
        StatLibrary::from_libraries(&mc).unwrap()
    }

    #[test]
    fn sigma_ceiling_restricts_low_drives_first() {
        let stat = stat_fixture();
        let tuned = tune(
            &stat,
            TuningMethod::SigmaCeiling,
            TuningParams::with_sigma_ceiling(0.02),
        );
        // INV_1 has high sigma at heavy corners -> restricted.
        let w1 = tuned.constraints.window("INV_1", "Z");
        assert!(w1.max_load.is_finite(), "INV_1 should be load-restricted");
        // INV_8's sigma is ~sqrt(8) lower; its window should be looser (or
        // absent).
        let w8 = tuned.constraints.window("INV_8", "Z");
        let lib_max_1 = stat
            .mean
            .cell("INV_1")
            .unwrap()
            .pin("Z")
            .unwrap()
            .max_capacitance
            .unwrap();
        let lib_max_8 = stat
            .mean
            .cell("INV_8")
            .unwrap()
            .pin("Z")
            .unwrap()
            .max_capacitance
            .unwrap();
        let rel1 = w1.max_load / lib_max_1;
        let rel8 = w8.max_load.min(lib_max_8) / lib_max_8;
        assert!(rel8 > rel1, "INV_8 rel window {rel8} vs INV_1 {rel1}");
    }

    #[test]
    fn a_job_capture_records_the_tuning_counters() {
        let stat = stat_fixture();
        let (tuned, job) = varitune_trace::capture(|| {
            tune(
                &stat,
                TuningMethod::SigmaCeiling,
                TuningParams::with_sigma_ceiling(0.02),
            )
        });
        assert_eq!(job.counter("core.tune_calls"), 1);
        assert_eq!(
            job.counter("core.clusters_built"),
            tuned.cluster_thresholds.len() as u64
        );
        let per_tune = job.metrics.histograms.get("core.restricted_pins_per_tune");
        assert_eq!(
            per_tune.map(|h| (h.count, h.sum)),
            Some((1, tuned.restricted_pins as u64))
        );
    }

    #[test]
    fn tighter_ceiling_means_smaller_windows() {
        let stat = stat_fixture();
        let loose = tune(
            &stat,
            TuningMethod::SigmaCeiling,
            TuningParams::with_sigma_ceiling(0.04),
        );
        let tight = tune(
            &stat,
            TuningMethod::SigmaCeiling,
            TuningParams::with_sigma_ceiling(0.01),
        );
        let wl = loose.constraints.window("INV_1", "Z");
        let wt = tight.constraints.window("INV_1", "Z");
        assert!(
            wt.max_load <= wl.max_load,
            "tight {} vs loose {}",
            wt.max_load,
            wl.max_load
        );
        assert!(tight.restricted_pins >= loose.restricted_pins);
    }

    #[test]
    fn huge_ceiling_restricts_nothing() {
        let stat = stat_fixture();
        let tuned = tune(
            &stat,
            TuningMethod::SigmaCeiling,
            TuningParams::with_sigma_ceiling(100.0),
        );
        assert_eq!(tuned.restricted_pins, 0);
        assert!(tuned.constraints.is_empty());
    }

    #[test]
    fn impossible_ceiling_leaves_cells_usable() {
        // Sigma is strictly positive everywhere, so a ceiling of 0 accepts
        // nothing — the pipeline must fall back to "unrestricted", never to
        // an empty window.
        let stat = stat_fixture();
        let tuned = tune(
            &stat,
            TuningMethod::SigmaCeiling,
            TuningParams::with_sigma_ceiling(0.0),
        );
        assert_eq!(tuned.restricted_pins, 0);
        assert!(tuned.constraints.is_empty());
    }

    #[test]
    fn strength_clustering_groups_by_drive() {
        let stat = stat_fixture();
        let tuned = tune(
            &stat,
            TuningMethod::CellStrengthLoadSlope,
            TuningParams::with_load_slope(0.05),
        );
        // The small library has drives {1, 2, 4, 8} over 5 families.
        let labels: Vec<&str> = tuned
            .cluster_thresholds
            .iter()
            .map(|c| c.label.as_str())
            .collect();
        assert!(labels.contains(&"drive 1"));
        assert!(labels.contains(&"drive 8"));
        let d1 = tuned
            .cluster_thresholds
            .iter()
            .find(|c| c.label == "drive 1")
            .unwrap();
        assert!(d1.cells >= 4, "all families contribute drive-1 cells");
    }

    #[test]
    fn cell_clustering_is_one_per_cell() {
        let stat = stat_fixture();
        let tuned = tune(
            &stat,
            TuningMethod::CellLoadSlope,
            TuningParams::with_load_slope(0.05),
        );
        assert_eq!(tuned.cluster_thresholds.len(), stat.sigma.cells.len());
        assert!(tuned.cluster_thresholds.iter().all(|c| c.cells == 1));
    }

    #[test]
    fn slope_methods_extract_positive_thresholds() {
        let stat = stat_fixture();
        for m in [
            TuningMethod::CellLoadSlope,
            TuningMethod::CellSlewSlope,
            TuningMethod::CellStrengthLoadSlope,
            TuningMethod::CellStrengthSlewSlope,
        ] {
            let tuned = tune(&stat, m, TuningParams::table2_sweep(m)[1]);
            let any_threshold = tuned
                .cluster_thresholds
                .iter()
                .filter_map(|c| c.sigma_threshold)
                .any(|t| t > 0.0);
            assert!(any_threshold, "{m} extracted no thresholds");
        }
    }

    #[test]
    fn windows_always_include_origin_region() {
        // Sigma surfaces are lowest at the origin, so every emitted window
        // must contain the (0, 0) operating corner.
        let stat = stat_fixture();
        let tuned = tune(
            &stat,
            TuningMethod::SigmaCeiling,
            TuningParams::with_sigma_ceiling(0.015),
        );
        assert!(tuned.restricted_pins > 0);
        for ((_cell, _pin), w) in tuned.constraints.iter() {
            assert_eq!(w.min_slew, 0.0);
            assert_eq!(w.min_load, 0.0);
            assert!(w.max_load > 0.0);
        }
    }

    #[test]
    fn tuning_is_deterministic() {
        let stat = stat_fixture();
        let p = TuningParams::with_sigma_ceiling(0.02);
        let a = tune(&stat, TuningMethod::SigmaCeiling, p);
        let b = tune(&stat, TuningMethod::SigmaCeiling, p);
        assert_eq!(a, b);
    }

    #[test]
    fn pin_accounting_adds_up() {
        let stat = stat_fixture();
        let tuned = tune(
            &stat,
            TuningMethod::SigmaCeiling,
            TuningParams::with_sigma_ceiling(0.02),
        );
        let total_pins: usize = stat
            .sigma
            .cells
            .iter()
            .map(|c| c.output_pins().count())
            .sum();
        assert_eq!(tuned.restricted_pins + tuned.unrestricted_pins, total_pins);
    }
}
