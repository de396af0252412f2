//! One function per table/figure of the paper's evaluation.
//!
//! Every function renders its artefact as plain text (tables and ASCII
//! bars) so the harness output can be diffed against `EXPERIMENTS.md`.
//! Absolute numbers differ from the paper (synthetic technology and
//! design); the *shapes* — who wins, by roughly what factor, where the
//! crossovers fall — are the reproduction target.

// Invariant behind every `expect` below: experiments run exclusively on
// generator-produced libraries and designs, so a failed lookup or synthesis
// is a harness bug worth crashing over, never an input condition. Each
// message names the invariant it asserts.
#![allow(clippy::expect_used)]

use std::fmt::Write as _;

use varitune_core::{TuningMethod, TuningParams};
use varitune_libchar::interp;
use varitune_libchar::TableKind;
use varitune_liberty::{CellKind, Lut};
use varitune_sta::paths::depth_histogram;
use varitune_sta::PathTiming;
use varitune_variation::mc::{local_variation_share, simulate_path, PathCell, VariationMode};
use varitune_variation::{ProcessCorner, Summary};

use crate::text::{bar, f3, pct, table};
use crate::Ctx;

/// Fig. 1 — why variability (σ/μ) is the wrong selection metric.
pub fn fig1(_ctx: &Ctx) -> String {
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
    let rows = vec![
        vec![
            "left".into(),
            f3(left.mean),
            f3(left.std_dev),
            f3(left.variability().expect("nonzero mean")),
        ],
        vec![
            "right".into(),
            f3(right.mean),
            f3(right.std_dev),
            f3(right.variability().expect("nonzero mean")),
        ],
    ];
    let mut s = String::from("Fig. 1 — identical variability, different dispersion\n");
    s.push_str(&table(&["pdf", "mean", "sigma", "variability"], &rows));
    s.push_str(
        "Both PDFs share variability 0.020, yet the left one has 10x less\n\
         absolute spread -> the standard deviation, not the coefficient of\n\
         variation, is the tuning metric (Section III).\n",
    );
    s
}

/// Fig. 2 — the statistical-library construction pipeline on one entry.
pub fn fig2(ctx: &Ctx) -> String {
    let stat = &ctx.flow.stat;
    let cell = "INV_1";
    let mean_lut = delay_lut(ctx, cell, true);
    let sigma_lut = delay_lut(ctx, cell, false);
    let (i, j) = (3, 3);
    let mut s = format!(
        "Fig. 2 — statistical library from {} MC libraries ({} cells)\n",
        stat.sample_count,
        stat.mean.cells.len()
    );
    let _ = writeln!(
        s,
        "example entry {cell} cell_rise[{i}][{j}] (slew {} ns, load {} pF):",
        f3(mean_lut.index_slew[i]),
        f3(mean_lut.index_load[j]),
    );
    let _ = writeln!(s, "  mean  = {} ns", f3(mean_lut.at(i, j)));
    let _ = writeln!(s, "  sigma = {} ns", f3(sigma_lut.at(i, j)));
    let _ = writeln!(
        s,
        "tables in statistical library: {} (structure identical to nominal)",
        stat.mean.table_count()
    );
    s
}

/// Fig. 3 — bilinear interpolation (eqs. 2–4) on a real LUT.
pub fn fig3(ctx: &Ctx) -> String {
    let lut = delay_lut(ctx, "INV_2", true);
    let (slew, load) = (
        0.5 * (lut.index_slew[2] + lut.index_slew[3]),
        0.5 * (lut.index_load[2] + lut.index_load[3]),
    );
    let x = lut.interpolate(slew, load).expect("in-grid query");
    let reference = interp::interpolate_reference(&lut, slew, load).expect("in-grid query");
    let mut s = String::from("Fig. 3 — bilinear interpolation (eqs. 2-4)\n");
    let _ = writeln!(
        s,
        "query (S = {} ns, L = {} pF) between grid lines:",
        f3(slew),
        f3(load)
    );
    let _ = writeln!(
        s,
        "  Q11 = {}  Q12 = {}  Q21 = {}  Q22 = {}",
        f3(lut.at(2, 2)),
        f3(lut.at(2, 3)),
        f3(lut.at(3, 2)),
        f3(lut.at(3, 3)),
    );
    let _ = writeln!(s, "  X (production) = {} ns", f3(x));
    let _ = writeln!(s, "  X (eqs. 2-4 reference) = {} ns", f3(reference));
    s
}

/// Fig. 4 — sigma surfaces of one inverter at several drive strengths.
pub fn fig4(ctx: &Ctx) -> String {
    let mut rows = Vec::new();
    let mut drives: Vec<f64> = ctx
        .flow
        .stat
        .sigma
        .cells
        .iter()
        .filter(|c| c.kind() == CellKind::Inverter)
        .filter_map(|c| c.drive_strength())
        .collect();
    drives.sort_by(f64::total_cmp);
    for d in drives {
        let name = if d.fract() == 0.0 {
            format!("INV_{}", d as i64)
        } else {
            format!("INV_{}", format!("{d:.1}").replace('.', "P"))
        };
        let Some(lut) = try_delay_lut(ctx, &name, false) else {
            continue;
        };
        let max = lut.max_value().expect("non-empty");
        let min = lut.min_value().expect("non-empty");
        let grad = mean_gradient(&lut);
        rows.push(vec![name, f3(min), f3(max), f3(grad)]);
    }
    let mut s = String::from(
        "Fig. 4 — inverter delay-sigma surfaces vs drive strength\n\
         (sigma falls and the surface flattens as drive grows — Pelgrom)\n",
    );
    s.push_str(&table(
        &["cell", "min sigma", "max sigma", "mean |gradient|"],
        &rows,
    ));
    s
}

/// Fig. 5 — sigma surfaces of every drive-6 cell.
pub fn fig5(ctx: &Ctx) -> String {
    let mut rows = Vec::new();
    for cell in &ctx.flow.stat.sigma.cells {
        if cell.drive_strength() != Some(6.0) {
            continue;
        }
        let Some(lut) = try_delay_lut(ctx, &cell.name, false) else {
            continue;
        };
        rows.push(vec![
            cell.name.clone(),
            f3(*lut.index_load.last().expect("non-empty axis")),
            f3(lut.max_value().expect("non-empty")),
            f3(mean_gradient(&lut)),
        ]);
    }
    let mut s = String::from(
        "Fig. 5 — delay-sigma surfaces of all drive-strength-6 cells\n\
         (load ranges and gradients differ per function, e.g. NR4_6)\n",
    );
    s.push_str(&table(
        &["cell", "max load (pF)", "max sigma", "mean |gradient|"],
        &rows,
    ));
    s
}

/// Fig. 6 — the largest rectangle on a binarized LUT, drawn in ASCII.
pub fn fig6(ctx: &Ctx) -> String {
    let lut = delay_lut(ctx, "INV_1", false);
    let threshold =
        0.5 * (lut.max_value().expect("non-empty") + lut.min_value().expect("non-empty"));
    let accept = varitune_core::slope::binarize(&lut, threshold);
    let rect = varitune_core::largest_rectangle(&accept).expect("half the table accepts");
    let mut s = format!(
        "Fig. 6 — largest rectangle on INV_1's binary LUT (threshold {} ns)\n",
        f3(threshold)
    );
    s.push_str("rows = slew index, cols = load index; R marks the rectangle\n");
    for (i, row) in accept.iter().enumerate() {
        for (j, &ok) in row.iter().enumerate() {
            let c = if rect.contains(i, j) {
                'R'
            } else if ok {
                '1'
            } else {
                '0'
            };
            s.push(c);
            s.push(' ');
        }
        s.push('\n');
    }
    let _ = writeln!(
        s,
        "marked (furthest) entry sigma = {} ns at [{}][{}]",
        f3(lut.at(rect.row_hi, rect.col_hi)),
        rect.row_hi,
        rect.col_hi
    );
    s
}

/// Fig. 7 — the sigma landscape of the whole statistical library.
pub fn fig7(ctx: &Ctx) -> String {
    let mut maxima = Vec::new();
    for cell in &ctx.flow.stat.sigma.cells {
        if let Some(v) = ctx.flow.stat.worst_delay_sigma(&cell.name) {
            maxima.push(v);
        }
    }
    maxima.sort_by(f64::total_cmp);
    let n = maxima.len();
    let mut s = format!(
        "Fig. 7 — delay-sigma landscape of the {} statistical library ({} cells)\n",
        ctx.flow.stat.mean.name, n
    );
    let _ = writeln!(
        s,
        "worst-entry sigma per cell: min {}  median {}  max {} (ns)",
        f3(maxima[0]),
        f3(maxima[n / 2]),
        f3(maxima[n - 1])
    );
    // A coarse ASCII histogram over 8 buckets.
    let (counts, width) =
        varitune_variation::stats::histogram(&maxima, maxima[0], maxima[n - 1] + 1e-12, 8);
    let peak = *counts.iter().max().expect("non-empty") as f64;
    for (k, &c) in counts.iter().enumerate() {
        let lo = maxima[0] + k as f64 * width;
        let _ = writeln!(
            s,
            "{:>7} ns | {:<40} {}",
            f3(lo),
            bar(c as f64, peak, 40),
            c
        );
    }
    s
}

/// Fig. 8 — clock period versus area for the baseline library.
pub fn fig8(ctx: &Ctx) -> String {
    let p = ctx.periods;
    let periods: Vec<f64> = [1.0, 1.04, 1.15, 1.3, 1.66, 2.2, 3.0, 4.15]
        .iter()
        .map(|f| (f * p.high * 100.0).round() / 100.0)
        .collect();
    let mut rows = Vec::new();
    let mut max_area: f64 = 0.0;
    let mut pts = Vec::new();
    for &period in &periods {
        let run = ctx.baseline(period);
        max_area = max_area.max(run.area());
        pts.push((period, run.area(), run.synthesis.met_timing));
    }
    for (period, area, met) in &pts {
        rows.push(vec![
            format!("{period:.2}"),
            format!("{area:.0}"),
            bar(*area, max_area, 36),
            if *met {
                "met".into()
            } else {
                "VIOLATED".into()
            },
        ]);
    }
    let mut s = String::from(
        "Fig. 8 — clock period vs total cell area (baseline library)\n\
         (area flattens once timing is easy; the knee marks relaxed timing)\n",
    );
    s.push_str(&table(&["period (ns)", "area (um^2)", "", "timing"], &rows));
    s
}

/// Table 1 — the clock periods used by every experiment.
pub fn tab1(ctx: &Ctx) -> String {
    let p = ctx.periods;
    let rows = vec![
        vec![
            "High performance".into(),
            format!("{:.2}", p.high),
            "2.41".into(),
        ],
        vec![
            "Close to maximum check".into(),
            format!("{:.2}", p.check),
            "2.50".into(),
        ],
        vec![
            "Medium performance".into(),
            format!("{:.2}", p.medium),
            "4.00".into(),
        ],
        vec![
            "Low performance".into(),
            format!("{:.2}", p.low),
            "10.00".into(),
        ],
    ];
    let mut s = String::from(
        "Table 1 — clock periods (ours derived from the synthetic design's\n\
         minimum achievable period; the paper's absolute values shown for\n\
         reference)\n",
    );
    s.push_str(&table(&["constraint", "ours (ns)", "paper (ns)"], &rows));
    s
}

/// Table 2 — the constraint-parameter grid.
pub fn tab2(_ctx: &Ctx) -> String {
    let rows = vec![
        vec![
            "Load slope bounds".into(),
            "1, 0.05, 0.03, 0.01".into(),
            "1".into(),
        ],
        vec![
            "Slew slope bounds".into(),
            "1, 0.05, 0.03, 0.01".into(),
            "0.06".into(),
        ],
        vec![
            "Sigma ceiling".into(),
            "0.04, 0.03, 0.02, 0.01".into(),
            "100".into(),
        ],
    ];
    let mut s = String::from(
        "Table 2 — constraint parameters used during threshold extraction\n\
         (one parameter sweeps, the others stay at their defaults)\n",
    );
    s.push_str(&table(&["parameter", "sweep values", "default"], &rows));
    s
}

/// Fig. 9 — cell usage, baseline vs best sigma-ceiling tuning, at the high
/// and low performance periods.
pub fn fig9(ctx: &Ctx) -> String {
    let mut s = format!(
        "Fig. 9 — cell use, baseline vs tuned ({})\n",
        TuningMethod::SigmaCeiling
    );
    for (label, period) in [
        ("(a) high performance", ctx.periods.high),
        ("(b) low performance", ctx.periods.low),
    ] {
        let baseline = ctx.baseline(period);
        let params = ctx
            .best_under_cap(TuningMethod::SigmaCeiling, period, 10.0)
            .map(|(p, _, _)| p)
            .unwrap_or_else(|| TuningParams::with_sigma_ceiling(0.02));
        let tuned = ctx.tuned_run(TuningMethod::SigmaCeiling, params, period);
        let rows: Vec<Vec<String>> = varitune_synth::usage_comparison(
            &baseline.synthesis.design.cell_usage(&ctx.flow.nominal),
            &tuned.1.synthesis.design.cell_usage(&ctx.flow.nominal),
            ctx.scale.usage_threshold,
        )
        .into_iter()
        .map(|r| {
            vec![
                r.cell,
                r.baseline.to_string(),
                r.tuned.to_string(),
                bar(r.tuned as f64, r.baseline.max(r.tuned).max(1) as f64, 20),
            ]
        })
        .collect();
        let _ = writeln!(
            s,
            "\n{label} @ {period:.2} ns (cells used > {} times; ceiling {})",
            ctx.scale.usage_threshold, params.sigma_ceiling
        );
        s.push_str(&table(&["cell", "baseline", "tuned", ""], &rows));
    }
    s.push_str(
        "\nExpected shape: tuned designs shift to higher drive strengths and\n\
         more inverters (buffering), as in the paper's Fig. 9.\n",
    );
    s
}

/// Fig. 10 — best sigma decrease (area < +10 %) per method and period.
pub fn fig10(ctx: &Ctx) -> String {
    let mut s = String::from(
        "Fig. 10 — highest sigma reduction at <10% area increase\n\
         (per tuning method and clock period)\n",
    );
    let mut rows = Vec::new();
    for (label, period) in ctx.periods.all() {
        let baseline = ctx.baseline(period);
        for method in TuningMethod::ALL {
            let best = ctx.best_under_cap(method, period, 10.0);
            match best {
                Some((params, run, cmp)) => rows.push(vec![
                    format!("{label} {period:.2}"),
                    method.to_string(),
                    format!("{}", params.varied_value(method)),
                    pct(-cmp.sigma_reduction_pct()),
                    pct(cmp.area_increase_pct()),
                    f3(run.1.design.sigma),
                    format!("{:.0}", run.1.area()),
                ]),
                None => rows.push(vec![
                    format!("{label} {period:.2}"),
                    method.to_string(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]),
            }
        }
        rows.push(vec![
            format!("{label} {period:.2}"),
            "(baseline)".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            f3(baseline.design.sigma),
            format!("{:.0}", baseline.area()),
        ]);
    }
    s.push_str(&table(
        &[
            "period",
            "method",
            "bound",
            "sigma delta",
            "area delta",
            "sigma (ns)",
            "area (um^2)",
        ],
        &rows,
    ));
    s.push_str(
        "\nExpected shape (paper): sigma ceiling gives the largest reduction\n\
         (37% @ +7% area at high performance); strength-clustered methods\n\
         trade smaller reductions for less area; relaxed clocks start from a\n\
         larger baseline sigma.\n",
    );
    s
}

/// Table 3 — the winning constraint parameter per method and period.
pub fn tab3(ctx: &Ctx) -> String {
    let mut s = String::from("Table 3 — constraint parameter achieving Fig. 10's best reduction\n");
    let mut rows = Vec::new();
    for method in TuningMethod::ALL {
        let mut row = vec![method.to_string()];
        for (_, period) in ctx.periods.all() {
            match ctx.best_under_cap(method, period, 10.0) {
                Some((params, _, _)) => row.push(format!("{}", params.varied_value(method))),
                None => row.push("-".into()),
            }
        }
        rows.push(row);
    }
    let p = ctx.periods;
    let headers = [
        "method".to_string(),
        format!("{:.2}", p.high),
        format!("{:.2}", p.check),
        format!("{:.2}", p.medium),
        format!("{:.2}", p.low),
    ];
    let hdr_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    s.push_str(&table(&hdr_refs, &rows));
    s
}

/// Fig. 11 — the sigma/area trade-off across the sigma-ceiling sweep at the
/// high-performance period.
pub fn fig11(ctx: &Ctx) -> String {
    let period = ctx.periods.high;
    let baseline = ctx.baseline(period);
    let mut rows = Vec::new();
    for params in TuningParams::table2_sweep(TuningMethod::SigmaCeiling) {
        let run = ctx.tuned_run(TuningMethod::SigmaCeiling, params, period);
        let cmp = varitune_core::Comparison::between(&baseline, &run.1);
        rows.push(vec![
            format!("{}", params.sigma_ceiling),
            pct(-cmp.sigma_reduction_pct()),
            pct(cmp.area_increase_pct()),
            f3(run.1.design.sigma),
            format!("{:.0}", run.1.area()),
        ]);
    }
    let mut s = format!(
        "Fig. 11 — sigma vs area trade-off, {} @ {period:.2} ns\n\
         (tighter ceilings cut more sigma but cost more area)\n",
        TuningMethod::SigmaCeiling
    );
    s.push_str(&table(
        &[
            "ceiling",
            "sigma delta",
            "area delta",
            "sigma (ns)",
            "area (um^2)",
        ],
        &rows,
    ));
    s
}

/// Fig. 12 — path-depth histograms, baseline vs sigma-ceiling tuned.
pub fn fig12(ctx: &Ctx) -> String {
    let period = ctx.periods.high;
    let baseline = ctx.baseline(period);
    let tuned = best_ceiling_run(ctx, period);
    let hb = depth_histogram(&baseline.paths);
    let ht = depth_histogram(&tuned.paths);
    let maxd = hb.len().max(ht.len());
    let peak = hb.iter().chain(ht.iter()).copied().max().unwrap_or(1) as f64;
    let mut s = format!("Fig. 12 — worst-path depth per unique endpoint @ {period:.2} ns\n");
    let _ = writeln!(
        s,
        "{:>5}  {:<24} {:<24}",
        "depth",
        "baseline",
        TuningMethod::SigmaCeiling
    );
    for d in 0..maxd {
        let b = hb.get(d).copied().unwrap_or(0);
        let t = ht.get(d).copied().unwrap_or(0);
        if b == 0 && t == 0 {
            continue;
        }
        let _ = writeln!(
            s,
            "{d:>5}  {:<24} {:<24}",
            format!("{:<4} {}", b, bar(b as f64, peak, 18)),
            format!("{:<4} {}", t, bar(t as f64, peak, 18)),
        );
    }
    let mean_depth = |paths: &[PathTiming]| {
        paths.iter().map(PathTiming::depth).sum::<usize>() as f64 / paths.len() as f64
    };
    let _ = writeln!(
        s,
        "\nmean depth: baseline {:.2}, tuned {:.2} (tuning restructures paths)",
        mean_depth(&baseline.paths),
        mean_depth(&tuned.paths)
    );
    s
}

/// Fig. 13 — path sigma vs path depth for baseline and tuned designs.
pub fn fig13(ctx: &Ctx) -> String {
    let period = ctx.periods.high;
    let baseline = ctx.baseline(period);
    let tuned = best_ceiling_run(ctx, period);
    let bucket = |paths: &[PathTiming]| {
        let mut rows = Vec::new();
        let maxd = paths.iter().map(PathTiming::depth).max().unwrap_or(0);
        let step = (maxd / 8).max(1);
        let mut d = 1;
        while d <= maxd {
            let hi = d + step - 1;
            let in_bucket: Vec<&PathTiming> = paths
                .iter()
                .filter(|p| p.depth() >= d && p.depth() <= hi)
                .collect();
            if !in_bucket.is_empty() {
                let mean_sigma =
                    in_bucket.iter().map(|p| p.sigma).sum::<f64>() / in_bucket.len() as f64;
                let max_sigma = in_bucket
                    .iter()
                    .map(|p| p.sigma)
                    .fold(f64::NEG_INFINITY, f64::max);
                rows.push((d, hi, in_bucket.len(), mean_sigma, max_sigma));
            }
            d += step;
        }
        rows
    };
    let mut s = format!("Fig. 13 — path sigma vs path depth @ {period:.2} ns\n");
    let ceiling = TuningMethod::SigmaCeiling.to_string();
    for (label, paths) in [
        ("baseline", &baseline.paths),
        (ceiling.as_str(), &tuned.paths),
    ] {
        let _ = writeln!(s, "\n{label}:");
        let rows: Vec<Vec<String>> = bucket(paths)
            .into_iter()
            .map(|(lo, hi, n, mean, max)| {
                vec![format!("{lo}-{hi}"), n.to_string(), f3(mean), f3(max)]
            })
            .collect();
        s.push_str(&table(
            &["depth", "paths", "mean sigma", "max sigma"],
            &rows,
        ));
    }
    s.push_str(
        "\nExpected shape: no monotone depth->sigma relation; the cells on the\n\
         path (drive strengths), not its length, set the sigma (paper Fig. 13).\n",
    );
    s
}

/// Fig. 14 — mean + 3σ per path, sorted by depth, baseline vs tuned.
pub fn fig14(ctx: &Ctx) -> String {
    let period = ctx.periods.high;
    let eff = ctx.synth_config(period).sta.effective_period();
    let mut s = format!(
        "Fig. 14 — mean + 3 sigma path delay vs depth @ {period:.2} ns\n\
         (effective period after guard band: {eff:.2} ns)\n"
    );
    let ceiling = format!("(b) {}", TuningMethod::SigmaCeiling);
    for (label, run) in [
        ("(a) baseline", ctx.baseline(period)),
        (ceiling.as_str(), best_ceiling_run(ctx, period)),
    ] {
        let mut paths: Vec<&PathTiming> = run.paths.iter().collect();
        paths.sort_by_key(|p| p.depth());
        let deciles = 10usize;
        let chunk = (paths.len() / deciles).max(1);
        let mut rows = Vec::new();
        for c in paths.chunks(chunk) {
            let lo = c.first().expect("non-empty").depth();
            let hi = c.last().expect("non-empty").depth();
            let mean = c.iter().map(|p| p.mean).sum::<f64>() / c.len() as f64;
            let m3s = c
                .iter()
                .map(|p| p.mean_plus_k_sigma(3.0))
                .fold(f64::NEG_INFINITY, f64::max);
            rows.push(vec![
                format!("{lo}-{hi}"),
                c.len().to_string(),
                f3(mean),
                f3(m3s),
                if m3s > eff {
                    "FAILS +3s".into()
                } else {
                    "ok".into()
                },
            ]);
        }
        let worst = run
            .paths
            .iter()
            .map(|p| p.mean_plus_k_sigma(3.0))
            .fold(f64::NEG_INFINITY, f64::max);
        let _ = writeln!(s, "\n{label}: worst mean+3sigma = {} ns", f3(worst));
        s.push_str(&table(
            &["depth", "paths", "mean (ns)", "max mean+3s", "vs period"],
            &rows,
        ));
    }
    s.push_str(
        "\nExpected shape: tuning homogenizes the cloud and lowers the worst\n\
         mean+3sigma (paper: 2.23 ns -> 2.19 ns).\n",
    );
    s
}

/// Fig. 15 — path Monte Carlo across corners: mean and sigma scale by the
/// same factor.
pub fn fig15(ctx: &Ctx) -> String {
    let (labels, mc_paths) = extracted_paths(ctx);
    let n = ctx.scale.mc_samples;
    let mut s = format!(
        "Fig. 15 — corner Monte Carlo (N = {n}) on three extracted paths\n\
         (local variation only; values relative to the typical corner)\n"
    );
    for (label, path) in labels.iter().zip(&mc_paths) {
        let typ = simulate_path(
            path,
            ProcessCorner::Typical,
            VariationMode::LocalOnly,
            n,
            15,
        );
        let mut rows = Vec::new();
        for corner in ProcessCorner::ALL {
            let r = simulate_path(path, corner, VariationMode::LocalOnly, n, 15);
            rows.push(vec![
                corner.to_string(),
                f3(r.summary.mean),
                f3(r.summary.std_dev),
                format!("{:.3}", r.summary.mean / typ.summary.mean),
                format!("{:.3}", r.summary.std_dev / typ.summary.std_dev),
            ]);
        }
        let _ = writeln!(s, "\n{label} ({} cells):", path.len());
        s.push_str(&table(
            &["corner", "mean (ns)", "sigma (ns)", "mean rel", "sigma rel"],
            &rows,
        ));
    }
    s.push_str(
        "\nExpected shape: mean rel ~= sigma rel at every corner, so the\n\
         tuning transfers across PVT corners (paper Fig. 15).\n",
    );
    s
}

/// Fig. 16 — global+local vs local-only MC: the local share decays with
/// path depth.
pub fn fig16(ctx: &Ctx) -> String {
    let (labels, mc_paths) = extracted_paths(ctx);
    let n = ctx.scale.mc_samples;
    let mut s = format!("Fig. 16 — variation decomposition (N = {n}) on three extracted paths\n");
    let mut rows = Vec::new();
    for (label, path) in labels.iter().zip(&mc_paths) {
        let local = simulate_path(
            path,
            ProcessCorner::Typical,
            VariationMode::LocalOnly,
            n,
            16,
        );
        let both = simulate_path(
            path,
            ProcessCorner::Typical,
            VariationMode::GlobalAndLocal,
            n,
            16,
        );
        let share = local_variation_share(path, ProcessCorner::Typical, n, 16);
        rows.push(vec![
            label.clone(),
            path.len().to_string(),
            f3(local.summary.std_dev),
            f3(both.summary.std_dev),
            format!("{:.0}%", 100.0 * share),
        ]);
    }
    s.push_str(&table(
        &[
            "path",
            "cells",
            "sigma local",
            "sigma glob+loc",
            "local share",
        ],
        &rows,
    ));
    s.push_str(
        "\nExpected shape: the local share is dominant for the short path and\n\
         decays with depth (paper: 65% / 37% / 6% for 3 / 18 / 57 cells).\n",
    );
    s
}

/// Ablation A — statistical-library accuracy vs Monte-Carlo depth.
///
/// §VII.C notes the library sigma overestimates path MC "due to the low
/// number of samples" and defers more samples to future work. Here we build
/// the statistical library at several N and track how the sigma estimate of
/// a reference entry converges.
pub fn abl_samples(ctx: &Ctx) -> String {
    use varitune_libchar::{generate_mc_libraries, StatLibrary};
    let gen_cfg = &ctx.flow.config.generate;
    let nominal = &ctx.flow.nominal;
    let depths = [5usize, 10, 30, 50, 100];
    // Deepest run is the reference.
    let max_n = *depths.last().expect("non-empty");
    let all_libs = generate_mc_libraries(nominal, gen_cfg, max_n, ctx.flow.config.seed);
    let reference = StatLibrary::from_libraries(&all_libs)
        .expect("generator output is structurally uniform")
        .worst_delay_sigma("INV_1")
        .expect("INV_1 exists");
    let mut rows = Vec::new();
    for &n in &depths {
        let stat = StatLibrary::from_libraries(&all_libs[..n])
            .expect("generator output is structurally uniform");
        let sigma = stat.worst_delay_sigma("INV_1").expect("INV_1 exists");
        rows.push(vec![
            n.to_string(),
            f3(sigma),
            pct(100.0 * (sigma / reference - 1.0)),
        ]);
    }
    let mut s = String::from(
        "Ablation A — sigma-estimate convergence vs number of MC libraries\n\
         (worst INV_1 delay-sigma entry; error vs the N=100 reference)\n",
    );
    s.push_str(&table(&["N libraries", "sigma (ns)", "error"], &rows));
    s.push_str(
        "\nThe paper's N=50 keeps the estimate within a few percent; tiny N\n\
         misestimates sigma exactly as SVII.C warns.\n",
    );
    s
}

/// Ablation B — sensitivity of the design sigma to the inter-cell
/// correlation ρ the paper assumes to be zero (eq. 9 vs eq. 10).
pub fn abl_rho(ctx: &Ctx) -> String {
    use varitune_sta::paths::worst_paths;
    let period = ctx.periods.medium;
    let baseline = ctx.baseline(period);
    let mut rows = Vec::new();
    for rho in [0.0, 0.1, 0.3, 0.6, 1.0] {
        let (_, design) = worst_paths(
            &baseline.synthesis.design,
            &ctx.flow.stat.mean,
            &ctx.flow.stat,
            &baseline.synthesis.report,
            rho,
        )
        .expect("paths extract");
        rows.push(vec![
            format!("{rho:.1}"),
            f3(design.sigma),
            format!("{:.2}x", design.sigma / baseline.design.sigma),
        ]);
    }
    let mut s = format!(
        "Ablation B — design sigma vs assumed inter-cell correlation rho\n\
         (baseline design @ {period:.2} ns; the paper argues rho = 0)\n"
    );
    s.push_str(&table(&["rho", "design sigma (ns)", "vs rho=0"], &rows));
    s.push_str(
        "\nCorrelation only scales the absolute sigma; the tuning comparison\n\
         (tuned vs baseline at the same rho) is unaffected, supporting the\n\
         paper's rho = 0 simplification.\n",
    );
    s
}

/// Ablation C — corner portability of the tuned library (§VII.C at design
/// level): the same windows applied at fast/slow corners scale mean and
/// sigma by the corner factor.
pub fn abl_corners(ctx: &Ctx) -> String {
    use varitune_core::flow::{Flow, FlowConfig};
    use varitune_libchar::GenerateConfig;
    use varitune_variation::ProcessCorner;
    let mut s = String::from(
        "Ablation C — tuning portability across global corners\n\
         (libraries re-characterized at each corner; same design, same\n\
         sigma-ceiling windows scaled by the corner's delay factor)\n",
    );
    let period = ctx.periods.medium;
    let mut rows = Vec::new();
    let mut typical_sigma = None;
    for corner in ProcessCorner::ALL {
        let cfg = FlowConfig {
            generate: GenerateConfig {
                name: corner.library_name().to_string(),
                corner_factor: corner.delay_factor(),
                ..ctx.flow.config.generate.clone()
            },
            mcu: ctx.flow.config.mcu.clone(),
            // Corner libraries are expensive; half the MC depth is plenty
            // for a scaling check.
            mc_libraries: (ctx.flow.config.mc_libraries / 2).max(10),
            seed: ctx.flow.config.seed,
            rho: ctx.flow.config.rho,
            threads: ctx.flow.config.threads,
            strictness: ctx.flow.config.strictness,
        };
        let flow = Flow::prepare(cfg).expect("corner flow");
        // Synthesize at a relaxed corner-scaled period so all corners close.
        let run = flow
            .run_baseline(&ctx.synth_config(period * corner.delay_factor().max(1.0) * 1.3))
            .expect("corner baseline");
        if corner == ProcessCorner::Typical {
            typical_sigma = Some(run.design.sigma);
        }
        rows.push(vec![
            corner.library_name().to_string(),
            format!("{:.2}", corner.delay_factor()),
            f3(run.design.mean),
            f3(run.design.sigma),
        ]);
    }
    if let Some(ts) = typical_sigma {
        for row in &mut rows {
            let sigma: f64 = row[3].parse().expect("formatted above");
            row.push(format!("{:.2}", sigma / ts));
        }
    }
    s.push_str(&table(
        &[
            "library",
            "corner factor",
            "design mean",
            "design sigma",
            "sigma rel",
        ],
        &rows,
    ));
    s.push_str(
        "\nExpected shape: sigma rel tracks the corner factor, so windows\n\
         extracted at TT remain valid at FF/SS (paper SVII.C).\n",
    );
    s
}

/// Ablation D — timing yield: what the sigma reduction buys in clock speed.
///
/// The introduction argues that reducing local variation lets the designer
/// shrink the clock uncertainty and run faster. This experiment makes that
/// concrete: parametric timing yield versus deadline for the baseline and
/// the tuned design, plus the deadline each needs for 99 % / 99.9 % yield.
pub fn abl_yield(ctx: &Ctx) -> String {
    use varitune_sta::paths::{deadline_at_yield, timing_yield};
    let period = ctx.periods.high;
    let baseline = ctx.baseline(period);
    let tuned = best_ceiling_run(ctx, period);
    let mut s = format!("Ablation D — parametric timing yield @ {period:.2} ns synthesis\n");
    let d99_base = deadline_at_yield(&baseline.paths, 0.99, 1e-4).expect("valid yield query");
    let d99_tuned = deadline_at_yield(&tuned.paths, 0.99, 1e-4).expect("valid yield query");
    let sweep_hi = d99_base.max(d99_tuned) * 1.05;
    let sweep_lo = sweep_hi * 0.8;
    let mut rows = Vec::new();
    for k in 0..=8 {
        let d = sweep_lo + (sweep_hi - sweep_lo) * k as f64 / 8.0;
        rows.push(vec![
            format!("{d:.3}"),
            format!("{:.4}", timing_yield(&baseline.paths, d)),
            format!("{:.4}", timing_yield(&tuned.paths, d)),
        ]);
    }
    s.push_str(&table(
        &["deadline (ns)", "baseline yield", "tuned yield"],
        &rows,
    ));
    let _ = writeln!(
        s,
        "\ndeadline for 99% yield:   baseline {} ns, tuned {} ns ({})",
        f3(d99_base),
        f3(d99_tuned),
        pct(100.0 * (d99_tuned / d99_base - 1.0)),
    );
    let d999_base = deadline_at_yield(&baseline.paths, 0.999, 1e-4).expect("valid yield query");
    let d999_tuned = deadline_at_yield(&tuned.paths, 0.999, 1e-4).expect("valid yield query");
    let _ = writeln!(
        s,
        "deadline for 99.9% yield: baseline {} ns, tuned {} ns ({})",
        f3(d999_base),
        f3(d999_tuned),
        pct(100.0 * (d999_tuned / d999_base - 1.0)),
    );
    s.push_str(
        "\nExpected shape: the tuned design reaches any yield target at a\n\
         shorter deadline — the variability cut converts into clock speed.\n",
    );
    s
}

/// Ablation E — windowed restriction vs the related-work baseline of
/// whole-cell exclusion, at matched sigma budgets.
///
/// The paper's premise is that confining a cell's LUT "becomes finer
/// grained" than removing the cell. This experiment quantifies that: at the
/// same sigma budget, the windowed method and the exclusion method are both
/// synthesized and compared on sigma reduction and area cost.
pub fn abl_exclusion(ctx: &Ctx) -> String {
    use varitune_core::exclusion::{apply_exclusion, tune_by_exclusion};
    use varitune_sta::paths::worst_paths;
    use varitune_synth::{synthesize, LibraryConstraints};
    let period = ctx.periods.medium;
    let baseline = ctx.baseline(period);
    let mut rows = Vec::new();
    for ceiling in [0.04, 0.03, 0.02, 0.01] {
        // Windowed (the paper's method).
        let windowed = ctx.tuned_run(
            TuningMethod::SigmaCeiling,
            TuningParams::with_sigma_ceiling(ceiling),
            period,
        );
        let wc = varitune_core::Comparison::between(&baseline, &windowed.1);
        // Exclusion (related-work baseline) with the same budget.
        let ex = tune_by_exclusion(&ctx.flow.stat, ceiling);
        let filtered = apply_exclusion(&ctx.flow.stat.mean, &ex);
        let synth = synthesize(
            &ctx.flow.netlist,
            &filtered,
            &LibraryConstraints::unconstrained(),
            &ctx.synth_config(period),
        )
        .expect("exclusion synthesis");
        let (_, design_t) = worst_paths(
            &synth.design,
            &ctx.flow.stat.mean,
            &ctx.flow.stat,
            &synth.report,
            ctx.flow.config.rho,
        )
        .expect("exclusion paths");
        let ex_sigma_red = 100.0 * (1.0 - design_t.sigma / baseline.design.sigma);
        let ex_area_inc = 100.0 * (synth.area / baseline.area() - 1.0);
        rows.push(vec![
            format!("{ceiling}"),
            pct(-wc.sigma_reduction_pct()),
            pct(wc.area_increase_pct()),
            format!("{}", ex.excluded.len()),
            pct(-ex_sigma_red),
            pct(ex_area_inc),
        ]);
    }
    let mut s = format!(
        "Ablation E — windowed LUT restriction vs whole-cell exclusion\n\
         (matched sigma budgets, @ {period:.2} ns; exclusion is the\n\
         related-work style of library tuning the paper improves on)\n"
    );
    s.push_str(&table(
        &[
            "budget",
            "window sigma",
            "window area",
            "cells dropped",
            "excl. sigma",
            "excl. area",
        ],
        &rows,
    ));
    s.push_str(
        "\nExpected shape: at matched budgets the windowed method reaches a\n\
         deeper sigma cut, because exclusion cannot say `use this cell, but\n\
         only in its quiet region'.\n",
    );
    s
}

/// Ablation F — power cost of the tuning (the §II/§III power extension,
/// consumer side): activity-based power of the baseline vs the tuned
/// design.
pub fn abl_power(ctx: &Ctx) -> String {
    use varitune_netlist::random_activity;
    use varitune_sta::{estimate_power_with_activity, PowerConfig};
    let period = ctx.periods.high;
    let baseline = ctx.baseline(period);
    let tuned = best_ceiling_run(ctx, period);
    let cfg = PowerConfig::with_clock_period(period);
    let mut rows = Vec::new();
    let ceiling = TuningMethod::SigmaCeiling.to_string();
    for (label, run) in [("baseline", &baseline), (ceiling.as_str(), &tuned)] {
        // Activity measured by simulating the mapped netlist (buffers
        // included) with random vectors.
        let activity = random_activity(&run.synthesis.design.netlist, 256, ctx.flow.config.seed)
            .expect("valid mapped netlist");
        let p = estimate_power_with_activity(
            &run.synthesis.design,
            &ctx.flow.stat.mean,
            &run.synthesis.report,
            &cfg,
            &activity.per_net,
        )
        .expect("power estimate");
        rows.push(vec![
            label.to_string(),
            format!("{:.3}", p.internal),
            format!("{:.3}", p.switching),
            format!("{:.3}", p.leakage),
            format!("{:.3}", p.total()),
        ]);
    }
    let base_total: f64 = rows[0][4].parse().expect("formatted above");
    let tuned_total: f64 = rows[1][4].parse().expect("formatted above");
    let mut s = format!(
        "Ablation F — average power @ {period:.2} ns (activity simulated over 256 random cycles)\n"
    );
    s.push_str(&table(
        &[
            "design",
            "internal mW",
            "switching mW",
            "leakage mW",
            "total mW",
        ],
        &rows,
    ));
    let _ = writeln!(
        s,
        "\npower cost of the sigma tuning: {}",
        pct(100.0 * (tuned_total / base_total - 1.0))
    );
    s.push_str(
        "Expected shape: tuning costs power in rough proportion to its area\n\
         cost (bigger drives, extra buffers) — the price of robustness the\n\
         paper trades against sigma.\n",
    );
    s
}

/// Ablation G — generality: the same tuned library applied to a completely
/// different design (a transposed FIR filter, arithmetic-dominated with
/// uniform path depths, versus the control-heavy microcontroller).
pub fn abl_fir(ctx: &Ctx) -> String {
    use varitune_core::{tune, Comparison};
    use varitune_netlist::{generate_fir, FirConfig};
    use varitune_sta::paths::worst_paths;
    use varitune_synth::{find_min_period, synthesize, LibraryConstraints};

    let fir_cfg = if ctx.scale.label == "paper" {
        FirConfig::paper_scale()
    } else {
        FirConfig::small_for_tests()
    };
    let fir = generate_fir(&fir_cfg);
    let (min_p, _) = find_min_period(
        &fir,
        &ctx.flow.stat.mean,
        &LibraryConstraints::unconstrained(),
        0.0,
        60.0,
        0.2,
    )
    .expect("FIR min-period search");
    // Synthesize at the FIR's own high-performance point so sizing is
    // actually stressed (a relaxed FIR barely exercises the windows: its
    // fanout-1 accumulator nets already sit in the quiet LUT corner).
    let period = min_p * 1.02;

    let run_with = |constraints: &LibraryConstraints| {
        let synth = synthesize(
            &fir,
            &ctx.flow.stat.mean,
            constraints,
            &ctx.synth_config(period),
        )
        .expect("FIR synthesis");
        let (paths, design_t) = worst_paths(
            &synth.design,
            &ctx.flow.stat.mean,
            &ctx.flow.stat,
            &synth.report,
            ctx.flow.config.rho,
        )
        .expect("FIR paths");
        drop(paths);
        (synth, design_t)
    };

    let (base_synth, base_t) = run_with(&LibraryConstraints::unconstrained());
    let mut s = format!(
        "Ablation G — generality on a FIR filter ({} gates) @ {period:.2} ns\n",
        fir.gate_count()
    );
    let mut rows = vec![vec![
        "baseline".to_string(),
        "-".into(),
        f3(base_t.sigma),
        format!("{:.0}", base_synth.area),
        "-".into(),
        "-".into(),
    ]];
    for ceiling in [0.03, 0.02] {
        let tuned = tune(
            &ctx.flow.stat,
            TuningMethod::SigmaCeiling,
            TuningParams::with_sigma_ceiling(ceiling),
        );
        let (synth, design_t) = run_with(&tuned.constraints);
        let cmp = Comparison {
            baseline_sigma: base_t.sigma,
            tuned_sigma: design_t.sigma,
            baseline_area: base_synth.area,
            tuned_area: synth.area,
        };
        rows.push(vec![
            TuningMethod::SigmaCeiling.to_string(),
            format!("{ceiling}"),
            f3(design_t.sigma),
            format!("{:.0}", synth.area),
            pct(-cmp.sigma_reduction_pct()),
            pct(cmp.area_increase_pct()),
        ]);
    }
    s.push_str(&table(
        &[
            "design",
            "ceiling",
            "sigma (ns)",
            "area (um^2)",
            "sigma delta",
            "area delta",
        ],
        &rows,
    ));
    s.push_str(
        "\nExpected shape: the sigma reduction carries over to the\n\
         arithmetic-dominated design — the method tunes the library, not one\n\
         netlist.\n",
    );
    s
}

// ---------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------

fn delay_lut(ctx: &Ctx, cell: &str, mean: bool) -> Lut {
    try_delay_lut(ctx, cell, mean).unwrap_or_else(|| panic!("cell {cell} present in library"))
}

fn try_delay_lut(ctx: &Ctx, cell: &str, mean: bool) -> Option<Lut> {
    let lib = if mean {
        &ctx.flow.stat.mean
    } else {
        &ctx.flow.stat.sigma
    };
    let pin = lib.cell(cell)?.output_pins().next()?;
    TableKind::CellRise.of(pin.timing.first()?).cloned()
}

/// Mean absolute slope of a LUT over both directions — the "flatness" shown
/// in the Fig. 4/5 surfaces.
fn mean_gradient(lut: &Lut) -> f64 {
    let slew = varitune_core::slope::slew_slope_table(lut);
    let load = varitune_core::slope::load_slope_table(lut);
    let sum: f64 = slew
        .values
        .iter()
        .chain(load.values.iter())
        .flatten()
        .map(|v| v.abs())
        .sum();
    let n = 2 * lut.rows() * lut.cols();
    sum / n as f64
}

/// The tuned run used in Figs. 12–14: the best sigma-ceiling candidate at
/// `period` (falling back to ceiling 0.02 when nothing beats the area cap).
fn best_ceiling_run(ctx: &Ctx, period: f64) -> std::rc::Rc<varitune_core::FlowRun> {
    let params = ctx
        .best_under_cap(TuningMethod::SigmaCeiling, period, 10.0)
        .map(|(p, _, _)| p)
        .unwrap_or_else(|| TuningParams::with_sigma_ceiling(0.02));
    let run = ctx.tuned_run(TuningMethod::SigmaCeiling, params, period);
    std::rc::Rc::new(run.1.clone())
}

/// Extracts a short, a medium and a long worst path from the baseline at
/// the high-performance period and converts them to MC path models.
fn extracted_paths(ctx: &Ctx) -> (Vec<String>, Vec<Vec<PathCell>>) {
    let baseline = ctx.baseline(ctx.periods.high);
    let mut paths: Vec<&PathTiming> = baseline.paths.iter().filter(|p| p.depth() >= 2).collect();
    paths.sort_by_key(|p| p.depth());
    assert!(!paths.is_empty(), "design has at least one multi-cell path");
    let short = paths[0];
    let long = paths[paths.len() - 1];
    let mid_target = (short.depth() + long.depth()) / 2;
    let medium = paths
        .iter()
        .min_by_key(|p| p.depth().abs_diff(mid_target))
        .expect("non-empty");
    let stat = &ctx.flow.stat;
    let convert = |p: &PathTiming| -> Vec<PathCell> {
        p.cells
            .iter()
            .map(|c| {
                let (m, s) = stat
                    .delay_stat_id(c.cell, c.out_pin, c.slew, c.load)
                    .expect("path cells resolve in the statistical library");
                PathCell::new(m, if m > 0.0 { s / m } else { 0.0 })
            })
            .collect()
    };
    (
        vec![
            format!("short (depth {})", short.depth()),
            format!("medium (depth {})", medium.depth()),
            format!("long (depth {})", long.depth()),
        ],
        vec![convert(short), convert(medium), convert(long)],
    )
}

/// Every experiment id the harness knows, in reporting order. The `abl-*`
/// entries are this reproduction's extensions (sample-depth convergence,
/// ρ sensitivity, corner portability).
pub const ALL_IDS: [&str; 26] = [
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "tab1",
    "tab2",
    "fig9",
    "fig10",
    "tab3",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "abl-samples",
    "abl-rho",
    "abl-corners",
    "abl-yield",
    "abl-exclusion",
    "abl-power",
    "abl-fir",
];

/// Runs one experiment by id.
///
/// # Panics
///
/// Panics on an unknown id (the binary validates first).
pub fn run_experiment(ctx: &Ctx, id: &str) -> String {
    match id {
        "fig1" => fig1(ctx),
        "fig2" => fig2(ctx),
        "fig3" => fig3(ctx),
        "fig4" => fig4(ctx),
        "fig5" => fig5(ctx),
        "fig6" => fig6(ctx),
        "fig7" => fig7(ctx),
        "fig8" => fig8(ctx),
        "tab1" => tab1(ctx),
        "tab2" => tab2(ctx),
        "fig9" => fig9(ctx),
        "fig10" => fig10(ctx),
        "tab3" => tab3(ctx),
        "fig11" => fig11(ctx),
        "fig12" => fig12(ctx),
        "fig13" => fig13(ctx),
        "fig14" => fig14(ctx),
        "fig15" => fig15(ctx),
        "fig16" => fig16(ctx),
        "abl-samples" => abl_samples(ctx),
        "abl-rho" => abl_rho(ctx),
        "abl-corners" => abl_corners(ctx),
        "abl-yield" => abl_yield(ctx),
        "abl-exclusion" => abl_exclusion(ctx),
        "abl-power" => abl_power(ctx),
        "abl-fir" => abl_fir(ctx),
        other => panic!("unknown experiment id `{other}`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    /// One shared small context for every experiment smoke test (building
    /// it is the expensive part).
    fn ctx() -> &'static Ctx {
        use std::sync::OnceLock;
        // Ctx contains RefCell, so it is not Sync; tests in this module run
        // on one thread per test but share via a leak-once pattern guarded
        // by a mutex-free OnceLock of a raw pointer is unsound. Instead,
        // build a fresh context lazily per process via thread_local.
        thread_local! {
            static CTX: &'static Ctx = Box::leak(Box::new(Ctx::new(Scale::small())));
        }
        static INIT: OnceLock<()> = OnceLock::new();
        let _ = INIT.get_or_init(|| ());
        CTX.with(|c| *c)
    }

    #[test]
    fn cheap_experiments_render() {
        let c = ctx();
        for id in [
            "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "tab1", "tab2",
        ] {
            let out = run_experiment(c, id);
            assert!(out.len() > 80, "{id} output too short:\n{out}");
        }
    }

    #[test]
    fn fig1_shows_equal_variability() {
        let out = fig1(ctx());
        assert!(out.contains("0.020"));
    }

    #[test]
    fn fig15_16_run_on_extracted_paths() {
        let c = ctx();
        let out15 = fig15(c);
        assert!(out15.contains("typical"));
        assert!(out15.contains("slow"));
        let out16 = fig16(c);
        assert!(out16.contains("local share"));
    }

    #[test]
    fn fig11_reports_all_ceilings() {
        let out = fig11(ctx());
        for ceiling in ["0.04", "0.03", "0.02", "0.01"] {
            assert!(out.contains(ceiling), "{out}");
        }
    }

    #[test]
    fn all_ids_are_unique_and_covered() {
        let set: std::collections::BTreeSet<&str> = ALL_IDS.into_iter().collect();
        assert_eq!(set.len(), ALL_IDS.len());
    }

    #[test]
    fn ablation_samples_converges() {
        let out = abl_samples(ctx());
        assert!(out.contains("N libraries"));
        // The N=100 row is the reference, so its error is +0.0%.
        assert!(out.contains("+0.0%"), "{out}");
    }

    #[test]
    fn ablation_rho_scales_sigma_monotonically() {
        let out = abl_rho(ctx());
        assert!(
            out.contains("1.00x"),
            "rho=0 row is the unit reference:\n{out}"
        );
        assert!(out.contains("rho"));
    }

    #[test]
    fn ablation_corners_reports_all_three_libraries() {
        let out = abl_corners(ctx());
        for lib in ["FF1P1V25C", "TT1P1V25C", "SS1P1V25C"] {
            assert!(out.contains(lib), "{out}");
        }
    }
}
