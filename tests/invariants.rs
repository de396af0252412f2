//! Invariant suite: the laws the flow relies on — rectangle extraction,
//! bilinear interpolation, path-sigma convolution, streaming statistics,
//! the Liberty round trip and the SSTA canonical-form algebra.
//!
//! Each law runs on hand-picked edge cases (empty/full grids, irregular
//! axes, degenerate sigmas, exact ties) and on [`CASES`] generated
//! inputs. Every generated case owns one in-tree xoshiro256++ stream,
//! derived from [`SEED`], the property's label and the case index, so the
//! suite runs offline, every run draws the same inputs, and a failure
//! message prints the inputs that failed.

use varitune::core::{largest_rectangle, largest_rectangle_bruteforce};
use varitune::libchar::interp;
use varitune::liberty::Lut;
use varitune::sta::ssta::CanonicalForm;
use varitune::variation::convolve::{path_sigma, path_sigma_full, path_sigma_rho0};
use varitune::variation::rng::rng_from;
use varitune::variation::stats::{Accumulator, Summary};
use varitune::variation::Xoshiro256PlusPlus;

/// Generated cases per property.
const CASES: u64 = 256;

/// The parent seed of every generated input.
const SEED: u64 = 0x1A7A_2014;

/// One generator per generated case of `property`.
fn cases(property: &'static str) -> impl Iterator<Item = Xoshiro256PlusPlus> {
    (0..CASES).map(move |case| rng_from(SEED, property, case))
}

/// A uniform draw from `[lo, hi)`.
fn uniform(rng: &mut Xoshiro256PlusPlus, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_f64()
}

/// A uniform draw from `lo..=hi`.
fn between(rng: &mut Xoshiro256PlusPlus, lo: usize, hi: usize) -> usize {
    lo + (rng.next_u64() % (hi - lo + 1) as u64) as usize
}

// ---------------------------------------------------------------------
// Largest rectangle: the optimized implementation is exactly Algorithm 1.
// ---------------------------------------------------------------------

/// A spread of fixed grids: empty, full, single-true, ragged shapes, the
/// staircase that defeats naive row-scans, and a checkerboard.
fn rectangle_grids() -> Vec<Vec<Vec<bool>>> {
    let b = |s: &str| -> Vec<bool> { s.chars().map(|c| c == '1').collect() };
    vec![
        vec![b("0")],
        vec![b("1")],
        vec![b("0000"), b("0000")],
        vec![b("1111"), b("1111"), b("1111")],
        vec![b("0100"), b("0110"), b("0111"), b("0010")],
        vec![b("10101"), b("01010"), b("10101")],
        vec![b("111000"), b("111100"), b("111110"), b("000111")],
        vec![b("1"), b("1"), b("1"), b("0"), b("1")],
        vec![b("0110"), b("1111"), b("1111"), b("0110")],
    ]
}

/// Random grids of 1–8 rows and 1–8 columns, each entry a fair coin.
fn seeded_grids() -> Vec<Vec<Vec<bool>>> {
    cases("rectangle")
        .map(|mut rng| {
            let (rows, cols) = (between(&mut rng, 1, 8), between(&mut rng, 1, 8));
            (0..rows)
                .map(|_| (0..cols).map(|_| rng.next_u64() & 1 == 1).collect())
                .collect()
        })
        .collect()
}

fn assert_rectangle_impls_agree(grids: Vec<Vec<Vec<bool>>>) {
    for grid in grids {
        assert_eq!(
            largest_rectangle(&grid),
            largest_rectangle_bruteforce(&grid),
            "grid {grid:?}"
        );
    }
}

#[test]
fn rectangle_impls_agree_on_fixed_grids() {
    assert_rectangle_impls_agree(rectangle_grids());
}

#[test]
fn rectangle_impls_agree_on_seeded_grids() {
    assert_rectangle_impls_agree(seeded_grids());
}

#[test]
fn rectangle_is_all_true_and_maximal_area() {
    for grid in rectangle_grids().into_iter().chain(seeded_grids()) {
        match largest_rectangle(&grid) {
            Some(r) => {
                for row in &grid[r.row_lo..=r.row_hi] {
                    for &cell in &row[r.col_lo..=r.col_hi] {
                        assert!(cell, "covered false entry in {grid:?}");
                    }
                }
                let brute = largest_rectangle_bruteforce(&grid).expect("same result");
                assert_eq!(brute.area(), r.area(), "grid {grid:?}");
            }
            None => assert!(grid.iter().flatten().all(|&c| !c), "grid {grid:?}"),
        }
    }
}

// ---------------------------------------------------------------------
// Bilinear interpolation.
// ---------------------------------------------------------------------

/// Strictly increasing, quadratically spaced axes of `rows` slews and
/// `cols` loads, the irregular spacing a characterized table has.
fn lut_axes(rows: usize, cols: usize) -> (Vec<f64>, Vec<f64>) {
    let slew = (0..rows).map(|i| 0.01 * ((i * i + i + 1) as f64)).collect();
    let load = (0..cols)
        .map(|j| 0.002 * ((j * j + 2 * j + 1) as f64))
        .collect();
    (slew, load)
}

/// A 4×5 LUT on [`lut_axes`] with non-monotone values.
fn fixed_lut() -> Lut {
    let (slew, load) = lut_axes(4, 5);
    let values = vec![
        vec![0.11, 0.34, 0.58, 0.92, 1.40],
        vec![0.19, 0.41, 0.33, 1.05, 1.62],
        vec![0.27, 0.52, 0.81, 1.21, 1.90],
        vec![0.45, 0.70, 1.02, 1.48, 2.31],
    ];
    Lut::new(slew, load, values)
}

/// A 2–6 × 2–6 LUT on [`lut_axes`] with values uniform in `[0, 10)`.
fn seeded_lut(rng: &mut Xoshiro256PlusPlus) -> Lut {
    let (rows, cols) = (between(rng, 2, 6), between(rng, 2, 6));
    let (slew, load) = lut_axes(rows, cols);
    let values = (0..rows)
        .map(|_| (0..cols).map(|_| uniform(rng, 0.0, 10.0)).collect())
        .collect();
    Lut::new(slew, load, values)
}

/// Interpolates `lut` at the fractions `(ts, tl)` of its slew and load
/// spans and compares with the eqs. (2)–(4) reference.
fn assert_matches_reference(lut: &Lut, ts: f64, tl: f64) {
    let s0 = lut.index_slew[0];
    let s1 = *lut.index_slew.last().expect("non-empty");
    let l0 = lut.index_load[0];
    let l1 = *lut.index_load.last().expect("non-empty");
    let s = s0 + ts * (s1 - s0);
    let l = l0 + tl * (l1 - l0);
    let a = lut.interpolate(s, l).expect("valid lut");
    let b = interp::interpolate_reference(lut, s, l).expect("in grid");
    assert!((a - b).abs() < 1e-9, "({ts}, {tl}) on {lut:?}: {a} vs {b}");
}

#[test]
fn interpolation_matches_eq234_reference() {
    // A grid of interior and boundary query points on the fixed table.
    let lut = fixed_lut();
    for ts in [0.0, 0.13, 0.37, 0.5, 0.71, 0.99, 1.0] {
        for tl in [0.0, 0.22, 0.48, 0.66, 0.94, 1.0] {
            assert_matches_reference(&lut, ts, tl);
        }
    }
    for mut rng in cases("interpolation-reference") {
        let lut = seeded_lut(&mut rng);
        let (ts, tl) = (rng.next_f64(), rng.next_f64());
        assert_matches_reference(&lut, ts, tl);
    }
}

fn assert_bounded_by_extremes(lut: &Lut, s: f64, l: f64) {
    let lo = lut.min_value().expect("non-empty");
    let hi = lut.max_value().expect("non-empty");
    let v = lut.interpolate(s, l).expect("valid lut");
    assert!(
        v >= lo - 1e-9 && v <= hi + 1e-9,
        "({s}, {l}): {v} not in [{lo}, {hi}]"
    );
}

#[test]
fn interpolation_is_bounded_by_table_extremes() {
    // Includes points far outside the characterized grid (clamping).
    let lut = fixed_lut();
    for s in [0.0, 0.005, 0.02, 0.09, 0.5, 2.0] {
        for l in [0.0, 0.001, 0.01, 0.05, 0.4, 2.0] {
            assert_bounded_by_extremes(&lut, s, l);
        }
    }
    for mut rng in cases("interpolation-bounds") {
        let lut = seeded_lut(&mut rng);
        let s = uniform(&mut rng, -1.0, 2.0).abs();
        let l = uniform(&mut rng, -1.0, 2.0).abs();
        assert_bounded_by_extremes(&lut, s, l);
    }
}

#[test]
fn interpolation_recovers_grid_points() {
    let seeded = cases("interpolation-grid").map(|mut rng| seeded_lut(&mut rng));
    for lut in std::iter::once(fixed_lut()).chain(seeded) {
        for (i, j, expect) in lut.entries() {
            let v = lut
                .interpolate(lut.index_slew[i], lut.index_load[j])
                .expect("valid");
            assert!((v - expect).abs() < 1e-9, "({i}, {j}): {v} vs {expect}");
        }
    }
}

// ---------------------------------------------------------------------
// Convolution (eqs. 8–10).
// ---------------------------------------------------------------------

/// Hand-picked sigma lists, then one generated list per case of
/// `property`: `min_len..=max_len` sigmas uniform in `[lo, 1)`.
fn sigma_sets(property: &'static str, min_len: usize, max_len: usize, lo: f64) -> Vec<Vec<f64>> {
    let fixed = vec![
        vec![0.3],
        vec![0.01, 0.01],
        vec![0.0, 0.5, 0.0],
        vec![0.12, 0.07, 0.33, 0.02],
        vec![0.9, 0.8, 0.7, 0.6, 0.5, 0.4],
    ];
    let seeded = cases(property).map(|mut rng| {
        let n = between(&mut rng, min_len, max_len);
        (0..n).map(|_| uniform(&mut rng, lo, 1.0)).collect()
    });
    fixed.into_iter().chain(seeded).collect()
}

#[test]
fn equal_rho_matches_full_covariance() {
    let mut rng = rng_from(SEED, "rho", 0);
    for sigmas in sigma_sets("equal-rho", 1, 5, 0.0) {
        let drawn = uniform(&mut rng, -0.2, 1.0);
        for rho in [-0.1, 0.0, 0.3, 0.7, 1.0, drawn] {
            let n = sigmas.len();
            let corr: Vec<Vec<f64>> = (0..n)
                .map(|i| (0..n).map(|j| if i == j { 1.0 } else { rho }).collect())
                .collect();
            let a = path_sigma(&sigmas, rho);
            let b = path_sigma_full(&sigmas, &corr);
            assert!(
                (a - b).abs() < 1e-9,
                "rho {rho}, sigmas {sigmas:?}: {a} vs {b}"
            );
        }
    }
}

#[test]
fn path_sigma_monotone_in_rho() {
    for sigmas in sigma_sets("monotone-rho", 2, 5, 0.01) {
        let lo = path_sigma(&sigmas, 0.0);
        let mid = path_sigma(&sigmas, 0.5);
        let hi = path_sigma(&sigmas, 1.0);
        assert!(lo <= mid + 1e-12 && mid <= hi + 1e-12, "sigmas {sigmas:?}");
        assert!((lo - path_sigma_rho0(sigmas.iter().copied())).abs() < 1e-12);
    }
}

#[test]
fn rss_never_exceeds_linear_sum() {
    for sigmas in sigma_sets("rss", 1, 7, 0.0) {
        let rss = path_sigma_rho0(sigmas.iter().copied());
        let linear: f64 = sigmas.iter().sum();
        assert!(rss <= linear + 1e-12, "sigmas {sigmas:?}");
    }
}

// ---------------------------------------------------------------------
// Streaming statistics.
// ---------------------------------------------------------------------

/// Deterministic but irregular data: a decaying oscillation with a large
/// offset, which stresses the streaming variance update.
fn stat_data(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let x = i as f64;
            917.0 - 1.9 * x + 53.0 * (0.7 * x).sin() * (-x / 40.0).exp()
        })
        .collect()
}

/// `min_len..=max_len` samples uniform in `[-bound, bound)`.
fn seeded_data(
    rng: &mut Xoshiro256PlusPlus,
    min_len: usize,
    max_len: usize,
    bound: f64,
) -> Vec<f64> {
    let n = between(rng, min_len, max_len);
    (0..n).map(|_| uniform(rng, -bound, bound)).collect()
}

#[test]
fn accumulator_matches_two_pass_summary() {
    let fixed = [1, 2, 17, 199].map(stat_data);
    let seeded = cases("accumulator").map(|mut rng| seeded_data(&mut rng, 1, 199, 1e3));
    for data in fixed.into_iter().chain(seeded) {
        let batch = Summary::from_samples(&data).expect("non-empty");
        let acc: Accumulator = data.iter().copied().collect();
        let s = acc.summary().expect("non-empty");
        let n = data.len();
        assert!((s.mean - batch.mean).abs() < 1e-6, "n {n}");
        assert!((s.std_dev - batch.std_dev).abs() < 1e-6, "n {n}");
        assert_eq!(s.n, n);
    }
}

#[test]
fn accumulator_order_independent() {
    let seeded = cases("accumulator-order").map(|mut rng| seeded_data(&mut rng, 2, 99, 100.0));
    for mut data in std::iter::once(stat_data(100)).chain(seeded) {
        let fwd: Accumulator = data.iter().copied().collect();
        data.reverse();
        let rev: Accumulator = data.iter().copied().collect();
        assert!((fwd.mean() - rev.mean()).abs() < 1e-9, "n {}", data.len());
        assert!(
            (fwd.std_dev() - rev.std_dev()).abs() < 1e-9,
            "n {}",
            data.len()
        );
    }
}

// ---------------------------------------------------------------------
// Liberty round trip on generated LUT data.
// ---------------------------------------------------------------------

/// Writes a one-inverter library whose rise delay is `lut`, parses the
/// text back and compares the two libraries.
fn assert_liberty_round_trips(lut: Lut) {
    use varitune::liberty::{Cell, Library, Pin, TimingArc};
    let mut lib = Library::new("P");
    let mut cell = Cell::new("INV_1", 1.0);
    cell.pins.push(Pin::input("A", 0.001));
    let mut z = Pin::output("Z", "!A");
    let mut arc = TimingArc::new("A");
    arc.cell_rise = Some(lut);
    z.timing.push(arc);
    cell.pins.push(z);
    lib.cells.push(cell);
    let text = varitune::liberty::write_library(&lib).unwrap();
    let parsed = varitune::liberty::parse_library(&text).expect("round trip parses");
    assert_eq!(parsed, lib);
}

#[test]
fn liberty_round_trips_fixed_table() {
    assert_liberty_round_trips(fixed_lut());
}

#[test]
fn liberty_round_trips_seeded_tables() {
    for mut rng in cases("liberty") {
        assert_liberty_round_trips(seeded_lut(&mut rng));
    }
}

// ---------------------------------------------------------------------
// SSTA canonical-form algebra.
// ---------------------------------------------------------------------

fn ssta_fixture_forms() -> Vec<CanonicalForm> {
    vec![
        CanonicalForm::deterministic(1.5),
        CanonicalForm {
            mean: 3.0,
            sens: vec![(0, 0.12), (2, 0.05), (7, 0.3)],
            resid: 0.04,
        },
        CanonicalForm {
            mean: 2.8,
            sens: vec![(0, 0.2), (3, 0.11)],
            resid: 0.0,
        },
        CanonicalForm {
            mean: -0.5,
            sens: vec![(2, 0.4), (5, 0.02), (9, 0.15)],
            resid: 0.33,
        },
    ]
}

/// A form with mean in `[-5, 20)`, up to 5 distinct source keys below 12
/// (sorted) with sensitivities in `[0.01, 0.6)`, and a residual in
/// `[0, 0.5)`.
fn seeded_form(rng: &mut Xoshiro256PlusPlus) -> CanonicalForm {
    let mean = uniform(rng, -5.0, 20.0);
    let mut keys: Vec<u32> = (0..between(rng, 0, 5))
        .map(|_| (rng.next_u64() % 12) as u32)
        .collect();
    keys.sort_unstable();
    keys.dedup();
    let sens = keys
        .into_iter()
        .map(|k| (k, uniform(rng, 0.01, 0.6)))
        .collect();
    let resid = uniform(rng, 0.0, 0.5);
    CanonicalForm { mean, sens, resid }
}

/// Three forms per case for the binary and ternary laws.
fn seeded_triples(property: &'static str) -> Vec<[CanonicalForm; 3]> {
    cases(property)
        .map(|mut rng| std::array::from_fn(|_| seeded_form(&mut rng)))
        .collect()
}

/// `a` and `b` agree to `tol` in mean, sigma and every sensitivity above
/// `tol`: a term whose weight rounds to exactly zero leaves the sparse
/// vector, so the two sides may differ by terms no larger than `tol`.
fn assert_forms_close(a: &CanonicalForm, b: &CanonicalForm, tol: f64) {
    let kept = |f: &CanonicalForm| -> Vec<(u32, f64)> {
        f.sens
            .iter()
            .copied()
            .filter(|&(_, v)| v.abs() > tol)
            .collect()
    };
    let (sa, sb) = (kept(a), kept(b));
    let close = (a.mean - b.mean).abs() <= tol
        && (a.sigma() - b.sigma()).abs() <= tol
        && sa.len() == sb.len()
        && sa
            .iter()
            .zip(&sb)
            .all(|(&(ka, va), &(kb, vb))| ka == kb && (va - vb).abs() <= tol);
    assert!(close, "{a:?} vs {b:?}");
}

/// `add` is commutative bit for bit and associative up to roundoff, and
/// every sum has a non-negative sigma.
fn assert_add_laws(a: &CanonicalForm, b: &CanonicalForm, c: &CanonicalForm) {
    assert_eq!(a.add(b), b.add(a));
    let lhs = a.add(b).add(c);
    assert_forms_close(&lhs, &a.add(&b.add(c)), 1e-12);
    assert!(a.sigma() >= 0.0 && a.add(b).sigma() >= 0.0 && lhs.sigma() >= 0.0);
}

/// Clark's max dominates both operand means, its tightness is a
/// probability and its sigma non-negative, and shifting both operands by
/// `c` shifts the max by `c` and keeps the tightness.
fn assert_max_laws(a: &CanonicalForm, b: &CanonicalForm, c: f64) {
    let (m, t) = a.max(b);
    assert!(m.mean >= a.mean.max(b.mean) - 1e-12, "{a:?} max {b:?}");
    assert!((0.0..=1.0).contains(&t));
    assert!(m.sigma() >= 0.0);
    let (ms, ts) = a.shift(c).max(&b.shift(c));
    assert!((ts - t).abs() < 1e-9, "{a:?} max {b:?} shifted by {c}");
    assert_forms_close(&ms, &m.shift(c), 1e-9);
}

/// Truncation to `max_local` locals preserves the total variance and
/// keeps the global source whenever present.
fn assert_truncation_laws(a: &CanonicalForm, max_local: usize) {
    let var = a.variance();
    let t = a.clone().truncated(max_local);
    assert!((t.variance() - var).abs() <= 1e-12 * var.max(1.0), "{a:?}");
    assert!(t.sigma() >= 0.0);
    assert!(t.sens.iter().filter(|&&(k, _)| k != 0).count() <= max_local);
    let had_global = a.sens.iter().any(|&(k, _)| k == 0);
    assert_eq!(t.sens.iter().any(|&(k, _)| k == 0), had_global);
}

/// Degenerate (zero-sensitivity) forms reduce exactly to deterministic
/// STA: `add` is plain addition, `max` is the plain max with the
/// accumulator (`self`) winning ties, mirroring the engine's strict `>`
/// replacement rule.
fn assert_degenerate_laws(x: f64, y: f64) {
    let (a, b) = (
        CanonicalForm::deterministic(x),
        CanonicalForm::deterministic(y),
    );
    let sum = a.add(&b);
    assert_eq!(sum.mean, x + y);
    assert_eq!(sum.sigma(), 0.0);
    let (m, t) = a.max(&b);
    assert_eq!(m.mean, if y > x { y } else { x });
    assert_eq!(m.sigma(), 0.0);
    assert_eq!(t, if y > x { 0.0 } else { 1.0 });
}

#[test]
fn ssta_add_commutative_and_associative_fixed() {
    let forms = ssta_fixture_forms();
    for a in &forms {
        for b in &forms {
            for c in &forms {
                assert_add_laws(a, b, c);
            }
        }
    }
}

#[test]
fn ssta_add_commutative_and_associative_seeded() {
    for [a, b, c] in seeded_triples("ssta-add") {
        assert_add_laws(&a, &b, &c);
    }
}

#[test]
fn ssta_max_monotone_and_shift_covariant_fixed() {
    let forms = ssta_fixture_forms();
    for a in &forms {
        for b in &forms {
            assert_max_laws(a, b, 2.25);
        }
    }
}

#[test]
fn ssta_max_monotone_and_shift_covariant_seeded() {
    let mut shifts = rng_from(SEED, "ssta-shift", 0);
    for [a, b, _] in seeded_triples("ssta-max") {
        assert_max_laws(&a, &b, uniform(&mut shifts, -10.0, 10.0));
    }
}

#[test]
fn ssta_truncation_preserves_variance_fixed() {
    for a in &ssta_fixture_forms() {
        assert_truncation_laws(a, 1);
    }
}

#[test]
fn ssta_truncation_preserves_variance_seeded() {
    for [a, _, _] in seeded_triples("ssta-truncate") {
        assert_truncation_laws(&a, 2);
    }
}

#[test]
fn ssta_degenerate_forms_match_deterministic_sta_fixed() {
    // An exact tie, and a sum of a positive and a negative mean.
    assert_degenerate_laws(4.0, 4.0);
    assert_degenerate_laws(4.0, -1.25);
}

#[test]
fn ssta_degenerate_forms_match_deterministic_sta_seeded() {
    for mut rng in cases("ssta-degenerate") {
        let (x, y) = (
            uniform(&mut rng, -10.0, 10.0),
            uniform(&mut rng, -10.0, 10.0),
        );
        assert_degenerate_laws(x, y);
    }
}
