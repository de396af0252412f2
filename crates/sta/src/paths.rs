//! Worst-path extraction and statistical path/design timing (§V.B).
//!
//! The paper measures a design's local variation by extracting, for every
//! unique endpoint, the worst (latest-arriving) path, attaching a
//! `(mean, sigma)` delay to every cell on it from the statistical library,
//! and convolving those into path and design distributions (eqs. 5–11).

use varitune_libchar::StatLibrary;
use varitune_liberty::{CellId, Library};
use varitune_netlist::NetId;
use varitune_variation::convolve;

use crate::graph::{NetTiming, StaError, TimingReport};
use crate::mapped::MappedDesign;

/// One cell on an extracted path, with the operating point it was timed at.
///
/// The cell and its pins are ids into the library the path was extracted
/// against; [`PathCellSample::cell_name`] and friends render names for
/// reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathCellSample {
    /// Gate index in the netlist.
    pub gate: usize,
    /// Library cell of the gate.
    pub cell: CellId,
    /// Position of the output pin the path leaves through among the
    /// cell's output pins.
    pub out_pin: usize,
    /// Position of the input pin the critical arc comes from, as in
    /// [`NetTiming::crit_input`] (`None` for a launching flip-flop, which
    /// times from its clock).
    pub crit_input: Option<usize>,
    /// Input slew at the critical arc (ns).
    pub slew: f64,
    /// Output load (pF).
    pub load: f64,
    /// Propagated (deterministic) cell delay (ns).
    pub delay: f64,
}

impl PathCellSample {
    /// Library cell name (`None` when the id does not resolve in `lib`).
    pub fn cell_name<'l>(&self, lib: &'l Library) -> Option<&'l str> {
        lib.cells.get(self.cell.index()).map(|c| c.name.as_str())
    }

    /// Name of the output pin the path leaves through.
    pub fn out_pin_name<'l>(&self, lib: &'l Library) -> Option<&'l str> {
        let cell = lib.cells.get(self.cell.index())?;
        cell.output_pins()
            .nth(self.out_pin)
            .map(|p| p.name.as_str())
    }

    /// Name of the input pin the critical arc comes from (`None` for a
    /// launching flip-flop, or when the position does not resolve).
    pub fn related_pin_name<'l>(&self, lib: &'l Library) -> Option<&'l str> {
        let cell = lib.cells.get(self.cell.index())?;
        cell.input_pins()
            .nth(self.crit_input?)
            .map(|p| p.name.as_str())
    }

    /// Statistical `(mean, sigma)` delay of this cell at its operating
    /// point: the precise critical arc when known, the pin-level worst for
    /// a launching flip-flop (its only arc is clk->q).
    ///
    /// # Errors
    ///
    /// [`StaError::Interpolate`] if the id or a pin position does not
    /// resolve in `stat` or a table cannot be evaluated.
    pub fn delay_stat(&self, stat: &StatLibrary) -> Result<(f64, f64), StaError> {
        Ok(match self.crit_input {
            Some(k) => stat.delay_stat_arc_id(self.cell, self.out_pin, k, self.slew, self.load)?,
            None => stat.delay_stat_id(self.cell, self.out_pin, self.slew, self.load)?,
        })
    }
}

/// A worst path to one endpoint with its statistical parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PathTiming {
    /// Endpoint net the path captures at.
    pub endpoint: NetId,
    /// Cells launch-to-capture (launching flip-flop included when the path
    /// starts at a register).
    pub cells: Vec<PathCellSample>,
    /// Deterministic arrival at the endpoint (ns).
    pub arrival: f64,
    /// Path delay mean from the statistical library — eq. (5).
    pub mean: f64,
    /// Path delay sigma — eq. (9)/(10).
    pub sigma: f64,
}

impl PathTiming {
    /// Path depth = number of cells.
    pub fn depth(&self) -> usize {
        self.cells.len()
    }

    /// Mean plus `k` sigma — the paper plots mean + 3σ (Fig. 14).
    pub fn mean_plus_k_sigma(&self, k: f64) -> f64 {
        self.mean + k * self.sigma
    }
}

/// Design-level distribution — eq. (11) over per-endpoint worst paths.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignTiming {
    /// Sum of worst-path means (ns).
    pub mean: f64,
    /// RSS of worst-path sigmas (ns).
    pub sigma: f64,
    /// Number of paths aggregated.
    pub path_count: usize,
}

impl DesignTiming {
    /// Aggregates path distributions per eq. (11).
    pub fn from_paths(paths: &[PathTiming]) -> Self {
        Self {
            mean: convolve::design_mean(paths.iter().map(|p| p.mean)),
            sigma: convolve::design_sigma(paths.iter().map(|p| p.sigma)),
            path_count: paths.len(),
        }
    }
}

fn invalid(reason: String) -> StaError {
    StaError::InvalidParameter { reason }
}

/// The checks both extractors run before any work: `rho` is in `[-1, 1]`
/// (it must not reach [`convolve::path_sigma`]'s assert), and the report's
/// nets, drivers and critical inputs all fit the design, so the walks
/// below index nothing out of range.
fn check_inputs(
    design: &MappedDesign,
    lib: &Library,
    stat: &StatLibrary,
    report: &TimingReport,
    rho: f64,
) -> Result<(), StaError> {
    if !(-1.0..=1.0).contains(&rho) {
        return Err(invalid(format!(
            "path correlation rho must be in [-1, 1], got {rho}"
        )));
    }
    // Path statistics read both statistical libraries by id.
    for l in [lib, &stat.mean, &stat.sigma] {
        design.check_library(l)?;
    }
    let nl = &design.netlist;
    if design.cells.len() != nl.gate_count() {
        return Err(invalid(format!(
            "design binds {} cell ids to {} gates; one per gate required",
            design.cells.len(),
            nl.gate_count()
        )));
    }
    if report.nets.len() != nl.net_count() {
        return Err(invalid(format!(
            "timing report has {} nets, the design {}",
            report.nets.len(),
            nl.net_count()
        )));
    }
    for (ni, t) in report.nets.iter().enumerate() {
        let Some(gi) = t.driver else { continue };
        if gi >= nl.gate_count() {
            return Err(invalid(format!(
                "timing report drives net {ni} from gate {gi}; the design has {} gates",
                nl.gate_count()
            )));
        }
        let n_in = nl.gate_inputs(gi).len();
        if let Some(k) = t.crit_input.filter(|&k| k >= n_in) {
            return Err(invalid(format!(
                "timing report enters net {ni} through input {k} of gate {gi}, which has {n_in}"
            )));
        }
    }
    Ok(())
}

fn check_endpoint(report: &TimingReport, endpoint: NetId) -> Result<(), StaError> {
    if (endpoint.0 as usize) < report.nets.len() {
        return Ok(());
    }
    Err(invalid(format!(
        "endpoint net {} out of range (the report has {} nets)",
        endpoint.0,
        report.nets.len()
    )))
}

fn cycle_at(net: usize) -> StaError {
    invalid(format!(
        "critical-input pointers of the timing report form a cycle through net {net}"
    ))
}

/// The cell driving a net on its worst path, and the net the path
/// continues from (`None` at a launching flip-flop); `Ok(None)` at a
/// primary input. Checks structure only (`UnknownCell`, `MissingArc`):
/// the statistics are queried afterwards, launch side first.
fn path_cell(
    design: &MappedDesign,
    lib: &Library,
    t: &NetTiming,
) -> Result<Option<(PathCellSample, Option<NetId>)>, StaError> {
    let Some(gi) = t.driver else {
        return Ok(None);
    };
    let cell = design
        .cell_of(gi, lib)
        .ok_or_else(|| StaError::UnknownCell {
            gate: gi,
            name: design.cell_label(gi, lib),
        })?;
    if cell.output_pins().nth(t.out_pin).is_none() {
        return Err(StaError::MissingArc {
            gate: gi,
            cell: cell.name.clone(),
        });
    }
    let sample = PathCellSample {
        gate: gi,
        cell: design.cells[gi],
        out_pin: t.out_pin,
        crit_input: t.crit_input,
        slew: t.crit_input_slew,
        load: t.load,
        delay: t.cell_delay,
    };
    let pred = t.crit_input.map(|k| design.netlist.gate_inputs(gi)[k]);
    Ok(Some((sample, pred)))
}

/// Extracts the worst path to `endpoint` by walking critical-input pointers
/// back to a launch point, then attaches statistical parameters from `stat`
/// with inter-cell correlation `rho` (the paper argues ρ = 0).
///
/// This is the single-endpoint form and the oracle for [`worst_paths`],
/// which shares every path prefix between endpoints.
///
/// # Errors
///
/// [`StaError::InvalidParameter`] if `rho` is NaN or outside `[-1, 1]`,
/// `endpoint` is not a net of `report`, or `report` does not fit `design`
/// (net count, driver gates, critical inputs); `rho` is caller-supplied
/// configuration, so it must not reach [`convolve::path_sigma`]'s assert.
/// [`StaError::MismatchedInput`] if `design` was mapped on a library with
/// another cell list than `lib` or `stat`. Any other [`StaError`] if a
/// cell or pin cannot be resolved or a table cannot be evaluated.
pub fn extract_path(
    design: &MappedDesign,
    lib: &Library,
    stat: &StatLibrary,
    report: &TimingReport,
    endpoint: NetId,
    rho: f64,
) -> Result<PathTiming, StaError> {
    check_inputs(design, lib, stat, report, rho)?;
    check_endpoint(report, endpoint)?;
    let mut cells: Vec<PathCellSample> = Vec::new();
    let mut net = endpoint;
    while let Some((sample, pred)) = path_cell(design, lib, &report.nets[net.0 as usize])? {
        cells.push(sample);
        // A path visits each net at most once.
        if cells.len() > report.nets.len() {
            return Err(cycle_at(net.0 as usize));
        }
        match pred {
            Some(p) => net = p,
            None => break, // launching flip-flop
        }
    }
    cells.reverse();

    let mut means = Vec::with_capacity(cells.len());
    let mut sigmas = Vec::with_capacity(cells.len());
    for c in &cells {
        let (m, s) = c.delay_stat(stat)?;
        means.push(m);
        sigmas.push(s);
    }
    Ok(PathTiming {
        endpoint,
        cells,
        arrival: report.nets[endpoint.0 as usize].arrival,
        mean: convolve::path_mean(means.into_iter()),
        sigma: convolve::path_sigma(&sigmas, rho),
    })
}

/// A path prefix, launch to one net: the net's path cell, the net the
/// prefix continues from, and the running sums in launch-to-net order.
#[derive(Clone, Copy)]
struct Prefix {
    /// The cell driving the net (`None` for the empty prefix).
    cell: Option<PathCellSample>,
    /// The net whose prefix this one extends ([`NO_NET`] when that prefix
    /// is empty).
    pred: u32,
    depth: usize,
    /// Σμ, Σσ and Σσ², each summed in path order from `Iterator::sum`'s
    /// identity (−0.0), so a prefix holds the exact bits
    /// [`convolve::path_mean`] and [`convolve::path_sigma`] compute over
    /// the same cells.
    mean: f64,
    sigma: f64,
    sigma_sq: f64,
}

const NO_NET: u32 = u32::MAX;

impl Prefix {
    fn empty() -> Self {
        let zero: f64 = std::iter::empty::<f64>().sum();
        Self {
            cell: None,
            pred: NO_NET,
            depth: 0,
            mean: zero,
            sigma: zero,
            sigma_sq: zero,
        }
    }

    /// This prefix (ending at `net`) extended by one cell.
    fn then(&self, net: u32, cell: PathCellSample, (m, s): (f64, f64)) -> Self {
        Self {
            cell: Some(cell),
            pred: if self.depth == 0 { NO_NET } else { net },
            depth: self.depth + 1,
            mean: self.mean + m,
            sigma: self.sigma + s,
            sigma_sq: self.sigma_sq + s * s,
        }
    }
}

/// Extracts the worst path to **every unique endpoint** of `report` and
/// returns them together with the design-level aggregate.
///
/// One pass over the critical-predecessor tree: each net's prefix sums
/// (Σμ, Σσ, Σσ²) are computed once and shared by every path through it,
/// so each gate's statistics are queried once, not once per path. Every
/// path equals [`extract_path`]'s to the bit, and so does the first error:
/// the walk back from an endpoint checks structure up to the first shared
/// prefix before it queries any statistics on the new part, which is the
/// order [`extract_path`] meets them in.
///
/// # Errors
///
/// As [`extract_path`]; the input checks run once, up front.
pub fn worst_paths(
    design: &MappedDesign,
    lib: &Library,
    stat: &StatLibrary,
    report: &TimingReport,
    rho: f64,
) -> Result<(Vec<PathTiming>, DesignTiming), StaError> {
    check_inputs(design, lib, stat, report, rho)?;
    for ep in &report.endpoints {
        check_endpoint(report, ep.net)?;
    }
    let n_nets = report.nets.len();
    let mut prefix: Vec<Option<Prefix>> = vec![None; n_nets];
    let mut walking = vec![false; n_nets];
    let mut seen = vec![false; n_nets];
    let mut stack: Vec<(u32, PathCellSample)> = Vec::new();
    let mut paths = Vec::new();
    for ep in &report.endpoints {
        let ep_net = ep.net.0 as usize;
        if std::mem::replace(&mut seen[ep_net], true) {
            continue; // one worst path per unique endpoint
        }
        // Back from the endpoint to the first known prefix, a primary
        // input or a launching flip-flop: structure checks only.
        let mut net = ep_net;
        let (mut top, mut top_net) = (Prefix::empty(), NO_NET);
        loop {
            if let Some(p) = prefix[net] {
                (top, top_net) = (p, net as u32);
                break;
            }
            if walking[net] {
                return Err(cycle_at(net));
            }
            let Some((sample, pred)) = path_cell(design, lib, &report.nets[net])? else {
                prefix[net] = Some(Prefix::empty()); // primary input
                break;
            };
            walking[net] = true;
            stack.push((net as u32, sample));
            match pred {
                Some(p) => net = p.0 as usize,
                None => break, // launching flip-flop
            }
        }
        // Forward over the new part: one statistics query per cell.
        while let Some((n, sample)) = stack.pop() {
            walking[n as usize] = false;
            top = top.then(top_net, sample, sample.delay_stat(stat)?);
            top_net = n;
            prefix[n as usize] = Some(top);
        }

        let mut cells = Vec::with_capacity(top.depth);
        let mut at = top;
        while let Some(cell) = at.cell {
            cells.push(cell);
            match prefix.get(at.pred as usize).copied().flatten() {
                Some(p) => at = p,
                None => break,
            }
        }
        cells.reverse();
        paths.push(PathTiming {
            endpoint: ep.net,
            cells,
            arrival: report.nets[ep_net].arrival,
            mean: top.mean,
            sigma: convolve::path_sigma_from_sums(top.sigma, top.sigma_sq, rho),
        });
    }
    let design_timing = DesignTiming::from_paths(&paths);
    Ok((paths, design_timing))
}

/// Parametric timing yield: the probability that *every* worst path meets
/// `deadline`, treating path delays as independent normals
/// `N(mean, sigma)` — the statistical view behind the paper's motivation
/// that a lower design sigma permits a smaller clock uncertainty.
pub fn timing_yield(paths: &[PathTiming], deadline: f64) -> f64 {
    paths
        .iter()
        .map(|p| varitune_variation::stats::meet_probability(p.mean, p.sigma, deadline))
        .product()
}

/// The smallest deadline at which [`timing_yield`] reaches `target`
/// (bisection to `tol`). This converts a sigma reduction into the paper's
/// ultimate currency: a faster usable clock at equal yield.
///
/// # Errors
///
/// [`StaError::InvalidParameter`] if `target` is not in `(0, 1)`, `tol`
/// is not finite and positive, or `paths` is empty. These are
/// caller-supplied statistical quantities — data, not invariants — so
/// they must never panic.
pub fn deadline_at_yield(paths: &[PathTiming], target: f64, tol: f64) -> Result<f64, StaError> {
    bisect_at_yield(
        target,
        tol,
        || {
            if paths.is_empty() {
                return Err(StaError::InvalidParameter {
                    reason: "need at least one path to bisect a deadline".to_string(),
                });
            }
            let hi = paths
                .iter()
                .map(|p| p.mean + 10.0 * p.sigma)
                .fold(0.0, f64::max)
                .max(tol);
            Ok((0.0, hi))
        },
        |deadline| timing_yield(paths, deadline),
    )
}

/// The smallest deadline at which the non-decreasing `yield_at` reaches
/// `target`, bisected to `tol` inside the `(lo, hi)` bracket that
/// `bracket` returns: the search behind [`deadline_at_yield`] and
/// [`SstaReport::period_at_yield`](crate::ssta::SstaReport::period_at_yield).
/// `target` and `tol` are checked before the bracket is built. The search
/// also stops when the midpoint rounds onto an end, so a `tol` below the
/// float spacing of the bracket ends it.
///
/// # Errors
///
/// [`StaError::InvalidParameter`] if `target` is not in `(0, 1)` or `tol`
/// is not finite and positive; otherwise the bracket's error.
pub(crate) fn bisect_at_yield(
    target: f64,
    tol: f64,
    bracket: impl FnOnce() -> Result<(f64, f64), StaError>,
    yield_at: impl Fn(f64) -> f64,
) -> Result<f64, StaError> {
    if !(target > 0.0 && target < 1.0) {
        return Err(StaError::InvalidParameter {
            reason: format!("yield target must be in (0, 1), got {target}"),
        });
    }
    // `tol <= 0.0` is false for NaN, but the finiteness check rejects NaN
    // on its own.
    if tol <= 0.0 || !tol.is_finite() {
        return Err(StaError::InvalidParameter {
            reason: format!("bisection tolerance must be finite and > 0, got {tol}"),
        });
    }
    let (mut lo, mut hi) = bracket()?;
    while hi - lo > tol {
        let mid = 0.5 * (lo + hi);
        // `tol` below the float spacing: the bracket cannot shrink.
        if mid == lo || mid == hi {
            break;
        }
        if yield_at(mid) >= target {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(hi)
}

/// Path-depth histogram: `depths[d]` = number of worst paths with depth `d`
/// (the Fig. 12 data).
pub fn depth_histogram(paths: &[PathTiming]) -> Vec<usize> {
    let max = paths.iter().map(PathTiming::depth).max().unwrap_or(0);
    let mut h = vec![0usize; max + 1];
    for p in paths {
        h[p.depth()] += 1;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{analyze, StaConfig};
    use crate::mapped::WireModel;
    use varitune_libchar::{generate_mc_libraries, generate_nominal, GenerateConfig};
    use varitune_netlist::{GateKind, Netlist};

    fn fixtures() -> (Library, StatLibrary) {
        let cfg = GenerateConfig::small_for_tests();
        let nominal = generate_nominal(&cfg);
        let mc = generate_mc_libraries(&nominal, &cfg, 25, 7);
        let stat = StatLibrary::from_libraries(&mc).unwrap();
        (nominal, stat)
    }

    fn chain_design(n: usize, cell: &str) -> MappedDesign {
        let mut nl = Netlist::new("chain");
        let mut prev = nl.add_input("a");
        for i in 0..n {
            let z = nl.add_net(format!("n{i}"));
            nl.add_gate(GateKind::Inv, &[prev], &[z]);
            prev = z;
        }
        nl.mark_output(prev);
        let lib = generate_nominal(&GenerateConfig::small_for_tests());
        MappedDesign::from_names(nl, &vec![cell; n], &lib, WireModel::default()).unwrap()
    }

    #[test]
    fn path_depth_matches_chain_length() {
        let (lib, stat) = fixtures();
        let d = chain_design(6, "INV_2");
        let r = analyze(&d, &lib, &StaConfig::with_clock_period(5.0)).unwrap();
        let ep = r.endpoints[0].net;
        let p = extract_path(&d, &lib, &stat, &r, ep, 0.0).unwrap();
        assert_eq!(p.depth(), 6);
        assert_eq!(p.cells[0].cell_name(&lib), Some("INV_2"));
        assert_eq!(p.cells[0].out_pin_name(&lib), Some("Z"));
        assert_eq!(p.cells[0].related_pin_name(&lib), Some("A"));
    }

    #[test]
    fn path_mean_close_to_deterministic_arrival() {
        let (lib, stat) = fixtures();
        let d = chain_design(6, "INV_2");
        let r = analyze(&d, &lib, &StaConfig::with_clock_period(5.0)).unwrap();
        let p = extract_path(&d, &lib, &stat, &r, r.endpoints[0].net, 0.0).unwrap();
        // The stat mean uses worst-over-arcs tables, so it sits at or just
        // above the deterministic arrival.
        assert!(
            p.mean >= p.arrival * 0.9 && p.mean <= p.arrival * 1.3,
            "mean {} vs arrival {}",
            p.mean,
            p.arrival
        );
    }

    #[test]
    fn sigma_grows_sublinearly_with_depth() {
        let (lib, stat) = fixtures();
        let cfg = StaConfig::with_clock_period(20.0);
        let short = {
            let d = chain_design(4, "INV_2");
            let r = analyze(&d, &lib, &cfg).unwrap();
            extract_path(&d, &lib, &stat, &r, r.endpoints[0].net, 0.0).unwrap()
        };
        let long = {
            let d = chain_design(16, "INV_2");
            let r = analyze(&d, &lib, &cfg).unwrap();
            extract_path(&d, &lib, &stat, &r, r.endpoints[0].net, 0.0).unwrap()
        };
        assert!(long.sigma > short.sigma);
        // eq. (10): sigma scales like sqrt(depth) for identical cells.
        let ratio = long.sigma / short.sigma;
        assert!((ratio - 2.0).abs() < 0.35, "ratio {ratio}");
        // Mean scales linearly, so sigma grows sublinearly vs mean.
        assert!(long.mean / short.mean > ratio);
    }

    #[test]
    fn rho_increases_path_sigma() {
        let (lib, stat) = fixtures();
        let d = chain_design(8, "INV_2");
        let r = analyze(&d, &lib, &StaConfig::with_clock_period(10.0)).unwrap();
        let p0 = extract_path(&d, &lib, &stat, &r, r.endpoints[0].net, 0.0).unwrap();
        let p5 = extract_path(&d, &lib, &stat, &r, r.endpoints[0].net, 0.5).unwrap();
        assert!(p5.sigma > p0.sigma);
        assert_eq!(p5.mean, p0.mean);
    }

    #[test]
    fn out_of_range_rho_is_an_error_not_a_panic() {
        let (lib, stat) = fixtures();
        let d = chain_design(4, "INV_2");
        let r = analyze(&d, &lib, &StaConfig::with_clock_period(10.0)).unwrap();
        for rho in [1.5, -1.01, f64::NAN] {
            let err = extract_path(&d, &lib, &stat, &r, r.endpoints[0].net, rho).unwrap_err();
            assert!(
                matches!(err, StaError::InvalidParameter { .. }),
                "{rho}: {err}"
            );
            let err = worst_paths(&d, &lib, &stat, &r, rho).unwrap_err();
            assert!(
                matches!(err, StaError::InvalidParameter { .. }),
                "{rho}: {err}"
            );
        }
        assert!(extract_path(&d, &lib, &stat, &r, r.endpoints[0].net, -1.0).is_ok());
    }

    #[test]
    fn high_drive_chain_has_lower_sigma() {
        // The core Pelgrom effect the tuning method exploits.
        let (lib, stat) = fixtures();
        let cfg = StaConfig::with_clock_period(20.0);
        let weak = {
            let d = chain_design(8, "INV_1");
            let r = analyze(&d, &lib, &cfg).unwrap();
            extract_path(&d, &lib, &stat, &r, r.endpoints[0].net, 0.0).unwrap()
        };
        let strong = {
            let d = chain_design(8, "INV_8");
            let r = analyze(&d, &lib, &cfg).unwrap();
            extract_path(&d, &lib, &stat, &r, r.endpoints[0].net, 0.0).unwrap()
        };
        assert!(
            strong.sigma < weak.sigma,
            "{} vs {}",
            strong.sigma,
            weak.sigma
        );
    }

    #[test]
    fn worst_paths_dedup_unique_endpoints() {
        let (lib, stat) = fixtures();
        let mut nl = Netlist::new("two-ep");
        let a = nl.add_input("a");
        let x = nl.add_net("x");
        nl.add_gate(GateKind::Inv, &[a], &[x]);
        // The same net is marked PO twice — still one unique endpoint.
        nl.mark_output(x);
        nl.mark_output(x);
        let d = MappedDesign::from_names(nl, &["INV_1"], &lib, WireModel::default()).unwrap();
        let r = analyze(&d, &lib, &StaConfig::with_clock_period(5.0)).unwrap();
        let (paths, design_t) = worst_paths(&d, &lib, &stat, &r, 0.0).unwrap();
        assert_eq!(paths.len(), 1);
        assert_eq!(design_t.path_count, 1);
    }

    #[test]
    fn design_timing_aggregates_eq11() {
        let paths = vec![
            PathTiming {
                endpoint: NetId(0),
                cells: vec![],
                arrival: 1.0,
                mean: 1.0,
                sigma: 0.3,
            },
            PathTiming {
                endpoint: NetId(1),
                cells: vec![],
                arrival: 2.0,
                mean: 2.0,
                sigma: 0.4,
            },
        ];
        let d = DesignTiming::from_paths(&paths);
        assert!((d.mean - 3.0).abs() < 1e-12);
        assert!((d.sigma - 0.5).abs() < 1e-12);
        assert_eq!(d.path_count, 2);
    }

    #[test]
    fn depth_histogram_counts() {
        let mk = |n: usize| PathTiming {
            endpoint: NetId(n as u32),
            cells: (0..n)
                .map(|g| PathCellSample {
                    gate: g,
                    cell: CellId(0),
                    out_pin: 0,
                    crit_input: Some(0),
                    slew: 0.0,
                    load: 0.0,
                    delay: 0.0,
                })
                .collect(),
            arrival: 0.0,
            mean: 0.0,
            sigma: 0.0,
        };
        let h = depth_histogram(&[mk(1), mk(3), mk(3), mk(5)]);
        assert_eq!(h[1], 1);
        assert_eq!(h[3], 2);
        assert_eq!(h[5], 1);
        assert_eq!(h.len(), 6);
    }

    fn synthetic_path(mean: f64, sigma: f64) -> PathTiming {
        PathTiming {
            endpoint: NetId(0),
            cells: vec![],
            arrival: mean,
            mean,
            sigma,
        }
    }

    #[test]
    fn yield_limits_and_monotonicity() {
        let paths = vec![synthetic_path(1.0, 0.1), synthetic_path(1.5, 0.05)];
        assert!(timing_yield(&paths, 0.1) < 1e-6);
        assert!(timing_yield(&paths, 10.0) > 0.999_999);
        let y1 = timing_yield(&paths, 1.6);
        let y2 = timing_yield(&paths, 1.8);
        assert!(y2 > y1);
    }

    #[test]
    fn yield_of_single_path_matches_normal_cdf() {
        let p = vec![synthetic_path(2.0, 0.2)];
        // Deadline at mean + 3 sigma: ~99.87 %.
        let y = timing_yield(&p, 2.6);
        assert!((y - 0.99865).abs() < 1e-3, "{y}");
    }

    #[test]
    fn deadline_at_yield_inverts_timing_yield() {
        let paths = vec![
            synthetic_path(1.0, 0.08),
            synthetic_path(1.4, 0.05),
            synthetic_path(0.9, 0.12),
        ];
        let d = deadline_at_yield(&paths, 0.99, 1e-5).unwrap();
        let y = timing_yield(&paths, d);
        assert!((y - 0.99).abs() < 1e-3, "yield at recovered deadline: {y}");
        // Lower sigma paths reach the same yield earlier.
        let calm: Vec<PathTiming> = paths
            .iter()
            .map(|p| synthetic_path(p.mean, p.sigma * 0.5))
            .collect();
        assert!(deadline_at_yield(&calm, 0.99, 1e-5).unwrap() < d);
    }

    #[test]
    fn deadline_at_yield_terminates_below_float_spacing() {
        let paths = vec![synthetic_path(16.0, 0.5), synthetic_path(15.5, 0.3)];
        for tol in [1e-300, f64::MIN_POSITIVE] {
            let d = deadline_at_yield(&paths, 0.95, tol).unwrap();
            assert!(timing_yield(&paths, d) >= 0.95, "tol {tol:e}: yield at {d}");
        }
    }

    #[test]
    fn deadline_at_yield_rejects_bad_inputs_without_panicking() {
        let one = [synthetic_path(1.0, 0.1)];
        for bad in [0.0, 1.0, 1.5, -0.2, f64::NAN] {
            let err = deadline_at_yield(&one, bad, 1e-3).unwrap_err();
            assert!(matches!(err, StaError::InvalidParameter { .. }), "{err}");
        }
        let err = deadline_at_yield(&one, 0.9, 0.0).unwrap_err();
        assert!(matches!(err, StaError::InvalidParameter { .. }));
        let err = deadline_at_yield(&[], 0.9, 1e-3).unwrap_err();
        assert!(matches!(err, StaError::InvalidParameter { .. }));
    }

    #[test]
    fn path_from_ff_includes_launching_ff() {
        let (lib, stat) = fixtures();
        let mut nl = Netlist::new("ffpath");
        let d0 = nl.add_input("d0");
        let q0 = nl.add_net("q0");
        nl.add_gate(GateKind::Dff, &[d0], &[q0]);
        let x = nl.add_net("x");
        nl.add_gate(GateKind::Inv, &[q0], &[x]);
        let q1 = nl.add_net("q1");
        nl.add_gate(GateKind::Dff, &[x], &[q1]);
        let d =
            MappedDesign::from_names(nl, &["DF_1", "INV_2", "DF_1"], &lib, WireModel::default())
                .unwrap();
        let r = analyze(&d, &lib, &StaConfig::with_clock_period(5.0)).unwrap();
        let ep = r.endpoints.iter().find(|e| e.net == NetId(2)).unwrap();
        let p = extract_path(&d, &lib, &stat, &r, ep.net, 0.0).unwrap();
        // Launching DF_1 + INV_2 = depth 2.
        assert_eq!(p.depth(), 2);
        assert_eq!(p.cells[0].cell_name(&lib), Some("DF_1"));
        assert_eq!(p.cells[0].crit_input, None);
        assert_eq!(p.cells[0].related_pin_name(&lib), None);
        assert_eq!(p.cells[1].cell_name(&lib), Some("INV_2"));
    }

    #[test]
    fn out_of_range_endpoint_is_an_error_not_a_panic() {
        let (lib, stat) = fixtures();
        let d = chain_design(1, "INV_2");
        let r = analyze(&d, &lib, &StaConfig::with_clock_period(5.0)).unwrap();
        assert_eq!(r.nets.len(), 2);
        let err = extract_path(&d, &lib, &stat, &r, NetId(999), 0.0).unwrap_err();
        assert!(matches!(err, StaError::InvalidParameter { .. }), "{err}");
        let mut bad = r.clone();
        bad.endpoints[0].net = NetId(999);
        let err = worst_paths(&d, &lib, &stat, &bad, 0.0).unwrap_err();
        assert!(matches!(err, StaError::InvalidParameter { .. }), "{err}");
    }

    #[test]
    fn a_report_that_does_not_fit_the_design_is_an_error_not_a_panic() {
        let (lib, stat) = fixtures();
        let d = chain_design(3, "INV_2");
        let r = analyze(&d, &lib, &StaConfig::with_clock_period(5.0)).unwrap();
        let ep = r.endpoints[0].net;
        let mut short = r.clone();
        short.nets.truncate(2);
        let mut far_driver = r.clone();
        far_driver.nets[ep.0 as usize].driver = Some(99);
        let mut far_input = r.clone();
        far_input.nets[ep.0 as usize].crit_input = Some(5);
        let mut cells = d.clone();
        cells.cells.pop();
        let mut cycle = r.clone();
        let first = d.netlist.gate_inputs(0)[0];
        cycle.nets[first.0 as usize] = cycle.nets[1];
        for (what, d, r) in [
            ("short report", &d, &short),
            ("driver out of range", &d, &far_driver),
            ("critical input out of range", &d, &far_input),
            ("cell list short of the gates", &cells, &r),
            ("critical pointers in a cycle", &d, &cycle),
        ] {
            let err = extract_path(d, &lib, &stat, r, ep, 0.0).unwrap_err();
            assert!(
                matches!(err, StaError::InvalidParameter { .. }),
                "{what}: {err}"
            );
            let err = worst_paths(d, &lib, &stat, r, 0.0).unwrap_err();
            assert!(
                matches!(err, StaError::InvalidParameter { .. }),
                "{what}: {err}"
            );
        }
    }
}
