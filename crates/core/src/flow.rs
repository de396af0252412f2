//! End-to-end flow: characterize → synthesize → tune → re-synthesize →
//! compare.
//!
//! [`Flow::prepare`] builds everything the experiments need once (nominal
//! library, Monte-Carlo statistical library, the microcontroller netlist);
//! [`Flow::run`] synthesizes under a set of constraints and measures the
//! design's statistical timing; [`Comparison`] quantifies a tuned run
//! against the baseline — the sigma-reduction / area-increase numbers of
//! Figs. 10–11.

use std::borrow::Cow;
use std::error::Error;
use std::fmt;

use varitune_libchar::{generate_nominal, GenerateConfig, StatLibrary};
use varitune_liberty::{parse_library_recovering, Library};
use varitune_netlist::{generate_mcu, McuConfig, Netlist};
use varitune_sta::paths::worst_paths;
use varitune_sta::{
    analyze_ssta, DesignTiming, PathTiming, SstaOptions, SstaReport, StaError, TimingGraph,
};
use varitune_synth::{
    synthesize, LibraryConstraints, SynthConfig, SynthError, SynthKey, SynthesisResult,
};

use crate::methods::{TuningMethod, TuningParams};
use crate::optimize::{Candidate, Objective, Optimizer, PaperMethodOptimizer};
use crate::quarantine::{screen_library, FlowReport, Strictness};
use crate::tuning::TunedLibrary;

/// Span names of the documented flow stages, in the order a full
/// baseline-plus-tuned run opens them. Pinned here so the trace-schema
/// test catches renames: changing a `span!` name in this crate without
/// updating this const (and DESIGN.md's span taxonomy) fails CI.
pub const FLOW_STAGE_SPANS: &[&str] = &[
    "flow.prepare",
    "flow.characterize",
    "flow.generate_design",
    "flow.tune",
    "flow.run",
    "flow.synthesize",
    "flow.sta",
];

/// Everything the flow needs to prepare.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowConfig {
    /// Library generation parameters.
    pub generate: GenerateConfig,
    /// Design generation parameters.
    pub mcu: McuConfig,
    /// Number of Monte-Carlo libraries behind the statistical library (the
    /// paper combines 50); at least 1.
    pub mc_libraries: usize,
    /// Master seed.
    pub seed: u64,
    /// Inter-cell correlation for path sigma (the paper argues ρ = 0).
    pub rho: f64,
    /// Worker threads for Monte-Carlo characterization and incremental
    /// timing re-propagation during synthesis (`0` = all available cores).
    /// Results are bit-identical for any value.
    pub threads: usize,
    /// How much damage library ingestion tolerates (parse diagnostics,
    /// sick cells). Irrelevant for generated libraries, which are always
    /// pristine.
    pub strictness: Strictness,
}

impl FlowConfig {
    /// The paper-scale configuration: 304-cell library, 50 MC libraries,
    /// ~20 k-gate design.
    pub fn paper_scale() -> Self {
        Self {
            generate: GenerateConfig::full(),
            mcu: McuConfig::paper_scale(),
            mc_libraries: 50,
            seed: 20_140_324, // DATE 2014 week
            rho: 0.0,
            threads: 0,
            strictness: Strictness::Strict,
        }
    }

    /// A small configuration for tests: reduced library, ~1 k-gate design,
    /// fewer MC samples.
    pub fn small_for_tests() -> Self {
        Self {
            generate: GenerateConfig::full(),
            mcu: McuConfig::small_for_tests(),
            mc_libraries: 20,
            seed: 7,
            rho: 0.0,
            threads: 0,
            strictness: Strictness::Strict,
        }
    }
}

/// Error from the flow.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowError {
    /// Synthesis failed.
    Synth(SynthError),
    /// Timing/statistics extraction failed.
    Sta(StaError),
    /// The statistical library could not be built.
    Stat(String),
    /// Ingestion screening refused the library under the configured
    /// [`Strictness`].
    Rejected {
        /// Human-readable account of the first disqualifying problem.
        reason: String,
    },
    /// The surrounding scope's [`varitune_variation::CancelToken`] fired —
    /// a deadline passed or a caller requested cancellation — and the flow
    /// abandoned work at the next checkpoint. Transient by construction:
    /// re-running the same inputs without the token succeeds and is
    /// bit-identical to an uncancelled run.
    Cancelled,
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Synth(e) => write!(f, "synthesis failed: {e}"),
            FlowError::Sta(e) => write!(f, "timing failed: {e}"),
            FlowError::Stat(e) => write!(f, "statistical library failed: {e}"),
            FlowError::Rejected { reason } => write!(f, "library rejected: {reason}"),
            FlowError::Cancelled => write!(f, "flow cancelled: deadline passed or caller aborted"),
        }
    }
}

impl Error for FlowError {}

impl From<SynthError> for FlowError {
    fn from(e: SynthError) -> Self {
        FlowError::Synth(e)
    }
}

impl From<StaError> for FlowError {
    fn from(e: StaError) -> Self {
        FlowError::Sta(e)
    }
}

impl From<varitune_variation::Cancelled> for FlowError {
    fn from(_: varitune_variation::Cancelled) -> Self {
        FlowError::Cancelled
    }
}

/// Prepared inputs shared by every run of an experiment.
#[derive(Debug, Clone)]
pub struct Flow {
    /// Configuration used to prepare.
    pub config: FlowConfig,
    /// The nominal (unperturbed) library.
    pub nominal: Library,
    /// The §IV statistical library.
    pub stat: StatLibrary,
    /// The design under test.
    pub netlist: Netlist,
    /// What ingestion did to the library before preparation (pristine for
    /// generated libraries).
    pub report: FlowReport,
}

impl Flow {
    /// Generates the library, its Monte-Carlo statistical companion and the
    /// design. Deterministic in `config.seed`.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Stat`] when `config.mc_libraries` is 0.
    pub fn prepare(config: FlowConfig) -> Result<Self, FlowError> {
        let nominal = generate_nominal(&config.generate);
        let report = FlowReport::pristine(config.strictness, nominal.cells.len());
        Self::finish_prepare(config, nominal, report)
    }

    /// Prepares the flow around an externally supplied nominal library
    /// instead of the generator's. The library is linted and screened under
    /// `config.strictness` first; cells the screen removes are recorded in
    /// [`Flow::report`].
    ///
    /// # Errors
    ///
    /// [`FlowError::Rejected`] when the screen refuses the library (always
    /// under [`Strictness::Strict`] if anything is wrong, under any policy
    /// when no usable cell remains).
    pub fn prepare_from_library(config: FlowConfig, nominal: &Library) -> Result<Self, FlowError> {
        let (screened, report) = screen_library(nominal, &[], config.strictness)?;
        Self::finish_prepare(config, screened, report)
    }

    /// Parses Liberty `text` with the recovering parser, screens the result
    /// under `config.strictness`, and prepares the flow on whatever
    /// survives. Parse diagnostics feed the screen: strict ingestion
    /// rejects on any of them, tolerant policies record them as
    /// degradations.
    ///
    /// # Errors
    ///
    /// See [`Flow::prepare_from_library`].
    pub fn prepare_from_liberty_text(config: FlowConfig, text: &str) -> Result<Self, FlowError> {
        let (parsed, diagnostics) = parse_library_recovering(text);
        let (screened, report) = screen_library(&parsed, &diagnostics, config.strictness)?;
        Self::finish_prepare(config, screened, report)
    }

    /// Prepares the flow from a library that has **already** passed
    /// screening, together with the [`FlowReport`] that screening produced.
    /// This is the re-preparation path for callers that cache screened
    /// libraries (the serving registry): the screen's verdict is a pure
    /// function of `(library, strictness)`, so replaying it on a cache hit
    /// would only burn time. The result is identical to
    /// [`Flow::prepare_from_library`] on the original input.
    ///
    /// # Errors
    ///
    /// [`FlowError::Stat`] when `config.mc_libraries` is 0;
    /// [`FlowError::Cancelled`] if the current scope's cancel token fires
    /// during characterization.
    pub fn prepare_screened(
        config: FlowConfig,
        screened: Library,
        report: FlowReport,
    ) -> Result<Self, FlowError> {
        Self::finish_prepare(config, screened, report)
    }

    fn finish_prepare(
        config: FlowConfig,
        nominal: Library,
        mut report: FlowReport,
    ) -> Result<Self, FlowError> {
        if config.mc_libraries == 0 {
            return Err(FlowError::Stat(
                "mc_libraries is 0; the statistical library needs at least one MC library"
                    .to_string(),
            ));
        }
        let span = varitune_trace::span!("flow.prepare");
        varitune_variation::cancel::check()?;
        // Streaming characterization: perturbed values flow column-wise
        // straight into the Welford merge, bit-identical to materializing
        // `mc_libraries` full libraries and calling `from_libraries`.
        let stat = {
            let _stage = varitune_trace::span!("flow.characterize");
            StatLibrary::try_from_monte_carlo(
                &nominal,
                &config.generate,
                config.mc_libraries,
                config.seed,
                config.threads,
                true,
            )?
        };
        let netlist = {
            let _stage = varitune_trace::span!("flow.generate_design");
            generate_mcu(&config.mcu)
        };
        varitune_trace::add("core.flows_prepared", 1);
        drop(span);
        if varitune_trace::is_recording() {
            // The ledger carries the counter totals as of the end of
            // preparation, so harnesses that only keep the FlowReport
            // still see what ingestion and characterization did.
            report.counters = varitune_trace::snapshot().metrics.counters;
        }
        Ok(Self {
            config,
            nominal,
            stat,
            netlist,
            report,
        })
    }

    /// Synthesizes the design under `constraints` and extracts statistical
    /// timing. Synthesis and STA run against the statistical library's
    /// *mean* tables, as in the paper.
    ///
    /// # Errors
    ///
    /// Propagates [`SynthError`] and [`StaError`].
    pub fn run(
        &self,
        constraints: &LibraryConstraints,
        synth_cfg: &SynthConfig,
    ) -> Result<FlowRun, FlowError> {
        let synth_cfg = self.synth_config(synth_cfg);
        let _span = varitune_trace::span!("flow.run");
        varitune_variation::cancel::check()?;
        let synthesis = {
            let _stage = varitune_trace::span!("flow.synthesize");
            synthesize(&self.netlist, &self.stat.mean, constraints, &synth_cfg)?
        };
        varitune_variation::cancel::check()?;
        let (paths, design) = {
            let _stage = varitune_trace::span!("flow.sta");
            worst_paths(
                &synthesis.design,
                &self.stat.mean,
                &self.stat,
                &synthesis.report,
                self.config.rho,
            )?
        };
        Ok(FlowRun {
            synthesis,
            paths,
            design,
        })
    }

    /// `synth_cfg` as [`Flow::run`] hands it to synthesis: timing
    /// re-propagation uses the flow's worker count.
    fn synth_config(&self, synth_cfg: &SynthConfig) -> SynthConfig {
        SynthConfig {
            threads: self.config.threads,
            ..*synth_cfg
        }
    }

    /// Baseline run: no constraints.
    ///
    /// # Errors
    ///
    /// See [`Flow::run`].
    pub fn run_baseline(&self, synth_cfg: &SynthConfig) -> Result<FlowRun, FlowError> {
        self.run(&LibraryConstraints::unconstrained(), synth_cfg)
    }

    /// Statistical timing of a finished run: builds a [`TimingGraph`] over
    /// the synthesized design (against the statistical library's mean
    /// tables, like every other analysis in the flow) and propagates
    /// canonical first-order forms through it. The report carries
    /// per-endpoint mean/sigma, per-gate criticality and the
    /// yield-at-target-period metric — the statistical replacement for the
    /// paper's corner-plus-path-MC signoff (ROADMAP item 3).
    ///
    /// Deterministic and bit-identical at any `config.threads`.
    ///
    /// # Errors
    ///
    /// Propagates [`StaError`] from the graph build or the statistical
    /// propagation.
    pub fn ssta(&self, run: &FlowRun, opts: SstaOptions) -> Result<SstaReport, FlowError> {
        let _stage = varitune_trace::span!("flow.ssta");
        let mut graph = TimingGraph::new(
            run.synthesis.design.clone(),
            &self.stat.mean,
            &run.synthesis.report.config,
        )?;
        graph.set_threads(self.config.threads);
        Ok(analyze_ssta(&graph, &self.stat, opts)?)
    }

    /// Tunes the library with `method`/`params` and runs synthesis under
    /// the resulting windows: the tuning of [`PaperMethodOptimizer`] (its
    /// `flow.tune` span and counters) and then [`Flow::run`], the same calls
    /// in the same order as optimizing with that backend.
    ///
    /// # Errors
    ///
    /// See [`Flow::run`].
    pub fn run_tuned(
        &self,
        method: TuningMethod,
        params: TuningParams,
        synth_cfg: &SynthConfig,
    ) -> Result<(TunedLibrary, FlowRun), FlowError> {
        let tuned = PaperMethodOptimizer { method, params }.tune(&self.stat);
        let run = self.run(&tuned.constraints, synth_cfg)?;
        Ok((tuned, run))
    }

    /// Runs any [`Optimizer`] backend against this flow under `synth_cfg`.
    ///
    /// # Errors
    ///
    /// Propagates [`FlowError`] from candidate evaluation.
    pub fn optimize(
        &self,
        optimizer: &dyn Optimizer,
        synth_cfg: &SynthConfig,
    ) -> Result<Vec<Candidate>, FlowError> {
        optimizer.optimize(&Objective::new(self, *synth_cfg))
    }
}

/// One synthesized-and-measured design.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FlowRun {
    /// Synthesis outcome (mapped design, timing report, area).
    pub synthesis: SynthesisResult,
    /// Worst path per unique endpoint with statistical parameters.
    pub paths: Vec<PathTiming>,
    /// Design-level distribution (eq. 11).
    pub design: DesignTiming,
}

impl FlowRun {
    /// Design sigma (ns).
    pub fn sigma(&self) -> f64 {
        self.design.sigma
    }

    /// Total cell area (µm²).
    pub fn area(&self) -> f64 {
        self.synthesis.area
    }
}

/// Sigma/area comparison of a tuned run against the baseline (the axes of
/// Figs. 10–11).
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Comparison {
    /// Baseline design sigma (ns).
    pub baseline_sigma: f64,
    /// Tuned design sigma (ns).
    pub tuned_sigma: f64,
    /// Baseline area (µm²).
    pub baseline_area: f64,
    /// Tuned area (µm²).
    pub tuned_area: f64,
}

impl Comparison {
    /// Builds the comparison from two runs.
    pub fn between(baseline: &FlowRun, tuned: &FlowRun) -> Self {
        Self {
            baseline_sigma: baseline.sigma(),
            tuned_sigma: tuned.sigma(),
            baseline_area: baseline.area(),
            tuned_area: tuned.area(),
        }
    }

    /// Relative sigma decrease in percent (positive = improvement).
    pub fn sigma_reduction_pct(&self) -> f64 {
        100.0 * (1.0 - self.tuned_sigma / self.baseline_sigma)
    }

    /// Relative area increase in percent (positive = cost).
    pub fn area_increase_pct(&self) -> f64 {
        100.0 * (self.tuned_area / self.baseline_area - 1.0)
    }
}

/// Sweeps `candidates` for `method` and returns the outcome with the
/// highest sigma reduction whose area increase stays under
/// `area_cap_pct` — the selection rule behind Fig. 10 / Table 3. Ties keep
/// the earlier candidate.
///
/// Returns `None` when no candidate stays under the cap (Fig. 10 then shows
/// the method as absent).
///
/// Every candidate is tuned, but only a [`SynthKey`] this call has not met
/// is synthesized and signed off (see [`best_tuning_by_yield`]).
/// `baseline` must be this flow's `run_baseline(synth_cfg)`: a candidate
/// whose key equals the baseline's recorded key (one that tunes to no
/// effective restriction) reuses it instead of synthesizing it again, and
/// the baseline is cloned only when such a candidate is the pick. A
/// baseline synthesized under another configuration has another key and
/// is never reused.
///
/// # Errors
///
/// Propagates the first [`FlowError`].
#[allow(clippy::type_complexity)]
pub fn best_tuning_under_area_cap(
    flow: &Flow,
    baseline: &FlowRun,
    method: TuningMethod,
    candidates: &[TuningParams],
    synth_cfg: &SynthConfig,
    area_cap_pct: f64,
) -> Result<Option<(TuningParams, FlowRun, Comparison)>, FlowError> {
    let best = sweep(flow, Some(baseline), method, candidates, synth_cfg, |run| {
        let cmp = Comparison::between(baseline, run);
        let over_cap = cmp.area_increase_pct() > area_cap_pct;
        Ok((!over_cap).then(|| cmp.sigma_reduction_pct()))
    })?;
    Ok(best.map(|(params, run, _)| {
        let cmp = Comparison::between(baseline, &run);
        (params, run, cmp)
    }))
}

/// Sweeps `candidates` for `method` and returns the outcome with the best
/// SSTA timing yield at `target_period` — the statistical selection rule:
/// instead of minimizing design sigma under an area cap, pick the window
/// set most likely to meet the target clock on silicon.
///
/// Ties (bit-equal yields, common once every candidate saturates at 1)
/// break toward the earlier candidate, so the sweep is deterministic.
///
/// Every candidate is tuned, but synthesis, sign-off and SSTA run once
/// per [`SynthKey`] (the per-cell effective limits plus the synthesis
/// configuration) within this call: a later candidate with a key already
/// met would rebuild a bit-identical run, tie the earlier one and lose the
/// tie, so it is skipped and counted in `core.runs_reused`. The pick, its
/// run and its yield equal those of a loop over [`Flow::run_tuned`]
/// bit for bit. Nothing is kept across calls.
///
/// # Errors
///
/// Propagates the first [`FlowError`].
#[allow(clippy::type_complexity)]
pub fn best_tuning_by_yield(
    flow: &Flow,
    method: TuningMethod,
    candidates: &[TuningParams],
    synth_cfg: &SynthConfig,
    target_period: f64,
    opts: SstaOptions,
) -> Result<Option<(TuningParams, FlowRun, f64)>, FlowError> {
    sweep(flow, None, method, candidates, synth_cfg, |run| {
        Ok(Some(flow.ssta(run, opts)?.yield_at(target_period)))
    })
}

/// The selection loop of both entry points: the candidate with the highest
/// `score` wins, a later one only on a strict `>`, and `None` scores drop
/// out. A candidate whose [`SynthKey`] this call already met is skipped:
/// its run and score would equal the earlier candidate's, and a tie never
/// replaces the incumbent. A candidate with `seed`'s key is scored on
/// `seed` itself.
fn sweep(
    flow: &Flow,
    seed: Option<&FlowRun>,
    method: TuningMethod,
    candidates: &[TuningParams],
    synth_cfg: &SynthConfig,
    mut score: impl FnMut(&FlowRun) -> Result<Option<f64>, FlowError>,
) -> Result<Option<(TuningParams, FlowRun, f64)>, FlowError> {
    let synth_cfg = flow.synth_config(synth_cfg);
    let mut met: Vec<SynthKey> = Vec::new();
    let mut best: Option<(TuningParams, Cow<'_, FlowRun>, f64)> = None;
    for &params in candidates {
        let tuned = PaperMethodOptimizer { method, params }.tune(&flow.stat);
        let key = SynthKey::new(&flow.stat.mean, &tuned.constraints, &synth_cfg);
        if met.contains(&key) {
            varitune_trace::add("core.runs_reused", 1);
            continue;
        }
        let run = match seed {
            Some(seed) if seed.synthesis.key == key => {
                varitune_trace::add("core.runs_reused", 1);
                Cow::Borrowed(seed)
            }
            _ => Cow::Owned(flow.run(&tuned.constraints, &synth_cfg)?),
        };
        met.push(key);
        let Some(s) = score(&run)? else {
            continue;
        };
        if best.as_ref().is_none_or(|(_, _, b)| s > *b) {
            best = Some((params, run, s));
        }
    }
    Ok(best.map(|(params, run, s)| (params, run.into_owned(), s)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow_fixture() -> Flow {
        Flow::prepare(FlowConfig::small_for_tests()).unwrap()
    }

    #[test]
    fn prepare_is_deterministic() {
        let a = flow_fixture();
        let b = flow_fixture();
        assert_eq!(a.nominal, b.nominal);
        assert_eq!(a.netlist, b.netlist);
        assert_eq!(a.stat.sigma, b.stat.sigma);
    }

    #[test]
    fn out_of_range_rho_is_a_typed_error() {
        let mut flow = Flow::prepare(FlowConfig {
            rho: 1.5,
            ..FlowConfig::small_for_tests()
        })
        .unwrap();
        let synth = SynthConfig::with_clock_period(8.0);
        for rho in [1.5, f64::NAN] {
            flow.config.rho = rho;
            let err = flow.run_baseline(&synth).unwrap_err();
            assert!(
                matches!(err, FlowError::Sta(StaError::InvalidParameter { .. })),
                "{rho}: {err}"
            );
        }
    }

    #[test]
    fn baseline_run_produces_paths_and_sigma() {
        let flow = flow_fixture();
        let run = flow
            .run_baseline(&SynthConfig::with_clock_period(8.0))
            .unwrap();
        assert!(run.synthesis.met_timing);
        assert!(!run.paths.is_empty());
        assert!(run.sigma() > 0.0);
        assert!(run.design.mean > 0.0);
        assert_eq!(run.design.path_count, run.paths.len());
    }

    #[test]
    fn sigma_ceiling_tuning_reduces_design_sigma() {
        // The headline mechanism: restricting LUTs to low-sigma regions
        // must lower design sigma at some area cost.
        let flow = flow_fixture();
        let cfg = SynthConfig::with_clock_period(8.0);
        let baseline = flow.run_baseline(&cfg).unwrap();
        let (tuned_lib, tuned) = flow
            .run_tuned(
                TuningMethod::SigmaCeiling,
                TuningParams::with_sigma_ceiling(0.02),
                &cfg,
            )
            .unwrap();
        assert!(tuned_lib.restricted_pins > 0);
        let cmp = Comparison::between(&baseline, &tuned);
        assert!(
            cmp.sigma_reduction_pct() > 0.0,
            "sigma should drop: baseline {} tuned {}",
            cmp.baseline_sigma,
            cmp.tuned_sigma
        );
        assert!(
            cmp.area_increase_pct() > -1.0,
            "area should not shrink materially: {}",
            cmp.area_increase_pct()
        );
    }

    #[test]
    fn design_sigma_identical_across_thread_counts() {
        // The deterministic parallel engine must make the whole §IV flow
        // schedule-independent: identical design sigma at 1, 2 and 8
        // threads.
        let sigma_at = |threads: usize| {
            let mut cfg = FlowConfig::small_for_tests();
            cfg.threads = threads;
            let flow = Flow::prepare(cfg).unwrap();
            let run = flow
                .run_baseline(&SynthConfig::with_clock_period(8.0))
                .unwrap();
            run.sigma()
        };
        let one = sigma_at(1);
        assert_eq!(one.to_bits(), sigma_at(2).to_bits());
        assert_eq!(one.to_bits(), sigma_at(8).to_bits());
    }

    #[test]
    fn ssta_on_a_flow_run_is_consistent_and_thread_deterministic() {
        // The statistical sign-off surface: endpoint moments, criticality
        // normalization and yield behave, and the digest is bit-identical
        // whether the flow propagates on 1 or 8 workers.
        let digest_at = |threads: usize| {
            let mut cfg = FlowConfig::small_for_tests();
            cfg.threads = threads;
            let flow = Flow::prepare(cfg).unwrap();
            let run = flow
                .run_baseline(&SynthConfig::with_clock_period(8.0))
                .unwrap();
            let rep = flow.ssta(&run, SstaOptions::default()).unwrap();
            assert!(!rep.endpoints.is_empty());
            assert!(rep.design_sigma() > 0.0);
            assert!(
                (rep.criticality_sum() - 1.0).abs() < 1e-9,
                "criticalities must sum to 1, got {}",
                rep.criticality_sum()
            );
            let mu = rep.design_mean();
            let s = rep.design_sigma();
            assert!(rep.yield_at(mu + 5.0 * s) > 0.99);
            assert!(rep.yield_at(mu - 5.0 * s) < 0.01);
            rep.digest()
        };
        let one = digest_at(1);
        assert_eq!(one, digest_at(8));
    }

    #[test]
    fn yield_selection_picks_a_candidate_deterministically() {
        let flow = flow_fixture();
        let cfg = SynthConfig::with_clock_period(8.0);
        let sweep = [
            TuningParams::with_sigma_ceiling(0.02),
            TuningParams::with_sigma_ceiling(0.05),
        ];
        let pick = best_tuning_by_yield(
            &flow,
            TuningMethod::SigmaCeiling,
            &sweep,
            &cfg,
            8.0,
            SstaOptions::default(),
        )
        .unwrap()
        .expect("non-empty sweep yields a pick");
        let (params, run, y) = pick;
        assert!(sweep.contains(&params));
        assert!((0.0..=1.0).contains(&y));
        assert!(run.synthesis.met_timing);
        // Rerun: same pick, bit-identical yield.
        let again = best_tuning_by_yield(
            &flow,
            TuningMethod::SigmaCeiling,
            &sweep,
            &cfg,
            8.0,
            SstaOptions::default(),
        )
        .unwrap()
        .unwrap();
        assert_eq!(params, again.0);
        assert_eq!(y.to_bits(), again.2.to_bits());
    }

    #[test]
    fn zero_mc_libraries_is_a_typed_error_before_characterization() {
        let cfg = FlowConfig {
            mc_libraries: 0,
            ..FlowConfig::small_for_tests()
        };
        let nominal = generate_nominal(&cfg.generate);
        let report = FlowReport::pristine(cfg.strictness, nominal.cells.len());
        let (results, trace) = varitune_trace::capture(|| {
            [
                Flow::prepare(cfg.clone()).err(),
                Flow::prepare_from_library(cfg.clone(), &nominal).err(),
                Flow::prepare_screened(cfg.clone(), nominal.clone(), report).err(),
            ]
        });
        for err in results {
            assert!(matches!(err, Some(FlowError::Stat(_))), "{err:?}");
        }
        assert_eq!(trace.counter("libchar.mc_trials"), 0);
    }

    #[test]
    fn fired_token_cancels_prepare_and_run() {
        let token = varitune_variation::CancelToken::new();
        token.cancel();
        let err = varitune_variation::cancel::with_token(&token, || {
            Flow::prepare(FlowConfig::small_for_tests())
        })
        .unwrap_err();
        assert_eq!(err, FlowError::Cancelled);

        let flow = flow_fixture();
        let err = varitune_variation::cancel::with_token(&token, || {
            flow.run_baseline(&SynthConfig::with_clock_period(8.0))
        })
        .unwrap_err();
        assert_eq!(err, FlowError::Cancelled);
    }

    #[test]
    fn run_under_live_token_matches_uncancelled_run() {
        // Checkpoints must only abort, never perturb: a run that completes
        // under a token is bit-identical to one without.
        let flow = flow_fixture();
        let cfg = SynthConfig::with_clock_period(8.0);
        let plain = flow.run_baseline(&cfg).unwrap();
        let token = varitune_variation::CancelToken::new();
        let under =
            varitune_variation::cancel::with_token(&token, || flow.run_baseline(&cfg)).unwrap();
        assert_eq!(plain.sigma().to_bits(), under.sigma().to_bits());
        assert_eq!(plain.paths, under.paths);
    }

    #[test]
    fn prepare_screened_matches_prepare_from_library() {
        let cfg = FlowConfig::small_for_tests();
        let nominal = generate_nominal(&cfg.generate);
        let via_screen = Flow::prepare_from_library(cfg.clone(), &nominal).unwrap();
        let resumed =
            Flow::prepare_screened(cfg, via_screen.nominal.clone(), via_screen.report.clone())
                .unwrap();
        assert_eq!(resumed.stat.sigma, via_screen.stat.sigma);
        assert_eq!(resumed.netlist, via_screen.netlist);
        assert_eq!(resumed.report, via_screen.report);
    }

    #[test]
    fn comparison_percentages() {
        let c = Comparison {
            baseline_sigma: 0.10,
            tuned_sigma: 0.063,
            baseline_area: 1000.0,
            tuned_area: 1070.0,
        };
        assert!((c.sigma_reduction_pct() - 37.0).abs() < 1e-9);
        assert!((c.area_increase_pct() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn best_tuning_respects_area_cap() {
        let flow = flow_fixture();
        let cfg = SynthConfig::with_clock_period(8.0);
        let baseline = flow.run_baseline(&cfg).unwrap();
        // An impossible cap (negative) rejects every candidate with area
        // growth; a generous cap accepts some candidate.
        let none = best_tuning_under_area_cap(
            &flow,
            &baseline,
            TuningMethod::SigmaCeiling,
            &[TuningParams::with_sigma_ceiling(0.015)],
            &cfg,
            -50.0,
        )
        .unwrap();
        assert!(none.is_none());
        let some = best_tuning_under_area_cap(
            &flow,
            &baseline,
            TuningMethod::SigmaCeiling,
            &[
                TuningParams::with_sigma_ceiling(0.03),
                TuningParams::with_sigma_ceiling(0.02),
            ],
            &cfg,
            1000.0,
        )
        .unwrap();
        assert!(some.is_some());
    }
}
