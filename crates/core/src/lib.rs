//! Variability-aware standard-cell library tuning — the primary
//! contribution of *"Standard cell library tuning for variability tolerant
//! designs"* (Fabrie, DATE 2014), reimplemented from scratch.
//!
//! Instead of removing cells from a library, the method **restricts each
//! output pin's look-up table to the slew/load rectangle where the cell's
//! delay sigma is low**, and hands those windows to synthesis. The design
//! that comes back uses larger drives and more buffering where it matters —
//! a few percent more area for a large cut in the design's sensitivity to
//! local (intra-die) process variation.
//!
//! * [`methods`] — the five tuning methods and Table 2 parameters,
//! * [`slope`] — slope tables and binary thresholding (eqs. 12–13),
//! * [`rectangle`] — Algorithm 1, brute force and summed-area variants,
//! * [`tuning`] — the two-stage pipeline producing a [`TunedLibrary`],
//! * [`exclusion`] — the coarse related-work baseline (whole-cell
//!   subsetting) the paper's method improves on,
//! * [`flow`] — the end-to-end experiment flow (characterize → synthesize →
//!   tune → re-synthesize → compare),
//! * [`optimize`] — pluggable [`Optimizer`] backends over that flow: the
//!   paper methods behind one trait, plus a deterministic evolutionary
//!   Pareto search over operating-window genomes,
//! * [`quarantine`] — ingestion screening for external libraries: the
//!   [`Strictness`] policies, cell quarantine with the drive-family
//!   feasibility fallback, and the [`Degradation`] ledger.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use varitune_core::flow::{Comparison, Flow, FlowConfig};
//! use varitune_core::{tune, TuningMethod, TuningParams};
//! use varitune_synth::SynthConfig;
//!
//! // Small fixture: reduced design, full 304-cell library.
//! let flow = Flow::prepare(FlowConfig::small_for_tests())?;
//! let cfg = SynthConfig::with_clock_period(8.0);
//! let baseline = flow.run_baseline(&cfg)?;
//!
//! // Tune with a sigma ceiling and re-synthesize.
//! let (tuned_lib, tuned) =
//!     flow.run_tuned(TuningMethod::SigmaCeiling, TuningParams::with_sigma_ceiling(0.02), &cfg)?;
//! assert!(tuned_lib.restricted_pins > 0);
//! let cmp = Comparison::between(&baseline, &tuned);
//! assert!(cmp.sigma_reduction_pct() > 0.0);
//! // Standalone tuning (no synthesis) is also available:
//! let t = tune(&flow.stat, TuningMethod::CellLoadSlope, TuningParams::with_load_slope(0.03));
//! assert!(!t.cluster_thresholds.is_empty());
//! # Ok(())
//! # }
//! ```

// Panics must not be reachable from user input in this crate; every
// non-test `unwrap`/`expect` needs an `#[allow]` with an invariant note.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod exclusion;
pub mod flow;
pub mod methods;
pub mod optimize;
pub mod quarantine;
pub mod rectangle;
pub mod slope;
pub mod tuning;

pub use exclusion::{tune_by_exclusion, ExclusionTuning};
pub use flow::{
    best_tuning_by_yield, Comparison, Flow, FlowConfig, FlowError, FlowRun, FLOW_STAGE_SPANS,
};
pub use methods::{TuningMethod, TuningParams};
pub use optimize::{
    dominates, pareto_front_indices, Candidate, EvolutionConfig, EvolutionaryOptimizer, Optimizer,
    PaperMethodOptimizer, OPTIMIZER_SPANS,
};
pub use quarantine::{screen_library, Degradation, FlowReport, Strictness};
pub use rectangle::{largest_rectangle, largest_rectangle_bruteforce, Rect};
pub use tuning::{tune, ClusterThreshold, TunedLibrary, TuningProvenance};
