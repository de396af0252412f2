//! Static timing analysis with statistical path/design timing.
//!
//! Implements §V of the paper: propagate arrivals and slews through a mapped
//! design using bilinear LUT interpolation, extract the worst path to every
//! unique endpoint, and convolve per-cell `(mean, sigma)` pairs from the
//! statistical library into path and design distributions (eqs. 5–11).
//!
//! * [`mapped`] — [`MappedDesign`]: a generic netlist plus the library cell
//!   chosen for every gate, and the wire-load model,
//! * [`engine`] — [`TimingGraph`]: the build-once interned timing engine
//!   (levelized, dirty-cone incremental re-timing after local edits,
//!   parallel within levels, bit-identical to a full analysis),
//! * [`graph`] — the [`analyze`] entry point (a thin wrapper over one
//!   engine build-and-propagate) and the report types,
//! * [`paths`] — per-endpoint worst-path extraction, path depth, and the
//!   statistical path/design metrics,
//! * [`mc`] — deterministic (bit-identical for any thread count) parallel
//!   Monte-Carlo validation of the extracted paths against the analytic
//!   convolution.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use varitune_libchar::{generate_nominal, GenerateConfig};
//! use varitune_netlist::{GateKind, Netlist};
//! use varitune_sta::{analyze, MappedDesign, StaConfig, WireModel};
//!
//! // A two-gate design mapped onto the synthetic library.
//! let lib = generate_nominal(&GenerateConfig::small_for_tests());
//! let mut nl = Netlist::new("demo");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let x = nl.add_net("x");
//! let y = nl.add_net("y");
//! nl.add_gate(GateKind::Nand, &[a, b], &[x]);
//! nl.add_gate(GateKind::Inv, &[x], &[y]);
//! nl.mark_output(y);
//! let design =
//!     MappedDesign::from_names(nl, &["ND2_2", "INV_1"], &lib, WireModel::default())?;
//! let report = analyze(&design, &lib, &StaConfig::with_clock_period(1.0))?;
//! assert!(report.worst_slack() > 0.0); // comfortably meets 1 ns
//! # Ok(())
//! # }
//! ```

// Panics must not be reachable from user input in this crate; every
// non-test `unwrap`/`expect` needs an `#[allow]` with an invariant note.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod engine;
pub mod graph;
pub mod hold;
pub mod mapped;
pub mod mc;
pub mod paths;
pub mod power;
pub mod report;
pub mod sdf;
pub mod ssta;

pub use engine::TimingGraph;
pub use graph::{analyze, required_times, StaConfig, StaError, TimingReport};
pub use hold::{analyze_hold, HoldConfig, HoldReport};
pub use mapped::{MappedDesign, WireModel};
pub use mc::{mc_cells, simulate_worst_paths, PathMcResult};
pub use paths::{deadline_at_yield, timing_yield, DesignTiming, PathTiming};
pub use power::{estimate_power, estimate_power_with_activity, PowerConfig, PowerReport};
pub use report::report_timing;
pub use sdf::write_sdf;
pub use ssta::{
    analyze_ssta, CanonicalForm, GraphMcResult, SstaEndpoint, SstaModel, SstaOptions, SstaReport,
    GLOBAL_SOURCE,
};
