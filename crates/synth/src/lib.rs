//! Technology mapping and timing-driven optimization under per-pin
//! operating windows.
//!
//! This crate is the synthesis substrate of the reproduction. The paper's
//! flow hands the tuned library (cells plus per-output-pin slew/load
//! windows) to a commercial synthesis tool; here the same contract is
//! implemented from scratch:
//!
//! * [`constraint`] — [`OperatingWindow`] / [`LibraryConstraints`], the
//!   restriction format tuning produces,
//! * [`map`] — generic-gate → cell-family technology mapping,
//! * [`optimize`] — the iterative optimizer: load/slew legalization against
//!   the windows, critical-path up-sizing, inverter-pair fanout buffering,
//!   and slack-driven area recovery,
//! * [`report`] — Table 1 minimum-period search and Fig. 9 cell-usage
//!   comparisons.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use varitune_libchar::{generate_nominal, GenerateConfig};
//! use varitune_netlist::{generate_mcu, McuConfig};
//! use varitune_synth::{synthesize, LibraryConstraints, SynthConfig};
//!
//! let lib = generate_nominal(&GenerateConfig::full());
//! let design = generate_mcu(&McuConfig::small_for_tests());
//! let result = synthesize(
//!     &design,
//!     &lib,
//!     &LibraryConstraints::unconstrained(),
//!     &SynthConfig::with_clock_period(10.0),
//! )?;
//! assert!(result.met_timing);
//! # Ok(())
//! # }
//! ```

// Panics must not be reachable from user input in this crate; every
// non-test `unwrap`/`expect` needs an `#[allow]` with an invariant note.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod constraint;
pub mod map;
pub mod optimize;
pub mod report;
pub mod verilog;

pub use constraint::{LibraryConstraints, OperatingWindow};
pub use map::{map_netlist, map_soa, MapError, TargetLibrary};
pub use optimize::{synthesize, SynthConfig, SynthError, SynthKey, SynthesisResult};
pub use report::{find_min_period, usage_comparison, UsageRow};
pub use verilog::write_verilog;
