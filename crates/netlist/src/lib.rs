//! Gate-level netlist IR and synthetic design generation.
//!
//! The paper evaluates on a 20 k-gate microcontroller (32-bit CPU, AHB bus,
//! SRAM interface). We do not have that RTL, so this crate provides:
//!
//! * [`ir`] — a small technology-independent gate-level IR ([`Netlist`],
//!   [`GateKind`]) in flat CSR storage, with validation and the
//!   combinational order ([`Netlist::comb_order`]),
//! * [`build`] — structural builders for the classic datapath blocks
//!   (ripple/carry adders, mux trees, decoders, barrel shifters, register
//!   files, counters, LFSR-seeded logic clouds),
//! * [`mcu`] — a deterministic generator composing those blocks into a
//!   microcontroller-class design with the gate count, sequential depth and
//!   fanout profile the experiments need,
//! * [`stats`] — netlist census used by the experiment reports.
//!
//! # Example
//!
//! ```
//! use varitune_netlist::mcu::{generate_mcu, McuConfig};
//!
//! let design = generate_mcu(&McuConfig::small_for_tests());
//! design.validate().unwrap();
//! let stats = design.stats();
//! assert!(stats.total_gates > 500);
//! assert!(stats.flip_flops > 50);
//! ```

// Panics must not be reachable from user input in this crate; every
// non-test `unwrap`/`expect` needs an `#[allow]` with an invariant note.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod build;
pub mod dsp;
pub mod ir;
pub mod mcu;
pub mod sim;
pub mod soc;
pub mod stats;

pub use dsp::{generate_fir, FirConfig};
pub use ir::{GateKind, NetId, Netlist, ValidateNetlistError};
pub use mcu::{generate_mcu, McuConfig};
pub use sim::{random_activity, ActivityReport, Simulator};
pub use soc::{generate_soc, SocConfig};
pub use stats::NetlistStats;
