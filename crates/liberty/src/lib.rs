//! Liberty (`.lib`) timing-library data model, parser and writer.
//!
//! The Liberty format is the de-facto interchange format for standard-cell
//! timing libraries. A library contains *cells*; each cell has *pins*; output
//! pins carry *timing arcs* whose delay and output-transition behaviour is
//! tabulated in two-dimensional *look-up tables* (LUTs) indexed by input slew
//! and output load.
//!
//! This crate implements the subset of Liberty needed by the variability
//! tuning flow:
//!
//! * [`Library`], [`Cell`], [`Pin`], [`TimingArc`], [`Lut`], [`LutTemplate`]
//!   — the data model ([`model`]),
//! * a parser ([`parser`]) with a strict mode ([`parse_library`]) that
//!   fails on the first error and a recovering mode
//!   ([`parse_library_recovering`]) that records span-carrying
//!   [`Diagnostic`]s and keeps whatever survives; both run one sequential
//!   zero-copy pipeline (borrowed-slice lexer [`fastlex`], lazy line/column
//!   via [`linemap`], Clinger fast-path floats [`fastfloat`]),
//! * library lints producing per-cell [`CellHealth`] verdicts
//!   ([`validate`]),
//! * a writer that emits well-formed Liberty text ([`writer`]); it refuses
//!   non-finite values with a typed [`WriteLibertyError`] so anything
//!   written is guaranteed to re-parse,
//! * bilinear LUT interpolation ([`Lut::interpolate`]) on one shared
//!   primitive ([`Bracket`]) that code keeping tables in its own layout
//!   evaluates with too.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use varitune_liberty::{parse_library, Library};
//!
//! let text = r#"
//! library (demo) {
//!   time_unit : "1ns";
//!   lu_table_template (del_3x3) {
//!     variable_1 : input_net_transition;
//!     variable_2 : total_output_net_capacitance;
//!     index_1 ("0.01, 0.1, 0.5");
//!     index_2 ("0.001, 0.01, 0.1");
//!   }
//!   cell (INV_1) {
//!     area : 1.2;
//!     pin (A) { direction : input; capacitance : 0.002; }
//!     pin (Z) {
//!       direction : output;
//!       function : "!A";
//!       timing () {
//!         related_pin : "A";
//!         timing_sense : negative_unate;
//!         cell_rise (del_3x3) {
//!           values ("0.1, 0.2, 0.9", "0.15, 0.25, 0.95", "0.4, 0.5, 1.2");
//!         }
//!       }
//!     }
//!   }
//! }
//! "#;
//! let lib: Library = parse_library(text)?;
//! assert_eq!(lib.name, "demo");
//! assert_eq!(lib.cells.len(), 1);
//! let lut = lib.cells[0].output_pins().next().unwrap().timing[0]
//!     .cell_rise.as_ref().unwrap();
//! // Bilinear interpolation at an interior operating point.
//! let d = lut.interpolate(0.05, 0.005)?;
//! assert!(d > 0.1 && d < 0.3);
//! # Ok(())
//! # }
//! ```

// Panics must not be reachable from user input in this crate; every
// non-test `unwrap`/`expect` needs an `#[allow]` with an invariant note.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod diagnostic;
pub mod error;
pub mod fastfloat;
pub mod fastlex;
pub mod ids;
pub mod linemap;
pub mod model;
pub mod parser;
pub mod validate;
pub mod writer;

mod fastparse;

pub use diagnostic::{Diagnostic, Severity};
pub use error::{InterpolateError, ParseLibertyError, WriteLibertyError};
pub use ids::{CellId, Family, FamilyId, Interner, LibraryFingerprint, PinId};
pub use model::{
    Bracket, Cell, CellKind, InternalPower, Library, Lut, LutTemplate, Pin, PinDirection,
    TimingArc, TimingSense, TimingType,
};
pub use parser::{parse_library, parse_library_recovering, parse_library_recovering_threads};
pub use validate::{validate_cell, validate_library, CellHealth, CellReport, LibraryHealth};
pub use writer::write_library;
