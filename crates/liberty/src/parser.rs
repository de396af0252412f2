//! Liberty text entry points.
//!
//! Strict and recovering parses run the one sequential zero-copy
//! recovering pipeline (`fastparse`): borrowed-slice tokens, resync-based
//! recovery, per-cell lowering into the typed [`Library`] model, and
//! diagnostics materialized with line, column and a context path only when
//! at least one exists. Unknown groups and attributes are skipped, which
//! keeps the parser robust against the many vendor-specific extensions
//! found in real `.lib` files.

use crate::diagnostic::Diagnostic;
use crate::error::ParseLibertyError;
use crate::model::Library;

/// Parses Liberty text into the typed [`Library`] model, failing on the
/// first error.
///
/// Runs the recovering parse once. Warnings (such as a redefined
/// `lu_table_template`) do not fail a strict parse; the first
/// error-severity diagnostic does, converted with
/// [`Diagnostic::into_parse_error`] so the error keeps its source span and
/// names the enclosing structure in its message.
///
/// # Errors
///
/// Returns [`ParseLibertyError`] on malformed syntax or on structural
/// problems (e.g. a table referencing an undeclared template, a `values`
/// body whose shape does not match its axes, or a duplicated cell).
pub fn parse_library(input: &str) -> Result<Library, ParseLibertyError> {
    let (lib, diags) = crate::fastparse::parse_library_recovering_core(input);
    match diags.into_iter().find(Diagnostic::is_error) {
        None => Ok(lib),
        Some(first) => Err(first.into_parse_error()),
    }
}

/// Parses Liberty text, recovering from malformed regions instead of
/// aborting on the first problem.
///
/// Every problem — lexical junk, unbalanced syntax, or structural issues
/// found while lowering (bad tables, unknown enum values, missing required
/// attributes) — is recorded as a span-carrying [`Diagnostic`] whose context
/// path names the enclosing structure (e.g.
/// `library/cell(NAND2_2)/pin(Y)/timing`). The offending region is skipped by
/// resynchronizing at the next balanced `;` or `}` and parsing continues.
/// The returned [`Library`] holds everything that survived; the diagnostics
/// account for everything that did not.
///
/// Records the `liberty.recovering_parses`, `liberty.cells_parsed` and
/// `liberty.parse_diagnostics` trace counters.
pub fn parse_library_recovering(input: &str) -> (Library, Vec<Diagnostic>) {
    let (lib, diags) = crate::fastparse::parse_library_recovering_core(input);
    varitune_trace::add("liberty.recovering_parses", 1);
    varitune_trace::add("liberty.cells_parsed", lib.cells.len() as u64);
    varitune_trace::add("liberty.parse_diagnostics", diags.len() as u64);
    (lib, diags)
}

/// [`parse_library_recovering`] under its former signature; the thread
/// count is ignored. Kept only for `benchmark/`.
pub fn parse_library_recovering_threads(
    input: &str,
    _threads: usize,
) -> (Library, Vec<Diagnostic>) {
    parse_library_recovering(input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{TimingSense, TimingType};

    const SMALL_LIB: &str = r#"
    library (TT1P1V25C) {
      time_unit : "1ns";
      capacitive_load_unit (1, pf);
      nom_voltage : 1.1;
      nom_temperature : 25;
      lu_table_template (del_2x3) {
        variable_1 : input_net_transition;
        variable_2 : total_output_net_capacitance;
        index_1 ("0.01, 0.1");
        index_2 ("0.001, 0.01, 0.1");
      }
      cell (INV_2) {
        area : 1.5;
        pin (A) { direction : input; capacitance : 0.003; }
        pin (Z) {
          direction : output;
          max_capacitance : 0.2;
          function : "!A";
          timing () {
            related_pin : "A";
            timing_sense : negative_unate;
            cell_rise (del_2x3) {
              values ("0.10, 0.20, 0.90", "0.15, 0.25, 0.95");
            }
            cell_fall (del_2x3) {
              values ("0.11, 0.21, 0.91", "0.16, 0.26, 0.96");
            }
            rise_transition (del_2x3) {
              values ("0.05, 0.10, 0.40", "0.08, 0.13, 0.43");
            }
            fall_transition (del_2x3) {
              values ("0.06, 0.11, 0.41", "0.09, 0.14, 0.44");
            }
          }
        }
      }
      cell (DF_1) {
        area : 4.0;
        pin (CK) { direction : input; capacitance : 0.002; clock : true; }
        pin (D)  { direction : input; capacitance : 0.002; }
        pin (Q) {
          direction : output;
          function : "D";
          timing () {
            related_pin : "CK";
            timing_type : rising_edge;
            cell_rise (del_2x3) {
              values ("0.2, 0.3, 1.0", "0.25, 0.35, 1.05");
            }
            rise_transition (del_2x3) {
              values ("0.05, 0.1, 0.4", "0.08, 0.13, 0.43");
            }
          }
        }
      }
    }
    "#;

    #[test]
    fn parses_full_small_library() {
        let lib = parse_library(SMALL_LIB).unwrap();
        assert_eq!(lib.name, "TT1P1V25C");
        assert_eq!(lib.time_unit, "1ns");
        assert_eq!(lib.cap_unit, "1pf");
        assert_eq!(lib.voltage, 1.1);
        assert_eq!(lib.temperature, 25.0);
        assert_eq!(lib.cells.len(), 2);
        assert_eq!(lib.templates.len(), 1);
    }

    #[test]
    fn lut_axes_come_from_template() {
        let lib = parse_library(SMALL_LIB).unwrap();
        let inv = lib.cell("INV_2").unwrap();
        let arc = &inv.pin("Z").unwrap().timing[0];
        let cr = arc.cell_rise.as_ref().unwrap();
        assert_eq!(cr.index_slew, vec![0.01, 0.1]);
        assert_eq!(cr.index_load, vec![0.001, 0.01, 0.1]);
        assert_eq!(cr.at(1, 2), 0.95);
    }

    #[test]
    fn timing_metadata_is_lowered() {
        let lib = parse_library(SMALL_LIB).unwrap();
        let inv_arc = &lib.cell("INV_2").unwrap().pin("Z").unwrap().timing[0];
        assert_eq!(inv_arc.timing_sense, TimingSense::NegativeUnate);
        assert_eq!(inv_arc.timing_type, TimingType::Combinational);
        let ff_arc = &lib.cell("DF_1").unwrap().pin("Q").unwrap().timing[0];
        assert_eq!(ff_arc.timing_type, TimingType::RisingEdge);
        assert_eq!(ff_arc.related_pin, "CK");
    }

    #[test]
    fn clock_pin_and_sequential_detection() {
        let lib = parse_library(SMALL_LIB).unwrap();
        let ff = lib.cell("DF_1").unwrap();
        assert!(ff.pin("CK").unwrap().is_clock);
        assert!(ff.is_sequential());
        assert!(!lib.cell("INV_2").unwrap().is_sequential());
    }

    #[test]
    fn pin_attributes_are_lowered() {
        let lib = parse_library(SMALL_LIB).unwrap();
        let z = lib.cell("INV_2").unwrap().pin("Z").unwrap();
        assert_eq!(z.max_capacitance, Some(0.2));
        assert_eq!(z.function.as_deref(), Some("!A"));
        let a = lib.cell("INV_2").unwrap().pin("A").unwrap();
        assert_eq!(a.capacitance, 0.003);
    }

    #[test]
    fn inline_index_overrides_template() {
        let text = r#"
        library (L) {
          lu_table_template (t) { index_1 ("1, 2"); index_2 ("1, 2"); }
          cell (C_1) {
            pin (Z) {
              direction : output;
              timing () {
                related_pin : "A";
                cell_rise (t) {
                  index_1 ("5, 6, 7");
                  index_2 ("8, 9");
                  values ("1, 2", "3, 4", "5, 6");
                }
              }
            }
          }
        }
        "#;
        let lib = parse_library(text).unwrap();
        let lut = lib.cells[0].pins[0].timing[0].cell_rise.as_ref().unwrap();
        assert_eq!(lut.index_slew, vec![5.0, 6.0, 7.0]);
        assert_eq!(lut.index_load, vec![8.0, 9.0]);
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let text = r#"
        library (L) {
          cell (C_1) {
            pin (Z) {
              direction : output;
              timing () {
                related_pin : "A";
                cell_rise () {
                  index_1 ("1, 2");
                  index_2 ("1, 2");
                  values ("1, 2, 3", "4, 5, 6");
                }
              }
            }
          }
        }
        "#;
        let err = parse_library(text).unwrap_err();
        assert!(err.message.contains("shape"), "{err}");
        // Lowering errors carry no span of their own; the strict error
        // points at the enclosing `timing` keyword and names its path.
        assert!(err.line > 0, "{err}");
        assert_eq!((err.line, err.column), (6, 15), "{err}");
        assert!(
            err.message.contains("library/cell(C_1)/pin(Z)/timing"),
            "{err}"
        );
    }

    #[test]
    fn missing_related_pin_is_an_error() {
        let text = r#"
        library (L) {
          cell (C_1) {
            pin (Z) { direction : output; timing () { } }
          }
        }
        "#;
        let err = parse_library(text).unwrap_err();
        assert!(err.message.contains("related_pin"), "{err}");
        assert_eq!((err.line, err.column), (4, 43), "{err}");
        assert!(
            err.message.contains("library/cell(C_1)/pin(Z)/timing"),
            "{err}"
        );
    }

    #[test]
    fn duplicate_cell_is_a_strict_error() {
        let text = "library (L) {\n  cell (X_1) { area : 1.0; }\n  cell (X_1) { area : 9.0; }\n}\n";
        let err = parse_library(text).unwrap_err();
        assert_eq!((err.line, err.column), (3, 3), "{err}");
        assert!(err.message.contains("library/cell(X_1)"), "{err}");
    }

    #[test]
    fn warnings_do_not_fail_a_strict_parse() {
        let text = "library (L) {\n  lu_table_template (t) { index_1 (\"1, 2\"); }\n  lu_table_template (t) { index_1 (\"3, 4\"); }\n}\n";
        let lib = parse_library(text).unwrap();
        assert_eq!(lib.templates["t"].index_1, vec![3.0, 4.0]);
    }

    #[test]
    fn unknown_groups_and_attrs_are_ignored() {
        let text = r#"
        library (L) {
          operating_conditions (typ) { process : 1; }
          default_max_transition : 0.6;
          cell (C_1) {
            cell_leakage_power : 0.5;
            pg_pin (VDD) { pg_type : primary_power; }
            pin (A) { direction : input; capacitance : 0.001; }
          }
        }
        "#;
        let lib = parse_library(text).unwrap();
        assert_eq!(lib.cells.len(), 1);
        assert_eq!(lib.cells[0].pins.len(), 1);
    }

    #[test]
    fn top_level_must_be_library() {
        assert!(parse_library("cell (X) { }").is_err());
    }

    #[test]
    fn trailing_garbage_is_an_error() {
        assert!(parse_library("library (L) { } extra").is_err());
    }

    #[test]
    fn flat_values_list_is_reshaped() {
        let text = r#"
        library (L) {
          cell (C_1) {
            pin (Z) {
              direction : output;
              timing () {
                related_pin : "A";
                cell_rise () {
                  index_1 ("1, 2");
                  index_2 ("1, 2, 3");
                  values ("1, 2, 3, 4, 5, 6");
                }
              }
            }
          }
        }
        "#;
        let lib = parse_library(text).unwrap();
        let lut = lib.cells[0].pins[0].timing[0].cell_rise.as_ref().unwrap();
        assert_eq!(lut.values, vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
    }

    #[test]
    fn error_positions_point_at_offender() {
        let err = parse_library("library (L) { area 5; }").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.column > 1);
    }

    #[test]
    fn non_monotonic_axis_is_a_parse_error() {
        let text = r#"
        library (L) {
          cell (INV_1) {
            area : 1.0;
            pin (Z) {
              direction : output;
              timing () {
                related_pin : "A";
                cell_rise () {
                  index_1 ("2, 1");
                  index_2 ("1, 2");
                  values ("1, 2", "3, 4");
                }
              }
            }
          }
        }
        "#;
        let err = parse_library(text).unwrap_err();
        assert!(
            err.message.contains("strictly increasing"),
            "unexpected message: {}",
            err.message
        );
    }

    // -- recovering parser ---------------------------------------------------

    use crate::diagnostic::Severity;

    #[test]
    fn recovering_parse_on_clean_input_matches_strict() {
        let strict = parse_library(SMALL_LIB).unwrap();
        let (lib, diags) = parse_library_recovering(SMALL_LIB);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(lib, strict);
    }

    #[test]
    fn truncated_file_recovers_surviving_cells() {
        let text = "library (L) {\n  cell (GOOD_1) {\n    area : 1.0;\n    pin (A) { direction : input; capacitance : 0.001; }\n  }\n  cell (BAD_1) {\n    area : 2.0;";
        let (lib, diags) = parse_library_recovering(text);
        let names: Vec<&str> = lib.cells.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["GOOD_1", "BAD_1"]);
        assert_eq!(lib.cells[0].pins.len(), 1);
        // Two unterminated bodies: the truncated cell and the library itself.
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(Diagnostic::is_error));
        assert_eq!(diags[0].context, "library/cell(BAD_1)");
        assert_eq!(diags[1].context, "library");
        // Both point at the last token before end of input: the `;` on line 7.
        assert_eq!((diags[0].line, diags[0].column), (7, 15));
    }

    #[test]
    fn unbalanced_brace_closes_library_early() {
        let text =
            "library (L) {\n  cell (A_1) { area : 1.0; } }\n  cell (B_1) { area : 2.0; }\n}\n";
        let (lib, diags) = parse_library_recovering(text);
        assert_eq!(lib.cells.len(), 1);
        assert_eq!(lib.cells[0].name, "A_1");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!((diags[0].line, diags[0].column), (3, 3));
        assert!(
            diags[0].message.contains("trailing"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn malformed_number_drops_only_the_arc() {
        let text = "library (L) {\n  cell (C_1) {\n    area : 1.0;\n    pin (Z) {\n      direction : output;\n      timing () {\n        related_pin : \"A\";\n        cell_rise () {\n          index_1 (\"1, 2\");\n          index_2 (\"1, 2\");\n          values (\"1, 2x\", \"3, 4\");\n        }\n      }\n    }\n  }\n}\n";
        let (lib, diags) = parse_library_recovering(text);
        assert_eq!(lib.cells.len(), 1);
        let pin = &lib.cells[0].pins[0];
        assert!(pin.timing.is_empty(), "bad arc must be dropped");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].context, "library/cell(C_1)/pin(Z)/timing");
        // The lowering error has no span of its own; it falls back to the
        // `timing` keyword at line 6, column 7.
        assert_eq!((diags[0].line, diags[0].column), (6, 7));
        assert!(diags[0].message.contains("2x"), "{}", diags[0].message);
    }

    #[test]
    fn duplicate_cell_is_dropped_with_diagnostic() {
        let text = "library (L) {\n  cell (X_1) { area : 1.0; }\n  cell (X_1) { area : 9.0; }\n}\n";
        let (lib, diags) = parse_library_recovering(text);
        assert_eq!(lib.cells.len(), 1);
        assert_eq!(lib.cells[0].area, 1.0, "first definition wins");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].is_error());
        assert_eq!((diags[0].line, diags[0].column), (3, 3));
        assert_eq!(diags[0].context, "library/cell(X_1)");
    }

    #[test]
    fn duplicate_template_overrides_with_warning() {
        let text = "library (L) {\n  lu_table_template (t) { index_1 (\"1, 2\"); }\n  lu_table_template (t) { index_1 (\"3, 4\"); }\n}\n";
        let (lib, diags) = parse_library_recovering(text);
        assert_eq!(lib.templates.len(), 1);
        assert_eq!(lib.templates["t"].index_1, vec![3.0, 4.0]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].severity, Severity::Warning);
        assert_eq!((diags[0].line, diags[0].column), (3, 3));
    }

    #[test]
    fn bad_member_resyncs_and_keeps_siblings() {
        let text = "library (L) {\n  cell (A_1) {\n    area 5;\n    pin (X) { direction : input; capacitance : 0.002; }\n  }\n}\n";
        let (lib, diags) = parse_library_recovering(text);
        assert_eq!(lib.cells.len(), 1);
        assert_eq!(
            lib.cells[0].pins.len(),
            1,
            "pin after the bad member survives"
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        // `error_here` points at the token after `area`: the number 5.
        assert_eq!((diags[0].line, diags[0].column), (3, 10));
        assert_eq!(diags[0].context, "library/cell(A_1)");
    }

    #[test]
    fn lexical_junk_is_reported_with_empty_context() {
        let text = "library (L) {\n  cell (A_1) { area : 1.0 @ ; }\n}\n";
        let (lib, diags) = parse_library_recovering(text);
        assert_eq!(lib.cells.len(), 1);
        assert!(!diags.is_empty());
        assert_eq!(diags[0].context, "");
        assert_eq!((diags[0].line, diags[0].column), (2, 27));
    }

    #[test]
    fn nan_axis_is_a_parse_error_not_a_panic() {
        // NaN compares false both ways; a naively written monotonicity
        // check lets it through to the `Lut::new` assertion.
        let text = r#"
library (L) {
  cell (C_1) {
    area : 1.0;
    pin (A) { direction : input; capacitance : 0.001; }
    pin (Z) {
      direction : output;
      timing () {
        related_pin : "A";
        cell_rise (x) {
          index_1 ("nan, 0.1");
          index_2 ("0.001, 0.01");
          values ("0.1, 0.2", "0.3, 0.4");
        }
      }
    }
  }
}
"#;
        let err = parse_library(text).unwrap_err();
        assert!(err.message.contains("non-finite"), "{err}");
        assert!(err.line > 0, "{err}");
        assert_eq!((err.line, err.column), (8, 7), "{err}");
        assert!(
            err.message.contains("library/cell(C_1)/pin(Z)/timing"),
            "{err}"
        );
        let (lib, diags) = parse_library_recovering(text);
        assert_eq!(lib.cells.len(), 1);
        assert!(lib.cells[0].pin("Z").unwrap().timing.is_empty());
        assert!(diags
            .iter()
            .any(|d| d.message.contains("non-finite") && d.message.contains("arc dropped")));
    }
}
