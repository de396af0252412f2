//! Per-pin operating windows — the mechanism library tuning uses to steer
//! synthesis.
//!
//! §VI of the paper: instead of deleting cells, tuning confines each output
//! pin's LUT to a rectangle of low-sigma (slew, load) conditions. The
//! synthesis tool is then only allowed to operate the cell inside that
//! rectangle. [`LibraryConstraints`] carries those rectangles; the optimizer
//! legalizes the design against them (up-sizing, buffering, restructuring).
//! Its don't-use set is the related-work way: a cell in it is not used at all.

use std::collections::{BTreeMap, BTreeSet};

/// Allowed (slew, load) operating rectangle of one output pin.
///
/// # Example
///
/// ```
/// use varitune_synth::OperatingWindow;
///
/// let w = OperatingWindow { min_slew: 0.0, max_slew: 0.2, min_load: 0.0, max_load: 0.01 };
/// assert!(w.contains(0.1, 0.005));
/// assert!(!w.contains(0.1, 0.02)); // load outside the quiet region
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingWindow {
    /// Minimum input slew (ns).
    pub min_slew: f64,
    /// Maximum input slew (ns).
    pub max_slew: f64,
    /// Minimum output load (pF).
    pub min_load: f64,
    /// Maximum output load (pF).
    pub max_load: f64,
}

impl OperatingWindow {
    /// A window covering everything (no restriction).
    pub fn unbounded() -> Self {
        Self {
            min_slew: 0.0,
            max_slew: f64::INFINITY,
            min_load: 0.0,
            max_load: f64::INFINITY,
        }
    }

    /// Builds the window selecting the inclusive index rectangle
    /// `[row_lo, row_hi] × [col_lo, col_hi]` of a LUT characterized over
    /// `slew_axis` (rows) and `load_axis` (columns).
    ///
    /// A rectangle edge on the table boundary imposes no bound in that
    /// direction (operation beyond the characterized grid is already
    /// governed by `max_capacitance`/`max_transition`): the lower edge at
    /// index 0 maps to `0.0`, the upper edge at the last index maps to
    /// `f64::INFINITY`. Interior edges map to the exact axis value, so
    /// windows built here from the same rectangle are bit-identical
    /// however the caller obtained it — tuning's largest-rectangle search
    /// and the evolutionary optimizer's window genomes share this one
    /// constructor.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range for its axis or a `lo` exceeds
    /// its `hi` (the result would be an empty window, which
    /// [`LibraryConstraints::set`] rejects anyway).
    pub fn from_grid(
        slew_axis: &[f64],
        load_axis: &[f64],
        row_lo: usize,
        row_hi: usize,
        col_lo: usize,
        col_hi: usize,
    ) -> Self {
        assert!(
            row_lo <= row_hi && row_hi < slew_axis.len(),
            "slew rows {row_lo}..={row_hi} out of range for axis of {}",
            slew_axis.len()
        );
        assert!(
            col_lo <= col_hi && col_hi < load_axis.len(),
            "load cols {col_lo}..={col_hi} out of range for axis of {}",
            load_axis.len()
        );
        Self {
            min_slew: if row_lo == 0 { 0.0 } else { slew_axis[row_lo] },
            max_slew: if row_hi + 1 == slew_axis.len() {
                f64::INFINITY
            } else {
                slew_axis[row_hi]
            },
            min_load: if col_lo == 0 { 0.0 } else { load_axis[col_lo] },
            max_load: if col_hi + 1 == load_axis.len() {
                f64::INFINITY
            } else {
                load_axis[col_hi]
            },
        }
    }

    /// Whether an operating point satisfies the window.
    pub fn contains(&self, slew: f64, load: f64) -> bool {
        slew >= self.min_slew
            && slew <= self.max_slew
            && load >= self.min_load
            && load <= self.max_load
    }

    /// Whether the window excludes the entire LUT (the tuning method never
    /// produces this; it is rejected at construction elsewhere).
    pub fn is_empty(&self) -> bool {
        self.min_slew > self.max_slew || self.min_load > self.max_load
    }
}

impl Default for OperatingWindow {
    fn default() -> Self {
        Self::unbounded()
    }
}

/// Per-(cell, output pin) operating windows and a don't-use set for a
/// whole library.
///
/// Pins without an entry are unrestricted.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LibraryConstraints {
    windows: BTreeMap<(String, String), OperatingWindow>,
    dont_use: BTreeSet<String>,
}

impl LibraryConstraints {
    /// No restrictions at all (the baseline synthesis).
    pub fn unconstrained() -> Self {
        Self::default()
    }

    /// Sets the window of `cell`/`pin`.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty — tuning must never emit a cell with no
    /// usable operating region (it should drop the restriction instead).
    pub fn set(
        &mut self,
        cell: impl Into<String>,
        pin: impl Into<String>,
        window: OperatingWindow,
    ) {
        assert!(!window.is_empty(), "operating window must be non-empty");
        self.windows.insert((cell.into(), pin.into()), window);
    }

    /// The window of `cell`/`pin`, unbounded when unrestricted.
    pub fn window(&self, cell: &str, pin: &str) -> OperatingWindow {
        self.windows
            .get(&(cell.to_string(), pin.to_string()))
            .copied()
            .unwrap_or_else(OperatingWindow::unbounded)
    }

    /// Number of restricted pins.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Whether no restriction is present: no window and no don't-use cell.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty() && self.dont_use.is_empty()
    }

    /// Iterates over `((cell, pin), window)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (&(String, String), &OperatingWindow)> {
        self.windows.iter()
    }

    /// No window, and `cells` don't-use: synthesis never picks them.
    pub fn dont_use<S: Into<String>>(cells: impl IntoIterator<Item = S>) -> Self {
        let dont_use = cells.into_iter().map(Into::into).collect();
        Self {
            dont_use,
            ..Self::default()
        }
    }

    /// Whether `cell` is don't-use.
    pub(crate) fn is_excluded(&self, cell: &str) -> bool {
        self.dont_use.contains(cell)
    }

    /// Serializes the constraints as a line-oriented text sidecar:
    /// `cell pin min_slew max_slew min_load max_load`, one pin per line,
    /// with `inf` for unbounded maxima, then one `dont_use cell` line per
    /// don't-use cell. Round-trips through
    /// [`LibraryConstraints::from_text`].
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from(
            "# varitune operating windows: cell pin min_slew max_slew min_load max_load (ns/pF)\n",
        );
        for ((cell, pin), w) in &self.windows {
            let _ = writeln!(
                s,
                "{cell} {pin} {} {} {} {}",
                fmt_bound(w.min_slew),
                fmt_bound(w.max_slew),
                fmt_bound(w.min_load),
                fmt_bound(w.max_load)
            );
        }
        for cell in &self.dont_use {
            let _ = writeln!(s, "dont_use {cell}");
        }
        s
    }

    /// Parses the text format produced by [`LibraryConstraints::to_text`].
    /// Blank lines and `#` comments are ignored; a line whose first field
    /// is `dont_use` names one don't-use cell.
    ///
    /// # Errors
    ///
    /// Returns [`ParseConstraintsError`] naming the first malformed line:
    /// one without six fields (two for `dont_use`), with a bound that is
    /// not a number or is NaN (synthesis would read a NaN bound as no bound
    /// while [`OperatingWindow::contains`] rejects every point), or with an
    /// empty window.
    pub fn from_text(text: &str) -> Result<Self, ParseConstraintsError> {
        let mut out = Self::unconstrained();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let err = |message: String| ParseConstraintsError {
                line: lineno + 1,
                message,
            };
            if fields[0] == "dont_use" {
                let [_, cell] = fields[..] else {
                    let found = fields.len() - 1;
                    return Err(err(format!(
                        "`dont_use` takes one cell name, found {found}"
                    )));
                };
                out.dont_use.insert(cell.to_string());
                continue;
            }
            if fields.len() != 6 {
                return Err(err(format!("expected 6 fields, found {}", fields.len())));
            }
            // `inf` parses as infinity; every spelling of NaN parses too.
            let parse = |s: &str| -> Result<f64, ParseConstraintsError> {
                let message = match s.parse::<f64>() {
                    Ok(v) if !v.is_nan() => return Ok(v),
                    Ok(_) => format!("bound `{s}` is NaN"),
                    Err(_) => format!("cannot parse `{s}` as a number"),
                };
                Err(err(message))
            };
            let window = OperatingWindow {
                min_slew: parse(fields[2])?,
                max_slew: parse(fields[3])?,
                min_load: parse(fields[4])?,
                max_load: parse(fields[5])?,
            };
            if window.is_empty() {
                return Err(err("window is empty (min exceeds max)".to_string()));
            }
            out.set(fields[0], fields[1], window);
        }
        Ok(out)
    }
}

fn fmt_bound(v: f64) -> String {
    if v.is_infinite() {
        "inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Error parsing the text constraints format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseConstraintsError {
    /// 1-based line of the malformed entry.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseConstraintsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "constraints line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseConstraintsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_contains_everything() {
        let w = OperatingWindow::unbounded();
        assert!(w.contains(0.0, 0.0));
        assert!(w.contains(1e9, 1e9));
        assert!(!w.is_empty());
    }

    #[test]
    fn window_bounds_are_inclusive() {
        let w = OperatingWindow {
            min_slew: 0.01,
            max_slew: 0.2,
            min_load: 0.001,
            max_load: 0.01,
        };
        assert!(w.contains(0.01, 0.001));
        assert!(w.contains(0.2, 0.01));
        assert!(!w.contains(0.21, 0.005));
        assert!(!w.contains(0.1, 0.02));
        assert!(!w.contains(0.005, 0.005));
    }

    #[test]
    fn from_grid_boundary_edges_are_unbounded() {
        let slew = [0.01, 0.02, 0.05, 0.1];
        let load = [0.001, 0.004, 0.016];
        // Full coverage: every edge on the boundary, so no bound at all.
        let full = OperatingWindow::from_grid(&slew, &load, 0, 3, 0, 2);
        assert_eq!(full, OperatingWindow::unbounded());
        // Interior upper edges pick the exact axis values.
        let w = OperatingWindow::from_grid(&slew, &load, 0, 2, 0, 1);
        assert_eq!(w.min_slew, 0.0);
        assert_eq!(w.max_slew.to_bits(), 0.05f64.to_bits());
        assert_eq!(w.max_load.to_bits(), 0.004f64.to_bits());
        // Interior lower edges too.
        let w = OperatingWindow::from_grid(&slew, &load, 1, 3, 1, 2);
        assert_eq!(w.min_slew.to_bits(), 0.02f64.to_bits());
        assert!(w.max_slew.is_infinite());
        assert_eq!(w.min_load.to_bits(), 0.004f64.to_bits());
        assert!(w.max_load.is_infinite());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_grid_rejects_out_of_range_rows() {
        let _ = OperatingWindow::from_grid(&[0.1, 0.2], &[0.1], 0, 2, 0, 0);
    }

    #[test]
    fn missing_pin_is_unrestricted() {
        let c = LibraryConstraints::unconstrained();
        assert!(c.is_empty());
        assert!(c.window("INV_1", "Z").contains(123.0, 456.0));
    }

    #[test]
    fn set_and_query() {
        let mut c = LibraryConstraints::unconstrained();
        let w = OperatingWindow {
            min_slew: 0.0,
            max_slew: 0.1,
            min_load: 0.0,
            max_load: 0.005,
        };
        c.set("INV_1", "Z", w);
        assert_eq!(c.len(), 1);
        assert_eq!(c.window("INV_1", "Z"), w);
        assert!(c.window("INV_2", "Z").contains(1.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_window_rejected() {
        let mut c = LibraryConstraints::unconstrained();
        c.set(
            "INV_1",
            "Z",
            OperatingWindow {
                min_slew: 0.5,
                max_slew: 0.1,
                min_load: 0.0,
                max_load: 1.0,
            },
        );
    }

    #[test]
    fn text_round_trip() {
        let mut c = LibraryConstraints::unconstrained();
        c.set(
            "INV_1",
            "Z",
            OperatingWindow {
                min_slew: 0.0,
                max_slew: 0.2,
                min_load: 0.0,
                max_load: 0.01,
            },
        );
        c.set(
            "AD2_4",
            "CO",
            OperatingWindow {
                min_slew: 0.008,
                max_slew: f64::INFINITY,
                min_load: 0.0,
                max_load: f64::INFINITY,
            },
        );
        let text = c.to_text();
        let parsed = LibraryConstraints::from_text(&text).unwrap();
        assert_eq!(parsed, c);
        assert!(text.contains("inf"));
    }

    #[test]
    fn from_text_skips_comments_and_blanks() {
        let text = "# header\n\nINV_1 Z 0 0.1 0 0.01\n";
        let c = LibraryConstraints::from_text(text).unwrap();
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn from_text_reports_bad_lines() {
        let err = LibraryConstraints::from_text("INV_1 Z 0 0.1\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("6 fields"));
        let err = LibraryConstraints::from_text("INV_1 Z 0 x 0 1\n").unwrap_err();
        assert!(err.message.contains("cannot parse"));
        let err = LibraryConstraints::from_text("INV_1 Z 5 0.1 0 1\n").unwrap_err();
        assert!(err.message.contains("empty"));
    }

    #[test]
    fn from_text_rejects_nan_bounds() {
        // `f64::from_str` accepts every spelling of NaN; a NaN bound would
        // restrict nothing in synthesis yet reject every operating point.
        for text in [
            "INV_1 Z 0 NaN 0 NaN\n",
            "# header\nINV_1 Z 0 0.1 0 0.01\nINV_2 Z nan 0.1 0 0.01\n",
            "INV_1 Z 0 0.1 -NaN 0.01\n",
        ] {
            let err = LibraryConstraints::from_text(text).unwrap_err();
            assert_eq!(err.line, text.lines().count(), "{text:?}");
            assert!(err.message.contains("NaN"), "{}", err.message);
        }
    }

    #[test]
    fn dont_use_round_trips_and_counts_as_a_restriction() {
        let one = LibraryConstraints::dont_use(["INV_0P5"]);
        assert!(!one.is_empty());
        assert_eq!(one.len(), 0, "len counts restricted pins");
        assert_ne!(one, LibraryConstraints::unconstrained());
        let mut c = LibraryConstraints::dont_use(["ND2_0P5", "INV_0P5"]);
        c.set("INV_1", "Z", OperatingWindow::unbounded());
        let text = c.to_text();
        assert!(
            text.ends_with("dont_use INV_0P5\ndont_use ND2_0P5\n"),
            "{text}"
        );
        let parsed = LibraryConstraints::from_text(&text).unwrap();
        assert_eq!(parsed, c);
        assert!(parsed.is_excluded("ND2_0P5") && !parsed.is_excluded("INV_1"));
        // Windows alone write no don't-use line.
        let mut w = LibraryConstraints::unconstrained();
        w.set("INV_1", "Z", OperatingWindow::unbounded());
        assert!(!w.to_text().contains("dont_use"));
    }

    #[test]
    fn from_text_rejects_a_malformed_dont_use_line() {
        for (text, found) in [
            ("INV_1 Z 0 0.1 0 0.01\ndont_use\n", 0),
            ("# header\n\ndont_use INV_1 INV_2\n", 2),
        ] {
            let err = LibraryConstraints::from_text(text).unwrap_err();
            assert_eq!(err.line, text.lines().count(), "{text:?}");
            assert!(
                err.message
                    .contains(&format!("one cell name, found {found}")),
                "{}",
                err.message
            );
        }
    }

    #[test]
    fn iter_yields_entries() {
        let mut c = LibraryConstraints::unconstrained();
        c.set("A_1", "Z", OperatingWindow::unbounded());
        c.set("B_1", "Q", OperatingWindow::unbounded());
        assert_eq!(c.iter().count(), 2);
    }
}
