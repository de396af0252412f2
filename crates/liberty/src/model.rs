//! The Liberty data model: libraries, cells, pins, timing arcs and LUTs.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

use crate::error::InterpolateError;

/// Direction of a [`Pin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PinDirection {
    /// Signal enters the cell through this pin.
    Input,
    /// Signal leaves the cell through this pin.
    Output,
    /// Bidirectional pin (rare; carried through for completeness).
    Inout,
    /// Internal pin (e.g. feed-through); never used for timing in this crate.
    Internal,
}

impl fmt::Display for PinDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PinDirection::Input => "input",
            PinDirection::Output => "output",
            PinDirection::Inout => "inout",
            PinDirection::Internal => "internal",
        };
        f.write_str(s)
    }
}

/// Unateness of a timing arc: how an input transition direction relates to
/// the output transition direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimingSense {
    /// Rising input causes rising output (e.g. buffer, AND).
    PositiveUnate,
    /// Rising input causes falling output (e.g. inverter, NAND, NOR).
    NegativeUnate,
    /// Output direction depends on other inputs (e.g. XOR).
    NonUnate,
}

impl fmt::Display for TimingSense {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TimingSense::PositiveUnate => "positive_unate",
            TimingSense::NegativeUnate => "negative_unate",
            TimingSense::NonUnate => "non_unate",
        };
        f.write_str(s)
    }
}

/// Kind of a timing arc.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimingType {
    /// Ordinary combinational propagation arc.
    Combinational,
    /// Clock-to-output arc of a sequential cell (rising active edge).
    RisingEdge,
    /// Clock-to-output arc of a sequential cell (falling active edge).
    FallingEdge,
    /// Setup constraint arc against a rising clock edge.
    SetupRising,
    /// Hold constraint arc against a rising clock edge.
    HoldRising,
}

impl TimingType {
    /// Returns `true` for arcs that propagate a delay (as opposed to
    /// constraint arcs such as setup/hold checks).
    pub fn is_delay_arc(self) -> bool {
        matches!(
            self,
            TimingType::Combinational | TimingType::RisingEdge | TimingType::FallingEdge
        )
    }
}

impl fmt::Display for TimingType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TimingType::Combinational => "combinational",
            TimingType::RisingEdge => "rising_edge",
            TimingType::FallingEdge => "falling_edge",
            TimingType::SetupRising => "setup_rising",
            TimingType::HoldRising => "hold_rising",
        };
        f.write_str(s)
    }
}

/// A LUT axis template declared once at library scope and referenced by name
/// from every table that uses it.
#[derive(Debug, Clone, PartialEq)]
pub struct LutTemplate {
    /// Template name, e.g. `delay_7x7`.
    pub name: String,
    /// Index values for `variable_1` (input net transition, i.e. slew).
    pub index_1: Vec<f64>,
    /// Index values for `variable_2` (total output net capacitance, i.e. load).
    pub index_2: Vec<f64>,
}

impl LutTemplate {
    /// Creates a template from its slew and load axes.
    pub fn new(name: impl Into<String>, index_1: Vec<f64>, index_2: Vec<f64>) -> Self {
        Self {
            name: name.into(),
            index_1,
            index_2,
        }
    }
}

/// A two-dimensional look-up table indexed by input slew (rows) and output
/// load (columns).
///
/// `values[i][j]` corresponds to slew `index_slew[i]` and load
/// `index_load[j]`, matching the Liberty convention where `variable_1` is
/// `input_net_transition` and `variable_2` is
/// `total_output_net_capacitance`.
#[derive(Debug, Clone, PartialEq)]
pub struct Lut {
    /// Slew (input transition) axis; strictly increasing.
    pub index_slew: Vec<f64>,
    /// Load (output capacitance) axis; strictly increasing.
    pub index_load: Vec<f64>,
    /// Row-major table body: `values[slew_idx][load_idx]`.
    pub values: Vec<Vec<f64>>,
}

impl Lut {
    /// Creates a LUT, checking the shape of `values` against the axes and
    /// that both axes are strictly increasing.
    ///
    /// Validating the axes here (and at Liberty parse time) is what lets
    /// [`Lut::interpolate`] skip the monotonicity check on every query —
    /// the hot path of timing analysis.
    ///
    /// # Panics
    ///
    /// Panics if `values` is not `index_slew.len()` rows of
    /// `index_load.len()` columns, or if an axis is not strictly
    /// increasing. Use this constructor for programmatically-built tables
    /// where a malformed table is a bug.
    pub fn new(index_slew: Vec<f64>, index_load: Vec<f64>, values: Vec<Vec<f64>>) -> Self {
        assert_eq!(
            values.len(),
            index_slew.len(),
            "LUT row count must match slew axis length"
        );
        for row in &values {
            assert_eq!(
                row.len(),
                index_load.len(),
                "LUT column count must match load axis length"
            );
        }
        assert!(
            axis_is_strictly_increasing(&index_slew),
            "LUT slew axis must be strictly increasing"
        );
        assert!(
            axis_is_strictly_increasing(&index_load),
            "LUT load axis must be strictly increasing"
        );
        Self {
            index_slew,
            index_load,
            values,
        }
    }

    /// Creates a LUT filled with a constant value over the given axes.
    ///
    /// # Panics
    ///
    /// Panics if an axis is not strictly increasing (see [`Lut::new`]).
    pub fn filled(index_slew: Vec<f64>, index_load: Vec<f64>, value: f64) -> Self {
        let values = vec![vec![value; index_load.len()]; index_slew.len()];
        Self::new(index_slew, index_load, values)
    }

    /// Number of slew rows.
    pub fn rows(&self) -> usize {
        self.index_slew.len()
    }

    /// Number of load columns.
    pub fn cols(&self) -> usize {
        self.index_load.len()
    }

    /// Returns the table entry at `(slew_idx, load_idx)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn at(&self, slew_idx: usize, load_idx: usize) -> f64 {
        self.values[slew_idx][load_idx]
    }

    /// Iterates over all `(slew_idx, load_idx, value)` entries in row-major
    /// order.
    pub fn entries(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .flat_map(|(i, row)| row.iter().enumerate().map(move |(j, &v)| (i, j, v)))
    }

    /// Returns a new LUT with the same axes and `f` applied to every value.
    pub fn map(&self, mut f: impl FnMut(f64) -> f64) -> Lut {
        Lut {
            index_slew: self.index_slew.clone(),
            index_load: self.index_load.clone(),
            values: self
                .values
                .iter()
                .map(|row| row.iter().map(|&v| f(v)).collect())
                .collect(),
        }
    }

    /// Combines two same-shaped LUTs entry-wise.
    ///
    /// # Panics
    ///
    /// Panics if the two tables do not share identical axis lengths.
    pub fn zip_with(&self, other: &Lut, mut f: impl FnMut(f64, f64) -> f64) -> Lut {
        assert_eq!(self.rows(), other.rows(), "LUT row count mismatch");
        assert_eq!(self.cols(), other.cols(), "LUT column count mismatch");
        Lut {
            index_slew: self.index_slew.clone(),
            index_load: self.index_load.clone(),
            values: self
                .values
                .iter()
                .zip(&other.values)
                .map(|(a, b)| a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect())
                .collect(),
        }
    }

    /// Entry-wise maximum of two same-shaped LUTs.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ (see [`Lut::zip_with`]).
    pub fn max_with(&self, other: &Lut) -> Lut {
        self.zip_with(other, f64::max)
    }

    /// The largest value in the table, or `None` for an empty table.
    pub fn max_value(&self) -> Option<f64> {
        self.values
            .iter()
            .flatten()
            .copied()
            .fold(None, |acc, v| Some(acc.map_or(v, |m: f64| m.max(v))))
    }

    /// The smallest value in the table, or `None` for an empty table.
    pub fn min_value(&self) -> Option<f64> {
        self.values
            .iter()
            .flatten()
            .copied()
            .fold(None, |acc, v| Some(acc.map_or(v, |m: f64| m.min(v))))
    }

    /// Whether the table body is [`Lut::rows`] rows of [`Lut::cols`]
    /// entries, as its axes require. [`Lut::new`] and the Liberty
    /// validator enforce this; a table built through the public fields may
    /// break it.
    pub fn fits_axes(&self) -> bool {
        let cols = self.cols();
        self.values.len() == self.rows() && self.values.iter().all(|r| r.len() == cols)
    }

    /// Bilinear interpolation at `(slew, load)` following eqs. (2)–(4) of the
    /// paper, clamping queries outside the table to the edge of the table
    /// (the standard STA convention for mild extrapolation): the query
    /// checks, one [`Bracket::on`] per axis, then [`Bracket::bilinear`] —
    /// the primitive the timing engine evaluates its packed tables with, so
    /// both give the same bits.
    ///
    /// Axis monotonicity is a construction invariant ([`Lut::new`] and the
    /// Liberty parser both enforce it), so the hot path does not re-check
    /// it here. Mutating an axis through the public fields into a
    /// non-increasing state yields clamped nonsense, not an error.
    ///
    /// # Errors
    ///
    /// In this order: [`InterpolateError::EmptyTable`] if the table has no
    /// rows or no columns, [`InterpolateError::ShapeMismatch`] if its body
    /// does not fit its axes (see [`Lut::fits_axes`]), and
    /// [`InterpolateError::NonFiniteQuery`] if the slew, then the load, is
    /// not finite.
    pub fn interpolate(&self, slew: f64, load: f64) -> Result<f64, InterpolateError> {
        let (rows, cols) = (self.rows(), self.cols());
        if rows == 0 || cols == 0 {
            return Err(InterpolateError::EmptyTable);
        }
        if !self.fits_axes() {
            return Err(InterpolateError::ShapeMismatch { rows, cols });
        }
        if !slew.is_finite() {
            return Err(InterpolateError::NonFiniteQuery { value: slew });
        }
        if !load.is_finite() {
            return Err(InterpolateError::NonFiniteQuery { value: load });
        }
        let (s, l) = (
            Bracket::on(&self.index_slew, slew),
            Bracket::on(&self.index_load, load),
        );
        Ok(Bracket::bilinear(s, l, |i, j| self.values[i][j]))
    }
}

fn axis_is_strictly_increasing(axis: &[f64]) -> bool {
    axis.windows(2).all(|w| w[1] > w[0])
}

/// Where a query coordinate falls on one LUT axis: the bracketing indices
/// `lo` and `hi` and the fraction `t` of the way from `axis[lo]` to
/// `axis[hi]`.
///
/// With [`Bracket::bilinear`] this is the whole of
/// [`Lut::interpolate`]'s arithmetic, exposed so that code keeping tables
/// in its own layout can bracket a coordinate once, reuse the bracket for
/// every table on the same axis, and still get [`Lut::interpolate`]'s bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bracket {
    /// Index of the axis point the fraction starts from.
    pub lo: usize,
    /// Index of the axis point the fraction runs to: `lo + 1` inside the
    /// axis, `lo` when the query clamps.
    pub hi: usize,
    /// Interpolation fraction; 0 when the query clamps.
    pub t: f64,
}

impl Bracket {
    /// Brackets `x` on `axis`, clamping outside the range: a query at or
    /// below the first point gives `(0, 0, 0.0)`, one at or above the last
    /// point `(last, last, 0.0)`, and a one-point (or empty) axis always
    /// `(0, 0, 0.0)`.
    ///
    /// `axis` should be strictly increasing and `x` finite, as
    /// [`Lut::interpolate`] guarantees; otherwise the bracket is
    /// meaningless but its indices stay within `axis`.
    #[inline]
    pub fn on(axis: &[f64], x: f64) -> Self {
        let clamped = |i| Bracket {
            lo: i,
            hi: i,
            t: 0.0,
        };
        let [first, .., last] = axis else {
            return clamped(0);
        };
        if x <= *first {
            return clamped(0);
        }
        if x >= *last {
            return clamped(axis.len() - 1);
        }
        // Strictly inside the range: on a strictly increasing axis the
        // number of points below `x` is its partition point, and counting
        // them takes no data-dependent branch.
        let hi = axis.iter().filter(|&&a| a < x).count().max(1);
        let lo = hi - 1;
        Bracket {
            lo,
            hi,
            t: (x - axis[lo]) / (axis[hi] - axis[lo]),
        }
    }

    /// Eqs. (2)–(4) of the paper at a bracketed `(slew, load)` point:
    /// interpolate along the load axis in slew rows `slew.lo` and
    /// `slew.hi` (eqs. 2–3), then along the slew axis (eq. 4). `at(i, j)`
    /// reads the table entry at slew row `i` and load column `j`.
    #[inline]
    pub fn bilinear(slew: Bracket, load: Bracket, at: impl Fn(usize, usize) -> f64) -> f64 {
        let p1 = lerp(at(slew.lo, load.lo), at(slew.lo, load.hi), load.t);
        let p2 = lerp(at(slew.hi, load.lo), at(slew.hi, load.hi), load.t);
        lerp(p1, p2, slew.t)
    }
}

fn lerp(a: f64, b: f64, t: f64) -> f64 {
    a + (b - a) * t
}

/// A timing arc from an input pin to the output pin that owns it.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingArc {
    /// The input pin this arc is measured from.
    pub related_pin: String,
    /// Unateness of the arc.
    pub timing_sense: TimingSense,
    /// Arc kind (combinational, edge, constraint).
    pub timing_type: TimingType,
    /// Rise propagation delay table.
    pub cell_rise: Option<Lut>,
    /// Fall propagation delay table.
    pub cell_fall: Option<Lut>,
    /// Output rise transition (slew) table.
    pub rise_transition: Option<Lut>,
    /// Output fall transition (slew) table.
    pub fall_transition: Option<Lut>,
}

impl TimingArc {
    /// Creates an empty combinational arc from `related_pin`.
    pub fn new(related_pin: impl Into<String>) -> Self {
        Self {
            related_pin: related_pin.into(),
            timing_sense: TimingSense::PositiveUnate,
            timing_type: TimingType::Combinational,
            cell_rise: None,
            cell_fall: None,
            rise_transition: None,
            fall_transition: None,
        }
    }

    /// Iterates over the delay tables present on this arc (`cell_rise`,
    /// `cell_fall`).
    pub fn delay_tables(&self) -> impl Iterator<Item = &Lut> {
        self.cell_rise.iter().chain(self.cell_fall.iter())
    }

    /// Iterates over the transition tables present on this arc.
    pub fn transition_tables(&self) -> impl Iterator<Item = &Lut> {
        self.rise_transition
            .iter()
            .chain(self.fall_transition.iter())
    }

    /// Iterates over every table on this arc, delay and transition alike.
    pub fn all_tables(&self) -> impl Iterator<Item = &Lut> {
        self.delay_tables().chain(self.transition_tables())
    }

    /// Mutable access to every table on this arc.
    pub fn all_tables_mut(&mut self) -> impl Iterator<Item = &mut Lut> {
        self.cell_rise
            .iter_mut()
            .chain(self.cell_fall.iter_mut())
            .chain(self.rise_transition.iter_mut())
            .chain(self.fall_transition.iter_mut())
    }

    /// Worst (maximum) delay at an operating point across the rise/fall
    /// delay tables present on the arc.
    ///
    /// # Errors
    ///
    /// Propagates [`InterpolateError`] from table evaluation; returns
    /// [`InterpolateError::EmptyTable`] if the arc carries no delay table.
    pub fn worst_delay(&self, slew: f64, load: f64) -> Result<f64, InterpolateError> {
        let mut worst: Option<f64> = None;
        for t in self.delay_tables() {
            let d = t.interpolate(slew, load)?;
            worst = Some(worst.map_or(d, |w| w.max(d)));
        }
        worst.ok_or(InterpolateError::EmptyTable)
    }

    /// Worst (maximum) output transition at an operating point across the
    /// transition tables present on the arc.
    ///
    /// # Errors
    ///
    /// Propagates [`InterpolateError`]; returns
    /// [`InterpolateError::EmptyTable`] if the arc carries no transition
    /// table.
    pub fn worst_transition(&self, slew: f64, load: f64) -> Result<f64, InterpolateError> {
        let mut worst: Option<f64> = None;
        for t in self.transition_tables() {
            let d = t.interpolate(slew, load)?;
            worst = Some(worst.map_or(d, |w| w.max(d)));
        }
        worst.ok_or(InterpolateError::EmptyTable)
    }

    /// Best (minimum) delay at an operating point across the rise/fall
    /// delay tables — the quantity hold (min-delay) analysis propagates.
    ///
    /// # Errors
    ///
    /// Propagates [`InterpolateError`]; returns
    /// [`InterpolateError::EmptyTable`] if the arc carries no delay table.
    pub fn best_delay(&self, slew: f64, load: f64) -> Result<f64, InterpolateError> {
        let mut best: Option<f64> = None;
        for t in self.delay_tables() {
            let d = t.interpolate(slew, load)?;
            best = Some(best.map_or(d, |b| b.min(d)));
        }
        best.ok_or(InterpolateError::EmptyTable)
    }

    /// Best (minimum) output transition at an operating point across the
    /// transition tables present on the arc.
    ///
    /// # Errors
    ///
    /// Propagates [`InterpolateError`]; returns
    /// [`InterpolateError::EmptyTable`] if the arc carries no transition
    /// table.
    pub fn best_transition(&self, slew: f64, load: f64) -> Result<f64, InterpolateError> {
        let mut best: Option<f64> = None;
        for t in self.transition_tables() {
            let d = t.interpolate(slew, load)?;
            best = Some(best.map_or(d, |b| b.min(d)));
        }
        best.ok_or(InterpolateError::EmptyTable)
    }
}

/// An internal-power group on an output pin: switching energy per event,
/// tabulated over the same (input slew, output load) grid as the timing
/// arcs.
#[derive(Debug, Clone, PartialEq)]
pub struct InternalPower {
    /// The input pin whose transition this energy is attributed to.
    pub related_pin: String,
    /// Energy of a rising output event (pJ in the synthetic libraries).
    pub rise_power: Option<Lut>,
    /// Energy of a falling output event.
    pub fall_power: Option<Lut>,
}

impl InternalPower {
    /// Creates an empty power group related to `related_pin`.
    pub fn new(related_pin: impl Into<String>) -> Self {
        Self {
            related_pin: related_pin.into(),
            rise_power: None,
            fall_power: None,
        }
    }

    /// Iterates over the power tables present.
    pub fn tables(&self) -> impl Iterator<Item = &Lut> {
        self.rise_power.iter().chain(self.fall_power.iter())
    }

    /// Mutable access to the power tables present.
    pub fn tables_mut(&mut self) -> impl Iterator<Item = &mut Lut> {
        self.rise_power.iter_mut().chain(self.fall_power.iter_mut())
    }

    /// Average per-event switching energy at an operating point (mean of
    /// rise and fall where both exist).
    ///
    /// # Errors
    ///
    /// Propagates [`InterpolateError`]; returns
    /// [`InterpolateError::EmptyTable`] when no table is present.
    pub fn average_energy(&self, slew: f64, load: f64) -> Result<f64, InterpolateError> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for t in self.tables() {
            sum += t.interpolate(slew, load)?;
            n += 1;
        }
        if n == 0 {
            return Err(InterpolateError::EmptyTable);
        }
        Ok(sum / n as f64)
    }
}

/// A cell pin.
#[derive(Debug, Clone, PartialEq)]
pub struct Pin {
    /// Pin name, e.g. `A`, `Z`, `CK`, `D`, `Q`.
    pub name: String,
    /// Pin direction.
    pub direction: PinDirection,
    /// Input capacitance presented to the driving net (pF in this crate's
    /// synthetic libraries).
    pub capacitance: f64,
    /// Maximum load the pin may drive, if declared (output pins).
    pub max_capacitance: Option<f64>,
    /// Maximum transition allowed on the pin, if declared.
    pub max_transition: Option<f64>,
    /// Logic function of an output pin, in Liberty boolean syntax.
    pub function: Option<String>,
    /// Whether this input pin is a clock pin.
    pub is_clock: bool,
    /// Timing arcs owned by this (output) pin.
    pub timing: Vec<TimingArc>,
    /// Internal-power groups owned by this (output) pin.
    pub internal_power: Vec<InternalPower>,
}

impl Pin {
    /// Creates an input pin with the given capacitance.
    pub fn input(name: impl Into<String>, capacitance: f64) -> Self {
        Self {
            name: name.into(),
            direction: PinDirection::Input,
            capacitance,
            max_capacitance: None,
            max_transition: None,
            function: None,
            is_clock: false,
            timing: Vec::new(),
            internal_power: Vec::new(),
        }
    }

    /// Creates an output pin with the given logic function.
    pub fn output(name: impl Into<String>, function: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            direction: PinDirection::Output,
            capacitance: 0.0,
            max_capacitance: None,
            max_transition: None,
            function: Some(function.into()),
            is_clock: false,
            timing: Vec::new(),
            internal_power: Vec::new(),
        }
    }
}

/// Broad functional class of a cell, derived from its name by the synthetic
/// library generator and by [`Cell::kind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CellKind {
    /// Inverter.
    Inverter,
    /// Buffer.
    Buffer,
    /// AND / OR family.
    Or,
    /// NAND family.
    Nand,
    /// NOR family.
    Nor,
    /// XOR / XNOR family.
    Xnor,
    /// Full/half adders.
    Adder,
    /// Multiplexers.
    Mux,
    /// Flip-flops.
    FlipFlop,
    /// Latches.
    Latch,
    /// Anything else.
    Other,
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CellKind::Inverter => "inverter",
            CellKind::Buffer => "buffer",
            CellKind::Or => "or",
            CellKind::Nand => "nand",
            CellKind::Nor => "nor",
            CellKind::Xnor => "xnor",
            CellKind::Adder => "adder",
            CellKind::Mux => "mux",
            CellKind::FlipFlop => "flip-flop",
            CellKind::Latch => "latch",
            CellKind::Other => "other",
        };
        f.write_str(s)
    }
}

/// A standard cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Cell name following the paper's convention
    /// `Function[Inputs]_[Special_]Drive`, with `P` as decimal separator in
    /// the drive field (e.g. `INV_1P5` has drive strength 1.5).
    pub name: String,
    /// Layout area (µm² in the synthetic libraries).
    pub area: f64,
    /// Static leakage power (nW in the synthetic libraries).
    pub leakage_power: f64,
    /// Pins in declaration order.
    pub pins: Vec<Pin>,
}

impl Cell {
    /// Creates an empty cell.
    pub fn new(name: impl Into<String>, area: f64) -> Self {
        Self {
            name: name.into(),
            area,
            leakage_power: 0.0,
            pins: Vec::new(),
        }
    }

    /// Looks up a pin by name.
    pub fn pin(&self, name: &str) -> Option<&Pin> {
        self.pins.iter().find(|p| p.name == name)
    }

    /// Iterates over input pins.
    pub fn input_pins(&self) -> impl Iterator<Item = &Pin> {
        self.pins
            .iter()
            .filter(|p| p.direction == PinDirection::Input)
    }

    /// Iterates over output pins.
    pub fn output_pins(&self) -> impl Iterator<Item = &Pin> {
        self.pins
            .iter()
            .filter(|p| p.direction == PinDirection::Output)
    }

    /// Mutable iterator over output pins.
    pub fn output_pins_mut(&mut self) -> impl Iterator<Item = &mut Pin> {
        self.pins
            .iter_mut()
            .filter(|p| p.direction == PinDirection::Output)
    }

    /// Drive strength parsed from the trailing `_<drive>` field of the cell
    /// name, with `P` as decimal separator (`AD1_2P5` → 2.5). Returns `None`
    /// when the name does not end in a drive field.
    pub fn drive_strength(&self) -> Option<f64> {
        let field = self.name.rsplit('_').next()?;
        if field == self.name {
            return None; // no underscore at all
        }
        parse_drive_field(field)
    }

    /// Functional class derived from the name prefix (see [`CellKind`]).
    pub fn kind(&self) -> CellKind {
        let head: String = self
            .name
            .chars()
            .take_while(|c| c.is_ascii_alphabetic())
            .collect();
        // Longest-prefix-first so `DEL` (delay cell) is not captured by a
        // shorter sequential prefix, etc.
        const TABLE: &[(&str, CellKind)] = &[
            ("DEL", CellKind::Other),
            ("GCKB", CellKind::Other),
            ("TIE", CellKind::Other),
            ("INV", CellKind::Inverter),
            ("IV", CellKind::Inverter),
            ("BUF", CellKind::Buffer),
            ("BF", CellKind::Buffer),
            ("AND", CellKind::Or),
            ("AN", CellKind::Or),
            ("OR", CellKind::Or),
            ("NAND", CellKind::Nand),
            ("ND", CellKind::Nand),
            ("NOR", CellKind::Nor),
            ("NR", CellKind::Nor),
            ("XN", CellKind::Xnor),
            ("XOR", CellKind::Xnor),
            ("EO", CellKind::Xnor),
            ("ADD", CellKind::Adder),
            ("AD", CellKind::Adder),
            ("FA", CellKind::Adder),
            ("HA", CellKind::Adder),
            ("MUX", CellKind::Mux),
            ("MU", CellKind::Mux),
            ("MX", CellKind::Mux),
            ("SDF", CellKind::FlipFlop),
            ("DF", CellKind::FlipFlop),
            ("FD", CellKind::FlipFlop),
            ("LA", CellKind::Latch),
            ("DL", CellKind::Latch),
        ];
        TABLE
            .iter()
            .find(|(p, _)| head.starts_with(p))
            .map_or(CellKind::Other, |(_, k)| *k)
    }

    /// Whether the cell is sequential (has a clock pin or an edge arc).
    pub fn is_sequential(&self) -> bool {
        self.pins.iter().any(|p| p.is_clock)
            || self.pins.iter().flat_map(|p| &p.timing).any(|a| {
                matches!(
                    a.timing_type,
                    TimingType::RisingEdge | TimingType::FallingEdge
                )
            })
    }
}

fn parse_drive_field(field: &str) -> Option<f64> {
    if field.is_empty() {
        return None;
    }
    let normalized = field.replace('P', ".");
    let v: f64 = normalized.parse().ok()?;
    (v > 0.0).then_some(v)
}

/// A complete timing library.
#[derive(Debug, Clone, PartialEq)]
pub struct Library {
    /// Library name, e.g. `TT1P1V25C`.
    pub name: String,
    /// Time unit string, e.g. `1ns`.
    pub time_unit: String,
    /// Capacitive load unit string, e.g. `1pf`.
    pub cap_unit: String,
    /// Nominal supply voltage.
    pub voltage: f64,
    /// Nominal temperature in °C.
    pub temperature: f64,
    /// LUT templates, keyed by name.
    pub templates: BTreeMap<String, LutTemplate>,
    /// Cells in declaration order.
    pub cells: Vec<Cell>,
    /// Lazily built [`Interner`] behind [`Library::interner`] /
    /// [`Library::cell_index`]. Not part of the library's value: ignored by
    /// equality, reset on clone.
    lookup: CellLookup,
}

/// Lazily built cell/family/pin registry. A cache, not data: clones start
/// empty and any two caches compare equal, so `Library`'s derived
/// `Clone`/`PartialEq` keep their value semantics.
#[derive(Default)]
struct CellLookup(OnceLock<crate::ids::Interner>);

impl Clone for CellLookup {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl PartialEq for CellLookup {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl fmt::Debug for CellLookup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("CellLookup")
    }
}

impl Library {
    /// Creates an empty library with default (ns/pF) units.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            time_unit: "1ns".to_string(),
            cap_unit: "1pf".to_string(),
            voltage: 1.1,
            temperature: 25.0,
            templates: BTreeMap::new(),
            cells: Vec::new(),
            lookup: CellLookup::default(),
        }
    }

    /// The library's [`Interner`](crate::ids::Interner): typed cell /
    /// family / pin ids minted once from the current cell list.
    ///
    /// Built lazily on first use. The registry is a snapshot: mutating
    /// `cells` afterwards leaves the family and pin tables describing the
    /// old snapshot (name lookups through [`Library::cell_index`] stay
    /// correct — every hit is verified). Intern after the library is
    /// finalized.
    pub fn interner(&self) -> &crate::ids::Interner {
        self.lookup
            .0
            .get_or_init(|| crate::ids::Interner::build(&self.cells))
    }

    /// The typed id of the cell named `name` (see [`Library::cell_index`]
    /// for the staleness contract).
    pub fn cell_id(&self, name: &str) -> Option<crate::ids::CellId> {
        self.cell_index(name).map(|i| crate::ids::CellId(i as u32))
    }

    /// Index of the cell named `name` in [`Library::cells`].
    ///
    /// The first lookup builds the [`Library::interner`] registry; later
    /// lookups are O(1). Because `cells` is a public field the registry can
    /// go stale: every hit is verified against the actual cell name, and a
    /// miss (or a stale hit) falls back to the original linear scan, so
    /// mutation after the first lookup costs performance but never
    /// correctness.
    pub fn cell_index(&self, name: &str) -> Option<usize> {
        match self.interner().cell_id(name) {
            Some(id) if self.cells.get(id.index()).is_some_and(|c| c.name == name) => {
                Some(id.index())
            }
            _ => self.cells.iter().position(|c| c.name == name),
        }
    }

    /// Looks up a cell by name (O(1) after the first call, see
    /// [`Library::cell_index`]).
    pub fn cell(&self, name: &str) -> Option<&Cell> {
        self.cell_index(name).map(|i| &self.cells[i])
    }

    /// Mutable cell lookup by name.
    pub fn cell_mut(&mut self, name: &str) -> Option<&mut Cell> {
        let i = self.cell_index(name)?;
        self.cells.get_mut(i)
    }

    /// Total number of timing tables across all cells (a size metric used in
    /// reports).
    pub fn table_count(&self) -> usize {
        self.cells
            .iter()
            .flat_map(|c| &c.pins)
            .flat_map(|p| &p.timing)
            .map(|a| a.all_tables().count())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lut2x2() -> Lut {
        Lut::new(
            vec![0.0, 1.0],
            vec![0.0, 1.0],
            vec![vec![0.0, 10.0], vec![20.0, 30.0]],
        )
    }

    #[test]
    fn interpolate_at_grid_points_is_exact() {
        let l = lut2x2();
        assert_eq!(l.interpolate(0.0, 0.0).unwrap(), 0.0);
        assert_eq!(l.interpolate(0.0, 1.0).unwrap(), 10.0);
        assert_eq!(l.interpolate(1.0, 0.0).unwrap(), 20.0);
        assert_eq!(l.interpolate(1.0, 1.0).unwrap(), 30.0);
    }

    #[test]
    fn interpolate_center_is_average() {
        let l = lut2x2();
        assert!((l.interpolate(0.5, 0.5).unwrap() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn interpolate_clamps_outside_range() {
        let l = lut2x2();
        assert_eq!(l.interpolate(-5.0, -5.0).unwrap(), 0.0);
        assert_eq!(l.interpolate(9.0, 9.0).unwrap(), 30.0);
        assert_eq!(l.interpolate(-1.0, 9.0).unwrap(), 10.0);
    }

    #[test]
    fn interpolate_rejects_nan_query() {
        let l = lut2x2();
        assert!(matches!(
            l.interpolate(f64::NAN, 0.0),
            Err(InterpolateError::NonFiniteQuery { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "slew axis must be strictly increasing")]
    fn construction_rejects_non_monotonic_axis() {
        let _ = Lut::new(
            vec![1.0, 0.5],
            vec![0.0, 1.0],
            vec![vec![0.0, 1.0], vec![2.0, 3.0]],
        );
    }

    #[test]
    #[should_panic(expected = "load axis must be strictly increasing")]
    fn construction_rejects_duplicate_axis_points() {
        let _ = Lut::filled(vec![0.0, 1.0], vec![0.2, 0.2], 1.0);
    }

    #[test]
    fn interpolate_single_point_axis() {
        let l = Lut::new(vec![0.5], vec![0.2], vec![vec![42.0]]);
        assert_eq!(l.interpolate(0.0, 0.0).unwrap(), 42.0);
        assert_eq!(l.interpolate(100.0, 100.0).unwrap(), 42.0);
    }

    #[test]
    fn a_body_that_does_not_fit_its_axes_is_an_error_not_a_panic() {
        let mut short_rows = Lut::filled(vec![0.0, 1.0, 2.0], vec![0.0, 1.0], 1.0);
        short_rows.values = vec![vec![0.1]];
        let mut short_row = lut2x2();
        short_row.values[1].pop();
        let mut long_row = lut2x2();
        long_row.values[0].push(5.0);
        for (lut, rows, cols) in [(short_rows, 3, 2), (short_row, 2, 2), (long_row, 2, 2)] {
            assert!(!lut.fits_axes());
            assert_eq!(
                lut.interpolate(1.5, 0.5),
                Err(InterpolateError::ShapeMismatch { rows, cols })
            );
        }
        assert!(lut2x2().fits_axes());
    }

    #[test]
    fn bracket_clamps_and_finds_the_enclosing_interval() {
        let axis = [0.5, 1.0, 2.0, 4.0];
        let b = |x| {
            let b = Bracket::on(&axis, x);
            (b.lo, b.hi, b.t)
        };
        assert_eq!(b(0.1), (0, 0, 0.0));
        assert_eq!(b(0.5), (0, 0, 0.0));
        assert_eq!(b(0.75), (0, 1, 0.5));
        assert_eq!(b(1.0), (0, 1, 1.0));
        assert_eq!(b(3.0), (2, 3, 0.5));
        assert_eq!(b(4.0), (3, 3, 0.0));
        assert_eq!(b(9.0), (3, 3, 0.0));
        assert_eq!(
            Bracket::on(&[0.2], 7.0),
            Bracket {
                lo: 0,
                hi: 0,
                t: 0.0
            }
        );
        // Out-of-contract inputs stay inside the axis instead of panicking.
        for axis in [&[][..], &[1.0, 0.5, 0.7][..]] {
            let b = Bracket::on(axis, f64::NAN);
            assert!(b.hi < axis.len().max(1) && b.lo <= b.hi, "{b:?}");
        }
    }

    #[test]
    fn map_and_zip_preserve_axes() {
        let l = lut2x2();
        let doubled = l.map(|v| v * 2.0);
        assert_eq!(doubled.at(1, 1), 60.0);
        assert_eq!(doubled.index_slew, l.index_slew);
        let summed = l.zip_with(&doubled, |a, b| a + b);
        assert_eq!(summed.at(1, 1), 90.0);
    }

    #[test]
    fn max_with_takes_entrywise_maximum() {
        let a = lut2x2();
        let b = a.map(|v| 25.0 - v);
        let m = a.max_with(&b);
        assert_eq!(m.at(0, 0), 25.0);
        assert_eq!(m.at(1, 1), 30.0);
    }

    #[test]
    fn min_max_values() {
        let l = lut2x2();
        assert_eq!(l.max_value(), Some(30.0));
        assert_eq!(l.min_value(), Some(0.0));
        let empty = Lut::new(vec![], vec![], vec![]);
        assert_eq!(empty.max_value(), None);
    }

    #[test]
    #[should_panic(expected = "row count")]
    fn lut_new_rejects_bad_shape() {
        let _ = Lut::new(vec![0.0, 1.0], vec![0.0], vec![vec![1.0]]);
    }

    #[test]
    fn entries_iterates_row_major() {
        let l = lut2x2();
        let e: Vec<_> = l.entries().collect();
        assert_eq!(e[0], (0, 0, 0.0));
        assert_eq!(e[1], (0, 1, 10.0));
        assert_eq!(e[2], (1, 0, 20.0));
        assert_eq!(e.len(), 4);
    }

    #[test]
    fn drive_strength_parses_plain_and_decimal() {
        assert_eq!(Cell::new("INV_4", 1.0).drive_strength(), Some(4.0));
        assert_eq!(Cell::new("AD1_2P5", 1.0).drive_strength(), Some(2.5));
        assert_eq!(Cell::new("NR2B_0P5", 1.0).drive_strength(), Some(0.5));
        assert_eq!(Cell::new("PLAIN", 1.0).drive_strength(), None);
        assert_eq!(Cell::new("BAD_X", 1.0).drive_strength(), None);
    }

    #[test]
    fn cell_kind_classification() {
        assert_eq!(Cell::new("INV_1", 1.0).kind(), CellKind::Inverter);
        assert_eq!(Cell::new("ND2_4", 1.0).kind(), CellKind::Nand);
        assert_eq!(Cell::new("NR4_6", 1.0).kind(), CellKind::Nor);
        assert_eq!(Cell::new("XN2_2", 1.0).kind(), CellKind::Xnor);
        assert_eq!(Cell::new("AD2_1", 1.0).kind(), CellKind::Adder);
        assert_eq!(Cell::new("MU2_2", 1.0).kind(), CellKind::Mux);
        assert_eq!(Cell::new("DF_1", 1.0).kind(), CellKind::FlipFlop);
        assert_eq!(Cell::new("LA_1", 1.0).kind(), CellKind::Latch);
        assert_eq!(Cell::new("WEIRD_1", 1.0).kind(), CellKind::Other);
    }

    #[test]
    fn sequential_detection_via_clock_pin() {
        let mut c = Cell::new("DF_1", 4.0);
        let mut ck = Pin::input("CK", 0.001);
        ck.is_clock = true;
        c.pins.push(ck);
        assert!(c.is_sequential());
        assert!(!Cell::new("INV_1", 1.0).is_sequential());
    }

    #[test]
    fn library_lookup_and_table_count() {
        let mut lib = Library::new("TT");
        let mut c = Cell::new("INV_1", 1.0);
        let mut z = Pin::output("Z", "!A");
        let mut arc = TimingArc::new("A");
        arc.cell_rise = Some(Lut::filled(vec![0.0, 1.0], vec![0.0, 1.0], 0.1));
        arc.rise_transition = Some(Lut::filled(vec![0.0, 1.0], vec![0.0, 1.0], 0.2));
        z.timing.push(arc);
        c.pins.push(Pin::input("A", 0.002));
        c.pins.push(z);
        lib.cells.push(c);
        assert!(lib.cell("INV_1").is_some());
        assert!(lib.cell("NOPE").is_none());
        assert_eq!(lib.table_count(), 2);
    }

    #[test]
    fn cell_index_survives_post_lookup_mutation() {
        let mut lib = Library::new("TT");
        for n in ["INV_1", "INV_2", "ND2_1"] {
            lib.cells.push(Cell::new(n, 1.0));
        }
        // First lookup builds the cache.
        assert_eq!(lib.cell_index("ND2_1"), Some(2));
        assert_eq!(lib.cell("INV_2").unwrap().name, "INV_2");
        // Mutation through the public field shifts indices; the stale
        // cache must fall back to a verified scan, not return INV_2.
        lib.cells.retain(|c| c.name != "INV_2");
        assert_eq!(lib.cell_index("ND2_1"), Some(1));
        assert_eq!(lib.cell_index("INV_2"), None);
        assert_eq!(lib.cell("ND2_1").unwrap().name, "ND2_1");
        // A clone starts with a fresh cache.
        let cloned = lib.clone();
        assert_eq!(cloned.cell_index("INV_1"), Some(0));
        assert_eq!(cloned, lib);
    }

    #[test]
    fn worst_delay_and_transition_take_max() {
        let mut arc = TimingArc::new("A");
        arc.cell_rise = Some(Lut::filled(vec![0.0, 1.0], vec![0.0, 1.0], 0.1));
        arc.cell_fall = Some(Lut::filled(vec![0.0, 1.0], vec![0.0, 1.0], 0.3));
        arc.rise_transition = Some(Lut::filled(vec![0.0, 1.0], vec![0.0, 1.0], 0.5));
        assert!((arc.worst_delay(0.5, 0.5).unwrap() - 0.3).abs() < 1e-12);
        assert!((arc.worst_transition(0.5, 0.5).unwrap() - 0.5).abs() < 1e-12);
        let empty = TimingArc::new("A");
        assert!(empty.worst_delay(0.0, 0.0).is_err());
    }
}
