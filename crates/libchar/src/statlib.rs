//! The statistical library of §IV.
//!
//! Given N Monte-Carlo characterized libraries, every LUT entry is collected
//! across the N copies and reduced to its mean and standard deviation. The
//! result is stored as **two structurally identical Liberty libraries**: one
//! whose tables hold means, one whose tables hold sigmas — exactly the
//! "library file with identical tables ... which contains local variation
//! statistics instead" described in the paper.
//!
//! Internally the reduction is *columnar*: the first library's structure is
//! flattened once into a `StructureIndex` (one slot per LUT, one flat
//! entry range per slot), every further library is validated against that
//! index up front (typed [`StatLibError`]s, not string diffs), and the
//! Welford merge then runs over flat `Vec<f64>` columns — libraries outer,
//! entries inner — so the hot loop never touches a name, an `Option` or a
//! nested `Vec` again. Each entry sees exactly the same push sequence as the
//! original per-entry accumulator, so the result is bit-identical.

use std::error::Error;
use std::fmt;

use varitune_liberty::{CellId, InterpolateError, Library, Lut, PinId, TimingArc};
use varitune_variation::rng::rng_from;

/// Which of an arc's four tables a query refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TableKind {
    /// Rise propagation delay.
    CellRise,
    /// Fall propagation delay.
    CellFall,
    /// Output rise transition.
    RiseTransition,
    /// Output fall transition.
    FallTransition,
}

impl TableKind {
    /// The two delay kinds.
    pub const DELAYS: [TableKind; 2] = [TableKind::CellRise, TableKind::CellFall];

    /// All four kinds, in canonical (structure-index) order.
    pub const ALL: [TableKind; 4] = [
        TableKind::CellRise,
        TableKind::CellFall,
        TableKind::RiseTransition,
        TableKind::FallTransition,
    ];

    /// Selects this kind's table on `arc`.
    pub fn of(self, arc: &TimingArc) -> Option<&Lut> {
        match self {
            TableKind::CellRise => arc.cell_rise.as_ref(),
            TableKind::CellFall => arc.cell_fall.as_ref(),
            TableKind::RiseTransition => arc.rise_transition.as_ref(),
            TableKind::FallTransition => arc.fall_transition.as_ref(),
        }
    }

    fn of_mut(self, arc: &mut TimingArc) -> Option<&mut Lut> {
        match self {
            TableKind::CellRise => arc.cell_rise.as_mut(),
            TableKind::CellFall => arc.cell_fall.as_mut(),
            TableKind::RiseTransition => arc.rise_transition.as_mut(),
            TableKind::FallTransition => arc.fall_transition.as_mut(),
        }
    }
}

/// A mean/sigma pair of same-shaped tables for one arc table kind.
#[derive(Debug, Clone, PartialEq)]
pub struct StatTable {
    /// Entry-wise means.
    pub mean: Lut,
    /// Entry-wise standard deviations.
    pub sigma: Lut,
}

impl StatTable {
    /// Interpolates `(mean, sigma)` at an operating point.
    ///
    /// # Errors
    ///
    /// Propagates [`InterpolateError`] from either table.
    pub fn interpolate(&self, slew: f64, load: f64) -> Result<(f64, f64), InterpolateError> {
        Ok((
            self.mean.interpolate(slew, load)?,
            self.sigma.interpolate(slew, load)?,
        ))
    }
}

/// A structural difference between two characterized libraries, carrying the
/// offending [`CellId`]/[`PinId`] instead of pre-rendered strings — names
/// are only materialized at the report boundary (`Display` or
/// [`StatLibError::describe`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatLibError {
    /// The libraries contain different numbers of cells.
    CellCount {
        /// Cell count of the reference (first) library.
        expected: usize,
        /// Cell count of the offending library.
        found: usize,
    },
    /// The cell at one position has different names in the two libraries.
    CellName {
        /// Position of the offending cell.
        cell: CellId,
        /// Name in the reference library.
        expected: String,
        /// Name in the offending library.
        found: String,
    },
    /// A cell has a different number of pins.
    PinCount {
        /// The offending cell.
        cell: CellId,
    },
    /// A pin's name, timing-arc list or power-group list differs.
    ArcStructure {
        /// The offending cell.
        cell: CellId,
        /// The offending pin.
        pin: PinId,
    },
    /// A timing table is present/absent or shaped differently.
    TableShape {
        /// The offending cell.
        cell: CellId,
        /// The offending pin.
        pin: PinId,
        /// Which of the arc's four tables differs.
        kind: TableKind,
    },
    /// An internal-power table is present/absent or shaped differently.
    PowerShape {
        /// The offending cell.
        cell: CellId,
        /// The offending pin.
        pin: PinId,
    },
}

impl StatLibError {
    /// Renders the error with cell/pin *names* resolved against `lib` — the
    /// report-boundary counterpart of the id-carrying `Display` output.
    pub fn describe(&self, lib: &Library) -> String {
        let cell_name = |id: CellId| {
            lib.cells
                .get(id.index())
                .map_or_else(|| format!("cell#{}", id.0), |c| c.name.clone())
        };
        let pin_name = |cid: CellId, pid: PinId| {
            let (c, p) = lib.interner().pin_of(pid);
            lib.cells
                .get(c.index())
                .and_then(|cell| cell.pins.get(p))
                .map_or_else(|| format!("pin#{}", pid.0), |pin| pin.name.clone())
                + if c == cid { "" } else { "?" }
        };
        match self {
            StatLibError::CellCount { expected, found } => {
                format!("cell count {expected} vs {found}")
            }
            StatLibError::CellName {
                cell,
                expected,
                found,
            } => format!("cell #{} name {expected} vs {found}", cell.0),
            StatLibError::PinCount { cell } => {
                format!("{}: pin count differs", cell_name(*cell))
            }
            StatLibError::ArcStructure { cell, pin } => format!(
                "{}/{}: arc structure differs",
                cell_name(*cell),
                pin_name(*cell, *pin)
            ),
            StatLibError::TableShape { cell, pin, kind } => format!(
                "{}/{}: table {kind:?} shape differs",
                cell_name(*cell),
                pin_name(*cell, *pin)
            ),
            StatLibError::PowerShape { cell, pin } => format!(
                "{}/{}: power table shape differs",
                cell_name(*cell),
                pin_name(*cell, *pin)
            ),
        }
    }
}

impl fmt::Display for StatLibError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatLibError::CellCount { expected, found } => {
                write!(f, "cell count {expected} vs {found}")
            }
            StatLibError::CellName {
                cell,
                expected,
                found,
            } => write!(f, "cell #{} name {expected} vs {found}", cell.0),
            StatLibError::PinCount { cell } => write!(f, "cell #{}: pin count differs", cell.0),
            StatLibError::ArcStructure { cell, pin } => {
                write!(f, "cell #{} pin #{}: arc structure differs", cell.0, pin.0)
            }
            StatLibError::TableShape { cell, pin, kind } => write!(
                f,
                "cell #{} pin #{}: table {kind:?} shape differs",
                cell.0, pin.0
            ),
            StatLibError::PowerShape { cell, pin } => write!(
                f,
                "cell #{} pin #{}: power table shape differs",
                cell.0, pin.0
            ),
        }
    }
}

impl Error for StatLibError {}

/// Error building a [`StatLibrary`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildStatError {
    /// No input libraries were provided.
    Empty,
    /// The input libraries do not share an identical cell/arc/table
    /// structure.
    StructureMismatch {
        /// Index of the offending library in the input slice.
        library: usize,
        /// The first difference found, in typed form.
        error: StatLibError,
    },
}

impl fmt::Display for BuildStatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildStatError::Empty => write!(f, "no input libraries"),
            BuildStatError::StructureMismatch { library, error } => {
                write!(f, "library #{library} differs structurally: {error}")
            }
        }
    }
}

impl Error for BuildStatError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BuildStatError::Empty => None,
            BuildStatError::StructureMismatch { error, .. } => Some(error),
        }
    }
}

/// Where one LUT slot lives inside a cell.
#[derive(Clone, Copy)]
enum SlotLoc {
    /// `kind`'s table of timing arc `arc` on pin `pin`.
    Timing {
        pin: usize,
        arc: usize,
        kind: TableKind,
    },
    /// Rise/fall table of internal-power group `group` on pin `pin`.
    Power {
        pin: usize,
        group: usize,
        rise: bool,
    },
}

/// One LUT of the flattened library structure.
struct Slot {
    cell: usize,
    loc: SlotLoc,
    /// Start of this slot's entries in the flat columns.
    offset: usize,
}

/// The first library's structure, flattened once: every LUT becomes a slot
/// with a contiguous entry range, in canonical order (cells, then pins, then
/// timing arcs × [`TableKind::ALL`], then power groups × rise/fall). All
/// gather/scatter traffic of the merge goes through this index; no name or
/// `Option` is consulted per entry.
struct StructureIndex {
    slots: Vec<Slot>,
    total: usize,
}

impl StructureIndex {
    fn build(lib: &Library) -> Self {
        let mut slots = Vec::new();
        let mut total = 0usize;
        for (ci, cell) in lib.cells.iter().enumerate() {
            for (pi, pin) in cell.pins.iter().enumerate() {
                for (ai, arc) in pin.timing.iter().enumerate() {
                    for kind in TableKind::ALL {
                        let Some(t) = kind.of(arc) else { continue };
                        slots.push(Slot {
                            cell: ci,
                            loc: SlotLoc::Timing {
                                pin: pi,
                                arc: ai,
                                kind,
                            },
                            offset: total,
                        });
                        total += t.rows() * t.cols();
                    }
                }
                for (gi, group) in pin.internal_power.iter().enumerate() {
                    for (rise, t) in [(true, &group.rise_power), (false, &group.fall_power)] {
                        let Some(t) = t.as_ref() else { continue };
                        slots.push(Slot {
                            cell: ci,
                            loc: SlotLoc::Power {
                                pin: pi,
                                group: gi,
                                rise,
                            },
                            offset: total,
                        });
                        total += t.rows() * t.cols();
                    }
                }
            }
        }
        Self { slots, total }
    }

    /// Copies every slot's entries of `lib` (structure already validated)
    /// into `column`, row-major per table, slots in index order.
    fn gather(&self, lib: &Library, column: &mut Vec<f64>) {
        column.clear();
        for slot in &self.slots {
            // Slots were built from this library's structure (doc above).
            #[allow(clippy::expect_used)]
            let t = slot_table(lib, slot).expect("structure validated");
            for row in &t.values {
                column.extend_from_slice(row);
            }
        }
    }

    /// Writes `column` back into `lib`'s tables, inverse of `gather`.
    fn scatter(&self, lib: &mut Library, column: &[f64]) {
        for slot in &self.slots {
            // Slots were built from this library's structure (doc above).
            #[allow(clippy::expect_used)]
            let t = slot_table_mut(lib, slot).expect("structure validated");
            let mut k = slot.offset;
            for row in &mut t.values {
                for v in row {
                    *v = column[k];
                    k += 1;
                }
            }
        }
    }
}

fn slot_table<'a>(lib: &'a Library, slot: &Slot) -> Option<&'a Lut> {
    let cell = lib.cells.get(slot.cell)?;
    match slot.loc {
        SlotLoc::Timing { pin, arc, kind } => kind.of(cell.pins.get(pin)?.timing.get(arc)?),
        SlotLoc::Power { pin, group, rise } => {
            let g = cell.pins.get(pin)?.internal_power.get(group)?;
            if rise {
                g.rise_power.as_ref()
            } else {
                g.fall_power.as_ref()
            }
        }
    }
}

fn slot_table_mut<'a>(lib: &'a mut Library, slot: &Slot) -> Option<&'a mut Lut> {
    let cell = lib.cells.get_mut(slot.cell)?;
    match slot.loc {
        SlotLoc::Timing { pin, arc, kind } => {
            kind.of_mut(cell.pins.get_mut(pin)?.timing.get_mut(arc)?)
        }
        SlotLoc::Power { pin, group, rise } => {
            let g = cell.pins.get_mut(pin)?.internal_power.get_mut(group)?;
            if rise {
                g.rise_power.as_mut()
            } else {
                g.fall_power.as_mut()
            }
        }
    }
}

/// Delay-sigma entries stored columnar: every output-pin `cell_rise` /
/// `cell_fall` sigma entry of a cell concatenated into one contiguous
/// `f64` block, indexed by [`CellId`]. The tuner's per-cell selection metric
/// (worst delay sigma) becomes a flat slice scan instead of a walk over the
/// Liberty tree.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SigmaColumns {
    values: Vec<f64>,
    /// `offsets[i]..offsets[i + 1]` is cell `i`'s block; length is
    /// `cell_count + 1`.
    offsets: Vec<u32>,
}

impl SigmaColumns {
    /// Flattens the delay-sigma entries of `sigma` (a per-entry
    /// standard-deviation library) into per-cell blocks.
    pub fn from_library(sigma: &Library) -> Self {
        let mut values = Vec::new();
        let mut offsets = Vec::with_capacity(sigma.cells.len() + 1);
        offsets.push(0u32);
        for cell in &sigma.cells {
            for pin in cell.output_pins() {
                for arc in &pin.timing {
                    for kind in TableKind::DELAYS {
                        if let Some(t) = kind.of(arc) {
                            for row in &t.values {
                                values.extend_from_slice(row);
                            }
                        }
                    }
                }
            }
            offsets.push(values.len() as u32);
        }
        Self { values, offsets }
    }

    /// The contiguous delay-sigma block of `cell` (empty when the id is out
    /// of range or the cell has no delay tables).
    pub fn cell(&self, cell: CellId) -> &[f64] {
        let i = cell.index();
        if i + 1 >= self.offsets.len() {
            return &[];
        }
        &self.values[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Largest delay-sigma entry of `cell`, `None` when it has none.
    pub fn worst(&self, cell: CellId) -> Option<f64> {
        self.cell(cell)
            .iter()
            .copied()
            .fold(None, |w, v| Some(w.map_or(v, |w: f64| w.max(v))))
    }
}

/// Lazily built [`SigmaColumns`] behind [`StatLibrary::sigma_columns`].
/// A cache over the `sigma` library, not part of the value: clones start
/// empty and any two caches compare equal, so `StatLibrary`'s derived
/// `Clone`/`PartialEq` keep their value semantics (the same contract as the
/// liberty interner cache).
#[derive(Default)]
struct ColumnsCache(std::sync::OnceLock<SigmaColumns>);

impl Clone for ColumnsCache {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl PartialEq for ColumnsCache {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl fmt::Debug for ColumnsCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ColumnsCache")
    }
}

/// The statistical library: per-entry mean and sigma across N characterized
/// libraries, stored as two structurally identical Liberty libraries plus a
/// columnar per-cell delay-sigma summary.
#[derive(Debug, Clone, PartialEq)]
pub struct StatLibrary {
    /// Library whose LUT values are entry-wise means.
    pub mean: Library,
    /// Library whose LUT values are entry-wise standard deviations.
    pub sigma: Library,
    /// Number of Monte-Carlo libraries the statistics were computed from.
    pub sample_count: usize,
    /// Columnar per-cell delay-sigma blocks, derived lazily from `sigma`.
    columns: ColumnsCache,
}

impl StatLibrary {
    /// Builds the statistical library from `libs` (the §IV procedure).
    ///
    /// The first library's structure is flattened once into a
    /// `StructureIndex`; every further library is validated against the
    /// first in a single typed pass, and the per-entry Welford merge runs
    /// columnar (libraries outer, flat entries inner). The merged values are
    /// bit-identical to the per-entry accumulator formulation.
    ///
    /// # Errors
    ///
    /// Returns [`BuildStatError::Empty`] for an empty slice and
    /// [`BuildStatError::StructureMismatch`] if any library's cells, arcs or
    /// table shapes differ from the first library's.
    pub fn from_libraries(libs: &[Library]) -> Result<Self, BuildStatError> {
        let first = libs.first().ok_or(BuildStatError::Empty)?;
        for (k, lib) in libs.iter().enumerate().skip(1) {
            check_same_structure(first, lib)
                .map_err(|error| BuildStatError::StructureMismatch { library: k, error })?;
        }

        let index = StructureIndex::build(first);

        // Columnar Welford merge. Per entry this replays exactly
        // `Accumulator::push` (n += 1; delta = x - mean; mean += delta / n;
        // m2 += delta * (x - mean)) with the libraries visited in input
        // order, so mean and sigma match the per-entry reduction to the bit.
        let total = index.total;
        let mut mean_col = vec![0.0f64; total];
        let mut m2 = vec![0.0f64; total];
        let mut column: Vec<f64> = Vec::with_capacity(total);
        let mut n = 0usize;
        for lib in libs {
            index.gather(lib, &mut column);
            n += 1;
            let nf = n as f64;
            for (e, &x) in column.iter().enumerate() {
                let delta = x - mean_col[e];
                mean_col[e] += delta / nf;
                m2[e] += delta * (x - mean_col[e]);
            }
        }
        let sigma_col: Vec<f64> = if n < 2 {
            vec![0.0; total]
        } else {
            let bessel = (n - 1) as f64;
            m2.iter().map(|&v| (v / bessel).sqrt()).collect()
        };

        let mut mean = first.clone();
        mean.name = "STAT_MEAN".to_string();
        let mut sigma = first.clone();
        sigma.name = "STAT_SIGMA".to_string();
        index.scatter(&mut mean, &mean_col);
        index.scatter(&mut sigma, &sigma_col);

        Ok(Self {
            mean,
            sigma,
            sample_count: libs.len(),
            columns: ColumnsCache::default(),
        })
    }

    /// Characterizes the statistical library **directly** from the nominal
    /// library: each Monte-Carlo trial streams its perturbed LUT values
    /// into a flat column (no intermediate `Library` is materialized, no
    /// per-library structure validation is needed — every column derives
    /// from the same nominal structure), and the columns feed the same
    /// Welford merge as [`Self::from_libraries`].
    ///
    /// Bit-identical to
    /// `Self::from_libraries(&generate_mc_libraries_threaded(nominal, cfg,
    /// n, seed, threads))` for every thread count, at a fraction of the
    /// allocation traffic; the equivalence is pinned by a test.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn from_monte_carlo(
        nominal: &Library,
        cfg: &crate::GenerateConfig,
        n: usize,
        seed: u64,
        threads: usize,
    ) -> Self {
        #[allow(clippy::expect_used)] // infallible: no cancel scope is consulted here
        Self::try_from_monte_carlo(nominal, cfg, n, seed, threads, false)
            .expect("uncancellable characterization cannot be cancelled")
    }

    /// Cancellable form of [`Self::from_monte_carlo`]: when `cancellable`
    /// is true, every Monte-Carlo trial starts with a
    /// [`varitune_variation::cancel::check`] checkpoint against the current
    /// scope's [`varitune_variation::CancelToken`], so a served request's
    /// deadline can abandon the characterization between trials. A run that
    /// completes is bit-identical to [`Self::from_monte_carlo`] — the
    /// checkpoint only ever aborts, never perturbs.
    ///
    /// # Errors
    ///
    /// [`varitune_variation::Cancelled`] once the current scope's token has
    /// fired (only possible with `cancellable == true`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn try_from_monte_carlo(
        nominal: &Library,
        cfg: &crate::GenerateConfig,
        n: usize,
        seed: u64,
        threads: usize,
        cancellable: bool,
    ) -> Result<Self, varitune_variation::Cancelled> {
        assert!(n > 0, "need at least one MC library");
        let _span = varitune_trace::span!("libchar.mc_characterize");
        // The perturbation leaves structure (and all non-slot state except
        // the library name) untouched, so the nominal library's flattening
        // is the flattening of every trial.
        let index = StructureIndex::build(nominal);
        let total = index.total;
        // Column throughput: how many LUT entries stream through the
        // Welford merge. Workload-derived only, so the trace stays
        // bit-identical across thread counts.
        varitune_trace::add("libchar.mc_trials", n as u64);
        varitune_trace::add("libchar.column_values_merged", (n as u64) * (total as u64));
        varitune_trace::observe("libchar.column_entries", total as u64);
        let columns = varitune_variation::try_run_trials(n, threads, |k| {
            if cancellable {
                varitune_variation::cancel::check()?;
            }
            let mut column = Vec::with_capacity(total);
            crate::generate::perturb_into_column(
                nominal,
                cfg,
                rng_from(seed, "mc-lib", k as u64),
                &mut column,
            );
            Ok(column)
        })?;

        let mut mean_col = vec![0.0f64; total];
        let mut m2 = vec![0.0f64; total];
        let mut count = 0usize;
        for column in &columns {
            debug_assert_eq!(column.len(), total);
            count += 1;
            let nf = count as f64;
            for (e, &x) in column.iter().enumerate() {
                let delta = x - mean_col[e];
                mean_col[e] += delta / nf;
                m2[e] += delta * (x - mean_col[e]);
            }
        }
        let sigma_col: Vec<f64> = if count < 2 {
            vec![0.0; total]
        } else {
            let bessel = (count - 1) as f64;
            m2.iter().map(|&v| (v / bessel).sqrt()).collect()
        };

        let mut mean = nominal.clone();
        mean.name = "STAT_MEAN".to_string();
        let mut sigma = nominal.clone();
        sigma.name = "STAT_SIGMA".to_string();
        index.scatter(&mut mean, &mean_col);
        index.scatter(&mut sigma, &sigma_col);

        Ok(Self {
            mean,
            sigma,
            sample_count: n,
            columns: ColumnsCache::default(),
        })
    }

    /// Assembles a statistical library from already-built mean/sigma
    /// libraries (e.g. re-parsed from disk).
    pub fn from_parts(mean: Library, sigma: Library, sample_count: usize) -> Self {
        Self {
            mean,
            sigma,
            sample_count,
            columns: ColumnsCache::default(),
        }
    }

    /// The columnar per-cell delay-sigma blocks, built from `sigma` on
    /// first use. A snapshot: mutate `sigma` only before the first query
    /// (clones reset the cache).
    pub fn sigma_columns(&self) -> &SigmaColumns {
        self.columns
            .0
            .get_or_init(|| SigmaColumns::from_library(&self.sigma))
    }

    /// The mean/sigma pair for one arc table, cloned into a [`StatTable`].
    pub fn stat_table(
        &self,
        cell: &str,
        pin: &str,
        arc_idx: usize,
        kind: TableKind,
    ) -> Option<StatTable> {
        let m = kind.of(self.mean.cell(cell)?.pin(pin)?.timing.get(arc_idx)?)?;
        let s = kind.of(self.sigma.cell(cell)?.pin(pin)?.timing.get(arc_idx)?)?;
        Some(StatTable {
            mean: m.clone(),
            sigma: s.clone(),
        })
    }

    /// Worst-case (max over arcs and rise/fall) delay `(mean, sigma)` of
    /// output pin `out_pin` of `cell` at an operating point — the quantity
    /// the statistical STA attaches to a mapped instance. `cell` indexes the
    /// structurally shared cell list and `out_pin` is the position among the
    /// cell's output pins — no name resolution on the query path.
    ///
    /// # Errors
    ///
    /// Propagates [`InterpolateError`]; returns `EmptyTable` when the id or
    /// pin position is out of range or the pin has no delay tables.
    pub fn delay_stat_id(
        &self,
        cell: CellId,
        out_pin: usize,
        slew: f64,
        load: f64,
    ) -> Result<(f64, f64), InterpolateError> {
        let mc = self
            .mean
            .cells
            .get(cell.index())
            .and_then(|c| c.output_pins().nth(out_pin))
            .ok_or(InterpolateError::EmptyTable)?;
        let sc = self
            .sigma
            .cells
            .get(cell.index())
            .and_then(|c| c.output_pins().nth(out_pin))
            .ok_or(InterpolateError::EmptyTable)?;
        worst_delay_over(&mc.timing, &sc.timing, slew, load)
    }

    /// Like [`StatLibrary::delay_stat_id`], but restricted to one arc (worst
    /// over rise/fall only) — the precise query used when the critical
    /// input of a path cell is known. The arc is selected by the *input pin
    /// position* whose transition launches it, matching the critical-input
    /// index recorded by the timing engine.
    ///
    /// # Errors
    ///
    /// Propagates [`InterpolateError`]; returns `EmptyTable` when the id,
    /// pin position or arc cannot be resolved.
    pub fn delay_stat_arc_id(
        &self,
        cell: CellId,
        out_pin: usize,
        input: usize,
        slew: f64,
        load: f64,
    ) -> Result<(f64, f64), InterpolateError> {
        let mcell = self
            .mean
            .cells
            .get(cell.index())
            .ok_or(InterpolateError::EmptyTable)?;
        let related = &mcell
            .input_pins()
            .nth(input)
            .ok_or(InterpolateError::EmptyTable)?
            .name;
        let mc = mcell
            .output_pins()
            .nth(out_pin)
            .ok_or(InterpolateError::EmptyTable)?;
        let sc = self
            .sigma
            .cells
            .get(cell.index())
            .and_then(|c| c.output_pins().nth(out_pin))
            .ok_or(InterpolateError::EmptyTable)?;
        let (Some(ma), Some(sa)) = (
            mc.timing.iter().find(|a| &a.related_pin == related),
            sc.timing.iter().find(|a| &a.related_pin == related),
        ) else {
            return Err(InterpolateError::EmptyTable);
        };
        worst_delay_over(
            std::slice::from_ref(ma),
            std::slice::from_ref(sa),
            slew,
            load,
        )
    }

    /// The largest delay-sigma entry anywhere in `cell`'s tables — a quick
    /// scalar summary used in reports and doc examples.
    pub fn worst_delay_sigma(&self, cell: &str) -> Option<f64> {
        self.worst_delay_sigma_id(self.sigma.cell_id(cell)?)
    }

    /// Id-based form of [`StatLibrary::worst_delay_sigma`]: one contiguous
    /// scan of the cell's columnar sigma block.
    pub fn worst_delay_sigma_id(&self, cell: CellId) -> Option<f64> {
        self.sigma_columns().worst(cell)
    }
}

/// Worst (max-mean) delay `(mean, sigma)` over `mean_arcs`/`sigma_arcs` ×
/// rise/fall at one operating point.
fn worst_delay_over(
    mean_arcs: &[TimingArc],
    sigma_arcs: &[TimingArc],
    slew: f64,
    load: f64,
) -> Result<(f64, f64), InterpolateError> {
    let mut best: Option<(f64, f64)> = None;
    for (ma, sa) in mean_arcs.iter().zip(sigma_arcs) {
        for kind in TableKind::DELAYS {
            let (Some(mt), Some(st)) = (kind.of(ma), kind.of(sa)) else {
                continue;
            };
            let m = mt.interpolate(slew, load)?;
            let s = st.interpolate(slew, load)?;
            best = Some(match best {
                Some((bm, bs)) if bm >= m => (bm, bs),
                _ => (m, s),
            });
        }
    }
    best.ok_or(InterpolateError::EmptyTable)
}

/// One-shot structural validation of `b` against the reference library `a`,
/// returning the first difference as a typed [`StatLibError`]. Runs once per
/// input library at construction; the merge itself never compares names.
fn check_same_structure(a: &Library, b: &Library) -> Result<(), StatLibError> {
    if a.cells.len() != b.cells.len() {
        return Err(StatLibError::CellCount {
            expected: a.cells.len(),
            found: b.cells.len(),
        });
    }
    let interner = a.interner();
    for (ci, (ca, cb)) in a.cells.iter().zip(&b.cells).enumerate() {
        let cell = CellId(ci as u32);
        if ca.name != cb.name {
            return Err(StatLibError::CellName {
                cell,
                expected: ca.name.clone(),
                found: cb.name.clone(),
            });
        }
        if ca.pins.len() != cb.pins.len() {
            return Err(StatLibError::PinCount { cell });
        }
        for (pi, (pa, pb)) in ca.pins.iter().zip(&cb.pins).enumerate() {
            let pin = interner.pin_id(cell, pi);
            if pa.name != pb.name
                || pa.timing.len() != pb.timing.len()
                || pa.internal_power.len() != pb.internal_power.len()
            {
                return Err(StatLibError::ArcStructure { cell, pin });
            }
            for (ta, tb) in pa.timing.iter().zip(&pb.timing) {
                for kind in TableKind::ALL {
                    match (kind.of(ta), kind.of(tb)) {
                        (None, None) => {}
                        (Some(x), Some(y)) if same_shape(x, y) => {}
                        _ => return Err(StatLibError::TableShape { cell, pin, kind }),
                    }
                }
            }
            for (ga, gb) in pa.internal_power.iter().zip(&pb.internal_power) {
                for (ta, tb) in [
                    (&ga.rise_power, &gb.rise_power),
                    (&ga.fall_power, &gb.fall_power),
                ] {
                    match (ta.as_ref(), tb.as_ref()) {
                        (None, None) => {}
                        (Some(x), Some(y)) if same_shape(x, y) => {}
                        _ => return Err(StatLibError::PowerShape { cell, pin }),
                    }
                }
            }
        }
    }
    Ok(())
}

fn same_shape(x: &Lut, y: &Lut) -> bool {
    x.rows() == y.rows()
        && x.cols() == y.cols()
        && x.index_slew == y.index_slew
        && x.index_load == y.index_load
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate_mc_libraries, generate_nominal, GenerateConfig};

    fn stat_fixture(n: usize) -> StatLibrary {
        let cfg = GenerateConfig::small_for_tests();
        let nominal = generate_nominal(&cfg);
        let libs = generate_mc_libraries(&nominal, &cfg, n, 1234);
        StatLibrary::from_libraries(&libs).unwrap()
    }

    #[test]
    fn from_monte_carlo_is_bit_identical_to_from_libraries() {
        // The streaming characterization must replay from_libraries'
        // perturbation and merge exactly — same RNG draws, same Welford
        // order — at every thread count.
        let cfg = GenerateConfig::small_for_tests();
        let nominal = generate_nominal(&cfg);
        let libs = generate_mc_libraries(&nominal, &cfg, 7, 1234);
        let reference = StatLibrary::from_libraries(&libs).unwrap();
        for threads in [1, 2, 4] {
            let fused = StatLibrary::from_monte_carlo(&nominal, &cfg, 7, 1234, threads);
            assert_eq!(fused.mean, reference.mean, "threads = {threads}");
            assert_eq!(fused.sigma, reference.sigma, "threads = {threads}");
            assert_eq!(fused.sample_count, reference.sample_count);
        }
    }

    #[test]
    fn cancellable_characterization_matches_uncancellable_when_it_completes() {
        let cfg = GenerateConfig::small_for_tests();
        let nominal = generate_nominal(&cfg);
        let reference = StatLibrary::from_monte_carlo(&nominal, &cfg, 7, 1234, 2);
        let cancellable =
            StatLibrary::try_from_monte_carlo(&nominal, &cfg, 7, 1234, 2, true).unwrap();
        assert_eq!(cancellable.mean, reference.mean);
        assert_eq!(cancellable.sigma, reference.sigma);
    }

    #[test]
    fn fired_token_aborts_cancellable_characterization() {
        let cfg = GenerateConfig::small_for_tests();
        let nominal = generate_nominal(&cfg);
        let token = varitune_variation::CancelToken::new();
        token.cancel();
        let result = varitune_variation::cancel::with_token(&token, || {
            StatLibrary::try_from_monte_carlo(&nominal, &cfg, 7, 1234, 2, true)
        });
        assert_eq!(result.unwrap_err(), varitune_variation::Cancelled);
        // An uncancellable run under the same fired token still completes.
        let ok = varitune_variation::cancel::with_token(&token, || {
            StatLibrary::try_from_monte_carlo(&nominal, &cfg, 7, 1234, 2, false)
        });
        assert!(ok.is_ok());
    }

    #[test]
    fn empty_input_is_an_error() {
        assert_eq!(
            StatLibrary::from_libraries(&[]).unwrap_err(),
            BuildStatError::Empty
        );
    }

    #[test]
    fn structure_mismatch_is_detected() {
        let cfg = GenerateConfig::small_for_tests();
        let a = generate_nominal(&cfg);
        let mut b = a.clone();
        b.cells.pop();
        let err = StatLibrary::from_libraries(&[a, b]).unwrap_err();
        assert!(matches!(
            err,
            BuildStatError::StructureMismatch { library: 1, .. }
        ));
    }

    #[test]
    fn structure_errors_carry_typed_ids() {
        let cfg = GenerateConfig::small_for_tests();
        let a = generate_nominal(&cfg);

        // A renamed cell is reported with its positional id and both names.
        let mut renamed = a.clone();
        renamed.cells[2].name = "WRONG".to_string();
        let err = StatLibrary::from_libraries(&[a.clone(), renamed]).unwrap_err();
        let BuildStatError::StructureMismatch { library: 1, error } = err else {
            panic!("expected structure mismatch, got {err:?}");
        };
        assert_eq!(
            error,
            StatLibError::CellName {
                cell: CellId(2),
                expected: a.cells[2].name.clone(),
                found: "WRONG".to_string(),
            }
        );
        assert!(error.describe(&a).contains(&a.cells[2].name));

        // A reshaped delay table is reported against the owning cell/pin id.
        let mut reshaped = a.clone();
        let pin_pos = reshaped.cells[0]
            .pins
            .iter()
            .position(|p| !p.timing.is_empty())
            .unwrap();
        reshaped.cells[0].pins[pin_pos].timing[0]
            .cell_rise
            .as_mut()
            .unwrap()
            .index_slew[0] += 1.0;
        let err = StatLibrary::from_libraries(&[a.clone(), reshaped]).unwrap_err();
        let BuildStatError::StructureMismatch { error, .. } = err else {
            panic!("expected structure mismatch");
        };
        assert_eq!(
            error,
            StatLibError::TableShape {
                cell: CellId(0),
                pin: a.interner().pin_id(CellId(0), pin_pos),
                kind: TableKind::CellRise,
            }
        );
    }

    #[test]
    fn mean_tracks_nominal() {
        let cfg = GenerateConfig::small_for_tests();
        let nominal = generate_nominal(&cfg);
        let stat = stat_fixture(50);
        let nom = nominal.cell("INV_2").unwrap().pin("Z").unwrap().timing[0]
            .cell_rise
            .as_ref()
            .unwrap()
            .at(3, 3);
        let mean = stat.mean.cell("INV_2").unwrap().pin("Z").unwrap().timing[0]
            .cell_rise
            .as_ref()
            .unwrap()
            .at(3, 3);
        assert!((mean - nom).abs() / nom < 0.05, "{mean} vs {nom}");
    }

    #[test]
    fn sigma_is_positive_everywhere() {
        let stat = stat_fixture(20);
        for cell in &stat.sigma.cells {
            for pin in cell.output_pins() {
                for arc in &pin.timing {
                    for t in arc.all_tables() {
                        assert!(t.min_value().unwrap() > 0.0, "{}", cell.name);
                    }
                }
            }
        }
    }

    #[test]
    fn sigma_shrinks_with_drive_strength() {
        let stat = stat_fixture(40);
        let s1 = stat.worst_delay_sigma("INV_1").unwrap();
        let s8 = stat.worst_delay_sigma("INV_8").unwrap();
        assert!(s8 < s1, "INV_8 {s8} should be below INV_1 {s1}");
    }

    #[test]
    fn sigma_surface_climbs_toward_heavy_corner() {
        // The Fig. 4 shape: the far (slow slew, heavy load) corner of the
        // sigma LUT dominates the origin.
        let stat = stat_fixture(40);
        let lut = stat.sigma.cell("INV_1").unwrap().pin("Z").unwrap().timing[0]
            .cell_rise
            .as_ref()
            .unwrap();
        assert!(lut.at(6, 6) > lut.at(0, 0) * 2.0);
    }

    #[test]
    fn delay_stat_id_interpolates_and_takes_worst_arc() {
        let stat = stat_fixture(20);
        let id = stat.mean.cell_id("ND2_2").unwrap();
        let (slew, load) = (0.05, 0.01);
        let (m, s) = stat.delay_stat_id(id, 0, slew, load).unwrap();
        assert!(m > 0.0 && s > 0.0);
        // Each input's arc, worst over rise/fall, straight from its tables;
        // the pin's worst is the largest mean among them.
        let z = stat.mean.cells[id.index()].output_pins().next().unwrap();
        let inputs: Vec<&str> = stat.mean.cells[id.index()]
            .input_pins()
            .map(|p| p.name.as_str())
            .collect();
        assert_eq!(inputs.len(), 2);
        let mut worst: Option<(f64, f64)> = None;
        for (k, name) in inputs.iter().enumerate() {
            let arc = z
                .timing
                .iter()
                .position(|a| a.related_pin == *name)
                .unwrap();
            let mut want: Option<(f64, f64)> = None;
            for kind in TableKind::DELAYS {
                let t = stat.stat_table("ND2_2", "Z", arc, kind).unwrap();
                let (tm, ts) = t.interpolate(slew, load).unwrap();
                if want.is_none_or(|(bm, _)| tm > bm) {
                    want = Some((tm, ts));
                }
            }
            let got = stat.delay_stat_arc_id(id, 0, k, slew, load).unwrap();
            assert_eq!(Some(got), want, "input {name}");
            if worst.is_none_or(|(bm, _)| got.0 > bm) {
                worst = Some(got);
            }
        }
        assert_eq!(Some((m, s)), worst);
    }

    #[test]
    fn id_queries_reject_out_of_range_ids() {
        let stat = stat_fixture(20);
        let id = stat.mean.cell_id("ND2_2").unwrap();
        assert_eq!(
            stat.worst_delay_sigma_id(id),
            stat.worst_delay_sigma("ND2_2")
        );
        // Out-of-range ids and pin positions are errors/None, not panics.
        let err = Err(InterpolateError::EmptyTable);
        assert_eq!(stat.delay_stat_id(CellId(u32::MAX), 0, 0.05, 0.01), err);
        assert_eq!(stat.delay_stat_id(id, 1, 0.05, 0.01), err);
        assert_eq!(
            stat.delay_stat_arc_id(CellId(u32::MAX), 0, 0, 0.05, 0.01),
            err
        );
        assert_eq!(stat.delay_stat_arc_id(id, 1, 0, 0.05, 0.01), err);
        assert_eq!(stat.delay_stat_arc_id(id, 0, 2, 0.05, 0.01), err);
        assert_eq!(stat.worst_delay_sigma_id(CellId(u32::MAX)), None);
    }

    #[test]
    fn sigma_columns_mirror_the_sigma_library() {
        let stat = stat_fixture(15);
        for (ci, cell) in stat.sigma.cells.iter().enumerate() {
            let expected: Vec<f64> = cell
                .output_pins()
                .flat_map(|p| &p.timing)
                .flat_map(|arc| {
                    TableKind::DELAYS
                        .into_iter()
                        .filter_map(|k| k.of(arc))
                        .flat_map(|t| t.values.iter().flatten().copied())
                        .collect::<Vec<_>>()
                })
                .collect();
            assert_eq!(stat.sigma_columns().cell(CellId(ci as u32)), &expected[..]);
        }
    }

    #[test]
    fn stat_table_returns_matched_shapes() {
        let stat = stat_fixture(10);
        let t = stat
            .stat_table("INV_1", "Z", 0, TableKind::CellRise)
            .unwrap();
        assert_eq!(t.mean.rows(), t.sigma.rows());
        let (m, s) = t.interpolate(0.05, 0.005).unwrap();
        assert!(m > 0.0 && s >= 0.0);
    }

    #[test]
    fn sample_count_is_recorded() {
        assert_eq!(stat_fixture(12).sample_count, 12);
    }

    #[test]
    fn power_tables_get_mean_and_sigma_too() {
        let stat = stat_fixture(30);
        let mean_p = stat
            .mean
            .cell("INV_1")
            .unwrap()
            .pin("Z")
            .unwrap()
            .internal_power[0]
            .rise_power
            .as_ref()
            .unwrap()
            .at(3, 3);
        let sigma_p = stat
            .sigma
            .cell("INV_1")
            .unwrap()
            .pin("Z")
            .unwrap()
            .internal_power[0]
            .rise_power
            .as_ref()
            .unwrap()
            .at(3, 3);
        assert!(mean_p > 0.0);
        assert!(sigma_p > 0.0, "power sigma must be aggregated, not copied");
        assert!(sigma_p < mean_p, "power sigma is a spread, not a copy");
    }

    #[test]
    fn single_library_gives_zero_sigma() {
        let cfg = GenerateConfig::small_for_tests();
        let nominal = generate_nominal(&cfg);
        let stat = StatLibrary::from_libraries(std::slice::from_ref(&nominal)).unwrap();
        assert_eq!(stat.worst_delay_sigma("INV_1"), Some(0.0));
        assert_eq!(stat.mean.cells, nominal.cells);
    }
}
