//! Packed arc tables: the timing arcs one [`crate::engine::TimingGraph`]
//! evaluates, each packed once into a flat arena.
//!
//! An arc's delay and transition tables keep their row-major values in one
//! contiguous block of the arena, and their axes are pooled by value, so
//! every table on the same axis names it by the same id. The engine
//! brackets a query coordinate once per axis id ([`Probe`]) and reuses the
//! bracket for every table on that axis, evaluating each table through
//! [`Bracket::bilinear`], the primitive [`varitune_liberty::Lut::interpolate`]
//! is built on. A packed evaluation therefore returns the bits, and the
//! errors, of [`TimingArc::worst_delay`] and [`TimingArc::worst_transition`].

use std::collections::HashMap;

use varitune_liberty::{Bracket, InterpolateError, Lut, TimingArc};

/// One packed table: its axes by pool id and its values at
/// `vals[off..off + rows * cols]`, row-major. `cols == 0` marks a table
/// that is present but empty, which fails like [`Lut::interpolate`] when
/// evaluated.
#[derive(Clone, Copy)]
struct Table {
    slew: u32,
    load: u32,
    off: u32,
    cols: u32,
}

impl Table {
    const EMPTY: Table = Table {
        slew: 0,
        load: 0,
        off: 0,
        cols: 0,
    };
}

/// The present tables of one kind (delay or transition), in the order
/// [`TimingArc::delay_tables`] and [`TimingArc::transition_tables`] yield
/// them.
#[derive(Clone, Copy)]
struct TableSet {
    len: u32,
    tables: [Table; 2],
}

impl TableSet {
    fn tables(&self) -> &[Table] {
        &self.tables[..self.len as usize]
    }
}

#[derive(Clone, Copy)]
struct PackedArc {
    delay: TableSet,
    transition: TableSet,
}

/// A query coordinate and its bracket on the axis it was last bracketed
/// on. Each table evaluated through a probe re-brackets only when its
/// axis id differs from the last one, so a coordinate shared by tables
/// on one axis is bracketed once.
#[derive(Clone, Copy)]
pub(crate) struct Probe {
    x: f64,
    axis: u32,
    at: Bracket,
}

impl Probe {
    pub(crate) fn new(x: f64) -> Self {
        Self {
            x,
            axis: u32::MAX,
            at: Bracket {
                lo: 0,
                hi: 0,
                t: 0.0,
            },
        }
    }
}

/// Every timing arc a graph evaluates, packed once by address.
#[derive(Default)]
pub(crate) struct ArcArena<'l> {
    /// Axis pool: distinct axes by value.
    axes: Vec<Vec<f64>>,
    /// Pool id of each axis, keyed by its bits.
    axis_ids: HashMap<Vec<u64>, u32>,
    /// Table values, each arc's tables in one block.
    vals: Vec<f64>,
    packed: Vec<PackedArc>,
    /// The library arc behind each id.
    sources: Vec<&'l TimingArc>,
    /// Arena id of each packed arc, keyed by its address.
    ids: HashMap<usize, u32>,
}

impl<'l> ArcArena<'l> {
    /// The arena id of `arc`, packing it on first sight.
    ///
    /// # Errors
    ///
    /// [`InterpolateError::ShapeMismatch`] if a non-empty table's body does
    /// not fit its axes; nothing is packed then. Empty and missing tables
    /// pack and fail only when evaluated, as [`TimingArc::worst_delay`]
    /// does.
    pub(crate) fn intern(&mut self, arc: &'l TimingArc) -> Result<u32, InterpolateError> {
        let key = std::ptr::from_ref(arc) as usize;
        if let Some(&id) = self.ids.get(&key) {
            return Ok(id);
        }
        if let Some(lut) = arc.all_tables().find(|t| !is_empty(t) && !t.fits_axes()) {
            return Err(InterpolateError::ShapeMismatch {
                rows: lut.rows(),
                cols: lut.cols(),
            });
        }
        let packed = PackedArc {
            delay: self.pack_set(arc.delay_tables()),
            transition: self.pack_set(arc.transition_tables()),
        };
        let id = self.packed.len() as u32;
        self.packed.push(packed);
        self.sources.push(arc);
        self.ids.insert(key, id);
        Ok(id)
    }

    /// Number of arcs packed.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.packed.len()
    }

    /// The library arc packed as `id`.
    pub(crate) fn source(&self, id: u32) -> &'l TimingArc {
        self.sources[id as usize]
    }

    /// Worst (maximum) delay of arc `id` at the probed point, with the
    /// bits and errors of [`TimingArc::worst_delay`].
    #[inline]
    pub(crate) fn delay(
        &self,
        id: u32,
        slew: &mut Probe,
        load: &mut Probe,
    ) -> Result<f64, InterpolateError> {
        self.worst(&self.packed[id as usize].delay, slew, load)
    }

    /// Worst (maximum) output transition of arc `id` at the probed point,
    /// with the bits and errors of [`TimingArc::worst_transition`].
    #[inline]
    pub(crate) fn transition(
        &self,
        id: u32,
        slew: &mut Probe,
        load: &mut Probe,
    ) -> Result<f64, InterpolateError> {
        self.worst(&self.packed[id as usize].transition, slew, load)
    }

    /// The fold of [`TimingArc::worst_delay`] over packed tables; each
    /// table fails as [`Lut::interpolate`] would, in the same order
    /// (empty, then slew, then load).
    #[inline]
    fn worst(
        &self,
        set: &TableSet,
        slew: &mut Probe,
        load: &mut Probe,
    ) -> Result<f64, InterpolateError> {
        let mut worst: Option<f64> = None;
        for t in set.tables() {
            if t.cols == 0 {
                return Err(InterpolateError::EmptyTable);
            }
            let s = self.bracket(slew, t.slew)?;
            let l = self.bracket(load, t.load)?;
            let (base, cols) = (t.off as usize, t.cols as usize);
            let v = Bracket::bilinear(s, l, |i, j| self.vals[base + i * cols + j]);
            worst = Some(worst.map_or(v, |w| w.max(v)));
        }
        worst.ok_or(InterpolateError::EmptyTable)
    }

    #[inline]
    fn bracket(&self, probe: &mut Probe, axis: u32) -> Result<Bracket, InterpolateError> {
        if !probe.x.is_finite() {
            return Err(InterpolateError::NonFiniteQuery { value: probe.x });
        }
        if probe.axis != axis {
            probe.at = Bracket::on(&self.axes[axis as usize], probe.x);
            probe.axis = axis;
        }
        Ok(probe.at)
    }

    fn pack_set<'a>(&mut self, luts: impl Iterator<Item = &'a Lut>) -> TableSet {
        let mut set = TableSet {
            len: 0,
            tables: [Table::EMPTY; 2],
        };
        for lut in luts {
            set.tables[set.len as usize] = self.pack_table(lut);
            set.len += 1;
        }
        set
    }

    /// Packs one table whose body fits its axes (checked by the caller).
    fn pack_table(&mut self, lut: &Lut) -> Table {
        if is_empty(lut) {
            return Table::EMPTY;
        }
        let off = self.vals.len() as u32;
        for row in &lut.values {
            self.vals.extend_from_slice(row);
        }
        Table {
            slew: self.axis_id(&lut.index_slew),
            load: self.axis_id(&lut.index_load),
            off,
            cols: lut.cols() as u32,
        }
    }

    fn axis_id(&mut self, axis: &[f64]) -> u32 {
        let bits: Vec<u64> = axis.iter().map(|v| v.to_bits()).collect();
        *self.axis_ids.entry(bits).or_insert_with(|| {
            self.axes.push(axis.to_vec());
            (self.axes.len() - 1) as u32
        })
    }
}

fn is_empty(lut: &Lut) -> bool {
    lut.rows() == 0 || lut.cols() == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use varitune_libchar::{generate_nominal, GenerateConfig, StatLibrary};
    use varitune_liberty::Library;
    use varitune_variation::Xoshiro256PlusPlus;

    /// Compares two results bit for bit, NaN payloads and error values
    /// included.
    fn same(a: &Result<f64, InterpolateError>, b: &Result<f64, InterpolateError>) -> bool {
        match (a, b) {
            (Ok(x), Ok(y)) => x.to_bits() == y.to_bits(),
            (
                Err(InterpolateError::NonFiniteQuery { value: x }),
                Err(InterpolateError::NonFiniteQuery { value: y }),
            ) => x.to_bits() == y.to_bits(),
            (Err(x), Err(y)) => x == y,
            _ => false,
        }
    }

    /// Query points for one arc: every grid point, seeded random points
    /// inside and beyond the grid, and each non-finite coordinate.
    fn points(arc: &TimingArc, rng: &mut Xoshiro256PlusPlus) -> Vec<(f64, f64)> {
        let Some(lut) = arc.all_tables().find(|t| !is_empty(t)) else {
            return vec![(0.1, 0.01), (f64::NAN, 0.01)];
        };
        let (slews, loads) = (&lut.index_slew, &lut.index_load);
        let mut pts = Vec::new();
        for &s in slews {
            for &l in loads {
                pts.push((s, l));
            }
        }
        let span = |axis: &[f64], u: f64| {
            let (lo, hi) = (axis[0], axis[axis.len() - 1]);
            lo - 0.5 * (hi - lo + 1.0) + u * 2.0 * (hi - lo + 1.0)
        };
        for _ in 0..64 {
            pts.push((span(slews, rng.next_f64()), span(loads, rng.next_f64())));
        }
        let (s_in, l_in) = (slews[0], loads[0]);
        pts.push((slews[0] - 1.0, loads[loads.len() - 1] + 1.0));
        pts.push((slews[slews.len() - 1] + 1.0, loads[0] - 1.0));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            pts.extend([(bad, l_in), (s_in, bad), (bad, bad)]);
        }
        pts
    }

    /// Packs every arc of `lib` into one arena and checks each packed
    /// evaluation against the library arc, at points taken from the first
    /// arc of each pin. As in the engine, the arcs of one pin share a load
    /// probe and each evaluates delay and transition through one slew
    /// probe.
    fn assert_lib_matches(lib: &Library, seed: u64) -> usize {
        let mut arena = ArcArena::default();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let mut checked = 0;
        for pin in lib.cells.iter().flat_map(|c| &c.pins) {
            let Some(first) = pin.timing.first() else {
                continue;
            };
            let ids: Vec<u32> = pin
                .timing
                .iter()
                .map(|arc| arena.intern(arc).expect("generated tables fit their axes"))
                .collect();
            for (arc, &id) in pin.timing.iter().zip(&ids) {
                assert_eq!(arena.intern(arc), Ok(id), "an arc packs once");
                assert!(std::ptr::eq(arena.source(id), arc));
            }
            for (slew, load) in points(first, &mut rng) {
                let mut l = Probe::new(load);
                for (arc, &id) in pin.timing.iter().zip(&ids) {
                    assert_arc_matches(&arena, id, arc, slew, &mut l);
                    checked += 1;
                }
            }
        }
        checked
    }

    fn assert_arc_matches(
        arena: &ArcArena<'_>,
        id: u32,
        arc: &TimingArc,
        slew: f64,
        l: &mut Probe,
    ) {
        let load = l.x;
        let mut s = Probe::new(slew);
        let delay = arena.delay(id, &mut s, l);
        let transition = arena.transition(id, &mut s, l);
        let (want_d, want_t) = (
            arc.worst_delay(slew, load),
            arc.worst_transition(slew, load),
        );
        assert!(
            same(&delay, &want_d),
            "delay at ({slew}, {load}): {delay:?} vs {want_d:?}"
        );
        assert!(
            same(&transition, &want_t),
            "transition at ({slew}, {load}): {transition:?} vs {want_t:?}"
        );
    }

    #[test]
    fn packed_arcs_match_the_library_on_the_full_nominal_library() {
        let lib = generate_nominal(&GenerateConfig::full());
        assert!(assert_lib_matches(&lib, 0xA2C5) > 100_000);
    }

    #[test]
    fn packed_arcs_match_the_library_on_a_statistical_mean_library() {
        // The mean library a small flow times against: `Flow::prepare`
        // characterizes it from 20 MC libraries of the full template.
        let cfg = GenerateConfig::full();
        let nominal = generate_nominal(&cfg);
        let stat = StatLibrary::try_from_monte_carlo(&nominal, &cfg, 20, 7, 1, true)
            .expect("characterization");
        assert!(assert_lib_matches(&stat.mean, 0x57A7) > 100_000);
    }

    fn lut(slews: &[f64], loads: &[f64], scale: f64) -> Lut {
        let values = slews
            .iter()
            .map(|s| {
                loads
                    .iter()
                    .map(|l| scale * (1.0 + s + 3.0 * l + s * l))
                    .collect()
            })
            .collect();
        Lut::new(slews.to_vec(), loads.to_vec(), values)
    }

    #[test]
    fn hand_built_arcs_match_the_library() {
        let (s, l) = ([0.01, 0.1, 0.4], [0.001, 0.01, 0.05, 0.2]);
        let other_load = [0.002, 0.03];
        let mut rise_only = TimingArc::new("A");
        rise_only.cell_rise = Some(lut(&s, &l, 1.0));
        rise_only.rise_transition = Some(lut(&s, &l, 0.5));
        let mut fall_only = TimingArc::new("A");
        fall_only.cell_fall = Some(lut(&s, &l, 1.2));
        fall_only.fall_transition = Some(lut(&s, &l, 0.7));
        // Transition tables on another load axis: the load probe must
        // re-bracket between the delay and the transition tables.
        let mut mixed = TimingArc::new("A");
        mixed.cell_rise = Some(lut(&s, &l, 1.0));
        mixed.cell_fall = Some(lut(&s, &other_load, 1.1));
        mixed.rise_transition = Some(lut(&s, &other_load, 0.4));
        mixed.fall_transition = Some(lut(&[0.05], &l, 0.6));
        // One-point axes.
        let mut point = TimingArc::new("A");
        point.cell_rise = Some(lut(&[0.1], &[0.01], 1.0));
        point.cell_fall = Some(lut(&[0.1], &l, 1.0));
        point.rise_transition = Some(lut(&s, &[0.01], 1.0));
        // No tables at all, and present-but-empty tables.
        let bare = TimingArc::new("A");
        let mut empty = TimingArc::new("A");
        empty.cell_rise = Some(Lut::new(vec![], vec![], vec![]));
        empty.cell_fall = Some(lut(&s, &l, 1.0));
        empty.rise_transition = Some(lut(&s, &l, 1.0));
        empty.fall_transition = Some(Lut::new(vec![0.1], vec![], vec![vec![]]));
        let arcs = [rise_only, fall_only, mixed, point, bare, empty];

        let mut arena = ArcArena::default();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0x4A2D);
        for arc in &arcs {
            let id = arena.intern(arc).unwrap();
            let mut pts = points(arc, &mut rng);
            pts.extend([(0.05, 0.0011), (0.4, 0.01), (1.0, 1.0), (0.0, 0.0)]);
            pts.extend([(f64::NAN, f64::INFINITY), (0.05, f64::NEG_INFINITY)]);
            for (slew, load) in pts {
                assert_arc_matches(&arena, id, arc, slew, &mut Probe::new(load));
            }
        }
        // Axes are pooled by value (`s`, `l`, `other_load`, `[0.05]`,
        // `[0.1]`, `[0.01]`); empty tables pack none.
        assert_eq!(arena.axes.len(), 6);
    }

    #[test]
    fn a_table_that_does_not_fit_its_axes_is_refused_and_nothing_packs() {
        let mut arc = TimingArc::new("A");
        arc.cell_rise = Some(lut(&[0.01, 0.1], &[0.001, 0.01], 1.0));
        let mut bad = lut(&[0.01, 0.1, 0.4], &[0.001, 0.01], 1.0);
        bad.values = vec![vec![0.1]];
        arc.rise_transition = Some(bad);
        let mut arena = ArcArena::default();
        assert_eq!(
            arena.intern(&arc),
            Err(InterpolateError::ShapeMismatch { rows: 3, cols: 2 })
        );
        assert!(arena.packed.is_empty() && arena.vals.is_empty() && arena.axes.is_empty());
    }
}
