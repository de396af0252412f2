//! Typed identifiers and the library interner.
//!
//! Every downstream subsystem (statistical characterization, tuning,
//! exclusion, technology mapping, timing) used to key its hot loops by cell
//! *name*. The [`Interner`] replaces that with dense typed ids minted once
//! per [`Library`](crate::Library) snapshot:
//!
//! * [`CellId`] — index of a cell in `Library::cells`. Ids are positional,
//!   so structurally identical libraries (nominal, every Monte-Carlo
//!   perturbation, the statistical mean/sigma pair) intern the same cell to
//!   the same id and ids can travel between them.
//! * [`PinId`] — a library-wide dense pin index (cells' pins concatenated
//!   in declaration order), resolvable back to `(CellId, pin position)`.
//! * [`FamilyId`] — a drive-strength family: all cells sharing the name
//!   prefix before the last `_` (e.g. `INV_1` … `INV_32`), members sorted
//!   by drive strength.
//! * [`LibraryFingerprint`] — a hash of the cell names and pin layout in
//!   order: two libraries with equal fingerprints give every id the same
//!   meaning, so a design's ids can be checked against the library it is
//!   handed.
//!
//! Strings appear only at the boundaries: parsing mints the names, reports
//! materialize them back via the library. Everything in between moves
//! `u32`s.

use std::collections::{BTreeMap, HashMap};

use crate::model::Cell;

/// Dense id of a cell: its index in `Library::cells`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub u32);

impl CellId {
    /// The id as a `Vec` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Dense library-wide pin id (cells' pins concatenated in declaration
/// order). Resolve with [`Interner::pin_of`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PinId(pub u32);

impl PinId {
    /// The id as a `Vec` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Dense id of a drive-strength family (cells sharing the prefix before the
/// last `_`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FamilyId(pub u32);

impl FamilyId {
    /// The id as a `Vec` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Structural fingerprint of a cell list: FNV-1a over every cell's name
/// and its pins' names, directions and clock flags, in order. Table values
/// do not enter it, so a nominal library, its Monte-Carlo perturbations and
/// the statistical mean/sigma pair share one fingerprint, while a copy with
/// a cell removed, added or moved gets another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LibraryFingerprint(pub u64);

impl LibraryFingerprint {
    fn of(cells: &[Cell]) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for c in cells {
            eat(&(c.name.len() as u64).to_le_bytes());
            eat(c.name.as_bytes());
            eat(&(c.pins.len() as u64).to_le_bytes());
            for p in &c.pins {
                eat(&(p.name.len() as u64).to_le_bytes());
                eat(p.name.as_bytes());
                eat(&[p.direction as u8, u8::from(p.is_clock)]);
            }
        }
        Self(h)
    }
}

/// One drive-strength family: name prefix plus members in ascending drive
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct Family {
    /// Family name (the cell-name prefix before the last `_`).
    pub name: String,
    /// Member cells, sorted by ascending drive strength (ties by name).
    pub members: Vec<CellId>,
}

/// Name→id registry built once per library snapshot.
///
/// The interner is a *cache over* `Library::cells`, not part of the
/// library's value: it is built lazily on first use and reflects the cells
/// at that moment. Name lookups through
/// [`Library::cell_index`](crate::Library::cell_index) stay correct after
/// mutation (verified hit + linear fallback); the family and pin tables
/// are snapshots and should
/// only be consumed once a library is finalized.
#[derive(Debug)]
pub struct Interner {
    by_name: HashMap<String, CellId>,
    families: Vec<Family>,
    family_by_name: HashMap<String, FamilyId>,
    family_of: Vec<Option<FamilyId>>,
    pin_offsets: Vec<u32>,
    fingerprint: LibraryFingerprint,
}

impl Interner {
    /// Builds the registry from a cell list.
    pub fn build(cells: &[Cell]) -> Self {
        let by_name: HashMap<String, CellId> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name.clone(), CellId(i as u32)))
            .collect();

        // Families in name order (deterministic), members in drive order.
        let mut grouped: BTreeMap<&str, Vec<CellId>> = BTreeMap::new();
        for (i, c) in cells.iter().enumerate() {
            if let Some((prefix, _)) = c.name.rsplit_once('_') {
                grouped.entry(prefix).or_default().push(CellId(i as u32));
            }
        }
        let mut families = Vec::with_capacity(grouped.len());
        let mut family_by_name = HashMap::with_capacity(grouped.len());
        let mut family_of = vec![None; cells.len()];
        for (name, mut members) in grouped {
            members.sort_by(|&a, &b| {
                let da = cells[a.index()].drive_strength().unwrap_or(0.0);
                let db = cells[b.index()].drive_strength().unwrap_or(0.0);
                da.total_cmp(&db)
                    .then_with(|| cells[a.index()].name.cmp(&cells[b.index()].name))
            });
            let fid = FamilyId(families.len() as u32);
            for &m in &members {
                family_of[m.index()] = Some(fid);
            }
            family_by_name.insert(name.to_string(), fid);
            families.push(Family {
                name: name.to_string(),
                members,
            });
        }

        let mut pin_offsets = Vec::with_capacity(cells.len() + 1);
        let mut off = 0u32;
        for c in cells {
            pin_offsets.push(off);
            off += c.pins.len() as u32;
        }
        pin_offsets.push(off);

        Self {
            by_name,
            families,
            family_by_name,
            family_of,
            pin_offsets,
            fingerprint: LibraryFingerprint::of(cells),
        }
    }

    /// The structural fingerprint of the interned cell list: a design
    /// mapped on one library indexes another the same way exactly when
    /// their fingerprints are equal.
    pub fn fingerprint(&self) -> LibraryFingerprint {
        self.fingerprint
    }

    /// Number of interned cells.
    pub fn cell_count(&self) -> usize {
        self.family_of.len()
    }

    /// The id of the cell named `name` at snapshot time.
    pub fn cell_id(&self, name: &str) -> Option<CellId> {
        self.by_name.get(name).copied()
    }

    /// All families, in name order.
    pub fn families(&self) -> &[Family] {
        &self.families
    }

    /// One family.
    pub fn family(&self, id: FamilyId) -> &Family {
        &self.families[id.index()]
    }

    /// The id of the family named `name` (cell-name prefix).
    pub fn family_id(&self, name: &str) -> Option<FamilyId> {
        self.family_by_name.get(name).copied()
    }

    /// The family of a cell (`None` for cells without a `_` suffix).
    pub fn family_of(&self, cell: CellId) -> Option<FamilyId> {
        self.family_of.get(cell.index()).copied().flatten()
    }

    /// The dense pin id of pin position `pin` of `cell`.
    pub fn pin_id(&self, cell: CellId, pin: usize) -> PinId {
        PinId(self.pin_offsets[cell.index()] + pin as u32)
    }

    /// Resolves a pin id back to `(cell, pin position)`.
    pub fn pin_of(&self, pin: PinId) -> (CellId, usize) {
        let ci = match self.pin_offsets.binary_search(&pin.0) {
            Ok(mut i) => {
                // Cells without pins share an offset; take the last cell
                // starting at this offset that actually has pins.
                while i + 1 < self.pin_offsets.len() - 1 && self.pin_offsets[i + 1] == pin.0 {
                    i += 1;
                }
                i
            }
            Err(i) => i - 1,
        };
        (CellId(ci as u32), (pin.0 - self.pin_offsets[ci]) as usize)
    }

    /// Total number of interned pins.
    pub fn pin_count(&self) -> usize {
        *self.pin_offsets.last().unwrap_or(&0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Library, Pin};

    fn lib() -> Library {
        let mut lib = Library::new("t");
        for (name, pins) in [
            ("INV_1", 2),
            ("INV_8", 2),
            ("INV_1P5", 2),
            ("ND2_1", 3),
            ("TIE0", 1),
        ] {
            let mut c = Cell::new(name, 1.0);
            for k in 0..pins {
                c.pins.push(Pin::input(format!("P{k}"), 0.001));
            }
            lib.cells.push(c);
        }
        lib
    }

    #[test]
    fn cell_ids_are_positions() {
        let lib = lib();
        let it = Interner::build(&lib.cells);
        assert_eq!(it.cell_id("INV_1"), Some(CellId(0)));
        assert_eq!(it.cell_id("ND2_1"), Some(CellId(3)));
        assert_eq!(it.cell_id("NOPE_1"), None);
        assert_eq!(it.cell_count(), 5);
    }

    #[test]
    fn families_sorted_by_drive() {
        let lib = lib();
        let it = Interner::build(&lib.cells);
        let inv = it.family_id("INV").unwrap();
        // 1 < 1.5 (the `P` decimal) < 8.
        assert_eq!(
            it.family(inv).members,
            vec![CellId(0), CellId(2), CellId(1)]
        );
        assert_eq!(it.family_of(CellId(1)), Some(inv));
        // `TIE0` has no `_`: no family.
        assert_eq!(it.family_of(CellId(4)), None);
        assert_eq!(it.families().len(), 2);
    }

    #[test]
    fn fingerprint_covers_names_and_pin_layout_not_values() {
        let base = lib();
        let fp = Interner::build(&base.cells).fingerprint();
        assert_eq!(Interner::build(&base.cells).fingerprint(), fp);

        // Values (area, capacitance) do not enter it.
        let mut values = base.clone();
        values.cells[0].area = 7.0;
        values.cells[0].pins[0].capacitance = 0.5;
        assert_eq!(Interner::build(&values.cells).fingerprint(), fp);

        // A dropped cell, a renamed pin, a flipped direction or clock flag
        // and a reordered cell list each change it.
        let mut dropped = base.clone();
        dropped.cells.remove(0);
        let mut pin_name = base.clone();
        pin_name.cells[1].pins[0].name = "Q".into();
        let mut direction = base.clone();
        direction.cells[1].pins[1].direction = crate::model::PinDirection::Output;
        let mut clock = base.clone();
        clock.cells[3].pins[2].is_clock = true;
        let mut order = base.clone();
        order.cells.swap(0, 1);
        for changed in [dropped, pin_name, direction, clock, order] {
            assert_ne!(Interner::build(&changed.cells).fingerprint(), fp);
        }
    }

    #[test]
    fn pin_ids_round_trip() {
        let lib = lib();
        let it = Interner::build(&lib.cells);
        assert_eq!(it.pin_count(), 2 + 2 + 2 + 3 + 1);
        for (ci, c) in lib.cells.iter().enumerate() {
            for pi in 0..c.pins.len() {
                let id = it.pin_id(CellId(ci as u32), pi);
                assert_eq!(it.pin_of(id), (CellId(ci as u32), pi));
            }
        }
    }
}
