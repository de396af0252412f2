//! Nominal library generation and Monte-Carlo characterization.
//!
//! [`generate_nominal`] characterizes every inventory cell over the §II
//! slew/load grid with the analytic model of [`crate::electrical`],
//! producing a normal Liberty [`Library`]. [`generate_mc_libraries`] then
//! produces `n` perturbed libraries: each draws one Pelgrom mismatch
//! deviate per cell (plus a small independent per-entry term) and scales
//! every LUT entry accordingly — the in-crate equivalent of re-running
//! SPICE characterization with perturbed transistor models, which is how
//! the paper builds its 50 statistical input libraries.

use varitune_liberty::{
    Cell, InternalPower, Library, Lut, Pin, PinDirection, TimingArc, TimingSense, TimingType,
};
use varitune_variation::parallel::run_trials;
use varitune_variation::rng::rng_from;
use varitune_variation::sampler::Xoshiro256PlusPlus;
use varitune_variation::PelgromModel;

use crate::arch::{Archetype, SequentialKind};
use crate::electrical::Technology;

/// Configuration of the library generator.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerateConfig {
    /// Library name (the paper's typical corner is `TT1P1V25C`).
    pub name: String,
    /// Technology constants.
    pub technology: Technology,
    /// Local-mismatch model for the MC characterization.
    pub pelgrom: PelgromModel,
    /// Cell inventory to characterize.
    pub inventory: Vec<Archetype>,
    /// Global delay factor baked into the library (1.0 for the typical
    /// corner; use [`varitune_variation::ProcessCorner::delay_factor`] to
    /// generate corner libraries).
    pub corner_factor: f64,
}

impl GenerateConfig {
    /// Full 304-cell library at the typical corner.
    pub fn full() -> Self {
        Self {
            name: "TT1P1V25C".to_string(),
            technology: Technology::new(),
            pelgrom: PelgromModel::new(),
            inventory: crate::arch::standard_inventory(),
            corner_factor: 1.0,
        }
    }

    /// Small inventory (a few families, few drives) for fast unit tests.
    pub fn small_for_tests() -> Self {
        let keep = ["INV", "ND2", "NR2", "MU2", "DF"];
        let inventory: Vec<Archetype> = crate::arch::standard_inventory()
            .into_iter()
            .filter(|a| keep.contains(&a.prefix.as_str()))
            .map(|mut a| {
                a.drives.retain(|d| [1.0, 2.0, 4.0, 8.0].contains(d));
                a
            })
            .collect();
        Self {
            name: "TT1P1V25C".to_string(),
            technology: Technology::new(),
            pelgrom: PelgromModel::new(),
            inventory,
            corner_factor: 1.0,
        }
    }
}

impl Default for GenerateConfig {
    fn default() -> Self {
        Self::full()
    }
}

/// Generates the nominal (unperturbed) library for `cfg`.
pub fn generate_nominal(cfg: &GenerateConfig) -> Library {
    let mut lib = Library::new(cfg.name.clone());
    for arch in &cfg.inventory {
        for &drive in &arch.drives {
            lib.cells.push(build_cell(cfg, arch, drive));
        }
    }
    lib
}

fn timing_sense_for(arch: &Archetype) -> TimingSense {
    match arch.prefix.as_str() {
        p if p.starts_with("INV") || p.starts_with("ND") || p.starts_with("NR") => {
            TimingSense::NegativeUnate
        }
        p if p.starts_with("XN")
            || p.starts_with("EO")
            || p.starts_with("MU")
            || p.starts_with("AD") =>
        {
            TimingSense::NonUnate
        }
        _ => TimingSense::PositiveUnate,
    }
}

fn build_cell(cfg: &GenerateConfig, arch: &Archetype, drive: f64) -> Cell {
    let tech = &cfg.technology;
    let mut cell = Cell::new(arch.cell_name(drive), arch.area(drive));
    cell.leakage_power = tech.leakage_power(arch, drive);

    for input in &arch.inputs {
        let mut pin = Pin::input(input.clone(), tech.input_cap(arch, drive));
        // Flip-flop data pins carry setup/hold constraint arcs against the
        // clock. The constraint tables are indexed (data slew, clock slew):
        // the Lut's load axis holds the clock slew for these arcs.
        if arch.sequential == SequentialKind::FlipFlop && input == "D" {
            // Every sequential archetype in `arch` declares its clock pin.
            #[allow(clippy::expect_used)]
            let clock = arch.clock.as_deref().expect("ff has clock");
            let data_axis = tech.slew_axis();
            let clock_axis = vec![0.01, 0.03, 0.08, 0.2];
            let mut setup = TimingArc::new(clock.to_string());
            setup.timing_type = TimingType::SetupRising;
            setup.cell_rise = Some(fill_lut(&data_axis, &clock_axis, &|ds, cs| {
                tech.setup_time(drive, ds, cs)
            }));
            setup.cell_fall = Some(fill_lut(&data_axis, &clock_axis, &|ds, cs| {
                1.05 * tech.setup_time(drive, ds, cs)
            }));
            let mut hold = TimingArc::new(clock.to_string());
            hold.timing_type = TimingType::HoldRising;
            hold.cell_rise = Some(fill_lut(&data_axis, &clock_axis, &|ds, cs| {
                tech.hold_time(drive, ds, cs)
            }));
            hold.cell_fall = Some(fill_lut(&data_axis, &clock_axis, &|ds, cs| {
                0.95 * tech.hold_time(drive, ds, cs)
            }));
            pin.timing.push(setup);
            pin.timing.push(hold);
        }
        cell.pins.push(pin);
    }
    if let Some(ck) = &arch.clock {
        // Clock pins present a lighter load than data pins.
        let mut pin = Pin::input(ck.clone(), 0.6 * tech.input_cap(arch, drive));
        pin.is_clock = true;
        cell.pins.push(pin);
    }

    let slew_axis = tech.slew_axis();
    let load_axis = tech.load_axis(drive);
    let sense = timing_sense_for(arch);

    for output in &arch.outputs {
        let mut pin = Pin::output(output.pin.clone(), output.function.clone());
        pin.max_capacitance = Some(tech.max_load(drive));
        // The technology's slew axis is a fixed non-empty constant.
        #[allow(clippy::expect_used)]
        let max_slew = *slew_axis.last().expect("non-empty slew axis");
        pin.max_transition = Some(max_slew);

        // Sequential cells time from the clock pin; combinational cells get
        // one arc per data input.
        let related: Vec<(&str, TimingType)> = match arch.sequential {
            SequentialKind::None => arch
                .inputs
                .iter()
                .map(|i| (i.as_str(), TimingType::Combinational))
                .collect(),
            // Every sequential archetype in `arch` declares its clock pin.
            #[allow(clippy::expect_used)]
            SequentialKind::FlipFlop => {
                vec![(
                    arch.clock.as_deref().expect("ff has clock"),
                    TimingType::RisingEdge,
                )]
            }
            #[allow(clippy::expect_used)]
            SequentialKind::Latch => {
                vec![(
                    arch.clock.as_deref().expect("latch has clock"),
                    TimingType::RisingEdge,
                )]
            }
        };

        for (arc_idx, (rel, ttype)) in related.iter().enumerate() {
            // Later inputs of a stack are slightly slower; this keeps the
            // per-arc tables distinct as in a real characterization.
            let arc_skew = 1.0 + 0.04 * arc_idx as f64;
            let delay_at = |slew: f64, load: f64| {
                cfg.corner_factor * arc_skew * tech.delay(arch, output, drive, slew, load)
            };
            let trans_at = |slew: f64, load: f64| {
                cfg.corner_factor * arc_skew * tech.transition(arch, output, drive, slew, load)
            };
            let mut arc = TimingArc::new(rel.to_string());
            arc.timing_sense = sense;
            arc.timing_type = *ttype;
            arc.cell_rise = Some(fill_lut(&slew_axis, &load_axis, &delay_at));
            arc.cell_fall = Some(fill_lut(&slew_axis, &load_axis, &|s, l| {
                0.95 * delay_at(s, l)
            }));
            arc.rise_transition = Some(fill_lut(&slew_axis, &load_axis, &trans_at));
            arc.fall_transition = Some(fill_lut(&slew_axis, &load_axis, &|s, l| {
                0.97 * trans_at(s, l)
            }));
            pin.timing.push(arc);

            // Internal power mirrors the timing arcs (one group per
            // related input, rise/fall energies per event).
            let energy_at = |slew: f64, load: f64| {
                cfg.corner_factor.sqrt()
                    * arc_skew
                    * tech.switching_energy(arch, output, drive, slew, load)
            };
            let mut power = InternalPower::new(rel.to_string());
            power.rise_power = Some(fill_lut(&slew_axis, &load_axis, &energy_at));
            power.fall_power = Some(fill_lut(&slew_axis, &load_axis, &|s, l| {
                0.92 * energy_at(s, l)
            }));
            pin.internal_power.push(power);
        }
        cell.pins.push(pin);
    }
    cell
}

fn fill_lut(slew_axis: &[f64], load_axis: &[f64], f: &dyn Fn(f64, f64) -> f64) -> Lut {
    let values = slew_axis
        .iter()
        .map(|&s| load_axis.iter().map(|&l| f(s, l)).collect())
        .collect();
    Lut::new(slew_axis.to_vec(), load_axis.to_vec(), values)
}

/// Generates `n` Monte-Carlo perturbed copies of `nominal`.
///
/// Each library perturbs every cell with one shared mismatch deviate (the
/// cell's transistors are perturbed together) plus a small independent
/// per-entry term, with total relative sigma given by the Pelgrom model at
/// each LUT entry's electrical stress. Deterministic in `seed`, and —
/// because library `k` draws only from its own derived stream
/// (`derive_seed(seed, "mc-lib", k)`) — **bit-identical for any thread
/// count**. This entry point uses every available core; see
/// [`generate_mc_libraries_threaded`] for an explicit knob. `n == 0`
/// yields no library, which [`crate::StatLibrary::from_libraries`] reports
/// as [`crate::BuildStatError::Empty`].
pub fn generate_mc_libraries(
    nominal: &Library,
    cfg: &GenerateConfig,
    n: usize,
    seed: u64,
) -> Vec<Library> {
    generate_mc_libraries_threaded(nominal, cfg, n, seed, 0)
}

/// [`generate_mc_libraries`] with an explicit worker-thread count
/// (`0` = all available cores, `1` = fully sequential). Characterization MC
/// is the slowest stage of the flow; it parallelizes embarrassingly because
/// each perturbed library is one independent trial.
pub fn generate_mc_libraries_threaded(
    nominal: &Library,
    cfg: &GenerateConfig,
    n: usize,
    seed: u64,
    threads: usize,
) -> Vec<Library> {
    run_trials(n, threads, |k| {
        perturb_library(nominal, cfg, rng_from(seed, "mc-lib", k as u64))
    })
}

/// Correlated share of the per-entry perturbation: most of the mismatch is
/// common to the whole cell, a small residue is per-entry characterization
/// noise. The two shares are chosen so total variance stays `rel_sigma²`.
const CELL_SHARE: f64 = 0.95;

fn perturb_library(
    nominal: &Library,
    cfg: &GenerateConfig,
    mut rng: Xoshiro256PlusPlus,
) -> Library {
    let entry_share = (1.0 - CELL_SHARE * CELL_SHARE).sqrt();
    let mut lib = nominal.clone();
    lib.name = format!("{}_mc", nominal.name);
    // Per-cell cache of the relative-sigma surface: every output-pin table
    // of one cell shares the characterization axes, so the Pelgrom model
    // (with its `powf`) is evaluated once per cell rather than once per
    // table entry. The axis guard keeps the cache exact should a cell ever
    // carry mixed table shapes. The RNG draw order is part of this crate's
    // determinism contract: one `z_cell` per cell, then per table one
    // Box–Muller *pair* per two entries in row-major order (an odd last
    // entry discards the pair's second deviate). `perturb_into_column`
    // replays exactly this sequence.
    let mut rel_slews: Vec<f64> = Vec::new();
    let mut rel_loads: Vec<f64> = Vec::new();
    let mut rel: Vec<f64> = Vec::new();
    for cell in &mut lib.cells {
        let drive = cell.drive_strength().unwrap_or(1.0);
        let z_cell: f64 = rng.standard_normal();
        let common = CELL_SHARE * z_cell;
        rel_slews.clear();
        rel_loads.clear(); // `rel` depends on drive: invalidate across cells
        for pin in cell.output_pins_mut() {
            // Timing and power tables perturb alike (the §III remark that
            // the method extends to transition power relies on power
            // mismatch being tabulated the same way).
            let timing_tables = pin.timing.iter_mut().flat_map(TimingArc::all_tables_mut);
            let power_tables = pin
                .internal_power
                .iter_mut()
                .flat_map(InternalPower::tables_mut);
            for lut in timing_tables.chain(power_tables) {
                let Lut {
                    index_slew,
                    index_load,
                    values,
                } = lut;
                if rel_slews != *index_slew || rel_loads != *index_load {
                    rel_slews.clone_from(index_slew);
                    rel_loads.clone_from(index_load);
                    rel.clear();
                    rel.reserve(index_slew.len() * index_load.len());
                    for &s in index_slew.iter() {
                        for &l in index_load.iter() {
                            let stress = cfg.technology.stress(drive, s, l);
                            rel.push(cfg.pelgrom.relative_sigma(drive, stress));
                        }
                    }
                }
                let mut r = 0;
                let mut stash: Option<f64> = None;
                for row in values.iter_mut() {
                    for v in row.iter_mut() {
                        let z_entry = match stash.take() {
                            Some(z) => z,
                            None => {
                                let (a, b) = rng.standard_normal_pair();
                                stash = Some(b);
                                a
                            }
                        };
                        let factor = 1.0 + rel[r] * (common + entry_share * z_entry);
                        *v *= factor.max(0.05);
                        r += 1;
                    }
                }
            }
        }
    }
    lib
}

/// Streams the LUT values of one perturbed library directly into a flat
/// column, in the canonical structure order of the statistical merge
/// (cells → pins → timing arcs × table kinds → power groups × rise/fall),
/// without materializing a `Library`.
///
/// The RNG draw sequence and every floating-point operation match
/// [`perturb_library`] exactly — input-pin tables (flip-flop setup/hold
/// constraints) are not perturbed there, so here they contribute their
/// nominal values and consume no draws — making the column bit-identical
/// to gathering a materialized perturbed library.
pub(crate) fn perturb_into_column(
    nominal: &Library,
    cfg: &GenerateConfig,
    mut rng: Xoshiro256PlusPlus,
    column: &mut Vec<f64>,
) {
    let entry_share = (1.0 - CELL_SHARE * CELL_SHARE).sqrt();
    column.clear();
    let mut rel_slews: Vec<f64> = Vec::new();
    let mut rel_loads: Vec<f64> = Vec::new();
    let mut rel: Vec<f64> = Vec::new();
    for cell in &nominal.cells {
        let drive = cell.drive_strength().unwrap_or(1.0);
        let z_cell: f64 = rng.standard_normal();
        let common = CELL_SHARE * z_cell;
        rel_slews.clear();
        rel_loads.clear();
        for pin in &cell.pins {
            if pin.direction != PinDirection::Output {
                for lut in pin
                    .timing
                    .iter()
                    .flat_map(TimingArc::all_tables)
                    .chain(pin.internal_power.iter().flat_map(InternalPower::tables))
                {
                    for row in &lut.values {
                        column.extend_from_slice(row);
                    }
                }
                continue;
            }
            let timing_tables = pin.timing.iter().flat_map(TimingArc::all_tables);
            let power_tables = pin.internal_power.iter().flat_map(InternalPower::tables);
            for lut in timing_tables.chain(power_tables) {
                if rel_slews != lut.index_slew || rel_loads != lut.index_load {
                    rel_slews.clone_from(&lut.index_slew);
                    rel_loads.clone_from(&lut.index_load);
                    rel.clear();
                    rel.reserve(lut.index_slew.len() * lut.index_load.len());
                    for &s in lut.index_slew.iter() {
                        for &l in lut.index_load.iter() {
                            let stress = cfg.technology.stress(drive, s, l);
                            rel.push(cfg.pelgrom.relative_sigma(drive, stress));
                        }
                    }
                }
                let mut r = 0;
                let mut stash: Option<f64> = None;
                for row in &lut.values {
                    for &v in row {
                        let z_entry = match stash.take() {
                            Some(z) => z,
                            None => {
                                let (a, b) = rng.standard_normal_pair();
                                stash = Some(b);
                                a
                            }
                        };
                        let factor = 1.0 + rel[r] * (common + entry_share * z_entry);
                        column.push(v * factor.max(0.05));
                        r += 1;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use varitune_liberty::CellKind;
    use varitune_variation::stats::Accumulator;

    #[test]
    fn full_library_has_304_cells() {
        let lib = generate_nominal(&GenerateConfig::full());
        assert_eq!(lib.cells.len(), 304);
    }

    #[test]
    fn census_matches_appendix_a_via_cellkind() {
        let lib = generate_nominal(&GenerateConfig::full());
        let count = |k: CellKind| lib.cells.iter().filter(|c| c.kind() == k).count();
        assert_eq!(count(CellKind::Inverter), 19);
        assert_eq!(count(CellKind::Or), 36);
        assert_eq!(count(CellKind::Nand), 46);
        assert_eq!(count(CellKind::Nor), 43);
        assert_eq!(count(CellKind::Xnor), 29);
        assert_eq!(count(CellKind::Adder), 34);
        assert_eq!(count(CellKind::Mux), 27);
        assert_eq!(count(CellKind::FlipFlop), 51);
        assert_eq!(count(CellKind::Latch), 12);
        assert_eq!(count(CellKind::Other), 7);
    }

    #[test]
    fn every_output_pin_has_delay_and_transition_tables() {
        let lib = generate_nominal(&GenerateConfig::small_for_tests());
        for cell in &lib.cells {
            for pin in cell.output_pins() {
                assert!(!pin.timing.is_empty(), "{} {}", cell.name, pin.name);
                for arc in &pin.timing {
                    assert!(arc.cell_rise.is_some());
                    assert!(arc.cell_fall.is_some());
                    assert!(arc.rise_transition.is_some());
                    assert!(arc.fall_transition.is_some());
                }
            }
        }
    }

    #[test]
    fn flip_flops_time_from_clock() {
        let lib = generate_nominal(&GenerateConfig::small_for_tests());
        let ff = lib.cell("DF_1").unwrap();
        let q = ff.pin("Q").unwrap();
        assert_eq!(q.timing.len(), 1);
        assert_eq!(q.timing[0].related_pin, "CK");
        assert_eq!(q.timing[0].timing_type, TimingType::RisingEdge);
        assert!(ff.pin("CK").unwrap().is_clock);
    }

    #[test]
    fn combinational_cells_have_one_arc_per_input() {
        let lib = generate_nominal(&GenerateConfig::small_for_tests());
        let nd2 = lib.cell("ND2_2").unwrap();
        let z = nd2.pin("Z").unwrap();
        assert_eq!(z.timing.len(), 2);
        let related: Vec<_> = z.timing.iter().map(|a| a.related_pin.as_str()).collect();
        assert_eq!(related, vec!["A", "B"]);
    }

    #[test]
    fn luts_grow_along_load_and_slew() {
        let lib = generate_nominal(&GenerateConfig::small_for_tests());
        let lut = lib.cell("INV_1").unwrap().pin("Z").unwrap().timing[0]
            .cell_rise
            .as_ref()
            .unwrap();
        for i in 0..lut.rows() {
            for j in 1..lut.cols() {
                assert!(lut.at(i, j) > lut.at(i, j - 1));
            }
        }
        for j in 0..lut.cols() {
            for i in 1..lut.rows() {
                assert!(lut.at(i, j) > lut.at(i - 1, j));
            }
        }
    }

    #[test]
    fn generated_library_round_trips_through_liberty_text() {
        let lib = generate_nominal(&GenerateConfig::small_for_tests());
        let text = varitune_liberty::write_library(&lib).unwrap();
        let parsed = varitune_liberty::parse_library(&text).unwrap();
        assert_eq!(parsed, lib);
    }

    #[test]
    fn corner_factor_scales_all_delays() {
        let typ = generate_nominal(&GenerateConfig::small_for_tests());
        let slow_cfg = GenerateConfig {
            corner_factor: 1.25,
            ..GenerateConfig::small_for_tests()
        };
        let slow = generate_nominal(&slow_cfg);
        let t = typ.cell("INV_1").unwrap().pin("Z").unwrap().timing[0]
            .cell_rise
            .as_ref()
            .unwrap()
            .at(0, 0);
        let s = slow.cell("INV_1").unwrap().pin("Z").unwrap().timing[0]
            .cell_rise
            .as_ref()
            .unwrap()
            .at(0, 0);
        assert!((s / t - 1.25).abs() < 1e-9);
    }

    #[test]
    fn power_tables_and_leakage_are_generated() {
        let lib = generate_nominal(&GenerateConfig::small_for_tests());
        for cell in &lib.cells {
            assert!(cell.leakage_power > 0.0, "{}", cell.name);
            for pin in cell.output_pins() {
                assert_eq!(
                    pin.internal_power.len(),
                    pin.timing.len(),
                    "{}: one power group per arc",
                    cell.name
                );
                for g in &pin.internal_power {
                    let rp = g.rise_power.as_ref().expect("rise power present");
                    assert!(rp.min_value().expect("non-empty") > 0.0);
                }
            }
        }
        // Bigger drives burn more: both leakage and per-event energy.
        let e = |name: &str| {
            lib.cell(name).unwrap().pin("Z").unwrap().internal_power[0]
                .rise_power
                .as_ref()
                .unwrap()
                .at(3, 3)
        };
        assert!(e("INV_8") > e("INV_1"));
        assert!(
            lib.cell("INV_8").unwrap().leakage_power > lib.cell("INV_1").unwrap().leakage_power
        );
    }

    #[test]
    fn power_round_trips_through_liberty() {
        let lib = generate_nominal(&GenerateConfig::small_for_tests());
        let parsed =
            varitune_liberty::parse_library(&varitune_liberty::write_library(&lib).unwrap())
                .unwrap();
        assert_eq!(parsed, lib);
    }

    #[test]
    fn mc_libraries_are_deterministic_and_distinct() {
        let cfg = GenerateConfig::small_for_tests();
        let nominal = generate_nominal(&cfg);
        let a = generate_mc_libraries(&nominal, &cfg, 3, 7);
        let b = generate_mc_libraries(&nominal, &cfg, 3, 7);
        assert_eq!(a, b);
        assert_ne!(a[0], a[1]);
        assert_ne!(a[0], nominal.clone());
    }

    #[test]
    fn mc_libraries_bit_identical_across_thread_counts() {
        // The tentpole guarantee applied to characterization MC: each
        // library draws only from its own derived stream, so chunking
        // across threads cannot change a single bit.
        let cfg = GenerateConfig::small_for_tests();
        let nominal = generate_nominal(&cfg);
        let one = generate_mc_libraries_threaded(&nominal, &cfg, 6, 13, 1);
        let two = generate_mc_libraries_threaded(&nominal, &cfg, 6, 13, 2);
        let eight = generate_mc_libraries_threaded(&nominal, &cfg, 6, 13, 8);
        assert_eq!(one, two);
        assert_eq!(one, eight);
    }

    #[test]
    fn zero_mc_libraries_are_an_empty_list_not_a_panic() {
        let cfg = GenerateConfig::small_for_tests();
        let nominal = generate_nominal(&cfg);
        for threads in [1, 2] {
            let mc = generate_mc_libraries_threaded(&nominal, &cfg, 0, 7, threads);
            assert!(mc.is_empty());
            assert_eq!(
                crate::StatLibrary::from_libraries(&mc),
                Err(crate::BuildStatError::Empty)
            );
        }
    }

    #[test]
    fn mc_preserves_structure() {
        let cfg = GenerateConfig::small_for_tests();
        let nominal = generate_nominal(&cfg);
        let mc = generate_mc_libraries(&nominal, &cfg, 2, 1);
        assert_eq!(mc[0].cells.len(), nominal.cells.len());
        assert_eq!(mc[0].table_count(), nominal.table_count());
    }

    #[test]
    fn mc_entry_sigma_tracks_pelgrom_prediction() {
        let cfg = GenerateConfig::small_for_tests();
        let nominal = generate_nominal(&cfg);
        let libs = generate_mc_libraries(&nominal, &cfg, 400, 99);
        // Observe one heavy-corner entry of INV_1 across the sample.
        let nominal_v = nominal.cell("INV_1").unwrap().pin("Z").unwrap().timing[0]
            .cell_rise
            .as_ref()
            .unwrap()
            .at(6, 6);
        let mut acc = Accumulator::new();
        for lib in &libs {
            acc.push(
                lib.cell("INV_1").unwrap().pin("Z").unwrap().timing[0]
                    .cell_rise
                    .as_ref()
                    .unwrap()
                    .at(6, 6),
            );
        }
        let tech = &cfg.technology;
        let stress = tech.stress(1.0, tech.slew_axis()[6], tech.load_axis(1.0)[6]);
        let expect = nominal_v * cfg.pelgrom.relative_sigma(1.0, stress);
        let got = acc.std_dev();
        assert!(
            (got - expect).abs() / expect < 0.20,
            "sigma {got} vs predicted {expect}"
        );
    }
}
