//! Equivalence proof for the incremental timing engine: after any sequence
//! of local edits, `TimingGraph` must report timing **bit-identical** to a
//! fresh full `analyze` of the edited design — and the parallel levelized
//! propagation must be bit-identical at every thread count.

use varitune_libchar::{generate_nominal, GenerateConfig};
use varitune_liberty::CellId;
use varitune_netlist::{generate_mcu, McuConfig, NetId};
use varitune_sta::{
    analyze, required_times, MappedDesign, StaConfig, TimingGraph, TimingReport, WireModel,
};
use varitune_synth::{map_netlist, LibraryConstraints, TargetLibrary};
use varitune_variation::Xoshiro256PlusPlus;

fn assert_bit_identical(eng: &TimingReport, full: &TimingReport, ctx: &str) {
    assert_eq!(eng.nets.len(), full.nets.len(), "{ctx}: net count");
    for (i, (a, b)) in eng.nets.iter().zip(&full.nets).enumerate() {
        assert_eq!(
            a.arrival.to_bits(),
            b.arrival.to_bits(),
            "{ctx}: net {i} arrival {} vs {}",
            a.arrival,
            b.arrival
        );
        assert_eq!(a.slew.to_bits(), b.slew.to_bits(), "{ctx}: net {i} slew");
        assert_eq!(a.load.to_bits(), b.load.to_bits(), "{ctx}: net {i} load");
        assert_eq!(a.driver, b.driver, "{ctx}: net {i} driver");
        assert_eq!(a.crit_input, b.crit_input, "{ctx}: net {i} crit_input");
    }
    assert_eq!(
        eng.endpoints.len(),
        full.endpoints.len(),
        "{ctx}: endpoints"
    );
    for (i, (a, b)) in eng.endpoints.iter().zip(&full.endpoints).enumerate() {
        assert_eq!(a.net, b.net, "{ctx}: endpoint {i} net");
        assert_eq!(
            a.slack().to_bits(),
            b.slack().to_bits(),
            "{ctx}: endpoint {i} slack"
        );
    }
}

/// Arrival and slew bits of every net: the timing `update_loads` must not
/// move. Nets that splits added since are appended.
fn timing_bits(engine: &TimingGraph<'_>) -> Vec<(u64, u64)> {
    engine
        .report()
        .nets
        .iter()
        .map(|t| (t.arrival.to_bits(), t.slew.to_bits()))
        .collect()
}

fn assert_same_bits(a: &[f64], b: &[f64], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: net {i}: {x} vs {y}");
    }
}

/// A mapped small-MCU design to edit against.
fn mapped_mcu(lib: &varitune_liberty::Library) -> MappedDesign {
    let constraints = LibraryConstraints::unconstrained();
    let target = TargetLibrary::new(lib, &constraints);
    map_netlist(
        generate_mcu(&McuConfig::small_for_tests()),
        &target,
        WireModel::default(),
    )
    .expect("small MCU maps")
}

/// Same-family drive variants a gate can legally be resized to.
fn family_variants<'l>(lib: &'l varitune_liberty::Library, cell_name: &str) -> Vec<&'l str> {
    let Some((family, _)) = cell_name.rsplit_once('_') else {
        return Vec::new();
    };
    let prefix = format!("{family}_");
    lib.cells
        .iter()
        .filter(|c| c.name.starts_with(&prefix))
        .map(|c| c.name.as_str())
        .collect()
}

/// The id of the library cell named `name`.
fn id(lib: &varitune_liberty::Library, name: &str) -> CellId {
    lib.cell_id(name).expect("a library cell")
}

/// Applies 40 random resize/split-fanout edits, refreshing loads with
/// `update_loads` and re-timing with `update` at seeded random points in
/// between. After every `update_loads` the loads must match a fresh load
/// computation while no arrival or slew moves; after every `update` the
/// report and the required times must match a fresh full analysis of the
/// edited design to the last bit.
#[test]
fn randomized_edit_sequence_is_bit_identical_to_full_analyze() {
    let lib = generate_nominal(&GenerateConfig::full());
    let cfg = StaConfig::with_clock_period(6.0);
    let design = mapped_mcu(&lib);

    let mut engine = TimingGraph::new(design, &lib, &cfg).expect("engine builds");
    assert_bit_identical(
        &engine.report(),
        &analyze(engine.design(), &lib, &cfg).unwrap(),
        "initial build",
    );

    let mut rng = Xoshiro256PlusPlus::seed_from_u64(0xC0FFEE);
    // The refresh points draw from their own stream, so the edits are the
    // same whichever points are drawn.
    let mut points = Xoshiro256PlusPlus::seed_from_u64(0x10AD);
    let mut timed = timing_bits(&engine);
    let (mut resizes, mut splits) = (0usize, 0usize);
    let (mut load_refreshes, mut updates) = (0usize, 0usize);
    for step in 0..40 {
        if rng.next_f64() < 0.8 {
            // Resize a random gate to a random same-family drive.
            let gi = (rng.next_u64() as usize) % engine.gate_count();
            let variants = family_variants(&lib, engine.cell_name(gi));
            if variants.is_empty() {
                continue;
            }
            let pick = id(&lib, variants[(rng.next_u64() as usize) % variants.len()]);
            engine.resize_gate_id(gi, pick).expect("same-family resize");
            resizes += 1;
        } else {
            // Split the fanout of a random multi-sink net.
            let nets = engine.design().netlist.net_count();
            let candidate = (0..nets)
                .map(|i| NetId(((i + step * 131) % nets) as u32))
                .find(|&n| engine.fanout(n) >= 2 && engine.driver(n).is_some());
            if let Some(net) = candidate {
                engine
                    .split_fanout_id(net, id(&lib, "INV_2"))
                    .expect("fanout split");
                splits += 1;
            }
        }
        if points.next_f64() < 0.5 {
            engine.update_loads();
            load_refreshes += 1;
            let ctx = format!("loads refreshed after edit {step}");
            assert_same_bits(engine.loads(), &engine.design().net_loads(&lib), &ctx);
            let now = timing_bits(&engine);
            assert!(now[..timed.len()] == timed[..], "{ctx}: timing moved");
        }
        if step < 39 && points.next_f64() < 0.4 {
            continue;
        }
        engine.update().expect("incremental update");
        updates += 1;
        timed = timing_bits(&engine);
        engine
            .design()
            .netlist
            .validate()
            .expect("edited netlist valid");
        let full = analyze(engine.design(), &lib, &cfg).expect("full analyze");
        let ctx = format!("after edit {step}");
        assert_bit_identical(&engine.report(), &full, &ctx);
        let free = required_times(engine.design(), &lib, &full).expect("required times");
        assert_same_bits(&engine.required_times(), &free, &format!("{ctx}: required"));
    }
    assert!(resizes > 10, "exercised {resizes} resizes");
    assert!(splits > 0, "exercised {splits} fanout splits");
    assert!(
        load_refreshes > 5,
        "exercised {load_refreshes} load refreshes"
    );
    assert!(
        (5..40).contains(&updates),
        "batched the edits into {updates} updates"
    );
}

/// Batched edits (resizes and fanout splits, loads refreshed with
/// `update_loads` between them, one `update`) must converge to the same
/// state as edit-by-edit re-propagation — the pattern synthesis's load
/// legalization follows.
#[test]
fn batched_edits_match_stepwise_edits() {
    let lib = generate_nominal(&GenerateConfig::full());
    let cfg = StaConfig::with_clock_period(6.0);
    let design = mapped_mcu(&lib);

    let mut batched = TimingGraph::new(design.clone(), &lib, &cfg).unwrap();
    let mut stepwise = TimingGraph::new(design, &lib, &cfg).unwrap();
    let inv = lib.cell_id("INV_2").unwrap();

    let mut rng = Xoshiro256PlusPlus::seed_from_u64(42);
    let (mut resizes, mut splits) = (0usize, 0usize);
    for _ in 0..30 {
        // Both engines hold the same structure, so an edit picked on one
        // applies to the other.
        let pick = rng.next_u64() as usize;
        if rng.next_f64() < 0.7 {
            let gi = pick % batched.gate_count();
            let variants = family_variants(&lib, batched.cell_name(gi));
            if variants.is_empty() {
                continue;
            }
            let cell = lib
                .cell_id(variants[(rng.next_u64() as usize) % variants.len()])
                .unwrap();
            batched.resize_gate_id(gi, cell).unwrap();
            stepwise.resize_gate_id(gi, cell).unwrap();
            resizes += 1;
        } else {
            let nets = batched.design().netlist.net_count();
            let Some(net) = (0..nets)
                .map(|i| NetId(((pick + i) % nets) as u32))
                .find(|&n| batched.fanout(n) >= 2)
            else {
                continue;
            };
            assert_eq!(
                batched.split_fanout_id(net, inv).unwrap(),
                stepwise.split_fanout_id(net, inv).unwrap()
            );
            splits += 1;
        }
        stepwise.update().unwrap();
        batched.update_loads();
        assert_same_bits(batched.loads(), stepwise.loads(), "refreshed loads");
    }
    assert!(resizes > 10, "exercised {resizes} resizes");
    assert!(splits > 3, "exercised {splits} fanout splits");
    batched.update().unwrap();
    assert_bit_identical(&batched.report(), &stepwise.report(), "batched vs stepwise");
    assert_same_bits(
        &batched.required_times(),
        &stepwise.required_times(),
        "batched vs stepwise required times",
    );
    let full = analyze(batched.design(), &lib, &cfg).unwrap();
    assert_bit_identical(&batched.report(), &full, "batched vs full");
}

/// Full propagation and post-edit re-propagation must be bit-identical at
/// 1, 2 and 8 worker threads.
#[test]
fn parallel_propagation_is_bit_identical_across_thread_counts() {
    let lib = generate_nominal(&GenerateConfig::full());
    let cfg = StaConfig::with_clock_period(6.0);
    let design = mapped_mcu(&lib);

    let run = |threads: usize| {
        let mut engine = TimingGraph::new(design.clone(), &lib, &cfg).unwrap();
        engine.set_threads(threads);
        // Full re-propagation under the requested thread count.
        engine.invalidate_all();
        engine.update().unwrap();
        let full = engine.report();
        // A structural edit plus a wide resize wave, re-propagated.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(7);
        for _ in 0..12 {
            let gi = (rng.next_u64() as usize) % engine.gate_count();
            let variants = family_variants(&lib, engine.cell_name(gi));
            if let Some(pick) = variants.first() {
                engine.resize_gate_id(gi, id(&lib, pick)).unwrap();
            }
        }
        engine.update().unwrap();
        (full, engine.report())
    };

    let (full_1, edited_1) = run(1);
    for threads in [2, 8] {
        let (full_n, edited_n) = run(threads);
        assert_bit_identical(&full_n, &full_1, &format!("full at {threads} threads"));
        assert_bit_identical(
            &edited_n,
            &edited_1,
            &format!("edited at {threads} threads"),
        );
    }
}
