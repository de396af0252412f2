//! Equivalence proof for the incremental timing engine: after any sequence
//! of local edits, `TimingGraph` must report timing **bit-identical** to a
//! fresh full `analyze` of the edited design — and the parallel levelized
//! propagation must be bit-identical at every thread count.

use varitune_libchar::{generate_nominal, GenerateConfig};
use varitune_netlist::{generate_mcu, McuConfig, NetId};
use varitune_sta::{analyze, MappedDesign, StaConfig, TimingGraph, TimingReport, WireModel};
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

/// Applies `n_edits` random resize/split-fanout edits, asserting after every
/// `update` that the incremental report matches a fresh full analysis of the
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
    let mut resizes = 0usize;
    let mut splits = 0usize;
    for step in 0..40 {
        if rng.next_f64() < 0.8 {
            // Resize a random gate to a random same-family drive.
            let gi = (rng.next_u64() as usize) % engine.gate_count();
            let variants = family_variants(&lib, engine.cell_name(gi));
            if variants.is_empty() {
                continue;
            }
            let pick = variants[(rng.next_u64() as usize) % variants.len()].to_string();
            engine.resize_gate(gi, &pick).expect("same-family resize");
            resizes += 1;
        } else {
            // Split the fanout of a random multi-sink net.
            let nets = engine.design().netlist.net_count();
            let candidate = (0..nets)
                .map(|i| NetId(((i + step * 131) % nets) as u32))
                .find(|&n| engine.fanout(n) >= 2 && engine.driver(n).is_some());
            if let Some(net) = candidate {
                engine.split_fanout(net, "INV_2").expect("fanout split");
                splits += 1;
            }
        }
        engine.update().expect("incremental update");
        engine
            .design()
            .netlist
            .validate()
            .expect("edited netlist valid");
        let full = analyze(engine.design(), &lib, &cfg).expect("full analyze");
        assert_bit_identical(&engine.report(), &full, &format!("after edit {step}"));
    }
    assert!(resizes > 10, "exercised {resizes} resizes");
    assert!(splits > 0, "exercised {splits} fanout splits");
}

/// Batched edits (several edits, one `update`) must converge to the same
/// state as edit-by-edit re-propagation.
#[test]
fn batched_edits_match_stepwise_edits() {
    let lib = generate_nominal(&GenerateConfig::full());
    let cfg = StaConfig::with_clock_period(6.0);
    let design = mapped_mcu(&lib);

    let mut batched = TimingGraph::new(design.clone(), &lib, &cfg).unwrap();
    let mut stepwise = TimingGraph::new(design, &lib, &cfg).unwrap();

    let mut rng = Xoshiro256PlusPlus::seed_from_u64(42);
    let edits: Vec<(usize, String)> = (0..25)
        .filter_map(|_| {
            let gi = (rng.next_u64() as usize) % batched.gate_count();
            let variants = family_variants(&lib, batched.cell_name(gi));
            if variants.is_empty() {
                return None;
            }
            let pick = variants[(rng.next_u64() as usize) % variants.len()].to_string();
            Some((gi, pick))
        })
        .collect();
    assert!(edits.len() > 10);

    for (gi, cell) in &edits {
        batched.resize_gate(*gi, cell).unwrap();
        stepwise.resize_gate(*gi, cell).unwrap();
        stepwise.update().unwrap();
    }
    batched.update().unwrap();
    assert_bit_identical(&batched.report(), &stepwise.report(), "batched vs stepwise");
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
                let pick = pick.to_string();
                engine.resize_gate(gi, &pick).unwrap();
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
