//! Scale contract for the sharded STA engine: the tiled SoC (the x10/x40
//! bench design, here on the small test templates so the debug-profile
//! suite stays fast) must analyze **bit-identically** at 1, 2 and 8
//! threads, through full sharded propagation and through incremental edit
//! sequences.

use varitune_libchar::{generate_nominal, GenerateConfig};
use varitune_netlist::{generate_soc, NetId, SocConfig};
use varitune_sta::{MappedDesign, StaConfig, TimingGraph, TimingReport, WireModel};
use varitune_synth::{map_netlist, LibraryConstraints, TargetLibrary};

fn assert_bit_identical(a: &TimingReport, b: &TimingReport, ctx: &str) {
    assert_eq!(a.nets.len(), b.nets.len(), "{ctx}: net count");
    for (i, (x, y)) in a.nets.iter().zip(&b.nets).enumerate() {
        assert_eq!(
            x.arrival.to_bits(),
            y.arrival.to_bits(),
            "{ctx}: net {i} arrival {} vs {}",
            x.arrival,
            y.arrival
        );
        assert_eq!(x.slew.to_bits(), y.slew.to_bits(), "{ctx}: net {i} slew");
        assert_eq!(x.load.to_bits(), y.load.to_bits(), "{ctx}: net {i} load");
        assert_eq!(x.driver, y.driver, "{ctx}: net {i} driver");
        assert_eq!(x.crit_input, y.crit_input, "{ctx}: net {i} crit_input");
    }
    assert_eq!(a.endpoints.len(), b.endpoints.len(), "{ctx}: endpoints");
    for (i, (x, y)) in a.endpoints.iter().zip(&b.endpoints).enumerate() {
        assert_eq!(x.net, y.net, "{ctx}: endpoint {i} net");
        assert_eq!(
            x.slack().to_bits(),
            y.slack().to_bits(),
            "{ctx}: endpoint {i} slack"
        );
    }
}

/// The x10 SoC topology on the small test templates, mapped.
fn x10_smoke_design(lib: &varitune_liberty::Library) -> MappedDesign {
    let constraints = LibraryConstraints::unconstrained();
    let target = TargetLibrary::new(lib, &constraints);
    map_netlist(
        generate_soc(&SocConfig::x10().smoke()),
        &target,
        WireModel::default(),
    )
    .expect("SoC maps")
}

/// Deterministic edit schedule against an engine: resizes spread over
/// the whole design plus a handful of fanout splits.
fn apply_edit_sequence(engine: &mut TimingGraph<'_>, lib: &varitune_liberty::Library) {
    let gates = engine.gate_count();
    let inv = lib.cell_id("INV_2").expect("the library has INV_2");
    for step in 0..24 {
        let gi = (step * 131071) % gates;
        let name = engine.cell_name(gi);
        let Some((family, _)) = name.rsplit_once('_') else {
            continue;
        };
        let prefix = format!("{family}_");
        let target = lib
            .cells
            .iter()
            .filter(|c| c.name.starts_with(&prefix))
            .map(|c| c.name.as_str())
            .find(|n| *n != name)
            .and_then(|n| lib.cell_id(n));
        if let Some(cell) = target {
            engine.resize_gate_id(gi, cell).expect("same-family resize");
        }
        if step % 8 == 0 {
            // Split a multi-sink net scanned from a moving offset.
            let nets = engine.design().netlist.net_count();
            let candidate = (0..nets)
                .map(|i| NetId(((i + step * 977) % nets) as u32))
                .find(|&n| engine.fanout(n) >= 2 && engine.driver(n).is_some());
            if let Some(net) = candidate {
                engine.split_fanout_id(net, inv).expect("fanout split");
            }
        }
        engine.update().expect("incremental update");
    }
}

#[test]
fn x10_soc_full_sta_is_bit_identical_across_thread_counts() {
    let lib = generate_nominal(&GenerateConfig::full());
    let cfg = StaConfig::with_clock_period(6.0);
    let design = x10_smoke_design(&lib);

    let run = |threads: usize| {
        let mut engine = TimingGraph::new(design.clone(), &lib, &cfg).expect("engine builds");
        engine.set_threads(threads);
        engine.invalidate_all();
        engine.update().expect("sharded full propagation");
        engine.report()
    };
    let one = run(1);
    assert_bit_identical(&one, &run(2), "full STA at 2 threads");
    assert_bit_identical(&one, &run(8), "full STA at 8 threads");
}

#[test]
fn x10_soc_incremental_edits_are_bit_identical_across_thread_counts() {
    let lib = generate_nominal(&GenerateConfig::full());
    let cfg = StaConfig::with_clock_period(6.0);
    let design = x10_smoke_design(&lib);

    let run = |threads: usize| {
        let mut engine = TimingGraph::new(design.clone(), &lib, &cfg).expect("engine builds");
        engine.set_threads(threads);
        apply_edit_sequence(&mut engine, &lib);
        engine
    };
    let one = run(1);
    for threads in [2, 8] {
        let n = run(threads);
        assert_bit_identical(
            &one.report(),
            &n.report(),
            &format!("edit sequence at {threads} threads"),
        );
    }
    // Equivalence against a fresh full propagation of the edited design.
    let edited = one.design().clone();
    edited.netlist.validate().expect("edited netlist valid");
    let fresh = TimingGraph::new(edited, &lib, &cfg).expect("fresh engine");
    assert_bit_identical(&one.report(), &fresh.report(), "incremental vs fresh");
}
