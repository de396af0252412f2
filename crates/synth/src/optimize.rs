//! Timing-driven optimization under operating-window constraints.
//!
//! The optimizer iterates four moves until the design converges:
//!
//! 1. **Load legalization** — a cell whose output load exceeds its
//!    *effective* limit (library `max_capacitance` shrunk by the tuning
//!    window) is up-sized; if no variant can carry the load, the fanout is
//!    split with an inverter pair (the paper observes exactly this inverter
//!    growth under tuned libraries),
//! 2. **Slew legalization** — a cell seeing an input slew above its window's
//!    `max_slew` gets its *driver* up-sized until the edge is steep enough,
//! 3. **Critical-path sizing** — while timing fails, cells on the worst
//!    paths are up-sized one step,
//! 4. **Area recovery** — once timing is met, cells with generous slack are
//!    down-sized (never below the floor set by moves 1–3).
//!
//! The emergent behaviour matches §VII: restricting LUTs to the low-sigma
//! region forces larger drives and extra buffering — more area, less sigma.

use std::error::Error;
use std::fmt;

use varitune_liberty::{CellId, Library};
use varitune_netlist::{NetId, Netlist};
use varitune_sta::{MappedDesign, StaConfig, StaError, TimingGraph, TimingReport, WireModel};

use crate::constraint::LibraryConstraints;
use crate::map::{map_netlist, MapError, TargetLibrary};

/// Synthesis configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SynthConfig {
    /// Timing configuration (clock period, uncertainty, boundary slews).
    pub sta: StaConfig,
    /// Maximum optimization iterations.
    pub max_iterations: usize,
    /// Whether to run area recovery when timing is met.
    pub area_recovery: bool,
    /// Fanout above which a net is buffered regardless of load.
    pub max_fanout: usize,
    /// How many critical endpoints to size per iteration.
    pub paths_per_iteration: usize,
    /// Worker threads for timing re-propagation (`0` = all cores, `1` =
    /// serial). Timing results are bit-identical for any value.
    pub threads: usize,
}

impl SynthConfig {
    /// Conventional defaults for a clock period.
    pub fn with_clock_period(period: f64) -> Self {
        Self {
            sta: StaConfig::with_clock_period(period),
            max_iterations: 24,
            area_recovery: true,
            max_fanout: 24,
            paths_per_iteration: 64,
            threads: 1,
        }
    }
}

/// Error from synthesis.
#[derive(Debug, Clone, PartialEq)]
pub enum SynthError {
    /// Technology mapping failed.
    Map(MapError),
    /// Timing analysis failed.
    Sta(StaError),
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::Map(e) => write!(f, "mapping failed: {e}"),
            SynthError::Sta(e) => write!(f, "timing analysis failed: {e}"),
        }
    }
}

impl Error for SynthError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SynthError::Map(e) => Some(e),
            SynthError::Sta(e) => Some(e),
        }
    }
}

impl From<MapError> for SynthError {
    fn from(e: MapError) -> Self {
        SynthError::Map(e)
    }
}

impl From<StaError> for SynthError {
    fn from(e: StaError) -> Self {
        SynthError::Sta(e)
    }
}

/// Result of [`synthesize`].
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SynthesisResult {
    /// The optimized mapped design (including any inserted buffers).
    pub design: MappedDesign,
    /// Final timing report.
    pub report: TimingReport,
    /// Total cell area (µm²).
    pub area: f64,
    /// Whether every endpoint meets timing.
    pub met_timing: bool,
    /// Optimization iterations executed.
    pub iterations: usize,
    /// Buffer (inverter-pair) gates inserted during legalization.
    pub buffers_inserted: usize,
}

/// Maps and optimizes `netlist` against `lib` under `constraints`.
///
/// # Errors
///
/// Returns [`SynthError`] if mapping or timing analysis fails.
pub fn synthesize(
    netlist: &Netlist,
    lib: &Library,
    constraints: &LibraryConstraints,
    cfg: &SynthConfig,
) -> Result<SynthesisResult, SynthError> {
    let _span = varitune_trace::span!("synth.optimize");
    let target = TargetLibrary::new(lib, constraints);
    let design = map_netlist(netlist.clone(), &target, WireModel::default())?;
    let mut floors: Vec<f64> = vec![0.0; design.netlist.gate_count()];
    let mut buffers_inserted = 0usize;

    // One engine for the whole optimization: every sizing/buffering move
    // below re-times only its dirty cone instead of the full netlist.
    let mut engine = TimingGraph::new(design, lib, &cfg.sta)?;
    engine.set_threads(cfg.threads);
    let mut iterations = 0;
    for _ in 0..cfg.max_iterations {
        iterations += 1;
        let mut changed = false;

        changed |= legalize_loads(
            &mut engine,
            &target,
            &mut floors,
            cfg,
            &mut buffers_inserted,
        )?;
        engine.update()?;

        changed |= legalize_slews(&mut engine, &target, &mut floors)?;
        if changed {
            engine.update()?;
        }

        if engine.worst_slack() < 0.0 {
            let sized = size_critical_paths(&mut engine, &target, &mut floors, cfg)?;
            changed |= sized;
            if sized {
                engine.update()?;
            }
        } else if cfg.area_recovery {
            let recovered = recover_area(&mut engine, &target, &floors, cfg)?;
            changed |= recovered;
            if recovered {
                engine.update()?;
            }
        }

        if !changed {
            break;
        }
    }

    varitune_trace::add("synth.runs", 1);
    varitune_trace::add("synth.iterations", iterations as u64);
    varitune_trace::add("synth.buffers_inserted", buffers_inserted as u64);
    varitune_trace::observe("synth.iterations_per_run", iterations as u64);
    let report = engine.report();
    let design = engine.into_design();
    let area = design.total_area(lib);
    let met_timing = report.meets_timing();
    Ok(SynthesisResult {
        design,
        report,
        area,
        met_timing,
        iterations,
        buffers_inserted,
    })
}

/// Upsize or buffer until every output load fits its effective limit.
fn legalize_loads(
    engine: &mut TimingGraph<'_>,
    target: &TargetLibrary<'_>,
    floors: &mut Vec<f64>,
    cfg: &SynthConfig,
    buffers_inserted: &mut usize,
) -> Result<bool, SynthError> {
    let mut changed = false;
    let mut outs: Vec<NetId> = Vec::new();
    // Iterate to a fixpoint: buffering changes loads upstream. Each round
    // judges every net by its load and fanout as of the round's start, and
    // the follow-up `update` (an O(dirty cone) re-propagation) refreshes
    // them for the next round. The live engine reads below are exactly
    // that snapshot: loads change only at `update`; a split changes only
    // the fanout of the net it splits, which the round visits once,
    // through its driver, before splitting it; and the nets a split adds
    // are driven by gates at or past `gate_count`, which this round never
    // visits.
    for _ in 0..4 {
        engine.update()?;
        let mut round_changed = false;
        let gate_count = engine.gate_count();
        for gi in 0..gate_count {
            outs.clear();
            outs.extend(engine.gate_outputs(gi));
            for &out in &outs {
                let load = engine.load(out);
                let fanout = engine.fanout(out);
                let id = engine.cell_id(gi);
                let eff = target.effective_max_load_id(id);
                if load <= eff && fanout <= cfg.max_fanout {
                    continue;
                }
                // Try up-sizing within the family first: walk the drive
                // ladder upward from the current variant.
                let drive = target.drive(id);
                let better = target.family_of(id).and_then(|fid| {
                    target
                        .family_variants(fid)
                        .iter()
                        .find(|v| v.drive > drive && target.effective_max_load_id(v.id) >= load)
                });
                if fanout <= cfg.max_fanout {
                    if let Some(v) = better {
                        floors[gi] = floors[gi].max(v.drive);
                        engine.resize_gate_id(gi, v.id)?;
                        varitune_trace::add("synth.resizes_load", 1);
                        round_changed = true;
                        continue;
                    }
                }
                // No variant can carry the load (or fanout is excessive):
                // split the fanout with an inverter pair.
                if fanout >= 2 {
                    engine.split_fanout_id(out, buffering_inverter(target))?;
                    floors.push(0.0);
                    floors.push(0.0);
                    *buffers_inserted += 2;
                    varitune_trace::add("synth.fanout_splits", 1);
                    round_changed = true;
                }
            }
        }
        changed |= round_changed;
        if !round_changed {
            break;
        }
    }
    Ok(changed)
}

/// Mid-size inverter for fanout buffering; legalization will resize. A
/// library without inverters yields an unresolvable id, which the engine
/// reports as an unknown cell on use.
fn buffering_inverter(target: &TargetLibrary<'_>) -> CellId {
    target
        .variants("INV")
        .and_then(|vs| vs.iter().find(|v| v.drive >= 2.0).or_else(|| vs.last()))
        .map(|v| v.id)
        .unwrap_or(CellId(u32::MAX))
}

/// Upsize drivers whose output edge is too shallow for a sink's window.
///
/// Reads the slews as of the engine's last `update` (edits made here do
/// not shift them until the caller re-propagates), so every offending
/// driver is judged against the same timing snapshot.
fn legalize_slews(
    engine: &mut TimingGraph<'_>,
    target: &TargetLibrary<'_>,
    floors: &mut [f64],
) -> Result<bool, SynthError> {
    let mut changed = false;
    let mut inputs: Vec<NetId> = Vec::new();
    let gate_count = engine.gate_count();
    for gi in 0..gate_count {
        let max_slew = target.effective_max_slew_id(engine.cell_id(gi));
        if !max_slew.is_finite() {
            continue;
        }
        inputs.clear();
        inputs.extend(engine.gate_inputs(gi));
        for &inp in &inputs {
            if engine.net_timing(inp).slew <= max_slew {
                continue;
            }
            let Some(src) = engine.driver(inp) else {
                continue; // primary input; boundary slew is fixed
            };
            if let Some(v) = target.upsize_id(engine.cell_id(src)) {
                floors[src] = floors[src].max(v.drive);
                engine.resize_gate_id(src, v.id)?;
                varitune_trace::add("synth.resizes_slew", 1);
                changed = true;
            }
        }
    }
    Ok(changed)
}

/// Upsize every cell on the worst violating paths one step.
fn size_critical_paths(
    engine: &mut TimingGraph<'_>,
    target: &TargetLibrary<'_>,
    floors: &mut [f64],
    cfg: &SynthConfig,
) -> Result<bool, SynthError> {
    let mut changed = false;
    let mut seen_gates = std::collections::BTreeSet::new();
    let report = engine.report();
    let endpoints = report.critical_endpoints();
    for ep in endpoints
        .iter()
        .take(cfg.paths_per_iteration)
        .filter(|e| e.slack() < 0.0)
    {
        // Walk the critical path via the recorded critical-input pointers.
        let mut net = ep.net;
        loop {
            let t = report.nets[net.0 as usize];
            let Some(gi) = t.driver else { break };
            if seen_gates.insert(gi) {
                let load = t.load;
                if let Some(v) = target.upsize_id(engine.cell_id(gi)) {
                    // Only upsize if the bigger cell may legally carry the
                    // current load (windows shrink with tuning).
                    if target.effective_max_load_id(v.id) >= load {
                        floors[gi] = floors[gi].max(v.drive);
                        engine.resize_gate_id(gi, v.id)?;
                        varitune_trace::add("synth.resizes_critical", 1);
                        changed = true;
                    }
                }
            }
            match t.crit_input.and_then(|k| engine.gate_inputs(gi).nth(k)) {
                Some(inp) => net = inp,
                None => break,
            }
        }
    }
    Ok(changed)
}

/// Downsize cells with generous slack, never below their floor.
fn recover_area(
    engine: &mut TimingGraph<'_>,
    target: &TargetLibrary<'_>,
    floors: &[f64],
    cfg: &SynthConfig,
) -> Result<bool, SynthError> {
    let req = engine.required_times()?;
    let margin = 0.18 * cfg.sta.effective_period();
    let mut changed = false;
    let gate_count = engine.gate_count();
    for (gi, &floor) in floors.iter().enumerate().take(gate_count) {
        if engine.is_sequential(gi) {
            continue; // keep registers stable
        }
        let Some(out) = engine.gate_outputs(gi).next() else {
            continue; // outputless gate: nothing to downsize against
        };
        let t = *engine.net_timing(out);
        let slack = req[out.0 as usize] - t.arrival;
        if !slack.is_finite() || slack < margin {
            continue;
        }
        let id = engine.cell_id(gi);
        let Some(v) = target.downsize_id(id) else {
            continue;
        };
        if v.drive < floor {
            continue;
        }
        if target.effective_max_load_id(v.id) < t.load {
            continue;
        }
        // Estimate the delay penalty of the smaller cell at the recorded
        // operating point; only accept clearly safe moves.
        let small = v.id;
        let penalty = delay_at(target.lib, small, t.crit_input_slew, t.load)
            .zip(delay_at(target.lib, id, t.crit_input_slew, t.load))
            .map(|(new, old)| new - old);
        if let Some(p) = penalty {
            if p < slack * 0.25 {
                engine.resize_gate_id(gi, small)?;
                varitune_trace::add("synth.downsizes", 1);
                changed = true;
            }
        }
    }
    Ok(changed)
}

fn delay_at(lib: &Library, cell: CellId, slew: f64, load: f64) -> Option<f64> {
    let c = lib.cells.get(cell.index())?;
    let pin = c.output_pins().next()?;
    let arc = pin.timing.first()?;
    arc.worst_delay(slew, load).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::OperatingWindow;
    use varitune_libchar::{generate_nominal, GenerateConfig};
    use varitune_netlist::{generate_mcu, McuConfig};

    fn full_lib() -> Library {
        generate_nominal(&GenerateConfig::full())
    }

    fn small_mcu() -> Netlist {
        generate_mcu(&McuConfig::small_for_tests())
    }

    fn drive_at(d: &MappedDesign, gi: usize, lib: &Library) -> f64 {
        lib.cells[d.cells[gi].index()]
            .drive_strength()
            .unwrap_or(1.0)
    }

    #[test]
    fn baseline_synthesis_meets_relaxed_timing() {
        let lib = full_lib();
        let r = synthesize(
            &small_mcu(),
            &lib,
            &LibraryConstraints::unconstrained(),
            &SynthConfig::with_clock_period(20.0),
        )
        .unwrap();
        assert!(r.met_timing, "worst slack {}", r.report.worst_slack());
        assert!(r.area > 0.0);
        r.design.netlist.validate().unwrap();
    }

    #[test]
    fn impossible_timing_reports_failure() {
        let lib = full_lib();
        let r = synthesize(
            &small_mcu(),
            &lib,
            &LibraryConstraints::unconstrained(),
            &SynthConfig::with_clock_period(0.01),
        )
        .unwrap();
        assert!(!r.met_timing);
    }

    #[test]
    fn tighter_clock_uses_more_area() {
        let lib = full_lib();
        let nl = small_mcu();
        let relaxed = synthesize(
            &nl,
            &lib,
            &LibraryConstraints::unconstrained(),
            &SynthConfig::with_clock_period(20.0),
        )
        .unwrap();
        let tight = synthesize(
            &nl,
            &lib,
            &LibraryConstraints::unconstrained(),
            &SynthConfig::with_clock_period(2.0),
        )
        .unwrap();
        assert!(
            tight.area > relaxed.area,
            "tight {} vs relaxed {}",
            tight.area,
            relaxed.area
        );
    }

    #[test]
    fn load_legalization_respects_max_capacitance() {
        let lib = full_lib();
        let r = synthesize(
            &small_mcu(),
            &lib,
            &LibraryConstraints::unconstrained(),
            &SynthConfig::with_clock_period(10.0),
        )
        .unwrap();
        let loads = r.design.net_loads(&lib);
        let c = LibraryConstraints::unconstrained();
        let target = TargetLibrary::new(&lib, &c);
        for gi in 0..r.design.netlist.gate_count() {
            for &out in r.design.netlist.gate_outputs(gi) {
                let eff = target.effective_max_load_id(r.design.cells[gi]);
                assert!(
                    loads[out.0 as usize] <= eff * 1.0001,
                    "gate {gi} ({}) overloaded: {} > {}",
                    r.design.cell_label(gi, &lib),
                    loads[out.0 as usize],
                    eff
                );
            }
        }
    }

    #[test]
    fn window_constraints_grow_area_and_insert_buffers() {
        // Restrict every cell's LUT to its low-load half: synthesis must
        // compensate with bigger cells and buffers (the paper's area cost).
        let lib = full_lib();
        let nl = small_mcu();
        let baseline = synthesize(
            &nl,
            &lib,
            &LibraryConstraints::unconstrained(),
            &SynthConfig::with_clock_period(10.0),
        )
        .unwrap();

        let mut constraints = LibraryConstraints::unconstrained();
        for cell in &lib.cells {
            for pin in cell.output_pins() {
                if let Some(mc) = pin.max_capacitance {
                    constraints.set(
                        cell.name.clone(),
                        pin.name.clone(),
                        OperatingWindow {
                            min_slew: 0.0,
                            max_slew: 0.25,
                            min_load: 0.0,
                            max_load: (mc * 0.45).min(0.012),
                        },
                    );
                }
            }
        }
        let tuned = synthesize(
            &nl,
            &lib,
            &constraints,
            &SynthConfig::with_clock_period(10.0),
        )
        .unwrap();
        tuned.design.netlist.validate().unwrap();
        assert!(
            tuned.area > baseline.area,
            "tuned {} vs baseline {}",
            tuned.area,
            baseline.area
        );
        // Restricted loads force fanout splitting somewhere in a 1k-gate
        // design.
        assert!(tuned.buffers_inserted > 0);
    }

    #[test]
    fn slew_windows_upsize_the_offending_driver() {
        // A weak driver into a heavy fanout produces a shallow edge; a
        // tuned max_slew on the *sinks* must force the driver to grow.
        let lib = full_lib();
        let mut nl = Netlist::new("slewcase");
        let a = nl.add_input("a");
        let x = nl.add_net("x");
        nl.add_gate(varitune_netlist::GateKind::Inv, &[a], &[x]);
        for i in 0..10 {
            let z = nl.add_net(format!("z{i}"));
            nl.add_gate(varitune_netlist::GateKind::Inv, &[x], &[z]);
            nl.mark_output(z);
        }
        let baseline = synthesize(
            &nl,
            &lib,
            &LibraryConstraints::unconstrained(),
            &SynthConfig::with_clock_period(10.0),
        )
        .unwrap();
        let driver_drive_base = drive_at(&baseline.design, 0, &lib);

        // Constrain every inverter's input slew tightly.
        let mut constraints = LibraryConstraints::unconstrained();
        for cell in lib.cells.iter().filter(|c| c.name.starts_with("INV")) {
            constraints.set(
                cell.name.clone(),
                "Z",
                OperatingWindow {
                    min_slew: 0.0,
                    max_slew: 0.03,
                    min_load: 0.0,
                    max_load: f64::INFINITY,
                },
            );
        }
        let tuned = synthesize(
            &nl,
            &lib,
            &constraints,
            &SynthConfig::with_clock_period(10.0),
        )
        .unwrap();
        let driver_drive_tuned = drive_at(&tuned.design, 0, &lib);
        assert!(
            driver_drive_tuned > driver_drive_base,
            "driver should upsize: {driver_drive_base} -> {driver_drive_tuned}"
        );
        // And the achieved transition on the constrained net must satisfy
        // the window.
        let x_slew = tuned.report.nets[1].slew;
        assert!(x_slew <= 0.03 + 1e-9, "slew {x_slew} exceeds the window");
    }

    #[test]
    fn synthesis_is_deterministic() {
        let lib = full_lib();
        let nl = small_mcu();
        let cfg = SynthConfig::with_clock_period(5.0);
        let a = synthesize(&nl, &lib, &LibraryConstraints::unconstrained(), &cfg).unwrap();
        let b = synthesize(&nl, &lib, &LibraryConstraints::unconstrained(), &cfg).unwrap();
        assert_eq!(a.design, b.design);
    }

    #[test]
    fn critical_path_sizing_improves_slack() {
        let lib = full_lib();
        let nl = small_mcu();
        // One-iteration run vs full run at a demanding clock.
        let mut one = SynthConfig::with_clock_period(1.2);
        one.max_iterations = 1;
        one.area_recovery = false;
        let first = synthesize(&nl, &lib, &LibraryConstraints::unconstrained(), &one).unwrap();
        let full = synthesize(
            &nl,
            &lib,
            &LibraryConstraints::unconstrained(),
            &SynthConfig::with_clock_period(1.2),
        )
        .unwrap();
        assert!(
            full.report.worst_slack() >= first.report.worst_slack(),
            "full {} vs first {}",
            full.report.worst_slack(),
            first.report.worst_slack()
        );
    }
}
