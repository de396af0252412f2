//! Average-power estimation of a mapped design.
//!
//! The paper focuses on timing but notes (§II–III) that the library tables
//! also carry power and that the tuning method extends to transition power.
//! This module provides the consumer side: a standard activity-based power
//! estimate over the mapped design, using the internal-power tables at each
//! gate's propagated operating point:
//!
//! * **internal** — per-event energy from the library's `internal_power`
//!   tables, at the gate's (input slew, output load),
//! * **switching** — `½·C_load·V²` per output event, charged to the driving
//!   gate,
//! * **leakage** — the cells' static `cell_leakage_power`.

use varitune_liberty::Library;

use crate::graph::{StaError, TimingReport};
use crate::mapped::MappedDesign;

/// Power-analysis knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PowerConfig {
    /// Average switching activity: output events per clock cycle per net.
    pub activity: f64,
    /// Clock period (ns); the clock frequency is `1/period` GHz.
    pub clock_period: f64,
    /// Supply voltage (V).
    pub voltage: f64,
}

impl PowerConfig {
    /// Conventional defaults (activity 0.1) at the given period.
    pub fn with_clock_period(clock_period: f64) -> Self {
        Self {
            activity: 0.1,
            clock_period,
            voltage: 1.1,
        }
    }
}

/// Power breakdown in mW.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PowerReport {
    /// Internal (cell) switching power.
    pub internal: f64,
    /// Net-charging switching power.
    pub switching: f64,
    /// Static leakage power.
    pub leakage: f64,
}

impl PowerReport {
    /// Total power (mW).
    pub fn total(&self) -> f64 {
        self.internal + self.switching + self.leakage
    }
}

/// Estimates average power of `design` using the operating points recorded
/// in `report` and one blanket activity for every net.
///
/// # Errors
///
/// Returns [`StaError`] for unmapped cells or failing table lookups. Gates
/// whose cells carry no power tables contribute only switching and leakage.
pub fn estimate_power(
    design: &MappedDesign,
    lib: &Library,
    report: &TimingReport,
    config: &PowerConfig,
) -> Result<PowerReport, StaError> {
    estimate(design, lib, report, config, None)
}

/// Like [`estimate_power`], but with a **measured** per-net activity vector
/// (toggles per cycle, indexed by net id) — typically from
/// `varitune_netlist::random_activity` run on the mapped netlist. The
/// `config.activity` constant is ignored.
///
/// # Errors
///
/// Returns [`StaError`] as [`estimate_power`] does, and
/// [`StaError::MismatchedInput`] when `activity` is shorter than the net
/// count (one value per net is required).
pub fn estimate_power_with_activity(
    design: &MappedDesign,
    lib: &Library,
    report: &TimingReport,
    config: &PowerConfig,
    activity: &[f64],
) -> Result<PowerReport, StaError> {
    if activity.len() < design.netlist.net_count() {
        return Err(StaError::MismatchedInput {
            reason: format!(
                "activity vector covers {} nets but the design has {}",
                activity.len(),
                design.netlist.net_count()
            ),
        });
    }
    estimate(design, lib, report, config, Some(activity))
}

fn estimate(
    design: &MappedDesign,
    lib: &Library,
    report: &TimingReport,
    config: &PowerConfig,
    activity: Option<&[f64]>,
) -> Result<PowerReport, StaError> {
    if report.nets.len() < design.netlist.net_count() {
        return Err(StaError::MismatchedInput {
            reason: format!(
                "timing report covers {} nets but the design has {}",
                report.nets.len(),
                design.netlist.net_count()
            ),
        });
    }
    let freq_ghz = 1.0 / config.clock_period;
    let v2 = config.voltage * config.voltage;

    let mut internal = 0.0;
    let mut switching = 0.0;
    let mut leakage = 0.0;
    for gi in 0..design.netlist.gate_count() {
        let cell = design
            .cell_of(gi, lib)
            .ok_or_else(|| StaError::UnknownCell {
                gate: gi,
                name: design.cell_label(gi, lib),
            })?;
        // nW -> mW.
        leakage += cell.leakage_power * 1e-6;
        for (j, &out) in design.netlist.gate_outputs(gi).iter().enumerate() {
            let t = report.nets[out.0 as usize];
            let net_activity = activity.map_or(config.activity, |a| a[out.0 as usize]);
            let events_per_ns = net_activity * freq_ghz;
            // pJ/event * events/ns = mW.
            switching += 0.5 * t.load * v2 * events_per_ns;
            if let Some(pin) = cell.output_pins().nth(j) {
                for group in &pin.internal_power {
                    if group.rise_power.is_none() && group.fall_power.is_none() {
                        continue;
                    }
                    let e = group.average_energy(t.crit_input_slew, t.load)?;
                    // Activity is shared across the pin's power groups so a
                    // multi-input cell is not double-counted.
                    internal += e * events_per_ns / pin.internal_power.len().max(1) as f64;
                }
            }
        }
    }
    Ok(PowerReport {
        internal,
        switching,
        leakage,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{analyze, StaConfig};
    use crate::mapped::WireModel;
    use varitune_libchar::{generate_nominal, GenerateConfig};
    use varitune_netlist::{GateKind, Netlist};

    fn chain(n: usize, cell: &str) -> MappedDesign {
        let mut nl = Netlist::new("chain");
        let mut prev = nl.add_input("a");
        for i in 0..n {
            let z = nl.add_net(format!("n{i}"));
            nl.add_gate(GateKind::Inv, &[prev], &[z]);
            prev = z;
        }
        nl.mark_output(prev);
        let lib = generate_nominal(&GenerateConfig::small_for_tests());
        MappedDesign::from_names(nl, &vec![cell; n], &lib, WireModel::default()).unwrap()
    }

    fn power_of(design: &MappedDesign, period: f64) -> PowerReport {
        let lib = generate_nominal(&GenerateConfig::small_for_tests());
        let report = analyze(design, &lib, &StaConfig::with_clock_period(period)).unwrap();
        estimate_power(
            design,
            &lib,
            &report,
            &PowerConfig::with_clock_period(period),
        )
        .unwrap()
    }

    #[test]
    fn all_components_are_positive() {
        let p = power_of(&chain(6, "INV_2"), 5.0);
        assert!(p.internal > 0.0);
        assert!(p.switching > 0.0);
        assert!(p.leakage > 0.0);
        assert!((p.total() - (p.internal + p.switching + p.leakage)).abs() < 1e-15);
    }

    #[test]
    fn more_gates_burn_more_power() {
        let short = power_of(&chain(4, "INV_2"), 5.0);
        let long = power_of(&chain(16, "INV_2"), 5.0);
        assert!(long.total() > 2.0 * short.total());
    }

    #[test]
    fn faster_clock_burns_more_dynamic_power() {
        let slow = power_of(&chain(8, "INV_2"), 10.0);
        let fast = power_of(&chain(8, "INV_2"), 2.5);
        assert!(fast.internal > slow.internal);
        assert!(fast.switching > slow.switching);
        // Leakage is frequency independent.
        assert!((fast.leakage - slow.leakage).abs() < 1e-12);
    }

    #[test]
    fn bigger_cells_leak_and_switch_more() {
        let small = power_of(&chain(8, "INV_1"), 5.0);
        let big = power_of(&chain(8, "INV_8"), 5.0);
        assert!(big.leakage > small.leakage);
        assert!(big.total() > small.total());
    }

    #[test]
    fn measured_activity_replaces_the_blanket_constant() {
        let lib = generate_nominal(&GenerateConfig::small_for_tests());
        let d = chain(6, "INV_2");
        let report = analyze(&d, &lib, &StaConfig::with_clock_period(5.0)).unwrap();
        let cfg = PowerConfig::with_clock_period(5.0);
        // An idle design (all nets quiet) burns only leakage.
        let quiet = vec![0.0; d.netlist.net_count()];
        let p = estimate_power_with_activity(&d, &lib, &report, &cfg, &quiet).unwrap();
        assert_eq!(p.internal, 0.0);
        assert_eq!(p.switching, 0.0);
        assert!(p.leakage > 0.0);
        // Full toggling beats the 0.1 blanket constant.
        let busy = vec![1.0; d.netlist.net_count()];
        let pb = estimate_power_with_activity(&d, &lib, &report, &cfg, &busy).unwrap();
        let blanket = estimate_power(&d, &lib, &report, &cfg).unwrap();
        assert!(pb.total() > blanket.total());
    }

    #[test]
    fn simulated_activity_feeds_power_end_to_end() {
        let lib = generate_nominal(&GenerateConfig::small_for_tests());
        let d = chain(6, "INV_2");
        let report = analyze(&d, &lib, &StaConfig::with_clock_period(5.0)).unwrap();
        let cfg = PowerConfig::with_clock_period(5.0);
        let activity =
            varitune_netlist::random_activity(&d.netlist, 128, 3).expect("valid netlist");
        let p = estimate_power_with_activity(&d, &lib, &report, &cfg, &activity.per_net).unwrap();
        // An inverter chain fed with random bits toggles heavily, so the
        // measured-activity estimate exceeds the 0.1 blanket one.
        let blanket = estimate_power(&d, &lib, &report, &cfg).unwrap();
        assert!(
            p.internal > blanket.internal,
            "{} vs {}",
            p.internal,
            blanket.internal
        );
    }

    #[test]
    fn unknown_cell_is_reported() {
        let lib = generate_nominal(&GenerateConfig::small_for_tests());
        let mut d = chain(2, "INV_1");
        let report = analyze(&d, &lib, &StaConfig::with_clock_period(5.0)).unwrap();
        d.cells[0] = varitune_liberty::CellId(u32::MAX);
        let err =
            estimate_power(&d, &lib, &report, &PowerConfig::with_clock_period(5.0)).unwrap_err();
        assert!(matches!(err, StaError::UnknownCell { .. }));
    }
}
