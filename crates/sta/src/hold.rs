//! Hold (min-delay) analysis.
//!
//! Setup analysis asks "does the slowest path arrive before the next
//! edge?"; hold analysis asks "does the fastest path arrive *after* the
//! capturing flip-flop has safely latched the previous value?". With an
//! ideal (skew-free) clock the check at every flip-flop data input is
//! `min_arrival ≥ hold_time`.
//!
//! Hold robustness matters to the paper's story: local variation makes
//! fast outliers as well as slow ones, so a design squeezed only for setup
//! can fail hold on a fast die. The min-delay propagation mirrors
//! [`crate::graph::analyze`] with minima everywhere: earliest arrivals,
//! fastest (minimum) arc delays, and the *steepest* slew (which produces
//! the smallest delays, making the check conservative).

use varitune_liberty::{Cell, Library};
use varitune_netlist::NetId;

use crate::graph::{GateArcs, StaConfig, StaError};
use crate::mapped::MappedDesign;

/// Hold-check configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct HoldConfig {
    /// Hold requirement of capturing flip-flops (ns).
    pub hold_time: f64,
    /// Transition assumed on primary inputs (ns).
    pub input_slew: f64,
    /// Clock transition at flip-flop clock pins (ns).
    pub clock_slew: f64,
}

impl Default for HoldConfig {
    fn default() -> Self {
        Self {
            hold_time: 0.02,
            input_slew: 0.05,
            clock_slew: 0.03,
        }
    }
}

impl From<&StaConfig> for HoldConfig {
    fn from(c: &StaConfig) -> Self {
        Self {
            input_slew: c.input_slew,
            clock_slew: c.clock_slew,
            ..Self::default()
        }
    }
}

/// One hold endpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct HoldEndpoint {
    /// The flip-flop data net checked.
    pub net: NetId,
    /// Capturing flip-flop gate index.
    pub gate: usize,
    /// Earliest data arrival (ns).
    pub min_arrival: f64,
    /// Hold requirement (ns).
    pub hold_time: f64,
}

impl HoldEndpoint {
    /// Hold slack = earliest arrival − hold time.
    pub fn slack(&self) -> f64 {
        self.min_arrival - self.hold_time
    }
}

/// Result of [`analyze_hold`].
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct HoldReport {
    /// Earliest arrival per net (ns); `+inf` for unreached nets.
    pub min_arrivals: Vec<f64>,
    /// All flip-flop hold endpoints.
    pub endpoints: Vec<HoldEndpoint>,
}

impl HoldReport {
    /// Worst (smallest) hold slack; `+inf` with no endpoints.
    pub fn worst_slack(&self) -> f64 {
        self.endpoints
            .iter()
            .map(HoldEndpoint::slack)
            .fold(f64::INFINITY, f64::min)
    }

    /// Whether every endpoint meets hold.
    pub fn meets_hold(&self) -> bool {
        self.worst_slack() >= 0.0
    }
}

/// Runs min-delay (hold) analysis of `design` against `lib`.
///
/// # Errors
///
/// Returns [`StaError`] under the same conditions as
/// [`crate::graph::analyze`], [`StaError::MismatchedInput`] among them.
pub fn analyze_hold(
    design: &MappedDesign,
    lib: &Library,
    config: &HoldConfig,
) -> Result<HoldReport, StaError> {
    design.check_library(lib)?;
    let order = design.netlist.comb_order()?;
    let (nl, cells) = (&design.netlist, &design.cells);
    let loads = design.net_loads(lib);
    let cell_of = |gi: usize| -> Option<&Cell> { lib.cells.get(cells[gi].index()) };
    let unknown = |gi: usize| StaError::UnknownCell {
        gate: gi,
        name: format!("cell#{}", cells[gi].0),
    };

    let mut arrival = vec![f64::INFINITY; nl.net_count()];
    let mut slew = vec![0.0f64; nl.net_count()];
    for &pi in &nl.primary_inputs {
        arrival[pi.0 as usize] = 0.0;
        slew[pi.0 as usize] = config.input_slew;
    }
    for gi in 0..nl.gate_count() {
        if !nl.gate_kind(gi).is_sequential() {
            continue;
        }
        let arcs = GateArcs::new(gi, cell_of(gi).ok_or_else(|| unknown(gi))?);
        for (j, &out) in nl.gate_outputs(gi).iter().enumerate() {
            let arc = arcs.launch(arcs.output(j)?)?;
            let load = loads[out.0 as usize];
            arrival[out.0 as usize] = arc.best_delay(config.clock_slew, load)?;
            slew[out.0 as usize] = arc.best_transition(config.clock_slew, load)?;
        }
    }

    for gi in order {
        let arcs = GateArcs::new(gi, cell_of(gi).ok_or_else(|| unknown(gi))?);
        for (j, &out) in nl.gate_outputs(gi).iter().enumerate() {
            let pin = arcs.output(j)?;
            let load = loads[out.0 as usize];
            let mut best_arr = f64::INFINITY;
            let mut best_slew = f64::INFINITY;
            for (k, &inp) in nl.gate_inputs(gi).iter().enumerate() {
                let arc = arcs.input_arc(pin, k)?;
                let d = arc.best_delay(slew[inp.0 as usize], load)?;
                let a = arrival[inp.0 as usize] + d;
                if a < best_arr {
                    best_arr = a;
                    best_slew = arc.best_transition(slew[inp.0 as usize], load)?;
                }
            }
            arrival[out.0 as usize] = best_arr;
            slew[out.0 as usize] = best_slew;
        }
    }

    // The hold requirement comes from the capturing flip-flop's
    // characterized HoldRising arc when present.
    let mut endpoints = Vec::new();
    for gi in 0..nl.gate_count() {
        if nl.gate_kind(gi).is_sequential() {
            let Some(&d) = nl.gate_inputs(gi).first() else {
                return Err(StaError::MalformedGate {
                    gate: gi,
                    reason: "sequential gate has no data input".into(),
                });
            };
            let hold_time = cell_of(gi)
                .and_then(|cell| {
                    crate::graph::constraint_of(
                        cell,
                        varitune_liberty::TimingType::HoldRising,
                        slew[d.0 as usize],
                        config.clock_slew,
                    )
                })
                .unwrap_or(config.hold_time);
            endpoints.push(HoldEndpoint {
                net: d,
                gate: gi,
                min_arrival: arrival[d.0 as usize],
                hold_time,
            });
        }
    }
    Ok(HoldReport {
        min_arrivals: arrival,
        endpoints,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{analyze, StaConfig};
    use crate::mapped::WireModel;
    use varitune_libchar::{generate_nominal, GenerateConfig};
    use varitune_netlist::{GateKind, Netlist};

    fn lib() -> Library {
        generate_nominal(&GenerateConfig::small_for_tests())
    }

    /// FF -> [n inverters] -> FF.
    fn reg_chain(n: usize) -> MappedDesign {
        let mut nl = Netlist::new("regchain");
        let d0 = nl.add_input("d0");
        let q0 = nl.add_net("q0");
        nl.add_gate(GateKind::Dff, &[d0], &[q0]);
        let mut prev = q0;
        let mut names = vec!["DF_1".to_string()];
        for i in 0..n {
            let z = nl.add_net(format!("n{i}"));
            nl.add_gate(GateKind::Inv, &[prev], &[z]);
            names.push("INV_2".to_string());
            prev = z;
        }
        let q1 = nl.add_net("q1");
        nl.add_gate(GateKind::Dff, &[prev], &[q1]);
        names.push("DF_1".to_string());
        nl.mark_output(q1);
        MappedDesign::from_names(nl, &names, &lib(), WireModel::default()).unwrap()
    }

    #[test]
    fn min_arrival_below_max_arrival() {
        let lib = lib();
        let d = reg_chain(4);
        let hold = analyze_hold(&d, &lib, &HoldConfig::default()).unwrap();
        let setup = analyze(&d, &lib, &StaConfig::with_clock_period(5.0)).unwrap();
        for (i, &min_a) in hold.min_arrivals.iter().enumerate() {
            if min_a.is_finite() && setup.nets[i].arrival.is_finite() {
                assert!(
                    min_a <= setup.nets[i].arrival + 1e-12,
                    "net {i}: min {min_a} > max {}",
                    setup.nets[i].arrival
                );
            }
        }
    }

    /// The capturing (second) flip-flop's endpoint: the launching FF's D
    /// hangs on a primary input with arrival 0, which correctly fails any
    /// positive hold requirement (real flows constrain it with an input
    /// delay), so the FF-to-FF transfer is the interesting check.
    fn capture_slack(r: &HoldReport) -> f64 {
        r.endpoints
            .iter()
            .max_by_key(|e| e.gate)
            .expect("two flip-flops")
            .slack()
    }

    #[test]
    fn buffered_transfer_meets_hold_pi_endpoint_does_not() {
        let lib = lib();
        // A few inverters of delay comfortably beat a ~12 ps hold time.
        let buffered = analyze_hold(&reg_chain(4), &lib, &HoldConfig::default()).unwrap();
        assert!(
            capture_slack(&buffered) > 0.0,
            "{}",
            capture_slack(&buffered)
        );
        // The unconstrained primary-input endpoint reports a violation —
        // the conservative (correct) answer.
        assert!(!buffered.meets_hold());
    }

    #[test]
    fn characterized_hold_arc_overrides_the_config_constant() {
        let lib = lib();
        // A config with an absurd constant is ignored when the capturing
        // flip-flop carries a HoldRising arc; the library wins.
        let harsh = HoldConfig {
            hold_time: 10.0,
            ..HoldConfig::default()
        };
        let r = analyze_hold(&reg_chain(4), &lib, &harsh).unwrap();
        let ep = r.endpoints.iter().max_by_key(|e| e.gate).expect("two FFs");
        assert!(
            ep.hold_time < 0.1,
            "characterized hold {} should replace the 10 ns constant",
            ep.hold_time
        );
        // Strip the constraint arcs and the constant applies again.
        let mut bare = lib.clone();
        for cell in &mut bare.cells {
            for pin in &mut cell.pins {
                pin.timing
                    .retain(|a| a.timing_type != varitune_liberty::TimingType::HoldRising);
            }
        }
        let r2 = analyze_hold(&reg_chain(4), &bare, &harsh).unwrap();
        let ep2 = r2.endpoints.iter().max_by_key(|e| e.gate).expect("two FFs");
        assert_eq!(ep2.hold_time, 10.0);
        assert!(ep2.slack() < 0.0);
    }

    #[test]
    fn hold_endpoints_cover_every_ff() {
        let lib = lib();
        let d = reg_chain(3);
        let r = analyze_hold(&d, &lib, &HoldConfig::default()).unwrap();
        assert_eq!(r.endpoints.len(), 2);
        for ep in &r.endpoints {
            assert!(ep.min_arrival.is_finite());
        }
    }

    #[test]
    fn hold_slack_grows_with_path_depth() {
        let lib = lib();
        let short = analyze_hold(&reg_chain(1), &lib, &HoldConfig::default()).unwrap();
        let long = analyze_hold(&reg_chain(8), &lib, &HoldConfig::default()).unwrap();
        assert!(capture_slack(&long) > capture_slack(&short));
    }

    #[test]
    fn reconvergence_takes_the_fastest_branch() {
        let lib = lib();
        // q0 fans out to a long and a short branch reconverging at a NAND;
        // the min arrival at the NAND output must follow the short branch.
        let mut nl = Netlist::new("reconv");
        let d0 = nl.add_input("d0");
        let q0 = nl.add_net("q0");
        nl.add_gate(GateKind::Dff, &[d0], &[q0]);
        let mut names = vec!["DF_1".to_string()];
        // Long branch: 4 inverters.
        let mut prev = q0;
        for i in 0..4 {
            let z = nl.add_net(format!("l{i}"));
            nl.add_gate(GateKind::Inv, &[prev], &[z]);
            names.push("INV_2".into());
            prev = z;
        }
        let merge = nl.add_net("merge");
        nl.add_gate(GateKind::Nand, &[prev, q0], &[merge]);
        names.push("ND2_2".into());
        let q1 = nl.add_net("q1");
        nl.add_gate(GateKind::Dff, &[merge], &[q1]);
        names.push("DF_1".into());
        let d = MappedDesign::from_names(nl, &names, &lib, WireModel::default()).unwrap();
        let hold = analyze_hold(&d, &lib, &HoldConfig::default()).unwrap();
        let setup = analyze(&d, &lib, &StaConfig::with_clock_period(5.0)).unwrap();
        let merge_idx = 6; // q0=1, l0..l3=2..5, merge=6
        assert!(
            hold.min_arrivals[merge_idx] < setup.nets[merge_idx].arrival,
            "min {} should undercut max {}",
            hold.min_arrivals[merge_idx],
            setup.nets[merge_idx].arrival
        );
    }
}
