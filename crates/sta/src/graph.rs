//! Arrival/slew propagation over the mapped design.
//!
//! The timing graph is the netlist itself: primary inputs and flip-flop
//! outputs launch, combinational gates propagate in topological order, and
//! flip-flop data inputs / primary outputs capture. Cell delays and output
//! transitions come from the library LUTs via bilinear interpolation at the
//! (input slew, output load) operating point, exactly as §V describes.

use std::error::Error;
use std::fmt;

use varitune_liberty::{Cell, InterpolateError, Library, Pin, TimingArc, TimingType};
use varitune_netlist::{NetId, ValidateNetlistError};

use crate::engine::TimingGraph;
use crate::mapped::MappedDesign;

/// Analysis configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct StaConfig {
    /// Target clock period (ns).
    pub clock_period: f64,
    /// Clock uncertainty / guard band subtracted from the period (ns); the
    /// paper uses 300 ps on the 2.41 ns design.
    pub clock_uncertainty: f64,
    /// Transition assumed on primary inputs (ns).
    pub input_slew: f64,
    /// Transition of the (ideal) clock at flip-flop clock pins (ns).
    pub clock_slew: f64,
    /// Setup requirement of capturing flip-flops (ns).
    pub setup_time: f64,
}

impl StaConfig {
    /// Configuration with the given clock period and conventional defaults
    /// for everything else.
    pub fn with_clock_period(clock_period: f64) -> Self {
        Self {
            clock_period,
            clock_uncertainty: 0.0,
            input_slew: 0.05,
            clock_slew: 0.03,
            setup_time: 0.045,
        }
    }

    /// The effective period seen by endpoints:
    /// `clock_period - clock_uncertainty`.
    pub fn effective_period(&self) -> f64 {
        self.clock_period - self.clock_uncertainty
    }

    /// Rejects a NaN in any field: every required time, slew or setup
    /// derived from it would be NaN, and a NaN slack compares as neither
    /// met nor violated. Infinite values stay valid.
    pub(crate) fn check(&self) -> Result<(), StaError> {
        let fields = [
            ("clock_period", self.clock_period),
            ("clock_uncertainty", self.clock_uncertainty),
            ("input_slew", self.input_slew),
            ("clock_slew", self.clock_slew),
            ("setup_time", self.setup_time),
        ];
        match fields.iter().find(|(_, v)| v.is_nan()) {
            Some((name, _)) => Err(StaError::InvalidParameter {
                reason: format!("StaConfig::{name} is NaN"),
            }),
            None => Ok(()),
        }
    }
}

impl Default for StaConfig {
    fn default() -> Self {
        Self::with_clock_period(2.41)
    }
}

/// Error from timing analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum StaError {
    /// The netlist failed structural validation.
    Netlist(ValidateNetlistError),
    /// A gate is mapped to a cell name absent from the library.
    UnknownCell {
        /// Gate index.
        gate: usize,
        /// The unresolved cell name.
        name: String,
    },
    /// The mapped cell has no timing arc for a needed (input, output) pair.
    MissingArc {
        /// Gate index.
        gate: usize,
        /// Cell name.
        cell: String,
    },
    /// LUT evaluation failed.
    Interpolate(InterpolateError),
    /// A gate's pin structure is inconsistent with its role in the design.
    MalformedGate {
        /// Gate index.
        gate: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// A sign-off input (timing report, activity vector) does not belong
    /// to the design it was passed with.
    MismatchedInput {
        /// What was inconsistent.
        reason: String,
    },
    /// A caller-supplied statistical parameter (yield target, sample
    /// count, tolerance) is outside its valid domain. Statistical
    /// quantities are data, not invariants — they must never panic.
    InvalidParameter {
        /// Which parameter, and what its valid domain is.
        reason: String,
    },
}

impl fmt::Display for StaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StaError::Netlist(e) => write!(f, "invalid netlist: {e}"),
            StaError::UnknownCell { gate, name } => {
                write!(f, "gate #{gate} mapped to unknown cell `{name}`")
            }
            StaError::MissingArc { gate, cell } => {
                write!(f, "gate #{gate} ({cell}) lacks a required timing arc")
            }
            StaError::Interpolate(e) => write!(f, "table evaluation failed: {e}"),
            StaError::MalformedGate { gate, reason } => {
                write!(f, "gate #{gate} is malformed: {reason}")
            }
            StaError::MismatchedInput { reason } => {
                write!(f, "sign-off input mismatch: {reason}")
            }
            StaError::InvalidParameter { reason } => {
                write!(f, "invalid parameter: {reason}")
            }
        }
    }
}

impl Error for StaError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StaError::Netlist(e) => Some(e),
            StaError::Interpolate(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ValidateNetlistError> for StaError {
    fn from(e: ValidateNetlistError) -> Self {
        StaError::Netlist(e)
    }
}

impl From<InterpolateError> for StaError {
    fn from(e: InterpolateError) -> Self {
        StaError::Interpolate(e)
    }
}

/// Timing state of one net after propagation.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct NetTiming {
    /// Worst arrival time at the net (ns); 0 for primary inputs.
    pub arrival: f64,
    /// Transition at the net (ns).
    pub slew: f64,
    /// Capacitive load on the net (pF).
    pub load: f64,
    /// Driving gate index (`None` for primary inputs).
    pub driver: Option<usize>,
    /// Output-pin position on the driver.
    pub out_pin: usize,
    /// Critical input position on the driver (`None` for launch points).
    pub crit_input: Option<usize>,
    /// Cell delay of the driver's critical arc at the operating point (ns).
    pub cell_delay: f64,
    /// Input slew that produced the critical arc delay (ns).
    pub crit_input_slew: f64,
}

impl NetTiming {
    pub(crate) fn unpropagated() -> Self {
        Self {
            arrival: f64::NEG_INFINITY,
            slew: 0.0,
            load: 0.0,
            driver: None,
            out_pin: 0,
            crit_input: None,
            cell_delay: 0.0,
            crit_input_slew: 0.0,
        }
    }
}

/// Kind of timing endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum EndpointKind {
    /// Data input of a flip-flop (setup check).
    FlipFlopData {
        /// Index of the capturing flip-flop gate.
        gate: usize,
    },
    /// Primary output.
    PrimaryOutput,
}

/// One timing endpoint with its slack.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Endpoint {
    /// Captured net.
    pub net: NetId,
    /// Endpoint kind.
    pub kind: EndpointKind,
    /// Data arrival (ns).
    pub arrival: f64,
    /// Required time (ns).
    pub required: f64,
}

impl Endpoint {
    /// Slack = required − arrival.
    pub fn slack(&self) -> f64 {
        self.required - self.arrival
    }
}

/// Result of [`analyze`].
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TimingReport {
    /// Configuration the analysis ran with.
    pub config: StaConfig,
    /// Per-net timing state.
    pub nets: Vec<NetTiming>,
    /// All endpoints (one per flip-flop D input and per primary output).
    pub endpoints: Vec<Endpoint>,
}

impl TimingReport {
    /// Worst (smallest) slack across all endpoints; `+inf` if there are no
    /// endpoints.
    pub fn worst_slack(&self) -> f64 {
        self.endpoints
            .iter()
            .map(Endpoint::slack)
            .fold(f64::INFINITY, f64::min)
    }

    /// Whether every endpoint meets timing.
    pub fn meets_timing(&self) -> bool {
        self.worst_slack() >= 0.0
    }

    /// Endpoints sorted most-critical first. Uses [`f64::total_cmp`], so
    /// the order is deterministic even when slacks tie or are NaN.
    pub fn critical_endpoints(&self) -> Vec<&Endpoint> {
        let mut v: Vec<&Endpoint> = self.endpoints.iter().collect();
        v.sort_by(|a, b| a.slack().total_cmp(&b.slack()));
        v
    }
}

/// Runs static timing analysis of `design` against `lib`.
///
/// This is one [`TimingGraph`] build over a clone of `design`: the
/// interned graph is built, every gate is marked dirty once, and the
/// dirty-cone machinery degenerates to a complete levelized sweep. Results
/// are bit-identical to what the engine reports after any equivalent
/// sequence of incremental edits. Like any build, it takes a fresh graph
/// id, so it releases the statistical state
/// [`crate::ssta::analyze_ssta`] retains.
///
/// # Errors
///
/// Returns [`StaError`] if the netlist is structurally invalid, a gate maps
/// to an unknown cell, a required timing arc is missing, or LUT evaluation
/// fails; [`StaError::InvalidParameter`] if a `config` field is NaN or
/// `design.cells` does not hold exactly one cell id per gate.
pub fn analyze(
    design: &MappedDesign,
    lib: &Library,
    config: &StaConfig,
) -> Result<TimingReport, StaError> {
    TimingGraph::new(design.clone(), lib, config).map(TimingGraph::into_report)
}

/// Evaluates a flip-flop data pin's constraint arc (setup or hold) at
/// `(data_slew, clock_slew)`. Constraint tables index the clock slew on
/// the LUT's load axis. Returns `None` when the cell has no such arc.
pub(crate) fn constraint_of(
    cell: &varitune_liberty::Cell,
    kind: TimingType,
    data_slew: f64,
    clock_slew: f64,
) -> Option<f64> {
    let d_pin = cell
        .input_pins()
        .find(|p| p.timing.iter().any(|a| a.timing_type == kind))?;
    let arc = d_pin.timing.iter().find(|a| a.timing_type == kind)?;
    arc.worst_delay(data_slew, clock_slew).ok()
}

/// A gate's arcs in its cell, looked up the one way the timing engine, the
/// SSTA model, hold, SDF and required times all read them: the gate's
/// output `j` is the cell's `j`-th output pin, its input `k` is the cell's
/// `k`-th input pin, and the arc from input `k` is the output pin's first
/// arc related to that pin. A pin or arc that is not there is
/// [`StaError::MissingArc`].
#[derive(Clone, Copy)]
pub(crate) struct GateArcs<'l> {
    gate: usize,
    cell: &'l Cell,
}

impl<'l> GateArcs<'l> {
    pub(crate) fn new(gate: usize, cell: &'l Cell) -> Self {
        Self { gate, cell }
    }

    fn missing(self) -> StaError {
        StaError::MissingArc {
            gate: self.gate,
            cell: self.cell.name.clone(),
        }
    }

    /// The pin behind the gate's output `j`.
    pub(crate) fn output(self, j: usize) -> Result<&'l Pin, StaError> {
        self.cell.output_pins().nth(j).ok_or_else(|| self.missing())
    }

    /// The launch (clock-to-output) arc of a sequential cell's output pin:
    /// its first arc.
    pub(crate) fn launch(self, pin: &'l Pin) -> Result<&'l TimingArc, StaError> {
        pin.timing.first().ok_or_else(|| self.missing())
    }

    /// The arc on output pin `pin` from the gate's input `k`.
    pub(crate) fn input_arc(self, pin: &'l Pin, k: usize) -> Result<&'l TimingArc, StaError> {
        self.cell
            .input_pins()
            .nth(k)
            .and_then(|input| pin.timing.iter().find(|a| a.related_pin == input.name))
            .ok_or_else(|| self.missing())
    }

    /// Every arc a gate with `n_in` inputs and `n_out` outputs reads, in
    /// the timing engine's order: a sequential cell's launch arc per
    /// output, else output-major the arc from each input. A combinational
    /// cell with fewer input pins than the gate has inputs is
    /// [`StaError::MissingArc`] even when the gate drives nothing.
    pub(crate) fn all(
        self,
        n_in: usize,
        n_out: usize,
        seq: bool,
    ) -> Result<Vec<&'l TimingArc>, StaError> {
        if seq {
            return (0..n_out).map(|j| self.launch(self.output(j)?)).collect();
        }
        if self.cell.input_pins().count() < n_in {
            return Err(self.missing());
        }
        let mut arcs = Vec::with_capacity(n_out * n_in);
        for j in 0..n_out {
            let pin = self.output(j)?;
            for k in 0..n_in {
                arcs.push(self.input_arc(pin, k)?);
            }
        }
        Ok(arcs)
    }
}

/// Backward required-time propagation: the latest time each net may switch
/// and still meet every downstream endpoint. Per-gate slack is then
/// `required[out] - arrival[out]`, which the synthesis optimizer uses for
/// area recovery.
///
/// Nets with no path to any endpoint get `+inf` (unconstrained).
///
/// # Errors
///
/// Returns [`StaError`] under the same conditions as [`analyze`].
pub fn required_times(
    design: &MappedDesign,
    lib: &Library,
    report: &TimingReport,
) -> Result<Vec<f64>, StaError> {
    design.check_library(lib)?;
    let nl = &design.netlist;
    let mut req = vec![f64::INFINITY; nl.net_count()];
    for ep in &report.endpoints {
        let r = &mut req[ep.net.0 as usize];
        *r = r.min(ep.required);
    }
    // Reverse topological order over combinational gates.
    for &gi in nl.comb_order()?.iter().rev() {
        let cell = design
            .cell_of(gi, lib)
            .ok_or_else(|| StaError::UnknownCell {
                gate: gi,
                name: design.cell_label(gi, lib),
            })?;
        let arcs = GateArcs::new(gi, cell);
        for (j, &out) in nl.gate_outputs(gi).iter().enumerate() {
            let out_req = req[out.0 as usize];
            if !out_req.is_finite() {
                continue;
            }
            let pin = arcs.output(j)?;
            let load = report.nets[out.0 as usize].load;
            for (k, &inp) in nl.gate_inputs(gi).iter().enumerate() {
                let arc = arcs.input_arc(pin, k)?;
                let delay = arc.worst_delay(report.nets[inp.0 as usize].slew, load)?;
                let r = &mut req[inp.0 as usize];
                *r = r.min(out_req - delay);
            }
        }
    }
    Ok(req)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapped::WireModel;
    use varitune_libchar::{generate_nominal, GenerateConfig};
    use varitune_netlist::{GateKind, Netlist};

    fn lib() -> Library {
        generate_nominal(&GenerateConfig::small_for_tests())
    }

    /// inv chain: a -> inv -> inv -> ... -> out, all INV_2.
    fn chain(n: usize) -> MappedDesign {
        let mut nl = Netlist::new("chain");
        let mut prev = nl.add_input("a");
        for i in 0..n {
            let z = nl.add_net(format!("n{i}"));
            nl.add_gate(GateKind::Inv, &[prev], &[z]);
            prev = z;
        }
        nl.mark_output(prev);
        MappedDesign::from_names(nl, &vec!["INV_2"; n], &lib(), WireModel::default()).unwrap()
    }

    #[test]
    fn longer_chain_has_larger_arrival() {
        let lib = lib();
        let cfg = StaConfig::with_clock_period(10.0);
        let a3 = analyze(&chain(3), &lib, &cfg).unwrap();
        let a9 = analyze(&chain(9), &lib, &cfg).unwrap();
        let po3 = a3.endpoints.last().unwrap().arrival;
        let po9 = a9.endpoints.last().unwrap().arrival;
        assert!(po9 > po3 * 2.0, "{po9} vs {po3}");
    }

    #[test]
    fn slack_responds_to_clock_period() {
        let lib = lib();
        let d = chain(5);
        let fast = analyze(&d, &lib, &StaConfig::with_clock_period(0.01)).unwrap();
        let slow = analyze(&d, &lib, &StaConfig::with_clock_period(10.0)).unwrap();
        assert!(fast.worst_slack() < 0.0);
        assert!(slow.worst_slack() > 0.0);
        assert!(!fast.meets_timing());
        assert!(slow.meets_timing());
    }

    #[test]
    fn uncertainty_reduces_slack() {
        let lib = lib();
        let d = chain(5);
        let base = analyze(&d, &lib, &StaConfig::with_clock_period(2.0)).unwrap();
        let mut cfg = StaConfig::with_clock_period(2.0);
        cfg.clock_uncertainty = 0.3;
        let guarded = analyze(&d, &lib, &cfg).unwrap();
        assert!((base.worst_slack() - guarded.worst_slack() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn ff_to_ff_path_has_endpoints() {
        let lib = lib();
        let mut nl = Netlist::new("ff2ff");
        let d0 = nl.add_input("d0");
        let q0 = nl.add_net("q0");
        nl.add_gate(GateKind::Dff, &[d0], &[q0]);
        let x = nl.add_net("x");
        nl.add_gate(GateKind::Inv, &[q0], &[x]);
        let q1 = nl.add_net("q1");
        nl.add_gate(GateKind::Dff, &[x], &[q1]);
        nl.mark_output(q1);
        let d =
            MappedDesign::from_names(nl, &["DF_1", "INV_2", "DF_1"], &lib, WireModel::default())
                .unwrap();
        let r = analyze(&d, &lib, &StaConfig::with_clock_period(5.0)).unwrap();
        // Endpoints: two FF D-inputs + one PO.
        assert_eq!(r.endpoints.len(), 3);
        // The FF->inv->FF endpoint arrival includes clk-to-q plus inverter.
        let ep = r
            .endpoints
            .iter()
            .find(|e| matches!(e.kind, EndpointKind::FlipFlopData { gate: 2 }))
            .unwrap();
        assert!(ep.arrival > 0.0);
        let q0t = r.nets[1]; // q0 launched by FF
        assert!(q0t.arrival > 0.0);
        assert_eq!(q0t.driver, Some(0));
    }

    #[test]
    fn unknown_cell_is_reported() {
        let lib = lib();
        let mut d = chain(2);
        d.cells[1] = varitune_liberty::CellId(u32::MAX);
        let err = analyze(&d, &lib, &StaConfig::default()).unwrap_err();
        assert!(matches!(err, StaError::UnknownCell { gate: 1, .. }));
    }

    #[test]
    fn invalid_netlist_is_reported() {
        let lib = lib();
        let mut nl = Netlist::new("cyc");
        let a = nl.add_input("a");
        let x = nl.add_net("x");
        let y = nl.add_net("y");
        nl.add_gate(GateKind::Nand, &[a, y], &[x]);
        nl.add_gate(GateKind::Inv, &[x], &[y]);
        let d =
            MappedDesign::from_names(nl, &["ND2_1", "INV_1"], &lib, WireModel::default()).unwrap();
        assert!(matches!(
            analyze(&d, &lib, &StaConfig::default()),
            Err(StaError::Netlist(_))
        ));
    }

    #[test]
    fn bigger_drive_on_heavy_load_is_faster() {
        let lib = lib();
        // a -> INV(X) -> 8 sink inverters; compare X=1 vs X=8.
        let build = |drive: &str| {
            let mut nl = Netlist::new("fan");
            let a = nl.add_input("a");
            let x = nl.add_net("x");
            nl.add_gate(GateKind::Inv, &[a], &[x]);
            let mut names = vec![drive.to_string()];
            for i in 0..8 {
                let z = nl.add_net(format!("z{i}"));
                nl.add_gate(GateKind::Inv, &[x], &[z]);
                nl.mark_output(z);
                names.push("INV_2".into());
            }
            MappedDesign::from_names(nl, &names, &lib, WireModel::default()).unwrap()
        };
        let cfg = StaConfig::with_clock_period(10.0);
        let r1 = analyze(&build("INV_1"), &lib, &cfg).unwrap();
        let r8 = analyze(&build("INV_8"), &lib, &cfg).unwrap();
        assert!(r8.worst_slack() > r1.worst_slack());
    }

    #[test]
    fn critical_endpoints_sorted() {
        let lib = lib();
        let r = analyze(&chain(4), &lib, &StaConfig::with_clock_period(1.0)).unwrap();
        let eps = r.critical_endpoints();
        for w in eps.windows(2) {
            assert!(w[0].slack() <= w[1].slack());
        }
    }

    #[test]
    fn required_times_bound_arrivals_on_critical_path() {
        let lib = lib();
        let d = chain(5);
        let cfg = StaConfig::with_clock_period(2.0);
        let r = analyze(&d, &lib, &cfg).unwrap();
        let req = required_times(&d, &lib, &r).unwrap();
        // On a single chain every net is on the only path, so
        // slack(net) = req - arr is constant and equals the endpoint slack.
        let ep = r.endpoints[0];
        let end_slack = ep.slack();
        for (i, (rq, nt)) in req.iter().zip(&r.nets).enumerate() {
            let s = rq - nt.arrival;
            assert!(
                (s - end_slack).abs() < 1e-9,
                "net {i}: slack {s} vs endpoint {end_slack}"
            );
        }
    }

    #[test]
    fn unconstrained_net_has_infinite_required() {
        let lib = lib();
        // A dangling gate output feeds nothing and is not a PO.
        let mut nl = Netlist::new("dangle");
        let a = nl.add_input("a");
        let x = nl.add_net("x");
        nl.add_gate(GateKind::Inv, &[a], &[x]);
        let d = MappedDesign::from_names(nl, &["INV_1"], &lib, WireModel::default()).unwrap();
        let r = analyze(&d, &lib, &StaConfig::with_clock_period(1.0)).unwrap();
        let req = required_times(&d, &lib, &r).unwrap();
        assert_eq!(req[1], f64::INFINITY);
    }

    #[test]
    fn full_adder_outputs_time_separately() {
        let lib = generate_nominal(&GenerateConfig::full());
        let mut nl = Netlist::new("fa");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let s = nl.add_net("s");
        let co = nl.add_net("co");
        nl.add_gate(GateKind::FullAdder, &[a, b, c], &[s, co]);
        nl.mark_output(s);
        nl.mark_output(co);
        let d = MappedDesign::from_names(nl, &["AD2_2"], &lib, WireModel::default()).unwrap();
        let r = analyze(&d, &lib, &StaConfig::with_clock_period(5.0)).unwrap();
        let s_t = r.nets[3];
        let co_t = r.nets[4];
        assert!(s_t.arrival > co_t.arrival, "sum slower than carry");
        assert_eq!(s_t.out_pin, 0);
        assert_eq!(co_t.out_pin, 1);
    }
}
