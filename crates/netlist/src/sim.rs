//! Cycle-based logic simulation of a netlist.
//!
//! Drives the design with input vectors, evaluates the combinational logic
//! in topological order and clocks every flip-flop once per
//! [`Simulator::step`]. Two consumers in this workspace:
//!
//! * **functional sanity** of the generated designs (no undriven logic, no
//!   stuck nets — checked by tests),
//! * **switching-activity extraction**: per-net toggle rates feed the power
//!   analysis instead of a blanket activity constant.

use crate::ir::{GateKind, NetId, Netlist, ValidateNetlistError};

/// A cycle-based two-valued simulator.
///
/// # Example
///
/// ```
/// use varitune_netlist::{GateKind, Netlist, Simulator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut nl = Netlist::new("nand");
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let z = nl.add_net("z");
/// nl.add_gate(GateKind::Nand, &[a, b], &[z]);
/// let mut sim = Simulator::new(&nl)?;
/// sim.step(&[true, true]);
/// assert!(!sim.value(z));
/// sim.step(&[true, false]);
/// assert!(sim.value(z));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    netlist: &'a Netlist,
    /// Current logic value per net.
    values: Vec<bool>,
    /// Flip-flop state per gate (only sequential gates use their slot).
    ff_state: Vec<bool>,
    /// Combinational gate evaluation order.
    order: Vec<usize>,
    /// Toggle count per net since construction.
    toggles: Vec<u64>,
    /// Cycles simulated.
    cycles: u64,
}

impl<'a> Simulator<'a> {
    /// Prepares a simulator (validates the netlist and orders its
    /// combinational gates in one pass, [`Netlist::comb_order`]).
    ///
    /// # Errors
    ///
    /// Returns [`ValidateNetlistError`] if the netlist is structurally
    /// invalid.
    pub fn new(netlist: &'a Netlist) -> Result<Self, ValidateNetlistError> {
        let order = netlist.comb_order()?;
        Ok(Self {
            netlist,
            values: vec![false; netlist.net_count()],
            ff_state: vec![false; netlist.gate_count()],
            order,
            toggles: vec![0; netlist.net_count()],
            cycles: 0,
        })
    }

    /// Current value of a net.
    pub fn value(&self, net: NetId) -> bool {
        self.values[net.0 as usize]
    }

    /// Cycles simulated so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Advances one clock cycle: applies `inputs` (one bool per primary
    /// input, in [`Netlist::primary_inputs`] order), settles combinational
    /// logic, then clocks every flip-flop with the settled D values.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not match the primary-input count.
    pub fn step(&mut self, inputs: &[bool]) {
        assert_eq!(
            inputs.len(),
            self.netlist.primary_inputs.len(),
            "one value per primary input required"
        );
        let old = self.values.clone();

        for (&pi, &v) in self.netlist.primary_inputs.iter().zip(inputs) {
            self.values[pi.0 as usize] = v;
        }
        // Flip-flop outputs present last cycle's captured state.
        let nl = self.netlist;
        for gi in 0..nl.gate_count() {
            if nl.gate_kind(gi).is_sequential() {
                self.values[nl.gate_outputs(gi)[0].0 as usize] = self.ff_state[gi];
            }
        }
        // Settle combinational logic.
        for idx in 0..self.order.len() {
            let gi = self.order[idx];
            self.eval_gate(gi);
        }
        // Capture D for the next cycle.
        for gi in 0..nl.gate_count() {
            if nl.gate_kind(gi).is_sequential() {
                self.ff_state[gi] = self.values[nl.gate_inputs(gi)[0].0 as usize];
            }
        }
        // Account toggles.
        for (i, (&o, &n)) in old.iter().zip(&self.values).enumerate() {
            if o != n {
                self.toggles[i] += 1;
            }
        }
        self.cycles += 1;
    }

    fn eval_gate(&mut self, gi: usize) {
        // Reborrow through the 'a reference so `outputs` does not pin `self`.
        let netlist: &'a Netlist = self.netlist;
        let outputs = netlist.gate_outputs(gi);
        let v = |id: NetId| self.values[id.0 as usize];
        let ins: Vec<bool> = netlist.gate_inputs(gi).iter().map(|&i| v(i)).collect();
        match netlist.gate_kind(gi) {
            GateKind::Inv => self.set(outputs[0], !ins[0]),
            GateKind::Buf => self.set(outputs[0], ins[0]),
            GateKind::And => self.set(outputs[0], ins.iter().all(|&b| b)),
            GateKind::Or => self.set(outputs[0], ins.iter().any(|&b| b)),
            GateKind::Nand => self.set(outputs[0], !ins.iter().all(|&b| b)),
            GateKind::Nor => self.set(outputs[0], !ins.iter().any(|&b| b)),
            GateKind::Xor => self.set(outputs[0], ins[0] ^ ins[1]),
            GateKind::Xnor => self.set(outputs[0], !(ins[0] ^ ins[1])),
            GateKind::Mux2 => self.set(outputs[0], if ins[2] { ins[1] } else { ins[0] }),
            GateKind::Mux4 => {
                let sel = (ins[4] as usize) | ((ins[5] as usize) << 1);
                self.set(outputs[0], ins[sel]);
            }
            GateKind::HalfAdder => {
                self.set(outputs[0], ins[0] ^ ins[1]);
                self.set(outputs[1], ins[0] & ins[1]);
            }
            GateKind::FullAdder => {
                let s = ins[0] ^ ins[1] ^ ins[2];
                let c = (ins[0] & ins[1]) | (ins[2] & (ins[0] ^ ins[1]));
                self.set(outputs[0], s);
                self.set(outputs[1], c);
            }
            GateKind::Dff => { /* clocked in step() */ }
        }
    }

    fn set(&mut self, net: NetId, v: bool) {
        self.values[net.0 as usize] = v;
    }

    /// Per-net switching activity: toggles per simulated cycle.
    ///
    /// Returns an empty report before the first [`Simulator::step`].
    pub fn activity(&self) -> ActivityReport {
        let cycles = self.cycles.max(1) as f64;
        ActivityReport {
            per_net: self.toggles.iter().map(|&t| t as f64 / cycles).collect(),
            cycles: self.cycles,
        }
    }
}

/// Measured switching activity of a simulation run.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ActivityReport {
    /// Toggles per cycle for each net (indexed by [`NetId`]).
    pub per_net: Vec<f64>,
    /// Number of cycles the measurement covers.
    pub cycles: u64,
}

impl ActivityReport {
    /// Average activity across all nets.
    pub fn mean(&self) -> f64 {
        if self.per_net.is_empty() {
            return 0.0;
        }
        self.per_net.iter().sum::<f64>() / self.per_net.len() as f64
    }

    /// Activity of one net.
    pub fn of(&self, net: NetId) -> f64 {
        self.per_net[net.0 as usize]
    }
}

/// Runs `cycles` of simulation with deterministic pseudo-random input
/// vectors (xorshift on `seed`) and returns the measured activity.
///
/// # Errors
///
/// Returns [`ValidateNetlistError`] if the netlist is invalid.
pub fn random_activity(
    netlist: &Netlist,
    cycles: usize,
    seed: u64,
) -> Result<ActivityReport, ValidateNetlistError> {
    let mut sim = Simulator::new(netlist)?;
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    let n_in = netlist.primary_inputs.len();
    let mut inputs = vec![false; n_in];
    for _ in 0..cycles {
        for b in inputs.iter_mut() {
            *b = next() & 1 == 1;
        }
        // Tie nets stay tied if the design names them that way.
        for (k, &pi) in netlist.primary_inputs.iter().enumerate() {
            let name = netlist.net_name(pi);
            if name == "tie_one" {
                inputs[k] = true;
            } else if name == "tie_zero" {
                inputs[k] = false;
            }
        }
        sim.step(&inputs);
    }
    Ok(sim.activity())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{input_word, ripple_adder};
    use crate::mcu::{generate_mcu, McuConfig};

    #[test]
    fn adder_computes_correct_sums() {
        let mut nl = Netlist::new("add4");
        let a = input_word(&mut nl, "a", 4);
        let b = input_word(&mut nl, "b", 4);
        let cin = nl.add_input("cin");
        let (sum, cout) = ripple_adder(&mut nl, "add", &a, &b, cin);
        let mut sim = Simulator::new(&nl).unwrap();
        for (x, y) in [(3u32, 5u32), (15, 1), (9, 9), (0, 0), (7, 8)] {
            let mut inputs = Vec::new();
            for k in 0..4 {
                inputs.push(x >> k & 1 == 1);
            }
            for k in 0..4 {
                inputs.push(y >> k & 1 == 1);
            }
            inputs.push(false); // cin
            sim.step(&inputs);
            let mut got = 0u32;
            for (k, &s) in sum.iter().enumerate() {
                got |= (sim.value(s) as u32) << k;
            }
            got |= (sim.value(cout) as u32) << 4;
            assert_eq!(got, x + y, "{x} + {y}");
        }
    }

    #[test]
    fn dff_delays_by_one_cycle() {
        let mut nl = Netlist::new("ff");
        let d = nl.add_input("d");
        let q = nl.add_net("q");
        nl.add_gate(GateKind::Dff, &[d], &[q]);
        let mut sim = Simulator::new(&nl).unwrap();
        sim.step(&[true]);
        assert!(!sim.value(q), "q still shows reset state");
        sim.step(&[false]);
        assert!(sim.value(q), "q now shows the captured 1");
        sim.step(&[false]);
        assert!(!sim.value(q));
    }

    #[test]
    fn counter_counts() {
        // q <= q + 1 via half adder with carry-in tied high.
        let mut nl = Netlist::new("cnt2");
        let one = nl.add_input("tie_one");
        let q0 = nl.add_net("q0");
        let q1 = nl.add_net("q1");
        let s0 = nl.add_net("s0");
        let c0 = nl.add_net("c0");
        let s1 = nl.add_net("s1");
        let c1 = nl.add_net("c1");
        nl.add_gate(GateKind::HalfAdder, &[q0, one], &[s0, c0]);
        nl.add_gate(GateKind::HalfAdder, &[q1, c0], &[s1, c1]);
        nl.add_gate(GateKind::Dff, &[s0], &[q0]);
        nl.add_gate(GateKind::Dff, &[s1], &[q1]);
        let mut sim = Simulator::new(&nl).unwrap();
        let mut seen = Vec::new();
        for _ in 0..5 {
            sim.step(&[true]);
            seen.push((sim.value(q1) as u8) << 1 | sim.value(q0) as u8);
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 0], "wraps modulo 4");
    }

    #[test]
    fn mux4_selects_each_input() {
        let mut nl = Netlist::new("m4");
        let ins = input_word(&mut nl, "i", 4);
        let s0 = nl.add_input("s0");
        let s1 = nl.add_input("s1");
        let z = nl.add_net("z");
        nl.add_gate(
            GateKind::Mux4,
            &[ins[0], ins[1], ins[2], ins[3], s0, s1],
            &[z],
        );
        let mut sim = Simulator::new(&nl).unwrap();
        for sel in 0..4usize {
            // one-hot data: only the selected input is 1.
            let mut v = vec![false; 6];
            v[sel] = true;
            v[4] = sel & 1 == 1;
            v[5] = sel & 2 == 2;
            sim.step(&v);
            assert!(sim.value(z), "select {sel}");
        }
    }

    #[test]
    fn mcu_simulates_and_produces_activity() {
        let nl = generate_mcu(&McuConfig::small_for_tests());
        let activity = random_activity(&nl, 64, 9).unwrap();
        assert_eq!(activity.cycles, 64);
        let mean = activity.mean();
        assert!(
            mean > 0.01 && mean < 0.6,
            "mean activity {mean} out of plausible range"
        );
    }

    #[test]
    fn activity_is_deterministic_in_seed() {
        let nl = generate_mcu(&McuConfig::small_for_tests());
        let a = random_activity(&nl, 32, 5).unwrap();
        let b = random_activity(&nl, 32, 5).unwrap();
        let c = random_activity(&nl, 32, 6).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn constant_inputs_yield_zero_steady_activity() {
        // After settling, a design fed with constants stops toggling.
        let mut nl = Netlist::new("const");
        let a = nl.add_input("a");
        let x = nl.add_net("x");
        let y = nl.add_net("y");
        nl.add_gate(GateKind::Inv, &[a], &[x]);
        nl.add_gate(GateKind::Inv, &[x], &[y]);
        let mut sim = Simulator::new(&nl).unwrap();
        for _ in 0..10 {
            sim.step(&[true]);
        }
        let first = sim.activity();
        for _ in 0..10 {
            sim.step(&[true]);
        }
        let second = sim.activity();
        // No new toggles in the second half.
        let total_first: f64 = first.per_net.iter().map(|a| a * first.cycles as f64).sum();
        let total_second: f64 = second
            .per_net
            .iter()
            .map(|a| a * second.cycles as f64)
            .sum();
        assert_eq!(total_first, total_second);
    }

    #[test]
    #[should_panic(expected = "one value per primary input")]
    fn step_checks_input_width() {
        let mut nl = Netlist::new("w");
        let a = nl.add_input("a");
        let x = nl.add_net("x");
        nl.add_gate(GateKind::Inv, &[a], &[x]);
        let mut sim = Simulator::new(&nl).unwrap();
        sim.step(&[]);
    }
}
