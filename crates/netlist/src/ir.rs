//! Technology-independent gate-level IR.
//!
//! A [`Netlist`] is a bag of single-driver nets connected by gates. Gates
//! are *generic* logic functions ([`GateKind`]); the synthesis crate maps
//! them onto concrete library cells and picks drive strengths. Flip-flops
//! are gates like any other; the clock network is implicit (clock-tree
//! synthesis is out of scope, as it is in the paper).
//!
//! The storage is a handful of flat arrays, so a million-gate design is a
//! dozen allocations rather than millions:
//!
//! * connectivity in CSR form — `in_off[g]..in_off[g+1]` indexes the
//!   shared `in_net` array (likewise `out_off`/`out_net`), so a gate's
//!   pins are a slice;
//! * net names in one string arena (`names` + `name_off`), appended via
//!   [`fmt::Display`] so generators can stream `format_args!` names
//!   without materializing a `String` per net;
//! * gate names are not stored: gate `i` is named `g{i}_{kind}`
//!   ([`Netlist::gate_name`]).
//!
//! Validation and the combinational order are index-based linear passes.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt::{self, Write as _};

/// Identifier of a net within its netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct NetId(pub u32);

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Generic logic functions the design generator emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum GateKind {
    /// Inverter: 1 input.
    Inv,
    /// Buffer: 1 input (inserted by synthesis, never by the generator).
    Buf,
    /// N-input AND (2–4 inputs).
    And,
    /// N-input OR (2–4 inputs).
    Or,
    /// N-input NAND (2–4 inputs).
    Nand,
    /// N-input NOR (2–4 inputs).
    Nor,
    /// 2-input XOR.
    Xor,
    /// 2-input XNOR.
    Xnor,
    /// 2:1 mux: inputs `[a, b, sel]`.
    Mux2,
    /// 4:1 mux: inputs `[a, b, c, d, s0, s1]`.
    Mux4,
    /// Half adder: inputs `[a, b]`, outputs `[sum, carry]`.
    HalfAdder,
    /// Full adder: inputs `[a, b, cin]`, outputs `[sum, carry]`.
    FullAdder,
    /// Rising-edge D flip-flop: inputs `[d]`, outputs `[q]`.
    Dff,
}

impl GateKind {
    /// Whether the gate is sequential.
    pub fn is_sequential(self) -> bool {
        matches!(self, GateKind::Dff)
    }

    /// Allowed input-count range.
    pub fn input_arity(self) -> std::ops::RangeInclusive<usize> {
        match self {
            GateKind::Inv | GateKind::Buf => 1..=1,
            GateKind::And | GateKind::Or | GateKind::Nand | GateKind::Nor => 2..=4,
            GateKind::Xor | GateKind::Xnor | GateKind::HalfAdder => 2..=2,
            GateKind::Mux2 | GateKind::FullAdder => 3..=3,
            GateKind::Mux4 => 6..=6,
            GateKind::Dff => 1..=1,
        }
    }

    /// Number of outputs.
    pub fn output_count(self) -> usize {
        match self {
            GateKind::HalfAdder | GateKind::FullAdder => 2,
            _ => 1,
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GateKind::Inv => "inv",
            GateKind::Buf => "buf",
            GateKind::And => "and",
            GateKind::Or => "or",
            GateKind::Nand => "nand",
            GateKind::Nor => "nor",
            GateKind::Xor => "xor",
            GateKind::Xnor => "xnor",
            GateKind::Mux2 => "mux2",
            GateKind::Mux4 => "mux4",
            GateKind::HalfAdder => "half-adder",
            GateKind::FullAdder => "full-adder",
            GateKind::Dff => "dff",
        };
        f.write_str(s)
    }
}

/// Error returned by [`Netlist::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateNetlistError {
    /// A net is driven by more than one gate/primary input.
    MultipleDrivers {
        /// The offending net.
        net: NetId,
        /// Name of the net.
        name: String,
    },
    /// A net is read but never driven.
    Undriven {
        /// The offending net.
        net: NetId,
        /// Name of the net.
        name: String,
    },
    /// A gate's input or output count is outside its kind's arity.
    BadArity {
        /// The offending gate's name.
        gate: String,
    },
    /// A gate references a net id outside the netlist.
    DanglingNet {
        /// The offending gate's name.
        gate: String,
    },
    /// The combinational part of the netlist contains a cycle.
    CombinationalCycle {
        /// Name of a net on the cycle.
        net: String,
    },
    /// A primary input or output references a net id outside the netlist.
    DanglingPort {
        /// `"input"` or `"output"`.
        port: &'static str,
        /// The offending net id.
        net: NetId,
    },
}

impl fmt::Display for ValidateNetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateNetlistError::MultipleDrivers { name, .. } => {
                write!(f, "net `{name}` has multiple drivers")
            }
            ValidateNetlistError::Undriven { name, .. } => {
                write!(f, "net `{name}` is read but never driven")
            }
            ValidateNetlistError::BadArity { gate } => {
                write!(f, "gate `{gate}` has the wrong number of connections")
            }
            ValidateNetlistError::DanglingNet { gate } => {
                write!(f, "gate `{gate}` references a non-existent net")
            }
            ValidateNetlistError::CombinationalCycle { net } => {
                write!(f, "combinational cycle through net `{net}`")
            }
            ValidateNetlistError::DanglingPort { port, net } => {
                write!(f, "primary {port} references non-existent net {net}")
            }
        }
    }
}

impl Error for ValidateNetlistError {}

/// A gate-level design; see the module docs for the layout.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Netlist {
    /// Design name.
    pub name: String,
    /// Primary input nets (driven from outside).
    pub primary_inputs: Vec<NetId>,
    /// Primary output nets (observed outside).
    pub primary_outputs: Vec<NetId>,
    /// Net-name arena: net `i`'s name is `names[name_off[i]..name_off[i+1]]`.
    names: String,
    name_off: Vec<u32>,
    /// Gate kinds, indexed by gate.
    kinds: Vec<GateKind>,
    /// CSR input pins: gate `g` reads `in_net[in_off[g]..in_off[g+1]]`.
    in_off: Vec<u32>,
    in_net: Vec<NetId>,
    /// CSR output pins: gate `g` drives `out_net[out_off[g]..out_off[g+1]]`.
    out_off: Vec<u32>,
    out_net: Vec<NetId>,
}

impl Default for Netlist {
    fn default() -> Self {
        Self::new("")
    }
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            primary_inputs: Vec::new(),
            primary_outputs: Vec::new(),
            names: String::new(),
            name_off: vec![0],
            kinds: Vec::new(),
            in_off: vec![0],
            in_net: Vec::new(),
            out_off: vec![0],
            out_net: Vec::new(),
        }
    }

    /// Creates an empty netlist with storage reserved for roughly the
    /// given shape (counts may be exceeded; this only avoids regrowth).
    pub fn with_capacity(name: impl Into<String>, gates: usize, nets: usize) -> Self {
        let mut s = Self::new(name);
        s.names.reserve(nets * 12);
        s.name_off.reserve(nets);
        s.kinds.reserve(gates);
        s.in_off.reserve(gates);
        // ~2.2 inputs per gate across the generators.
        s.in_net.reserve(gates * 2 + gates / 4);
        s.out_off.reserve(gates);
        s.out_net.reserve(gates + gates / 8);
        s
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.name_off.len() - 1
    }

    /// Number of gates.
    pub fn gate_count(&self) -> usize {
        self.kinds.len()
    }

    /// Adds a net, streaming its name into the arena ([`format_args!`]
    /// values print straight into the shared buffer), and returns its id.
    pub fn add_net(&mut self, name: impl fmt::Display) -> NetId {
        let id = NetId(self.net_count() as u32);
        #[allow(clippy::expect_used)] // fmt::Write into a String is infallible
        write!(self.names, "{name}").expect("writing to String cannot fail");
        assert!(
            self.names.len() <= u32::MAX as usize,
            "net-name arena exceeds u32 offsets"
        );
        self.name_off.push(self.names.len() as u32);
        id
    }

    /// Adds a primary input net.
    pub fn add_input(&mut self, name: impl fmt::Display) -> NetId {
        let id = self.add_net(name);
        self.primary_inputs.push(id);
        id
    }

    /// Marks an existing net as a primary input.
    pub fn mark_input(&mut self, net: NetId) {
        self.primary_inputs.push(net);
    }

    /// Marks an existing net as a primary output.
    pub fn mark_output(&mut self, net: NetId) {
        self.primary_outputs.push(net);
    }

    /// Appends a gate and returns its index. Pin counts are not checked
    /// here: [`Netlist::validate`] reports a gate outside its kind's arity
    /// as [`ValidateNetlistError::BadArity`].
    pub fn add_gate(&mut self, kind: GateKind, inputs: &[NetId], outputs: &[NetId]) -> usize {
        let gi = self.kinds.len();
        self.kinds.push(kind);
        self.in_net.extend_from_slice(inputs);
        self.in_off.push(self.in_net.len() as u32);
        self.out_net.extend_from_slice(outputs);
        self.out_off.push(self.out_net.len() as u32);
        gi
    }

    /// Rewires input pin `k` of gate `gi` to `net`.
    pub fn set_gate_input(&mut self, gi: usize, k: usize, net: NetId) {
        let (lo, hi) = (self.in_off[gi] as usize, self.in_off[gi + 1] as usize);
        self.in_net[lo..hi][k] = net;
    }

    /// Kind of gate `gi`.
    pub fn gate_kind(&self, gi: usize) -> GateKind {
        self.kinds[gi]
    }

    /// Input nets of gate `gi`, in pin order.
    pub fn gate_inputs(&self, gi: usize) -> &[NetId] {
        &self.in_net[self.in_off[gi] as usize..self.in_off[gi + 1] as usize]
    }

    /// Output nets of gate `gi`, in pin order.
    pub fn gate_outputs(&self, gi: usize) -> &[NetId] {
        &self.out_net[self.out_off[gi] as usize..self.out_off[gi + 1] as usize]
    }

    /// Instance name of gate `gi`: `g{gi}_{kind}`.
    pub fn gate_name(&self, gi: usize) -> String {
        format!("g{gi}_{}", self.kinds[gi])
    }

    /// Name of a net.
    pub fn net_name(&self, id: NetId) -> &str {
        let i = id.0 as usize;
        &self.names[self.name_off[i] as usize..self.name_off[i + 1] as usize]
    }

    /// Maps each net to the gate index driving it (primary inputs map to
    /// `None` and do not appear).
    pub fn driver_map(&self) -> BTreeMap<NetId, usize> {
        let mut m = BTreeMap::new();
        for gi in 0..self.gate_count() {
            for &o in self.gate_outputs(gi) {
                m.insert(o, gi);
            }
        }
        m
    }

    /// Maps each net to the gate indices reading it.
    pub fn fanout_map(&self) -> BTreeMap<NetId, Vec<usize>> {
        let mut m: BTreeMap<NetId, Vec<usize>> = BTreeMap::new();
        for gi in 0..self.gate_count() {
            for &i in self.gate_inputs(gi) {
                m.entry(i).or_default().push(gi);
            }
        }
        m
    }

    /// Number of fanout sinks of a net (gate inputs plus primary-output
    /// taps).
    pub fn fanout_count(&self, net: NetId) -> usize {
        let gates = self.in_net.iter().filter(|&&i| i == net).count();
        let pos = self.primary_outputs.iter().filter(|&&o| o == net).count();
        gates + pos
    }

    /// Structural and acyclicity validation.
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidateNetlistError`] found; see
    /// [`Netlist::comb_order`].
    pub fn validate(&self) -> Result<(), ValidateNetlistError> {
        self.comb_order().map(drop)
    }

    /// Validates the netlist and returns a topological order of its
    /// combinational gates; flip-flop outputs act as sources and flip-flop
    /// inputs as sinks, so paths may only close through flip-flops.
    ///
    /// The order is Kahn's: the zero-in-degree gates are seeded in
    /// ascending order, successors are recorded in gate and pin order, and
    /// the work list pops last-in first-out.
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidateNetlistError`] found: port ids first,
    /// then arity and dangling checks per gate, the single-driver check per
    /// output pin, the no-undriven check per input pin, and finally a
    /// combinational cycle.
    pub fn comb_order(&self) -> Result<Vec<usize>, ValidateNetlistError> {
        let n = self.net_count() as u32;
        // Port ids come first: everything below indexes per-net tables with
        // them, so an out-of-range id must become a typed error, not a
        // panic.
        for (port, ids) in [
            ("input", &self.primary_inputs),
            ("output", &self.primary_outputs),
        ] {
            if let Some(&id) = ids.iter().find(|id| id.0 >= n) {
                return Err(ValidateNetlistError::DanglingPort { port, net: id });
            }
        }
        let mut drivers: Vec<u8> = vec![0; n as usize];
        for &pi in &self.primary_inputs {
            drivers[pi.0 as usize] += 1;
        }
        for gi in 0..self.gate_count() {
            let (inputs, outputs) = (self.gate_inputs(gi), self.gate_outputs(gi));
            let kind = self.kinds[gi];
            if !kind.input_arity().contains(&inputs.len()) || outputs.len() != kind.output_count() {
                return Err(ValidateNetlistError::BadArity {
                    gate: self.gate_name(gi),
                });
            }
            if inputs.iter().chain(outputs).any(|id| id.0 >= n) {
                return Err(ValidateNetlistError::DanglingNet {
                    gate: self.gate_name(gi),
                });
            }
            for &o in outputs {
                drivers[o.0 as usize] += 1;
                if drivers[o.0 as usize] > 1 {
                    return Err(ValidateNetlistError::MultipleDrivers {
                        net: o,
                        name: self.net_name(o).to_string(),
                    });
                }
            }
        }
        if let Some(&i) = self.in_net.iter().find(|i| drivers[i.0 as usize] == 0) {
            return Err(ValidateNetlistError::Undriven {
                net: i,
                name: self.net_name(i).to_string(),
            });
        }
        self.kahn()
    }

    /// Kahn's algorithm over the combinational subgraph, with a CSR
    /// successor table. Runs on a structurally valid netlist.
    fn kahn(&self) -> Result<Vec<usize>, ValidateNetlistError> {
        let n_gates = self.gate_count();
        const NO_DRIVER: u32 = u32::MAX;
        let mut driver = vec![NO_DRIVER; self.net_count()];
        for gi in 0..n_gates {
            for &o in self.gate_outputs(gi) {
                driver[o.0 as usize] = gi as u32;
            }
        }
        let comb = |gi: usize| !self.kinds[gi].is_sequential();
        // Comb→comb edge counts per source gate, then a CSR fill.
        let mut succ_off = vec![0u32; n_gates + 1];
        let mut indeg = vec![0u32; n_gates];
        for (gi, deg) in indeg.iter_mut().enumerate() {
            if !comb(gi) {
                continue;
            }
            for &inp in self.gate_inputs(gi) {
                let src = driver[inp.0 as usize];
                if src != NO_DRIVER && comb(src as usize) {
                    succ_off[src as usize + 1] += 1;
                    *deg += 1;
                }
            }
        }
        for i in 0..n_gates {
            succ_off[i + 1] += succ_off[i];
        }
        let mut succ = vec![0u32; succ_off[n_gates] as usize];
        let mut cursor: Vec<u32> = succ_off[..n_gates].to_vec();
        for gi in 0..n_gates {
            if !comb(gi) {
                continue;
            }
            for &inp in self.gate_inputs(gi) {
                let src = driver[inp.0 as usize];
                if src != NO_DRIVER && comb(src as usize) {
                    let c = &mut cursor[src as usize];
                    succ[*c as usize] = gi as u32;
                    *c += 1;
                }
            }
        }
        let mut queue: Vec<u32> = (0..n_gates)
            .filter(|&gi| comb(gi) && indeg[gi] == 0)
            .map(|gi| gi as u32)
            .collect();
        let mut order = Vec::with_capacity(n_gates);
        while let Some(gi) = queue.pop() {
            order.push(gi as usize);
            let (lo, hi) = (succ_off[gi as usize], succ_off[gi as usize + 1]);
            for &s in &succ[lo as usize..hi as usize] {
                indeg[s as usize] -= 1;
                if indeg[s as usize] == 0 {
                    queue.push(s);
                }
            }
        }
        // Kahn's algorithm stalls only on a cycle, which leaves at least
        // one combinational gate with positive in-degree.
        if let Some(stuck) = (0..n_gates).find(|&gi| comb(gi) && indeg[gi] > 0) {
            return Err(ValidateNetlistError::CombinationalCycle {
                net: self.net_name(self.gate_outputs(stuck)[0]).to_string(),
            });
        }
        Ok(order)
    }

    /// Renders the netlist as Graphviz DOT (for small debugging dumps).
    pub fn to_dot(&self) -> String {
        let mut s = String::from("digraph netlist {\n  rankdir=LR;\n");
        for gi in 0..self.gate_count() {
            let name = self.gate_name(gi);
            let _ = writeln!(s, "  \"{name}\" [label=\"{name}\\n{}\"];", self.kinds[gi]);
        }
        let driver = self.driver_map();
        for gi in 0..self.gate_count() {
            let name = self.gate_name(gi);
            for &i in self.gate_inputs(gi) {
                match driver.get(&i) {
                    Some(&src) => {
                        let _ = writeln!(
                            s,
                            "  \"{}\" -> \"{name}\" [label=\"{}\"];",
                            self.gate_name(src),
                            self.net_name(i)
                        );
                    }
                    None => {
                        let _ = writeln!(s, "  \"{}\" -> \"{name}\";", self.net_name(i));
                    }
                }
            }
        }
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Netlist {
        let mut n = Netlist::new("tiny");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let x = n.add_net("x");
        let y = n.add_net("y");
        n.add_gate(GateKind::Nand, &[a, b], &[x]);
        n.add_gate(GateKind::Inv, &[x], &[y]);
        n.mark_output(y);
        n
    }

    #[test]
    fn tiny_netlist_validates() {
        tiny().validate().unwrap();
    }

    #[test]
    fn default_is_an_empty_netlist() {
        let mut n = Netlist::default();
        assert_eq!(n, Netlist::new(""));
        let a = n.add_input("a");
        let z = n.add_net("z");
        let g = n.add_gate(GateKind::Inv, &[a], &[z]);
        assert_eq!((a, z, g), (NetId(0), NetId(1), 0));
        assert_eq!((n.net_name(a), n.net_name(z)), ("a", "z"));
        n.validate().unwrap();
    }

    #[test]
    fn rows_and_derived_names_read_back() {
        let mut n = tiny();
        assert_eq!(n.gate_name(0), "g0_nand");
        assert_eq!(n.gate_name(1), "g1_inv");
        assert_eq!(n.gate_inputs(0), &[NetId(0), NetId(1)]);
        assert_eq!(n.gate_outputs(1), &[NetId(3)]);
        // Rewiring one pin leaves every other row as it was.
        n.set_gate_input(0, 1, NetId(0));
        assert_eq!(n.gate_inputs(0), &[NetId(0), NetId(0)]);
        assert_eq!(n.gate_inputs(1), &[NetId(2)]);
    }

    #[test]
    fn bad_arity_names_the_gate() {
        let mut n = Netlist::new("bad");
        let a = n.add_input("a");
        let z = n.add_net("z");
        n.add_gate(GateKind::Mux2, &[a], &[z]);
        assert_eq!(
            n.validate(),
            Err(ValidateNetlistError::BadArity {
                gate: "g0_mux2".into()
            })
        );
        // A wrong output count is the same error.
        let mut n = tiny();
        let s = n.add_net("s");
        n.add_gate(GateKind::HalfAdder, &[NetId(0), NetId(1)], &[s]);
        assert_eq!(
            n.validate(),
            Err(ValidateNetlistError::BadArity {
                gate: "g2_half-adder".into()
            })
        );
    }

    #[test]
    fn dangling_net_names_the_gate() {
        let mut n = Netlist::new("dangle");
        let a = n.add_input("a");
        let z = n.add_net("z");
        n.add_gate(GateKind::Inv, &[a], &[z]);
        n.add_gate(GateKind::Inv, &[z], &[NetId(2)]);
        assert_eq!(
            n.validate(),
            Err(ValidateNetlistError::DanglingNet {
                gate: "g1_inv".into()
            })
        );
        let mut n = tiny();
        n.set_gate_input(1, 0, NetId(99));
        assert_eq!(
            n.validate(),
            Err(ValidateNetlistError::DanglingNet {
                gate: "g1_inv".into()
            })
        );
    }

    #[test]
    fn multiple_drivers_name_the_net() {
        let mut n = tiny();
        n.add_gate(GateKind::Inv, &[NetId(0)], &[NetId(2)]);
        assert_eq!(
            n.validate(),
            Err(ValidateNetlistError::MultipleDrivers {
                net: NetId(2),
                name: "x".into()
            })
        );
        // A gate driving a primary input is a second driver too.
        let mut n = tiny();
        n.add_gate(GateKind::Inv, &[NetId(2)], &[NetId(1)]);
        assert_eq!(
            n.validate(),
            Err(ValidateNetlistError::MultipleDrivers {
                net: NetId(1),
                name: "b".into()
            })
        );
    }

    #[test]
    fn undriven_names_the_first_read_net() {
        let mut n = Netlist::new("u");
        let a = n.add_input("a");
        let ghost = n.add_net("ghost");
        let late = n.add_net("late");
        let (x, y) = (n.add_net("x"), n.add_net("y"));
        n.add_gate(GateKind::Nand, &[a, ghost], &[x]);
        n.add_gate(GateKind::Inv, &[late], &[y]);
        assert_eq!(
            n.validate(),
            Err(ValidateNetlistError::Undriven {
                net: ghost,
                name: "ghost".into()
            })
        );
    }

    #[test]
    fn combinational_cycle_names_the_first_stuck_gate_output() {
        let mut n = Netlist::new("cyc");
        let a = n.add_input("a");
        let x = n.add_net("x");
        let y = n.add_net("y");
        n.add_gate(GateKind::Nand, &[a, y], &[x]);
        n.add_gate(GateKind::Inv, &[x], &[y]);
        assert_eq!(
            n.validate(),
            Err(ValidateNetlistError::CombinationalCycle { net: "x".into() })
        );
        // A self-loop built by rewiring one pin.
        let mut n = tiny();
        n.set_gate_input(1, 0, NetId(3));
        assert_eq!(
            n.comb_order(),
            Err(ValidateNetlistError::CombinationalCycle { net: "y".into() })
        );
    }

    #[test]
    fn dangling_port_is_reported_without_panicking() {
        let mut n = tiny();
        n.primary_outputs[0] = NetId(99);
        assert_eq!(
            n.validate(),
            Err(ValidateNetlistError::DanglingPort {
                port: "output",
                net: NetId(99)
            })
        );
        let mut n = tiny();
        n.primary_inputs.push(NetId(1_000_000));
        assert_eq!(
            n.validate(),
            Err(ValidateNetlistError::DanglingPort {
                port: "input",
                net: NetId(1_000_000)
            })
        );
    }

    #[test]
    fn ports_are_checked_before_gates() {
        let mut n = tiny();
        n.add_gate(GateKind::Mux2, &[], &[]);
        n.mark_output(NetId(7));
        assert!(matches!(
            n.validate(),
            Err(ValidateNetlistError::DanglingPort { port: "output", .. })
        ));
    }

    #[test]
    fn cycle_through_dff_is_fine() {
        let mut n = Netlist::new("counter-bit");
        let q = n.add_net("q");
        let d = n.add_net("d");
        n.add_gate(GateKind::Inv, &[q], &[d]);
        n.add_gate(GateKind::Dff, &[d], &[q]);
        n.validate().unwrap();
        assert_eq!(n.comb_order().unwrap(), vec![0]);
    }

    #[test]
    fn comb_order_is_kahn_with_a_lifo_work_list() {
        // g0 and g1 both start at in-degree 0; the work list pops g1
        // first, and g2 becomes ready only after both.
        let mut n = Netlist::new("order");
        let a = n.add_input("a");
        let (x, y, z, q) = (
            n.add_net("x"),
            n.add_net("y"),
            n.add_net("z"),
            n.add_net("q"),
        );
        n.add_gate(GateKind::Inv, &[a], &[x]);
        n.add_gate(GateKind::Inv, &[a], &[y]);
        n.add_gate(GateKind::Nand, &[x, y], &[z]);
        n.add_gate(GateKind::Dff, &[z], &[q]);
        n.mark_output(q);
        assert_eq!(n.comb_order().unwrap(), vec![1, 0, 2]);
    }

    #[test]
    fn fanout_counts_gates_and_outputs() {
        let mut n = Netlist::new("f");
        let a = n.add_input("a");
        let x = n.add_net("x");
        let y = n.add_net("y");
        n.add_gate(GateKind::Inv, &[a], &[x]);
        n.add_gate(GateKind::Inv, &[a], &[y]);
        n.mark_output(a);
        assert_eq!(n.fanout_count(a), 3);
        assert_eq!(n.fanout_count(x), 0);
    }

    #[test]
    fn driver_and_fanout_maps_agree() {
        let n = tiny();
        let d = n.driver_map();
        let f = n.fanout_map();
        assert_eq!(d[&NetId(2)], 0);
        assert_eq!(f[&NetId(2)], vec![1]);
        assert!(!d.contains_key(&NetId(0)));
    }

    #[test]
    fn dot_export_mentions_every_gate() {
        let n = tiny();
        let dot = n.to_dot();
        for gi in 0..n.gate_count() {
            assert!(dot.contains(&n.gate_name(gi)));
        }
        assert!(dot.starts_with("digraph"));
    }

    #[test]
    fn full_adder_has_two_outputs() {
        let mut n = Netlist::new("fa");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let s = n.add_net("s");
        let co = n.add_net("co");
        n.add_gate(GateKind::FullAdder, &[a, b, c], &[s, co]);
        n.validate().unwrap();
        assert_eq!(GateKind::FullAdder.output_count(), 2);
    }
}
